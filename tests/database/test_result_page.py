"""Unit tests for the lazily rendered result page and its laziness guarantees."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algorithms.random_walk import RandomWalkSampler
from repro.backends import adapters
from repro.backends.adapters import QueryEngineBackend
from repro.backends.history import CachedResponseSource, HistoryLayer
from repro.backends.shard import ShardRouter, TableShardBackend
from repro.backends.stack import engine_stack
from repro.database.interface import ResultPage, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import DomainValueError


def _returned(tuple_id: int) -> ReturnedTuple:
    return ReturnedTuple(tuple_id, {"a": tuple_id * 10}, {"a": f"v{tuple_id}"})


class _CountingRender:
    """A render callable that records every tuple id it renders."""

    def __init__(self) -> None:
        self.rendered: list[int] = []

    def __call__(self, tuple_id: int) -> ReturnedTuple:
        self.rendered.append(tuple_id)
        return _returned(tuple_id)


@pytest.fixture()
def count_renders(monkeypatch):
    """Count the rows the engine adapters render, through every page."""
    rendered: list[int] = []
    build = adapters.build_returned_tuple

    def counting(table, row_id, display_columns=()):
        rendered.append(row_id)
        return build(table, row_id, display_columns)

    monkeypatch.setattr(adapters, "build_returned_tuple", counting)
    return rendered


class TestResultPage:
    def test_length_and_truth_render_nothing(self):
        render = _CountingRender()
        page = ResultPage([5, 3, 8], render)
        assert len(page) == 3
        assert page
        assert not ResultPage([], render)
        assert page.tuple_ids == (5, 3, 8)
        assert render.rendered == []

    def test_index_renders_only_that_position(self):
        render = _CountingRender()
        page = ResultPage([5, 3, 8], render)
        assert page[1] == _returned(3)
        assert render.rendered == [3]
        assert page[-1] == _returned(8)
        assert render.rendered == [3, 8]
        with pytest.raises(IndexError):
            page[3]
        with pytest.raises(IndexError):
            page[-4]

    def test_slice_returns_a_plain_tuple(self):
        render = _CountingRender()
        page = ResultPage([5, 3, 8, 1], render)
        assert page[1:3] == (_returned(3), _returned(8))
        assert type(page[1:3]) is tuple
        assert page[::-2] == (_returned(1), _returned(3))
        assert sorted(render.rendered) == [1, 3, 8]

    def test_iteration_keeps_page_order_and_caches(self):
        render = _CountingRender()
        page = ResultPage([5, 3, 8], render)
        assert [t.tuple_id for t in page] == [5, 3, 8]
        assert list(page) == [_returned(5), _returned(3), _returned(8)]
        assert page[0] is next(iter(page))
        assert render.rendered == [5, 3, 8]

    def test_each_position_renders_at_most_once(self):
        render = _CountingRender()
        page = ResultPage([5, 3, 8], render)
        first = page[1]
        assert page[-2] is first
        assert tuple(page)[1] is first
        page[0], page[2:], list(page), page == tuple(page)
        assert sorted(render.rendered) == [3, 5, 8]

    def test_equals_a_tuple_in_both_directions(self):
        page = ResultPage([5, 3], _CountingRender())
        eager = (_returned(5), _returned(3))
        assert page == eager
        assert eager == page
        assert not page != eager
        assert page != eager[::-1]
        assert eager[::-1] != page

    def test_equals_another_page_with_the_same_contents(self):
        assert ResultPage([5, 3], _CountingRender()) == ResultPage([5, 3], _CountingRender())
        assert ResultPage([5, 3], _CountingRender()) != ResultPage([3, 5], _CountingRender())
        assert ResultPage([], _CountingRender()) == ()

    def test_never_equals_a_list_and_is_unhashable(self):
        page = ResultPage([5, 3], _CountingRender())
        assert page != [_returned(5), _returned(3)]
        assert [_returned(5), _returned(3)] != page
        with pytest.raises(TypeError):
            hash(page)

    def test_concurrent_first_reads_agree(self):
        """More reader threads than cores race on one unrendered page: every
        read sees the eagerly rendered tuple, and the page settles on it."""
        ids = list(range(40))
        eager = tuple(map(_returned, ids))
        page = ResultPage(ids, _CountingRender())
        seen: list[bool] = []
        start = threading.Barrier(8)

        def reader(offset: int) -> None:
            start.wait(timeout=10)
            ok = all(page[(offset + i) % 40] == eager[(offset + i) % 40] for i in range(40))
            seen.append(ok and tuple(page) == eager)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(5 * n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [True] * 8
        assert page == eager and list(page) == list(eager)

    def test_is_immutable(self):
        page = ResultPage([5], _CountingRender())
        with pytest.raises(AttributeError):
            page.tuple_ids = (1,)
        with pytest.raises(AttributeError):
            page.extra = 1


    def test_narrow_without_an_index_filters_rendered_rows_once(self):
        schema = Schema([Attribute("a", Domain.categorical(("v3", "v5", "v8")))])
        render = _CountingRender()
        page = ResultPage([5, 3, 8], render)
        narrowed = page.narrow(ConjunctiveQuery.from_assignment(schema, {"a": "v3"}))
        assert isinstance(narrowed, ResultPage)
        assert narrowed.tuple_ids == (3,) and narrowed == (_returned(3),)
        assert narrowed.narrow(ConjunctiveQuery.from_assignment(schema, {"a": "v5"})) == ()
        assert sorted(render.rendered) == [3, 5, 8]

    def test_narrow_with_an_index_renders_nothing(self, tiny_table, tiny_schema):
        render = _CountingRender()
        page = ResultPage([6, 0, 5, 2], render, tiny_table.index)
        narrowed = page.narrow(ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"}))
        assert narrowed.tuple_ids == (6, 0, 2)
        assert render.rendered == []
        assert narrowed[0] == _returned(6)
        assert render.rendered == [6]

    def test_iter_uncached_leaves_the_page_unrendered(self):
        render = _CountingRender()
        page = ResultPage([5, 3], render)
        assert list(page.iter_uncached()) == [_returned(5), _returned(3)]
        assert list(page.iter_uncached()) == [_returned(5), _returned(3)]
        assert render.rendered == [5, 3, 5, 3]
        assert tuple(page) == (_returned(5), _returned(3))
        assert list(page.iter_uncached()) == [_returned(5), _returned(3)]
        assert render.rendered == [5, 3, 5, 3, 5, 3]


class TestReturnedTupleCodec:
    def test_dict_round_trip(self):
        returned = _returned(4)
        assert ReturnedTuple.from_dict(returned.to_dict()) == returned

    def test_from_dict_coerces_the_tuple_id(self):
        payload = {"tuple_id": "7", "values": {"a": 1}, "selectable_values": {"a": "x"}}
        assert ReturnedTuple.from_dict(payload).tuple_id == 7

    def test_history_import_coerces_the_tuple_id(self, tiny_interface, tiny_schema):
        layer = HistoryLayer(tiny_interface)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        layer.submit(query)
        entries = layer.export_entries()
        for entry in entries:
            for item in entry["tuples"]:
                item["tuple_id"] = str(item["tuple_id"])
        restored = HistoryLayer(tiny_interface)
        assert restored.import_entries(entries) == len(entries)
        assert [type(t.tuple_id) for t in restored.submit(query).tuples] == [int, int]


class TestBadRowsFailAtSubmit:
    @pytest.fixture()
    def bad_table(self, tiny_schema):
        return Table(
            tiny_schema,
            [
                {"make": "Ford", "color": "red", "price": 5_000.0},
                {"make": "Ford", "color": "blue", "price": 999_999.0},
                {"make": "Honda", "color": "blue", "price": 15_000.0},
            ],
            validate=False,
        )

    def test_index_records_out_of_domain_cells(self, bad_table, tiny_table):
        assert bad_table.index.has_unbinnable
        assert not tiny_table.index.has_unbinnable

    def test_engine_backend_submit_raises(self, bad_table, tiny_schema):
        backend = QueryEngineBackend(bad_table, k=5)
        with pytest.raises(DomainValueError) as raised:
            backend.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        assert raised.value.attribute == "price"
        page = backend.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}))
        assert [t.tuple_id for t in page.tuples] == [2]

    def test_shard_backend_submit_raises(self, bad_table, tiny_schema):
        shard = TableShardBackend(bad_table, 5, shard_index=1, n_shards=2)
        with pytest.raises(DomainValueError):
            shard.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        other = TableShardBackend(bad_table, 5, shard_index=0, n_shards=2)
        response = other.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        assert [t.tuple_id for t in response.tuples] == [0]


class TestLaziness:
    def test_overflowing_query_through_a_history_stack_renders_nothing(
        self, count_renders, boolean_table
    ):
        stack = engine_stack(boolean_table, 10, history=True)
        response = stack.submit(ConjunctiveQuery.empty(boolean_table.schema))
        assert response.overflow and len(response.tuples) == 10
        assert stack.submit(ConjunctiveQuery.empty(boolean_table.schema)).overflow
        assert count_renders == []

    def test_a_walk_renders_at_most_one_tuple_per_valid_page(
        self, count_renders, boolean_table
    ):
        # No history layer: an exact hit replays a page a walk has already
        # drawn from, so that draw renders nothing.
        sampler = RandomWalkSampler(engine_stack(boolean_table, 5), seed=3)
        drawn_pages = 0
        for _ in range(40):
            before = len(count_renders)
            candidate = sampler.draw_candidate()
            if candidate is None:
                assert len(count_renders) == before
            else:
                drawn_pages += 1
                assert count_renders[before:] == [candidate.tuple_id]
        assert drawn_pages > 0

    def test_inferring_from_a_valid_ancestor_renders_nothing(
        self, count_renders, tiny_table, tiny_schema
    ):
        stack = engine_stack(tiny_table, 5, history=True)
        ancestor = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        assert stack.submit(ancestor).valid
        inferred = stack.submit(ancestor.specialise("color", "red"))
        assert stack.history.last_source is CachedResponseSource.INFERRED
        assert len(inferred.tuples) == 2 and not inferred.overflow
        assert count_renders == []
        assert [t.tuple_id for t in inferred.tuples] == [0, 2]
        assert count_renders == [0, 2]

    def test_shard_merge_renders_only_the_rows_it_keeps(self, count_renders, boolean_table):
        router = ShardRouter.over_table(boolean_table, 4, k=10)
        response = router.submit(ConjunctiveQuery.empty(boolean_table.schema))
        assert response.overflow and len(response.tuples) == 10
        assert count_renders == []
        assert response.tuples[3].tuple_id == 3
        assert count_renders == [3]
        assert [t.tuple_id for t in response.tuples] == list(range(10))
        assert sorted(count_renders) == list(range(10))
