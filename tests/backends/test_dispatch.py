"""Concurrent dispatch: byte-identical to serial, whatever the thread timing.

The contract under test is absolute: a :class:`ConcurrentShardRouter` (any
worker count, any shard count, any ranking) returns *exactly* the response a
serial :class:`ShardRouter` over the same shards returns, and
a stack's ``submit_many`` under a ``DispatchLayer`` returns exactly what a
serial loop would, in input order.  Concurrency may only change the wall clock.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    BackendStack,
    ConcurrentShardRouter,
    DispatchLayer,
    QueryEngineBackend,
    ShardRouter,
    StatisticsLayer,
    TableShardBackend,
    UnreliableLayer,
    engine_stack,
    sharded_stack,
    web_stack,
)
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import ConfigurationError, InterfaceError, TransientBackendError
from repro.web.server import HiddenWebSite

from tests.property.test_properties import schema_and_table


def _rankings():
    return [
        RowIdRanking(),
        StaticScoreRanking("score"),
        AttributeWeightedRanking({"score": 1.0, "attr0": -0.5}),
        HashRanking("dispatch"),
    ]


def _random_queries(schema, rng, count):
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class TestConcurrentShardRouterEquivalence:
    def test_partitioned_layout_is_byte_identical(self, tiny_table, tiny_schema):
        serial = ShardRouter.over_table(tiny_table, 3, k=2, ranking=StaticScoreRanking())
        with ConcurrentShardRouter.over_table(
            tiny_table, 3, k=2, ranking=StaticScoreRanking(), max_workers=2
        ) as parallel:
            for query in _random_queries(tiny_schema, random.Random(0), 30):
                assert parallel.submit(query) == serial.submit(query)

    def test_heterogeneous_shards_are_byte_identical(self, tiny_table, tiny_schema):
        # Latency-wrapped shards defeat the shared-index fast path, taking
        # the independent scatter branch — the round-trip-bound case the
        # concurrent router exists for.
        def shards():
            return [
                UnreliableLayer(TableShardBackend(tiny_table, 2, i, 3), latency=0.001)
                for i in range(3)
            ]

        serial = ShardRouter(shards())
        with ConcurrentShardRouter(shards(), max_workers=3) as parallel:
            for query in _random_queries(tiny_schema, random.Random(1), 15):
                assert parallel.submit(query) == serial.submit(query)

    @given(data=schema_and_table(), n_shards=st.integers(1, 6), max_workers=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_property_any_shard_and_worker_count_all_rankings(
        self, data, n_shards, max_workers
    ):
        """The satellite property: parallel dispatch (any worker count, any
        shard count) is byte-identical to serial across the four rankings."""
        schema, table = data
        queries = _random_queries(schema, random.Random(42), 6)
        for ranking in _rankings():
            serial = ShardRouter.over_table(table, n_shards, k=3, ranking=ranking)
            with ConcurrentShardRouter.over_table(
                table, n_shards, k=3, ranking=ranking, max_workers=max_workers
            ) as parallel:
                for query in queries:
                    assert parallel.submit(query) == serial.submit(query)

    def test_sharded_stack_parallel_is_byte_identical(self, tiny_table, tiny_schema):
        serial = sharded_stack(tiny_table, 4, k=2, count_mode=CountMode.EXACT)
        parallel = sharded_stack(tiny_table, 4, k=2, count_mode=CountMode.EXACT, parallel=3)
        for query in _random_queries(tiny_schema, random.Random(2), 30):
            assert parallel.submit(query) == serial.submit(query)
        assert parallel.statistics.queries_issued == serial.statistics.queries_issued

    def test_stack_describes_the_concurrent_router(self, tiny_table):
        stack = sharded_stack(tiny_table, 2, k=2, parallel=2)
        assert stack.describe().endswith("ConcurrentShardRouter")

    def test_parallel_one_keeps_the_serial_router(self, tiny_table):
        stack = sharded_stack(tiny_table, 2, k=2, parallel=1)
        assert type(stack.raw) is ShardRouter

    def test_worker_validation(self, tiny_table):
        with pytest.raises(InterfaceError):
            ConcurrentShardRouter.over_table(tiny_table, 2, k=2, max_workers=0)
        with pytest.raises(ConfigurationError):
            sharded_stack(tiny_table, 2, k=2, parallel=0)

    def test_close_releases_and_the_router_stays_usable(self, tiny_table, tiny_schema):
        router = ConcurrentShardRouter.over_table(tiny_table, 2, k=2, max_workers=2)
        query = ConjunctiveQuery.empty(tiny_schema)
        first = router.submit(query)
        router.close()
        assert router.submit(query) == first  # a fresh pool is created lazily
        router.close()

    def test_default_worker_bound_tracks_shard_count(self, tiny_table):
        assert ConcurrentShardRouter.over_table(tiny_table, 3, k=2).max_workers == 3


class TestDispatchLayer:
    def test_submit_many_matches_a_serial_loop_in_input_order(self, tiny_table, tiny_schema):
        serial = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(
            engine_stack(tiny_table, k=2, ranking=StaticScoreRanking()).top, max_workers=4
        )
        queries = _random_queries(tiny_schema, random.Random(3), 25)
        assert BackendStack(layer).submit_many(queries) == [serial.submit(q) for q in queries]
        layer.close()

    def test_single_submit_passes_straight_through(self, tiny_table, tiny_schema):
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(stack.top)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        assert layer.submit(query) == stack.submit(query)

    def test_statistics_layer_counts_exactly_under_concurrency(self, tiny_table, tiny_schema):
        # The lock regression test: 60 concurrent submissions must count as
        # exactly 60, with per-outcome buckets intact.
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(stack.top, max_workers=8)
        queries = _random_queries(tiny_schema, random.Random(4), 59)
        responses = BackendStack(layer).submit_many(queries)
        stats = stack.statistics.as_dict()
        assert stats["queries_issued"] == 60
        assert (
            stats["empty_results"] + stats["valid_results"] + stats["overflow_results"] == 60
        )
        assert stats["tuples_returned"] == sum(len(r.tuples) for r in responses)
        layer.close()

    def test_unreliable_layer_counts_exactly_under_concurrency(self, tiny_table, tiny_schema):
        raw = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        chaos = UnreliableLayer(raw, rate_limit_every=5, max_retries=3)
        layer = DispatchLayer(chaos, max_workers=8)
        queries = _random_queries(tiny_schema, random.Random(9), 79)
        BackendStack(layer).submit_many(queries)
        stats = chaos.statistics
        # Every submission succeeded, every attempt and injected fault counted:
        # attempts = submissions + retries exactly, no lost increments.
        assert stats.attempts == 80 + stats.retries
        assert stats.retries == stats.rate_limited > 0
        assert stats.gave_up == 0
        layer.close()

    def test_budget_is_never_overspent_under_concurrency(self, tiny_table, tiny_schema):
        from repro.database.limits import QueryBudget
        from repro.exceptions import QueryBudgetExceededError

        stack = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), budget=QueryBudget(limit=10)
        )
        layer = DispatchLayer(stack.top, max_workers=8)
        with pytest.raises(QueryBudgetExceededError):
            BackendStack(layer).submit_many(_random_queries(tiny_schema, random.Random(5), 39))
        assert stack.budget.issued == 10  # charged to the limit, not past it
        layer.close()

    def test_web_stack_parallel_fetches_batches_concurrently(self, tiny_table, tiny_schema):
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        stack = web_stack(site, tiny_schema, parallel=4)
        assert stack.describe().startswith("DispatchLayer")
        queries = _random_queries(tiny_schema, random.Random(6), 12)
        oracle = web_stack(
            HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())),
            tiny_schema,
        )
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        assert stack.statistics.queries_issued == len(queries)

    def test_submit_many_without_a_dispatch_layer_degrades_to_a_loop(
        self, tiny_table, tiny_schema
    ):
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        queries = _random_queries(tiny_schema, random.Random(7), 5)
        assert stack.submit_many(queries) == [
            engine_stack(tiny_table, k=2, ranking=StaticScoreRanking()).submit(q)
            for q in queries
        ]

    def test_parallel_composes_with_history(self, tiny_table, tiny_schema):
        """The striped HistoryLayer legally sits under the dispatch layer:
        concurrent batches answer identically AND repeats cost no fetches."""
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        stack = web_stack(site, tiny_schema, history=True, parallel=4)
        assert stack.describe() == (
            "DispatchLayer → HistoryLayer → StatisticsLayer → BudgetLayer → WebPageBackend"
        )
        queries = _random_queries(tiny_schema, random.Random(9), 12)
        oracle = web_stack(
            HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())),
            tiny_schema,
        )
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        # A second pass over the same batch is answered wholly from history.
        issued = stack.statistics.queries_issued
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        assert stack.statistics.queries_issued == issued

    def test_batch_exception_propagates_first_by_input_order(self, tiny_table, tiny_schema):
        class ExplodesOnHonda:
            def __init__(self, inner):
                self.inner = inner

            @property
            def schema(self):
                return self.inner.schema

            @property
            def k(self):
                return self.inner.k

            def submit(self, query):
                if query.value_of("make") == "Honda":
                    raise TransientBackendError("boom")
                return self.inner.submit(query)

        raw = ExplodesOnHonda(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = DispatchLayer(raw, max_workers=4)
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}),
        ]
        with pytest.raises(TransientBackendError):
            BackendStack(layer).submit_many(queries)
        layer.close()

    def test_dispatch_runs_on_worker_threads(self, tiny_table, tiny_schema):
        seen: set[str] = set()

        class ThreadRecorder:
            def __init__(self, inner):
                self.inner = inner

            @property
            def schema(self):
                return self.inner.schema

            @property
            def k(self):
                return self.inner.k

            def submit(self, query):
                seen.add(threading.current_thread().name)
                return self.inner.submit(query)

        raw = ThreadRecorder(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = DispatchLayer(raw, max_workers=4)
        BackendStack(layer).submit_many(_random_queries(tiny_schema, random.Random(8), 20))
        assert all(name.startswith("backend-dispatch") for name in seen)
        layer.close()
