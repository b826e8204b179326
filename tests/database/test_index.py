"""Unit tests for the bitmap-index subsystem (code columns, bitmaps, rank caches)."""

import pytest

from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.index import RankCache, TableIndex
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import HashRanking, StaticScoreRanking
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import DomainValueError


class TestTableIndex:
    def test_index_is_built_once_and_shared(self, tiny_table):
        index = tiny_table.index
        assert index is tiny_table.index
        assert QueryEngine(tiny_table, k=2).table.index is index

    def test_posting_lists_hold_ascending_row_ids(self, tiny_table):
        index = tiny_table.index
        assert index.posting_list("make", "Toyota") == [0, 1, 2, 3]
        assert index.posting_list("make", "Honda") == [4, 5]
        assert index.posting_list("make", "Ford") == [6, 7]
        assert index.posting_list("color", "red") == [0, 2, 4, 6]
        assert index.posting_list("color", "blue") == [1, 3, 5, 7]
        assert index.posting_list("price", "0-10000") == [0, 3, 6]
        assert index.posting_list("make", "Tesla") == []

    def test_numeric_column_is_binned_once_into_labels(self, tiny_table):
        column = tiny_table.index.selectable_column("price")
        assert list(column)[:3] == ["0-10000", "10000-20000", "20000-40000"]

    def test_matching_row_ids_intersects_ascending(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota", "color": "red"})
        assert tiny_table.index.matching_row_ids(query) == [0, 2]
        root = ConjunctiveQuery.empty(tiny_schema)
        assert tiny_table.index.matching_row_ids(root) == list(range(8))

    def test_count_without_materialising_rows(self, tiny_table, tiny_schema):
        index = tiny_table.index
        assert index.count(ConjunctiveQuery.empty(tiny_schema)) == 8
        assert index.count(ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})) == 4
        assert index.count(
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        ) == 0

    def test_unvalidated_out_of_bucket_rows_match_nothing(self, tiny_schema):
        table = Table(
            tiny_schema,
            [{"make": "Ford", "color": "red", "price": 999_999.0}],
            validate=False,
        )
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"price": "0-10000"})
        assert table.index.matching_row_ids(query) == []
        assert tuple(table.index.posting_list("make", "Ford")) == (0,)

    def test_unvalidated_out_of_bucket_row_cannot_be_rendered(self, tiny_schema):
        from repro.backends.adapters import build_returned_tuple

        table = Table(
            tiny_schema,
            [
                {"make": "Ford", "color": "red", "price": 5_000.0},
                {"make": "Ford", "color": "red", "price": 999_999.0},
            ],
            validate=False,
        )
        assert build_returned_tuple(table, 0).selectable_values["price"] == "0-10000"
        with pytest.raises(DomainValueError) as raised:
            build_returned_tuple(table, 1)
        assert raised.value.attribute == "price"
        assert raised.value.value == 999_999.0

    def test_domains_wider_than_a_byte_index_like_the_scan(self):
        schema = Schema(
            [
                Attribute("code", Domain.categorical(tuple(range(300)))),
                Attribute("flag", Domain.boolean()),
            ]
        )
        rows = [{"code": (row_id * 7) % 300, "flag": row_id % 3 == 0} for row_id in range(600)]
        table = Table(schema, rows)
        assert table.index.posting_list("code", 259) == [37, 337]
        assert table.index.selectable_row(37) == {"code": 259, "flag": False}
        ranking = HashRanking("wide")
        indexed = QueryEngine(table, k=5, ranking=ranking)
        scan = QueryEngine(table, k=5, ranking=ranking, use_index=False)
        for assignment in ({"code": 259}, {"code": 3, "flag": True}, {"flag": False}, {}):
            query = ConjunctiveQuery.from_assignment(schema, assignment)
            assert indexed.execute(query) == scan.execute(query)
            assert indexed.matching_row_ids(query) == scan.matching_row_ids(query)
        masks = table.index.rank_cache(ranking).shard_masks(257)
        assert sum(masks) == (1 << 600) - 1
        assert masks[256].bit_count() == 2

    def test_narrow_keeps_the_matching_ids_in_the_given_order(self, tiny_table, tiny_schema):
        index = tiny_table.index
        ids = [7, 2, 5, 0, 6, 3]
        for assignment in (
            {},
            {"color": "red"},
            {"make": "Toyota", "price": "0-10000"},
            {"make": "Honda", "price": "0-10000"},
        ):
            query = ConjunctiveQuery.from_assignment(tiny_schema, assignment)
            expected = [row_id for row_id in ids if query.matches(tiny_table[row_id])]
            assert index.narrow(ids, query) == expected
        assert index.narrow([], ConjunctiveQuery.empty(tiny_schema)) == []

    def test_narrow_over_a_wide_domain_and_out_of_bucket_rows(self, tiny_schema):
        schema = Schema([Attribute("code", Domain.categorical(tuple(range(300))))])
        table = Table(schema, [{"code": row_id % 300} for row_id in range(600)])
        query = ConjunctiveQuery.from_assignment(schema, {"code": 259})
        assert table.index.narrow(range(600)[::-1], query) == [559, 259]
        unbinnable = Table(
            tiny_schema,
            [
                {"make": "Ford", "color": "red", "price": 999_999.0},
                {"make": "Ford", "color": "red", "price": 5_000.0},
            ],
            validate=False,
        )
        price = ConjunctiveQuery.from_assignment(tiny_schema, {"price": "0-10000"})
        assert unbinnable.index.narrow([0, 1], price) == [1]

    def test_rank_cache_is_memoised_per_ranking_instance(self, tiny_table):
        index = tiny_table.index
        ranking = StaticScoreRanking()
        assert index.rank_cache(ranking) is index.rank_cache(ranking)
        assert index.rank_cache(ranking) is not index.rank_cache(StaticScoreRanking())

    def test_rank_caches_die_with_their_ranking(self, tiny_table):
        """Caches are weakly keyed so churning engines cannot accrete memory
        on the table-lifetime index."""
        import gc

        index = tiny_table.index
        baseline = len(index._rank_caches)
        ranking = StaticScoreRanking()
        index.rank_cache(ranking)
        assert len(index._rank_caches) == baseline + 1
        del ranking
        gc.collect()
        assert len(index._rank_caches) == baseline


class TestRankCache:
    @pytest.mark.parametrize("ranking", [StaticScoreRanking(), HashRanking("idx")])
    def test_order_and_top_k_match_the_naive_ranking(self, tiny_table, tiny_schema, ranking):
        cache = RankCache(tiny_table, ranking)
        ids = [5, 0, 7, 2, 3]
        bits = sum(1 << cache.position[row_id] for row_id in ids)
        assert cache.page(bits, len(ids)) == (5, ranking.order(tiny_table, ids))
        assert cache.page(bits, 2) == (5, ranking.top_k(tiny_table, ids, 2))
        assert cache.page(bits, 99) == (5, ranking.top_k(tiny_table, ids, 99))
        assert cache.page(0, 3) == (0, [])
        red = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})
        assert cache.page(cache.match(red), 8)[1] == ranking.order(tiny_table, [0, 2, 4, 6])

    def test_shard_masks_partition_the_rank_positions(self, tiny_table):
        cache = RankCache(tiny_table, HashRanking("shards"))
        masks = cache.shard_masks(3)
        assert sum(masks) == (1 << len(tiny_table)) - 1
        for shard, mask in enumerate(masks):
            positions = [p for p in range(len(tiny_table)) if mask >> p & 1]
            assert all(cache.by_rank[p] % 3 == shard for p in positions)
        assert cache.shard_masks(3) is masks

    def test_by_rank_is_a_permutation_of_all_rows(self, tiny_table):
        cache = RankCache(tiny_table, HashRanking("perm"))
        assert sorted(cache.by_rank) == list(range(len(tiny_table)))
        assert [cache.position[row_id] for row_id in cache.by_rank] == list(range(len(tiny_table)))


class TestEngineFlag:
    def test_scan_engine_never_touches_the_index_rank_caches(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2, ranking=StaticScoreRanking(), use_index=False)
        result = engine.execute(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}))
        assert result.outcome is QueryOutcome.OVERFLOW
        assert engine._rank_cache is None

    def test_interface_forwards_use_index(self, tiny_table, tiny_schema):
        fast = HiddenDatabaseInterface(tiny_table, k=2, use_index=True)
        slow = HiddenDatabaseInterface(tiny_table, k=2, use_index=False)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "blue"})
        assert [t.tuple_id for t in fast.submit(query).tuples] == [
            t.tuple_id for t in slow.submit(query).tuples
        ]
