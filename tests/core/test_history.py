"""Unit tests for the query-history cache and inference optimisation."""

import pytest

from repro.core.history import CachedResponseSource, QueryHistoryCache
from repro.exceptions import ConfigurationError
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery


@pytest.fixture()
def cached(tiny_interface):
    return QueryHistoryCache(tiny_interface)


class TestExactHits:
    def test_identical_query_is_not_reissued(self, cached, tiny_schema, tiny_interface):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        first = cached.submit(query)
        issued_after_first = tiny_interface.statistics.queries_issued
        second = cached.submit(query)
        assert tiny_interface.statistics.queries_issued == issued_after_first
        assert cached.last_source is CachedResponseSource.EXACT_HIT
        assert [t.tuple_id for t in second.tuples] == [t.tuple_id for t in first.tuples]

    def test_predicate_order_does_not_matter_for_the_cache(self, cached, tiny_schema, tiny_interface):
        a = ConjunctiveQuery.empty(tiny_schema).specialise("make", "Ford").specialise("color", "red")
        b = ConjunctiveQuery.empty(tiny_schema).specialise("color", "red").specialise("make", "Ford")
        cached.submit(a)
        issued = tiny_interface.statistics.queries_issued
        cached.submit(b)
        assert tiny_interface.statistics.queries_issued == issued


class TestInference:
    def test_specialisation_of_a_valid_query_is_inferred(self, cached, tiny_schema, tiny_interface):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(broad)  # valid: 2 tuples, no overflow
        issued = tiny_interface.statistics.queries_issued
        narrow = broad.specialise("color", "red")
        response = cached.submit(narrow)
        assert tiny_interface.statistics.queries_issued == issued
        assert cached.last_source is CachedResponseSource.INFERRED
        assert len(response.tuples) == 1
        assert response.tuples[0].selectable_values["color"] == "red"
        assert not response.overflow

    def test_inferred_answer_matches_the_real_interface(self, cached, tiny_schema, tiny_table):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota", "color": "red"})
        cached.submit(broad)
        narrow = broad.specialise("price", "0-10000")
        inferred = cached.submit(narrow)
        fresh_interface = HiddenDatabaseInterface(tiny_table, k=2)
        direct = fresh_interface.submit(narrow)
        assert sorted(t.tuple_id for t in inferred.tuples) == sorted(t.tuple_id for t in direct.tuples)

    def test_specialisation_of_an_empty_query_is_inferred_empty(self, cached, tiny_schema, tiny_interface):
        empty = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        cached.submit(empty)
        issued = tiny_interface.statistics.queries_issued
        narrower = empty.specialise("color", "blue")
        response = cached.submit(narrower)
        assert tiny_interface.statistics.queries_issued == issued
        assert response.empty
        assert cached.last_source is CachedResponseSource.INFERRED

    def test_overflowing_queries_are_never_used_for_subset_inference(self, cached, tiny_schema, tiny_interface):
        overflowing = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        cached.submit(overflowing)  # 4 tuples > k=2: overflow
        issued = tiny_interface.statistics.queries_issued
        narrow = overflowing.specialise("color", "red")
        cached.submit(narrow)
        # The narrow query had to be issued for real.
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert cached.last_source is CachedResponseSource.INTERFACE

    def test_statistics_accumulate(self, cached, tiny_schema):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(broad)
        cached.submit(broad)
        cached.submit(broad.specialise("color", "red"))
        stats = cached.statistics
        assert stats.submissions == 3
        assert stats.issued_to_interface == 1
        assert stats.exact_hits == 1
        assert stats.inferred == 1
        assert stats.saved == 2
        assert stats.saving_ratio == pytest.approx(2 / 3)
        as_dict = stats.as_dict()
        assert as_dict["saved"] == 2


class TestCacheMaintenance:
    def test_clear_forgets_responses_but_keeps_statistics(self, cached, tiny_schema, tiny_interface):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        cached.submit(query)
        cached.clear()
        assert len(cached) == 0
        issued = tiny_interface.statistics.queries_issued
        cached.submit(query)
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert cached.statistics.submissions == 2

    def test_max_entries_evicts_oldest(self, tiny_interface, tiny_schema):
        cached = QueryHistoryCache(tiny_interface, max_entries=1)
        first = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        second = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(first)
        cached.submit(second)
        assert len(cached) == 1
        issued = tiny_interface.statistics.queries_issued
        cached.submit(first)  # was evicted, must be reissued
        assert tiny_interface.statistics.queries_issued == issued + 1

    def test_max_entries_must_be_positive(self, tiny_interface):
        with pytest.raises(ConfigurationError):
            QueryHistoryCache(tiny_interface, max_entries=0)

    def test_inference_mode_is_validated(self, tiny_interface):
        with pytest.raises(ConfigurationError):
            QueryHistoryCache(tiny_interface, inference="magic")

    def test_eviction_keeps_key_indexes_consistent(self, tiny_interface, tiny_schema):
        """Evicted keys disappear from the valid/empty indexes in O(1) and can
        no longer be used for inference."""
        cached = QueryHistoryCache(tiny_interface, max_entries=2)
        valid = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        empty = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        cached.submit(valid)   # valid entry
        cached.submit(empty)   # empty entry
        assert cached.valid_keys() == {valid.canonical_key()}
        assert cached.empty_keys() == {empty.canonical_key()}
        # A third distinct entry evicts the oldest (the valid one).
        other = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        cached.submit(other)
        assert len(cached) == 2
        assert valid.canonical_key() not in cached.valid_keys()
        # The evicted valid ancestor must no longer feed subset inference.
        issued = tiny_interface.statistics.queries_issued
        cached.submit(valid.specialise("color", "red"))
        assert tiny_interface.statistics.queries_issued == issued + 1

    def test_reimporting_existing_entries_does_not_evict_others(self, tiny_table, tiny_schema):
        """Overwriting a cached key in place (checkpoint re-import) must not
        push an unrelated entry out of a full cache."""
        from repro.database.interface import HiddenDatabaseInterface

        interface = HiddenDatabaseInterface(tiny_table, k=2)
        cached = QueryHistoryCache(interface, max_entries=2)
        first = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        second = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(first)
        cached.submit(second)
        snapshot = cached.export_entries()
        assert cached.import_entries(snapshot) == 2
        assert len(cached) == 2
        # Both original entries are still answerable without the interface.
        issued = interface.statistics.queries_issued
        cached.submit(first)
        cached.submit(second)
        assert interface.statistics.queries_issued == issued

    def test_cache_exposes_schema_k_and_inner(self, cached, tiny_interface):
        assert cached.schema == tiny_interface.schema
        assert cached.k == tiny_interface.k
        assert cached.inner is tiny_interface


def _assert_index_matches_cache(cached):
    """The subsumption index holds exactly the cached valid and empty answers."""
    responses = {
        key: response
        for stripe in cached._stripe_list
        for key, response in stripe.responses.items()
    }
    usable = {key for key, response in responses.items() if response.empty or not response.overflow}
    assert set(cached._index) == usable
    assert all(cached._index[key] is responses[key] for key in usable)
    assert cached.valid_keys() == {key for key in usable if responses[key].valid}
    assert cached.empty_keys() == {key for key in usable if responses[key].empty}


class TestSubsumptionIndex:
    def test_an_evicted_empty_key_no_longer_feeds_inference(self, tiny_interface, tiny_schema):
        cached = QueryHistoryCache(tiny_interface, max_entries=2)
        empty = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        cached.submit(empty)
        cached.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        _assert_index_matches_cache(cached)
        cached.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}))
        assert empty.canonical_key() not in cached.empty_keys()
        _assert_index_matches_cache(cached)
        issued = tiny_interface.statistics.queries_issued
        cached.submit(empty.specialise("color", "blue"))
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert cached.last_source is CachedResponseSource.INTERFACE

    def test_a_key_reimported_as_overflowing_no_longer_feeds_inference(
        self, tiny_interface, tiny_schema
    ):
        cached = QueryHistoryCache(tiny_interface, max_entries=4)
        valid = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(valid)
        assert valid.canonical_key() in cached.valid_keys()
        (entry,) = cached.export_entries()
        assert cached.import_entries([dict(entry, overflow=True)]) == 1
        assert len(cached) == 1
        assert valid.canonical_key() not in cached.valid_keys()
        _assert_index_matches_cache(cached)
        issued = tiny_interface.statistics.queries_issued
        cached.submit(valid.specialise("color", "red"))
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert cached.last_source is CachedResponseSource.INTERFACE

    @pytest.mark.parametrize("max_entries", [None, 1, 3])
    def test_index_tracks_the_cache_through_a_mixed_workload(
        self, tiny_table, tiny_schema, max_entries
    ):
        cached = QueryHistoryCache(
            HiddenDatabaseInterface(tiny_table, k=2, seed=0), max_entries=max_entries
        )
        queries = [
            ConjunctiveQuery.empty(tiny_schema),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "color": "red"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford", "color": "blue"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red", "price": "0-10000"}),
        ]
        for query in queries + queries[::-1]:
            cached.submit(query)
            _assert_index_matches_cache(cached)
        cached.import_entries(cached.export_entries())
        _assert_index_matches_cache(cached)
        cached.clear()
        _assert_index_matches_cache(cached)
        assert cached.valid_keys() == cached.empty_keys() == frozenset()
