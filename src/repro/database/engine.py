"""The back-end query engine of the hidden database.

This is the data provider's side of the contract: evaluate a conjunctive
query against the full table, rank the qualifying tuples with the proprietary
ranking function, and return at most ``k`` of them together with an overflow
flag.  Nothing in here is visible to the sampler except through
:class:`~repro.database.interface.HiddenDatabaseInterface`.

Complexity contract: by default the engine evaluates queries on the table's
:class:`~repro.database.index.TableIndex` and the ranking's memoised
:class:`~repro.database.index.RankCache` — the predicates' rank-order bitmaps
are ANDed, ``int.bit_count()`` gives the match count, and the lowest ``k``
set bits are the ``VALID`` ordering or ``OVERFLOW`` top-k — so one query
costs a few C-level passes over an ``n``-bit integer instead of a full
O(rows · |q|) scan with per-comparison rank-key recomputation.  Passing
``use_index=False`` restores the naive scan, which the property tests use as
the oracle the indexed path must match result-for-result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.database.index import RankCache
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction, RowIdRanking
from repro.database.table import Row, Table


class QueryOutcome(enum.Enum):
    """How the interface classifies a query's answer (paper, Section 2)."""

    EMPTY = "empty"          #: no tuple satisfies the query (an "underflow" leaf)
    VALID = "valid"          #: between 1 and k tuples; all of them are returned
    OVERFLOW = "overflow"    #: more than k tuples qualify; only the top-k are shown


@dataclass(frozen=True)
class QueryResult:
    """What the form interface returns for one query.

    ``returned_row_ids`` identifies the (at most ``k``) displayed tuples in
    ranking order; ``total_count`` is the number of qualifying tuples *before*
    the top-``k`` cut, which the engine always knows but the public interface
    may hide or perturb (Google Base's counts are approximate and the paper's
    system ignores them).
    """

    query: ConjunctiveQuery
    outcome: QueryOutcome
    returned_row_ids: tuple[int, ...]
    total_count: int
    k: int

    @property
    def overflow(self) -> bool:
        """True when the interface signalled that not all matches were shown."""
        return self.outcome is QueryOutcome.OVERFLOW

    @property
    def empty(self) -> bool:
        """True when no tuple matched the query."""
        return self.outcome is QueryOutcome.EMPTY

    @property
    def returned_count(self) -> int:
        """Number of tuples actually displayed."""
        return len(self.returned_row_ids)


class QueryEngine:
    """Evaluates conjunctive queries over a :class:`Table` with a top-``k`` cut.

    Parameters
    ----------
    table:
        The hidden back-end data.
    k:
        Maximum number of tuples displayed per query (``k = 1000`` for Google
        Base, ``25`` for MSN Stock Screener, ...).
    ranking:
        Deterministic ranking function used to pick which tuples are shown
        when a query overflows.  Defaults to ranking by row id.
    use_index:
        When true (the default) conjunctive queries are answered from the
        table's bitmap index and the memoised rank order; when false every
        query falls back to the naive full scan (the test oracle).
    """

    def __init__(
        self,
        table: Table,
        k: int,
        ranking: RankingFunction | None = None,
        use_index: bool = True,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be a positive integer")
        self.table = table
        self.k = k
        self.ranking = ranking if ranking is not None else RowIdRanking()
        self.use_index = use_index
        self._rank_cache: RankCache | None = None

    def matching_row_ids(self, query: ConjunctiveQuery) -> list[int]:
        """Row ids of every tuple satisfying ``query`` (no top-k applied)."""
        if self.use_index:
            return self.table.index.matching_row_ids(query)
        return self.table.matching_row_ids(query.matches)

    def count(self, query: ConjunctiveQuery) -> int:
        """Exact number of tuples satisfying ``query`` (no rows materialised)."""
        if self.use_index:
            return self.table.index.count(query)
        return len(self.table.matching_row_ids(query.matches))

    def execute(self, query: ConjunctiveQuery) -> QueryResult:
        """Evaluate ``query`` and apply the top-``k`` display restriction."""
        if self.use_index:
            cache = self._rank_cache
            if cache is None:
                cache = self._rank_cache = self.table.index.rank_cache(self.ranking)
            total, returned = cache.page(cache.match(query), self.k)
        else:
            matching = self.table.matching_row_ids(query.matches)
            total = len(matching)
            if total <= self.k:
                returned = self.ranking.order(self.table, matching)
            else:
                returned = self.ranking.top_k(self.table, matching, self.k)
        if total == 0:
            outcome = QueryOutcome.EMPTY
        elif total <= self.k:
            outcome = QueryOutcome.VALID
        else:
            outcome = QueryOutcome.OVERFLOW
        return QueryResult(query, outcome, tuple(returned), total, self.k)

    def rows(self, row_ids: Sequence[int]) -> list[Row]:
        """Materialise rows by id (what the result page displays)."""
        return [self.table[row_id] for row_id in row_ids]
