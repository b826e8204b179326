"""Sharded catalogues: fan a query out over partitions, merge ranked top-k.

A production deployment of the same catalogue does not keep 50 M rows in one
process: the table is partitioned over N shards and a router scatters each
conjunctive query, then gathers and re-ranks the per-shard answers.  The
crucial invariant — proved by the property tests — is that samplers cannot
tell: a :class:`ShardRouter` over N partitions returns *exactly* the response
the unsharded backend would, tuple for tuple, count for count.

Why that holds: every shard answers with its own top-``k`` under the *shared*
global rank order, and the global top-``k`` of a union is always contained in
the union of the per-part top-``k``'s; exact counts are additive over a
disjoint partition.  To share the rank order (and the one-time index build),
all :class:`TableShardBackend` partitions of a table reuse the table's single
:class:`~repro.database.index.TableIndex` and its memoised
:class:`~repro.database.index.RankCache` — the ROADMAP's "share one
``TableIndex`` across multi-backend deployments" open item.

Both classes are raw backends: exact counts, no accounting.  Wrap the router
in :class:`~repro.backends.stack.BackendStack` layers to get budgets, count
modes and history over the whole sharded catalogue at once.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.backends.adapters import render_page
from repro.database.index import RankCache
from repro.database.interface import InterfaceResponse, ResultPage, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction, RowIdRanking
from repro.database.schema import Schema
from repro.database.table import Table
from repro.exceptions import InterfaceError

#: Orders merged tuples by tuple id; smaller sorts first.  Must agree with
#: the shards' own internal ranking for the scatter/gather to be lossless.
MergeKey = Callable[[int], float]


def _by_tuple_id(tuple_id: int) -> float:
    """Default merge order: ascending tuple id (correct for row-id ranking)."""
    return float(tuple_id)


def _tuple_ids(tuples: Sequence[ReturnedTuple]) -> Sequence[int]:
    """A page's tuple ids, read without rendering a lazy page."""
    if isinstance(tuples, ResultPage):
        return tuples.tuple_ids
    return [returned.tuple_id for returned in tuples]


def _merge_pages(
    pages: Sequence[Sequence[ReturnedTuple]], merge_key: MergeKey, k: int
) -> ResultPage:
    """The ``k`` first tuples of ``pages`` under ``merge_key``, rendered on read.

    Merges on tuple ids alone (stable, so ties keep page order); each kept
    tuple is rendered by reading its position on the page it came from.
    Shards partition the catalogue, so an id appears on one page only.
    """
    kept = sorted(
        (
            (tuple_id, page, position)
            for page in pages
            for position, tuple_id in enumerate(_tuple_ids(page))
        ),
        key=lambda candidate: merge_key(candidate[0]),
    )[:k]
    source = {tuple_id: (page, position) for tuple_id, page, position in kept}

    def render(tuple_id: int) -> ReturnedTuple:
        page, position = source[tuple_id]
        return page[position]

    return ResultPage([tuple_id for tuple_id, _, _ in kept], render)


class TableShardBackend:
    """One partition of a table, served through the table's shared index.

    The shard owns the rows whose id is ``shard_index`` modulo ``n_shards``
    and answers the raw contract over just those rows.  Evaluation and
    ranking go through the *parent* table's :class:`TableIndex` and
    :class:`RankCache`, so N shards of one catalogue cost one index build and
    one rank order, not N.
    """

    def __init__(
        self,
        table: Table,
        k: int,
        shard_index: int,
        n_shards: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
    ) -> None:
        if k <= 0:
            raise InterfaceError("k must be a positive integer")
        if n_shards <= 0 or not 0 <= shard_index < n_shards:
            raise InterfaceError(
                f"shard_index must be in [0, n_shards); got {shard_index}/{n_shards}"
            )
        self._table = table
        self._k = k
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._ranking = ranking if ranking is not None else RowIdRanking()
        self.display_columns = tuple(display_columns)
        self._index = table.index
        self._rank = table.index.rank_cache(self._ranking)
        self._mask = self._rank.shard_masks(n_shards)[shard_index]

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema (identical across all shards of a table)."""
        return self._table.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` over this shard's rows only; counts are exact."""
        return self.respond(query, self._rank.match(query) & self._mask)

    def respond(self, query: ConjunctiveQuery, bits: int) -> InterfaceResponse:
        """Cut ``bits`` to a page — this shard's rows for ``query``.

        ``bits`` is a rank-order bitmap of the shared :class:`RankCache` with
        exactly the shard's own matching rows set.  :class:`ShardRouter` uses
        this to evaluate the conjunctive query once on the shared index and
        hand every shard its masked slice.
        """
        total, returned = self._rank.page(bits, self._k)
        return InterfaceResponse(
            query=query,
            tuples=render_page(self._table, returned, self.display_columns),
            overflow=total > self._k,
            reported_count=total,
            k=self._k,
        )

    def rank_position(self, tuple_id: int) -> float:
        """The row's place in the shared global rank order (router merge key)."""
        return float(self._rank.position[tuple_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableShardBackend(table={self._table.name!r}, "
            f"shard={self.shard_index}/{self.n_shards}, k={self._k})"
        )


class ShardRouter:
    """Scatter a query over N shard backends, gather and merge ranked top-k.

    ``merge_key`` orders the merged candidate tuples; it must agree with the
    ranking the shards applied internally (for table shards that is the
    shared rank-cache position — :meth:`over_table` wires it automatically).
    Without one, tuples merge in ``tuple_id`` order, which is only correct
    for row-id ranking.

    The router is a raw backend: it reports the exact total count (shard
    counts are additive over the disjoint partition) and does no accounting
    of its own — wrap it in layers for that.
    """

    def __init__(
        self,
        shards: Sequence[object],
        merge_key: MergeKey | None = None,
    ) -> None:
        if not shards:
            raise InterfaceError("a shard router needs at least one shard")
        ks = {shard.k for shard in shards}
        if len(ks) != 1:
            raise InterfaceError(f"all shards must share one top-k limit, got {sorted(ks)}")
        names = {shard.schema.attribute_names for shard in shards}
        if len(names) != 1:
            raise InterfaceError("all shards must serve the same schema")
        self._shards = tuple(shards)
        self._k: int = ks.pop()
        self._merge_key = merge_key if merge_key is not None else _by_tuple_id
        #: Display columns travel with the shards; the router advertises them
        #: so a HiddenWebSite served from a sharded stack renders the same
        #: extra columns as one served from the flat engine backend.
        self.display_columns: tuple[str, ...] = tuple(
            getattr(self._shards[0], "display_columns", ())
        )
        self._partition_rank = self._detect_table_partition()

    def _detect_table_partition(self) -> RankCache | None:
        """The shared :class:`RankCache` when the shards exactly modulo-
        partition one table under one ranking (the :meth:`over_table`
        layout), else ``None``.

        Only then may the router evaluate each query once and mask the
        match bitmap per shard, rather than scatter a full evaluation to
        every shard.
        """
        n = len(self._shards)
        for position, shard in enumerate(self._shards):
            if not isinstance(shard, TableShardBackend):
                return None
            if shard.n_shards != n or shard.shard_index != position:
                return None
            if shard._rank is not self._shards[0]._rank:
                return None
        return self._shards[0]._rank

    @classmethod
    def over_table(
        cls,
        table: Table,
        n_shards: int,
        k: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
        shard_layer: Callable[[object], object] | None = None,
    ) -> "ShardRouter":
        """Partition ``table`` into ``n_shards`` backends sharing one index.

        The shards and the router's merge key all use the table's single
        :class:`TableIndex` and one memoised rank order, so the router's
        responses are identical to an unsharded backend over the same table.

        ``shard_layer`` wraps each partition backend before it reaches the
        router — e.g. ``lambda shard: CircuitBreakerLayer(shard)`` gives every
        shard its *own* circuit, so one dead partition trips only its own
        breaker while its siblings keep answering.  Wrapped shards take the
        independent scatter path (the shared-index fast path needs bare
        :class:`TableShardBackend` instances), which is exactly what a
        per-shard reliability layer needs: each ``shard.submit`` is a real
        call the wrapper observes.
        """
        ranking = ranking if ranking is not None else RowIdRanking()
        shards = [
            TableShardBackend(
                table, k, shard_index, n_shards,
                ranking=ranking, display_columns=display_columns,
            )
            for shard_index in range(n_shards)
        ]
        merge_key = shards[0].rank_position
        if shard_layer is not None:
            router = cls([shard_layer(shard) for shard in shards], merge_key=merge_key)
            # Layers do not forward ``display_columns``; re-advertise what the
            # bare shards would have exposed.
            router.display_columns = tuple(display_columns)
            return router
        return cls(shards, merge_key=merge_key)

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema served by every shard."""
        return self._shards[0].schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit of the merged result."""
        return self._k

    @property
    def shards(self) -> tuple[object, ...]:
        """The partition backends, in shard order."""
        return self._shards

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Fan ``query`` out, merge the ranked answers, apply the top-``k`` cut."""
        return self._merge(query, self._gather(query))

    def _gather(self, query: ConjunctiveQuery) -> list[InterfaceResponse]:
        """Per-shard responses, in shard order.

        This is the scatter half of the router, factored out so
        :class:`~repro.backends.dispatch.ConcurrentShardRouter` can override
        *how* the sub-queries are issued (thread pool vs loop) without
        touching what they compute — the merge consumes responses in shard
        order either way, which is what makes the two byte-identical.
        """
        if self._partition_rank is not None:
            return [
                shard.respond(query, bits)
                for shard, bits in zip(self._shards, self._partition(query))
            ]
        return [shard.submit(query) for shard in self._shards]

    def _partition(self, query: ConjunctiveQuery) -> list[int]:
        """Split the shared rank-order match bitmap by owning shard.

        Only valid on the :meth:`over_table` layout: AND the predicates once,
        then mask the result with each shard's rank positions, instead of
        paying one full evaluation per shard.
        """
        bits = self._partition_rank.match(query)
        return [bits & mask for mask in self._partition_rank.shard_masks(len(self._shards))]

    def _merge(
        self, query: ConjunctiveQuery, responses: list[InterfaceResponse]
    ) -> InterfaceResponse:
        """Sum the exact shard counts, merge ranked tuple ids, re-cut to top-``k``."""
        total = 0
        for response in responses:
            if response.reported_count is None:
                raise InterfaceError(
                    "ShardRouter needs exact counts from its shards; put count-mode "
                    "shaping above the router, not below it"
                )
            total += response.reported_count
        return InterfaceResponse(
            query=query,
            tuples=_merge_pages([r.tuples for r in responses], self._merge_key, self._k),
            overflow=total > self._k,
            reported_count=total,
            k=self._k,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={len(self._shards)}, k={self._k})"
