"""Bitmap-index acceleration structures for the hidden-table read path.

The naive back end answers every conjunctive query with a full Python scan:
``Table.matching_row_ids`` re-evaluates ``ConjunctiveQuery.matches`` row by
row, re-resolving numeric buckets on each visit, and every overflow re-sorts
the qualifying rows with per-row rank-key recomputation.  This module
factorises that work into two one-time structures, both made of Python-int
bitmaps — one per ``(attribute, value)`` pair — so a conjunction is a few
C-level ``&``\\ s and a count is one ``int.bit_count()``:

* :class:`TableIndex` — built once per :class:`~repro.database.table.Table`.
  Each searchable attribute is binned once into a column of small integer
  *codes* (numeric cells via one :func:`bisect.bisect_right` over the bucket
  edges, categorical cells via one dict lookup), and bit *i* of a row-order
  bitmap is row *i*.  These bitmaps answer ``count()`` and
  ``matching_row_ids()`` (ascending row ids) for any ranking, and the code
  columns render a result row's selectable values without re-binning it.

* :class:`RankCache` — built once per (table, ranking-function) pair and
  memoised on the index.  It computes every row's rank key exactly once,
  sorts the table into a global rank order and rebuilds the bitmaps in that
  order: bit *p* is the row at rank position *p*.  The lowest ``k`` set bits
  of a query's bitmap are therefore both its ``VALID`` ordering and its
  ``OVERFLOW`` top-k, with no sort and no heap.

Both orders come from one builder: the code column (permuted into rank order
for a :class:`RankCache`) is mapped to an ASCII ``0``/``1`` string per code
with :meth:`bytes.translate` and parsed with ``int(..., 2)``, so no bit is
ever set from a Python loop.

Complexity contracts (n = rows, m = matching rows, q = query predicates,
k = display limit, w = n / 30, the 30-bit CPython digits of one bitmap):

============================  ==============================  ==================
operation                     naive scan                      indexed
============================  ==============================  ==================
build (once per table)        —                               O(n · |values|)
``matching_row_ids(query)``   O(n · q) bucket re-resolution   O(w · q + m)
``count(query)``              O(n · q)                        O(w · q)
``VALID`` ordering            O(m log m) key recomputation    O(w · q + m)
``OVERFLOW`` top-k            O(m log m) key recomputation    O(w · q + k)
============================  ==============================  ==================

The naive path remains available (``QueryEngine(..., use_index=False)``) both
as an escape hatch for non-conjunctive predicates and as the oracle the
property tests compare the indexed path against.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from itertools import compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from repro.database.schema import AttributeKind, Value
from repro.exceptions import DomainValueError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.database.query import ConjunctiveQuery
    from repro.database.ranking import RankingFunction
    from repro.database.table import Table


class _Unbinnable:
    """Sentinel selectable value for rows outside every numeric bucket.

    Only reachable on tables built with ``validate=False``; such rows match no
    selectable query value (the scan path instead raises when a query touches
    the attribute, which validated tables never trigger).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbinnable>"


_UNBINNABLE = _Unbinnable()

#: ``_BIT_POSITIONS[b]``: the set bits of byte ``b``, lowest first.
_BIT_POSITIONS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))
#: Translation table flagging every non-zero byte as ``0x01``.
_NONZERO = bytes([0]) + bytes([1]) * 255


def _code_planes(codes: Sequence[int], n_codes: int) -> list[bytes]:
    """``codes`` (all ``<= n_codes``) as little-endian base-256 digit planes."""
    if n_codes < 256:
        return [bytes(codes)]
    return [
        bytes(code >> shift & 255 for code in codes)
        for shift in range(0, n_codes.bit_length(), 8)
    ]


def _bitmaps(codes: Sequence[int], n_codes: int) -> list[int]:
    """One bitmap per code ``c < n_codes``: bit *i* is set iff ``codes[i] == c``."""
    # int(..., 2) reads the most significant digit first, so reverse once.
    planes = [plane[::-1] for plane in _code_planes(codes, n_codes)]
    zeros = b"0" * 256
    bitmaps = []
    for code in range(n_codes):
        bits = -1
        for shift, plane in enumerate(planes):
            digit = code >> 8 * shift & 255
            one_hot = zeros[:digit] + b"1" + zeros[digit + 1 :]
            bits &= int(plane.translate(one_hot) or b"0", 2)
        bitmaps.append(bits)
    return bitmaps


def _lowest_set_bits(bits: int, k: int) -> list[int]:
    """Positions of the ``k`` lowest set bits of ``bits``, ascending.

    Serialises a window of low bytes at a time (widening fourfold each step,
    since a dense bitmap has its first ``k`` bits near the bottom) and finds
    the non-zero bytes with C-level :meth:`bytes.find`.
    """
    out: list[int] = []
    offset = 0
    width = 512
    while bits and len(out) < k:
        width = min(width, (bits.bit_length() + 7) // 8)
        window = bits & ((1 << 8 * width) - 1)
        data = window.to_bytes(width, "little")
        flags = data.translate(_NONZERO)
        at = flags.find(1)
        while at >= 0 and len(out) < k:
            base = offset + 8 * at
            out.extend(map(base.__add__, _BIT_POSITIONS[data[at]]))
            at = flags.find(1, at + 1)
        bits >>= 8 * width
        offset += 8 * width
        width *= 4
    return out[:k]


class _BitmapSet:
    """Bitmaps keyed by ``(attribute, value)`` over one row order."""

    __slots__ = ("bitmaps", "all_rows")

    def __init__(self, index: "TableIndex", order: Sequence[int] | None) -> None:
        self.all_rows = (1 << index.n_rows) - 1
        self.bitmaps: dict[tuple[str, Value], int] = {}
        for name, (codes, values) in index.code_columns.items():
            if order is not None:
                codes = type(codes)(map(codes.__getitem__, order))
            for value, bits in zip(values, _bitmaps(codes, len(values))):
                self.bitmaps[(name, value)] = bits

    def match(self, query: "ConjunctiveQuery") -> int:
        """The bitmap (in this set's row order) of rows satisfying ``query``."""
        bits = self.all_rows
        for predicate in query.predicates:
            bits &= self.bitmaps.get((predicate.attribute, predicate.value), 0)
        return bits


class RankCache(_BitmapSet):
    """The memoised total order of one ranking function over one table.

    ``by_rank`` is the whole table sorted best-first by ``(key, row_id)`` —
    exactly the tie-breaking rule of :meth:`RankingFunction.order` — and
    ``position[row_id]`` is the row's place in that order.  The rank-order
    bitmaps map bit *p* to row ``by_rank[p]``, so :meth:`page` reads a
    query's ranked answer off the lowest set bits of its :meth:`match`.
    """

    __slots__ = ("by_rank", "position", "_shard_masks")

    def __init__(self, table: "Table", ranking: "RankingFunction") -> None:
        keys = ranking.keys_for_table(table)
        self.by_rank: list[int] = sorted(
            range(len(keys)), key=lambda row_id: (keys[row_id], row_id)
        )
        self.position: list[int] = [0] * len(self.by_rank)
        for position, row_id in enumerate(self.by_rank):
            self.position[row_id] = position
        super().__init__(table.index, self.by_rank)
        self._shard_masks: dict[int, list[int]] = {}

    def page(self, bits: int, k: int) -> tuple[int, list[int]]:
        """``(matches, the k best row ids best-first)`` of a rank-order bitmap."""
        by_rank = self.by_rank
        return bits.bit_count(), [by_rank[p] for p in _lowest_set_bits(bits, k)]

    def shard_masks(self, n_shards: int) -> list[int]:
        """Per shard ``i``, the rank positions whose row id is ``i`` mod ``n_shards``."""
        masks = self._shard_masks.get(n_shards)
        if masks is None:
            shard_of = list(map(int.__mod__, self.by_rank, repeat(n_shards)))
            masks = self._shard_masks[n_shards] = _bitmaps(shard_of, n_shards)
        return masks


class TableIndex:
    """Binned code columns plus row-order bitmaps of one table.

    Immutable after construction, like the table itself.  Built lazily through
    :attr:`Table.index` (and eagerly, doubling as validation, for validated
    tables) so every engine and interface over the same table shares one copy.
    ``strict=True`` raises :class:`DomainValueError` on the first attribute
    with a cell outside its domain instead of leaving the row unbinnable.
    """

    def __init__(self, table: "Table", strict: bool = False) -> None:
        self._table = table
        self.n_rows = len(table)
        #: attribute -> (code per row, selectable value per code); a code equal
        #: to the number of values marks a cell outside the domain.
        self.code_columns: dict[str, tuple[Sequence[int], tuple[Value, ...]]] = {}
        #: attribute -> {selectable value: its code}.
        self._code_of: dict[str, dict[Value, int]] = {}
        #: Whether any cell is outside its domain (only possible on tables
        #: built with ``validate=False``); rendering such a row raises.
        self.has_unbinnable = False
        for attribute in table.schema:
            name = attribute.name
            cells = list(map(itemgetter(name), table.rows))
            domain = attribute.domain
            if attribute.kind is AttributeKind.NUMERIC:
                lows, highs, values = domain.bucket_search_arrays()
                # A value binned against the interleaved edges lands on an odd
                # slot 2b+1 exactly when it is inside bucket b.
                edges = tuple(edge for pair in zip(lows, highs) for edge in pair)
                slot_code = [
                    slot // 2 if slot % 2 else len(values) for slot in range(len(edges) + 1)
                ]
                slots = map(bisect_right, repeat(edges), map(float, cells))
                codes = list(map(slot_code.__getitem__, slots))
            else:
                values = domain.values
                code_of = {value: code for code, value in enumerate(values)}
                codes = list(map(code_of.get, cells, repeat(len(values))))
            packed = bytes(codes) if len(values) < 256 else codes
            if len(values) in packed:
                if strict:
                    raise DomainValueError(name, cells[packed.index(len(values))])
                self.has_unbinnable = True
            self.code_columns[name] = (packed, values)
            self._code_of[name] = {value: code for code, value in enumerate(values)}
        self._row_bitmaps = _BitmapSet(self, None)
        #: ranking object -> RankCache; weakly keyed (rankings have identity
        #: hash) so caches die with their ranking instead of accreting on the
        #: table-lifetime index as engines come and go.
        self._rank_caches: "weakref.WeakKeyDictionary[RankingFunction, RankCache]" = (
            weakref.WeakKeyDictionary()
        )

    # -- columnar access ----------------------------------------------------

    @property
    def table(self) -> "Table":
        """The table this index accelerates."""
        return self._table

    def selectable_column(self, attribute_name: str) -> list[Value]:
        """The selectable value of one searchable attribute for every row."""
        codes, values = self.code_columns[attribute_name]
        return list(map((*values, _UNBINNABLE).__getitem__, codes))

    def selectable_row(self, row_id: int) -> dict[str, Value]:
        """One row's selectable values, read from the code columns."""
        selectable: dict[str, Value] = {}
        for name, (codes, values) in self.code_columns.items():
            code = codes[row_id]
            if code == len(values):
                raise DomainValueError(name, self._table[row_id][name])
            selectable[name] = values[code]
        return selectable

    def narrow(self, row_ids: Sequence[int], query: "ConjunctiveQuery") -> list[int]:
        """The ids of ``row_ids`` whose rows match ``query``, in the given order.

        One C-level :func:`itertools.compress` pass over the code column per
        predicate; a value outside the attribute's domain matches no row.
        """
        kept = list(row_ids)
        for predicate in query.predicates:
            if not kept:
                break
            code = self._code_of.get(predicate.attribute, {}).get(predicate.value)
            if code is None:
                return []
            codes = self.code_columns[predicate.attribute][0]
            kept = list(compress(kept, map(code.__eq__, map(codes.__getitem__, kept))))
        return kept

    def posting_list(self, attribute_name: str, value: Value) -> list[int]:
        """Ascending row ids whose ``attribute_name`` encodes to ``value``."""
        bits = self._row_bitmaps.bitmaps.get((attribute_name, value), 0)
        return _lowest_set_bits(bits, self.n_rows)

    # -- conjunctive evaluation ---------------------------------------------

    def matching_row_ids(self, query: "ConjunctiveQuery") -> list[int]:
        """All row ids matching ``query``, ascending (same order as a scan)."""
        return _lowest_set_bits(self._row_bitmaps.match(query), self.n_rows)

    def count(self, query: "ConjunctiveQuery") -> int:
        """Number of rows matching ``query``, without materialising them."""
        return self._row_bitmaps.match(query).bit_count()

    # -- rank caches ---------------------------------------------------------

    def rank_cache(self, ranking: "RankingFunction") -> RankCache:
        """The memoised :class:`RankCache` for ``ranking`` (built on first use).

        Keyed by ranking-object identity, weakly: a cache lives exactly as
        long as something (typically a :class:`QueryEngine`) keeps its
        ranking alive.
        """
        cache = self._rank_caches.get(ranking)
        if cache is None:
            cache = RankCache(self._table, ranking)
            self._rank_caches[ranking] = cache
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableIndex(table={self._table.name!r}, rows={self.n_rows}, "
            f"bitmaps={len(self._row_bitmaps.bitmaps)})"
        )
