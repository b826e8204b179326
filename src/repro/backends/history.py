"""The query-history layer: dedup and inference for *every* access path.

"Following an optimization proposed in [2], this module also keeps track of
the query history and results to ensure that the random query generation
process accumulates savings by not issuing the same query twice, or queries
whose results can be inferred from the query history."  (paper Section 3.2)

Historically this optimisation lived in the sampler core
(``repro.core.history.QueryHistoryCache``) and only the core sampler loop
benefited.  It is now a middleware layer in the backend stack, so the direct
engine path *and* the page-scraping web path both dedup and short-circuit
known-empty/known-valid queries — on the web path every avoided submission is
a whole page fetch saved.  :class:`HistoryLayer` intercepts submissions:

* **exact hit** — a query with the same canonical predicate set was answered
  before: replay the stored response, issue nothing;
* **inference from a valid ancestor** — a previously-seen *valid*
  (non-overflowing) query subsumes the new one; because the valid query
  returned *all* of its matching tuples, the new query's answer is exactly the
  subset of those tuples that satisfy the extra predicates — compute it
  locally, issue nothing;
* **inference of emptiness** — a previously-seen *empty* query subsumes the
  new one, so the new one is empty too; issue nothing;
* otherwise forward the query to the inner backend and remember the answer.

Savings are tracked in :class:`HistoryStatistics`, which benchmark E7 and
``benchmarks/bench_backend_stack.py`` report.

Thread-safety contract: the layer is **lock-striped** so it can legally sit
*under* a :class:`~repro.backends.dispatch.DispatchLayer` or serve concurrent
HTTP clients.  The canonical-key space is partitioned over ``stripes``
independent stripes, each holding its own insertion-ordered dicts behind its
own lock; statistics update under their own dedicated lock; and a **per-key
in-flight guard** ensures that when several threads miss on the same
canonical query simultaneously, exactly one issues it to the inner backend —
the rest wait and replay the cached answer (the cache never double-pays a
round-trip for the same bytes).  One deliberate exception: a *bounded* cache
(``max_entries``) collapses to a single stripe, preserving the exact global
oldest-first eviction order of the serial implementation.  The subsumption
index (below) sits behind one more lock, which is only ever taken while a
stripe lock is held or on its own — never the other way round — and is
updated in the same stripe-lock hold as the stripe's responses, so a probe
never returns an entry that has already been evicted.

Batch submissions (:meth:`HistoryLayer.submit_outcomes`) answer every hit
and inferable item locally, deduplicate repeated canonical keys *within* the
batch, and forward only the first occurrence of each genuine miss — as one
inner ``submit_outcomes`` batch (e.g. the wire batch of
:class:`~repro.backends.remote.RemoteBackend`), so a warm history over a
remote endpoint pays one small POST instead of many GETs.

Complexity contract: every valid or empty answer is also filed in one
*subsumption index*, ``canonical key → response``.  A subsuming ancestor's
canonical key is a subset of the query's (sorted) canonical key, so the
default ``inference="indexed"`` mode answers a submission with one probe: the
≤ 2^|q| subsets, generated by :func:`itertools.combinations` and looked up by
C-level ``map``/``filter`` (|q| is bounded by the schema width, 4–6 in this
repo) — O(2^|q|) dict probes, independent of history size.
``inference="scan"`` instead tests every indexed entry for subsumption,
O(history); it is the property-test oracle, and queries wider than 20
predicates always use it.  A valid ancestor's answer is narrowed to the
query on tuple ids (:meth:`~repro.database.interface.ResultPage.narrow`), so
an inferred answer renders nothing until a sampler reads it.  Bookkeeping
uses insertion-ordered dicts throughout, so remembering and evicting an
entry are O(1).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat
from typing import Sequence

from repro.backends.base import forward_outcomes
from repro.database.interface import HiddenDatabase, InterfaceResponse, ResultPage, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.exceptions import ConfigurationError

#: Default stripe count: plenty of parallelism for the 4–16 worker pools the
#: dispatch layers run, while keeping per-instance overhead negligible.
DEFAULT_STRIPES = 8


class CachedResponseSource(enum.Enum):
    """Where the answer of the most recent submission came from."""

    INTERFACE = "interface"    #: actually issued to the hidden database
    EXACT_HIT = "exact_hit"    #: replayed verbatim from the cache
    INFERRED = "inferred"      #: computed from a subsuming valid/empty query


@dataclass
class HistoryStatistics:
    """Counters of how many interface queries the cache saved."""

    submissions: int = 0
    issued_to_interface: int = 0
    exact_hits: int = 0
    inferred: int = 0

    @property
    def saved(self) -> int:
        """Queries the sampler asked for but never reached the interface."""
        return self.exact_hits + self.inferred

    @property
    def saving_ratio(self) -> float:
        """Fraction of submissions answered without touching the interface."""
        if self.submissions == 0:
            return 0.0
        return self.saved / self.submissions

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by reports and benchmarks."""
        return {
            "submissions": self.submissions,
            "issued_to_interface": self.issued_to_interface,
            "exact_hits": self.exact_hits,
            "inferred": self.inferred,
            "saved": self.saved,
            "saving_ratio": self.saving_ratio,
        }


class _Stripe:
    """One shard of the canonical-key space: its own dicts, its own lock."""

    __slots__ = ("lock", "responses", "in_flight")

    #: Machine-checked by reprolint R1 (guarded-state): every dict of the
    #: stripe is only touched while that same stripe's ``lock`` is held.
    _guarded_by = {
        "responses": "lock",
        "in_flight": "lock",
    }

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: key -> cached response, in insertion order (O(1) oldest eviction).
        self.responses: dict[tuple, InterfaceResponse] = {}
        #: key -> event of the thread currently issuing that key.
        self.in_flight: dict[tuple, threading.Event] = {}


class HistoryLayer:
    """A caching / inferring middleware layer over any hidden-database backend.

    ``inference`` selects how subsuming ancestors are found: ``"indexed"``
    (default) probes the subsumption index with the ≤ 2^|q| predicate
    subsets of the submitted query; ``"scan"`` linearly scans the index,
    serving as the equivalence oracle.  Both modes return identical
    responses.

    ``stripes`` bounds the lock striping (see the module docstring); a cache
    bounded by ``max_entries`` always uses one stripe so eviction order stays
    exactly the serial oldest-first order.

    (This is the paper's query-history optimisation, formerly
    ``repro.core.history.QueryHistoryCache``, which remains importable as an
    alias.)
    """

    #: Queries wider than this are scanned even in indexed mode — 2^|q|
    #: subset enumeration stops paying off long before that.
    _MAX_SUBSET_PREDICATES = 20

    #: Machine-checked by reprolint R1 (guarded-state): the savings counters
    #: are only mutated under the dedicated statistics lock, the subsumption
    #: index under its own lock (stripe dicts are declared on
    #: :class:`_Stripe` itself).
    _guarded_by = {"statistics": "_stats_lock", "_index": "_index_lock"}

    def __init__(
        self,
        database: HiddenDatabase,
        max_entries: int | None = None,
        inference: str = "indexed",
        stripes: int = DEFAULT_STRIPES,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError("max_entries must be positive when given")
        if inference not in ("indexed", "scan"):
            raise ConfigurationError(
                f"inference must be 'indexed' or 'scan', got {inference!r}"
            )
        if stripes < 1:
            raise ConfigurationError("stripes must be at least 1")
        self.inner = database
        self._max_entries = max_entries
        self._inference = inference
        if max_entries is not None:
            # A bounded cache keeps ONE stripe: global oldest-first eviction
            # cannot be decided stripe-locally, and bounded caches are the
            # checkpoint/test configuration, not the concurrent hot path.
            stripes = 1
        self._stripe_list = tuple(_Stripe() for _ in range(stripes))
        #: The subsumption index: canonical key -> every cached valid or
        #: empty response (the only ones inference can use).  Taken only
        #: inside a stripe lock or alone, never around one (reprolint R5).
        self._index_lock = threading.Lock()
        self._index: dict[tuple, InterfaceResponse] = {}
        #: Statistics update under their own lock so counter maintenance never
        #: contends with (or deadlocks against) stripe bookkeeping.  The lock
        #: is global — every submission touches it twice — but each critical
        #: section is a couple of integer increments (~100 ns); against the
        #: microsecond-to-millisecond engine/network work a submission fronts,
        #: it is noise, so per-stripe counter sharding is not worth its
        #: aggregation complexity.
        self._stats_lock = threading.Lock()
        self.statistics = HistoryStatistics()
        #: Best-effort under concurrency (the most recently *finished*
        #: submission on any thread); exact in serial use, which is what the
        #: sampler core and the equivalence tests rely on.
        self.last_source: CachedResponseSource = CachedResponseSource.INTERFACE

    # -- HiddenDatabase contract -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Schema of the wrapped database."""
        return self.inner.schema

    @property
    def k(self) -> int:
        """Top-``k`` limit of the wrapped database."""
        return self.inner.k

    @property
    def stripes(self) -> int:
        """How many lock stripes partition the canonical-key space."""
        return len(self._stripe_list)

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` from the cache if possible, else forward it.

        Concurrent submissions of the *same* canonical query coalesce: one
        thread issues, the others wait on its in-flight event and replay the
        remembered answer (counted as exact hits — they paid nothing).
        """
        with self._stats_lock:
            self.statistics.submissions += 1
        key = query.canonical_key()
        stripe = self._stripe_for(key)
        while True:
            response = self._answer_locally(key, stripe, query)
            if response is not None:
                return response
            claim = self._claim(key, stripe)
            if claim is None:
                # The key got cached between lookup and claim; re-read it.
                continue
            kind, event = claim
            if kind == "wait":
                event.wait()
                continue
            break  # we own the in-flight slot for this key
        try:
            response = self.inner.submit(query)
        except BaseException:
            # Waiters re-run their own lookup (and may issue themselves);
            # a failed issue must never leave them parked forever.
            self._release(key, stripe, event)
            raise
        with self._stats_lock:
            self.statistics.issued_to_interface += 1
        self.last_source = CachedResponseSource.INTERFACE
        self._remember(key, response)
        self._release(key, stripe, event)
        return response

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Answer a batch: cache hits locally, the misses as one inner batch.

        Repeated canonical keys *within* the batch are issued once; keys
        another thread is already issuing are awaited after our own forward
        rather than re-issued.  Per-item outcomes come back in input order;
        a failed item costs neither its siblings' answers nor the cache the
        round-trips already paid for.

        Answers are identical to a serial loop's; the *savings* may be
        slightly smaller: a serial loop can infer item ``j`` from item
        ``i < j``'s fresh answer, while a batch decides every item against
        the history as of batch start — the answers it would have inferred
        ride along in the same single round-trip instead.
        """
        queries = list(queries)
        with self._stats_lock:
            self.statistics.submissions += len(queries)
        results: list[InterfaceResponse | Exception | None] = [None] * len(queries)
        owned: dict[tuple, list[int]] = {}      # key -> positions we must issue
        events: list[tuple[int, threading.Event]] = []  # positions awaiting another thread
        for index, query in enumerate(queries):
            key = query.canonical_key()
            stripe = self._stripe_for(key)
            if key in owned:
                owned[key].append(index)  # within-batch duplicate: issue once
                continue
            # Same lookup-then-claim loop as submit(): a key cached between
            # lookup and claim is re-read, never issued without owning the
            # in-flight slot (an eviction race must not double-issue).
            while True:
                response = self._answer_locally(key, stripe, query)
                if response is not None:
                    results[index] = response
                    break
                claim = self._claim(key, stripe)
                if claim is None:
                    continue
                kind, event = claim
                if kind == "wait":
                    events.append((index, event))
                else:
                    owned[key] = [index]
                break
        if owned:
            keys = list(owned)
            forward = [queries[owned[key][0]] for key in keys]
            try:
                outcomes = forward_outcomes(self.inner, forward)
            except BaseException:
                for key in keys:
                    stripe = self._stripe_for(key)
                    with stripe.lock:
                        event = stripe.in_flight.pop(key, None)
                    if event is not None:
                        event.set()
                raise
            issued = 0
            extra_hits = 0
            for key, outcome in zip(keys, outcomes):
                stripe = self._stripe_for(key)
                if not isinstance(outcome, Exception):
                    issued += 1
                    # A within-batch repeat of an issued key is the batch
                    # shape of an exact hit: the serial loop would have
                    # replayed it.
                    extra_hits += len(owned[key]) - 1
                    self._remember(key, outcome)
                # A failed key's waiters are released to fend for themselves;
                # its siblings' answers were still paid for and remembered.
                with stripe.lock:
                    event = stripe.in_flight.pop(key, None)
                if event is not None:
                    event.set()
                for index in owned[key]:
                    results[index] = outcome
            with self._stats_lock:
                self.statistics.issued_to_interface += issued
                self.statistics.exact_hits += extra_hits
            if issued:
                self.last_source = CachedResponseSource.INTERFACE
        for index, event in events:
            # Another thread owned these keys; its answer is cached by now
            # (or it failed, in which case submit() re-guards and issues).
            event.wait()
            query = queries[index]
            key = query.canonical_key()
            stripe = self._stripe_for(key)
            response = self._answer_locally(key, stripe, query)
            if response is None:
                with self._stats_lock:
                    self.statistics.submissions -= 1  # submit() recounts it
                (response,) = forward_outcomes(self, [query])
            results[index] = response
        return results  # type: ignore[return-value] - every slot is filled

    # -- lookup ------------------------------------------------------------------------

    def _stripe_for(self, key: tuple) -> _Stripe:
        return self._stripe_list[hash(key) % len(self._stripe_list)]

    def _answer_locally(
        self, key: tuple, stripe: _Stripe, query: ConjunctiveQuery
    ) -> InterfaceResponse | None:
        """An exact hit or inferred answer, with statistics; ``None`` on miss."""
        with stripe.lock:
            cached = stripe.responses.get(key)
        if cached is not None:
            with self._stats_lock:
                self.statistics.exact_hits += 1
            self.last_source = CachedResponseSource.EXACT_HIT
            return cached
        inferred = self._infer(query)
        if inferred is not None:
            with self._stats_lock:
                self.statistics.inferred += 1
            self.last_source = CachedResponseSource.INFERRED
            self._remember(key, inferred)
            return inferred
        return None

    def _claim(
        self, key: tuple, stripe: _Stripe
    ) -> tuple[str, threading.Event] | None:
        """Try to become the issuer of ``key``.

        Returns ``("own", event)`` when this thread must issue, ``("wait",
        event)`` when another thread already is, and ``None`` when the key got
        cached in the meantime (caller re-reads).
        """
        with stripe.lock:
            if key in stripe.responses:
                return None
            event = stripe.in_flight.get(key)
            if event is not None:
                return "wait", event
            event = threading.Event()
            stripe.in_flight[key] = event
            return "own", event

    def _release(self, key: tuple, stripe: _Stripe, event: threading.Event) -> None:
        with stripe.lock:
            stripe.in_flight.pop(key, None)
        event.set()

    # -- inference ---------------------------------------------------------------------

    def _infer(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        ancestor = self._find_subsuming(query)
        if ancestor is None:
            return None
        # A cached valid ancestor returned *all* of its matches, so this
        # specialisation's answer is the subset matching the extra
        # predicates; an empty ancestor proves this query empty too.
        tuples = ancestor.tuples
        if isinstance(tuples, ResultPage):
            tuples = tuples.narrow(query)
        else:
            tuples = tuple(returned for returned in tuples if returned.matches(query))
        return InterfaceResponse(
            query=query,
            tuples=tuples,
            overflow=False,
            reported_count=len(tuples) if ancestor.reported_count is not None else None,
            k=self.k,
        )

    def _find_subsuming(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        """A cached valid or empty response whose query subsumes ``query``.

        Any subsuming ancestor yields the same inferred answer: an empty one
        proves emptiness outright, and a valid one holds its complete result
        set, whose subset matching ``query`` is the same rows in the same
        rank order whichever ancestor is used.  If an empty and a valid
        ancestor both subsume ``query``, it has no matches and both give the
        empty answer — so one pass serves both kinds, in any order.
        """
        key = query.canonical_key()
        with self._index_lock:
            if self._inference == "indexed" and len(key) <= self._MAX_SUBSET_PREDICATES:
                subsets = chain.from_iterable(map(combinations, repeat(key), range(len(key) + 1)))
                # Responses are always truthy, so only misses are filtered out.
                return next(filter(None, map(self._index.get, subsets)), None)
            for cached in self._index.values():
                if cached.query.subsumes(query):
                    return cached
        return None

    # -- cache maintenance ----------------------------------------------------------------

    def _remember(self, key: tuple, response: InterfaceResponse) -> None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            evicted = None
            # Only a genuinely new key can push the cache over its limit;
            # overwriting in place (e.g. re-importing a checkpoint) must not
            # evict an unrelated entry.  max_entries forces a single stripe,
            # so the stripe-local size IS the cache size and the evicted
            # entry is the globally oldest one.
            if (
                self._max_entries is not None
                and key not in stripe.responses
                and len(stripe.responses) >= self._max_entries
            ):
                evicted = next(iter(stripe.responses))
                del stripe.responses[evicted]
            stripe.responses[key] = response
            with self._index_lock:
                if evicted is not None:
                    self._index.pop(evicted, None)
                # Reclassify cleanly on overwrite.
                if response.empty or not response.overflow:
                    self._index[key] = response
                else:
                    self._index.pop(key, None)

    def snapshot(self) -> HistoryStatistics:
        """A point-in-time copy of the savings counters, taken under the lock.

        Concurrent submissions update the live object; reading it field by
        field can observe a half-applied update, so dashboards and service
        endpoints report from this copy instead.
        """
        with self._stats_lock:
            return replace(self.statistics)

    def clear(self) -> None:
        """Forget every cached response (statistics are kept)."""
        for stripe in self._stripe_list:
            with stripe.lock:
                with self._index_lock:
                    for key in stripe.responses:
                        self._index.pop(key, None)
                stripe.responses.clear()

    def valid_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for subset inference."""
        with self._index_lock:
            return frozenset(key for key, cached in self._index.items() if not cached.empty)

    def empty_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for emptiness inference."""
        with self._index_lock:
            return frozenset(key for key, cached in self._index.items() if cached.empty)

    # -- serialisation (job checkpoints) ------------------------------------------------

    def export_entries(self) -> list[dict]:
        """The cached responses as JSON-serialisable dicts.

        Within each stripe entries come out in insertion order (bounded
        caches have exactly one stripe, so their global order is preserved).
        Together with :meth:`import_entries` this lets a paused sampling job
        checkpoint its warm cache and resume later without re-paying the
        interface queries that filled it.
        """
        entries = []
        for stripe in self._stripe_list:
            with stripe.lock:
                responses = list(stripe.responses.values())
            for response in responses:
                # Rendering every cached page to export it must not pin the
                # rendered rows in the live cache.
                tuples = response.tuples
                rows = tuples.iter_uncached() if isinstance(tuples, ResultPage) else tuples
                entries.append(
                    {
                        "query": response.query.assignment(),
                        "tuples": [t.to_dict() for t in rows],
                        "overflow": response.overflow,
                        "reported_count": response.reported_count,
                    }
                )
        return entries

    def import_entries(self, entries: list[dict]) -> int:
        """Refill the cache from :meth:`export_entries` output.

        Returns the number of entries loaded.  Statistics are untouched: the
        imported answers were paid for before the checkpoint.
        """
        loaded = 0
        for entry in entries:
            query = ConjunctiveQuery.from_assignment(self.schema, entry["query"])
            response = InterfaceResponse(
                query=query,
                tuples=tuple(map(ReturnedTuple.from_dict, entry["tuples"])),
                overflow=bool(entry["overflow"]),
                reported_count=entry.get("reported_count"),
                k=self.k,
            )
            self._remember(query.canonical_key(), response)
            loaded += 1
        return loaded

    def __len__(self) -> int:
        return sum(len(stripe.responses) for stripe in self._stripe_list)
