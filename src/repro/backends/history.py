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
oldest-first eviction order of the serial implementation.

Batch submissions (:meth:`HistoryLayer.submit_many`) answer every hit and
inferable item locally, deduplicate repeated canonical keys *within* the
batch, and forward only the first occurrence of each genuine miss — as one
inner ``submit_many`` when the inner backend has a batch path (e.g. the wire
batch of :class:`~repro.backends.remote.RemoteBackend`), so a warm history
over a remote endpoint pays one small POST instead of many GETs.

Complexity contract: a subsuming ancestor's canonical key is, by definition,
a subset of the query's canonical key, so the default ``inference="indexed"``
mode answers a submission by enumerating the ≤ 2^|q| predicate subsets of the
query (|q| is bounded by the schema width, 4–6 in this repo) and probing the
empty-key/valid-key dictionaries directly — O(2^|q|) dict probes, independent
of history size — instead of the O(history) linear subsumption scan of
``inference="scan"`` (kept as the property-test oracle; the indexed mode also
falls back to scanning automatically while the history is still smaller than
the subset count, and for very wide queries).  Bookkeeping uses insertion-
ordered dicts throughout, so remembering and evicting an entry are O(1) per
stripe.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from typing import Sequence

from repro.database.interface import HiddenDatabase, InterfaceResponse, ReturnedTuple
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

    __slots__ = ("lock", "responses", "valid_keys", "empty_keys", "in_flight")

    #: Machine-checked by reprolint R1 (guarded-state): every dict of the
    #: stripe is only touched while that same stripe's ``lock`` is held.
    _guarded_by = {
        "responses": "lock",
        "valid_keys": "lock",
        "empty_keys": "lock",
        "in_flight": "lock",
    }

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: key -> cached response, in insertion order (O(1) oldest eviction).
        self.responses: dict[tuple, InterfaceResponse] = {}
        #: Canonical keys of valid (non-overflowing, non-empty) responses, the
        #: only ones usable for subset inference.  Dicts-as-ordered-sets: O(1)
        #: add/discard with deterministic (insertion) iteration order.
        self.valid_keys: dict[tuple, None] = {}
        #: Canonical keys of empty responses, usable for emptiness inference.
        self.empty_keys: dict[tuple, None] = {}
        #: key -> event of the thread currently issuing that key.
        self.in_flight: dict[tuple, threading.Event] = {}


class HistoryLayer:
    """A caching / inferring middleware layer over any hidden-database backend.

    ``inference`` selects how subsuming ancestors are found: ``"indexed"``
    (default) probes the key dictionaries with the ≤ 2^|q| predicate subsets
    of the submitted query; ``"scan"`` linearly scans the history, serving as
    the equivalence oracle.  Both modes return identical responses.

    ``stripes`` bounds the lock striping (see the module docstring); a cache
    bounded by ``max_entries`` always uses one stripe so eviction order stays
    exactly the serial oldest-first order.

    (This is the paper's query-history optimisation, formerly
    ``repro.core.history.QueryHistoryCache``, which remains importable as an
    alias.)
    """

    #: Queries wider than this fall back to the linear scan even in indexed
    #: mode — 2^|q| subset enumeration stops paying off long before that.
    _MAX_SUBSET_PREDICATES = 20

    #: Machine-checked by reprolint R1 (guarded-state): the savings counters
    #: are only mutated under the dedicated statistics lock (stripe dicts are
    #: declared on :class:`_Stripe` itself).
    _guarded_by = {"statistics": "_stats_lock"}

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

    def submit_many(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse]:
        """Answer a batch: cache hits locally, the misses as one inner batch.

        Repeated canonical keys *within* the batch are issued once; keys
        another thread is already issuing are awaited after our own forward
        rather than re-issued.  Responses come back in input order.

        Answers are identical to a serial loop's; the *savings* may be
        slightly smaller: a serial loop can infer item ``j`` from item
        ``i < j``'s fresh answer, while a batch decides every item against
        the history as of batch start — the answers it would have inferred
        ride along in the same single round-trip instead.
        """
        queries = list(queries)
        with self._stats_lock:
            self.statistics.submissions += len(queries)
        results: list[InterfaceResponse | None] = [None] * len(queries)
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
        first_error: Exception | None = None
        first_error_index = len(queries)
        if owned:
            keys = list(owned)
            forward = [queries[owned[key][0]] for key in keys]
            try:
                outcomes = self._forward_many(forward)
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
                if isinstance(outcome, Exception):
                    # This item failed, but its siblings' answers were still
                    # paid for and are remembered below — only the failing
                    # key's waiters are released to fend for themselves.
                    with stripe.lock:
                        event = stripe.in_flight.pop(key, None)
                    if event is not None:
                        event.set()
                    index = min(owned[key])
                    if index < first_error_index:
                        first_error, first_error_index = outcome, index
                    continue
                issued += 1
                # A within-batch repeat of an issued key is the batch shape of
                # an exact hit: the serial loop would have replayed it.
                extra_hits += len(owned[key]) - 1
                self._remember(key, outcome)
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
        if first_error is not None:
            # Mirror submit_many contracts below: the first input-order error
            # surfaces — but everything answered is already in the cache, so
            # a retried batch re-pays only the failed items.
            raise first_error
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
                response = self.submit(query)
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

    def _forward_many(
        self, queries: list[ConjunctiveQuery]
    ) -> list["InterfaceResponse | Exception"]:
        """Issue the de-duplicated misses, batched when the inner backend can.

        Prefers per-item outcomes (:func:`~repro.backends.base.forward_outcomes`
        — the ``submit_outcomes`` path, or a serial loop capturing each item's
        exception) so that when one item fails, the siblings' already-paid-for
        answers still come back to be remembered.  An inner backend offering
        *only* ``submit_many`` keeps its wire batching; its whole-batch raise
        is handled by the caller's release-everything path.
        """
        from repro.backends.base import forward_outcomes

        if len(queries) > 1 and not callable(getattr(self.inner, "submit_outcomes", None)):
            inner_many = getattr(self.inner, "submit_many", None)
            if callable(inner_many):
                return list(inner_many(queries))
        return forward_outcomes(self.inner, queries)

    # -- inference ---------------------------------------------------------------------

    def _infer(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        ancestor = self._find_subsuming(query, "empty_keys")
        if ancestor is not None:
            # Emptiness: a cached empty query subsuming this one proves this
            # one is empty as well.
            return InterfaceResponse(
                query=query,
                tuples=(),
                overflow=False,
                reported_count=0 if ancestor.reported_count is not None else None,
                k=self.k,
            )
        ancestor = self._find_subsuming(query, "valid_keys")
        if ancestor is not None:
            # Subset inference: a cached valid query returned *all* of its
            # matches, so a specialisation's answer is the filtered subset.
            tuples = tuple(t for t in ancestor.tuples if self._tuple_matches(query, t))
            return InterfaceResponse(
                query=query,
                tuples=tuples,
                overflow=False,
                reported_count=len(tuples) if ancestor.reported_count is not None else None,
                k=self.k,
            )
        return None

    def _find_subsuming(
        self, query: ConjunctiveQuery, index_name: str
    ) -> InterfaceResponse | None:
        """A cached response from the named key index subsuming ``query``.

        Any subsuming ancestor yields the same inferred answer (an empty
        ancestor proves emptiness outright; a valid ancestor holds the
        complete result set, whose filtered-by-``query`` subset is the same
        rows in the same rank order whichever ancestor is used), so the two
        lookup strategies — and the stripe visit order — are interchangeable.
        """
        # Unlocked size probe: the count only steers the strategy choice, and
        # either strategy is correct.
        total_keys = sum(len(getattr(stripe, index_name)) for stripe in self._stripe_list)
        if total_keys == 0:
            return None
        key = query.canonical_key()
        n_predicates = len(key)
        # Subset enumeration costs 2^|q| probes regardless of history size;
        # scanning costs one subsumption check per stored key.  Pick whichever
        # is cheaper, and always scan when asked to (the oracle mode).
        use_scan = (
            self._inference == "scan"
            or n_predicates > self._MAX_SUBSET_PREDICATES
            or total_keys < (1 << n_predicates)
        )
        if use_scan:
            for stripe in self._stripe_list:
                with stripe.lock:
                    for cached_key in getattr(stripe, index_name):
                        cached = stripe.responses[cached_key]
                        if cached.query.subsumes(query):
                            return cached
            return None
        for mask in range(1 << n_predicates):
            subset = tuple(key[i] for i in range(n_predicates) if mask >> i & 1)
            stripe = self._stripe_for(subset)
            with stripe.lock:
                if subset in getattr(stripe, index_name):
                    return stripe.responses[subset]
        return None

    @staticmethod
    def _tuple_matches(query: ConjunctiveQuery, returned: ReturnedTuple) -> bool:
        for predicate in query.predicates:
            if returned.selectable_values.get(predicate.attribute) != predicate.value:
                return False
        return True

    # -- cache maintenance ----------------------------------------------------------------

    def _remember(self, key: tuple, response: InterfaceResponse) -> None:
        stripe = self._stripe_for(key)
        with stripe.lock:
            if key not in stripe.responses:
                # Only a genuinely new key can push the cache over its limit;
                # overwriting in place (e.g. re-importing a checkpoint) must
                # not evict an unrelated entry.  max_entries forces a single
                # stripe, so the stripe-local size IS the cache size and the
                # evicted entry is the globally oldest one.
                if self._max_entries is not None and len(stripe.responses) >= self._max_entries:
                    self._evict_oldest_locked(stripe)
            else:
                # Reclassify cleanly on overwrite.
                stripe.valid_keys.pop(key, None)
                stripe.empty_keys.pop(key, None)
            stripe.responses[key] = response
            if response.empty:
                stripe.empty_keys[key] = None
            elif not response.overflow:
                stripe.valid_keys[key] = None

    @staticmethod
    def _evict_oldest_locked(stripe: _Stripe) -> None:
        """Drop the stripe's least recently *inserted* entry — O(1) bookkeeping.

        (The ``_locked`` suffix is the reprolint R1 convention: the caller
        holds ``stripe.lock`` for the whole call.)
        """
        oldest_key = next(iter(stripe.responses))
        del stripe.responses[oldest_key]
        stripe.valid_keys.pop(oldest_key, None)
        stripe.empty_keys.pop(oldest_key, None)

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
                stripe.responses.clear()
                stripe.valid_keys.clear()
                stripe.empty_keys.clear()

    def valid_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for subset inference."""
        keys: list[tuple] = []
        for stripe in self._stripe_list:
            with stripe.lock:
                keys.extend(stripe.valid_keys)
        return frozenset(keys)

    def empty_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for emptiness inference."""
        keys: list[tuple] = []
        for stripe in self._stripe_list:
            with stripe.lock:
                keys.extend(stripe.empty_keys)
        return frozenset(keys)

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
                entries.append(
                    {
                        "query": response.query.assignment(),
                        "tuples": [t.to_dict() for t in response.tuples],
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
