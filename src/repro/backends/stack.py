"""Curated layer compositions: one access path, assembled to order.

:class:`BackendStack` turns a raw backend plus a list of layer factories into
one composed access path, keeps handles to every layer for introspection, and
enforces two accounting invariants at construction: a chain contains at most
one :class:`~repro.backends.layers.StatisticsLayer` (a second counter
double-counts every issued query), and the layers a stack builds appear in
the canonical order of :data:`LAYER_ORDER` (a retry layer above the budget
charges it once per attempt).

Every preset places its layers through one private ``_compose``:

* :func:`engine_stack` — what :class:`HiddenDatabaseInterface` always was:
  ``StatisticsLayer(BudgetLayer(CountModeLayer(QueryEngineBackend)))``;
* :func:`web_stack` — what :class:`WebFormClient` always was:
  ``StatisticsLayer(BudgetLayer(WebPageBackend))``, optionally under a
  history layer so the scraping path deduplicates page fetches;
* :func:`sharded_stack` — the engine layers over a
  :class:`~repro.backends.shard.ShardRouter`, or with ``parallel=N`` over a
  :class:`~repro.backends.dispatch.ConcurrentShardRouter` thread pool (same
  bytes, overlapped round-trips);
* :func:`remote_stack` — the usual layers plus a retrying
  :class:`~repro.backends.layers.UnreliableLayer` over a
  :mod:`repro.web.httpd` endpoint across a real socket, through a pooled
  :class:`~repro.backends.remote.RemoteBackend`;
* :func:`failover_stack` — the same layers over a health-checked
  :class:`~repro.backends.resilience.FailoverRouter` of remote targets.

All accept ``history=True`` to slot a
:class:`~repro.backends.history.HistoryLayer` on top.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.backends.adapters import QueryEngineBackend, WebPageBackend
from repro.backends.base import RawBackend, forward_outcomes, iter_chain, raise_first_failure
from repro.backends.dispatch import ConcurrentShardRouter, DispatchLayer
from repro.backends.history import HistoryLayer
from repro.backends.layers import BudgetLayer, CountModeLayer, StatisticsLayer, UnreliableLayer
from repro.backends.remote import DEFAULT_POOL_SIZE, RemoteBackend
from repro.backends.resilience import (
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    FailoverRouter,
    resilience_report,
)
from repro.backends.shard import ShardRouter
from repro.database.interface import CountMode, InterfaceResponse, InterfaceStatistics
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Schema
from repro.database.table import Table
from repro.exceptions import ConfigurationError

#: A layer factory: given the backend to wrap, return the wrapping layer.
#: Layer classes whose remaining parameters all default qualify directly.
LayerFactory = Callable[[RawBackend], RawBackend]

#: Canonical position of each ranked layer, innermost (closest to the raw
#: backend) first.  Retries sit below budget and statistics, so a submission
#: that needed three attempts charges and counts once; the breaker sits below
#: the retry layer, so every attempt is a real call its failure window sees
#: and an open circuit's fast-fail passes through unretried.
LAYER_ORDER: tuple[type, ...] = (
    CountModeLayer,
    CircuitBreakerLayer,
    UnreliableLayer,
    BudgetLayer,
    StatisticsLayer,
    HistoryLayer,
    DispatchLayer,
)


def _rank(layer: RawBackend) -> int | None:
    """``layer``'s index in :data:`LAYER_ORDER`, or ``None`` when unranked.

    An :class:`UnreliableLayer` with ``max_retries == 0`` re-issues nothing:
    it is a fault or latency source, not a retry layer, so it may sit anywhere.
    """
    if isinstance(layer, UnreliableLayer) and layer.max_retries == 0:
        return None
    for rank, layer_type in enumerate(LAYER_ORDER):
        if isinstance(layer, layer_type):
            return rank
    return None


class BackendStack:
    """A raw backend wrapped in middleware layers, innermost first.

    ``layers`` are factories applied bottom-up: ``BackendStack(raw, [a, b])``
    builds ``b(a(raw))``, so the *last* factory sees every submission first.
    The layers built here must follow :data:`LAYER_ORDER` (layers inside
    ``raw`` are not checked) and the whole chain may hold at most one
    :class:`StatisticsLayer`; either violation raises
    :class:`~repro.exceptions.ConfigurationError`.  The stack itself
    satisfies the backend protocol, delegating to the outermost layer, and
    exposes each layer of the chain by type through :meth:`layer` plus
    convenience properties for the common ones.
    """

    def __init__(self, raw: RawBackend, layers: Sequence[LayerFactory] = ()) -> None:
        self.raw = raw
        backend: RawBackend = raw
        built: list[RawBackend] = []
        for factory in layers:
            backend = factory(backend)
            built.append(backend)
        self._layers = tuple(built)
        self.top: RawBackend = backend
        counters = [node for node in iter_chain(self.top) if isinstance(node, StatisticsLayer)]
        if len(counters) > 1:
            raise ConfigurationError(
                "a backend stack must contain at most one StatisticsLayer — a second "
                "counter double-counts every issued query; reuse the existing layer "
                f"(found {len(counters)} in the chain)"
            )
        ranked = [(rank, layer) for layer in built if (rank := _rank(layer)) is not None]
        for (lower_rank, lower), (upper_rank, upper) in zip(ranked, ranked[1:]):
            if upper_rank < lower_rank:
                raise ConfigurationError(
                    f"{type(upper).__name__} is composed above {type(lower).__name__}; "
                    "layers must stack innermost-first as "
                    + " < ".join(layer_type.__name__ for layer_type in LAYER_ORDER)
                    + " (an UnreliableLayer with max_retries=0 is unranked)"
                )

    # -- backend protocol ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the access path."""
        return self.top.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self.top.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit one conjunctive query through every layer."""
        return self.top.submit(query)

    def submit_many(self, queries: Sequence[ConjunctiveQuery]) -> list[InterfaceResponse]:
        """Submit a batch of independent queries, responses in input order.

        The one place a batch raises: the layers report per-item outcomes
        (:func:`~repro.backends.base.forward_outcomes`) and this method
        raises the first failed item by input order — after every answered
        item has been counted, charged and cached exactly once.  Under a
        :class:`~repro.backends.dispatch.DispatchLayer` (``web_stack(...,
        parallel=N)``) the batch is issued concurrently; otherwise it is a
        loop, so callers can always batch without caring how the stack was
        built.
        """
        return raise_first_failure(forward_outcomes(self.top, list(queries)))

    # -- introspection ---------------------------------------------------------

    @property
    def layers(self) -> tuple[RawBackend, ...]:
        """The constructed layers, innermost first."""
        return self._layers

    def layer(self, layer_type: type) -> object | None:
        """The unique layer of ``layer_type`` in the chain, or ``None``.

        Searches the whole chain, so a stack built over another stack's
        ``top`` still reports the counters, budget and history beneath it.
        """
        matches = [layer for layer in iter_chain(self.top) if isinstance(layer, layer_type)]
        if not matches:
            return None
        if len(matches) > 1:
            raise ConfigurationError(
                f"stack contains {len(matches)} {layer_type.__name__} layers; "
                "address them through .layers instead"
            )
        return matches[0]

    @property
    def statistics(self) -> InterfaceStatistics | None:
        """The single statistics counter of this access path, if layered in."""
        layer = self.layer(StatisticsLayer)
        return layer.statistics if layer is not None else None

    def statistics_snapshot(self) -> InterfaceStatistics | None:
        """A locked point-in-time copy of the counters (``None`` when unlayered).

        Concurrent submissions mutate the live object under the statistics
        layer's lock; observers (dashboard, service endpoints) read this
        copy so they never see a half-applied update.
        """
        layer = self.layer(StatisticsLayer)
        return layer.snapshot() if layer is not None else None

    @property
    def budget(self) -> QueryBudget | None:
        """The query budget of this access path, if layered in."""
        layer = self.layer(BudgetLayer)
        return layer.budget if layer is not None else None

    @property
    def history(self) -> HistoryLayer | None:
        """The history/dedup layer of this access path, if layered in."""
        return self.layer(HistoryLayer)  # type: ignore[return-value]

    @property
    def count_mode_layer(self) -> CountModeLayer | None:
        """The count-shaping layer of this access path, if layered in."""
        return self.layer(CountModeLayer)  # type: ignore[return-value]

    def describe(self) -> str:
        """The chain as text, outermost first — e.g. for the CLI and docs."""
        return " → ".join(type(node).__name__ for node in iter_chain(self.top))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendStack({self.describe()})"


def introspect(backend: object) -> dict[str, object]:
    """Structured layer-level view of any access path, as plain dicts.

    Works on a :class:`BackendStack`, the thin facades over one
    (:class:`HiddenDatabaseInterface`, :class:`WebFormClient`), or any
    backend-shaped object; concerns a path does not carry report ``None``
    rather than guessing.  This is the single probe the service's
    ``backend_statistics`` and the dashboard's backend line both render.
    """
    stack = getattr(backend, "stack", backend)  # facades expose their stack

    def probe(name: str) -> object | None:
        # The stack knows its layers even when the facade exposes no
        # matching property (e.g. a budget-limited WebFormClient).
        value = getattr(stack, name, None)
        if value is None:
            value = getattr(backend, name, None)
        return value

    describe = getattr(stack, "describe", None)
    report: dict[str, object] = {
        "access_path": describe() if callable(describe) else type(backend).__name__,
    }
    # Prefer the locked snapshot when the path offers one: the dashboard and
    # the service render this report while submissions are in flight, and a
    # field-by-field read of the live counters can catch a half-applied
    # record() (reprolint R1's motivating read-side hazard).
    snapshot_probe = getattr(stack, "statistics_snapshot", None)
    statistics = snapshot_probe() if callable(snapshot_probe) else None
    if statistics is None:
        statistics = probe("statistics")
    report["statistics"] = statistics.as_dict() if statistics is not None else None
    budget = probe("budget")
    report["budget"] = (
        {"limit": budget.limit, "issued": budget.issued, "remaining": budget.remaining}
        if budget is not None
        else None
    )
    history = probe("history")
    if history is not None:
        history_snapshot = getattr(history, "snapshot", None)
        history_statistics = (
            history_snapshot() if callable(history_snapshot) else history.statistics
        )
        report["history"] = history_statistics.as_dict()
    else:
        report["history"] = None
    # Breaker / failover state anywhere in the chain (None when the path
    # carries no resilience nodes), same walking rules as the layers above.
    resilience = resilience_report(backend)
    report["breakers"] = resilience.get("breakers") if resilience else None
    report["failover"] = resilience.get("failover") if resilience else None
    return report


# -- curated compositions -------------------------------------------------------


def engine_stack(
    table: Table,
    k: int,
    ranking: RankingFunction | None = None,
    count_mode: CountMode = CountMode.NONE,
    count_noise: float = 0.3,
    budget: QueryBudget | None = None,
    display_columns: Sequence[str] = (),
    seed: int | random.Random | None = 0,
    use_index: bool = True,
    history: bool = False,
    max_history_entries: int | None = None,
    statistics: bool = True,
) -> BackendStack:
    """The direct in-process access path as a stack.

    Layer order (inside out): count shaping on the engine's exact counts,
    then the budget (charged before anything executes), then the single
    statistics counter, then — optionally — the history layer, whose hits
    never charge the budget nor count as issued queries.  This is exactly the
    legacy :class:`HiddenDatabaseInterface` behaviour, which is now built on
    this function.

    ``statistics=False`` omits the counter — the right choice when the stack
    serves a :class:`~repro.web.server.HiddenWebSite` whose *clients* own the
    accounting, keeping one counter per end-to-end access path.
    """
    raw = QueryEngineBackend(
        table, k, ranking=ranking, display_columns=display_columns, use_index=use_index
    )
    return _compose(
        raw,
        count_mode=count_mode,
        count_noise=count_noise,
        seed=seed,
        budget=budget,
        history=history,
        max_history_entries=max_history_entries,
        statistics=statistics,
    )


def web_stack(
    site: object,
    schema: Schema,
    display_columns: Sequence[str] = (),
    budget: QueryBudget | None = None,
    history: bool = False,
    max_history_entries: int | None = None,
    parallel: int | None = None,
) -> BackendStack:
    """The HTML-scraping access path as a stack.

    No count-mode layer: on this path count shaping already happened on the
    server, the client sees only what the page displays.  The statistics
    layer sits directly on the page fetcher, so with ``history=True`` the
    counters report *actual page fetches* — every history hit is a whole
    round-trip saved, which ``benchmarks/bench_backend_stack.py`` measures.

    ``parallel=N`` puts a :class:`~repro.backends.dispatch.DispatchLayer` on
    top, so ``stack.submit_many(queries)`` fetches up to ``N`` pages
    concurrently.  It composes with ``history=True``: the lock-striped
    history layer sits under the dispatch layer, deduplicates concurrent
    fetches of the same page (per-key in-flight guard) and answers repeats
    without any fetch at all.
    """
    raw = WebPageBackend(site, schema, display_columns=display_columns)
    return _compose(
        raw,
        count_mode=None,
        budget=budget,
        history=history,
        max_history_entries=max_history_entries,
        parallel=parallel,
    )


def sharded_stack(
    table: Table,
    n_shards: int,
    k: int,
    ranking: RankingFunction | None = None,
    count_mode: CountMode = CountMode.NONE,
    count_noise: float = 0.3,
    budget: QueryBudget | None = None,
    display_columns: Sequence[str] = (),
    seed: int | random.Random | None = 0,
    history: bool = False,
    max_history_entries: int | None = None,
    statistics: bool = True,
    parallel: int | None = None,
) -> BackendStack:
    """A sharded catalogue behind the same layer stack as the direct path.

    The raw backend is a :class:`~repro.backends.shard.ShardRouter` over
    ``n_shards`` partitions sharing one :class:`TableIndex`; everything the
    client sees (counts, budget, statistics, history) is identical to
    :func:`engine_stack` over the unsharded table.

    ``parallel=N`` swaps in a
    :class:`~repro.backends.dispatch.ConcurrentShardRouter` that scatters
    the per-shard sub-queries over ``N`` worker threads — responses stay
    byte-identical (the property tests prove it), only the round-trips
    overlap.  ``parallel=1`` (or ``None``) keeps the serial router.
    """
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be at least 1 when given")
    if parallel is not None and parallel > 1:
        raw: RawBackend = ConcurrentShardRouter.over_table(
            table, n_shards, k, ranking=ranking, display_columns=display_columns,
            max_workers=parallel,
        )
    else:
        raw = ShardRouter.over_table(
            table, n_shards, k, ranking=ranking, display_columns=display_columns
        )
    return _compose(
        raw,
        count_mode=count_mode,
        count_noise=count_noise,
        seed=seed,
        budget=budget,
        history=history,
        max_history_entries=max_history_entries,
        statistics=statistics,
    )


def remote_stack(
    url: str,
    budget: QueryBudget | None = None,
    history: bool = False,
    max_history_entries: int | None = None,
    statistics: bool = True,
    max_retries: int = 3,
    retry_backoff: float = 0.05,
    max_backoff: float | None = 1.0,
    timeout: float = 10.0,
    parallel: int | None = None,
    batch: int | None = None,
    pool_size: int = DEFAULT_POOL_SIZE,
    breaker: CircuitBreakerPolicy | bool | None = None,
) -> BackendStack:
    """A remote HTTP endpoint behind the same layer stack as the local paths.

    The raw backend is a :class:`~repro.backends.remote.RemoteBackend`
    speaking JSON-over-HTTP to a :mod:`repro.web.httpd` endpoint over a
    bounded pool of ``pool_size`` persistent keep-alive connections.  The
    construction-time schema fetch retries transient failures with the same
    ``max_retries``/``retry_backoff`` policy as submissions, so a server that
    is momentarily 503 does not kill the stack.  Directly above the adapter
    sits a pure-retry :class:`~repro.backends.layers.UnreliableLayer` (no
    injection) so real 429s and 5xxs self-heal with exponential backoff — set
    ``max_retries=0`` to surface every network fault to the caller.  No
    count-mode layer: like the scraping path, whatever count the server
    reports was already shaped server-side.

    ``batch=M`` puts a :class:`~repro.backends.dispatch.DispatchLayer` on top
    that cuts every ``stack.submit_many(queries)`` into chunks of ``M``
    queries, each travelling as **one** ``POST /api/submit_batch`` round-trip
    (per-item statuses; the retry layer re-issues only failed items);
    ``parallel=N`` overlaps those chunks on ``N`` worker threads.  Both
    compose with ``history=True``: the lock-striped
    :class:`~repro.backends.history.HistoryLayer` legally sits under the
    dispatch layer and strips every hit and inferable item out of the wire
    batches.

    Retries sit *below* the budget and statistics layers: a submission that
    needed three attempts still charges one budgeted query and counts once —
    the client asked once; the weather is the retry layer's business (its
    ``statistics`` records it).  Backoff sleeps are capped at ``max_backoff``
    and fully jittered, prefer a server ``Retry-After`` hint, and respect the
    ambient :class:`~repro.backends.resilience.Deadline` when the caller
    carries one.

    ``breaker`` slots a
    :class:`~repro.backends.resilience.CircuitBreakerLayer` directly above
    the remote adapter — *below* the retry layer, so each retry attempt is a
    real call the rolling failure window sees, and once the circuit opens
    the retry layer passes the fast-fail straight through instead of
    hammering a dead server.  ``True`` uses the default
    :class:`~repro.backends.resilience.CircuitBreakerPolicy`; pass a policy
    to tune the window; ``None`` (default) omits the layer.
    """
    raw = RemoteBackend(
        url,
        timeout=timeout,
        pool_size=pool_size,
        connect_retries=max_retries,
        connect_backoff=retry_backoff,
    )
    return _compose(
        raw,
        count_mode=None,
        budget=budget,
        history=history,
        max_history_entries=max_history_entries,
        statistics=statistics,
        parallel=parallel,
        batch=batch,
        breaker=breaker,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        max_backoff=max_backoff,
    )


def failover_stack(
    urls: Sequence[str],
    budget: QueryBudget | None = None,
    history: bool = False,
    max_history_entries: int | None = None,
    statistics: bool = True,
    max_retries: int = 3,
    retry_backoff: float = 0.05,
    max_backoff: float | None = 1.0,
    timeout: float = 10.0,
    parallel: int | None = None,
    batch: int | None = None,
    pool_size: int = DEFAULT_POOL_SIZE,
    policy: CircuitBreakerPolicy | None = None,
) -> BackendStack:
    """Primary-plus-replicas behind the same layer stack as :func:`remote_stack`.

    The raw backend is a :class:`~repro.backends.resilience.FailoverRouter`
    over one :class:`~repro.backends.remote.RemoteBackend` per URL (first URL
    is the primary).  Each target sits behind its own circuit breaker
    (``policy`` tunes all of them): a dead primary trips its breaker, traffic
    fails over to the replicas in microseconds, and half-open probes —
    driven by real submissions or by the router's ``check_health()`` against
    ``GET /api/health`` — steer it back the moment the primary recovers.

    The usual retry layer sits above the router, so a transient that
    exhausted *every* target is still retried with capped, jittered,
    deadline-respecting backoff; budget and statistics sit above that and
    charge/count each logical submission once no matter how many targets or
    attempts it took.
    """
    if not urls:
        raise ConfigurationError("failover_stack needs at least one URL")
    targets = [
        RemoteBackend(
            url,
            timeout=timeout,
            pool_size=pool_size,
            connect_retries=max_retries,
            connect_backoff=retry_backoff,
        )
        for url in urls
    ]
    return _compose(
        FailoverRouter(targets[0], targets[1:], policy=policy),
        count_mode=None,
        budget=budget,
        history=history,
        max_history_entries=max_history_entries,
        statistics=statistics,
        parallel=parallel,
        batch=batch,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        max_backoff=max_backoff,
    )


def _compose(
    raw: RawBackend,
    count_mode: CountMode | None,
    count_noise: float = 0.3,
    seed: int | random.Random | None = 0,
    budget: QueryBudget | None = None,
    history: bool = False,
    max_history_entries: int | None = None,
    statistics: bool = True,
    parallel: int | None = None,
    batch: int | None = None,
    breaker: CircuitBreakerPolicy | bool | None = None,
    max_retries: int | None = None,
    retry_backoff: float = 0.05,
    max_backoff: float | None = 1.0,
) -> BackendStack:
    """Place every layer of a preset in :data:`LAYER_ORDER`, innermost first.

    ``count_mode=None`` omits count shaping, a falsy ``breaker`` omits the
    breaker, and ``max_retries=None`` omits the retry layer.  ``parallel``
    or ``batch`` slot a dispatch layer on top.
    """
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be at least 1 when given")
    if batch is not None and batch < 1:
        raise ConfigurationError("batch must be at least 1 when given")
    layers: list[LayerFactory] = []
    if count_mode is not None:
        layers.append(
            lambda inner: CountModeLayer(inner, mode=count_mode, noise=count_noise, seed=seed)
        )
    if breaker:
        policy = breaker if isinstance(breaker, CircuitBreakerPolicy) else None
        layers.append(lambda inner: CircuitBreakerLayer(inner, policy=policy))
    if max_retries is not None:
        layers.append(
            lambda inner: UnreliableLayer(
                inner, max_retries=max_retries, retry_backoff=retry_backoff,
                max_backoff=max_backoff,
            )
        )
    layers.append(lambda inner: BudgetLayer(inner, budget=budget))
    if statistics:
        layers.append(StatisticsLayer)
    if history:
        # The lock-striped HistoryLayer is thread-safe, so it legally sits
        # *under* the dispatch layer: concurrent batch fan-out and the §3.2
        # history optimisation compose (earlier revisions refused this).
        layers.append(lambda inner: HistoryLayer(inner, max_entries=max_history_entries))
    if (parallel is not None and parallel > 1) or batch is not None:
        layers.append(
            lambda inner: DispatchLayer(
                inner, max_workers=parallel if parallel is not None else 1, batch_size=batch
            )
        )
    return BackendStack(raw, layers)
