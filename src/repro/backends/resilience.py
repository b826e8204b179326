"""The resilience tier: deadlines, circuit breakers, health-checked failover.

The paper's samplers assume the hidden interface always answers; a service
taking real traffic cannot.  Backends stall, flap and die — and before this
module, a dead backend made every caller sleep through unbounded exponential
backoff with no deadline, no fast-fail and no failover.  Three primitives fix
that, each composable with the existing layer stack:

* :class:`Deadline` — a monotonic-clock time budget carried *per submission*
  through an ambient :func:`deadline_scope`.  Every retry loop in the stack
  clips its backoff sleeps to the remaining budget and raises a typed
  :class:`~repro.exceptions.DeadlineExceededError` instead of sleeping past
  it; the remote transport propagates the remaining budget over the wire
  (``X-Repro-Deadline-Ms``) so the HTTP server sheds already-expired work
  with 503 before touching the backend.

* :class:`CircuitBreakerLayer` — CLOSED/OPEN/HALF_OPEN over a rolling
  failure window (:class:`CircuitBreaker` is the reusable state machine).
  When a backend keeps failing, the breaker trips and subsequent calls fail
  in microseconds with :class:`~repro.exceptions.CircuitOpenError` — no
  inner call, no burned thread — until a timed half-open probe proves the
  backend recovered.  Per-shard instances under a
  :class:`~repro.backends.shard.ShardRouter` (see
  :meth:`~repro.backends.shard.ShardRouter.over_table`'s ``shard_layer``)
  let one dead shard trip only its own circuit.

* :class:`FailoverRouter` — one primary plus replicas behind the raw-backend
  contract.  Every target sits behind its own breaker; submissions always
  try the primary first, fall over to replicas when its circuit is open (or
  a call faults), and steer back the moment a half-open probe succeeds.
  :meth:`FailoverRouter.check_health` drives the same breakers from
  ``GET /api/health`` probes (:meth:`repro.backends.remote.RemoteBackend.health`),
  so an idle router converges on the truth without burning real queries.

The chaos side lives here too: :class:`FaultSchedule` scripts a
*deterministic* per-attempt fault sequence — transient faults, rate limits,
connection drops, latency spikes — that
:class:`~repro.backends.layers.UnreliableLayer` replays instead of drawing
probabilistically, so breaker/deadline/failover behaviour is testable
byte-for-byte without a socket.  :func:`backoff_delay` is the one shared
backoff policy (capped exponential with full jitter), used by the retry
layer and the remote transport alike.
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import threading
import time
from contextlib import contextmanager
from random import Random
from typing import Callable, Iterator, Sequence

from repro.backends.base import BackendLayer, RawBackend, forward_outcomes, raise_first_failure
from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    ConnectionDroppedError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
    TransientBackendError,
)

# -- deadlines --------------------------------------------------------------------

#: Wire header carrying a submission's remaining time budget, in integer
#: milliseconds.  The server treats a non-positive value as already expired
#: and sheds the request with 503 before touching the backend.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


class Deadline:
    """A monotonic-clock time budget for one submission.

    Built from a relative budget (:meth:`after`), never from wall-clock
    time, so clock adjustments cannot extend or shrink it.  A deadline is
    immutable and cheap; it answers three questions — how much budget
    remains, whether it has expired, and how long a proposed sleep may
    legally be (:meth:`clip`).
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        #: Absolute :func:`time.monotonic` timestamp the budget runs out at.
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now on the monotonic clock."""
        if seconds < 0:
            raise ConfigurationError("a deadline budget must be non-negative")
        return cls(time.monotonic() + seconds)

    @classmethod
    def from_remaining_ms(cls, milliseconds: int) -> "Deadline":
        """Rebuild a deadline from a wire header's remaining-budget value."""
        return cls(time.monotonic() + max(0, milliseconds) / 1000.0)

    def remaining(self) -> float:
        """Seconds of budget left; negative once expired."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return self.remaining() <= 0.0

    def remaining_ms(self) -> int:
        """The remaining budget as the integer milliseconds the wire carries.

        Floors to 0 — by the time a sub-millisecond budget crosses a socket
        it is spent, and the server's shed check treats 0 as expired.
        """
        return max(0, int(self.remaining() * 1000.0))

    def clip(self, delay: float) -> float:
        """The longest slice of ``delay`` that fits in the remaining budget."""
        return max(0.0, min(delay, self.remaining()))

    def check(self, operation: str = "submission") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(operation, remaining_ms=self.remaining_ms())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


#: The ambient per-submission deadline.  A context variable rather than a
#: parameter so the budget crosses every layer of an arbitrarily composed
#: stack — and the sampler loops above it — without widening the submit
#: contract; :class:`~repro.backends.dispatch.DispatchLayer` re-applies it
#: inside its worker threads.
_CURRENT_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline governing the current submission, if any."""
    return _CURRENT_DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make ``deadline`` the ambient deadline for the enclosed submissions.

    ``None`` explicitly clears any inherited deadline (how a server handler
    isolates backend work from an unrelated caller scope).  Scopes nest; the
    previous deadline is restored on exit.
    """
    token = _CURRENT_DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT_DEADLINE.reset(token)


def scoped_to_current_deadline(fn: Callable[..., object]) -> Callable[..., object]:
    """``fn`` wrapped to run under the *caller's* ambient deadline.

    Context variables do not follow work into ``ThreadPoolExecutor`` workers,
    so a dispatch layer fanning a deadline-scoped batch over its pool would
    silently strip the budget from every sub-call.  Capture the scope where
    the work is *submitted* and re-install it where the work *runs*; when no
    deadline is ambient, ``fn`` is returned unwrapped (zero overhead on the
    common path).
    """
    deadline = _CURRENT_DEADLINE.get()
    if deadline is None:
        return fn

    def scoped(*args: object, **kwargs: object) -> object:
        with deadline_scope(deadline):
            return fn(*args, **kwargs)

    return scoped


# -- backoff ----------------------------------------------------------------------


def backoff_delay(
    base: float,
    attempt: int,
    max_backoff: float | None = None,
    rng: Random | None = None,
) -> float:
    """The one retry-backoff policy: capped exponential with full jitter.

    ``base * 2**attempt`` (``attempt`` counted from 0), ceilinged at
    ``max_backoff`` when given, then — when ``rng`` is given — drawn
    uniformly from ``[0, ceilinged]`` ("full jitter"): a thundering herd of
    clients that all failed at the same instant desynchronises instead of
    re-arriving in lockstep.  Pass an explicitly seeded generator (resolved
    through :func:`repro._rng.resolve_rng`) to keep runs reproducible.
    """
    if base <= 0.0:
        return 0.0
    delay = base * (2.0**attempt)
    if max_backoff is not None:
        delay = min(delay, max_backoff)
    if rng is not None:
        delay = rng.uniform(0.0, delay)
    return delay


# -- scripted faults --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Fault:
    """One scripted attempt outcome for the chaos layer.

    ``kind`` is one of ``"ok"`` (forward normally), ``"transient"``,
    ``"rate_limit"``, ``"drop"`` (the injected fault families), and
    ``latency`` adds a simulated delay *before* the attempt either way — a
    ``Fault("ok", latency=0.05)`` is a pure latency spike.  ``retry_after``
    rides on rate-limit faults as the server hint the retry layer prefers.
    """

    kind: str = "ok"
    latency: float = 0.0
    retry_after: float | None = None

    _KINDS = ("ok", "transient", "rate_limit", "drop")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (one of {', '.join(self._KINDS)})"
            )
        if self.latency < 0:
            raise ConfigurationError("fault latency must be non-negative")

    def error(self) -> Exception | None:
        """The typed exception this fault injects, ``None`` for ``"ok"``."""
        if self.kind == "transient":
            return TransientBackendError("injected transient failure (scripted)")
        if self.kind == "rate_limit":
            return RateLimitedError(retry_after=self.retry_after)
        if self.kind == "drop":
            return ConnectionDroppedError("injected connection drop (scripted)")
        return None


#: Shorthand accepted wherever a :class:`Fault` is expected: the bare kind
#: (``"transient"``), a latency spike (``"slow:0.05"``), or a rate limit with
#: a server hint (``"rate_limit:0.2"``).
FaultSpec = Fault | str


def _parse_fault(spec: "Fault | str") -> Fault:
    if isinstance(spec, Fault):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"fault spec must be a Fault or string shorthand, got {type(spec).__name__}: {spec!r}"
        )
    token = spec.strip()
    if ":" in token:
        head, _, argument = token.partition(":")
        try:
            value = float(argument)
        except ValueError:
            raise ConfigurationError(f"malformed fault spec {spec!r}") from None
        if head == "slow":
            return Fault("ok", latency=value)
        if head == "rate_limit":
            return Fault("rate_limit", retry_after=value)
        raise ConfigurationError(f"fault kind {head!r} takes no argument (spec {spec!r})")
    return Fault(token)


class FaultSchedule:
    """A deterministic, scripted sequence of per-attempt faults.

    Where :class:`~repro.backends.layers.UnreliableLayer`'s probabilistic
    parameters answer "how does the stack weather weather?", a schedule
    answers "what exactly happens on attempt N": entry *i* scripts the
    *i*-th forwarded attempt, verbatim, so a test can spell out "three
    transient faults, then a drop, then recovery" and assert every breaker
    transition it causes.  After the script runs out the schedule keeps
    answering ``ok`` (or loops from the start with ``repeat=True``).

    Entries are :class:`Fault` objects or string shorthands:
    ``FaultSchedule(["transient", "transient", "slow:0.05", "ok"])``.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the cursor only
    #: advances while ``_lock`` is held (``*_locked`` callers hold it).
    _guarded_by = {"_position": "_lock"}

    def __init__(self, entries: Sequence["Fault | str"], repeat: bool = False) -> None:
        self._entries = tuple(_parse_fault(entry) for entry in entries)
        self.repeat = repeat
        if repeat and not self._entries:
            raise ConfigurationError("a repeating fault schedule needs at least one entry")
        self._position = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def next_fault(self) -> Fault:
        """Consume and return the next scripted fault (thread-safe)."""
        with self._lock:
            return self.next_fault_locked()

    def next_fault_locked(self) -> Fault:
        """The cursor advance itself; the caller already holds ``_lock``.

        (``_locked`` suffix per the reprolint R1 convention — callers that
        serialise the schedule through some enclosing discipline use this
        form; everyone else goes through :meth:`next_fault`.)
        """
        if self._position >= len(self._entries):
            if not self.repeat:
                return Fault("ok")
            self._position = 0
        fault = self._entries[self._position]
        self._position += 1
        return fault

    def remaining(self) -> int:
        """Scripted entries not yet consumed (0 once the script ran out)."""
        with self._lock:
            return max(0, len(self._entries) - self._position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self._entries)} entries, repeat={self.repeat})"


# -- circuit breaker --------------------------------------------------------------


class BreakerState(enum.Enum):
    """The classic three-state circuit-breaker machine."""

    CLOSED = "closed"  #: calls flow; failures accumulate in the window
    OPEN = "open"  #: calls fail fast; nothing reaches the backend
    HALF_OPEN = "half_open"  #: a limited probe is testing recovery


@dataclasses.dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Tuning knobs of one breaker (immutable, shareable across instances)."""

    #: Rolling window size: the number of most-recent call outcomes examined.
    window: int = 10
    #: Failures within the window that trip the breaker OPEN.
    failure_threshold: int = 5
    #: Seconds the breaker stays OPEN before allowing a half-open probe.
    reset_timeout: float = 1.0
    #: Consecutive probe successes required to re-close from HALF_OPEN.
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("breaker window must be at least 1")
        if not 1 <= self.failure_threshold <= self.window:
            raise ConfigurationError(
                "failure_threshold must be in [1, window] — a threshold the window "
                "cannot hold never trips"
            )
        if self.reset_timeout < 0:
            raise ConfigurationError("reset_timeout must be non-negative")
        if self.half_open_successes < 1:
            raise ConfigurationError("half_open_successes must be at least 1")


@dataclasses.dataclass
class CircuitBreakerStatistics:
    """What the breaker has seen and done (all counters monotonic)."""

    successes: int = 0  #: recorded successful calls
    failures: int = 0  #: recorded transient-fault calls
    fast_failures: int = 0  #: calls shed with :class:`CircuitOpenError`
    opens: int = 0  #: CLOSED/HALF_OPEN → OPEN transitions
    recloses: int = 0  #: HALF_OPEN → CLOSED transitions
    probes: int = 0  #: half-open probe calls allowed through

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by reports and dashboards."""
        return dataclasses.asdict(self)


class CircuitBreaker:
    """The reusable CLOSED/OPEN/HALF_OPEN state machine over a rolling window.

    Usage is a three-call protocol: :meth:`before_call` (raises
    :class:`CircuitOpenError` when the circuit is open, admits a probe when
    the reset timeout elapsed), then exactly one of :meth:`record_success` /
    :meth:`record_failure` for the call's outcome.  All transitions happen
    under one lock; ``clock`` is injectable so tests drive the timeout
    without sleeping.
    """

    #: Machine-checked by reprolint R1 (guarded-state): every piece of
    #: breaker state moves only under ``_lock`` (``*_locked`` helpers rely
    #: on their caller holding it).
    _guarded_by = {
        "state": "_lock",
        "_window": "_lock",
        "_opened_at": "_lock",
        "_probe_successes": "_lock",
        "_probe_in_flight": "_lock",
        "statistics": "_lock",
    }

    def __init__(
        self,
        policy: CircuitBreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else CircuitBreakerPolicy()
        self._clock = clock
        self.state = BreakerState.CLOSED
        #: Most-recent call outcomes, True = failure; bounded to the window.
        self._window: list[bool] = []
        self._opened_at = 0.0
        self._probe_successes = 0
        self._probe_in_flight = False
        self.statistics = CircuitBreakerStatistics()
        self._lock = threading.Lock()

    # -- the call protocol ---------------------------------------------------

    def before_call(self) -> None:
        """Gate one call: fail fast when OPEN, admit a probe when due.

        Raises :class:`CircuitOpenError` (carrying ``retry_after``) without
        touching any backend when the circuit is open and the reset timeout
        has not elapsed, or when a half-open probe is already in flight —
        one probe at a time is the whole point of HALF_OPEN.
        """
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return
            if self.state is BreakerState.OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.policy.reset_timeout:
                    self.statistics.fast_failures += 1
                    raise CircuitOpenError(
                        retry_after=self.policy.reset_timeout - elapsed
                    )
                # Timeout elapsed: this call becomes the half-open probe.
                self.state = BreakerState.HALF_OPEN
                self._probe_successes = 0
                self._probe_in_flight = True
                self.statistics.probes += 1
                return
            # HALF_OPEN: admit one probe at a time.
            if self._probe_in_flight:
                self.statistics.fast_failures += 1
                raise CircuitOpenError(
                    retry_after=self.policy.reset_timeout,
                    message="circuit breaker is half-open with a probe in flight",
                )
            self._probe_in_flight = True
            self.statistics.probes += 1

    def record_success(self) -> None:
        """Record one successful call (closes a satisfied half-open circuit)."""
        with self._lock:
            self.statistics.successes += 1
            if self.state is BreakerState.CLOSED:
                self._observe_locked(failed=False)
            elif self.state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.policy.half_open_successes:
                    self.state = BreakerState.CLOSED
                    self._window.clear()
                    self.statistics.recloses += 1
            # OPEN: a straggler from before the trip; the window was cleared.

    def record_failure(self) -> None:
        """Record one transient-fault call (may trip or re-open the circuit)."""
        with self._lock:
            self.statistics.failures += 1
            if self.state is BreakerState.CLOSED:
                self._observe_locked(failed=True)
                failures = sum(1 for failed in self._window if failed)
                if failures >= self.policy.failure_threshold:
                    self._trip_locked()
            elif self.state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._trip_locked()
            # OPEN: a straggler; the circuit is already open.

    # -- observation ---------------------------------------------------------

    def would_allow(self) -> bool:
        """Whether a call placed right now would be admitted (side-effect-free).

        The service's scheduler uses this to decide when a DEGRADED job is
        worth un-parking: an OPEN breaker whose reset timeout elapsed — or a
        HALF_OPEN breaker with no probe in flight — admits a probe.
        """
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.OPEN:
                return self._clock() - self._opened_at >= self.policy.reset_timeout
            return not self._probe_in_flight

    def retry_after(self) -> float:
        """Seconds until the breaker would admit a call (0 when it would now)."""
        with self._lock:
            if self.state is BreakerState.OPEN:
                elapsed = self._clock() - self._opened_at
                return max(0.0, self.policy.reset_timeout - elapsed)
            if self.state is BreakerState.HALF_OPEN and self._probe_in_flight:
                return self.policy.reset_timeout
            return 0.0

    def snapshot(self) -> dict[str, object]:
        """A locked point-in-time view: state plus the counters."""
        with self._lock:
            return {
                "state": self.state.value,
                "window_failures": sum(1 for failed in self._window if failed),
                "window_size": len(self._window),
                **self.statistics.as_dict(),
            }

    # -- internals (callers hold ``_lock``) ----------------------------------

    def _observe_locked(self, failed: bool) -> None:
        self._window.append(failed)
        if len(self._window) > self.policy.window:
            del self._window[0]

    def _trip_locked(self) -> None:
        self.state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._window.clear()
        self._probe_successes = 0
        self._probe_in_flight = False
        self.statistics.opens += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(state={self.state.value})"


class CircuitBreakerLayer(BackendLayer):
    """Fail fast instead of hammering a dead backend.

    Wraps any backend with a :class:`CircuitBreaker`: transient faults from
    beneath (injected or real — 429s, 5xxs, dropped connections) count
    against the rolling failure window; once it trips, every call raises
    :class:`~repro.exceptions.CircuitOpenError` in microseconds *without
    touching the inner backend* until a timed half-open probe proves
    recovery.  Permanent faults (exhausted budget, auth, parse errors) count
    as *successes* for breaker purposes — the backend answered; it is the
    request that was wrong.

    In the canonical stack order the breaker sits directly above the raw
    backend, **below** the retry layer: each retry attempt is a real call
    the window should see, and once the circuit opens the retry layer passes
    the fast-fail straight through (retrying an open circuit is the
    hammering the breaker exists to stop).  A batched round-trip is gated
    once but recorded per item, so a batch of 32 timeouts trips the window
    just as 32 serial timeouts would.
    """

    def __init__(
        self,
        inner: RawBackend,
        policy: CircuitBreakerPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        super().__init__(inner)
        if breaker is not None and policy is not None:
            raise ConfigurationError("pass either a policy or a ready breaker, not both")
        self.breaker = breaker if breaker is not None else CircuitBreaker(policy)

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        return raise_first_failure(self.submit_outcomes([query]))[0]

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Gate the batch once, record every per-item outcome in the window.

        A transient fault records a failure; an answer or a permanent, typed
        refusal records a success — the backend answered, it is the request
        that was wrong.  An open circuit raises before the inner backend is
        touched.
        """
        self.breaker.before_call()
        outcomes = forward_outcomes(self.inner, queries)
        for outcome in outcomes:
            if isinstance(outcome, TransientBackendError):
                self.breaker.record_failure()
            elif isinstance(outcome, ReproError) or not isinstance(outcome, Exception):
                self.breaker.record_success()
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreakerLayer(state={self.breaker.state.value}, inner={self.inner!r})"


# -- failover ---------------------------------------------------------------------


@dataclasses.dataclass
class FailoverStatistics:
    """How traffic moved across the router's targets."""

    submissions: int = 0  #: submissions answered by any target
    failovers: int = 0  #: submissions answered by a non-primary target
    exhausted: int = 0  #: submissions no target could answer

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by reports and dashboards."""
        return dataclasses.asdict(self)


class _FailoverTarget:
    """One routed backend plus its breaker and served-count."""

    __slots__ = ("name", "backend", "breaker", "served")

    def __init__(self, name: str, backend: RawBackend, policy: CircuitBreakerPolicy) -> None:
        self.name = name
        self.backend = backend
        self.breaker = CircuitBreaker(policy)
        self.served = 0


class FailoverRouter:
    """A primary backend with replicas behind one raw-backend facade.

    Targets are tried in declared order — the primary always first, so the
    moment its breaker admits a half-open probe, traffic steers back to it.
    A target whose circuit is open is skipped in microseconds; a target
    whose call raises a transient fault records the failure (feeding its
    breaker) and the next replica is tried.  Permanent faults (budget,
    auth, parse, deadline) are *not* failed over: every replica would refuse
    the same request for the same reason, so they propagate immediately.

    All targets must serve the same schema and top-``k`` — replicas are
    replicas, not shards.  :meth:`check_health` probes each target's
    ``health()`` (the remote adapter's ``GET /api/health``) through the same
    breakers, so an idle deployment converges without burning real queries.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the routing counters
    #: only move while ``_lock`` is held (per-target ``served`` counts are
    #: updated under the same lock).
    _guarded_by = {"statistics": "_lock"}

    def __init__(
        self,
        primary: RawBackend,
        replicas: Sequence[RawBackend] = (),
        policy: CircuitBreakerPolicy | None = None,
    ) -> None:
        policy = policy if policy is not None else CircuitBreakerPolicy()
        self._targets = [_FailoverTarget("primary", primary, policy)]
        for index, replica in enumerate(replicas, start=1):
            self._targets.append(_FailoverTarget(f"replica-{index}", replica, policy))
        ks = {target.backend.k for target in self._targets}
        if len(ks) != 1:
            raise ConfigurationError(
                f"failover targets must share one top-k limit, got {sorted(ks)}"
            )
        names = {target.backend.schema.attribute_names for target in self._targets}
        if len(names) != 1:
            raise ConfigurationError("failover targets must serve the same schema")
        self.statistics = FailoverStatistics()
        self._lock = threading.Lock()

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema every target serves."""
        return self._targets[0].backend.schema

    @property
    def k(self) -> int:
        """The shared top-``k`` display limit."""
        return self._targets[0].backend.k

    @property
    def targets(self) -> tuple[RawBackend, ...]:
        """The routed backends, primary first."""
        return tuple(target.backend for target in self._targets)

    def breaker(self, name: str = "primary") -> CircuitBreaker:
        """The named target's breaker (``"primary"``, ``"replica-1"``, ...)."""
        for target in self._targets:
            if target.name == name:
                return target.breaker
        raise ConfigurationError(
            f"unknown failover target {name!r} "
            f"(targets: {', '.join(t.name for t in self._targets)})"
        )

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer through the first healthy target, primary first."""
        return raise_first_failure(self.submit_outcomes([query]))[0]

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Per-item outcomes, each item from the first target that answers it.

        Each target is gated once for the items still pending.  An item
        whose outcome is transient (including an open circuit inside the
        target) records a failure and moves on to the next replica; an
        answered item or a permanent refusal records a success and stays —
        a replica is never re-asked what a target already answered.  An
        item no target could answer reports the last target's fault.
        """
        results: list[InterfaceResponse | Exception | None] = [None] * len(queries)
        pending = list(range(len(queries)))
        for position, target in enumerate(self._targets):
            if not pending:
                break
            try:
                target.breaker.before_call()
            except CircuitOpenError as error:
                for index in pending:
                    results[index] = error
                continue
            outcomes = forward_outcomes(target.backend, [queries[index] for index in pending])
            failed: list[int] = []
            answered = 0
            for index, outcome in zip(pending, outcomes):
                results[index] = outcome
                if isinstance(outcome, TransientBackendError):
                    target.breaker.record_failure()
                    failed.append(index)
                elif not isinstance(outcome, Exception):
                    target.breaker.record_success()
                    answered += 1
                elif isinstance(outcome, ReproError):
                    target.breaker.record_success()
            if answered:
                with self._lock:
                    self.statistics.submissions += answered
                    if position > 0:
                        self.statistics.failovers += answered
                    target.served += answered
            pending = failed
        if pending:
            with self._lock:
                self.statistics.exhausted += len(pending)
        return results  # type: ignore[return-value] - every slot is filled

    # -- health --------------------------------------------------------------

    def check_health(self) -> dict[str, dict[str, object]]:
        """Probe every target's ``health()`` through its breaker.

        Each probe is one breaker-mediated call: a healthy answer records a
        success (walking an OPEN breaker through HALF_OPEN back to CLOSED
        across successive checks), a typed failure records a failure, a
        target with no ``health`` attribute reports ``"unknown"`` and its
        breaker is left untouched.  Returns a per-target report keyed by
        target name.
        """
        report: dict[str, dict[str, object]] = {}
        for target in self._targets:
            entry: dict[str, object] = {"served": target.served}
            probe = getattr(target.backend, "health", None)
            if not callable(probe):
                entry["healthy"] = None
            else:
                try:
                    target.breaker.before_call()
                except CircuitOpenError:
                    entry["healthy"] = False
                else:
                    try:
                        probe()
                    except ReproError:
                        target.breaker.record_failure()
                        entry["healthy"] = False
                    else:
                        target.breaker.record_success()
                        entry["healthy"] = True
            entry["breaker"] = target.breaker.snapshot()
            report[target.name] = entry
        return report

    def would_allow(self) -> bool:
        """Whether any target would admit a call right now (scheduler probe)."""
        return any(target.breaker.would_allow() for target in self._targets)

    def retry_after(self) -> float:
        """Seconds until some target would admit a call (0 when one would now)."""
        return min(target.breaker.retry_after() for target in self._targets)

    def snapshot(self) -> dict[str, object]:
        """Routing counters plus each target's breaker state, in one view."""
        with self._lock:
            counters = self.statistics.as_dict()
            served = {target.name: target.served for target in self._targets}
        return {
            **counters,
            "served": served,
            "targets": {
                target.name: target.breaker.snapshot() for target in self._targets
            },
        }

    def close(self) -> None:
        """Close every target that can be closed (pooled remote adapters)."""
        for target in self._targets:
            close = getattr(target.backend, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "FailoverRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ", ".join(
            f"{target.name}={target.breaker.state.value}" for target in self._targets
        )
        return f"FailoverRouter({states})"


# -- introspection helpers --------------------------------------------------------


def _resilience_gates(
    backend: object,
) -> Iterator[tuple[CircuitBreaker | FailoverRouter, int | None]]:
    """Every breaker and failover router a submission passes, with its shard.

    Walks the chain like :func:`repro.backends.base.iter_chain`, descending
    into each router's shards: per-shard breakers
    (``ShardRouter.over_table(shard_layer=...)``) hang off the shards, not
    the main chain.  Yields ``(gate, shard position)`` — ``None`` on the main
    chain.  :func:`resilience_report`, :func:`chain_would_allow` and
    :func:`chain_retry_after` all read this one walk, so they agree on which
    nodes gate a submission.
    """
    from repro.backends.base import iter_chain

    for node in iter_chain(backend):
        if isinstance(node, CircuitBreakerLayer):
            yield node.breaker, None
        elif isinstance(node, FailoverRouter):
            yield node, None
        shards = getattr(node, "shards", None)
        if isinstance(shards, tuple):
            for position, shard in enumerate(shards):
                for shard_node in iter_chain(shard):
                    if isinstance(shard_node, CircuitBreakerLayer):
                        yield shard_node.breaker, position


def resilience_report(backend: object) -> dict[str, object] | None:
    """Breaker and failover state found anywhere in an access path, or ``None``.

    Collects every breaker snapshot (per-shard ones tagged with ``shard``)
    plus the :class:`FailoverRouter` snapshot when one serves as the raw
    backend — the single probe :func:`repro.backends.stack.introspect` and
    the dashboard's backend line both render.
    """
    breakers: list[dict[str, object]] = []
    failover: dict[str, object] | None = None
    for gate, shard in _resilience_gates(backend):
        if isinstance(gate, FailoverRouter):
            failover = gate.snapshot()
            continue
        snapshot = gate.snapshot()
        if shard is not None:
            snapshot["shard"] = shard
        breakers.append(snapshot)
    if not breakers and failover is None:
        return None
    report: dict[str, object] = {}
    if breakers:
        report["breakers"] = breakers
    if failover is not None:
        report["failover"] = failover
    return report


def chain_would_allow(backend: object) -> bool:
    """Whether the access path would admit a submission right now.

    True when every breaker in the chain — per-shard ones included, since a
    merged response needs every shard — would let a call (or probe) through
    and, when a failover router serves the path, at least one of its
    targets would.  A chain with no resilience nodes always allows: there is
    nothing to wait out, so the caller should simply try.
    """
    return all(gate.would_allow() for gate, _ in _resilience_gates(backend))


def chain_retry_after(backend: object) -> float:
    """Seconds until the most-blocking resilience node would admit a call."""
    return max((gate.retry_after() for gate, _ in _resilience_gates(backend)), default=0.0)


__all__ = [
    "DEADLINE_HEADER",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerLayer",
    "CircuitBreakerPolicy",
    "CircuitBreakerStatistics",
    "Deadline",
    "FailoverRouter",
    "FailoverStatistics",
    "Fault",
    "FaultSchedule",
    "backoff_delay",
    "chain_retry_after",
    "chain_would_allow",
    "current_deadline",
    "deadline_scope",
    "resilience_report",
    "scoped_to_current_deadline",
]
