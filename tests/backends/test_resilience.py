"""The resilience primitives: deadlines, backoff, fault scripts, the breaker.

The breaker tests drive the state machine on an injected fake clock, so
OPEN → HALF_OPEN → CLOSED transitions are exercised without sleeping; the
fast-fail test is the one place a real clock appears, because "fails in
under a millisecond without touching the backend" is the contract being
proved.
"""

import threading
import time

import pytest

from repro.backends import (
    BackendStack,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    Deadline,
    Fault,
    FaultSchedule,
    UnreliableLayer,
    current_deadline,
    deadline_scope,
    engine_stack,
)
from repro.backends.resilience import (
    DEADLINE_HEADER,
    backoff_delay,
    chain_retry_after,
    chain_would_allow,
    resilience_report,
    scoped_to_current_deadline,
)
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    ConnectionDroppedError,
    DeadlineExceededError,
    QueryBudgetExceededError,
    RateLimitedError,
    TransientBackendError,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def raw_backend(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    ).top


@pytest.fixture()
def empty_query(tiny_schema):
    return ConjunctiveQuery.empty(tiny_schema)


class TestDeadline:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(-0.1)

    def test_remaining_counts_down_and_expires(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 60.0
        assert 0 < deadline.remaining_ms() <= 60_000
        expired = Deadline.after(0.0)
        assert expired.expired
        assert expired.remaining() <= 0.0
        assert expired.remaining_ms() == 0

    def test_clip_bounds_a_sleep_to_the_budget(self):
        deadline = Deadline.after(0.5)
        assert deadline.clip(10.0) <= 0.5
        assert deadline.clip(0.0) == 0.0

    def test_check_raises_typed_and_untransient(self):
        with pytest.raises(DeadlineExceededError) as info:
            Deadline.after(0.0).check("unit test")
        assert "unit test" in str(info.value)
        # A blown deadline must never be retried as if it were weather.
        assert not isinstance(info.value, TransientBackendError)

    def test_from_remaining_ms_round_trips(self):
        deadline = Deadline.from_remaining_ms(30_000)
        assert 29_000 < deadline.remaining_ms() <= 30_000

    def test_scope_installs_nests_and_clears(self):
        assert current_deadline() is None
        outer = Deadline.after(60.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # a handler isolating itself
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scoped_callable_carries_the_deadline_across_threads(self):
        seen: list[Deadline | None] = []

        def probe() -> None:
            seen.append(current_deadline())

        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            carried = scoped_to_current_deadline(probe)
        bare = scoped_to_current_deadline(probe)  # no ambient deadline: unwrapped
        assert bare is probe
        worker = threading.Thread(target=carried)
        worker.start()
        worker.join()
        assert seen == [deadline]


class TestBackoffDelay:
    def test_exponential_and_capped(self):
        assert backoff_delay(0.1, 0) == pytest.approx(0.1)
        assert backoff_delay(0.1, 3) == pytest.approx(0.8)
        assert backoff_delay(0.1, 10, max_backoff=1.0) == pytest.approx(1.0)
        assert backoff_delay(0.0, 5) == 0.0

    def test_full_jitter_is_bounded_and_deterministic(self):
        import random

        draws = [backoff_delay(0.1, 4, max_backoff=1.0, rng=random.Random(7)) for _ in range(20)]
        assert all(0.0 <= delay <= 1.0 for delay in draws)
        assert draws == [
            backoff_delay(0.1, 4, max_backoff=1.0, rng=random.Random(7)) for _ in range(20)
        ]


class TestFaultSchedule:
    def test_string_specs_parse_and_replay_in_order(self):
        schedule = FaultSchedule(["transient", "slow:0.25", "rate_limit:2.5", "drop", "ok"])
        kinds = [schedule.next_fault() for _ in range(5)]
        assert [fault.kind for fault in kinds] == ["transient", "ok", "rate_limit", "drop", "ok"]
        assert kinds[1].latency == pytest.approx(0.25)
        assert kinds[2].retry_after == pytest.approx(2.5)
        # Exhausted schedules fall back to clean weather.
        assert schedule.next_fault().kind == "ok"
        assert schedule.remaining() == 0

    def test_repeating_schedule_loops(self):
        schedule = FaultSchedule(["transient", "ok"], repeat=True)
        kinds = [schedule.next_fault().kind for _ in range(5)]
        assert kinds == ["transient", "ok", "transient", "ok", "transient"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(["catastrophic"])
        with pytest.raises(ConfigurationError):
            Fault("nope")

    def test_entries_validated_at_construction(self):
        # A typo'd kind, a malformed argument, an argument on an argless
        # kind, and a non-string entry all fail *immediately* — never five
        # minutes into a chaos run.
        for bad in (["slowx:5"], ["slow:abc"], ["transient:2"], [5], [None], [["ok"]]):
            with pytest.raises(ConfigurationError):
                FaultSchedule(bad)

    def test_faults_build_their_typed_errors(self):
        assert Fault("ok").error() is None
        assert isinstance(Fault("transient").error(), TransientBackendError)
        assert isinstance(Fault("drop").error(), ConnectionDroppedError)
        rate_limited = Fault("rate_limit", retry_after=1.5).error()
        assert isinstance(rate_limited, RateLimitedError)
        assert rate_limited.retry_after == pytest.approx(1.5)


class TestCircuitBreaker:
    def _tripped(self, clock, **policy):
        policy = CircuitBreakerPolicy(**{"window": 4, "failure_threshold": 3, **policy})
        breaker = CircuitBreaker(policy, clock=clock)
        for _ in range(policy.failure_threshold):
            breaker.before_call()
            breaker.record_failure()
        return breaker

    def test_opens_after_window_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            CircuitBreakerPolicy(window=4, failure_threshold=3), clock=clock
        )
        # Two failures among successes: under threshold, still closed.
        for failed in (True, False, True):
            breaker.before_call()
            breaker.record_failure() if failed else breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        breaker.before_call()
        breaker.record_failure()  # third failure inside the 4-wide window
        assert breaker.state is BreakerState.OPEN
        assert breaker.statistics.opens == 1
        # Old outcomes age out: a fresh breaker absorbing the same two
        # failures spread over a long success run never trips.
        spread = CircuitBreaker(
            CircuitBreakerPolicy(window=4, failure_threshold=3), clock=clock
        )
        for failed in (True, False, False, False, True, False, False, False, True):
            spread.before_call()
            spread.record_failure() if failed else spread.record_success()
        assert spread.state is BreakerState.CLOSED

    def test_open_circuit_fails_fast_with_retry_hint(self):
        clock = FakeClock()
        breaker = self._tripped(clock, reset_timeout=2.0)
        with pytest.raises(CircuitOpenError) as info:
            breaker.before_call()
        assert info.value.retry_after == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_after() == pytest.approx(0.5)
        assert not breaker.would_allow()

    def test_half_open_probe_admits_exactly_one_call(self):
        clock = FakeClock()
        breaker = self._tripped(clock, reset_timeout=1.0)
        clock.advance(1.0)
        assert breaker.would_allow()
        breaker.before_call()  # this call becomes the probe
        assert breaker.state is BreakerState.HALF_OPEN
        with pytest.raises(CircuitOpenError, match="probe in flight"):
            breaker.before_call()
        assert breaker.statistics.probes == 1

    def test_probe_success_recloses_and_clears_the_window(self):
        clock = FakeClock()
        breaker = self._tripped(clock, reset_timeout=1.0)
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.statistics.recloses == 1
        snapshot = breaker.snapshot()
        assert snapshot["window_failures"] == 0 and snapshot["state"] == "closed"

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._tripped(clock, reset_timeout=1.0)
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.statistics.opens == 2

    def test_multi_probe_policy_needs_every_success(self):
        clock = FakeClock()
        breaker = self._tripped(clock, reset_timeout=1.0, half_open_successes=2)
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN  # one of two
        breaker.before_call()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreakerPolicy(window=0)
        with pytest.raises(ConfigurationError):
            CircuitBreakerPolicy(window=4, failure_threshold=5)
        with pytest.raises(ConfigurationError):
            CircuitBreakerPolicy(reset_timeout=-1.0)


class CountingBackend:
    """Raw-contract shim that counts calls and fails on command."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.failing = False

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.calls += 1
        if self.failing:
            raise TransientBackendError("backend down")
        return self.inner.submit(query)


class TestCircuitBreakerLayer:
    def _guarded(self, raw_backend, **policy):
        counting = CountingBackend(raw_backend)
        layer = CircuitBreakerLayer(
            counting,
            policy=CircuitBreakerPolicy(**{"window": 4, "failure_threshold": 3, **policy}),
        )
        return counting, layer

    def test_trips_then_fast_fails_without_touching_the_backend(
        self, raw_backend, empty_query
    ):
        counting, layer = self._guarded(raw_backend, reset_timeout=60.0)
        counting.failing = True
        for _ in range(3):
            with pytest.raises(TransientBackendError):
                layer.submit(empty_query)
        assert counting.calls == 3
        assert layer.breaker.state is BreakerState.OPEN
        # The acceptance criterion: open-circuit calls fail in under a
        # millisecond each and never reach the inner backend.
        started = time.perf_counter()
        for _ in range(50):
            with pytest.raises(CircuitOpenError):
                layer.submit(empty_query)
        elapsed = time.perf_counter() - started
        assert counting.calls == 3
        assert elapsed / 50 < 0.001
        assert layer.breaker.statistics.fast_failures == 50

    def test_half_open_probe_recloses_through_the_layer(self, raw_backend, empty_query):
        clock = FakeClock()
        counting = CountingBackend(raw_backend)
        layer = CircuitBreakerLayer(
            counting,
            breaker=CircuitBreaker(
                CircuitBreakerPolicy(window=4, failure_threshold=2, reset_timeout=1.0),
                clock=clock,
            ),
        )
        counting.failing = True
        for _ in range(2):
            with pytest.raises(TransientBackendError):
                layer.submit(empty_query)
        assert layer.breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        counting.failing = False
        response = layer.submit(empty_query)  # the half-open probe, for real
        assert response == raw_backend.submit(empty_query)
        assert layer.breaker.state is BreakerState.CLOSED

    def test_permanent_refusals_count_as_successes(self, raw_backend, empty_query):
        class Refusing(CountingBackend):
            def submit(self, query):
                self.calls += 1
                raise QueryBudgetExceededError(issued=5, budget=5)

        layer = CircuitBreakerLayer(
            Refusing(raw_backend),
            policy=CircuitBreakerPolicy(window=4, failure_threshold=2),
        )
        for _ in range(6):
            with pytest.raises(QueryBudgetExceededError):
                layer.submit(empty_query)
        assert layer.breaker.state is BreakerState.CLOSED
        assert layer.breaker.statistics.successes == 6

    def test_batch_outcomes_are_recorded_per_item(self, raw_backend, empty_query):
        faulty = UnreliableLayer(
            raw_backend, max_retries=0, schedule=["transient", "ok", "transient"]
        )
        layer = CircuitBreakerLayer(
            faulty, policy=CircuitBreakerPolicy(window=4, failure_threshold=2)
        )
        outcomes = layer.submit_outcomes([empty_query] * 3)
        assert isinstance(outcomes[0], TransientBackendError)
        assert not isinstance(outcomes[1], Exception)
        assert isinstance(outcomes[2], TransientBackendError)
        # Two per-item failures inside one gated batch tripped the window.
        assert layer.breaker.state is BreakerState.OPEN

    def test_policy_and_breaker_are_mutually_exclusive(self, raw_backend):
        with pytest.raises(ConfigurationError):
            CircuitBreakerLayer(
                raw_backend, policy=CircuitBreakerPolicy(), breaker=CircuitBreaker()
            )


class TestRetryLayerIntegration:
    def test_retry_layer_never_retries_an_open_circuit(self, raw_backend, empty_query):
        counting = CountingBackend(raw_backend)
        guarded = CircuitBreakerLayer(
            counting,
            policy=CircuitBreakerPolicy(window=4, failure_threshold=2, reset_timeout=60.0),
        )
        retrying = UnreliableLayer(guarded, max_retries=5, retry_backoff=0.0)
        counting.failing = True
        with pytest.raises(CircuitOpenError):
            retrying.submit(empty_query)
        # 2 real attempts tripped the breaker; the fast-fail surfaced
        # immediately instead of burning the remaining retry budget.  The
        # pass-through is not a "gave up after retrying" — the breaker
        # refused, the retry layer stepped aside.
        assert counting.calls == 2
        assert retrying.statistics.retries == 2
        assert retrying.statistics.gave_up == 0

    def test_scripted_chaos_is_retried_deterministically(self, raw_backend, empty_query):
        layer = UnreliableLayer(
            raw_backend,
            max_retries=3,
            retry_backoff=0.0,
            schedule=["transient", "drop", "rate_limit:0", "ok"],
        )
        response = layer.submit(empty_query)
        assert response == raw_backend.submit(empty_query)
        statistics = layer.statistics
        assert statistics.retries == 3
        assert statistics.transient_failures == 1
        assert statistics.injected_drops == 1
        assert statistics.rate_limited == 1

    def test_server_retry_after_hint_wins_over_computed_backoff(
        self, raw_backend, empty_query, monkeypatch
    ):
        layer = UnreliableLayer(
            raw_backend,
            max_retries=2,
            retry_backoff=30.0,  # computed backoff would sleep half a minute
            schedule=["rate_limit:0.01", "ok"],
        )
        slept: list[float] = []
        monkeypatch.setattr(
            "repro.backends.layers.time.sleep", lambda seconds: slept.append(seconds)
        )
        layer.submit(empty_query)
        assert slept == [pytest.approx(0.01)]

    def test_deadline_clips_retry_sleeps_end_to_end(self, raw_backend, empty_query):
        layer = UnreliableLayer(
            raw_backend,
            max_retries=8,
            retry_backoff=30.0,
            schedule=["transient"] * 9,
        )
        started = time.monotonic()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceededError):
                layer.submit(empty_query)
        assert time.monotonic() - started < 1.0  # never slept the 30 s backoff
        assert layer.statistics.deadline_exceeded == 1

    def test_expired_deadline_sheds_before_the_first_attempt(
        self, raw_backend, empty_query
    ):
        counting = CountingBackend(raw_backend)
        layer = UnreliableLayer(counting, max_retries=0)
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceededError):
                layer.submit(empty_query)
        assert counting.calls == 0
        assert layer.statistics.deadline_exceeded == 1


class TestChainHelpers:
    def test_report_and_gates_over_a_composed_stack(self, tiny_table, empty_query):
        stack = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
        )
        # Innermost first: the scripted fault source proxies the backend and
        # the breaker above it observes its weather.
        guarded = BackendStack(
            stack.top,
            [
                lambda inner: UnreliableLayer(inner, max_retries=0, schedule=["transient"]),
                lambda inner: CircuitBreakerLayer(
                    inner,
                    policy=CircuitBreakerPolicy(
                        window=4, failure_threshold=1, reset_timeout=60.0
                    ),
                ),
            ],
        )
        assert resilience_report(guarded)["breakers"][0]["state"] == "closed"
        assert chain_would_allow(guarded)
        assert chain_retry_after(guarded) == 0.0
        with pytest.raises(TransientBackendError):
            guarded.submit(empty_query)
        assert not chain_would_allow(guarded)
        assert chain_retry_after(guarded) > 0.0
        assert resilience_report(guarded)["breakers"][0]["state"] == "open"

    def test_report_is_none_without_resilience_nodes(self, tiny_table):
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        assert resilience_report(stack) is None
        assert chain_would_allow(stack)

    def test_per_shard_breakers_surface_through_the_router(self, tiny_table, empty_query):
        from repro.backends import ShardRouter

        router = ShardRouter.over_table(
            tiny_table, 2, 2, shard_layer=lambda shard: CircuitBreakerLayer(shard)
        )
        unsharded = ShardRouter.over_table(tiny_table, 1, 2)
        # Wrapped shards still merge byte-identically...
        assert router.submit(empty_query) == unsharded.submit(empty_query)
        # ...and each partition's own breaker shows up, tagged by shard.
        report = resilience_report(router)
        assert [snapshot["shard"] for snapshot in report["breakers"]] == [0, 1]
        assert all(snapshot["state"] == "closed" for snapshot in report["breakers"])
        assert chain_would_allow(router)

    def test_an_open_shard_breaker_reports_its_wait_on_the_served_health_probe(
        self, tiny_table
    ):
        import json
        import urllib.error
        import urllib.request

        from repro.backends import ShardRouter
        from repro.web.httpd import HiddenDatabaseHTTPServer

        clock = FakeClock()
        policy = CircuitBreakerPolicy(window=4, failure_threshold=1, reset_timeout=30.0)
        breakers = iter([CircuitBreaker(policy, clock=clock) for _ in range(2)])
        router = ShardRouter.over_table(
            tiny_table, 2, 2,
            shard_layer=lambda shard: CircuitBreakerLayer(shard, breaker=next(breakers)),
        )
        router.shards[1].breaker.record_failure()
        clock.advance(10.0)
        # The gate and its wait come from the same walk: a blocking shard
        # breaker is never reported as "retry now".
        assert not chain_would_allow(router)
        assert chain_retry_after(router) == pytest.approx(20.0)
        with HiddenDatabaseHTTPServer(router) as server:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(server.url + "/api/health", timeout=5)
        assert caught.value.code == 503
        assert caught.value.headers["Retry-After"] == "20"
        payload = json.loads(caught.value.read().decode("utf-8"))
        assert payload["status"] == "degraded"
        assert payload["retry_after"] == pytest.approx(20.0)


# -- one walk, three readers ------------------------------------------------------
#
# Each shape below builds an access path with its resilience nodes in a known
# state.  ``chain_would_allow``, ``chain_retry_after`` and
# ``resilience_report`` must agree on it: the path admits a call exactly when
# the wait is zero, and the report lists every gate the walk found.

RESET = 30.0


def _tripped(clock):
    """A breaker on ``clock`` that trips on its first failure."""
    return CircuitBreaker(
        CircuitBreakerPolicy(window=4, failure_threshold=1, reset_timeout=RESET), clock=clock
    )


def _guarded(table, clock):
    """An engine stack under one main-chain breaker; returns (stack, breaker)."""
    breaker = _tripped(clock)
    stack = BackendStack(
        engine_stack(table, k=2, ranking=StaticScoreRanking(), statistics=False).top,
        [lambda inner: CircuitBreakerLayer(inner, breaker=breaker)],
    )
    return stack, breaker


def _sharded(table, clock):
    """A two-shard router with a breaker per shard; returns (router, breakers)."""
    from repro.backends import ShardRouter

    breakers = [_tripped(clock) for _ in range(2)]
    pending = iter(breakers)
    router = ShardRouter.over_table(
        table, 2, 2,
        shard_layer=lambda shard: CircuitBreakerLayer(shard, breaker=next(pending)),
    )
    return router, breakers


def _failover(table):
    """A primary and one replica; their breakers run on the real clock."""
    from repro.backends import FailoverRouter

    def target():
        return engine_stack(table, k=2, ranking=StaticScoreRanking(), statistics=False)

    return FailoverRouter(
        target(), [target()],
        policy=CircuitBreakerPolicy(window=4, failure_threshold=1, reset_timeout=60.0),
    )


def shape_bare(table, clock):
    return engine_stack(table, k=2, ranking=StaticScoreRanking())


def shape_closed_breaker(table, clock):
    return _guarded(table, clock)[0]


def shape_open_breaker(table, clock):
    stack, breaker = _guarded(table, clock)
    breaker.record_failure()
    clock.advance(10.0)
    return stack


def shape_open_breaker_due_a_probe(table, clock):
    stack, breaker = _guarded(table, clock)
    breaker.record_failure()
    clock.advance(RESET)
    return stack


def shape_half_open_probe_in_flight(table, clock):
    stack, breaker = _guarded(table, clock)
    breaker.record_failure()
    clock.advance(RESET)
    breaker.before_call()  # admits the probe; it has not reported back
    return stack


def shape_closed_shards(table, clock):
    return _sharded(table, clock)[0]


def shape_one_shard_open(table, clock):
    router, breakers = _sharded(table, clock)
    breakers[1].record_failure()
    clock.advance(10.0)
    return router


def shape_two_shards_open_at_different_times(table, clock):
    router, breakers = _sharded(table, clock)
    breakers[0].record_failure()
    clock.advance(10.0)
    breakers[1].record_failure()
    clock.advance(5.0)  # shard 0 waits 15 s more, shard 1 waits 25 s
    return router


def shape_open_breaker_over_closed_shards(table, clock):
    router, _ = _sharded(table, clock)
    breaker = _tripped(clock)
    stack = BackendStack(router, [lambda inner: CircuitBreakerLayer(inner, breaker=breaker)])
    breaker.record_failure()
    clock.advance(10.0)
    return stack


def shape_failover_primary_open(table, clock):
    router = _failover(table)
    router.breaker("primary").record_failure()
    return router


def shape_failover_every_target_open(table, clock):
    router = _failover(table)
    router.breaker("primary").record_failure()
    router.breaker("replica-1").record_failure()
    return router


GATE_SHAPES = [
    (shape_bare, True, 0.0, None),
    (shape_closed_breaker, True, 0.0, ["closed"]),
    (shape_open_breaker, False, 20.0, ["open"]),
    (shape_open_breaker_due_a_probe, True, 0.0, ["open"]),
    (shape_half_open_probe_in_flight, False, RESET, ["half_open"]),
    (shape_closed_shards, True, 0.0, ["shard 0: closed", "shard 1: closed"]),
    (shape_one_shard_open, False, 20.0, ["shard 0: closed", "shard 1: open"]),
    (shape_two_shards_open_at_different_times, False, 25.0,
     ["shard 0: open", "shard 1: open"]),
    (shape_open_breaker_over_closed_shards, False, 20.0,
     ["open", "shard 0: closed", "shard 1: closed"]),
    (shape_failover_primary_open, True, 0.0, ["primary: open", "replica-1: closed"]),
    # Failover breakers run on the real clock: a few ms may already be gone.
    (shape_failover_every_target_open, False, pytest.approx(60.0, abs=1.0),
     ["primary: open", "replica-1: open"]),
]


def _reported_states(report):
    """The report flattened to one ``[where: ]state`` line per gate."""
    if report is None:
        return None
    states = []
    for snapshot in report.get("breakers", []):
        where = f"shard {snapshot['shard']}: " if "shard" in snapshot else ""
        states.append(where + snapshot["state"])
    for name, snapshot in report.get("failover", {}).get("targets", {}).items():
        states.append(f"{name}: {snapshot['state']}")
    return states


@pytest.mark.parametrize(
    "build, allows, wait, states",
    [pytest.param(*row, id=row[0].__name__.removeprefix("shape_")) for row in GATE_SHAPES],
)
def test_gate_readers_agree(tiny_table, build, allows, wait, states):
    backend = build(tiny_table, FakeClock())
    assert chain_would_allow(backend) is allows
    assert chain_retry_after(backend) == wait
    assert (chain_retry_after(backend) == 0.0) is allows
    assert _reported_states(resilience_report(backend)) == states


def test_deadline_header_constant_agrees_with_the_server():
    # httpd.py duplicates the constant to avoid a module import cycle; this
    # is the test that duplication comment promises.
    from repro.web.httpd import DEADLINE_HEADER as server_header

    assert server_header == DEADLINE_HEADER
