"""One submission loop per fault layer: ``submit(q)`` is ``submit_outcomes([q])``.

The retry layer, the circuit breaker and the failover router each keep one
loop, and ``submit`` is its one-item case.  These tests hold the two entry
points together: the same scripted weather beneath a fresh layer, driven
once through ``submit(q)`` and once through ``submit_outcomes([q])``, must
give the same response or exception, the same counters and — for the retry
layer — the same backoff sleeps.  Sleeps are recorded, not slept.
"""

import pytest

from repro.backends import (
    BudgetLayer,
    CircuitBreaker,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    FailoverRouter,
    QueryEngineBackend,
    UnreliableLayer,
)
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking

#: Scripted weather beneath the layer under test, one FaultSchedule each.
#: ``open`` puts a tripped breaker beneath; ``refuse`` an exhausted budget.
SCENARIOS = {
    "transient-then-ok": ["transient", "ok"],
    "transient-exhausts-retries": ["transient", "transient", "transient"],
    "rate-limit-with-hint": ["rate_limit:0.25", "ok"],
    "drop": ["drop", "drop", "drop"],
    "open-inner-circuit": "open",
    "permanent-refusal": "refuse",
}


def _weather(raw, scenario):
    """The fault source beneath the layer under test, built fresh."""
    script = SCENARIOS[scenario]
    if script == "open":
        breaker = CircuitBreaker(
            CircuitBreakerPolicy(window=1, failure_threshold=1, reset_timeout=60.0),
            clock=lambda: 0.0,  # frozen: the retry_after hint is exact
        )
        breaker.record_failure()  # tripped OPEN: every call fails fast
        return CircuitBreakerLayer(raw, breaker=breaker)
    if script == "refuse":
        return BudgetLayer(raw, QueryBudget(limit=0))
    return UnreliableLayer(raw, max_retries=0, schedule=script)


def _retry_layer(raw, scenario):
    layer = UnreliableLayer(_weather(raw, scenario), max_retries=2, retry_backoff=0.01, seed=7)
    return layer, lambda: layer.snapshot().as_dict()


def _breaker_layer(raw, scenario):
    layer = CircuitBreakerLayer(
        _weather(raw, scenario), policy=CircuitBreakerPolicy(window=2, failure_threshold=1)
    )
    return layer, layer.breaker.snapshot


def _failover_to_a_healthy_replica(raw, scenario):
    router = FailoverRouter(_weather(raw, scenario), [raw])
    return router, router.snapshot


def _failover_with_every_target_down(raw, scenario):
    router = FailoverRouter(_weather(raw, scenario), [_weather(raw, scenario)])
    return router, router.snapshot


LAYERS = {
    "unreliable": _retry_layer,
    "breaker": _breaker_layer,
    "failover-healthy-replica": _failover_to_a_healthy_replica,
    "failover-all-down": _failover_with_every_target_down,
}


def _comparable(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), getattr(outcome, "retry_after", None)
    return outcome


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_submit_is_the_one_item_batch(layer, scenario, tiny_table, tiny_schema, monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr("repro.backends.layers.time.sleep", sleeps.append)
    query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})

    def run(drive):
        sleeps.clear()
        raw = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        backend, counters = LAYERS[layer](raw, scenario)
        try:
            outcome = drive(backend)
        except Exception as error:  # noqa: BLE001 - compared below
            outcome = error
        return _comparable(outcome), counters(), list(sleeps)

    def batch_of_one(backend):
        (outcome,) = backend.submit_outcomes([query])
        return outcome

    assert run(batch_of_one) == run(lambda backend: backend.submit(query))
