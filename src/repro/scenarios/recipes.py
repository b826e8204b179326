"""Scenario stack recipes, composed from the canonical builders.

Every chaos run samples through a stack built *here*, from the same
:mod:`repro.backends.stack` builders production uses — scenarios never
hand-wire ad-hoc layer orders.  Every recipe returns a
:class:`~repro.backends.stack.BackendStack`, which refuses layers out of
canonical order — a retry layer under the breaker, statistics under the
budget — when the recipe runs, before it can misscore a scenario.

Outages that must originate *below* a breaker live in the raw backend (see
:class:`~repro.scenarios.base.SwitchableRaw`) rather than in a retrying
``UnreliableLayer`` under the breaker, which the stack would refuse.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends import BackendStack, engine_stack, failover_stack
from repro.backends.layers import UnreliableLayer
from repro.backends.resilience import CircuitBreakerLayer, CircuitBreakerPolicy, Fault, FaultSchedule
from repro.database.interface import CountMode
from repro.database.table import Table


def clean_recipe(table: Table, k: int, seed: int = 0) -> BackendStack:
    """The undisturbed local access path — every baseline samples through this."""
    return engine_stack(table, k, count_mode=CountMode.EXACT, seed=seed)


def retried_chaos_recipe(
    table: Table,
    k: int,
    failure_rate: float = 0.0,
    rate_limit_every: int | None = None,
    schedule: "FaultSchedule | Sequence[Fault | str] | None" = None,
    latency: float = 0.0,
    max_retries: int = 150,
    chaos_seed: int = 0,
    seed: int = 0,
) -> BackendStack:
    """A clean engine stack weathering injected faults healed by retries.

    The retry layer sits on top of the finished clean stack (statistics and
    history included), so everything beneath it sees the exact same request
    stream as the baseline — the equivalence
    ``tests/backends/test_fault_equivalence.py`` proves byte-for-byte.
    ``max_retries`` defaults high enough to outlast any 85%-fault streak.
    """
    clean = clean_recipe(table, k, seed=seed)
    return BackendStack(
        clean.top,
        [
            lambda inner: UnreliableLayer(
                inner,
                failure_rate=failure_rate,
                rate_limit_every=rate_limit_every,
                max_retries=max_retries,
                retry_backoff=0.0,
                latency=latency,
                seed=chaos_seed,
                schedule=schedule,
            )
        ],
    )


def starved_recipe(table: Table, k: int, latency: float, seed: int = 0) -> BackendStack:
    """A slow backend with *no* retries: every query spends wall-clock time.

    Deadline-starvation scenarios run this under a tight ambient
    :class:`~repro.backends.resilience.Deadline`; the injected latency makes
    the deadline bite deterministically without any randomness.
    """
    clean = clean_recipe(table, k, seed=seed)
    return BackendStack(
        clean.top,
        [lambda inner: UnreliableLayer(inner, max_retries=0, latency=latency)],
    )


def guarded_retry_recipe(
    raw: object,
    window: int = 4,
    failure_threshold: int = 2,
    reset_timeout: float = 0.05,
    max_retries: int = 3,
) -> BackendStack:
    """Breaker under retry over an arbitrary raw backend — canonical order.

    The breaker sits directly above the raw backend so each retry attempt
    is a real call its window sees; once open, the fast-fail passes through
    the retry layer unretried and the scheduler parks the job DEGRADED.
    """
    return BackendStack(
        raw,
        [
            lambda inner: CircuitBreakerLayer(
                inner,
                policy=CircuitBreakerPolicy(
                    window=window,
                    failure_threshold=failure_threshold,
                    reset_timeout=reset_timeout,
                ),
            ),
            lambda inner: UnreliableLayer(inner, max_retries=max_retries, retry_backoff=0.0),
        ],
    )


def failover_remote_recipe(
    urls: Sequence[str],
    reset_timeout: float = 0.2,
    max_retries: int = 3,
) -> BackendStack:
    """Primary-plus-replica HTTP targets behind per-target breakers.

    A killed primary trips its breaker and traffic drains to the replica;
    the sampler above never notices, which is exactly what the
    server-kill scenario scores.
    """
    return failover_stack(
        list(urls),
        max_retries=max_retries,
        retry_backoff=0.0,
        policy=CircuitBreakerPolicy(window=4, failure_threshold=2, reset_timeout=reset_timeout),
    )
