"""The declarative scenario model: dataset + recipe + fault plan + gates.

A :class:`Scenario` is data, not code: it *names* a ground-truth dataset
builder, a stack recipe (composed from the checked builders in
:mod:`repro.scenarios.recipes`), a fault plan (scripted faults inside the
recipe plus :class:`Hook` lifecycle actions the runner fires mid-run), and
the thresholds its scorers judge against.  The
:class:`~repro.scenarios.runner.ScenarioRunner` is the only thing that
executes; everything here stays serialisable-in-spirit so the corpus reads
like the table in ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.config import HDSamplerConfig
from repro.database.table import Table
from repro.exceptions import ConfigurationError, TransientBackendError


@dataclass(frozen=True)
class RunProfile:
    """Execution knobs shared by every scenario of one corpus run.

    ``quick`` is the CI profile: smaller tables and sample targets, same
    invariants.  ``seed`` feeds :mod:`repro._rng`-style derivation — every
    stochastic choice in a scenario derives from it, so a report is exactly
    reproducible from (corpus version, seed, quick).
    """

    seed: int
    quick: bool = False

    def scaled(self, full: int, quick: int) -> int:
        """Pick the full-run or quick-run size."""
        return quick if self.quick else full


@dataclass
class Hook:
    """One scripted mid-run disruption.

    ``trigger`` decides *when* the runner fires ``action``:

    * ``"samples"`` — once the job has collected ``at_fraction`` of its
      sample target (kill a server, drift the data, take a checkpoint...);
    * ``"degraded"`` — the first time the scheduler parks the job on an
      open circuit (heal the backend, snapshot the parked job...).

    Actions run *between* scheduler rounds — the runner stops ``run_all``
    via its round hook first — so no candidate attempt is ever in flight
    while a hook rewires the world.
    """

    action: Callable[["ScenarioEnv"], None]
    trigger: str = "samples"
    at_fraction: float = 0.5
    label: str = ""

    def __post_init__(self) -> None:
        if self.trigger not in ("samples", "degraded"):
            raise ConfigurationError(
                f"unknown hook trigger {self.trigger!r} (expected 'samples' or 'degraded')"
            )
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ConfigurationError(
                f"hook at_fraction must be within [0, 1], got {self.at_fraction}"
            )


@dataclass
class Thresholds:
    """Per-scenario judgement knobs, with conservative defaults.

    ``alpha`` is the chi-square significance level (smaller = more slack,
    fewer false alarms in CI); ``max_skew_index`` caps the sample-size-free
    ``chi2/n`` skew index a marginal may show when it misses significance
    (the sampler is near-uniform by design — see
    :data:`repro.scenarios.scorers.DEFAULT_MAX_SKEW_INDEX`);
    ``uniformity_hard`` decides whether a failed uniformity gate is FAIL or
    only DEGRADED; ``max_cost_ratio`` bounds the per-sample query cost
    against the clean baseline (``None`` = report only).
    """

    alpha: float = 0.001
    max_skew_index: float = 0.25
    uniformity_hard: bool = True
    max_cost_ratio: float | None = None
    cost_hard: bool = False


@dataclass
class Scenario:
    """One named chaos run and everything needed to score it."""

    name: str
    failure_mode: str
    invariant: str
    dataset: Callable[[RunProfile], Table]
    recipe: Callable[["ScenarioEnv"], object]
    config: Callable[[RunProfile], HDSamplerConfig]
    baseline_recipe: Callable[["ScenarioEnv"], object] | None = None
    identical_to_baseline: bool = False
    hooks: tuple[Hook, ...] = ()
    thresholds: Thresholds = field(default_factory=Thresholds)
    score_attributes: tuple[str, ...] | None = None
    score_uniformity: bool = True
    deadline_window: float | None = None
    extra_gates: Callable[["ScenarioEnv"], list] | None = None
    must_pass: bool = False

    def __post_init__(self) -> None:
        if self.identical_to_baseline and self.baseline_recipe is None:
            raise ConfigurationError(
                f"scenario {self.name!r} gates on baseline identity but names no baseline recipe"
            )


class ScenarioEnv:
    """Everything a live scenario run owns, visible to hooks and scorers.

    Hooks mutate this: they kill servers listed in ``servers``, flip the
    shims below, swap ``service``/``job`` after a checkpoint restore, and
    record what they did in ``notes`` (which travels into the report).
    ``cleanups`` run in reverse order when the run ends, success or not.
    """

    def __init__(self, profile: RunProfile, table: Table) -> None:
        self.profile = profile
        self.table = table
        self.backend: object | None = None
        self.service = None  # type: ignore[assignment]
        self.job = None  # type: ignore[assignment]
        self.servers: list[object] = []
        self.notes: dict[str, object] = {}
        self.extras: dict[str, object] = {}
        self._cleanups: list[Callable[[], None]] = []

    def add_cleanup(self, cleanup: Callable[[], None]) -> None:
        """Register teardown work (servers to stop, sockets to close)."""
        self._cleanups.append(cleanup)

    def cleanup(self) -> None:
        """Run every registered teardown, last-registered first."""
        while self._cleanups:
            teardown = self._cleanups.pop()
            try:
                teardown()
            except Exception:  # reprolint: disable=R3 — pure teardown: a server already killed by a chaos hook may refuse to stop twice; the remaining cleanups must still run
                pass

    def note(self, key: str, value: object) -> None:
        """Record a fact for the report (hooks' main output channel)."""
        self.notes[key] = value

    def bump(self, key: str) -> None:
        """Increment a numeric note (e.g. interruption counters)."""
        self.notes[key] = int(self.notes.get(key, 0)) + 1  # type: ignore[arg-type]


class SwitchableRaw:
    """Raw-contract shim whose availability a hook flips at will.

    This is the harness's standard way to script an outage *below* a
    breaker without composing layers out of canonical order: the fault
    lives in the raw backend, the recipe above it keeps the order that
    :class:`~repro.backends.stack.BackendStack` checks.
    """

    def __init__(self, inner: object) -> None:
        self.inner = inner
        self.failing = False

    @property
    def schema(self) -> object:
        return self.inner.schema  # type: ignore[attr-defined]

    @property
    def k(self) -> int:
        return self.inner.k  # type: ignore[attr-defined]

    def submit(self, query: object) -> object:
        if self.failing:
            raise TransientBackendError("scenario outage: backend switched off")
        return self.inner.submit(query)  # type: ignore[attr-defined]


class MutableRaw:
    """Raw-contract shim whose *contents* a hook swaps mid-run.

    Models a hidden database whose rows drift while an analyst samples it:
    the schema stays fixed (the web form does not change shape), the
    answers behind it do.
    """

    def __init__(self, inner: object) -> None:
        self.inner = inner

    def swap(self, inner: object) -> None:
        if inner.schema.attribute_names != self.inner.schema.attribute_names:  # type: ignore[attr-defined]
            raise ConfigurationError("drifted backend must keep the schema shape")
        self.inner = inner

    @property
    def schema(self) -> object:
        return self.inner.schema  # type: ignore[attr-defined]

    @property
    def k(self) -> int:
        return self.inner.k  # type: ignore[attr-defined]

    def submit(self, query: object) -> object:
        return self.inner.submit(query)  # type: ignore[attr-defined]


def fingerprint(samples: Sequence[object]) -> list[tuple]:
    """The byte-identity key of a sample sequence (ids + values + weights)."""
    return [
        (
            sample.tuple_id,  # type: ignore[attr-defined]
            tuple(sorted(sample.values.items())),  # type: ignore[attr-defined]
            sample.selection_probability,  # type: ignore[attr-defined]
            sample.acceptance_probability,  # type: ignore[attr-defined]
        )
        for sample in samples
    ]
