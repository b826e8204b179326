"""reprolint: the repo's own static-analysis suite.

Usage::

    python -m repro.analysis [--format text|json|github] [paths...]

Rules (see ``docs/architecture.md`` § Invariants for the full rationale):

=====  ==================  =====================================================
R1     guarded-state       ``_guarded_by``-declared attributes mutate only
                           under their declared lock
R2     layer-contract      ``BackendLayer`` subclasses overriding ``submit``
                           define ``submit_outcomes``; none has ``submit_many``
R3     exception-taxonomy  broad excepts are allowlisted or re-raise; layer
                           packages raise only :mod:`repro.exceptions` types
R4     deterministic-rng   all randomness flows through ``repro/_rng.py``
R5     lock-order          the static held-while-acquiring graph is acyclic
=====  ==================  =====================================================

Suppress a single finding inline with ``# reprolint: disable=R1 — reason``.
"""

from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    Finding,
    ModuleSource,
    Rule,
    run_analysis,
)
from repro.analysis.rules import all_rules

__all__ = [
    "PARSE_ERROR_RULE",
    "Finding",
    "ModuleSource",
    "Rule",
    "all_rules",
    "run_analysis",
]
