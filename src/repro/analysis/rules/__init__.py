"""The reprolint rule registry: one module per named invariant.

| id | rule | invariant |
|----|------|-----------|
| R1 | guarded-state | attributes declared in a class's ``_guarded_by`` map
|    |               | are only mutated while holding the declared lock |
| R2 | layer-contract | a ``BackendLayer`` subclass overriding ``submit``
|    |                | defines ``submit_outcomes``; none defines ``submit_many`` |
| R3 | exception-taxonomy | no broad ``except`` outside the allowlist; only
|    |                    | typed :mod:`repro.exceptions` cross layer boundaries |
| R4 | deterministic-rng | no direct ``random.*`` calls outside ``repro/_rng.py`` |
| R5 | lock-order | the static "held while acquiring" lock graph is acyclic |

Backend layer order is not a lint rule: :class:`repro.backends.stack.BackendStack`
refuses an out-of-order composition when it is constructed.

Each rule module documents its motivating bug class.  Fresh instances are
created per run via :func:`all_rules` because rules may accumulate
whole-tree state (R5's lock graph).
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.deterministic_rng import DeterministicRngRule
from repro.analysis.rules.exception_taxonomy import ExceptionTaxonomyRule
from repro.analysis.rules.guarded_state import GuardedStateRule
from repro.analysis.rules.layer_contract import LayerContractRule
from repro.analysis.rules.lock_order import LockOrderRule

__all__ = [
    "DeterministicRngRule",
    "ExceptionTaxonomyRule",
    "GuardedStateRule",
    "LayerContractRule",
    "LockOrderRule",
    "all_rules",
]


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    return [
        GuardedStateRule(),
        LayerContractRule(),
        ExceptionTaxonomyRule(),
        DeterministicRngRule(),
        LockOrderRule(),
    ]
