"""R2 layer-contract: every layer handles the batch entry point, and only that.

Motivating bug class (PR 5): the batched wire path was added and several
``BackendLayer`` subclasses kept their inherited pass-through batch method —
so a batch *bypassed* the very concern the layer existed to add (budgets
uncharged, statistics unrecorded, counts unshaped) until a review pass closed
each gap by hand.  The same gap re-opens every time someone writes a new
layer and forgets the batch entry point.  A second batch method per layer
(``submit_many`` beside ``submit_outcomes``) later drifted the same way: one
failed batch counted differently depending on which of the two a caller
reached.

The rule has two halves:

* a ``BackendLayer`` subclass that overrides ``submit`` must define
  ``submit_outcomes`` too — overriding ``submit`` alone means single
  submissions get the layer's concern while batches sneak past it through
  the inherited forwarding (a layer whose concern is batch-only, like the
  dispatch layer, may override ``submit_outcomes`` alone);
* no ``BackendLayer`` subclass defines ``submit_many``.  Raising the first
  failed item of a batch is
  :meth:`repro.backends.stack.BackendStack.submit_many`'s job alone, so a
  layer keeps one batch path.

A subclass that overrides neither (a pure schema/introspection wrapper)
inherits the base class's forwarding consistently and is fine.  The base
class itself is exempt — its forwarding *is* the protocol.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._ast_helpers import base_names, class_functions, module_classes

#: Names that mark a class as a middleware layer when they appear in bases.
LAYER_BASES = frozenset({"BackendLayer"})


class LayerContractRule(Rule):
    """R2: layers overriding submission define ``submit_outcomes``, never ``submit_many``."""

    rule_id = "R2"
    name = "layer-contract"
    rationale = (
        "PR 5's missing-batch-half bug class: a layer whose concern applies "
        "per submission must apply it on submit_outcomes too, and keep no "
        "second batch path"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: list[Finding] = []
        for class_node in module_classes(module.tree):
            if class_node.name in LAYER_BASES:
                continue
            if not (set(base_names(class_node)) & LAYER_BASES):
                continue
            defined = {function.name for function in class_functions(class_node)}
            if "submit_many" in defined:
                findings.append(
                    self.finding(
                        module,
                        class_node,
                        f"BackendLayer subclass '{class_node.name}' defines "
                        f"'submit_many' — a layer keeps one batch path, "
                        f"'submit_outcomes'; BackendStack.submit_many raises "
                        f"the first failed item",
                    )
                )
            if "submit" in defined and "submit_outcomes" not in defined:
                findings.append(
                    self.finding(
                        module,
                        class_node,
                        f"BackendLayer subclass '{class_node.name}' overrides "
                        f"submit but does not define 'submit_outcomes' — "
                        f"batches would bypass the layer's concern through "
                        f"inherited forwarding",
                    )
                )
        return findings
