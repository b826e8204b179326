"""Each reprolint rule against its good/bad fixture pair.

Every rule has one fixture that violates it (flagged with the right rule id)
and one that honours the same invariant (clean).  The path-sensitive half
of R3 (its typed boundary) is driven by constructing the
:class:`ModuleSource` with an explicit ``display_path``.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import ModuleSource, Rule, load_module, run_analysis
from repro.analysis.rules import all_rules
from repro.analysis.rules.deterministic_rng import DeterministicRngRule
from repro.analysis.rules.exception_taxonomy import ExceptionTaxonomyRule
from repro.analysis.rules.guarded_state import GuardedStateRule
from repro.analysis.rules.layer_contract import LayerContractRule
from repro.analysis.rules.lock_order import LockOrderRule

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_module(name: str, display_path: str | None = None) -> ModuleSource:
    path = FIXTURES / f"{name}.py"
    return load_module(path, display_path or str(path))


def run_rule(rule: Rule, module: ModuleSource) -> list:
    findings = [f for f in rule.check_module(module) if not module.is_suppressed(f)]
    findings.extend(f for f in rule.finish() if not module.is_suppressed(f))
    return findings


PAIRS = [
    pytest.param(GuardedStateRule, "r1", None, id="R1-guarded-state"),
    pytest.param(LayerContractRule, "r2", None, id="R2-layer-contract"),
    pytest.param(ExceptionTaxonomyRule, "r3", None, id="R3-exception-taxonomy"),
    pytest.param(DeterministicRngRule, "r4", None, id="R4-deterministic-rng"),
    pytest.param(LockOrderRule, "r5", None, id="R5-lock-order"),
]


class TestFixturePairs:
    @pytest.mark.parametrize("rule_class, stem, display", PAIRS)
    def test_bad_fixture_is_flagged_with_its_rule_id(self, rule_class, stem, display):
        rule = rule_class()
        module = fixture_module(f"{stem}_bad", display)
        findings = run_rule(rule, module)
        assert findings, f"{stem}_bad should violate {rule.rule_id}"
        assert {f.rule for f in findings} == {rule.rule_id}

    @pytest.mark.parametrize("rule_class, stem, display", PAIRS)
    def test_good_fixture_is_clean(self, rule_class, stem, display):
        rule = rule_class()
        module = fixture_module(f"{stem}_good", display)
        assert run_rule(rule, module) == []


class TestRuleSpecifics:
    def test_r1_flags_every_guarded_attribute(self):
        findings = run_rule(GuardedStateRule(), fixture_module("r1_bad"))
        messages = " ".join(f.message for f in findings)
        assert "self.count" in messages
        assert "self.events" in messages

    def test_r2_names_the_missing_half(self):
        (finding,) = run_rule(LayerContractRule(), fixture_module("r2_bad"))
        assert "LopsidedLayer" in finding.message
        assert "submit_outcomes" in finding.message

    def test_r3_typed_boundary_is_path_sensitive(self):
        # Outside the boundary packages only the swallowing broad except is
        # flagged; presented as a backends module, the untyped ``ValueError``
        # raise is flagged too.
        outside = run_rule(ExceptionTaxonomyRule(), fixture_module("r3_bad"))
        assert len(outside) == 1
        inside = run_rule(
            ExceptionTaxonomyRule(),
            fixture_module("r3_bad", display_path="repro/backends/r3_bad.py"),
        )
        assert len(inside) == 2
        assert any("ValueError" in f.message for f in inside)

    def test_r4_flags_calls_imports_and_clock_seeding(self):
        findings = run_rule(DeterministicRngRule(), fixture_module("r4_bad"))
        messages = " ".join(f.message for f in findings)
        assert "random.choice" in messages or "choice" in messages
        assert "time" in messages  # the clock-seeding finding

    def test_r5_reports_the_cycle_chain(self):
        (finding,) = run_rule(LockOrderRule(), fixture_module("r5_bad"))
        assert "Ledger._lock" in finding.message
        assert "Ledger._stats_lock" in finding.message


class TestEngineBehaviour:
    def test_inline_suppression_silences_a_finding(self, tmp_path):
        source = (FIXTURES / "r1_bad.py").read_text(encoding="utf-8")
        suppressed = source.replace(
            "self.count += amount",
            "self.count += amount  # reprolint: disable=R1 -- fixture",
        ).replace(
            "self.events.append(amount)",
            "self.events.append(amount)  # reprolint: disable=all",
        )
        target = tmp_path / "suppressed.py"
        target.write_text(suppressed, encoding="utf-8")
        assert run_analysis([target], rules=[GuardedStateRule()]) == []

    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        (finding,) = run_analysis([target])
        assert finding.rule == "E0"
        assert "does not parse" in finding.message

    def test_rule_ids_are_unique_and_complete(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert ids == ["R1", "R2", "R3", "R4", "R5"]
        for rule in rules:
            assert rule.name
            assert rule.rationale
