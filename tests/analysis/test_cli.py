"""The ``python -m repro.analysis`` command line, driven in-process."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(FIXTURES / "r1_good.py")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 findings" in captured.err

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "r1_bad.py")]) == 1
        captured = capsys.readouterr()
        assert "R1" in captured.out
        assert "findings" in captured.err

    def test_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "does_not_exist.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_repo_source_tree_is_clean(self, capsys):
        # The same gate CI runs: the shipped tree lints clean.
        assert main([str(SRC_REPRO)]) == 0


class TestFormats:
    def test_text_format_renders_path_line_rule(self, capsys):
        main([str(FIXTURES / "r1_bad.py"), "--format", "text"])
        out = capsys.readouterr().out
        assert "r1_bad.py:" in out
        assert ": R1 " in out

    def test_json_format_is_machine_readable(self, capsys):
        main([str(FIXTURES / "r1_bad.py"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["count"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message"}
        assert first["rule"] == "R1"

    def test_json_format_clean_run_reports_zero(self, capsys):
        assert main([str(FIXTURES / "r1_good.py"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"tool": "reprolint", "findings": [], "count": 0}

    def test_github_format_emits_error_annotations(self, capsys):
        main([str(FIXTURES / "r1_bad.py"), "--format", "github"])
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert line.startswith("::error file=")
            assert "title=reprolint R1::" in line


class TestRuleSelection:
    def test_rules_flag_restricts_the_run(self, capsys):
        # r1_bad violates R1 only; running just R2 over it is clean.
        assert main([str(FIXTURES / "r1_bad.py"), "--rules", "R2"]) == 0
        assert main([str(FIXTURES / "r1_bad.py"), "--rules", "R2,R1"]) == 1

    def test_unknown_rule_id_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([str(FIXTURES / "r1_bad.py"), "--rules", "R9"])

    def test_list_rules_names_all_five(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R2", "R3", "R4", "R5"):
            assert rule_id in out
