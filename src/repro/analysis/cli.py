"""The ``python -m repro.analysis`` command line.

Exit codes: 0 — clean; 1 — findings (including unparsable files); 2 —
usage errors (argparse's convention).  Formats:

* ``text`` (default) — ``path:line:col: RULE message`` per finding plus a
  one-line summary on stderr;
* ``json`` — a single machine-readable object (the CI artifact);
* ``github`` — GitHub Actions workflow commands, so findings show up as
  file annotations on pull requests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import Finding, Rule, run_analysis
from repro.analysis.rules import all_rules

FORMATS = ("text", "json", "github")


def _default_paths() -> list[Path]:
    import repro

    return [Path(repro.__file__).resolve().parent]


def _select_rules(spec: str | None) -> list[Rule]:
    rules = all_rules()
    if spec is None:
        return rules
    wanted = {part.strip().upper() for part in spec.split(",") if part.strip()}
    by_id = {rule.rule_id: rule for rule in rules}
    unknown = wanted - set(by_id)
    if unknown:
        raise SystemExit(
            f"error: unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(by_id))})"
        )
    return [by_id[rule_id] for rule_id in sorted(wanted)]


def _render_github(finding: Finding) -> str:
    # Workflow-command annotation; commas/newlines in properties are escaped
    # per the Actions toolkit rules.
    message = finding.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return (
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col + 1},title=reprolint {finding.rule}::{message}"
    )


def _emit(findings: list[Finding], output_format: str) -> None:
    if output_format == "json":
        payload = {
            "tool": "reprolint",
            "findings": [finding.as_dict() for finding in findings],
            "count": len(findings),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for finding in findings:
        if output_format == "github":
            print(_render_github(finding))
        else:
            print(finding.render())
    if output_format == "text":
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"reprolint: {len(findings)} {noun}", file=sys.stderr)


def _list_rules() -> None:
    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.name}: {rule.rationale}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: AST checks for the repo's concurrency and "
        "layering invariants (R1-R5).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        _list_rules()
        return 0
    paths = list(options.paths) or _default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2
    findings = run_analysis(paths, rules=_select_rules(options.rules))
    _emit(findings, options.output_format)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
