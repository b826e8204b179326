"""End-to-end benchmark of whole ``SamplingService`` jobs.

Run from the repository root::

    python3 perfbench/run.py --workload walk_engine_200k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20       # every workload
    python3 perfbench/run.py --workload count_history_10k --repeat 5    # spread over seeds
    python3 perfbench/selftest.py                                        # helper self-tests

A run prints its metrics, one per line with units, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1`` the
per-layer ones.  An output check that fails makes the exit code 1; a
checkout without the ``repro`` sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: A child run's wall-clock limit in ``--workload all`` / ``--repeat``.
CHILD_TIMEOUT_S = 900


def _declared() -> dict:
    with BENCHMARK_FILE.open(encoding="utf-8") as handle:
        return json.load(handle)


def _metric_specs(trace: bool) -> list[dict]:
    return _declared()["per_layer" if trace else "end_to_end"]


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload in this process; prints its metrics and result line."""
    # The benchmark runs against the checkout's own sources.
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import WORKLOADS

    outcome = measure.run(WORKLOADS[workload_name], seed, seconds, trace)
    specs = _metric_specs(trace)
    missing = [spec["name"] for spec in specs if spec["name"] not in outcome.metrics]
    if missing:
        outcome.errors.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {
        spec["name"]: {"value": outcome.metrics[spec["name"]], "unit": spec["unit"]}
        for spec in specs
        if spec["name"] in outcome.metrics
    }
    bad = [name for name, entry in metrics.items() if not math.isfinite(entry["value"])]
    if bad:
        outcome.errors.append(f"metrics not finite: {', '.join(bad)}")
    print(f"# {workload_name} seed={seed} trace={int(trace)}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, entry in metrics.items():
        print(f"{workload_name:20s} {name:36s} {entry['value']:14.4f} {entry['unit']}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not outcome.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _child(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[int, dict | None, subprocess.CompletedProcess]:
    """Run one workload in a child interpreter; its exit code, result line
    and captured output."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return completed.returncode, result, completed


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; one combined result line."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for workload in _declared_workloads():
        code, result, completed = _child(workload, seed, seconds, trace)
        sys.stderr.write(completed.stderr)
        if result is None:
            sys.stdout.write(completed.stdout)
            correct = False
            continue
        sys.stdout.write("\n".join(completed.stdout.strip().splitlines()[:-1]) + "\n")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and code == 0 and result["correct"]
        for name, entry in result["metrics"].items():
            combined[f"{workload}/{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def _declared_workloads() -> list[str]:
    return [workload["name"] for workload in _declared()["workloads"]]


def repeat(workloads: list[str], first_seed: int, count: int, seconds: float, trace: bool) -> int:
    """Run each workload ``count`` times on consecutive seeds and print every
    metric's median, quartiles and spread (``(q3 - q1) / median``)."""
    from stats import quartiles

    bounds = {spec["name"]: spec.get("bound") for spec in _metric_specs(trace)}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        correct = 0
        for seed in range(first_seed, first_seed + count):
            code, result, completed = _child(workload, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                print(completed.stdout + completed.stderr, file=sys.stderr)
                status = 1
                continue
            correct += 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(
            f"# {workload}: {correct} of {count} runs correct, "
            f"seeds {first_seed}..{first_seed + count - 1}"
        )
        for name, series in values.items():
            q1, q2, q3 = quartiles(series)
            spread = (q3 - q1) / q2 if q2 else math.nan
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE (>bound/3)")
            print(
                f"{workload:20s} {name:36s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                f"  spread {spread:7.4f}"
                + ("" if bound is None else f"  bound {bound}")
                + flag
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, on consecutive seeds")
    args = parser.parse_args(argv)
    if not BENCHMARK_FILE.is_file():
        print(f"error: {BENCHMARK_FILE.name} not found next to {HERE.name}/", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(_declared()["run_seconds"])
    names = _declared_workloads()
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    if args.repeat:
        chosen = names if args.workload == "all" else [args.workload]
        return repeat(chosen, args.seed, args.repeat, seconds, bool(args.trace))
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
