"""Smoke-size self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Run from the root of a source checkout. For every workload named in
BENCHMARK.json it checks that

1. a clean run, untraced and traced, exits 0, reports ``correct`` with
   no failed op, and prints every metric that BENCHMARK.json names for
   that mode, each with its declared unit and a finite value;
2. a run whose op 1 output is deliberately corrupted exits non-zero,
   reports ``correct`` false and counts the op as failed.

It also checks that the benchmark, copied into a directory that holds
only BENCHMARK.json and its own files, exits non-zero without printing
a result. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, result


def check_metrics(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    got = result["metrics"]
    names = {m["name"] for m in declared}
    if set(got) != names:
        problems.append(f"metric names differ: missing {sorted(names - set(got))}, extra {sorted(set(got) - names)}")
    for metric in declared:
        entry = got.get(metric["name"])
        if entry is None:
            continue
        if entry.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {entry.get('unit')!r}, declared {metric['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"]
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, result = run(base + ["--trace", trace], ROOT)
            label = f"{workload} trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: not a clean run: {result}")
            failures += [f"{label}: {p}" for p in check_metrics(result, declared)]
            print(f"ok   {label}: {result['attempted']} ops, {len(result['metrics'])} metrics")
        code, result = run(base + ["--trace", "0", "--inject-fault", "1"], ROOT)
        label = f"{workload} corrupted output"
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            failures.append(f"{label}: not counted as failed (exit {code}, result {result})")
        else:
            print(f"ok   {label}: {result['failed']} of {result['attempted']} ops failed")

    isolated = ROOT / ".perfbench_out" / "selftest_isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", isolated / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    workload = bench["workloads"][0]["name"]
    code, result = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"], isolated)
    shutil.rmtree(isolated)
    if code == 0 or result is not None:
        failures.append(f"without sources: exit {code}, result {result}")
    else:
        print(f"ok   without sources: exit {code}, no result")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
