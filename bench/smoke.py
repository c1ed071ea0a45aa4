"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/smoke.py

From the repository root.  For every workload it runs bench/run.py with
--trace 0 and --trace 1 and asserts that the last line of its output is
the result object, that every metric BENCHMARK.json names is there with
its unit, and that no stage failed (error rate 0).  It also runs the
benchmark in a directory that holds only BENCHMARK.json and the
benchmark, where it must exit non-zero without printing a result.
Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: stages failed: {proc.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric['name']} reported as {got}")
    return problems


def check_without_program() -> list[str]:
    bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "linear-debias", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_without_program()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
