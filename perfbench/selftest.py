#!/usr/bin/env python3
"""Smoke self-test of the benchmark on tiny corpora (vocab 512, a few KB each).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric named in BENCHMARK.json,
with its unit, in both modes; that a truncated model file makes
``fail_ratio`` > 0; that the benchmark refuses to run, printing no result,
where the program's sources are missing; and that README.md maps every
per-layer metric to the end-to-end metric it should move. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def fail_ratio(stdout: str) -> float:
    match = re.search(r"^  fail_ratio \[ratio\]: median=(\S+)", stdout, re.M)
    if match is None:
        raise AssertionError("fail_ratio not printed")
    return float(match.group(1))


def check_metrics(workload: str, trace: int) -> None:
    kind = "per_layer" if trace else "end_to_end"
    proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise AssertionError(f"{workload} trace {trace}: metrics {got} != {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] == 0:
            raise AssertionError(f"{workload}: {name} = {m['value']!r}")
        if f"  {name} [{declared[name]}]: median=" not in proc.stdout:
            raise AssertionError(f"{workload}: {name} not printed with its unit")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: {result}\n{proc.stdout[-1500:]}")
    if not trace and fail_ratio(proc.stdout) != 0:
        raise AssertionError(f"{workload}: fail_ratio > 0 on a clean run")


def check_corrupt_model(workload: str) -> None:
    proc = bench("--workload", workload, "--trace", "0", "--smoke", "--corrupt-model")
    result = result_of(proc)
    if result["correct"] or result["failed"] < 1 or not fail_ratio(proc.stdout) > 0:
        raise AssertionError(f"{workload}: corrupted model not detected: {result}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"ran without sources: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_readme_map() -> None:
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in readme]
    if missing:
        raise AssertionError(f"README.md does not map {missing}")


def main() -> int:
    checks = [("readme map", check_readme_map),
              ("refuses without sources", check_refuses_without_sources)]
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            checks.append((f"{w['name']} trace {trace}",
                           lambda w=w["name"], t=trace: check_metrics(w, t)))
    for name in ("eval-warm", "encode-long"):
        checks.append((f"{name} corrupted model", lambda n=name: check_corrupt_model(n)))
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS  {name}")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
