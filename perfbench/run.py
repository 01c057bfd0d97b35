#!/usr/bin/env python3
"""convtok benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-cold --seed 20250601 --seconds 28 --trace 0

``--trace 0`` measures the workload end to end: a closed loop with one client
runs the workload's ``convtok`` commands as child processes, one at a time, for
``--seconds`` seconds, and checks every output. ``--trace 1`` instead repeats
the traced in-process pass of ``layers.py`` for ``--seconds`` seconds and
reports per-layer metrics; that pass is the same for every workload.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn. Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (
    DEFAULT_SEED, FULL, ROOT, SMOKE, SRC, WORKLOADS, CommandResult, Context, load_expected,
    sha256_file,
)

BENCH_DIR = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The git commit, or a digest of ``src/`` when the checkout has no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def stamp(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
    }


def finish_stamp(info: dict) -> dict:
    info["load1_end"] = os.getloadavg()[0]
    info["overloaded"] = max(info["load1_start"], info["load1_end"]) > (info["nproc"] or 1)
    return info


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (``max`` when none has)."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    else:
        out["max"] = max(values)
    return out


def print_metric(name: str, unit: str, values: list[float]) -> None:
    s = summarize(values)
    extra = " ".join(f"{k}={v:.4g}" for k, v in s.items() if k not in ("n", "median"))
    print(f"  {name} [{unit}]: median={s['median']:.4g} {extra} n={s['n']}")


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def setup(workload, ctx: Context, repeats: int) -> tuple[float, float]:
    """Run the workload's set-up ``repeats`` times; median steady and wall seconds.

    Every repetition starts from an empty work directory and must produce the
    same inputs. A failed set-up raises, because no measurement can follow.
    """
    steady, wall = [], []
    inputs = None
    for _ in range(repeats):
        shutil.rmtree(ctx.work, ignore_errors=True)
        ctx.work.mkdir(parents=True)
        ctx.clock.lap()
        steady_start, wall_start = ctx.clock.steady_total, ctx.clock.wall_total
        results = workload.setup(ctx)
        ctx.clock.lap()
        steady.append(ctx.clock.steady_total - steady_start)
        wall.append(ctx.clock.wall_total - wall_start)
        bad = [r for r in results if not r.ok]
        if bad:
            raise RuntimeError(f"set-up command {bad[0].name} failed: {bad[0].error}")
        digest = {p.name: sha256_file(p) for p in sorted(ctx.data.glob("*")) if p.is_file()
                  and not p.name.startswith(".")}
        if inputs is not None and digest != inputs:
            raise RuntimeError("set-up produced different inputs from the same seed")
        inputs = digest
    return statistics.median(steady), statistics.median(wall)


def corrupt(paths: list[Path]) -> None:
    for path in paths:
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])


def run_e2e(workload, ctx: Context, seconds: float, corrupt_model: bool) -> dict:
    setup_s, setup_wall_s = setup(workload, ctx, workload.setup_repeats)
    if corrupt_model:
        corrupt(workload.model_files(ctx))
    iterations: list[list[CommandResult]] = []
    start = time.perf_counter()
    while True:
        results = workload.iteration(ctx, len(iterations))
        iterations.append(results)
        elapsed = time.perf_counter() - start
        # closed loop: stop before an iteration that would end past the budget
        if elapsed + sum(r.wall_s for r in results) > seconds:
            break
    commands = [r for it in iterations for r in it]
    failed = [r for r in commands if not r.ok]
    for r in failed[:5]:
        print(f"  FAILED {r.name}: {r.error}")
    per_command: dict[str, list[float]] = {}
    for r in commands:
        per_command.setdefault(r.name, []).append(r.wall_s)
    metrics = {
        "steady_wall_s": [sum(r.steady_s for r in it) for it in iterations],
        "peak_rss_mb": [max(r.rss_mib for r in commands)],
        "setup_s": [setup_s],
    }
    extra = {"wall_s": [sum(r.wall_s for r in it) for it in iterations],
             "setup_wall_s": [setup_wall_s]}
    extra.update({f"{name}_s": values for name, values in per_command.items()})
    if workload.input_bytes(ctx):
        extra["encode_MBps"] = [workload.input_bytes(ctx) / 1e6 / w for w in per_command["encode"]]
    extra["fail_ratio"] = [len(failed) / len(commands)]
    extra["probe_s"] = ctx.clock.probes
    return {"metrics": metrics, "extra": extra, "attempted": len(commands), "failed": len(failed)}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(ctx: Context, seconds: float, info: dict, recorded: dict | None) -> dict:
    """Repeat the traced pass for ``seconds``; its counters must repeat
    exactly and, when ``recorded`` is given, equal it."""
    sys.path.insert(0, str(SRC))
    from layers import Tracer, traced_pass

    tracer = Tracer()
    passes: list[dict] = []
    counts: dict | None = None
    attempted = 0
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        attempted += 1
        pass_dir = ctx.work / f"pass{attempted}"
        first_span = len(tracer.spans)
        pass_start = time.perf_counter()
        tracer.counts.clear()
        try:
            values = traced_pass(tracer, pass_dir, ctx.seed, ctx.sizes)
        except Exception:  # a failed pass is counted and the run goes on
            failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            values = None
        pass_s = time.perf_counter() - pass_start
        shutil.rmtree(pass_dir, ignore_errors=True)
        if values is not None:
            counts = counts or dict(tracer.counts)
            if tracer.counts != counts:
                failures.append(f"counters changed between passes: {tracer.counts} != {counts}")
            elif recorded is not None and tracer.counts != recorded:
                failures.append(f"counters differ from the recorded ones: {tracer.counts} != {recorded}")
            else:
                top = [s for s in tracer.spans[first_span:] if s["parent"] is None]
                values["trace.overhead_s"] = pass_s - sum(s["end"] - s["start"] for s in top)
                passes.append(values)
        if values is None or time.perf_counter() - start + pass_s > seconds:
            break
    for f in failures[:5]:
        print("  FAILED traced pass:", f)
    tracer.write(BENCH_DIR / "traces" / f"traced-{ctx.seed}.jsonl", info)
    metrics: dict[str, list[float]] = {}
    for values in passes:
        for name, value in values.items():
            metrics.setdefault(name, []).append(value)
    for name, value in (counts or {}).items():
        metrics[name] = [value]
    if ctx.expected is not None and recorded is None and counts:
        print("  counters (not yet recorded):", json.dumps(counts))
    return {"metrics": metrics, "extra": {}, "attempted": attempted, "failed": len(failures)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            corrupt_model: bool) -> dict:
    workload = WORKLOADS[name]
    expected = None
    if seed == DEFAULT_SEED and not smoke:
        expected = load_expected()
    work = BENCH_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    if trace:  # the traced pass is the same for every workload
        ctx = Context(work=work, seed=seed, sizes=SMOKE if smoke else FULL, expected=expected)
    else:
        expected = None if expected is None else expected.get(name, {})
        ctx = Context(work=work, seed=seed, sizes=SMOKE if smoke else workload.sizes,
                      expected=expected)
    info = stamp(name, seed)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    try:
        if trace:
            result = run_traced(ctx, seconds, info, (expected or {}).get("counters"))
        else:
            result = run_e2e(workload, ctx, seconds, corrupt_model)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    finish_stamp(info)
    print("  stamp:", json.dumps(info))
    if info["overloaded"]:
        print(f"  WARNING: 1-minute load average exceeded {info['nproc']} cores during this run")
    declared = _declared_metrics("per_layer" if trace else "end_to_end")
    for metric, values in result["metrics"].items():
        print_metric(metric, declared.get(metric, "?"), values)
    for metric, values in result["extra"].items():
        unit = "MB/s" if metric.endswith("MBps") else "ratio" if metric == "fail_ratio" else "s"
        print_metric(metric, unit, values)
    if not trace and ctx.reference and expected is not None and not expected:
        print("  digests (not yet recorded for this workload):", json.dumps(ctx.reference))
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result["summary"] = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": statistics.median(result["metrics"][metric]), "unit": unit}
            for metric, unit in declared.items()
        },
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and vocab 512, for the self-test")
    parser.add_argument("--corrupt-model", action="store_true",
                        help="truncate the model files set-up leaves, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "convtok" / "cli.py").is_file():
        print(f"perfbench: no convtok sources under {SRC}", file=sys.stderr)
        return 2
    if args.corrupt_model and args.workload not in ("eval-warm", "encode-long"):
        parser.error("--corrupt-model needs a workload whose set-up leaves models")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        try:
            summaries[name] = run_one(name, args.seed, args.seconds, bool(args.trace),
                                      args.smoke, args.corrupt_model)["summary"]
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}.{metric}": v for name, s in summaries.items()
                        for metric, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
