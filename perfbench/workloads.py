"""Workload definitions, input generation and output checks for the benchmark.

Each workload is a closed loop with one client: ``Workload.iteration`` starts
one ``convtok`` command at a time as a child process, and the next command
starts only after the previous one has exited. All inputs come from the
workload seed through ``convtok samples`` and ``build_encode_text``. Every
command is timed twice: by the wall clock and by ``SteadyClock``, which
rescales wall time to a fixed CPU speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

DEFAULT_SEED = 20250601
SPLIT_SEED = 0
EXPERIMENTS = ("exp1", "exp2", "exp3")
COMMAND_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and model settings shared by every workload of one scale."""

    doc_bytes: int
    conv_bytes: int
    encode_chat_bytes: int
    long_run_chars: tuple[int, ...]
    vocab_size: int
    threshold: int


# The full scale of pipeline-cold, encode-long and the traced pass keeps one
# iteration under 3 s on a 2-core machine, so that a run holds a dozen or
# more iterations. At this size the user and assistant models stop early
# while the base and both models reach the requested vocabulary, the same
# shape the 2 MB / 8192 quick start has.
FULL = Sizes(
    doc_bytes=100_000,
    conv_bytes=100_000,
    encode_chat_bytes=100_000,
    # fixed lengths: encoding a run costs about its length squared, so
    # lengths drawn per seed would move the run's cost by 2x from seed to seed
    long_run_chars=(1000, 2000, 4000, 8000),
    vocab_size=2048,
    threshold=3,
)
# eval-warm times evaluation only, so its corpora must be large enough that
# evaluation, not the start-up of three interpreters, carries its time: at
# 1 MB each, exp1-exp3 take about 1.8 s of which start-up is about 0.3 s.
EVAL = Sizes(
    doc_bytes=1_000_000,
    conv_bytes=1_000_000,
    encode_chat_bytes=0,
    long_run_chars=(),
    vocab_size=2048,
    threshold=30,
)
# Corpora of a few KB for the self-test.
SMOKE = Sizes(
    doc_bytes=6_000,
    conv_bytes=6_000,
    encode_chat_bytes=3_000,
    long_run_chars=(1000, 1500),
    vocab_size=512,
    threshold=1,
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Steady time
# ---------------------------------------------------------------------------

# What ``probe`` gives on a quiet 2-core Intel Xeon (Sapphire Rapids, Python
# 3.11); steady seconds are wall seconds at that speed.
PROBE_REF_S = 0.0045


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of dict stores and integer
    arithmetic: the fastest of five rounds, so that an interrupt in one round
    does not count as a slow machine."""
    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(40_000):
            table[i & 1023] = total
            total += i * i % 7
        rounds.append(time.perf_counter() - start)
    return min(rounds)


class SteadyClock:
    """Elapsed time rescaled to a fixed CPU speed.

    On a shared machine the CPU speed a process gets can halve for seconds
    at a time, and CPU time moves with wall time, so neither stays steady
    from run to run. The clock runs ``probe`` at every lap, outside the laps
    themselves, and scales a lap's wall time by ``PROBE_REF_S`` over the mean
    of the probes on either side of it. A change to the program moves steady
    time as it moves wall time; a slow spell of the machine moves the probes
    with it and cancels out.
    """

    def __init__(self):
        self.probes = [probe()]
        self.wall_total = 0.0
        self.steady_total = 0.0
        self.mark = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """Wall and steady seconds since the previous lap."""
        wall = time.perf_counter() - self.mark
        self.probes.append(probe())
        steady = wall * 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])
        self.wall_total += wall
        self.steady_total += steady
        self.mark = time.perf_counter()
        return wall, steady


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class CommandResult:
    name: str
    wall_s: float
    steady_s: float
    rss_mib: float
    summary: dict | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_convtok(ctx: Context, args: list[str], name: str) -> CommandResult:
    """Run ``convtok <args>`` to completion in ``ctx.work``; time it on
    ``ctx.clock`` and read its peak RSS.

    ``os.wait4`` reaps the child so its own ``ru_maxrss`` is known. A timer
    kills a child that outlives ``COMMAND_TIMEOUT_S``.
    """
    cwd = ctx.work
    out_path = cwd / f".{name}.stdout"
    err_path = cwd / f".{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        ctx.clock.lap()  # the command gets a lap of its own
        proc = subprocess.Popen(
            [sys.executable, "-m", "convtok.cli", *args],
            stdout=out, stderr=err, cwd=cwd, env=child_env(),
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall, steady = ctx.clock.lap()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace").splitlines()
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
    result = CommandResult(name, wall, steady, usage.ru_maxrss / 1024.0, None)
    if proc.returncode != 0:
        result.error = f"exit {proc.returncode}: {stderr[-300:]}"
        return result
    try:
        summary = json.loads(stdout[-1]) if stdout else None
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict):
        result.error = "no JSON summary line on stdout"
    else:
        result.summary = summary
    return result


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def subset_lines(src: Path, dst: Path, rng: random.Random, size: int) -> None:
    """Write a seeded random subset of ``src``'s lines, about ``size`` bytes.

    Conversation lines are drawn language by language in their pool shares,
    so every seed gets the same language mix; a few Chinese conversations
    more or less would move a run's cost more than the seed's other choices.
    """
    lines = src.read_text(encoding="utf-8").splitlines()
    share = min(1.0, size / max(1, src.stat().st_size))
    groups: dict[str, list[str]] = {}
    for line in lines:
        language = json.loads(line)["language"] if src.suffix == ".jsonl" else ""
        groups.setdefault(language, []).append(line)
    kept: list[str] = []
    for language in sorted(groups):
        group = groups[language]
        rng.shuffle(group)
        kept += group[: max(1, round(share * len(group)))]
    rng.shuffle(kept)
    dst.write_text("\n".join(kept) + "\n", encoding="utf-8")


def write_inputs(ctx: Context, doc_bytes: int, conv_bytes: int) -> CommandResult:
    """Corpora for one run under ``ctx.data``.

    ``convtok samples`` writes a pool twice the requested sizes from the
    fixed ``DEFAULT_SEED``, and the workload seed picks a random subset of
    its documents and conversations. A seed of ``samples`` also redraws the
    generator's lexicons, which moves a run's cost by up to 40%; a subset of
    one pool keeps every seed's inputs alike in cost but still distinct.
    """
    pool = ctx.work / "pool"
    pool.mkdir(parents=True, exist_ok=True)
    result = run_convtok(
        ctx, ["samples", "--out", str(pool), "--seed", str(DEFAULT_SEED),
              "--doc-bytes", str(2 * doc_bytes), "--conv-bytes", str(2 * conv_bytes)],
        "samples",
    )
    if result.ok:
        data = ctx.data
        data.mkdir(exist_ok=True)
        rng = random.Random(ctx.seed)
        subset_lines(pool / "documents.txt", data / "documents.txt", rng, doc_bytes)
        subset_lines(pool / "conversations.jsonl", data / "conversations.jsonl", rng, conv_bytes)
    return result


def _letter_pools(records: list[dict]) -> list[str]:
    """Letters of Chinese turns and of English turns, each joined without
    spaces or punctuation, so that any slice is one unbroken piece."""
    cjk: list[str] = []
    latin: list[str] = []
    for record in records:
        language = record.get("language")
        if language not in ("chinese", "english"):
            continue
        target = cjk if language == "chinese" else latin
        for turn in record["turns"]:
            target.append("".join(ch for ch in turn["content"] if ch.isalpha()))
    return [pool for pool in ("".join(cjk), "".join(latin)) if len(pool) >= 64]


def long_runs(records: list[dict], rng: random.Random, lengths: tuple[int, ...]) -> list[str]:
    """Unbroken runs of the given lengths cut from the records' letters at
    seeded offsets, such as spaceless CJK paragraphs joined from Chinese turns.

    Runs alternate between CJK and Latin letters in a fixed order: a CJK
    character is three UTF-8 bytes, so a seeded choice of script would move
    the encode cost ninefold per run.
    """
    pools = _letter_pools(records)
    if not pools:
        raise ValueError("corpus has no Chinese or English turns to build long runs from")
    runs: list[str] = []
    for i, length in enumerate(lengths):
        pool = pools[i % len(pools)]
        start = rng.randrange(len(pool))
        runs.append((pool * (length // len(pool) + 2))[start:start + length])
    return runs


def build_encode_text(chat: list[dict], letters: list[dict], seed: int, chat_bytes: int,
                      long_run_chars: tuple[int, ...]) -> str:
    """Turns of ``chat`` up to ``chat_bytes``, with long unbroken runs cut from
    the letters of ``letters`` mixed in at seeded positions, one turn or run
    per line."""
    rng = random.Random(seed)
    lines: list[str] = []
    made = 0
    for record in chat:
        for turn in record["turns"]:
            if made >= chat_bytes:
                break
            lines.append(turn["content"])
            made += len(turn["content"].encode("utf-8")) + 1
    for run in long_runs(letters, rng, long_run_chars):
        lines.insert(rng.randrange(len(lines) + 1), run)
    return "\n".join(lines) + "\n"


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """State of one benchmark run of one workload."""

    work: Path
    seed: int
    sizes: Sizes
    expected: dict | None  # recorded digests, only at the default seed
    reference: dict = field(default_factory=dict)  # digests of the first iteration
    clock: SteadyClock = field(default_factory=SteadyClock)

    @property
    def data(self) -> Path:
        return self.work / "data"

    def check(self, result: CommandResult, key: str, value) -> None:
        """Compare an output digest with the run's first one and, at the
        default seed, with the recorded one; record any mismatch on ``result``."""
        first = self.reference.setdefault(key, value)
        if value != first:
            result.error = result.error or f"{key} differs from the run's first iteration"
        if self.expected is not None:
            recorded = self.expected.get(key)
            if recorded is not None and recorded != value:
                result.error = result.error or f"{key} differs from the recorded digest"


def _experiment_args(ctx: Context, exp: str, out: Path) -> list[str]:
    return [exp, "--conversations", str(ctx.data / "conversations.jsonl"),
            "--documents", str(ctx.data / "documents.txt"),
            "--vocab-size", str(ctx.sizes.vocab_size), "--seed", str(SPLIT_SEED),
            "--threshold", str(ctx.sizes.threshold), "--mode", "byte_level",
            "--scheme", "category_split", "--out", str(out)]


def check_report(ctx: Context, result: CommandResult, out: Path, exp: str) -> None:
    if not result.ok:
        return
    path = out / exp / "report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        result.error = f"unreadable {exp} report: {exc}"
        return
    for row in report["rows"]:
        for key in ("fertility_base", "fertility_opt"):
            if row.get(key) is not None and row[key] < 1:
                result.error = f"{exp} row {row['scope']} has {key} {row[key]} < 1"
                return
    ctx.check(result, f"report.{exp}", sha256_file(path))


def check_models(ctx: Context, result: CommandResult, models: Path) -> None:
    if not result.ok:
        return
    for path in sorted(models.glob("*.json")):
        ctx.check(result, f"model.{path.stem}", sha256_file(path))


class Workload:
    """One benchmark workload: set-up commands and one closed-loop iteration."""

    name = ""
    sizes = FULL
    setup_repeats = 3

    def setup(self, ctx: Context) -> list[CommandResult]:
        return [write_inputs(ctx, ctx.sizes.doc_bytes, ctx.sizes.conv_bytes)]

    def iteration(self, ctx: Context, index: int) -> list[CommandResult]:
        raise NotImplementedError

    def model_files(self, ctx: Context) -> list[Path]:
        """Model files the set-up leaves for the iterations to use."""
        return []

    def input_bytes(self, ctx: Context) -> int:
        return 0


def run_pipeline(ctx: Context, out: Path) -> list[CommandResult]:
    results = []
    for exp in EXPERIMENTS:
        result = run_convtok(ctx, _experiment_args(ctx, exp, out), exp)
        check_report(ctx, result, out, exp)
        results.append(result)
    return results


class PipelineCold(Workload):
    name = "pipeline-cold"

    def iteration(self, ctx, index):
        out = ctx.work / f"run{index}"
        results = run_pipeline(ctx, out)
        check_models(ctx, results[-1], out / "models")
        shutil.rmtree(out, ignore_errors=True)
        return results


class EvalWarm(Workload):
    name = "eval-warm"
    sizes = EVAL
    setup_repeats = 2

    def setup(self, ctx):
        results = super().setup(ctx)
        out = ctx.work / "warm"
        shutil.rmtree(out, ignore_errors=True)
        # exp2 trains and caches all four models; output checks belong to
        # the timed iterations, which redo its evaluation
        results.append(run_convtok(ctx, _experiment_args(ctx, "exp2", out), "exp2"))
        return results

    def iteration(self, ctx, index):
        out = ctx.work / "warm"
        results = run_pipeline(ctx, out)
        check_models(ctx, results[-1], out / "models")
        return results

    def model_files(self, ctx):
        return [ctx.work / "warm" / "models" / "base.json"]


class EncodeLong(Workload):
    name = "encode-long"

    def setup(self, ctx):
        sizes = ctx.sizes
        results = [write_inputs(ctx, sizes.doc_bytes, 2 * sizes.conv_bytes)]
        if not results[0].ok:
            return results
        # the model trains on half of the conversations and the encode text
        # comes from the other half, which it has not seen; each language is
        # halved, so that both halves hold Chinese turns
        train_lines: list[str] = []
        records: list[dict] = []
        seen: dict[str, int] = {}
        for line in (ctx.data / "conversations.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            seen[record["language"]] = seen.get(record["language"], 0) + 1
            if seen[record["language"]] % 2:
                train_lines.append(line)
            else:
                records.append(record)
        train = ctx.data / "train.jsonl"
        train.write_text("\n".join(train_lines) + "\n", encoding="utf-8")
        # the runs come from the whole pool, which every seed shares: a half
        # subset holds only a few Chinese turns, and their letters would move
        # the encode cost by a third from seed to seed
        text = build_encode_text(records, read_records(ctx.work / "pool" / "conversations.jsonl"),
                                 ctx.seed, sizes.encode_chat_bytes, sizes.long_run_chars)
        self.text_path(ctx).write_text(text, encoding="utf-8")
        results.append(run_convtok(
            ctx, ["train", "--corpus", str(train), "--role-filter", "both",
             "--mode", "byte_level", "--scheme", "category_split",
             "--vocab-size", str(sizes.vocab_size), "--out", str(self.model_path(ctx))],
            "train"))
        return results

    def model_path(self, ctx):
        return ctx.work / "model.json"

    def text_path(self, ctx):
        return ctx.data / "encode.txt"

    def iteration(self, ctx, index):
        model, text = str(self.model_path(ctx)), str(self.text_path(ctx))
        encode = run_convtok(ctx, ["encode", "--model", model, "--input", text, "--count-only"],
                             "encode")
        if encode.ok:
            ctx.check(encode, "encode.n_tokens", encode.summary.get("n_tokens"))
        fert = run_convtok(ctx, ["fertility", "--model", model, "--input", text,
                                 "--format", "documents"], "fertility")
        if fert.ok:
            if not fert.summary.get("fertility", 0) >= 1:
                fert.error = f"fertility {fert.summary.get('fertility')} < 1"
            ctx.check(fert, "fertility", fert.summary)
        if index == 0 and encode.ok:
            ctx.check(encode, "model.encode", sha256_file(self.model_path(ctx)))
        return [encode, fert]

    def model_files(self, ctx):
        return [self.model_path(ctx)]

    def input_bytes(self, ctx):
        return self.text_path(ctx).stat().st_size


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PipelineCold(), EvalWarm(), EncodeLong())
}
