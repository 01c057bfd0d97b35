"""Traced in-process pass over every layer of ``src/convtok``.

Spans are recorded here, in the benchmark, around calls into the public
functions of each module (``samples``, ``corpus``, ``tokenizer``, ``trainer``,
``metrics``, ``experiments``, ``cli``). They carry name, start, end and parent,
stay in memory, and are written out when the run ends. Counters are recorded
at the same boundaries.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import (
    DEFAULT_SEED, SPLIT_SEED, Sizes, child_env, long_runs, read_records, subset_lines,
)

FILTERS = ("user", "assistant", "both")


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = value

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: Path, stamp: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp, "counts": self.counts,
                                 "self_s": self.self_times()}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _mb(n_bytes: int) -> float:
    return n_bytes / 1e6


def traced_pass(tracer: Tracer, work: Path, seed: int, sizes: Sizes) -> dict:
    """One pass through every layer on the workload's inputs.

    Returns the pass's metrics: seconds and rates per layer call, plus
    counters, which must repeat exactly from pass to pass.
    """
    from convtok import (
        ExperimentSpec, RoleFilter, SplitSpec, Workspace, decode, emit_plot_data, encode,
        extract_text, fertility, load_conversations, load_documents, load_model,
        pretokenize, reduction, run_experiment1, run_experiment2, run_experiment3,
        save_model, split, token_count, write_report,
    )
    from convtok.samples import write_sample_corpora
    from convtok.tokenizer import PretokenScheme, TokenizerMode

    m: dict[str, float] = {}
    span = tracer.span
    data = work / "data"

    with span("samples.generate") as s:
        pool_docs, pool_convs = write_sample_corpora(
            work / "pool", seed=DEFAULT_SEED, doc_bytes=2 * sizes.doc_bytes,
            conv_bytes=2 * sizes.conv_bytes)
    m["samples.generate_s"] = s["end"] - s["start"]
    with span("bench.subset"):
        data.mkdir(parents=True)
        docs_path, convs_path = data / "documents.txt", data / "conversations.jsonl"
        rng = random.Random(seed)
        subset_lines(pool_docs, docs_path, rng, sizes.doc_bytes)
        subset_lines(pool_convs, convs_path, rng, sizes.conv_bytes)

    with span("cli.startup") as s:
        subprocess.run([sys.executable, "-m", "convtok.cli", "--version"], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
    m["cli.startup_s"] = s["end"] - s["start"]

    with span("corpus.load_conversations") as s:
        conversations = load_conversations(convs_path)
    m["corpus.load_conversations_s"] = s["end"] - s["start"]
    with span("corpus.load_documents") as s:
        documents = load_documents(docs_path)
    m["corpus.load_documents_s"] = s["end"] - s["start"]
    loaded = convs_path.stat().st_size + docs_path.stat().st_size
    m["corpus.load_MBps"] = _mb(loaded) / (m["corpus.load_conversations_s"] + m["corpus.load_documents_s"])
    with span("corpus.split") as s:
        conv_train, conv_test = split(conversations, SplitSpec(train_fraction=0.8, seed=SPLIT_SEED))
    m["corpus.split_s"] = s["end"] - s["start"]
    with span("corpus.extract_text") as s:
        train_texts = extract_text(conv_train, RoleFilter.BOTH)
        test_texts = extract_text(conv_test, RoleFilter.BOTH)
    m["corpus.extract_text_s"] = s["end"] - s["start"]
    tracer.count("corpus.conversations", len(conversations))
    tracer.count("corpus.documents", len(documents))
    train_bytes = sum(len(t.encode("utf-8")) for t in train_texts)
    tracer.count("corpus.chat_train_bytes", train_bytes)

    with span("tokenizer.pretokenize") as s:
        pieces = [p for t in train_texts for p in pretokenize(t, PretokenScheme.CATEGORY_SPLIT)]
    m["tokenizer.pretokenize_MBps"] = _mb(train_bytes) / (s["end"] - s["start"])
    tracer.count("tokenizer.pieces_distinct", len(set(pieces)))
    tracer.count("tokenizer.piece_chars_max", max(len(p) for p in pieces))
    del pieces

    out = work / "out"
    spec = ExperimentSpec(
        conversations_path=convs_path, documents_path=docs_path, output_dir=out,
        split=SplitSpec(train_fraction=0.8, seed=SPLIT_SEED), vocab_size=sizes.vocab_size,
        mode=TokenizerMode.BYTE_LEVEL, scheme=PretokenScheme.CATEGORY_SPLIT,
        language_threshold=sizes.threshold,
    )
    # cold workspace: each trainer span covers training one model and
    # writing it to the workspace's model cache
    with span("experiments.workspace_init") as s:
        ws = Workspace(spec)
    init_s = [s["end"] - s["start"]]
    for name in ("base", *FILTERS):
        with span(f"trainer.train.{name}") as s:
            model = ws.base_model() if name == "base" else ws.retrained(RoleFilter(name))
        seconds = s["end"] - s["start"]
        merges = len(model.merges)
        m[f"trainer.train_s.{name}"] = seconds
        m[f"trainer.merges_per_s.{name}"] = merges / seconds
        tracer.count(f"trainer.merges.{name}", merges)
        tracer.count(f"trainer.vocab.{name}", len(model.vocab))

    # warm workspace: every model comes from the cache written above
    with span("experiments.workspace_init") as s:
        ws = Workspace(spec)
    init_s.append(s["end"] - s["start"])
    m["experiments.workspace_init_s"] = statistics.median(init_s)
    with span("experiments.model_cache_load") as s:
        base = ws.base_model()
        both = ws.retrained(RoleFilter.BOTH)
        for name in ("user", "assistant"):
            ws.retrained(RoleFilter(name))
    m["experiments.model_cache_load_s"] = s["end"] - s["start"]
    reports = []
    for exp, run in (("exp1", run_experiment1), ("exp2", run_experiment2), ("exp3", run_experiment3)):
        with span(f"experiments.{exp}_eval") as s:
            reports.append(run(spec, ws))
        m[f"experiments.{exp}_eval_s"] = s["end"] - s["start"]
    with span("experiments.write_report") as s:
        for report in reports:
            dest = work / "reports" / report.experiment
            write_report(report, dest)
            emit_plot_data(report, dest)
    m["experiments.write_report_s"] = s["end"] - s["start"]
    for report in reports:
        for row in report.rows:
            for value in (row.fertility_base, row.fertility_opt):
                if value is not None and value < 1:
                    raise AssertionError(f"{report.experiment} {row.scope}: fertility {value} < 1")

    model_path = work / "both.json"
    with span("tokenizer.save_model") as s:
        save_model(both, model_path)
    m["tokenizer.save_model_s"] = s["end"] - s["start"]
    with span("tokenizer.load_model") as s:
        fresh = load_model(model_path)
    m["tokenizer.load_model_s"] = s["end"] - s["start"]
    test_text = "\n".join(test_texts)
    test_mb = _mb(len(test_text.encode("utf-8")))
    with span("tokenizer.encode_cold") as s:
        encode(fresh, test_text)
    m["tokenizer.encode_cold_MBps"] = test_mb / (s["end"] - s["start"])
    with span("tokenizer.encode_warm") as s:
        encode(fresh, test_text)
    m["tokenizer.encode_warm_MBps"] = test_mb / (s["end"] - s["start"])

    with span("bench.long_text"):
        records = read_records(pool_convs)
        long_text = "\n".join(long_runs(records, random.Random(seed), sizes.long_run_chars))
    with span("tokenizer.encode_long") as s:
        ids = encode(fresh, long_text)
    m["tokenizer.encode_long_MBps"] = _mb(len(long_text.encode("utf-8"))) / (s["end"] - s["start"])
    with span("check.roundtrip"):
        if decode(fresh, ids) != long_text:
            raise AssertionError("decode(encode(T)) != T on the long-run text")

    with span("tokenizer.load_model"):
        fresh = load_model(model_path)
    with span("metrics.token_count.cold") as s:
        token_count(fresh, test_texts)
    m["metrics.token_count_s.cold"] = s["end"] - s["start"]
    with span("metrics.token_count.warm") as s:
        token_count(fresh, test_texts)
    m["metrics.token_count_s.warm"] = s["end"] - s["start"]
    with span("metrics.fertility") as s:
        fertility(base, test_texts)
    m["metrics.fertility_s"] = s["end"] - s["start"]
    with span("metrics.reduction") as s:
        red = reduction(base, both, test_texts)
    m["metrics.reduction_s"] = s["end"] - s["start"]
    tracer.count("metrics.tokens_base", red.tokens_base)
    tracer.count("metrics.tokens_opt.both", red.tokens_opt)
    return m
