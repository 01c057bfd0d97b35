"""Acceptance gate: one test per release criterion.

Each test exercises its criterion at the stated tolerance and records a
PASS/FAIL line that pytest prints in the terminal summary.
"""

import hashlib
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from convtok.corpus import ConversationRecord, RoleFilter, SplitSpec, split
from convtok.metrics import fertility, token_count
from convtok.samples import generate_corpora
from convtok.tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    base_alphabet,
    count_words,
    decode,
    encode,
)
from convtok.trainer import TrainConfig, train_bpe
from oracles import train_bpe_oracle

CAT = PretokenScheme.CATEGORY_SPLIT


def fuzz_text(rng, max_len=80):
    """Valid UTF-8 with mixed scripts, emoji, controls, and whitespace runs."""
    pools = [
        lambda: chr(rng.randrange(0x20, 0x7F)),
        lambda: chr(rng.randrange(0x20, 0x7F)),
        lambda: rng.choice(" \t\n   "),
        lambda: chr(rng.randrange(0xA0, 0x500)),
        lambda: chr(rng.randrange(0x4E00, 0x9FFF)),
        lambda: rng.choice("🎉🚀😀🧪🌍"),
        lambda: chr(rng.randrange(0x1, 0x20)),
        lambda: chr(rng.randrange(0x1F300, 0x1F600)),
    ]
    return "".join(rng.choice(pools)() for _ in range(rng.randrange(max_len)))


@pytest.fixture(scope="module")
def small_models():
    docs, lines = generate_corpora(seed=50, doc_bytes=25_000, conv_bytes=10_000)
    byte_model = train_bpe(PieceTable.of(docs, CAT),
                           TrainConfig(vocab_size=700, mode=TokenizerMode.BYTE_LEVEL))
    ascii_docs = [d.encode("ascii", "ignore").decode("ascii") for d in docs]
    char_model = train_bpe(
        PieceTable.of(ascii_docs, CAT),
        TrainConfig(vocab_size=700, mode=TokenizerMode.CHAR_LEVEL_FALLBACK),
    )
    return byte_model, char_model


def test_roundtrip_10k_fuzz_both_modes(record_criterion, small_models):
    rng = random.Random(20240917)
    strings = [fuzz_text(rng) for _ in range(10_000)]
    started = time.monotonic()
    failures = 0
    for model in small_models:
        for text in strings:
            if decode(model, encode(model, text)) != text:
                failures += 1
    elapsed = time.monotonic() - started
    record_criterion(
        "roundtrip: decode(encode(s)) == s, 10k strings, both modes",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, runtime={elapsed:.1f}s (limit 60s)",
    )


def test_exp2_determinism_across_full_runs(record_criterion, exp_runs):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    mismatches = []
    for name in ("base", "retrained_user", "retrained_assistant", "retrained_both"):
        a = exp_runs.run1 / "models" / f"{name}.json"
        b = exp_runs.run2 / "models" / f"{name}.json"
        if digest(a) != digest(b):
            mismatches.append(name)
    report_a = digest(exp_runs.run1 / "exp2" / "report.json")
    report_b = digest(exp_runs.run2 / "exp2" / "report.json")
    if report_a != report_b:
        mismatches.append("report.json")
    record_criterion(
        "determinism: two full exp2 runs are byte-identical",
        not mismatches,
        f"model+report hashes equal; mismatches={mismatches or 'none'}",
    )


def test_oracle_equivalence_on_random_corpora(record_criterion):
    rng = random.Random(8)
    started = time.monotonic()
    corpora = []
    for trial in range(10):
        docs, lines = generate_corpora(
            seed=9000 + trial, doc_bytes=9_000, conv_bytes=9_000
        )
        corpus = docs if trial % 2 == 0 else lines
        corpus = corpus[: max(1, len(corpus) // 1)]
        total = sum(len(t.encode("utf-8")) for t in corpus)
        assert total <= 32 * 1024, f"corpus {trial} exceeds 32 KiB: {total}"
        corpora.append(PieceTable.of(corpus, CAT))

    mismatches = 0
    for trial, corpus in enumerate(corpora):
        mode = TokenizerMode.BYTE_LEVEL if trial % 2 == 0 else TokenizerMode.CHAR_LEVEL_FALLBACK
        config = TrainConfig(
            vocab_size=700 if mode is TokenizerMode.BYTE_LEVEL else 900,
            mode=mode,
            min_pair_frequency=1 + trial % 2,
        )
        fast = train_bpe(corpus, config)
        slow = train_bpe_oracle(corpus, config)
        if fast.merges != slow.merges or fast.vocab != slow.vocab:
            mismatches += 1
    elapsed = time.monotonic() - started
    record_criterion(
        "oracle equivalence: optimized trainer == naive oracle on 10 corpora",
        mismatches == 0 and elapsed < 300.0,
        f"mismatches={mismatches}, runtime={elapsed:.1f}s (limit 300s)",
    )


def test_fertility_lower_bound(record_criterion, small_models, exp_runs):
    models = list(small_models) + [
        exp_runs.workspace.base_model(),
        exp_runs.workspace.retrained(RoleFilter.BOTH),
    ]
    fixtures = [
        "hello", "hello world", "  leading and trailing  ", "a\tb\nc",
        "¡números! 3.14 và 中文 слова", "while x < 10: x += 1", "🎉 party",
        "one", "word word", "ab12, cd",
    ]
    rng = random.Random(77)
    fuzzed = [t for t in (fuzz_text(rng) for _ in range(500)) if count_words(t) > 0]
    violations = 0
    checked = 0
    for model in models:
        for text in fixtures + fuzzed:
            if count_words(text) == 0:
                continue
            checked += 1
            if fertility(model, [text]).fertility < 1.0:
                violations += 1
    record_criterion(
        "fertility bound: >= 1.0 on every text with words, every model",
        violations == 0,
        f"{checked} (model, text) pairs checked, violations={violations}",
    )


def test_experiment1_direction(record_criterion, exp_runs):
    rows = {r.scope: r for r in exp_runs.exp1.rows}
    docs = rows["documents"].fertility_base
    convs = rows["all"].fertility_base
    record_criterion(
        "experiment 1 direction: fertility(documents) < fertility(conversations)",
        docs < convs,
        f"documents={docs:.4f} < conversations={convs:.4f}",
    )


def test_experiment2_direction(record_criterion, exp_runs):
    row = next(r for r in exp_runs.exp2.rows if r.scope == "all" and r.filter == "both")
    exact = 100.0 * (1.0 - row.tokens_opt / row.tokens_base)
    runtime = exp_runs.exp2_seconds
    record_criterion(
        "experiment 2 direction: both-filter reduction > 0 on held-out split",
        exact > 0.0 and runtime < 300.0,
        f"reduction={exact:.2f}% (expected band 3-20%), runtime={runtime:.1f}s (limit 300s)",
    )


def test_experiment3_magnitude(record_criterion, exp_runs):
    conv_row = next(r for r in exp_runs.exp2.rows if r.scope == "all" and r.filter == "both")
    doc_row = next(r for r in exp_runs.exp3.rows if r.filter == "both")
    conv_reduction = 100.0 * (1.0 - conv_row.tokens_opt / conv_row.tokens_base)
    doc_change = 100.0 * (1.0 - doc_row.tokens_opt / doc_row.tokens_base)
    record_criterion(
        "experiment 3 magnitude: |documents change| < conversations reduction",
        abs(doc_change) < conv_reduction,
        f"|{doc_change:.2f}%| < {conv_reduction:.2f}%",
    )


def test_readme_results_are_the_quick_starts(record_criterion, exp_runs):
    # exp_runs runs the quick start's settings, so README's Results tables
    # are rebuilt from it at no extra run cost
    def row(*cells):
        return "| " + " | ".join(cells) + " |"

    exp1 = exp_runs.exp1.rows
    reductions = [
        (label, [r for r in report.rows if r.scope == scope])
        for label, report, scope in [("exp2: held-out chat, all turns", exp_runs.exp2, "all"),
                                     ("exp3: held-out documents", exp_runs.exp3, "documents")]]
    tables = [
        row("exp1: base-model fertility on", *(r.scope for r in exp1)),
        row("tokens per word", *(f"{r.fertility_base:.3f}" for r in exp1)),
        row("reduction, %", *(r.filter for r in reductions[0][1])),
        *(row(label, *(f"{r.reduction_pct:.1f}" for r in rows)) for label, rows in reductions),
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [line for line in tables if line not in readme.split("\n")]
    record_criterion("README results: the quick start's exp1-exp3 numbers", not missing,
                     "rows missing from README: " + ("; ".join(missing) or "none"))


def _thousand_records():
    return tuple(
        ConversationRecord(
            id=f"rec-{i:04d}", model_name="m",
            turns=(("user", f"question {i}"), ("assistant", f"answer {i}")),
            language="english",
        )
        for i in range(1000)
    )


def test_split_integrity(record_criterion, tmp_path):
    conversations = _thousand_records()
    spec = SplitSpec(train_fraction=0.8, seed=123)
    train, test = split(conversations, spec)
    train_ids = {r.id for r in train}
    test_ids = {r.id for r in test}

    again_train, again_test = split(conversations, spec)
    stable = (train, test) == (again_train, again_test)

    # a fresh interpreter must agree (no dependence on hash randomization)
    script = (
        "import hashlib\n"
        "from convtok.corpus import partition, SplitSpec\n"
        "ids = [f'rec-{i:04d}' for i in range(1000)]\n"
        "train, _ = partition(ids, ids, SplitSpec(train_fraction=0.8, seed=123))\n"
        "print(hashlib.sha256(','.join(sorted(train)).encode()).hexdigest())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout.strip()
    local = hashlib.sha256(",".join(sorted(train_ids)).encode()).hexdigest()

    ok = (
        len(train) == 800
        and len(test) == 200
        and not (train_ids & test_ids)
        and train_ids | test_ids == {r.id for r in conversations}
        and stable
        and out == local
    )
    record_criterion(
        "split integrity: 800/200, disjoint, stable across runs",
        ok,
        f"sizes={len(train)}/{len(test)}, cross-process hash match={out == local}",
    )


def test_token_count_monotone_in_merges(record_criterion):
    docs, _ = generate_corpora(seed=31, doc_bytes=90_000, conv_bytes=1)
    full = train_bpe(PieceTable.of(docs, CAT), TrainConfig(vocab_size=256 + 600))
    assert len(full.merges) == 600
    base = list(base_alphabet(full.mode))
    counts = []
    for k in (0, 150, 300, 450, 600):
        vocab = base + [left + right for left, right in full.merges[:k]]
        truncated = TokenizerModel(
            mode=full.mode, scheme=full.scheme,
            vocab=tuple(vocab), merges=full.merges[:k],
        )
        counts.append(token_count(truncated, docs))
    non_increasing = all(a >= b for a, b in zip(counts, counts[1:]))
    record_criterion(
        "monotonicity: training-corpus token count non-increasing in merges",
        non_increasing,
        f"checkpoints 0/150/300/450/600 merges -> {counts}",
    )
