"""Command-line interface.

Subcommands: ingest, train, encode, fertility, exp1, exp2, exp3, report,
samples. Successful runs exit 0 and print a JSON summary line; failures exit
nonzero with a machine-readable JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    RoleFilter,
    SplitSpec,
    corpus_format,
    extract_text,
    load_conversations,
    load_documents,
)
from .errors import ConvtokError, InvalidEncoding, UsageError, read_utf8, write_atomic
from .experiments import (
    DEFAULT_VOCAB_SIZE,
    ExperimentSpec,
    emit_plot_data,
    load_report,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    write_report,
)
from .metrics import fertility, language_groups
from .samples import DEFAULT_CONV_BYTES, DEFAULT_DOC_BYTES, DEFAULT_SEED, write_sample_corpora
from .tokenizer import PretokenScheme, TokenizerMode, encode, load_model, save_model
from .trainer import TrainConfig, train_bpe

EXPERIMENTS = {"exp1": run_experiment1, "exp2": run_experiment2, "exp3": run_experiment3}


def _emit(obj: dict) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def _load_corpus_texts(path: str, fmt: str, role_filter: str) -> list[str]:
    """Texts from a corpus path that is either conversations or documents."""
    if fmt == "auto":
        fmt = corpus_format(path)
    if fmt == "conversations":
        return extract_text(load_conversations(path), RoleFilter(role_filter))
    return list(load_documents(path))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> None:
    summary: dict = {}
    if args.conversations:
        conversations = load_conversations(args.conversations)
        summary["conversations"] = len(conversations)
        summary["languages"] = {
            language: len(subset) for language, subset in language_groups(conversations, 0)
        }
        if args.out:
            lines = (json.dumps({
                "id": r.id,
                "model": r.model_name,
                "language": r.language,
                "turns": [{"role": role, "content": content} for role, content in r.turns],
            }, ensure_ascii=False, separators=(",", ":")) + "\n" for r in conversations.records)
            summary["out"] = str(write_atomic(args.out, "".join(lines).encode("utf-8")))
    if args.documents:
        summary["documents"] = len(load_documents(args.documents))
    if not summary:
        raise ConvtokError("nothing to ingest: pass --conversations and/or --documents")
    _emit(summary)


def _cmd_train(args) -> None:
    corpus = _load_corpus_texts(args.corpus, args.format, args.role_filter)
    config = TrainConfig(
        vocab_size=args.vocab_size,
        mode=TokenizerMode(args.mode),
        scheme=PretokenScheme(args.scheme),
        min_pair_frequency=args.min_pair_frequency,
    )
    model = train_bpe(corpus, config)
    save_model(model, args.out)
    _emit({"out": args.out, "vocab_size": len(model.vocab), "merges": len(model.merges)})


def _cmd_encode(args) -> None:
    model = load_model(args.model)
    if args.text is not None:
        # non-UTF-8 argv bytes arrive as lone surrogates
        text = args.text
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidEncoding(f"--text: {exc}") from exc
    else:
        text = read_utf8(args.input or sys.stdin.buffer)
    ids = encode(model, text)
    if args.count_only:
        _emit({"n_tokens": len(ids)})
    else:
        print(json.dumps(ids))


def _cmd_fertility(args) -> None:
    model = load_model(args.model)
    texts = _load_corpus_texts(args.input, args.format, args.role_filter)
    result = fertility(model, texts)
    _emit({
        "n_tokens": result.n_tokens,
        "n_words": result.n_words,
        "fertility": round(result.fertility, 6),
    })


def _experiment_spec(args) -> ExperimentSpec:
    return ExperimentSpec(
        conversations_path=Path(args.conversations),
        documents_path=Path(args.documents),
        output_dir=Path(args.out),
        split=SplitSpec(train_fraction=args.train_fraction, seed=args.seed),
        base_model_path=Path(args.base_model) if args.base_model else None,
        role_filters=tuple(dict.fromkeys(RoleFilter(f) for f in args.role_filter))
        if args.role_filter
        else ExperimentSpec.role_filters,
        vocab_size=args.vocab_size,
        mode=TokenizerMode(args.mode),
        scheme=PretokenScheme(args.scheme),
        min_pair_frequency=args.min_pair_frequency,
        language_threshold=args.threshold,
        doc_sample_bytes=args.doc_sample_bytes,
    )


def _cmd_experiment(args) -> None:
    spec = _experiment_spec(args)
    report = EXPERIMENTS[args.command](spec)
    # models live under <out>/models and are shared by exp1/exp2/exp3;
    # report files get a subdirectory per experiment so they never clobber
    out = Path(args.out) / report.experiment
    files = write_report(report, out) + emit_plot_data(report, out)
    _emit({
        "experiment": report.experiment,
        "rows": len(report.rows),
        "config_hash": report.provenance.config_hash,
        "files": [str(p) for p in files],
    })


def _cmd_report(args) -> None:
    report = load_report(args.report)
    out = Path(args.out)
    files = write_report(report, out) + emit_plot_data(report, out)
    _emit({"experiment": report.experiment, "files": [str(p) for p in files]})


def _cmd_samples(args) -> None:
    docs_path, convs_path = write_sample_corpora(
        args.out, seed=args.seed, doc_bytes=args.doc_bytes, conv_bytes=args.conv_bytes
    )
    _emit({"documents": str(docs_path), "conversations": str(convs_path)})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a UsageError, so that it leaves as one JSON
    line like every other failure; subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _add_model_config_args(parser: argparse.ArgumentParser) -> None:
    # the defaults are TrainConfig's, which ExperimentSpec shares
    parser.add_argument("--mode", choices=[m.value for m in TokenizerMode],
                        default=TrainConfig.mode.value)
    parser.add_argument("--scheme", choices=[s.value for s in PretokenScheme],
                        default=TrainConfig.scheme.value)
    parser.add_argument("--vocab-size", type=int, default=DEFAULT_VOCAB_SIZE)
    parser.add_argument("--min-pair-frequency", type=int, default=TrainConfig.min_pair_frequency)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convtok",
        description="Train and evaluate conversation-optimized BPE tokenizers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate corpora and report statistics")
    p.add_argument("--conversations")
    p.add_argument("--documents")
    p.add_argument("--out", help="write normalized conversation JSONL here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="train a tokenizer on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["auto", "conversations", "documents"], default="auto")
    p.add_argument("--role-filter", choices=[f.value for f in RoleFilter], default="both")
    _add_model_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="encode text with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--text")
    p.add_argument("--input", help="read text from this file (default: stdin)")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("fertility", help="tokens per word of a model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["auto", "conversations", "documents"], default="auto")
    p.add_argument("--role-filter", choices=[f.value for f in RoleFilter], default="both")
    p.set_defaults(func=_cmd_fertility)

    for name, help_text in (
        ("exp1", "baseline fertility: documents vs conversations"),
        ("exp2", "retrain on conversations, measure reduction on held-out split"),
        ("exp3", "retrained tokenizers back on the document corpus"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--conversations", required=True)
        p.add_argument("--documents", required=True)
        p.add_argument("--base-model")
        p.add_argument("--seed", type=int, default=SplitSpec.seed)
        p.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction)
        p.add_argument("--threshold", type=int, default=ExperimentSpec.language_threshold,
                       help="per-language rows need more conversations than this")
        p.add_argument("--doc-sample-bytes", type=int, default=ExperimentSpec.doc_sample_bytes)
        p.add_argument("--role-filter", action="append",
                       choices=[f.value for f in RoleFilter],
                       help="repeatable; default: user, assistant, both")
        _add_model_config_args(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="regenerate CSV and plot files from report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("samples", help="write deterministic sample corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--doc-bytes", type=int, default=DEFAULT_DOC_BYTES)
    p.add_argument("--conv-bytes", type=int, default=DEFAULT_CONV_BYTES)
    p.set_defaults(func=_cmd_samples)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (ConvtokError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
