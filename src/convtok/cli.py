"""Command-line interface.

Subcommands: ingest, train, encode, fertility, samples and one per
experiment in ``experiments.EXPERIMENTS``. Successful runs exit 0 and print a
JSON summary line; failures exit nonzero with a machine-readable JSON error
line on stderr.

Each subcommand's parser and handler import the modules they use, and
``main`` builds only the parser of the subcommand it runs, so a command
imports no module it does not need.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ConvtokError, EmptyCorpus, UsageError, file_path, read_utf8, utf8_str, write_atomic,
)


def _emit(obj, stream=None) -> None:
    """One ASCII JSON line on ``stream`` (stdout by default), whatever its encoding."""
    print(json.dumps(obj), file=stream)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> None:
    from .corpus import conversation_line, language_counts, load_conversations, load_documents

    # a path flag given "" is a path, not an absent flag
    if args.out is not None and args.conversations is None:
        raise UsageError("convtok ingest: --out writes conversations and needs --conversations")
    summary: dict = {}
    if args.conversations is not None:
        conversations = load_conversations(args.conversations)
        summary["conversations"] = len(conversations)
        summary["languages"] = dict(language_counts(conversations, 0))
        if args.out is not None:
            lines = "".join(conversation_line(r) + "\n" for r in conversations)
            summary["out"] = str(write_atomic(args.out, lines.encode("utf-8")))
    if args.documents is not None:
        summary["documents"] = len(load_documents(args.documents))
    if not summary:
        raise ConvtokError("nothing to ingest: pass --conversations and/or --documents")
    _emit(summary)


def _cmd_train(args) -> None:
    from .corpus import RoleFilter, load_texts
    from .tokenizer import PieceTable, PretokenScheme, TokenizerMode, save_model
    from .trainer import TrainConfig, train_bpe

    # fail on a bad flag, then on an unusable --out, before the corpus is read
    config = TrainConfig(
        vocab_size=args.vocab_size,
        mode=TokenizerMode(args.mode),
        min_pair_frequency=args.min_pair_frequency,
    )
    scheme = PretokenScheme(args.scheme)
    file_path(args.out).parent.mkdir(parents=True, exist_ok=True)
    texts = load_texts(args.corpus, args.format, RoleFilter(args.role_filter))
    table = PieceTable.of(texts, scheme)
    if not table.pieces:
        raise EmptyCorpus(f"no text to train on in {args.corpus} (--role-filter {args.role_filter})")
    model = train_bpe(table, config)
    save_model(model, args.out)
    _emit({"out": args.out, "vocab_size": len(model.vocab), "merges": len(model.merges)})


def _cmd_encode(args) -> None:
    from .tokenizer import encode, load_model

    model = load_model(args.model)
    if args.text is not None:
        text = utf8_str(args.text, "--text")
    else:
        text = read_utf8(sys.stdin.buffer if args.input is None else args.input)
    ids = encode(model, text)
    if args.count_only:
        _emit({"n_tokens": len(ids)})
    else:
        _emit(ids)


def _cmd_fertility(args) -> None:
    from .corpus import RoleFilter, load_texts
    from .metrics import fertility
    from .tokenizer import load_model

    model = load_model(args.model)
    texts = load_texts(args.input, args.format, RoleFilter(args.role_filter))
    result = fertility(model, texts)
    _emit({
        "n_tokens": result.n_tokens,
        "n_words": result.n_words,
        "fertility": round(result.fertility, 6),
    })


def _experiment_spec(args):
    from .config import PretokenScheme, SplitSpec, TokenizerMode
    from .experiments import ExperimentSpec

    return ExperimentSpec(
        conversations_path=Path(args.conversations),
        documents_path=Path(args.documents),
        output_dir=Path(args.out),
        split=SplitSpec(train_fraction=args.train_fraction, seed=args.seed),
        base_model_path=None if args.base_model is None else Path(args.base_model),
        vocab_size=args.vocab_size,
        mode=TokenizerMode(args.mode),
        scheme=PretokenScheme(args.scheme),
        min_pair_frequency=args.min_pair_frequency,
        language_threshold=args.threshold,
        doc_sample_bytes=args.doc_sample_bytes,
    )


def _cmd_experiment(args) -> None:
    from .experiments import EXPERIMENTS, write_report

    spec = _experiment_spec(args)
    report = EXPERIMENTS[args.command](spec)
    # models live under <out>/models and are shared by exp1/exp2/exp3;
    # report files get a subdirectory per experiment so they never clobber
    files = write_report(report, Path(args.out) / report.experiment)
    _emit({
        "experiment": report.experiment,
        "rows": len(report.rows),
        "config_hash": report.provenance.config_hash,
        "files": [str(p) for p in files],
    })


def _cmd_samples(args) -> None:
    from .samples import write_sample_corpora

    docs_path, convs_path = write_sample_corpora(
        args.out, seed=args.seed, doc_bytes=args.doc_bytes, conv_bytes=args.conv_bytes
    )
    _emit({"documents": str(docs_path), "conversations": str(convs_path)})


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a UsageError, so that it leaves as one JSON
    line like every other failure, and takes no flag by a prefix of its name;
    subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _add_model_config_args(parser: argparse.ArgumentParser) -> None:
    from .config import (
        DEFAULT_SCHEME, DEFAULT_VOCAB_SIZE, PretokenScheme, TokenizerMode, TrainConfig,
    )

    # the defaults are ExperimentSpec's, which shares TrainConfig's mode and
    # min_pair_frequency
    defaults = TrainConfig._field_defaults
    parser.add_argument("--mode", choices=[m.value for m in TokenizerMode],
                        default=defaults["mode"].value)
    parser.add_argument("--scheme", choices=[s.value for s in PretokenScheme],
                        default=DEFAULT_SCHEME.value)
    parser.add_argument("--vocab-size", type=int, default=DEFAULT_VOCAB_SIZE)
    parser.add_argument("--min-pair-frequency", type=int, default=defaults["min_pair_frequency"])


def _add_ingest(sub) -> None:
    p = sub.add_parser("ingest", help="validate corpora and report statistics")
    p.add_argument("--conversations")
    p.add_argument("--documents")
    p.add_argument("--out", help="write normalized conversation JSONL here")
    p.set_defaults(func=_cmd_ingest)


def _add_train(sub) -> None:
    from .config import RoleFilter

    p = sub.add_parser("train", help="train a tokenizer on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["auto", "conversations", "documents"], default="auto")
    p.add_argument("--role-filter", choices=[f.value for f in RoleFilter], default="both")
    _add_model_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)


def _add_encode(sub) -> None:
    p = sub.add_parser("encode", help="encode text with a saved model")
    p.add_argument("--model", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--text")
    source.add_argument("--input", help="read text from this file (default: stdin)")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_encode)


def _add_fertility(sub) -> None:
    from .config import RoleFilter

    p = sub.add_parser("fertility", help="tokens per word of a model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["auto", "conversations", "documents"], default="auto")
    p.add_argument("--role-filter", choices=[f.value for f in RoleFilter], default="both")
    p.set_defaults(func=_cmd_fertility)


def _add_experiments(sub) -> None:
    from .config import SplitSpec
    from .experiments import EXPERIMENTS, ExperimentSpec

    split_defaults, spec_defaults = SplitSpec._field_defaults, ExperimentSpec._field_defaults
    for name, run in EXPERIMENTS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.add_argument("--conversations", required=True)
        p.add_argument("--documents", required=True)
        p.add_argument("--base-model")
        p.add_argument("--seed", type=int, default=split_defaults["seed"])
        p.add_argument("--train-fraction", type=float, default=split_defaults["train_fraction"])
        p.add_argument("--threshold", type=int, default=spec_defaults["language_threshold"],
                       help="per-language rows need more conversations than this")
        p.add_argument("--doc-sample-bytes", type=int, default=spec_defaults["doc_sample_bytes"])
        _add_model_config_args(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_experiment)


def _add_samples(sub) -> None:
    from .samples import DEFAULT_CONV_BYTES, DEFAULT_DOC_BYTES, DEFAULT_SEED

    p = sub.add_parser("samples", help="write deterministic sample corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--doc-bytes", type=int, default=DEFAULT_DOC_BYTES)
    p.add_argument("--conv-bytes", type=int, default=DEFAULT_CONV_BYTES)
    p.set_defaults(func=_cmd_samples)


# the subcommands other than the experiments, each with the function that adds its parser
_SUBCOMMANDS = {"ingest": _add_ingest, "train": _add_train, "encode": _add_encode,
                "fertility": _add_fertility, "samples": _add_samples}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The convtok parser. When ``command`` names a subcommand it holds only
    that subcommand's parser (every experiment's for an experiment id), so
    parsing imports only that subcommand's modules; otherwise, as for
    ``--help``, ``--version`` or an unknown word, it holds them all."""
    parser = _Parser(
        prog="convtok",
        description="Train and evaluate conversation-optimized BPE tokenizers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _SUBCOMMANDS:
        _SUBCOMMANDS[command](sub)
        return parser
    from .experiments import EXPERIMENTS

    if command in EXPERIMENTS:
        _add_experiments(sub)
        return parser
    for add in (*_SUBCOMMANDS.values(), _add_experiments):
        add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        args.func(args)
    except (ConvtokError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 1
    return 0


def script() -> int:
    """The ``convtok`` command: run ``main`` and return its exit code, after
    moving every object to the collector's permanent generation, so that the
    collections during interpreter shutdown do not walk every module's
    objects. Tests call ``main`` in their own process; only a process that
    is about to exit may freeze."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(script())
