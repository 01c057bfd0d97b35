"""End-to-end experiment pipeline and report emission.

Three experiments, mirroring a fixed evaluation protocol:

1. Fertility of a document-trained baseline on documents versus chat text
   (whole conversations, user turns only, assistant turns only).
2. Retrain the baseline's configuration on the train split of the chat
   corpus, once per role filter (user, assistant, both), and measure token
   reduction on the held-out split, plus a per-language breakdown.
3. Run the retrained tokenizers back on the document corpus to measure the
   cost outside the chat domain (reductions may be negative).

Reports are deterministic: the same spec and corpora produce byte-identical
report files, and every number is recomputable from the inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import suppress
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

from . import __version__ as _tool_version
from .config import (
    DEFAULT_SCHEME,
    DEFAULT_VOCAB_SIZE,
    PretokenScheme,
    RoleFilter,
    SplitSpec,
    TokenizerMode,
    TrainConfig,
)
from .errors import (
    ConfigError,
    IntegrityError,
    InvalidEncoding,
    checked,
    json_bytes,
    parse_json,
    read_utf8,
    sha256_file,
    write_atomic,
)
from .metrics import FertilityResult, ReductionResult

ALL_FILTERS = (RoleFilter.USER_ONLY, RoleFilter.ASSISTANT_ONLY, RoleFilter.BOTH)
DEFAULT_DOC_SAMPLE_BYTES = 8 << 20

# the metrics CSV's columns, each a ScopeRow field, with the format of its cells
_CSV_COLUMNS = {"scope": "", "tokens_base": "", "tokens_opt": "", "reduction_pct": ".1f",
                "n_words": "", "fertility_base": ".6f", "fertility_opt": ".6f"}


@checked
class ExperimentSpec(NamedTuple):
    conversations_path: Path
    documents_path: Path
    output_dir: Path
    split: SplitSpec = SplitSpec()
    base_model_path: Path | None = None
    vocab_size: int = DEFAULT_VOCAB_SIZE
    mode: TokenizerMode = TrainConfig._field_defaults["mode"]
    scheme: PretokenScheme = DEFAULT_SCHEME
    min_pair_frequency: int = TrainConfig._field_defaults["min_pair_frequency"]
    language_threshold: int = 1000
    doc_sample_bytes: int = DEFAULT_DOC_SAMPLE_BYTES

    def _check(self) -> ExperimentSpec:
        if self.doc_sample_bytes < 1:
            raise ConfigError(f"doc_sample_bytes must be at least 1, got {self.doc_sample_bytes}")
        if self.language_threshold < 0:
            raise ConfigError(
                f"language_threshold must be at least 0, got {self.language_threshold}")
        return self


class ScopeRow(NamedTuple):
    """One line of a metrics table, its fields in report.json key order.
    ``filter`` names the optimized model's role filter; base-only rows
    (experiment 1) leave it and the opt fields None."""

    scope: str
    filter: str | None
    tokens_base: int
    tokens_opt: int | None
    reduction_pct: float | None
    n_words: int
    fertility_base: float
    fertility_opt: float | None = None
    conversation_count: int | None = None


class Provenance(NamedTuple):
    tool_version: str
    config_hash: str
    conversations_sha256: str
    documents_sha256: str


class ExperimentReport(NamedTuple):
    experiment: str
    rows: tuple[ScopeRow, ...]
    provenance: Provenance

    def to_json_bytes(self) -> bytes:
        obj = {"experiment": self.experiment, "rows": [row._asdict() for row in self.rows],
               "provenance": self.provenance._asdict()}
        return json_bytes(obj)


def _read_cache(path: Path, **header) -> dict | None:
    """The object of a cache file whose ``header`` fields hold the given
    values. None for a missing file, bytes that are not UTF-8, text that is
    not JSON or is nested too deep, a value that is not an object, or a
    header field that does not match."""
    try:
        obj = parse_json(read_utf8(path), IntegrityError)
    except (FileNotFoundError, InvalidEncoding, IntegrityError):
        return None
    if isinstance(obj, dict) and all(obj.get(key) == value for key, value in header.items()):
        return obj
    return None


# ---------------------------------------------------------------------------
# Workspace: the model cache of one spec
# ---------------------------------------------------------------------------

class Workspace:
    """The model cache of one spec under ``<output_dir>/models``, keyed by
    a config hash over the settled config and the inputs' bytes: the
    models, one test-split file of the held-out language counts and each
    test cell's word count and piece occurrences, and per model a lengths
    file of its token count of each test cell, bound to the model file's
    digest. A cache of another hash is emptied on construction, after both
    corpora loaded and split. The config and scheme are the spec's or, with
    ``base_model_path``, that file's. A warm run reads every count from
    these files and hashes each model file without parsing it; what misses,
    the :attr:`builder` builds, trains or counts as the workspace asks, and
    the workspace writes every file."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        # an input is hashed before it is known whether it must be parsed, so
        # it is read twice; a pipe would give the second read nothing. stat
        # opens nothing, and opening a FIFO would block.
        for path in (spec.base_model_path, spec.conversations_path, spec.documents_path):
            if path is not None and Path(path).exists() and not Path(path).is_file():
                raise ConfigError(f"{path} is not a regular file: an experiment reads each "
                                  "input twice, to hash it and to parse it")
        # a bad flag or base model file fails before any corpus is read
        base = None
        if spec.base_model_path is not None:
            base = _tokenizer().load_model(spec.base_model_path)
        self.config = TrainConfig(
            vocab_size=len(base.vocab) if base else spec.vocab_size,
            mode=base.mode if base else spec.mode,
            min_pair_frequency=spec.min_pair_frequency,
        )
        self.scheme = base.scheme if base else spec.scheme
        # by model name: the model (trained, or parsed from its cache file or
        # the --base-model file), the digest of the file it was loaded from or
        # saved to, and its token count of each test scope
        self._models = {} if base is None else {"base": base}
        self._model_sha256 = {} if base is None else {"base": sha256_file(spec.base_model_path)}
        self._tokens: dict[str, dict[str, int]] = {}
        try:
            corpus_digests = {
                "conversations_sha256": sha256_file(spec.conversations_path),
                "documents_sha256": sha256_file(spec.documents_path),
            }
        except OSError:
            # an unreadable corpus fails with the error parsing gives it
            self.builder.load_corpora()
            raise
        self.provenance = Provenance(
            tool_version=_tool_version,
            config_hash=self._config_hash(corpus_digests),
            **corpus_digests,
        )
        manifest = self.models_dir / "manifest.json"
        if _read_cache(manifest, config_hash=self.provenance.config_hash) is None:
            self.builder.load_corpora()
            # no model, test split or lengths of another configuration may
            # outlive the manifest update
            for pattern in ("*.json", "lengths/*.json"):
                for stale in self.models_dir.glob(pattern):
                    stale.unlink()
            write_atomic(manifest, json_bytes({"config_hash": self.provenance.config_hash}))
        if base is not None and not self._model_path("base").exists():
            _tokenizer().save_model(base, self._model_path("base"))

    @cached_property
    def builder(self):
        """The :class:`convtok.build.Builder` of this spec and scheme, imported
        on the first miss, so a warm run loads neither corpus parser nor trainer."""
        from .build import Builder

        return Builder(self.spec, self.scheme)

    def _config_hash(self, corpus_digests: dict[str, str]) -> str:
        # the settled values: with a base model file, the spec's unused
        # vocab_size, mode and scheme must not move the hash
        spec = self.spec
        payload = {
            **corpus_digests,
            "base_model_sha256": self._model_sha256.get("base"),
            "train_fraction": repr(spec.split.train_fraction),
            "seed": spec.split.seed,
            # every run compares all three filters, so this key is a constant;
            # it stays so that existing caches and reports keep their hash
            "role_filters": [f.value for f in ALL_FILTERS],
            "vocab_size": self.config.vocab_size,
            "mode": self.config.mode.value,
            "scheme": self.scheme.value,
            "min_pair_frequency": self.config.min_pair_frequency,
            "language_threshold": spec.language_threshold,
            "doc_sample_bytes": spec.doc_sample_bytes,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @property
    def models_dir(self) -> Path:
        return Path(self.spec.output_dir) / "models"

    def _model_path(self, name: str) -> Path:
        # model names are fixed words, never a string from a corpus
        return self.models_dir / f"{name}.json"

    def _model_digest(self, name: str) -> str:
        """The sha256 of model ``name``'s cache file. A model the cache lacks
        is trained and written first; a cached one is not parsed."""
        digest = self._model_sha256.get(name)
        if digest is None:
            path = self._model_path(name)
            if not path.exists():
                config = self.config
                if name != "base":
                    # a base that stopped early caps its retrained models at its own size
                    config = config._replace(vocab_size=len(self._model("base").vocab))
                model = self._models[name] = self.builder.train(_train_scope(name), config)
                _tokenizer().save_model(model, path)
            digest = self._model_sha256[name] = sha256_file(path)
        return digest

    def _model(self, name: str):
        """Model ``name``: trained, or parsed from its cache file, on first use."""
        self._model_digest(name)
        model = self._models.get(name)
        if model is None:
            model = self._models[name] = _tokenizer().load_model(self._model_path(name))
        return model

    def base_model(self):
        return self._model("base")

    def retrained(self, role_filter: RoleFilter):
        return self._model(f"retrained_{role_filter.value}")

    def languages(self) -> list[tuple[str, int]]:
        """``language_counts`` of the held-out conversations at the spec's
        threshold, taken after the split's integrity check, from the
        test-split file."""
        return self._test_counts[0]

    def n_words(self, scope: str) -> int:
        """Words of a test scope, summed over the test-split file's cells."""
        cells = self._test_counts[1]
        return _scope_sums(cells, [words for _, _, words, _ in cells])[scope]

    @cached_property
    def _test_counts(self) -> tuple[list[tuple[str, int]], list[list]]:
        """The language counts and test cells of the test-split file, read on
        first use; when it holds no valid split, the table files it replaced
        are removed and the builder's cells are written."""
        path = self.models_dir / "test.json"
        split = _test_split(_read_cache(path, config_hash=self.provenance.config_hash))
        if split is None:
            for stale in self.models_dir.glob("tables/*.json"):
                stale.unlink()
            with suppress(OSError):  # no such directory, or one holding other files
                (self.models_dir / "tables").rmdir()
            obj = {"config_hash": self.provenance.config_hash, "languages": self.builder.languages,
                   "cells": self._built_cells}
            write_atomic(path, json_bytes(obj))
            split = _test_split(obj)
        return split

    def token_count(self, name: str, scope: str) -> int:
        """Tokens of model ``name`` (``base`` or ``retrained_<role>``) on a
        test scope that a report row reads, summed over its count of each
        test cell. Those are read from its lengths file on first use, one int
        per cell and each at least the cell's piece occurrences; else every
        cell is counted and the file written."""
        tokens = self._tokens.get(name)
        if tokens is None:
            cells = self._test_counts[1]
            path = self.models_dir / "lengths" / f"{name}.json"
            cached = _read_cache(path, model_sha256=self._model_digest(name))
            lengths = (cached or {}).get("lengths")
            # each piece occurrence is at least one token
            if not (isinstance(lengths, list) and len(lengths) == len(cells) and all(
                    type(n) is int and n >= cell[3] for n, cell in zip(lengths, cells))):
                lengths = self.builder.count(self._model(name), self._cell_tables())
                write_atomic(path, json_bytes({"model_sha256": self._model_sha256[name],
                                               "lengths": lengths}))
            tokens = self._tokens[name] = _scope_sums(cells, lengths)
        return tokens[scope]

    @cached_property
    def _built_cells(self) -> list[list]:
        """``[role, tag, words, piece occurrences]`` of each of the builder's test cells."""
        return [[role, tag, table.n_words, sum(table.pieces.values())]
                for role, tag, table in self.builder.test_cells]

    def _cell_tables(self) -> list:
        """Each test cell's table; IntegrityError unless test.json holds the builder's cells."""
        if self._built_cells != self._test_counts[1]:
            raise IntegrityError(f"{self.models_dir / 'test.json'} does not hold the test "
                                 "split of these corpora: delete it to build it again")
        return [table for *_, table in self.builder.test_cells]

    def _train_side_by_side(self, names: list[str]) -> None:
        """Train and count side by side the models among ``names`` that the
        cache lacks, when two or more do and the process may fork: a child
        runs :meth:`token_count` for each but the first, which this process
        runs; what a failed child did not write is made here, as when serial."""
        missing = [n for n in names
                   if n not in self._model_sha256 and not self._model_path(n).exists()]
        if len(missing) < 2:
            return
        from .build import may_fork, side_by_side

        if may_fork():
            # what every child reads or runs is loaded once, before the forks,
            # so no child parses a file or builds a table of its own
            self._cell_tables()
            for scope in map(_train_scope, missing):
                self.builder.table(scope)
            self._model("base")
            side_by_side([partial(self.token_count, name, "all") for name in missing])


def _tokenizer():
    """The tokenizer, imported when a model file is read or written."""
    from . import tokenizer

    return tokenizer


def _train_scope(name: str) -> str:
    """The table that model ``name`` (``base`` or ``retrained_<role>``) trains on."""
    return "train:documents" if name == "base" else f"train:{name.removeprefix('retrained_')}"


def _test_split(obj: dict | None) -> tuple[list[tuple[str, int]], list[list]] | None:
    """The language counts and test cells of a test-split file's object, or
    None unless they are ``[tag, count]`` pairs (distinct tags, positive
    counts) and the ``[role, tag, words, piece occurrences]`` (counts at
    least 0) of the ``Builder.test_cells`` of those tags."""
    languages, cells = (obj or {}).get("languages"), (obj or {}).get("cells")
    try:
        tags = [tag for tag, n in languages
                if type(tag) is str and tag and type(n) is int and n > 0]
    except (TypeError, ValueError):  # not a list of pairs
        return None
    keys = [["documents", ""], *([role, tag] for role in ("user", "assistant")
                                 for tag in [*tags, ""])]
    if not (type(languages) is list and len(set(tags)) == len(tags) == len(languages)
            and type(cells) is list and len(cells) == len(keys) and all(
                type(cell) is list and cell[:2] == key and len(cell) == 4
                and all(type(n) is int and n >= 0 for n in cell[2:])
                for cell, key in zip(cells, keys))):
        return None
    return [(tag, n) for tag, n in languages], cells


def _scope_sums(cells: list[list], values: list[int]) -> dict[str, int]:
    """The sum of ``values``, one per test cell, over each test scope: the
    documents cell counts toward ``documents``, and a turn cell toward its
    role, ``all`` and, for a counted language's tag, ``language:<tag>``."""
    sums: dict[str, int] = {}
    for (role, tag, *_), value in zip(cells, values, strict=True):
        scopes = [role] if role == "documents" else [role, "all"]
        for scope in scopes + ([f"language:{tag}"] if tag else []):
            sums[scope] = sums.get(scope, 0) + value
    return sums


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _workspace(spec: ExperimentSpec, workspace: Workspace | None) -> Workspace:
    # a report's rows follow ``spec`` and its provenance follows the workspace
    if workspace is not None and workspace.spec != spec:
        raise ConfigError("the workspace was built for a different experiment spec")
    return workspace or Workspace(spec)


def _row(
    ws: Workspace, scope: str, filter: str | None = None, conversation_count: int | None = None
) -> ScopeRow:
    """The metrics of the base model on a scope's table and, given a role
    ``filter``, of that filter's retrained model against it. Reductions are
    rounded to one decimal place and fertilities to six; EmptyText from the
    reduction comes before NoWords."""
    n_words = ws.n_words(scope)
    tokens_base = ws.token_count("base", scope)
    red = None
    if filter is not None:
        red = ReductionResult(tokens_base, ws.token_count(f"retrained_{filter}", scope))
    fert = FertilityResult(tokens_base, n_words)
    return ScopeRow(
        scope=scope,
        filter=filter,
        tokens_base=fert.n_tokens,
        tokens_opt=red.tokens_opt if red else None,
        reduction_pct=round(red.reduction_pct, 1) if red else None,
        n_words=n_words,
        fertility_base=round(fert.fertility, 6),
        fertility_opt=round(red.tokens_opt / n_words, 6) if red else None,
        conversation_count=conversation_count,
    )


def _compare(
    experiment: str, ws: Workspace, scopes: list[tuple[str, int | None]]
) -> ExperimentReport:
    """Each role filter's retrained model against the base on every
    ``(scope, conversation_count)``, grouped by filter."""
    ws._train_side_by_side([f"retrained_{f.value}" for f in ALL_FILTERS])
    rows = [_row(ws, scope, f.value, count) for f in ALL_FILTERS for scope, count in scopes]
    return _report(experiment, ws, rows)


def _report(experiment: str, ws: Workspace, rows: list[ScopeRow]) -> ExperimentReport:
    return ExperimentReport(experiment=experiment, rows=tuple(rows), provenance=ws.provenance)


def run_experiment1(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Baseline fertility on documents versus conversation scopes."""
    ws = _workspace(spec, workspace)
    rows = [_row(ws, scope) for scope in ("documents", "all", "user", "assistant")]
    return _report("exp1", ws, rows)


def run_experiment2(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Retrain per role filter; reduction on the held-out conversation split."""
    ws = _workspace(spec, workspace)
    languages = [(f"language:{tag}", n) for tag, n in ws.languages()]
    return _compare("exp2", ws, [("all", None)] + languages)


def run_experiment3(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Retrained tokenizers evaluated back on the document corpus."""
    return _compare("exp3", _workspace(spec, workspace), [("documents", None)])


# every experiment by id, each one CLI subcommand whose help line is its run
# function's docstring
EXPERIMENTS = {"exp1": run_experiment1, "exp2": run_experiment2, "exp3": run_experiment3}


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _metrics_cells(row: ScopeRow) -> list[str]:
    # the fields a base-only row leaves unset are empty cells
    cells = ((getattr(row, name), spec) for name, spec in _CSV_COLUMNS.items())
    return ["" if value is None else format(value, spec) for value, spec in cells]


def _reduction_bars(rows) -> tuple[list[str], list[list]]:
    return ["filter", "reduction_pct"], [[r.filter, f"{r.reduction_pct:.1f}"] for r in rows]


def write_report(report: ExperimentReport, output_dir: str | Path) -> list[Path]:
    """Write every file of a report and return their paths in this order:
    report.json, one metrics CSV per base/optimized comparison,
    ``report_<filter>.csv`` (``report.csv`` when no row has a filter), then
    the plot CSVs of :func:`emit_plot_data`. Every file's bytes are built
    before the first is written, so a report that cannot be written, such as
    one with an unknown experiment id, leaves no file behind."""
    files = {"report.json": report.to_json_bytes()}
    for name in dict.fromkeys(r.filter for r in report.rows) or [None]:
        rows = [_metrics_cells(r) for r in report.rows if r.filter == name]
        csv_name = "report.csv" if name is None else f"report_{name}.csv"
        files[csv_name] = _csv_bytes(list(_CSV_COLUMNS), rows)
    files |= _plot_files(report)
    return [write_atomic(Path(output_dir) / name, data) for name, data in files.items()]


def emit_plot_data(report: ExperimentReport, output_dir: str | Path) -> list[Path]:
    """Plot-ready tables, one CSV per chart: fertility bars (exp1), reduction
    bars per role filter and per-language bars (exp2), and document-change
    bars (exp3). The language bars are the ``both`` filter's."""
    out = Path(output_dir)
    return [write_atomic(out / name, data) for name, data in _plot_files(report).items()]


def _plot_files(report: ExperimentReport) -> dict[str, bytes]:
    """The bytes of each plot CSV of :func:`emit_plot_data` by file name;
    ValueError for an unknown experiment id."""
    if report.experiment == "exp1":
        fertilities = [[r.scope, f"{r.fertility_base:.6f}"] for r in report.rows]
        tables = {"plot_fertility.csv": (["scope", "fertility"], fertilities)}
    elif report.experiment == "exp2":
        languages = [
            [r.scope.removeprefix("language:"), r.conversation_count, f"{r.reduction_pct:.1f}"]
            for r in report.rows
            if r.filter == RoleFilter.BOTH.value and r.scope.startswith("language:")
        ]
        tables = {
            "plot_reduction.csv": _reduction_bars(r for r in report.rows if r.scope == "all"),
            "plot_languages.csv": (["language", "conversations", "reduction_pct"], languages),
        }
    elif report.experiment == "exp3":
        tables = {"plot_documents_change.csv": _reduction_bars(report.rows)}
    else:
        raise ValueError(f"unknown experiment id: {report.experiment!r}")
    return {name: _csv_bytes(*table) for name, table in tables.items()}
