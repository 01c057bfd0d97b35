"""End-to-end experiment pipeline and report emission.

Three experiments, mirroring a fixed evaluation protocol:

1. Fertility of a document-trained baseline on documents versus chat text
   (whole conversations, user turns only, assistant turns only).
2. Retrain the baseline's configuration on the train split of the chat
   corpus (per role filter) and measure token reduction on the held-out
   split, plus a per-language breakdown.
3. Run the retrained tokenizers back on the document corpus to measure the
   cost outside the chat domain (reductions may be negative).

Reports are deterministic: the same spec and corpora produce byte-identical
report files, and every number is recomputable from the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__ as _tool_version
from .corpus import (
    RoleFilter,
    SplitSpec,
    extract_text,
    load_conversations,
    load_documents,
    split,
    train_id_set,
)
from .errors import (
    ConfigError,
    ConvtokError,
    IntegrityError,
    InvalidEncoding,
    parse_json,
    read_utf8,
    write_atomic,
)
from .metrics import FertilityResult, fertility, language_groups, reduction
from .tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    load_model,
    model_to_bytes,
)
from .trainer import TrainConfig, retrain_like, train_bpe

logger = logging.getLogger(__name__)

ALL_FILTERS = (RoleFilter.USER_ONLY, RoleFilter.ASSISTANT_ONLY, RoleFilter.BOTH)
DEFAULT_DOC_SAMPLE_BYTES = 8 << 20
DEFAULT_VOCAB_SIZE = 8192
EXPERIMENT_IDS = ("exp1", "exp2", "exp3")

_CSV_COLUMNS = ["scope", "tokens_base", "tokens_opt", "reduction_pct",
                "n_words", "fertility_base", "fertility_opt"]


@dataclass(frozen=True)
class ExperimentSpec:
    conversations_path: Path
    documents_path: Path
    output_dir: Path
    split: SplitSpec = SplitSpec()
    base_model_path: Path | None = None
    role_filters: tuple[RoleFilter, ...] = ALL_FILTERS
    vocab_size: int = DEFAULT_VOCAB_SIZE
    mode: TokenizerMode = TrainConfig.mode
    scheme: PretokenScheme = TrainConfig.scheme
    min_pair_frequency: int = TrainConfig.min_pair_frequency
    language_threshold: int = 1000
    doc_sample_bytes: int = DEFAULT_DOC_SAMPLE_BYTES

    def __post_init__(self):
        if not self.role_filters:
            raise ConfigError("at least one role filter is required")


@dataclass(frozen=True, kw_only=True)
class ScopeRow:
    """One line of a metrics table, its fields in report.json key order.
    ``filter`` names the optimized model's role filter; base-only rows
    (experiment 1) leave it and the opt fields unset."""

    scope: str
    filter: str | None = None
    tokens_base: int
    tokens_opt: int | None = None
    reduction_pct: float | None = None
    n_words: int
    fertility_base: float
    fertility_opt: float | None = None
    conversation_count: int | None = None


@dataclass(frozen=True)
class Provenance:
    tool_version: str
    config_hash: str
    conversations_sha256: str
    documents_sha256: str


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    rows: tuple[ScopeRow, ...]
    provenance: Provenance

    def to_json_bytes(self) -> bytes:
        return json.dumps(asdict(self), ensure_ascii=False, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentReport":
        """Inverse of :meth:`to_json_bytes`; keys that name no field are ignored."""
        return ExperimentReport(
            experiment=obj["experiment"],
            rows=tuple(_from_fields(ScopeRow, r) for r in obj["rows"]),
            provenance=_from_fields(Provenance, obj["provenance"]),
        )


def _from_fields(cls, obj: dict):
    return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


def load_report(path: str | Path) -> ExperimentReport:
    """Parse a report.json. Raises InvalidEncoding for bytes that are not
    UTF-8 and IntegrityError for anything that is not a report."""
    obj = parse_json(read_utf8(path), lambda msg: IntegrityError(f"not a report file: {path}: {msg}"))
    try:
        report = ExperimentReport.from_dict(obj)
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"not a report file: {path}: {exc!r}") from exc
    if report.experiment not in EXPERIMENT_IDS:
        raise IntegrityError(f"unknown experiment id in {path}: {report.experiment!r}")
    if report.experiment == "exp2" and not report.rows:
        raise IntegrityError(f"exp2 report without rows: {path}")
    # the report files format every comparison row's filter and reduction
    required = () if report.experiment == "exp1" else ("filter", "reduction_pct")
    _check_types(report.provenance, (), f"provenance of {path}")
    for i, row in enumerate(report.rows):
        _check_types(row, required, f"row {i} of {path}")
    return report


def _check_types(record, required: tuple[str, ...], where: str) -> None:
    """IntegrityError unless each field of a parsed dataclass holds a value of
    its declared type (an int counts as a float, a bool as neither) and the
    ``required`` fields are not None."""
    for name, hint in get_type_hints(type(record)).items():
        nullable = name not in required
        allowed = tuple(t for t in get_args(hint) or (hint,) if nullable or t is not type(None))
        if float in allowed:
            allowed += (int,)
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise IntegrityError(f"bad {name} in {where}: {value!r}")


def _round_fert(value: float) -> float:
    return round(value, 6)


def _round_pct(value: float) -> float:
    # percentages are reported to one decimal place
    return round(value, 1)


def _sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workspace: corpora, splits, and cached models for one spec
# ---------------------------------------------------------------------------

def sample_documents(documents: list[str], max_bytes: int) -> list[str]:
    """Leading documents up to a byte budget (at least one if any exist)."""
    out: list[str] = []
    total = 0
    for doc in documents:
        if out and total >= max_bytes:
            break
        out.append(doc)
        total += len(doc.encode("utf-8"))
    return out


class Workspace:
    """Loads corpora, derives splits, pretokenizes each text scope once and
    trains or loads the models a spec needs. Models are cached under
    ``<output_dir>/models`` keyed by a config hash, so experiments reuse them."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.conversations = load_conversations(spec.conversations_path)
        self.documents = load_documents(spec.documents_path)
        self.conv_train, self.conv_test = split(self.conversations, spec.split)
        doc_ids = [str(i) for i in range(len(self.documents))]
        train_ids = train_id_set(doc_ids, spec.split)
        self.docs_train = [d for i, d in enumerate(self.documents) if str(i) in train_ids]
        self.docs_test = [d for i, d in enumerate(self.documents) if str(i) not in train_ids]
        self._models: dict[str, TokenizerModel] = {}
        self._tables: dict[str, PieceTable] = {}
        corpus_digests = {
            "conversations_sha256": _sha256_file(spec.conversations_path),
            "documents_sha256": _sha256_file(spec.documents_path),
        }
        self.provenance = Provenance(
            tool_version=_tool_version,
            config_hash=self._config_hash(corpus_digests),
            **corpus_digests,
        )

    def _config_hash(self, corpus_digests: dict[str, str]) -> str:
        spec = self.spec
        payload = {
            **corpus_digests,
            "base_model_sha256": (
                _sha256_file(spec.base_model_path) if spec.base_model_path else None
            ),
            "train_fraction": repr(spec.split.train_fraction),
            "seed": spec.split.seed,
            "role_filters": [f.value for f in spec.role_filters],
            "vocab_size": spec.vocab_size,
            "mode": spec.mode.value,
            "scheme": spec.scheme.value,
            "min_pair_frequency": spec.min_pair_frequency,
            "language_threshold": spec.language_threshold,
            "doc_sample_bytes": spec.doc_sample_bytes,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @property
    def models_dir(self) -> Path:
        return Path(self.spec.output_dir) / "models"

    def _model_path(self, name: str) -> Path:
        return self.models_dir / f"{name}.json"

    def _cache_valid(self) -> bool:
        manifest = self.models_dir / "manifest.json"
        if not manifest.exists():
            return False
        try:
            recorded = parse_json(read_utf8(manifest), IntegrityError)
        except (InvalidEncoding, IntegrityError):
            return False
        return isinstance(recorded, dict) and recorded.get("config_hash") == self.provenance.config_hash

    def _store(self, name: str, model: TokenizerModel) -> None:
        if not self._cache_valid():
            # models from a different configuration must not survive the
            # manifest update, or later lookups would load them as current
            for stale in self.models_dir.glob("*.json"):
                stale.unlink()
        write_atomic(self._model_path(name), model_to_bytes(model))
        manifest = json.dumps({"config_hash": self.provenance.config_hash}, separators=(",", ":"))
        write_atomic(self.models_dir / "manifest.json", manifest.encode("utf-8"))

    def _get(self, name: str, build) -> TokenizerModel:
        model = self._models.get(name)
        if model is None:
            path = self._model_path(name)
            if self._cache_valid() and path.exists():
                model = load_model(path)
                logger.info("loaded cached model %s", path)
            else:
                model = build()
                self._store(name, model)
                logger.info("trained model %s (vocab %d)", name, len(model.vocab))
            self._models[name] = model
        return model

    def base_model(self) -> TokenizerModel:
        spec = self.spec

        def build() -> TokenizerModel:
            if spec.base_model_path is not None:
                return load_model(spec.base_model_path)
            corpus = sample_documents(self.docs_train, spec.doc_sample_bytes)
            config = TrainConfig(
                vocab_size=spec.vocab_size,
                mode=spec.mode,
                scheme=spec.scheme,
                min_pair_frequency=spec.min_pair_frequency,
            )
            return train_bpe(corpus, config)

        return self._get("base", build)

    def retrained(self, role_filter: RoleFilter) -> TokenizerModel:
        base = self.base_model()

        def build() -> TokenizerModel:
            corpus = self.table(f"train:{role_filter.value}")
            return retrain_like(base, corpus, min_pair_frequency=self.spec.min_pair_frequency)

        return self._get(f"retrained_{role_filter.value}", build)

    def table(self, scope: str) -> PieceTable:
        """Piece table of a scope in the base model's scheme: ``train:<role>``,
        or on the test side ``documents``, ``all``, ``<role>``, ``language:<tag>``."""
        if scope not in self._tables:
            self._tables[scope] = self._build_table(scope)
        return self._tables[scope]

    def _build_table(self, scope: str) -> PieceTable:
        if scope in ("all", "train:both"):
            prefix = scope.removesuffix("all").removesuffix("both")
            return self.table(f"{prefix}user") + self.table(f"{prefix}assistant")
        if scope == "documents":
            texts = self.docs_test
        elif scope.startswith("language:"):
            subset = dict(language_groups(self.conv_test, 0))[scope.removeprefix("language:")]
            texts = extract_text(subset, RoleFilter.BOTH)
        else:
            side, _, role = scope.rpartition(":")
            texts = extract_text(self.conv_train if side == "train" else self.conv_test, RoleFilter(role))
        return PieceTable.of(texts, self.base_model().scheme)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _fertility_row(model: TokenizerModel, scope: str, table: PieceTable) -> ScopeRow:
    result = fertility(model, table)
    return ScopeRow(
        scope=scope,
        filter=None,
        tokens_base=result.n_tokens,
        n_words=result.n_words,
        fertility_base=_round_fert(result.fertility),
    )


def _comparison_row(
    base: TokenizerModel,
    opt: TokenizerModel,
    scope: str,
    filter_name: str,
    table: PieceTable,
    conversation_count: int | None = None,
) -> ScopeRow:
    red = reduction(base, opt, table)
    fert_base = FertilityResult(n_tokens=red.tokens_base, n_words=table.n_words)
    fert_opt = FertilityResult(n_tokens=red.tokens_opt, n_words=table.n_words)
    return ScopeRow(
        scope=scope,
        filter=filter_name,
        tokens_base=red.tokens_base,
        tokens_opt=red.tokens_opt,
        reduction_pct=_round_pct(red.reduction_pct),
        n_words=table.n_words,
        fertility_base=_round_fert(fert_base.fertility),
        fertility_opt=_round_fert(fert_opt.fertility),
        conversation_count=conversation_count,
    )


def run_experiment1(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Baseline fertility on documents versus conversation scopes."""
    ws = workspace or Workspace(spec)
    base = ws.base_model()
    rows = tuple(
        _fertility_row(base, scope, ws.table(scope))
        for scope in ("documents", "all", "user", "assistant")
    )
    return ExperimentReport(experiment="exp1", rows=rows, provenance=ws.provenance)


def run_experiment2(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Retrain per role filter; reduction on the held-out conversation split."""
    ws = workspace or Workspace(spec)
    train_ids = {r.id for r in ws.conv_train.records}
    test_ids = {r.id for r in ws.conv_test.records}
    if train_ids & test_ids:
        raise ConvtokError("train/test split integrity violated")

    base = ws.base_model()
    scopes = [("all", None)] + [
        (f"language:{language}", len(subset))
        for language, subset in language_groups(ws.conv_test, spec.language_threshold)
    ]
    rows = tuple(
        _comparison_row(base, ws.retrained(f), scope, f.value, ws.table(scope), count)
        for f in spec.role_filters
        for scope, count in scopes
    )
    return ExperimentReport(experiment="exp2", rows=rows, provenance=ws.provenance)


def run_experiment3(spec: ExperimentSpec, workspace: Workspace | None = None) -> ExperimentReport:
    """Retrained tokenizers evaluated back on the document corpus."""
    ws = workspace or Workspace(spec)
    base = ws.base_model()
    rows = tuple(
        _comparison_row(base, ws.retrained(f), "documents", f.value, ws.table("documents"))
        for f in spec.role_filters
    )
    return ExperimentReport(experiment="exp3", rows=rows, provenance=ws.provenance)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _metrics_cells(row: ScopeRow) -> list:
    return [
        row.scope,
        row.tokens_base,
        "" if row.tokens_opt is None else row.tokens_opt,
        "" if row.reduction_pct is None else f"{row.reduction_pct:.1f}",
        row.n_words,
        f"{row.fertility_base:.6f}",
        "" if row.fertility_opt is None else f"{row.fertility_opt:.6f}",
    ]


def write_report(report: ExperimentReport, output_dir: str | Path) -> list[Path]:
    """Write report.json plus one metrics CSV per base/optimized comparison."""
    out = Path(output_dir)
    written = [write_atomic(out / "report.json", report.to_json_bytes())]
    filters = [f for f in dict.fromkeys(r.filter for r in report.rows) if f is not None]
    if not filters:
        rows = [_metrics_cells(r) for r in report.rows]
        written.append(write_atomic(out / "report.csv", _csv_bytes(_CSV_COLUMNS, rows)))
    for name in filters:
        rows = [_metrics_cells(r) for r in report.rows if r.filter == name]
        written.append(write_atomic(out / f"report_{name}.csv", _csv_bytes(_CSV_COLUMNS, rows)))
    return written


def emit_plot_data(report: ExperimentReport, output_dir: str | Path) -> list[Path]:
    """Plot-ready tables: fertility bars, reduction bars per role filter,
    per-language bars, and document-change bars. One CSV per chart."""
    out = Path(output_dir)
    written: list[Path] = []

    if report.experiment == "exp1":
        path = out / "plot_fertility.csv"
        rows = [[r.scope, f"{r.fertility_base:.6f}"] for r in report.rows]
        written.append(write_atomic(path, _csv_bytes(["scope", "fertility"], rows)))
    elif report.experiment == "exp2":
        path = out / "plot_reduction.csv"
        rows = [
            [r.filter, f"{r.reduction_pct:.1f}"]
            for r in report.rows
            if r.scope == "all"
        ]
        written.append(write_atomic(path, _csv_bytes(["filter", "reduction_pct"], rows)))

        filters = [f for f in dict.fromkeys(r.filter for r in report.rows) if f is not None]
        lang_filter = RoleFilter.BOTH.value if RoleFilter.BOTH.value in filters else filters[0]
        lang_rows = [
            [r.scope.removeprefix("language:"), r.conversation_count, f"{r.reduction_pct:.1f}"]
            for r in report.rows
            if r.filter == lang_filter and r.scope.startswith("language:")
        ]
        header = ["language", "conversations", "reduction_pct"]
        written.append(write_atomic(out / "plot_languages.csv", _csv_bytes(header, lang_rows)))
    elif report.experiment == "exp3":
        path = out / "plot_documents_change.csv"
        rows = [[r.filter, f"{r.reduction_pct:.1f}"] for r in report.rows]
        written.append(write_atomic(path, _csv_bytes(["filter", "reduction_pct"], rows)))
    else:
        raise ValueError(f"unknown experiment id: {report.experiment!r}")
    return written
