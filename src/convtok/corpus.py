"""Conversation and document corpora: loading, filtering, deterministic splits.

Conversation files are JSONL, one object per line:

    {"id": str, "model": str, "language": str,
     "turns": [{"role": "user"|"assistant", "content": str}, ...]}

A record with no ``id`` field and a ``conversation_id`` field is read with
the public LMSYS-Chat-1M field names instead (``conversation_id``,
``conversation``). Document corpora are plain UTF-8 text (one document per
line) or JSONL with a ``text`` field. :func:`corpus_format` tells the formats
apart from the file itself.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from pathlib import Path

from .errors import ConfigError, EmptyCorpus, InvalidEncoding, MalformedRecord, parse_json, read_utf8

logger = logging.getLogger(__name__)

_ROLES = ("user", "assistant")


class RoleFilter(str, Enum):
    USER_ONLY = "user"
    ASSISTANT_ONLY = "assistant"
    BOTH = "both"


@dataclass(frozen=True)
class ConversationRecord:
    id: str
    model_name: str
    turns: tuple[tuple[str, str], ...]  # (role, content), in conversation order
    language: str


@dataclass(frozen=True)
class ConversationSet:
    records: tuple[ConversationRecord, ...]

    def __post_init__(self):
        if len({r.id for r in self.records}) != len(self.records):
            raise ValueError("record ids must be unique within a set")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters. Assignment is keyed on record ids, so a
    split is stable under re-ordering of the input file."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _read_lines(path: str | Path) -> list[str]:
    # A line ends at "\n" only, less one trailing "\r": U+2028, a form feed
    # and the other breaks str.splitlines() knows are content, as they are
    # inside a JSON string.
    return [line.removesuffix("\r") for line in read_utf8(path).split("\n")]


def _utf8_clean(value: str, line_number: int) -> str:
    # json.loads accepts lone surrogates via \uDxxx escapes; reject them here
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidEncoding(f"content is not valid UTF-8: {exc}", line_number) from exc
    return value


def _require(obj: dict, key: str, line_number: int):
    if key not in obj:
        raise MalformedRecord(line_number, f"missing field {key!r}")
    return obj[key]


def _parse_record(obj: dict, line_number: int) -> ConversationRecord:
    if "id" not in obj and "conversation_id" in obj:
        record_id = _require(obj, "conversation_id", line_number)
        turns_raw = _require(obj, "conversation", line_number)
    else:
        record_id = _require(obj, "id", line_number)
        turns_raw = _require(obj, "turns", line_number)
    model_name = _require(obj, "model", line_number)
    language = _require(obj, "language", line_number)

    if not isinstance(record_id, str) or not record_id:
        raise MalformedRecord(line_number, "id must be a non-empty string")
    if not isinstance(model_name, str):
        raise MalformedRecord(line_number, "model must be a string")
    if not isinstance(language, str) or not language:
        raise MalformedRecord(line_number, "language must be a non-empty string")
    if not isinstance(turns_raw, list) or not turns_raw:
        raise MalformedRecord(line_number, "turns must be a non-empty list")

    turns: list[tuple[str, str]] = []
    for turn in turns_raw:
        if not isinstance(turn, dict):
            raise MalformedRecord(line_number, "each turn must be an object")
        role = turn.get("role")
        content = turn.get("content")
        if role not in _ROLES:
            raise MalformedRecord(line_number, f"turn role must be user or assistant, got {role!r}")
        if not isinstance(content, str):
            raise MalformedRecord(line_number, "turn content must be a string")
        turns.append((role, _utf8_clean(content, line_number)))

    return ConversationRecord(
        id=record_id,
        model_name=model_name,
        turns=tuple(turns),
        language=language.lower(),
    )


def _sniff_format(lines: list[str]) -> str:
    """``conversations``, ``jsonl`` or ``text``, decided by the first leading
    non-blank line that parses as JSON. A line that does not parse is passed
    over only if it starts with ``{`` (a damaged record); any other makes the
    file plain text, as does a first JSON value that names no known field."""
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        obj = parse_json(line, partial(MalformedRecord, line_number), default=None)
        if obj is None and line.startswith("{"):
            continue
        if isinstance(obj, dict):
            if "turns" in obj or "conversation_id" in obj:
                return "conversations"
            if "text" in obj:
                return "jsonl"
        return "text"
    return "text"


def corpus_format(path: str | Path) -> str:
    """The format of a corpus file: ``conversations``, ``jsonl`` (documents
    in a ``text`` field) or ``text`` (one document per line)."""
    return _sniff_format(_read_lines(path))


def load_conversations(path: str | Path) -> ConversationSet:
    """Parse a conversation corpus, aborting on the first malformed line.

    Language tags are lowercased but otherwise taken verbatim from the file
    (no language detection). Blank lines are ignored.
    """
    records: list[ConversationRecord] = []
    seen_ids: set[str] = set()
    for line_number, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, partial(MalformedRecord, line_number))
        if not isinstance(obj, dict):
            raise MalformedRecord(line_number, "each line must hold a JSON object")
        record = _parse_record(obj, line_number)
        if record.id in seen_ids:
            raise MalformedRecord(line_number, f"duplicate record id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    logger.info("loaded %d conversations from %s", len(records), path)
    return ConversationSet(records=tuple(records))


def load_documents(path: str | Path) -> tuple[str, ...]:
    """Load a document corpus, skipping blank lines: JSONL objects with a
    ``text`` field if :func:`corpus_format` says so, else one document per line."""
    lines = _read_lines(path)
    if _sniff_format(lines) != "jsonl":
        documents = [line for line in lines if line.strip()]
    else:
        documents = []
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            obj = parse_json(line, partial(MalformedRecord, line_number))
            if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
                raise MalformedRecord(line_number, "expected an object with a string 'text' field")
            text = _utf8_clean(obj["text"], line_number)
            if text.strip():
                documents.append(text)
    if not documents:
        raise EmptyCorpus(f"no documents in {path}")
    logger.info("loaded %d documents from %s", len(documents), path)
    return tuple(documents)


# ---------------------------------------------------------------------------
# Splitting and filtering
# ---------------------------------------------------------------------------

def _keyed_hash(key: str, seed: int) -> int:
    digest = hashlib.blake2b(
        key.encode("utf-8"), key=seed.to_bytes(8, "little"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def train_id_set(ids: list[str], spec: SplitSpec) -> set[str]:
    """Ids assigned to the train side: the round(fraction * N) ids with the
    smallest keyed hashes. Exact sizes, platform-independent, order-stable."""
    n_train = int(round(Fraction(spec.train_fraction) * len(ids)))
    ranked = sorted(ids, key=lambda i: (_keyed_hash(i, spec.seed), i))
    return set(ranked[:n_train])


def split(conversations: ConversationSet, spec: SplitSpec) -> tuple[ConversationSet, ConversationSet]:
    """Partition a conversation set into train and test, per conversation.

    Deterministic in (record ids, seed); both sides preserve input order.
    """
    if not conversations.records:
        raise EmptyCorpus("cannot split an empty conversation set")
    train_ids = train_id_set([r.id for r in conversations.records], spec)
    train = tuple(r for r in conversations.records if r.id in train_ids)
    test = tuple(r for r in conversations.records if r.id not in train_ids)
    return ConversationSet(records=train), ConversationSet(records=test)


def extract_text(conversations: ConversationSet, role_filter: RoleFilter) -> list[str]:
    """Turn contents matching the filter, in record order then turn order.

    Contents are used as-is: no normalization, no lowercasing.
    """
    texts: list[str] = []
    for record in conversations.records:
        for role, content in record.turns:
            if role_filter is RoleFilter.BOTH or role == role_filter.value:
                texts.append(content)
    return texts

