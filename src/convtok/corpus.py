"""Conversation and document corpora: loading, splits, role filters, language counts.

Conversation files are JSONL, one object per line:

    {"id": str, "model": str, "language": str,
     "turns": [{"role": "user"|"assistant", "content": str}, ...]}

:func:`conversation_line` writes that native form and is the only writer of
it. A record with no ``id`` field and a ``conversation_id`` field is read with
the public LMSYS-Chat-1M field names instead (``conversation_id``,
``conversation``). Document corpora are plain UTF-8 text (one document per
line) or JSONL with a ``text`` field. :func:`load_texts` tells the formats
apart from the file itself.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .config import RoleFilter, SplitSpec
from .errors import EmptyCorpus, MalformedRecord, parse_json, read_utf8, utf8_str

_ROLES = ("user", "assistant")


class ConversationRecord(NamedTuple):
    id: str
    model_name: str
    turns: tuple[tuple[str, str], ...]  # (role, content), in conversation order
    language: str


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _read_lines(path: str | Path) -> list[str]:
    # A line ends at "\n" only, less one trailing "\r": U+2028, a form feed
    # and the other breaks str.splitlines() knows are content, as they are
    # inside a JSON string.
    return [line.removesuffix("\r") for line in read_utf8(path).split("\n")]


def _json_objects(lines: list[str]):
    """``(line number, object)`` for each non-blank line; a line that is not
    a JSON object is MalformedRecord naming it."""
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = parse_json(line, partial(MalformedRecord, line_number))
        if not isinstance(obj, dict):
            raise MalformedRecord(line_number, "each line must hold a JSON object")
        yield line_number, obj


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

    where = f"line {line_number}"
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
        turns.append((role, utf8_str(content, where)))

    return ConversationRecord(
        id=utf8_str(record_id, where),
        model_name=utf8_str(model_name, where),
        turns=tuple(turns),
        language=utf8_str(language, where).lower(),
    )


def conversation_line(record: ConversationRecord) -> str:
    """The native JSON line of a record, without its newline: keys ``id``,
    ``model``, ``language``, ``turns``, non-ASCII text as is, compact
    separators. The line of a loaded record loads back to an equal record."""
    return json.dumps({
        "id": record.id,
        "model": record.model_name,
        "language": record.language,
        "turns": [{"role": role, "content": content} for role, content in record.turns],
    }, ensure_ascii=False, separators=(",", ":"))


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


def load_texts(path: str | Path, fmt: str, role_filter: RoleFilter) -> list[str]:
    """The texts of a corpus file, which is read once: the turn contents
    under ``role_filter`` of a ``conversations`` corpus, else the documents.
    ``fmt`` is ``conversations``, ``documents``, or ``auto`` to sniff it
    from the file's lines."""
    lines = _read_lines(path)
    if fmt == "conversations" or fmt == "auto" and _sniff_format(lines) == "conversations":
        return extract_text(_conversations(lines), role_filter)
    return list(_documents(lines, path))


def load_conversations(path: str | Path) -> tuple[ConversationRecord, ...]:
    """Parse a conversation corpus, aborting on the first malformed line or
    the first repeated id.

    Language tags are lowercased but otherwise taken verbatim from the file
    (no language detection). Blank lines are ignored.
    """
    return _conversations(_read_lines(path))


def _conversations(lines: list[str]) -> tuple[ConversationRecord, ...]:
    records: list[ConversationRecord] = []
    seen_ids: set[str] = set()
    for line_number, obj in _json_objects(lines):
        record = _parse_record(obj, line_number)
        if record.id in seen_ids:
            raise MalformedRecord(line_number, f"duplicate record id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    return tuple(records)


def load_documents(path: str | Path) -> tuple[str, ...]:
    """Load a document corpus, skipping blank lines: one document per line if
    the file sniffs as ``text``, else JSONL objects with a ``text`` field, so
    a conversation file is MalformedRecord naming its first record's line."""
    return _documents(_read_lines(path), path)


def _documents(lines: list[str], name: str | Path) -> tuple[str, ...]:
    if _sniff_format(lines) == "text":
        documents = [line for line in lines if line.strip()]
    else:
        documents = []
        for line_number, obj in _json_objects(lines):
            if not isinstance(obj.get("text"), str):
                raise MalformedRecord(line_number, "expected an object with a string 'text' field")
            text = utf8_str(obj["text"], f"line {line_number}")
            if text.strip():
                documents.append(text)
    if not documents:
        raise EmptyCorpus(f"no documents in {name}")
    return tuple(documents)


# ---------------------------------------------------------------------------
# Splitting, filtering and language counts
# ---------------------------------------------------------------------------

def partition(items, ids: list[str], spec: SplitSpec) -> tuple[list, list]:
    """Split ``items`` into (train, test) by their ``ids``, one per item:
    the train side holds the round(fraction * N) items whose ids have the
    smallest keyed hashes. Both sides keep input order. Exact sizes,
    platform-independent, stable under re-ordering. A repeated id is a
    ValueError, raised before any item is assigned."""
    from hashlib import blake2b

    if len(set(ids)) != len(ids):
        raise ValueError("ids must be distinct to partition by them")
    seed_key = spec.seed.to_bytes(8, "little")

    def keyed_hash(item_id: str) -> tuple[int, str]:
        digest = blake2b(item_id.encode("utf-8"), key=seed_key, digest_size=8).digest()
        return int.from_bytes(digest, "big"), item_id

    # round(fraction * N) exactly, ties to even, on the fraction's integer ratio
    num, den = spec.train_fraction.as_integer_ratio()
    n_train, rest = divmod(num * len(ids), den)
    if 2 * rest > den or 2 * rest == den and n_train % 2:
        n_train += 1
    train_ids = set(sorted(ids, key=keyed_hash)[:n_train])
    train, test = [], []
    for item, item_id in zip(items, ids, strict=True):
        (train if item_id in train_ids else test).append(item)
    return train, test


def split(
    conversations: Sequence[ConversationRecord], spec: SplitSpec
) -> tuple[list[ConversationRecord], list[ConversationRecord]]:
    """Partition records into train and test, per conversation, keyed on
    their distinct ids; both sides preserve input order."""
    if not conversations:
        raise EmptyCorpus("cannot split an empty conversation set")
    return partition(conversations, [r.id for r in conversations], spec)


def language_counts(
    conversations: Iterable[ConversationRecord], threshold: int
) -> list[tuple[str, int]]:
    """``(tag, conversation count)`` of each language with strictly more than
    ``threshold`` conversations, by count descending, then tag ascending."""
    counts = Counter(r.language for r in conversations)
    return sorted(((tag, n) for tag, n in counts.items() if n > threshold),
                  key=lambda tag_n: (-tag_n[1], tag_n[0]))


def extract_text(conversations: Iterable[ConversationRecord], role_filter: RoleFilter) -> list[str]:
    """Turn contents matching the filter, in record order then turn order.

    Contents are used as-is: no normalization, no lowercasing.
    """
    texts: list[str] = []
    for record in conversations:
        for role, content in record.turns:
            if role_filter is RoleFilter.BOTH or role == role_filter.value:
                texts.append(content)
    return texts

