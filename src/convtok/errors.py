"""Exception types shared across the toolkit, the file boundary that
raises them (the JSON parse and dump, the strict UTF-8 read and check, the
file digest and the atomic write), and :func:`checked`, which makes a value
type raise them on construction."""

from __future__ import annotations

import json
import os
from functools import wraps
from pathlib import Path
from typing import Any, BinaryIO, Callable

_RAISE = object()
_HASH_CHUNK_BYTES = 1 << 16


def read_utf8(source: str | Path | BinaryIO) -> str:
    """The text of a file, or of a binary stream such as ``sys.stdin.buffer``.

    Decodes strict UTF-8 and translates no newlines: carriage returns reach
    the caller as they are in the bytes. Bytes that are not UTF-8 raise
    InvalidEncoding naming the source.
    """
    if hasattr(source, "read"):
        raw, name = source.read(), getattr(source, "name", "<stream>")
    else:
        raw, name = Path(source).read_bytes(), source
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"{name} is not UTF-8: {exc}") from exc


def sha256_file(path: str | Path) -> str:
    """The hex sha256 digest of a file's bytes, read a chunk at a time."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def utf8_str(value: str, where: str) -> str:
    """``value`` itself if it encodes as UTF-8.

    A ``str`` from a JSON ``\\uDxxx`` escape or from undecodable argv bytes
    can hold lone surrogates, which no UTF-8 encoding has; such a value raises
    InvalidEncoding naming ``where``, such as ``line 3`` or ``--text``.
    """
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidEncoding(f"{where}: string is not valid UTF-8: {exc}") from exc
    return value


def write_atomic(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path``, creating its directory, and return the path.

    The bytes go to a temp file in the same directory, which is then renamed
    over ``path``: an interrupted write leaves the old file or none, never a
    truncated one. Each call creates its own temp file, so writers of one
    path, in this process or another, never write to or rename each
    other's. A path with no name, such as ``""`` or ``.``, is IsADirectoryError.
    """
    path = Path(path)
    if not path.name:
        raise IsADirectoryError(f"{str(path)!r} names a directory, not a file")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL: the name is this call's alone, or the call fails
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def parse_json(text: str, error: Callable[[str], Exception], default: Any = _RAISE) -> Any:
    """``json.loads(text)``, failing only with ``error(message)``.

    JSON nested deeper than the decoder's recursion limit fails that way too,
    not with a ``RecursionError``. Text that is not JSON returns ``default``
    instead when one is given, so a format sniffer can tell JSON from plain
    text; too-deep JSON is still an error there.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if default is not _RAISE:
            return default
        raise error(f"invalid JSON: {exc.msg} at character {exc.pos}") from exc
    except RecursionError as exc:
        raise error("JSON nested deeper than the decoder's recursion limit") from exc


def json_bytes(obj: Any) -> bytes:
    """Compact UTF-8 JSON: the bytes of every model file, report.json and
    cache file."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def checked(cls):
    """Class decorator for a named tuple whose ``_check`` method raises on a
    bad value and returns a good one: each value that ``cls(...)``,
    ``_make`` or ``_replace`` builds is checked."""
    new, make = cls.__new__, cls._make.__func__
    cls.__new__ = staticmethod(wraps(new)(lambda cls, *args, **kw: new(cls, *args, **kw)._check()))
    cls._make = classmethod(wraps(make)(lambda cls, iterable: make(cls, iterable)._check()))
    return cls


class ConvtokError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ConvtokError):
    """The command line does not parse: an unknown flag, a missing required
    flag or a value of the wrong type."""


class MalformedRecord(ConvtokError):
    """A corpus line violates the expected schema. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InvalidEncoding(ConvtokError):
    """Input bytes or text are not valid UTF-8."""


class EmptyCorpus(ConvtokError):
    """An operation that needs at least one record or document got none."""


class ConfigError(ConvtokError, ValueError):
    """A training, split or experiment configuration is out of range,
    internally inconsistent or infeasible."""


class IdOutOfRange(ConvtokError):
    """A token id does not index into the model vocabulary."""


class InvalidByteSequence(ConvtokError):
    """Decoded bytes do not form valid UTF-8."""


class FormatVersionMismatch(ConvtokError):
    """A model file declares an unsupported format version."""


class IntegrityError(ConvtokError):
    """A model violates its structural invariants (duplicate vocab, dangling merge, ...)."""


class NoWords(ConvtokError):
    """Fertility is undefined on text with zero words."""


class EmptyText(ConvtokError):
    """Token reduction is undefined when a token count is zero."""
