"""Exception types shared across the toolkit, and the file boundary that
raises them: the JSON parse, the strict UTF-8 read and the atomic write."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable

_RAISE = object()


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


def write_atomic(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path``, creating its directory, and return the path.

    The bytes go to a temp file in the same directory, which is then renamed
    over ``path``: an interrupted write leaves the old file or none, never a
    truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
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

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyCorpus(ConvtokError):
    """An operation that needs at least one record or document got none."""


class ConfigError(ConvtokError, ValueError):
    """A training, split or experiment configuration is out of range,
    internally inconsistent or infeasible."""


class CorpusTooLarge(ConvtokError):
    """The reference trainer refuses corpora beyond its guard limit."""


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
