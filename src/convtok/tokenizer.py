"""Tokenizer models with lossless encode/decode.

Two model flavors are supported:

* ``byte_level`` -- the working alphabet is the 256 byte values, each mapped
  to a distinct printable character so tokens stay readable strings. Every
  input is encodable by construction.
* ``char_level_fallback`` -- the working alphabet is the characters seen at
  training time; characters outside the vocabulary are encoded as reserved
  per-byte fallback tokens ``<0x00>`` .. ``<0xFF>``, so nothing is ever
  out-of-vocabulary.

Merges are applied strictly in rank order (position in the merge list) and
never across pretokenization boundaries.
"""

from __future__ import annotations

import re
from collections import Counter
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Container, Iterable, NamedTuple

from .config import N_BYTE_SYMBOLS, PretokenScheme, TokenizerMode
from .errors import (
    ConfigError,
    FormatVersionMismatch,
    IdOutOfRange,
    IntegrityError,
    InvalidByteSequence,
    checked,
    json_bytes,
    parse_json,
    read_utf8,
    write_atomic,
)

MODEL_FORMAT_VERSION = 1

# ---------------------------------------------------------------------------
# Byte <-> symbol mapping (byte_level mode)
# ---------------------------------------------------------------------------

# The rule is in base_alphabet's docstring. The 68 bytes that do not stand
# for themselves are three runs, 0x00-0x20, 0x7F-0xA0 and 0xAD, which take
# code points 256-288, 289-322 and 323.
_BYTE_TO_CHAR: tuple[str, ...] = tuple(
    chr(b) if 0x21 <= b <= 0x7E or 0xA1 <= b <= 0xAC or 0xAE <= b <= 0xFF
    else chr(N_BYTE_SYMBOLS + (b if b <= 0x20 else b - 0x5E if b <= 0xA0 else 67))
    for b in range(N_BYTE_SYMBOLS)
)
_CHAR_TO_BYTE: dict[str, int] = {c: b for b, c in enumerate(_BYTE_TO_CHAR)}

FALLBACK_TOKENS: tuple[str, ...] = tuple(f"<0x{b:02X}>" for b in range(256))


def base_alphabet(mode: TokenizerMode) -> tuple[str, ...]:
    """First 256 vocabulary entries required for a mode; entry ``b`` stands
    for byte ``b``.

    In ``byte_level`` mode the self-representable bytes (0x21-0x7E,
    0xA1-0xAC, 0xAE-0xFF) are their own code point, and the remaining 68
    values are, in increasing byte order, code points 256..323. In
    ``char_level_fallback`` mode they are the tokens ``<0x00>`` .. ``<0xFF>``.
    """
    if mode is TokenizerMode.BYTE_LEVEL:
        return _BYTE_TO_CHAR
    return FALLBACK_TOKENS


# ---------------------------------------------------------------------------
# Pretokenization
# ---------------------------------------------------------------------------

class _ClassTable(dict):
    """``str.translate`` table from a code point to its class letter: U+0020
    to ``" "``, other whitespace ``w``, letters ``a``, numerics ``d``, the
    rest ``s``. Each code point is classified on first sight."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        if ch == " ":
            cls = " "
        elif ch.isspace():
            cls = "w"
        elif ch.isalpha():
            cls = "a"
        elif ch.isnumeric():
            cls = "d"
        else:
            cls = "s"
        self[code] = cls
        return cls


_CLASSES = _ClassTable()
# A letter or digit run takes one leading U+0020 from the whitespace before it.
_CATEGORY_SPLIT = re.compile(r" ?a+| ?d+|[ w]+?(?= [ad])|[ w]+|s+")
_WHITESPACE_SPLIT = re.compile(r"[ w]+|[ads]+")


def pretokenize(text: str, scheme: PretokenScheme) -> list[str]:
    """Split text into pieces across which merges are forbidden.

    The segmentation is lossless: ``"".join(pieces) == text`` always holds.
    ``category_split`` breaks at letter/digit/symbol boundaries, keeps
    whitespace runs as pieces, and attaches a single leading space (U+0020)
    to a following letter or digit run. ``whitespace_split`` only separates
    whitespace runs from non-whitespace runs.
    """
    pattern = _WHITESPACE_SPLIT if scheme is PretokenScheme.WHITESPACE_SPLIT else _CATEGORY_SPLIT
    return [text[m.start():m.end()] for m in pattern.finditer(text.translate(_CLASSES))]


def count_words(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


class PieceTable(NamedTuple):
    """Piece counts and word count of some texts: what training and metrics read."""

    pieces: Counter[str]
    n_words: int
    scheme: PretokenScheme

    @classmethod
    def of(cls, corpus: PieceTable | Iterable[str], scheme: PretokenScheme) -> PieceTable:
        """``corpus`` itself if it is a table, else the table of its texts. A
        bare ``str`` is a TypeError, not a corpus of one-character texts."""
        if isinstance(corpus, PieceTable):
            if corpus.scheme is not scheme:
                raise ConfigError(f"piece table is {corpus.scheme.value}, not {scheme.value}")
            return corpus
        if isinstance(corpus, str):
            raise TypeError("a corpus is an iterable of texts, not one str")
        pieces: Counter[str] = Counter()
        n_words = 0
        for text in corpus:
            pieces.update(pretokenize(text, scheme))
            n_words += count_words(text)
        return cls(pieces=pieces, n_words=n_words, scheme=scheme)

    def __add__(self, other: PieceTable) -> PieceTable:
        if other.scheme is not self.scheme:
            raise ConfigError(
                f"cannot add a {other.scheme.value} table to a {self.scheme.value} one")
        return PieceTable(self.pieces + other.pieces, self.n_words + other.n_words, self.scheme)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class _ModelFields(NamedTuple):
    mode: TokenizerMode
    scheme: PretokenScheme
    vocab: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]


@checked
class TokenizerModel(_ModelFields):
    """Immutable tokenizer: vocabulary (index = token id) plus ranked merges.

    Safe for unlimited concurrent readers: encode and decode are pure, and
    nothing changes a model after construction, not even a cache.
    """

    def _check(self) -> TokenizerModel:
        # the lookup tables that encoding reads live in the instance dict,
        # which a subclass of a named tuple without __slots__ has
        token_ids = self._token_ids = {tok: i for i, tok in enumerate(self.vocab)}
        self._merge_ranks = {pair: r for r, pair in enumerate(self.merges)}
        if len(token_ids) != len(self.vocab):
            raise IntegrityError("vocabulary contains duplicate tokens")
        if len(self.vocab) < N_BYTE_SYMBOLS:
            raise IntegrityError("vocabulary smaller than the base alphabet")
        base = base_alphabet(self.mode)
        if self.vocab[:N_BYTE_SYMBOLS] != base:
            raise IntegrityError(
                "first 256 vocabulary entries must be the base alphabet"
            )
        for left, right in self.merges:
            if left not in token_ids or right not in token_ids:
                raise IntegrityError(f"merge operand missing from vocab: ({left!r}, {right!r})")
            if left + right not in token_ids:
                raise IntegrityError(f"merge product missing from vocab: {left + right!r}")
        learned = self.vocab[N_BYTE_SYMBOLS:]
        if (self.mode is TokenizerMode.BYTE_LEVEL
                and not set("".join(learned)) <= _CHAR_TO_BYTE.keys()):
            bad = next(tok for tok in learned if not set(tok) <= _CHAR_TO_BYTE.keys())
            raise IntegrityError(f"token contains unmapped characters: {bad!r}")
        return self


def _base_symbols(mode: TokenizerMode, known: Container[str], piece: str) -> list[str]:
    """A piece's symbols before any merge: its UTF-8 bytes in ``byte_level``
    mode; in ``char_level_fallback`` mode its characters, each one not in
    ``known`` spelt as its bytes' fallback tokens."""
    if mode is TokenizerMode.BYTE_LEVEL:
        b2c = _BYTE_TO_CHAR
        return [b2c[b] for b in piece.encode("utf-8")]
    symbols: list[str] = []
    for ch in piece:
        if ch in known:
            symbols.append(ch)
        else:
            symbols.extend(FALLBACK_TOKENS[b] for b in ch.encode("utf-8"))
    return symbols


def _apply_merges(model: TokenizerModel, symbols: list[str]) -> list[str]:
    """Apply the lowest-ranked merge present, at every left-to-right,
    non-overlapping position, until no adjacent pair has a rank.

    The symbols live in one list with ``prv``/``nxt`` links; a merge keeps
    the left position and kills the right one (``None``). ``at`` files each
    position where a ranked pair forms under that pair's rank, and a
    min-heap holds each rank of ``at`` once. A pop takes that rank's whole
    batch out of ``at`` and merges it in position order, skipping a
    position that no longer holds the pair. Each merge files the pairs on
    either side of it at once: neither has the batch's rank, and a lower
    rank waits in the heap until the batch is done. A filed pair that a
    later merge breaks is skipped when its rank is popped. Each merge files
    at most two positions, so a piece of n symbols costs O(n log n).
    """
    ranks = model._merge_ranks
    n = len(symbols)
    if n < 2 or not ranks:
        return symbols
    get = ranks.get
    at: dict[int, list[int]] = {}
    for pos, rank in enumerate(map(get, zip(symbols, symbols[1:]))):
        if rank is not None:
            at.setdefault(rank, []).append(pos)
    if not at:
        return symbols
    heap = list(at)
    heapify(heap)
    merges = model.merges
    # index n (and -1) is the end sentinel, so a missing neighbour reads None
    sym: list[str | None] = [*symbols, None]
    nxt = list(range(1, n + 2))
    prv = list(range(-1, n))
    while heap:
        rank = heappop(heap)
        batch = at.pop(rank)
        if len(batch) > 1:
            batch.sort()
        left, right = merges[rank]
        joined = left + right
        for pos in batch:
            if sym[pos] == left and sym[nxt[pos]] == right:
                gone = nxt[pos]
                sym[pos] = joined
                sym[gone] = None
                after = nxt[gone]
                nxt[pos] = after
                prv[after] = pos
                before = prv[pos]
                new_rank = get((sym[before], joined))
                if new_rank is not None:
                    if new_rank not in at:
                        heappush(heap, new_rank)
                    at.setdefault(new_rank, []).append(before)
                new_rank = get((joined, sym[after]))
                if new_rank is not None:
                    if new_rank not in at:
                        heappush(heap, new_rank)
                    at.setdefault(new_rank, []).append(pos)
    return [s for s in sym if s is not None]


def encode_piece(model: TokenizerModel, piece: str) -> tuple[int, ...]:
    """Token ids for one pretokenized piece."""
    symbols = _apply_merges(model, _base_symbols(model.mode, model._token_ids, piece))
    return tuple(map(model._token_ids.__getitem__, symbols))


def encode(model: TokenizerModel, text: str) -> list[int]:
    """Encode text to token ids. Total: every valid UTF-8 string is encodable.
    Each distinct piece of the text is encoded once."""
    ids: list[int] = []
    memo: dict[str, tuple[int, ...]] = {}
    for piece in pretokenize(text, model.scheme):
        piece_ids = memo.get(piece)
        if piece_ids is None:
            piece_ids = memo[piece] = encode_piece(model, piece)
        ids.extend(piece_ids)
    return ids


def decode(model: TokenizerModel, ids: list[int]) -> str:
    """Invert :func:`encode`. ``decode(model, encode(model, s)) == s``."""
    vocab = model.vocab
    n = len(vocab)
    byte_level = model.mode is TokenizerMode.BYTE_LEVEL
    data = bytearray()
    try:
        for i in ids:
            if not 0 <= i < n:
                raise IdOutOfRange(f"token id {i} outside vocabulary of {n}")
            if byte_level:
                data.extend(_CHAR_TO_BYTE[c] for c in vocab[i])
            elif i < N_BYTE_SYMBOLS:
                data.append(i)  # the fallback token <0xHH> stands for byte i
            else:
                data += vocab[i].encode("utf-8")
        # one decode of all the bytes: a token's UTF-8 never begins with a
        # continuation byte, so a sequence that is cut off stays an error
        return data.decode("utf-8")
    except UnicodeError as exc:  # also a lone surrogate in a loaded vocabulary
        raise InvalidByteSequence(f"token bytes are not valid UTF-8: {exc}") from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_bytes(model: TokenizerModel) -> bytes:
    """Canonical serialization: fixed key order, compact separators, UTF-8.

    Structurally equal models produce byte-identical output.
    """
    obj = {
        "version": MODEL_FORMAT_VERSION,
        "mode": model.mode.value,
        "scheme": model.scheme.value,
        "vocab": list(model.vocab),
        "merges": [list(pair) for pair in model.merges],
    }
    return json_bytes(obj)


def save_model(model: TokenizerModel, path: str | Path) -> None:
    write_atomic(path, model_to_bytes(model))


def load_model(path: str | Path) -> TokenizerModel:
    """Load and fully validate a model file.

    Raises InvalidEncoding for bytes that are not UTF-8, such as a file cut
    inside a multi-byte character, FormatVersionMismatch for unknown versions
    and IntegrityError for structural damage (dangling merges, duplicate or
    reordered vocab, a file cut at a character boundary, ...).
    """
    obj = parse_json(read_utf8(path), lambda msg: IntegrityError(f"model file {path}: {msg}"))
    if not isinstance(obj, dict):
        raise IntegrityError("model file must contain a JSON object")
    version = obj.get("version")
    # an int, not a bool or a float that compares equal to one
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported model format version: {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        mode = TokenizerMode(obj["mode"])
        scheme = PretokenScheme(obj["scheme"])
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"bad mode/scheme field: {exc}") from exc
    vocab = obj.get("vocab")
    merges = obj.get("merges")
    if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
        raise IntegrityError("vocab must be a list of strings")
    try:
        "".join(vocab).encode("utf-8")
    except UnicodeEncodeError:
        # JSON can escape a lone surrogate, which no UTF-8 text holds
        bad = next(t for t in vocab if any("\ud800" <= c <= "\udfff" for c in t))
        raise IntegrityError(f"vocab token is not UTF-8 text: {bad!r}") from None
    if not isinstance(merges, list):
        raise IntegrityError("merges must be a list")
    merge_pairs: list[tuple[str, str]] = []
    for entry in merges:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(t, str) for t in entry)
        ):
            raise IntegrityError(f"bad merge entry: {entry!r}")
        merge_pairs.append((entry[0], entry[1]))
    return TokenizerModel(
        mode=mode,
        scheme=scheme,
        vocab=tuple(vocab),
        merges=tuple(merge_pairs),
    )
