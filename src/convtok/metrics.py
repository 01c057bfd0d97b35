"""Fertility, token counts and reductions.

All counting is exact integer arithmetic; ratios are formed only at the
reporting boundary. A word is a maximal run of non-whitespace characters
(Unicode whitespace), the simplest language-agnostic definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyText, NoWords
from .tokenizer import PieceTable, TokenizerModel, encode_piece


def token_count(model: TokenizerModel, texts: PieceTable | Iterable[str]) -> int:
    """Total tokens over a corpus.

    Encodes each distinct piece once and weights by multiplicity; identical
    to summing ``len(encode(model, t))`` text by text.
    """
    table = PieceTable.of(texts, model.scheme)
    return sum(mult * len(encode_piece(model, piece)) for piece, mult in table.pieces.items())


@dataclass(frozen=True)
class FertilityResult:
    """Raises NoWords when there are no words to divide by."""

    n_tokens: int
    n_words: int

    def __post_init__(self):
        if self.n_words == 0:
            raise NoWords("fertility is undefined on text without words")

    @property
    def fertility(self) -> float:
        return self.n_tokens / self.n_words


@dataclass(frozen=True)
class ReductionResult:
    tokens_base: int
    tokens_opt: int

    @property
    def reduction_pct(self) -> float:
        """Percent fewer tokens than the baseline; negative means an increase."""
        return 100.0 * (1.0 - self.tokens_opt / self.tokens_base)


def fertility(model: TokenizerModel, texts: PieceTable | Iterable[str]) -> FertilityResult:
    """Tokens per word over the given texts (values closer to 1 are better)."""
    table = PieceTable.of(texts, model.scheme)
    return FertilityResult(n_tokens=token_count(model, table), n_words=table.n_words)


def reduction(
    base: TokenizerModel, opt: TokenizerModel, texts: PieceTable | Iterable[str]
) -> ReductionResult:
    """Token-count change replacing ``base`` by ``opt`` on the same texts.
    Models of two schemes raise ConfigError: they count different pieces."""
    table = PieceTable.of(texts, base.scheme)
    tokens_base = token_count(base, table)
    tokens_opt = token_count(opt, table)
    if tokens_base == 0 or tokens_opt == 0:
        raise EmptyText("reduction is undefined on empty text")
    return ReductionResult(tokens_base=tokens_base, tokens_opt=tokens_opt)
