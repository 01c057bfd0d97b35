"""Fertility, token counts and reductions.

All counting is exact integer arithmetic; ratios are formed only at the
reporting boundary. A word is a maximal run of non-whitespace characters
(Unicode whitespace), the simplest language-agnostic definition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import EmptyText, NoWords, checked

if TYPE_CHECKING:  # the functions import the tokenizer, so the result types stay cheap
    from .tokenizer import PieceTable, TokenizerModel


def token_count(
    model: TokenizerModel,
    texts: PieceTable | Iterable[str],
    lengths: dict[str, int] | None = None,
) -> int:
    """Total tokens of ``model`` over a corpus.

    Counts through ``lengths``, a map of pieces to their token length under
    ``model``, or a fresh one when it is None: a piece it holds is not
    encoded, and each piece it lacks is encoded once and added to it, so one
    map serves several tables. The total weights each length by the piece's
    multiplicity, identical to summing ``len(encode(model, t))`` text by
    text.
    """
    from .tokenizer import PieceTable, encode_piece

    table = PieceTable.of(texts, model.scheme)
    if lengths is None:
        lengths = {}
    for piece in table.pieces:
        if piece not in lengths:
            lengths[piece] = len(encode_piece(model, piece))
    return sum(mult * lengths[piece] for piece, mult in table.pieces.items())


@checked
class FertilityResult(NamedTuple):
    """Raises NoWords when there are no words to divide by."""

    n_tokens: int
    n_words: int

    def _check(self) -> FertilityResult:
        if self.n_words == 0:
            raise NoWords("fertility is undefined on text without words")
        return self

    @property
    def fertility(self) -> float:
        return self.n_tokens / self.n_words


@checked
class ReductionResult(NamedTuple):
    """Raises EmptyText when either token count is zero."""

    tokens_base: int
    tokens_opt: int

    def _check(self) -> ReductionResult:
        if self.tokens_base == 0 or self.tokens_opt == 0:
            raise EmptyText("reduction is undefined on empty text")
        return self

    @property
    def reduction_pct(self) -> float:
        """Percent fewer tokens than the baseline; negative means an increase."""
        return 100.0 * (1.0 - self.tokens_opt / self.tokens_base)


def fertility(model: TokenizerModel, texts: PieceTable | Iterable[str]) -> FertilityResult:
    """Tokens per word over the given texts (values closer to 1 are better)."""
    from .tokenizer import PieceTable

    table = PieceTable.of(texts, model.scheme)
    return FertilityResult(n_tokens=token_count(model, table), n_words=table.n_words)


def reduction(
    base: TokenizerModel, opt: TokenizerModel, texts: PieceTable | Iterable[str]
) -> ReductionResult:
    """Token-count change replacing ``base`` by ``opt`` on the same texts.
    Models of two schemes raise ConfigError: they count different pieces."""
    from .tokenizer import PieceTable

    table = PieceTable.of(texts, base.scheme)
    return ReductionResult(tokens_base=token_count(base, table), tokens_opt=token_count(opt, table))
