"""BPE training: an incremental optimized trainer and a naive reference oracle.

Both trainers implement the same contract and must produce identical merge
lists on any corpus:

* count adjacent symbol pairs across pretokenized pieces, weighted by piece
  frequency ("aaa" contributes (a,a) twice);
* repeatedly merge the most frequent eligible pair, breaking frequency ties
  by lexicographically smallest (left, right); a pair is ineligible when its
  concatenation already names a vocabulary entry, so every merge adds
  exactly one token (in ``char_level_fallback`` mode the reserved ``<0xHH>``
  literals are the first 256 entries, so they are never produced);
* stop when the vocabulary reaches the target size or the best frequency
  drops below ``min_pair_frequency``.

Selection depends only on (frequency, pair), so the result is independent of
iteration order and identical across runs and platforms.

The optimized trainer keeps live pair counts, a grow-only set of owner
pieces per pair and a lazy max-heap of (count, pair) entries. A merge
rewrites only the owners of the merged pair, and each rewritten piece applies
one signed per-pair delta, so a pair whose count in the piece is unchanged
costs nothing. A heap entry is pushed only when a count rises; a popped entry
that records more than the live count is re-filed at the live count. Since
counts only fall between pushes, the selection stays exact (see
:func:`train_bpe`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, CorpusTooLarge
from .tokenizer import (
    N_BYTE_SYMBOLS,
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    _base_symbols,
    base_alphabet,
)

ORACLE_GUARD_BYTES = 1 << 20  # 1 MiB

Pair = tuple[str, str]


@dataclass(frozen=True)
class TrainConfig:
    vocab_size: int
    mode: TokenizerMode = TokenizerMode.BYTE_LEVEL
    scheme: PretokenScheme = PretokenScheme.CATEGORY_SPLIT
    min_pair_frequency: int = 2

    def __post_init__(self):
        if self.vocab_size < N_BYTE_SYMBOLS:
            raise ConfigError(
                f"vocab_size {self.vocab_size} is below the base alphabet size {N_BYTE_SYMBOLS}"
            )
        if self.min_pair_frequency < 1:
            raise ConfigError("min_pair_frequency must be at least 1")


# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------

def merge_adjacent(symbols: list[str], left: str, right: str, joined: str) -> list[str]:
    """Replace (left, right) adjacencies left-to-right without overlap."""
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if symbols[i] == left and i + 1 < n and symbols[i + 1] == right:
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _initial_state(
    corpus: PieceTable | Iterable[str], config: TrainConfig
) -> tuple[list[str], list[tuple[list[str], int]]]:
    """Base vocabulary plus (symbols, multiplicity) work list for training."""
    pieces = PieceTable.of(corpus, config.scheme).pieces
    vocab = list(base_alphabet(config.mode))
    if config.mode is TokenizerMode.CHAR_LEVEL_FALLBACK:
        chars: set[str] = set()
        for piece in pieces:
            chars.update(piece)
        vocab.extend(sorted(chars))
        if len(vocab) > config.vocab_size:
            raise ConfigError(
                f"vocab_size {config.vocab_size} is below the base alphabet size "
                f"{len(vocab)} (256 fallback tokens + {len(chars)} corpus characters)"
            )
    probe = TokenizerModel(
        mode=config.mode, scheme=config.scheme, vocab=tuple(vocab), merges=()
    )
    sequences = [
        (symbols, mult)
        for piece, mult in pieces.items()
        if len(symbols := _base_symbols(probe, piece)) > 1
    ]
    return vocab, sequences


# ---------------------------------------------------------------------------
# Optimized trainer
# ---------------------------------------------------------------------------

def train_bpe(corpus: PieceTable | Iterable[str], config: TrainConfig) -> TokenizerModel:
    """Train a BPE model on texts or a piece table; deterministic in (pieces, config).

    Pair counts are maintained incrementally and the best pair is tracked in
    a lazy max-heap, so cost scales with the number of affected pieces per
    merge instead of the corpus size.

    Each rewritten piece applies one signed delta, its new pair counts minus
    its old ones, to ``pair_counts``. A pair that rises holds the merge
    product, which names no earlier symbol, so a rise only ever creates a
    pair: its holders only shrink after that, and at count zero it can never
    return.

    ``where`` invariant: ``where[p]`` is a superset of the pieces that hold a
    live pair ``p``. A piece joins it when ``p`` is created there and never
    leaves it; an owner that no longer holds the merged pair is skipped, as
    ``merge_adjacent`` leaves it the same length. A pair's set is dropped with
    its count when the count reaches zero.

    Heap invariant: every live pair has at least one entry whose recorded
    count is at or above its live count. The initial heap and every rise push
    such an entry, counts only fall between pushes, and a popped entry whose
    recorded count is not the live count is re-filed at the live count. Hence
    the first popped entry that matches its live count is the true (max
    frequency, min pair), and the selection equals the oracle's. A popped
    pair whose product is already in the vocabulary is dropped: the
    vocabulary only grows, so the pair never becomes eligible again.
    """
    vocab, sequences = _initial_state(corpus, config)
    vocab_set = set(vocab)
    merges: list[Pair] = []

    pair_counts: dict[Pair, int] = {}
    where: dict[Pair, set[int]] = {}
    for idx, (seq, mult) in enumerate(sequences):
        for a, b in zip(seq, seq[1:]):
            pair = (a, b)
            pair_counts[pair] = pair_counts.get(pair, 0) + mult
            where.setdefault(pair, set()).add(idx)

    heap: list[tuple[int, Pair]] = [(-freq, pair) for pair, freq in pair_counts.items()]
    heapq.heapify(heap)

    while len(vocab) < config.vocab_size and heap:
        neg_freq, pair = heapq.heappop(heap)
        freq = pair_counts.get(pair)
        if freq is None:
            continue
        if freq != -neg_freq:
            # the count fell since this entry was pushed: re-file it
            heapq.heappush(heap, (-freq, pair))
            continue
        if freq < config.min_pair_frequency:
            break
        left, right = pair
        product = left + right
        if product in vocab_set:
            continue

        merges.append(pair)
        vocab.append(product)
        vocab_set.add(product)

        for idx in where[pair]:
            old_seq, mult = sequences[idx]
            new_seq = merge_adjacent(old_seq, left, right, product)
            if len(new_seq) == len(old_seq):
                continue  # a stale owner: the pair left this piece earlier
            sequences[idx] = (new_seq, mult)
            delta = Counter(zip(new_seq, new_seq[1:]))
            delta.subtract(zip(old_seq, old_seq[1:]))
            for p, d in delta.items():
                if d > 0:
                    updated = pair_counts.get(p, 0) + d * mult
                    pair_counts[p] = updated
                    heapq.heappush(heap, (-updated, p))
                    where.setdefault(p, set()).add(idx)
                elif d < 0:
                    remaining = pair_counts[p] + d * mult
                    if remaining:
                        pair_counts[p] = remaining
                    else:
                        del pair_counts[p]
                        del where[p]

    return TokenizerModel(
        mode=config.mode,
        scheme=config.scheme,
        vocab=tuple(vocab),
        merges=tuple(merges),
    )


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------

def train_bpe_oracle(
    corpus: PieceTable | Iterable[str], config: TrainConfig, guard_bytes: int = ORACLE_GUARD_BYTES
) -> TokenizerModel:
    """Same contract as :func:`train_bpe`, computed by full recount after
    every merge. Quadratic; refuses corpora beyond ``guard_bytes``."""
    table = PieceTable.of(corpus, config.scheme)
    total = sum(len(piece.encode("utf-8")) * mult for piece, mult in table.pieces.items())
    if total > guard_bytes:
        raise CorpusTooLarge(f"oracle trainer limited to {guard_bytes} bytes, got {total}")

    vocab, sequences = _initial_state(table, config)
    vocab_set = set(vocab)
    merges: list[Pair] = []

    while len(vocab) < config.vocab_size:
        counts: Counter[Pair] = Counter()
        for seq, mult in sequences:
            for a, b in zip(seq, seq[1:]):
                counts[(a, b)] += mult
        candidates = [
            (freq, pair)
            for pair, freq in counts.items()
            if pair[0] + pair[1] not in vocab_set
        ]
        if not candidates:
            break
        freq, pair = min(candidates, key=lambda fp: (-fp[0], fp[1]))
        if freq < config.min_pair_frequency:
            break
        left, right = pair
        product = left + right
        merges.append(pair)
        vocab.append(product)
        vocab_set.add(product)
        sequences = [
            (merge_adjacent(seq, left, right, product), mult) for seq, mult in sequences
        ]

    return TokenizerModel(
        mode=config.mode,
        scheme=config.scheme,
        vocab=tuple(vocab),
        merges=tuple(merges),
    )


def retrain_like(
    reference: TokenizerModel, corpus: PieceTable | Iterable[str], min_pair_frequency: int = 2
) -> TokenizerModel:
    """Train from scratch on ``corpus`` with the reference's configuration
    (mode, scheme, target vocabulary size)."""
    config = TrainConfig(
        vocab_size=len(reference.vocab),
        mode=reference.mode,
        scheme=reference.scheme,
        min_pair_frequency=min_pair_frequency,
    )
    return train_bpe(corpus, config)
