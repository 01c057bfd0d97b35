"""BPE training: an incremental optimized trainer and a naive reference oracle.

Both trainers implement the same contract and must produce identical merge
lists on any corpus:

* count adjacent symbol pairs across pretokenized pieces, weighted by piece
  frequency ("aaa" contributes (a,a) twice);
* repeatedly merge the most frequent eligible pair, breaking frequency ties
  by lexicographically smallest (left, right); a pair is ineligible when its
  concatenation already names a vocabulary entry (including the reserved
  byte-fallback literals), so every merge adds exactly one token;
* stop when the vocabulary reaches the target size or the best frequency
  drops below ``min_pair_frequency``.

Selection depends only on (frequency, pair), so the result is independent of
iteration order and identical across runs and platforms.

The optimized trainer keeps live pair counts and a lazy max-heap of
(count, pair) entries. A merge rewrites only the pieces that hold the merged
pair, and each such piece applies only its net per-pair change, so a pair
whose count in the piece is unchanged costs nothing. A heap entry is pushed
only when a count rises; a popped entry that records more than the live
count is re-filed at the live count. Since counts only fall between pushes,
the selection stays exact (see :func:`train_bpe`).
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
    is_reserved_token,
    merge_adjacent,
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


def _eligible(product: str, mode: TokenizerMode, vocab_set: set[str]) -> bool:
    # A merged token may not collide with an existing vocabulary entry (the
    # other route to the same string already exists) or with a reserved
    # byte-fallback literal. Both conditions are permanent once true, so the
    # fast trainer can ban such pairs outright.
    if product in vocab_set:
        return False
    return not (mode is TokenizerMode.CHAR_LEVEL_FALLBACK and is_reserved_token(product))


# ---------------------------------------------------------------------------
# Optimized trainer
# ---------------------------------------------------------------------------

def train_bpe(corpus: PieceTable | Iterable[str], config: TrainConfig) -> TokenizerModel:
    """Train a BPE model on texts or a piece table; deterministic in (pieces, config).

    Pair counts are maintained incrementally and the best pair is tracked in
    a lazy max-heap, so cost scales with the number of affected pieces per
    merge instead of the corpus size.

    For each affected piece only the nonzero net deltas between its old and
    new pair multisets touch ``pair_counts``, and ``where`` changes only for
    pairs that enter or leave the piece. Heap invariant: every live pair has
    at least one entry whose recorded count is at or above its live count.
    The initial heap and every rise push such an entry, counts only fall
    between pushes, and a popped entry whose recorded count is not the live
    count is re-filed at the live count. Hence the first popped entry that
    matches its live count is the true (max frequency, min pair), and the
    selection equals the oracle's.
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
    banned: set[Pair] = set()

    while len(vocab) < config.vocab_size and heap:
        neg_freq, pair = heapq.heappop(heap)
        freq = pair_counts.get(pair)
        if freq is None or pair in banned:
            continue
        if freq != -neg_freq:
            # the count fell since this entry was pushed: re-file it
            heapq.heappush(heap, (-freq, pair))
            continue
        if freq < config.min_pair_frequency:
            break
        left, right = pair
        product = left + right
        if not _eligible(product, config.mode, vocab_set):
            banned.add(pair)
            continue

        merges.append(pair)
        vocab.append(product)
        vocab_set.add(product)

        # The merged pair leaves every piece that held it.
        for idx in where.pop(pair):
            old_seq, mult = sequences[idx]
            new_seq = merge_adjacent(old_seq, left, right, product)
            sequences[idx] = (new_seq, mult)
            old_pairs = Counter(zip(old_seq, old_seq[1:]))
            new_pairs = Counter(zip(new_seq, new_seq[1:]))
            for p, n in new_pairs.items():
                delta = n - old_pairs.get(p, 0)
                if delta > 0:
                    updated = pair_counts.get(p, 0) + delta * mult
                    pair_counts[p] = updated
                    heapq.heappush(heap, (-updated, p))
                elif delta < 0:
                    pair_counts[p] += delta * mult
            for p in old_pairs.keys() - new_pairs.keys():
                remaining = pair_counts[p] - old_pairs[p] * mult
                if remaining:
                    pair_counts[p] = remaining
                else:
                    del pair_counts[p]
                owners = where.get(p)
                if owners is not None:
                    owners.discard(idx)
                    if not owners:
                        del where[p]
            for p in new_pairs.keys() - old_pairs.keys():
                where.setdefault(p, set()).add(idx)

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
            if _eligible(pair[0] + pair[1], config.mode, vocab_set)
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
