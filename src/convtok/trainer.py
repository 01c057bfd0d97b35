"""BPE training on a piece table, with incremental pair counts.

The trainer implements this contract; the reference trainer in
``tests/oracles.py`` recounts every pair after each merge and must produce
identical merge lists on any table:

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

The trainer keeps live pair counts, a grow-only list of owner pieces per
pair and a lazy max-heap of (count, pair) entries. A merge of (L, R) into P
rewrites only the owners of (L, R), each in one left-to-right scan, and
changes counts only beside each match: the old pairs that touch the matched
symbols go, and the pairs that join P to its new neighbours come. Only those
pairs, which hold P, can rise, and each is pushed once, after the merge's
last owner; a popped entry that records more than the live count is
re-filed at the live count. Since counts only fall between pushes, the
selection stays exact (see :func:`train_bpe`).
"""

from __future__ import annotations

import heapq

from .config import TokenizerMode, TrainConfig
from .errors import ConfigError
from .tokenizer import PieceTable, TokenizerModel, _base_symbols, base_alphabet

Pair = tuple[str, str]

# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------

def _initial_state(
    table: PieceTable, config: TrainConfig
) -> tuple[list[str], list[tuple[list[str], int]]]:
    """Base vocabulary plus (symbols, multiplicity) work list for training."""
    if not isinstance(table, PieceTable):
        raise TypeError(f"training takes a PieceTable, not {type(table).__name__}")
    pieces = table.pieces
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
    probe = TokenizerModel(mode=config.mode, scheme=table.scheme, vocab=tuple(vocab), merges=())
    sequences = [
        (symbols, mult)
        for piece, mult in pieces.items()
        if len(symbols := _base_symbols(probe, piece)) > 1
    ]
    return vocab, sequences


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

def train_bpe(table: PieceTable, config: TrainConfig) -> TokenizerModel:
    """Train a BPE model of the table's scheme; deterministic in (table, config).

    Pair counts are kept incrementally and the best pair sits in a lazy
    max-heap, so a merge costs in proportion to its owner pieces, not the corpus.

    Merge step: each owner ``s`` of the merged pair ``(L, R)`` is scanned
    once, left to right, building its new symbol list ``out``. At a match at
    ``i`` the scan subtracts ``(L, R)``; on the left it subtracts
    ``(s[i-1], L)`` and adds ``(out[-1], P)``; on the right it subtracts
    ``(R, s[i+2])`` and adds ``(P, s[i+2])``, unless ``s[i+2:i+4]`` is the
    next match, whose left side then handles that pair. So ``aaaa`` becomes
    ``(aa)(aa)`` by subtracting ``(a, a)`` three times and adding
    ``(aa, aa)`` once, and no pair away from a match is touched. Every
    subtracted pair is a pair of the old list, whose symbols are all in the
    vocabulary, and the product ``P`` is not, so no subtracted pair holds
    ``P`` while every added pair does: the two sets never overlap, and only
    pairs with the product rise. Such a pair is created by this merge: it
    gains the piece as an owner and joins ``created``. Its holders only
    shrink after that; at count zero it is dropped with its owner list.

    ``where`` invariant: ``where[p]`` lists every piece that holds a live
    pair ``p``, each once, and may list pieces that no longer hold it. A
    pair gains owners in one pass only, one owner at a time: the initial
    count, or the merge that makes its newest symbol, since every pair that
    a merge adds holds the product. So a piece is appended unless it is
    already the list's last entry, and never leaves it. An owner whose scan
    finds no match no longer holds the merged pair, and is skipped as it is.

    Heap invariant: every live pair has at least one entry whose recorded
    count is at or above its live count. The initial heap and one push per
    ``created`` pair after the merge's last owner add such entries, counts
    only fall between pushes, and a popped entry whose recorded count is not
    the live count is re-filed at the live count. Hence the first popped
    entry that matches its live count is the true (max frequency, min pair),
    and the selection equals the full recount's. A popped pair whose product is
    already in the vocabulary is dropped: the vocabulary only grows, so the
    pair never becomes eligible again.
    """
    vocab, sequences = _initial_state(table, config)
    vocab_set = set(vocab)
    merges: list[Pair] = []

    pair_counts: dict[Pair, int] = {}
    where: dict[Pair, list[int]] = {}
    for idx, (seq, mult) in enumerate(sequences):
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + mult
            owners = where.get(pair)
            if owners is None:
                where[pair] = [idx]
            elif owners[-1] != idx:
                owners.append(idx)

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

        created: set[Pair] = set()
        for idx in where[pair]:
            seq, mult = sequences[idx]
            n = len(seq)
            out: list[str] = []
            gone: list[Pair] = []  # old pairs beside a match; none holds the product
            born: list[Pair] = []  # new pairs beside a match; each holds the product
            i = 0
            while i < n:
                if seq[i] != left or i + 1 == n or seq[i + 1] != right:
                    out.append(seq[i])
                    i += 1
                    continue
                gone.append(pair)
                if i:
                    gone.append((seq[i - 1], left))
                    born.append((out[-1], product))
                out.append(product)
                i += 2
                # unless the next match starts here: its left side takes this pair
                if i < n and (seq[i] != left or i + 1 == n or seq[i + 1] != right):
                    gone.append((right, seq[i]))
                    born.append((product, seq[i]))
            if not gone:
                continue  # a stale owner: the pair left this piece earlier
            sequences[idx] = (out, mult)
            for p in born:
                pair_counts[p] = pair_counts.get(p, 0) + mult
                owners = where.get(p)
                if owners is None:
                    where[p] = [idx]
                elif owners[-1] != idx:
                    owners.append(idx)
                created.add(p)
            for p in gone:
                if remaining := pair_counts[p] - mult:
                    pair_counts[p] = remaining
                else:
                    del pair_counts[p]
                    del where[p]
        for p in created:  # entries are fully ordered, so push order is moot
            heapq.heappush(heap, (-pair_counts[p], p))

    return TokenizerModel(
        mode=config.mode,
        scheme=table.scheme,
        vocab=tuple(vocab),
        merges=tuple(merges),
    )
