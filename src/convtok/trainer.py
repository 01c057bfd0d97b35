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

The trainer keeps every piece's symbols in one linked list, as the encoder
does, live pair counts, the positions where each pair formed and a lazy
max-heap of (count, pair) entries. A merge of (L, R) into P visits only the
positions of (L, R) and changes counts only beside each: the pairs that
touch the merged symbols fall, and the pairs that join P to its new
neighbours rise. Only those, which hold P, can rise, and each is pushed
once, after the merge; a popped entry that records more than the live count
is re-filed at it. Since counts only fall between pushes, the selection
stays exact (see :func:`train_bpe`).
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from functools import partial
from typing import Iterator

from .config import TokenizerMode, TrainConfig
from .errors import ConfigError
from .tokenizer import PieceTable, TokenizerModel, _base_symbols, base_alphabet

Pair = tuple[str, str]

# ---------------------------------------------------------------------------
# Shared setup
# ---------------------------------------------------------------------------

def _initial_state(
    table: PieceTable, config: TrainConfig
) -> tuple[list[str], Iterator[tuple[list[str], int]]]:
    """Base vocabulary plus a lazy walk of (symbols, multiplicity) over the
    table's pieces of two or more symbols."""
    if not isinstance(table, PieceTable):
        raise TypeError(f"training takes a PieceTable, not {type(table).__name__}")
    pieces = table.pieces
    chars = set().union(*pieces) if config.mode is TokenizerMode.CHAR_LEVEL_FALLBACK else set()
    vocab = [*base_alphabet(config.mode), *sorted(chars)]
    if len(vocab) > config.vocab_size:  # only with corpus characters: vocab_size >= 256
        raise ConfigError(
            f"vocab_size {config.vocab_size} is below the base alphabet size "
            f"{len(vocab)} (256 fallback tokens + {len(chars)} corpus characters)"
        )
    # every character of the table is in the vocabulary, so none falls back
    walk = ((symbols, mult) for piece, mult in pieces.items()
            if len(symbols := _base_symbols(config.mode, chars, piece)) > 1)
    return vocab, walk


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

def train_bpe(table: PieceTable, config: TrainConfig) -> TokenizerModel:
    """Train a BPE model of the table's scheme; deterministic in (table, config).

    Pair counts are kept incrementally and the best pair sits in a lazy
    max-heap, so a merge costs in proportion to the positions it merges.

    Symbols: every piece's base symbols sit in one list ``sym``, each piece
    followed by ``None``, with ``nxt``/``prv`` links and each position's
    piece multiplicity in ``mult``, as in the encoder's ``_apply_merges``. A
    merge renames its left position to ``P`` and kills the right one
    (``None``), so a position's symbol only grows, and its ``nxt`` link only
    moves when it does.

    ``where[p]`` holds the position of every live occurrence of pair ``p``,
    and may hold positions where ``p`` has since broken. A pair is filed
    where it forms, at the start or beside a merge; by the above it never
    forms twice at one position, so each position is filed once.

    Merge step: the positions of ``(L, R)`` are merged in ascending order,
    left to right within a piece, skipping a stale one, which no longer holds
    ``L`` followed by ``R``. At each merge ``(sym[before], L)`` and ``(R,
    sym[after])`` fall in ``delta`` and ``(sym[before], P)`` and ``(P,
    sym[after])`` rise and are filed; no other pair is touched. So ``aaaa``
    files ``(aa, a)`` at its first merge and breaks it at its second, which
    files ``(aa, aa)``. A left-to-right merge leaves no ``(L, R)`` behind,
    so that pair goes. The batch's ``delta`` is then added to the counts,
    and a pair whose count is zero goes with its positions.

    Heap invariant: every live pair has at least one entry whose recorded
    count is at or above its live count. The initial heap and one push per
    pair whose count rose in the merge add such entries (each holds ``P``),
    counts only fall between pushes, and a popped entry whose recorded count
    is not the live count is re-filed at the live count. Hence the first
    popped entry that matches its live count is the true (max frequency, min
    pair), and the selection equals the full recount's. A popped pair whose
    product is already in the vocabulary is dropped: the vocabulary only
    grows, so the pair never becomes eligible again.
    """
    vocab, walk = _initial_state(table, config)
    vocab_set = set(vocab)
    merges: list[Pair] = []

    # positions and multiplicities take 4 bytes when the table bounds them
    # below 2**31: a piece has at most 4 symbols per character, and a None after it
    pieces = table.pieces
    bound = max(4 * sum(map(len, pieces)) + len(pieces), max(pieces.values(), default=0))
    width = "i" if bound < 2**31 else "q"
    sym: list[str | None] = []
    mult = array(width)
    pair_counts: dict[Pair, int] = {}
    where: defaultdict[Pair, array] = defaultdict(partial(array, width))
    for seq, m in walk:
        for pos, pair in enumerate(zip(seq, seq[1:]), len(sym)):
            pair_counts[pair] = pair_counts.get(pair, 0) + m
            where[pair].append(pos)
        sym += seq
        sym.append(None)
        mult += array(width, (m,)) * (len(seq) + 1)
    seq = None  # sym holds the last piece's symbols too
    # index -1 reads the last piece's None, so the first piece has no left neighbour
    nxt = array(width, range(1, len(sym) + 1))
    prv = array(width, range(-1, len(sym) - 1))

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

        del pair_counts[pair]  # the merge leaves no (L, R) behind
        delta: dict[Pair, int] = {}
        for pos in sorted(where.pop(pair)):
            gone = nxt[pos]
            if sym[pos] != left or sym[gone] != right:
                continue  # a stale position: a merge beside it broke the pair
            m = mult[pos]
            sym[pos] = product
            sym[gone] = None
            after = nxt[pos] = nxt[gone]
            prv[after] = pos
            before = prv[pos]
            if (neighbour := sym[before]) is not None:
                p = neighbour, left
                delta[p] = delta.get(p, 0) - m
                p = neighbour, product
                delta[p] = delta.get(p, 0) + m
                where[p].append(before)
            if (neighbour := sym[after]) is not None:
                p = right, neighbour
                delta[p] = delta.get(p, 0) - m
                p = product, neighbour
                delta[p] = delta.get(p, 0) + m
                where[p].append(pos)
        delta.pop(pair, None)  # an overlapping (L, R), as in aaa, fell beside a merge
        for p, change in delta.items():  # entries are fully ordered, so push order is moot
            if count := pair_counts.get(p, 0) + change:
                pair_counts[p] = count
                if change > 0:  # a pair that holds the product
                    heapq.heappush(heap, (-count, p))
            else:  # gone, or formed and broken in this merge, as (aa, a) in aaaa
                pair_counts.pop(p, None)
                del where[p]

    del sym, nxt, prv, mult, where, pair_counts, heap  # before the model's lookup tables
    return TokenizerModel(
        mode=config.mode,
        scheme=table.scheme,
        vocab=tuple(vocab),
        merges=tuple(merges),
    )
