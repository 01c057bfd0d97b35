"""Slow reference implementations that the tests hold the package to.

Each one is the plain, quadratic or per-character form of an idea that
``src/convtok`` implements fast: one merge rewritten across a whole symbol
list, training by full recount, merge application by rescanning, and
pretokenizing character by character. None of them ships with the package.
"""

from collections import Counter

from convtok.tokenizer import PieceTable, PretokenScheme, TokenizerModel
from convtok.trainer import TrainConfig, _initial_state

Pair = tuple[str, str]


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


def train_bpe_oracle(table: PieceTable, config: TrainConfig) -> TokenizerModel:
    """Same contract as :func:`convtok.trainer.train_bpe`, computed by full
    recount after every merge. Quadratic; keep its inputs small."""
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
        scheme=table.scheme,
        vocab=tuple(vocab),
        merges=tuple(merges),
    )


def reference_apply_merges(model, symbols):
    """Test oracle for ``_apply_merges``: rescan for the lowest-ranked pair
    present, merge it everywhere with ``merge_adjacent``, repeat. Quadratic."""
    ranks = model._merge_ranks
    while len(symbols) >= 2:
        best_rank = best_pair = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        left, right = best_pair
        symbols = merge_adjacent(symbols, left, right, left + right)
    return symbols


# The character-by-character pretokenizer that the class-letter patterns
# replaced, kept (less its class cache) as their test oracle.
_WS, _LETTER, _DIGIT, _SYMBOL = 0, 1, 2, 3


def _char_class(ch):
    if ch.isspace():
        return _WS
    if ch.isalpha():
        return _LETTER
    if ch.isnumeric():
        return _DIGIT
    return _SYMBOL


def _class_runs(text, split_non_ws):
    """Maximal same-class runs as (class, start, end). With ``split_non_ws``
    False, all non-whitespace classes collapse into one."""
    runs = []
    start = 0
    prev = -1
    for i, ch in enumerate(text):
        cls = _char_class(ch)
        if not split_non_ws and cls != _WS:
            cls = _SYMBOL
        if cls != prev:
            if prev != -1:
                runs.append((prev, start, i))
            start = i
            prev = cls
    if prev != -1:
        runs.append((prev, start, len(text)))
    return runs


def reference_pretokenize(text, scheme):
    if scheme is PretokenScheme.WHITESPACE_SPLIT:
        return [text[s:e] for _, s, e in _class_runs(text, split_non_ws=False)]

    runs = _class_runs(text, split_non_ws=True)
    pieces = []
    i = 0
    n = len(runs)
    while i < n:
        cls, s, e = runs[i]
        if cls == _WS and i + 1 < n and text[e - 1] == " ":
            nxt_cls, _, nxt_e = runs[i + 1]
            if nxt_cls in (_LETTER, _DIGIT):
                if e - 1 > s:
                    pieces.append(text[s:e - 1])
                pieces.append(text[e - 1:nxt_e])
                i += 2
                continue
        pieces.append(text[s:e])
        i += 1
    return pieces
