import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import convtok
from convtok.errors import ConfigError
from convtok.metrics import token_count
from convtok.tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    model_to_bytes,
    pretokenize,
)
from convtok.trainer import TrainConfig, train_bpe
from oracles import merge_adjacent, train_bpe_oracle

BYTE = TokenizerMode.BYTE_LEVEL
CHAR = TokenizerMode.CHAR_LEVEL_FALLBACK
CAT = PretokenScheme.CATEGORY_SPLIT
WS = PretokenScheme.WHITESPACE_SPLIT


def table_of(texts, scheme=CAT):
    return PieceTable.of(texts, scheme)


def random_corpus(rng, n_texts=6, n_words=80):
    words = ["the", "cat", "sat", "mats", "hello", "wörld", "你好吗", "12",
             "データ", "ok!", "a", "aa", "aaa", "<0x41>", "tt", "...", "don't"]
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(1, n_words)))
        for _ in range(rng.randint(1, n_texts))
    ]


def pair_counts(sequences):
    """Adjacent-pair frequencies over (symbols -> multiplicity)."""
    counts = Counter()
    for seq, mult in sequences.items():
        for pair in zip(seq, seq[1:]):
            counts[pair] += mult
    return counts


# ---------------------------------------------------------------------------
# Pair counting, observed through the trainers' first merges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trainer", [train_bpe, train_bpe_oracle], ids=["fast", "oracle"])
class TestPairCounting:
    def test_piece_multiplicity_weights_the_count(self, trainer):
        # one distinct piece "ab" seen three times counts (a, b) three times
        config = TrainConfig(vocab_size=300, min_pair_frequency=3)
        assert trainer(table_of(["ab"] * 3), config).merges == (("a", "b"),)
        assert trainer(table_of(["ab"] * 2), config).merges == ()

    def test_overlapping_adjacencies(self, trainer):
        # every adjacent index pair counts: "aaa" has two (a, a) positions
        config = TrainConfig(vocab_size=300, min_pair_frequency=2)
        assert trainer(table_of(["aaa"]), config).merges[0] == ("a", "a")
        assert trainer(table_of(["aa"]), config).merges == ()

    def test_no_pairs_no_merges(self, trainer):
        # whitespace split leaves "a b c" as five one-symbol pieces
        config = TrainConfig(vocab_size=300, min_pair_frequency=1)
        assert trainer(table_of([], WS), config).merges == ()
        assert trainer(table_of(["a b c"], WS), config).merges == ()

    def test_order_is_frequency_then_pair(self, trainer):
        # pieces "abab" x2 and "ba" x5: (b, a) 2 + 5 = 7 beats (a, b) 2 * 2 = 4
        corpus = ["abab"] * 2 + ["ba"] * 5
        config = TrainConfig(vocab_size=257, min_pair_frequency=1)
        assert trainer(table_of(corpus), config).merges == (("b", "a"),)
        # equal frequencies: the lexicographically smaller pair wins
        assert trainer(table_of(["cd", "ab"]), config).merges == (("a", "b"),)


# ---------------------------------------------------------------------------
# train_bpe
# ---------------------------------------------------------------------------

class TestTrainBpe:
    def test_single_merge_example(self):
        # pieces ["abab", " ab"]: (a,b) appears 3 times and wins
        model = train_bpe(table_of(["abab ab"]), TrainConfig(vocab_size=257))
        assert model.merges == (("a", "b"),)
        assert model.vocab[256] == "ab"

    def test_texts_are_refused(self):
        # training reads a piece table; its caller pretokenizes the texts
        with pytest.raises(TypeError, match="PieceTable"):
            train_bpe(["abab ab"], TrainConfig(vocab_size=257))

    def test_empty_corpus_gives_base_model(self):
        model = train_bpe(table_of([]), TrainConfig(vocab_size=500))
        assert len(model.vocab) == 256
        assert model.merges == ()

    def test_training_is_deterministic(self):
        corpus = table_of(random_corpus(random.Random(5)))
        config = TrainConfig(vocab_size=300)
        assert model_to_bytes(train_bpe(corpus, config)) == model_to_bytes(train_bpe(corpus, config))

    def test_training_is_independent_of_the_hash_seed(self):
        # the per-merge set of created pairs is iterated in string-hash order;
        # heap entries are fully ordered, so the order of their pushes is moot
        corpus = random_corpus(random.Random(77), n_texts=8, n_words=120)
        script = (
            "import hashlib, json, sys\n"
            "from convtok.tokenizer import PieceTable, PretokenScheme as S, TokenizerMode\n"
            "from convtok.tokenizer import model_to_bytes\n"
            "from convtok.trainer import TrainConfig, train_bpe\n"
            "corpus = PieceTable.of(json.load(sys.stdin), S.CATEGORY_SPLIT)\n"
            "for mode in TokenizerMode:\n"
            "    config = TrainConfig(vocab_size=420, mode=mode, min_pair_frequency=1)\n"
            "    print(hashlib.sha256(model_to_bytes(train_bpe(corpus, config))).hexdigest())\n"
        )
        src = str(Path(convtok.__file__).resolve().parents[1])
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script], input=json.dumps(corpus),
                                 env=env, capture_output=True, text=True, check=True).stdout
            digests.append(out.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]
        local = [hashlib.sha256(model_to_bytes(train_bpe(table_of(corpus), TrainConfig(
            vocab_size=420, mode=mode, min_pair_frequency=1)))).hexdigest() for mode in (BYTE, CHAR)]
        assert digests[0] == local

    def test_a_merge_pushes_each_created_pair_once(self, monkeypatch):
        # merging (a, b) creates (ab, c) in five distinct pieces: one push, at
        # its final count, not one per piece
        pushed = []
        real_push = convtok.trainer.heapq.heappush

        def spy(heap, entry):
            pushed.append(entry[1])
            real_push(heap, entry)

        monkeypatch.setattr(convtok.trainer.heapq, "heappush", spy)
        model = train_bpe(table_of(["abc xabc yabc zabc wabc"] * 3), TrainConfig(vocab_size=258))
        assert model.merges == (("a", "b"), ("ab", "c"))
        assert pushed.count(("ab", "c")) == 1

    def test_min_pair_frequency_stops_merging(self):
        assert train_bpe(table_of(["ab"]), TrainConfig(vocab_size=300)).merges == ()
        model = train_bpe(table_of(["ab"]), TrainConfig(vocab_size=300, min_pair_frequency=1))
        assert ("a", "b") in model.merges

    def test_vocab_size_below_base_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(vocab_size=255)

    def test_char_mode_base_overflow_rejected(self):
        corpus = table_of([" ".join(chr(0x4E00 + i) for i in range(40))])
        with pytest.raises(ConfigError):
            train_bpe(corpus, TrainConfig(vocab_size=260, mode=CHAR))

    def test_char_mode_alphabet_includes_corpus_chars(self):
        model = train_bpe(table_of(["abc"]), TrainConfig(vocab_size=300, mode=CHAR))
        assert {"a", "b", "c"} <= set(model.vocab[256:])

    def test_merged_token_never_shadows_fallback_literal(self):
        corpus = table_of(["<0x41> <0x41> <0x41> <0x41> <0x41>"])
        config = TrainConfig(vocab_size=400, mode=CHAR, min_pair_frequency=1)
        model = train_bpe(corpus, config)
        assert model.vocab.count("<0x41>") == 1
        assert model.vocab.index("<0x41>") == 0x41
        oracle = train_bpe_oracle(corpus, config)
        assert oracle.merges == model.merges

    def test_selected_merges_met_frequency_threshold(self):
        corpus = random_corpus(random.Random(11))
        config = TrainConfig(vocab_size=400, min_pair_frequency=2)
        model = train_bpe(table_of(corpus), config)
        assert model.merges
        # replay training: recount pairs before each merge and check the bar
        pieces = Counter()
        for text in corpus:
            pieces.update(pretokenize(text, CAT))
        from convtok.tokenizer import _base_symbols  # replay needs base symbols
        sequences = {tuple(_base_symbols(model, p)): m for p, m in pieces.items()}
        for left, right in model.merges:
            assert pair_counts(sequences)[(left, right)] >= config.min_pair_frequency
            sequences = Counter(
                {tuple(merge_adjacent(list(seq), left, right, left + right)): m
                 for seq, m in sequences.items()}
            )

    def test_monotone_token_count_in_merge_count(self):
        corpus = random_corpus(random.Random(23), n_texts=10, n_words=200)
        full = train_bpe(table_of(corpus), TrainConfig(vocab_size=320, min_pair_frequency=1))
        previous = None
        for k in range(0, len(full.merges) + 1, max(1, len(full.merges) // 4)):
            truncated = _truncate(full, k)
            count = token_count(truncated, corpus)
            if previous is not None:
                assert count <= previous
            previous = count


def _truncate(model, k):
    from convtok.tokenizer import TokenizerModel, base_alphabet

    vocab = list(base_alphabet(model.mode))
    if model.mode is CHAR:
        vocab = list(model.vocab[:256]) + [t for t in model.vocab[256:] if len(t) == 1]
    seen = set(vocab)
    merges = model.merges[:k]
    for left, right in merges:
        product = left + right
        if product not in seen:
            vocab.append(product)
            seen.add(product)
    return TokenizerModel(mode=model.mode, scheme=model.scheme,
                          vocab=tuple(vocab), merges=merges)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_first_merge_of_known_corpus(self):
        model = train_bpe_oracle(
            table_of(["aaabdaaabac"]), TrainConfig(vocab_size=300, mode=CHAR, min_pair_frequency=1)
        )
        assert model.merges[0] == ("a", "a")
        # the winning pair had frequency 4 at selection time
        counts = pair_counts({tuple("aaabdaaabac"): 1})
        assert counts[("a", "a")] == 4
        assert max(counts.values()) == 4

    def test_base_only_config_trains_nothing(self):
        config = TrainConfig(vocab_size=256)
        assert train_bpe(table_of(["abab abab"]), config).merges == ()
        assert train_bpe_oracle(table_of(["abab abab"]), config).merges == ()

    @pytest.mark.parametrize("mode", [BYTE, CHAR])
    @pytest.mark.parametrize("min_freq", [1, 2])
    def test_equivalence_on_random_corpora(self, mode, min_freq):
        rng = random.Random(1000 * min_freq + (1 if mode is BYTE else 2))
        for _ in range(4):
            corpus = table_of(random_corpus(rng))
            config = TrainConfig(vocab_size=330, mode=mode, min_pair_frequency=min_freq)
            fast = train_bpe(corpus, config)
            slow = train_bpe_oracle(corpus, config)
            assert fast.merges == slow.merges
            assert fast.vocab == slow.vocab


class TestNeighbouringMatches:
    """Matches that share a neighbour, where a merge's pair deltas at one
    match and at the next meet on the same symbol."""

    CORPORA = (
        [["a" * k] for k in range(2, 10)]
        + [["ab" * k] for k in range(2, 10)]
        + [["aab"], ["xaay"], ["abcab"]]
    )

    @pytest.mark.parametrize("mode", [BYTE, CHAR])
    @pytest.mark.parametrize("corpus", CORPORA, ids=lambda c: c[0])
    def test_matches_oracle(self, corpus, mode):
        config = TrainConfig(vocab_size=300, mode=mode, min_pair_frequency=1)
        fast = train_bpe(table_of(corpus), config)
        slow = train_bpe_oracle(table_of(corpus), config)
        assert model_to_bytes(fast) == model_to_bytes(slow)

    def test_run_of_four_merges_its_halves(self):
        # "aaaa" holds (a, a) three times; merging it leaves (aa)(aa), one (aa, aa)
        config = TrainConfig(vocab_size=300, min_pair_frequency=1)
        assert train_bpe(table_of(["aaaa"]), config).merges == (("a", "a"), ("aa", "aa"))


class TestOracleStress:
    """Byte-for-byte agreement with the oracle where the fast trainer's pair
    deltas and lazy heap re-filing do the most work."""

    def test_falling_count_is_re_filed_and_merged_later(self):
        # (a, b) = 5 and (b, c) = 5 tie; (a, b) wins on the pair order. Merging
        # it drops (b, c) to 2 ("bc" x2) without removing it, so the heap entry
        # recorded at 5 must be re-filed at 2 for the third merge to happen.
        corpus = table_of(["abc"] * 3 + ["ab"] * 2 + ["bc"] * 2)
        config = TrainConfig(vocab_size=300, min_pair_frequency=2)
        expected = (("a", "b"), ("ab", "c"), ("b", "c"))
        assert train_bpe(corpus, config).merges == expected
        assert train_bpe_oracle(corpus, config).merges == expected

    def test_random_corpora_match_oracle(self):
        rng = random.Random(20250601)
        words = ["the", "cat", "tat", "abab", "ba", "你好", "ok!", "12", "x",
                 "<0x41>", "<0x4", "0x41>", "<<>>"]
        for case in range(120):
            run = rng.choice("ab")
            vocab = words + [run * rng.randint(3, 40) for _ in range(3)]
            corpus = table_of([
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 25)))
                for _ in range(rng.randint(1, 4))
            ], tuple(PretokenScheme)[case // 2 % 2])
            config = TrainConfig(
                vocab_size=rng.randint(300, 380),
                mode=(BYTE, CHAR)[case % 2],
                min_pair_frequency=1 + case // 4 % 3,
            )
            fast = train_bpe(corpus, config)
            slow = train_bpe_oracle(corpus, config)
            assert model_to_bytes(fast) == model_to_bytes(slow), (case, corpus, config)

