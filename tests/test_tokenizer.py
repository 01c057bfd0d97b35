import copy
import heapq
import json
import random

import pytest

from convtok.errors import (
    ConfigError,
    FormatVersionMismatch,
    IdOutOfRange,
    IntegrityError,
    InvalidByteSequence,
)
from convtok.samples import generate_corpora
from convtok import tokenizer
from convtok.tokenizer import (
    FALLBACK_TOKENS,
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    _apply_merges,
    _base_symbols,
    base_alphabet,
    decode,
    encode,
    encode_piece,
    load_model,
    model_to_bytes,
    pretokenize,
    save_model,
)
from convtok.metrics import fertility, token_count
from convtok.trainer import TrainConfig, train_bpe
from oracles import reference_apply_merges, reference_pretokenize

CAT = PretokenScheme.CATEGORY_SPLIT
WS = PretokenScheme.WHITESPACE_SPLIT


def random_text(rng, max_len=120):
    """Valid-UTF-8 string mixing scripts, whitespace runs, and symbols."""
    pools = [
        lambda: chr(rng.randrange(0x20, 0x7F)),
        lambda: chr(rng.randrange(0x20, 0x7F)),
        lambda: rng.choice(" \t\n  "),
        lambda: chr(rng.randrange(0xA0, 0x300)),
        lambda: chr(rng.randrange(0x4E00, 0x9FFF)),
        lambda: chr(rng.randrange(0x400, 0x4FF)),
        lambda: rng.choice("🎉🚀😀🧪"),
        lambda: chr(rng.randrange(0x1, 0x20)),
    ]
    return "".join(rng.choice(pools)() for _ in range(rng.randrange(max_len)))


@pytest.fixture(scope="module")
def byte_model():
    corpus = ["the cat sat on the mat", "hello world, hello again", "números y cosas"]
    return train_bpe(PieceTable.of(corpus, CAT),
                     TrainConfig(vocab_size=300, mode=TokenizerMode.BYTE_LEVEL))


@pytest.fixture(scope="module")
def char_model():
    corpus = ["the cat sat on the mat", "hello world, hello again"]
    return train_bpe(
        PieceTable.of(corpus, CAT),
        TrainConfig(vocab_size=330, mode=TokenizerMode.CHAR_LEVEL_FALLBACK),
    )


def toy_char_model(extra_vocab=("a", "b", "ab"), merges=(("a", "b"),)):
    return TokenizerModel(
        mode=TokenizerMode.CHAR_LEVEL_FALLBACK,
        scheme=CAT,
        vocab=FALLBACK_TOKENS + tuple(extra_vocab),
        merges=tuple(merges),
    )


# ---------------------------------------------------------------------------
# Byte symbol map
# ---------------------------------------------------------------------------

class TestByteSymbolMap:
    alphabet = base_alphabet(TokenizerMode.BYTE_LEVEL)

    def test_identity_ranges(self):
        assert self.alphabet[0x41] == "A"
        assert self.alphabet[0x7E] == "~"
        assert self.alphabet[0xFF] == chr(0xFF)

    def test_shifted_values(self):
        # derived by counting non-identity bytes in increasing order
        assert self.alphabet[0x20] == chr(288)
        assert self.alphabet[0x00] == chr(256)
        assert self.alphabet[0x7F] == chr(289)
        assert self.alphabet[0xAD] == chr(323)

    def test_bijection(self):
        assert len(self.alphabet) == 256
        assert len(set(self.alphabet)) == 256

    def test_matches_independent_enumeration(self):
        # independent reconstruction of the stated rule
        expected = []
        shifted = 0
        for b in range(256):
            if 0x21 <= b <= 0x7E or 0xA1 <= b <= 0xAC or 0xAE <= b <= 0xFF:
                expected.append(chr(b))
            else:
                expected.append(chr(256 + shifted))
                shifted += 1
        assert shifted == 68
        assert self.alphabet == tuple(expected)


# ---------------------------------------------------------------------------
# Pretokenization
# ---------------------------------------------------------------------------

class TestPretokenize:
    def test_two_words(self):
        assert pretokenize("hello world", CAT) == ["hello", " world"]

    def test_empty(self):
        assert pretokenize("", CAT) == []
        assert pretokenize("", WS) == []

    def test_category_boundaries(self):
        assert pretokenize("ab12, cd", CAT) == ["ab", "12", ",", " cd"]

    def test_single_space_attaches_to_digits(self):
        assert pretokenize("x 42", CAT) == ["x", " 42"]

    def test_space_not_attached_to_symbols(self):
        assert pretokenize("a !", CAT) == ["a", " ", "!"]

    def test_long_whitespace_run(self):
        assert pretokenize("a  b", CAT) == ["a", " ", " b"]
        assert pretokenize("a \t b", CAT) == ["a", " \t", " b"]

    def test_only_ascii_space_attaches(self):
        assert pretokenize("a b", CAT) == ["a", " ", "b"]
        assert pretokenize("a\tb", CAT) == ["a", "\t", "b"]

    def test_whitespace_split(self):
        assert pretokenize("hello world", WS) == ["hello", " ", "world"]
        assert pretokenize(" x\t\ty ", WS) == [" ", "x", "\t\t", "y", " "]

    @pytest.mark.parametrize("scheme", [CAT, WS])
    def test_lossless_on_fuzz(self, scheme):
        rng = random.Random(1234)
        for _ in range(400):
            text = random_text(rng)
            pieces = pretokenize(text, scheme)
            assert "".join(pieces) == text

    def test_whitespace_split_pieces_are_pure(self):
        rng = random.Random(5)
        for _ in range(100):
            for piece in pretokenize(random_text(rng), WS):
                kinds = {ch.isspace() for ch in piece}
                assert len(kinds) == 1


# Every class edge: numeric but not decimal (²), alpha and numeric (一),
# non-ASCII whitespace, control characters that are whitespace (\x1c, U+0085)
# and one that is not (\x00), symbols, an emoji, and the space-before-run cases.
EDGE_POOL = ["²", "一", "\u00a0", "\u3000", "\u0085", "\x1c", "\x00", "_", "🎉",
             " a", " 1", "  ", " ", "\t", "\n", "a", "Z", "é", "7", "!", ",", "."]


class TestPretokenizeMatchesReference:
    @pytest.mark.parametrize("scheme", [CAT, WS])
    def test_fuzz(self, scheme):
        rng = random.Random(20250601)
        for _ in range(12_000):
            text = "".join(rng.choices(EDGE_POOL, k=rng.randrange(12)))
            assert pretokenize(text, scheme) == reference_pretokenize(text, scheme), repr(text)

    @pytest.mark.parametrize("scheme", [CAT, WS])
    def test_sample_texts(self, scheme):
        # the corpora of the ``tiny`` experiment fixture
        docs, lines = generate_corpora(seed=7, doc_bytes=60_000, conv_bytes=60_000)
        texts = docs + [turn["content"] for line in lines for turn in json.loads(line)["turns"]]
        for text in texts:
            assert pretokenize(text, scheme) == reference_pretokenize(text, scheme)


class TestPieceTable:
    def test_counts_pieces_and_words(self):
        table = PieceTable.of(["hello world", "hello  there"], CAT)
        assert table.pieces == {"hello": 2, " world": 1, " ": 1, " there": 1}
        assert table.n_words == 4
        assert table.scheme is CAT

    @pytest.mark.parametrize("scheme", [CAT, WS])
    def test_sum_of_tables_is_table_of_concatenation(self, scheme):
        rng = random.Random(77)
        texts_a = [random_text(rng) for _ in range(60)]
        texts_b = [random_text(rng) for _ in range(40)]
        combined = PieceTable.of(texts_a, scheme) + PieceTable.of(texts_b, scheme)
        assert combined == PieceTable.of(texts_a + texts_b, scheme)

    def test_table_passes_through_unchanged(self):
        table = PieceTable.of(["a b"], WS)
        assert PieceTable.of(table, WS) is table

    def test_scheme_mismatch_rejected(self):
        table = PieceTable.of(["a b"], WS)
        with pytest.raises(ConfigError):
            PieceTable.of(table, CAT)
        with pytest.raises(ConfigError):
            PieceTable.of(["a b"], CAT) + table

    def test_consumers_accept_a_table(self):
        # training takes a table and gives a model of its scheme; the
        # metrics take texts or a table and agree
        texts = ["one two three", "two three", "three"]
        config = TrainConfig(vocab_size=270, min_pair_frequency=1)
        assert train_bpe(PieceTable.of(texts, WS), config).scheme is WS
        table = PieceTable.of(texts, CAT)
        model = train_bpe(table, config)
        assert model.scheme is CAT
        assert token_count(model, table) == token_count(model, texts)
        assert fertility(model, table) == fertility(model, texts)


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------

class TestEncode:
    def test_empty(self, byte_model):
        assert encode(byte_model, "") == []

    def test_merge_application(self):
        model = toy_char_model()
        ids = encode(model, "abab")
        assert [model.vocab[i] for i in ids] == ["ab", "ab"]

    def test_merges_apply_in_rank_order(self):
        # (b, c) outranks (a, b), so "abc" becomes [a, bc]
        model = toy_char_model(
            extra_vocab=("a", "b", "c", "bc", "ab"),
            merges=(("b", "c"), ("a", "b")),
        )
        ids = encode(model, "abc")
        assert [model.vocab[i] for i in ids] == ["a", "bc"]

    def test_byte_fallback_for_unknown_char(self):
        model = toy_char_model()
        ids = encode(model, "é")
        assert [model.vocab[i] for i in ids] == ["<0xC3>", "<0xA9>"]
        assert decode(model, ids) == "é"

    def test_no_merge_across_pieces(self, byte_model):
        rng = random.Random(77)
        for _ in range(100):
            text = random_text(rng)
            per_piece = []
            for piece in pretokenize(text, byte_model.scheme):
                per_piece.extend(encode_piece(byte_model, piece))
            assert per_piece == encode(byte_model, text)

    def test_never_longer_than_base_symbols(self, byte_model, char_model):
        rng = random.Random(31)
        for _ in range(100):
            text = random_text(rng)
            assert len(encode(byte_model, text)) <= len(text.encode("utf-8"))
            assert len(encode(char_model, text)) <= 4 * len(text)

    def test_encoding_leaves_the_model_unchanged(self, byte_model, char_model):
        # encode memoizes the pieces of one text only, and token_count
        # counts into its own map: nothing is cached on the model
        rng = random.Random(53)
        texts = [random_text(rng) for _ in range(50)]
        for model in (fresh_copy(byte_model), fresh_copy(char_model)):
            before = copy.deepcopy(vars(model))
            for text in texts:
                encode(model, text + text)
            token_count(model, texts)
            assert vars(model) == before


def random_merge_model(rng, mode, letters, extra_symbols=(), self_pairs=False):
    """A valid model whose merges join random symbols in a random rank order,
    so a merge may rank above the merges that make its operands. With
    ``self_pairs`` a third of the merges pair a symbol with itself."""
    vocab = list(base_alphabet(mode)) + [c for c in letters if c not in base_alphabet(mode)]
    symbols = list(letters) + list(extra_symbols)
    merges = []
    for _ in range(rng.randrange(1, 14)):
        left, right = rng.choice(symbols), rng.choice(symbols)
        if self_pairs and rng.randrange(3) == 0:
            right = left
        merges.append((left, right))
        if left + right not in vocab:
            vocab.append(left + right)
            symbols.append(left + right)
    rng.shuffle(merges)
    return TokenizerModel(mode=mode, scheme=CAT, vocab=tuple(vocab), merges=tuple(merges))


def assert_matches_reference(model, piece):
    base = _base_symbols(model, piece)
    assert _apply_merges(model, list(base)) == reference_apply_merges(model, base), (
        piece, model.merges)


class CountingRanks(dict):
    """A merge-rank table that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def fresh_copy(model):
    """The same model with its own lookup tables."""
    return TokenizerModel(mode=model.mode, scheme=model.scheme, vocab=model.vocab,
                          merges=model.merges)


@pytest.fixture(scope="module")
def sample_texts():
    # the corpora of the ``tiny`` experiment fixture, cut to half
    docs, lines = generate_corpora(seed=7, doc_bytes=30_000, conv_bytes=30_000)
    return docs + [turn["content"] for line in lines for turn in json.loads(line)["turns"]]


@pytest.fixture(scope="module")
def sample_model(sample_texts):
    return train_bpe(PieceTable.of(sample_texts, CAT), TrainConfig(vocab_size=1024))


class TestApplyMergesMatchesReference:
    @pytest.mark.parametrize("mode", [TokenizerMode.BYTE_LEVEL, TokenizerMode.CHAR_LEVEL_FALLBACK])
    @pytest.mark.parametrize("letters", ["ab", "abc"])
    def test_random_merge_orders(self, mode, letters):
        rng = random.Random(20250601)
        for _ in range(400):
            model = random_merge_model(rng, mode, letters)
            for _ in range(8):
                piece = "".join(rng.choices(letters, k=rng.choice([0, 1, 2, 3, 9, 40])))
                assert_matches_reference(model, piece)

    @pytest.mark.parametrize("mode", [TokenizerMode.BYTE_LEVEL, TokenizerMode.CHAR_LEVEL_FALLBACK])
    def test_long_pieces_and_self_pairs(self, mode):
        # a product paired with itself, (X, X), can overlap its own
        # occurrences, so the order in which a rank's positions are merged
        # decides the output
        rng = random.Random(20250602)
        for _ in range(60):
            model = random_merge_model(rng, mode, "ab", self_pairs=True)
            for _ in range(2):
                assert_matches_reference(model, "".join(rng.choices("ab", k=rng.randrange(200, 2001))))

    def test_a_pair_formed_later_on_the_left_merges_first(self):
        # the product of the fifth merge spells the fallback token of "Q",
        # which is not in the vocabulary: "QQ" holds (Y, Y) from the start,
        # and the spelt-out Y to its left forms only at rank 4, so the rank 5
        # batch files position 6 before position 0
        spelt = ("<", "<0", "<0x", "<0x5", "<0x51")
        y = FALLBACK_TOKENS[ord("Q")]
        model = toy_char_model(extra_vocab=("0", "x", "5", "1", ">", *spelt, y + y),
                               merges=(*zip(spelt, "0x51>"), (y, y)))
        assert _apply_merges(model, _base_symbols(model, "<0x51>QQ")) == [y + y, y]
        assert_matches_reference(model, "<0x51>QQ")

    def test_fallback_symbols(self):
        # "é" is not in the vocabulary, so it enters as <0xC3> <0xA9>
        rng = random.Random(7)
        for _ in range(400):
            model = random_merge_model(rng, TokenizerMode.CHAR_LEVEL_FALLBACK, "ab",
                                       extra_symbols=("<0xC3>", "<0xA9>"))
            for _ in range(8):
                piece = "".join(rng.choices("abé", k=rng.choice([0, 1, 2, 5, 20])))
                assert_matches_reference(model, piece)

    def test_fixture_models_on_sample_texts(self, byte_model, char_model, sample_model,
                                            sample_texts):
        pieces = {p for text in sample_texts for p in pretokenize(text, CAT)}
        for model in (byte_model, char_model, sample_model):
            for piece in pieces:
                assert_matches_reference(model, piece)

    def test_lower_rank_made_mid_batch_waits_for_the_batch(self):
        # merging (a, b) at 0 makes (ab, a), which outranks it, but the
        # (a, b) at 2 is merged first: each rank is applied everywhere at once
        model = toy_char_model(extra_vocab=("a", "b", "ab", "aba"),
                               merges=(("ab", "a"), ("a", "b")))
        assert [model.vocab[i] for i in encode(model, "abab")] == ["ab", "ab"]
        assert_matches_reference(model, "abab")

    def test_back_to_back_matches(self):
        model = toy_char_model(extra_vocab=("a", "aa"), merges=(("a", "a"),))
        assert [model.vocab[i] for i in encode(model, "aaaa")] == ["aa", "aa"]
        assert [model.vocab[i] for i in encode(model, "aaa")] == ["aa", "a"]


@pytest.fixture(scope="module")
def long_piece(sample_texts):
    # one unbroken letter run of several thousand symbols, as spaceless chat
    # text makes
    words = sorted({w for text in sample_texts for w in text.split() if w.isascii()
                    and w.isalpha()})
    return "".join(random.Random(3).choices(words, k=600))


class TestEncodeCost:
    def test_rank_lookups_linear_in_piece_length(self, sample_model, long_piece):
        # the rescan loop needs one pass per merge applied
        piece = long_piece
        n = len(_base_symbols(sample_model, piece))
        assert n > 3000 and pretokenize(piece, CAT) == [piece]
        bound = 3 * n

        model = fresh_copy(sample_model)
        ranks = CountingRanks(model._merge_ranks)
        object.__setattr__(model, "_merge_ranks", ranks)
        expected = reference_apply_merges(sample_model, _base_symbols(sample_model, piece))
        assert _apply_merges(model, _base_symbols(model, piece)) == expected
        assert ranks.lookups <= bound

        ranks.lookups = 0
        reference_apply_merges(model, _base_symbols(model, piece))
        assert ranks.lookups > bound  # the bound tells the two apart

    def test_heap_holds_ranks_not_positions(self, sample_model, long_piece, monkeypatch):
        # the heap holds ranks, each once until its batch is popped; in a
        # trained model a merge outranks the merges that make its operands,
        # so a popped rank never forms again and the heap sees at most one
        # entry per merge, however long the piece. One entry per ranked pair
        # would be about one per symbol.
        entries = []

        def spy_heapify(heap):
            entries.extend(heap)
            heapq.heapify(heap)

        def spy_heappush(heap, item):
            entries.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(tokenizer, "heapify", spy_heapify)
        monkeypatch.setattr(tokenizer, "heappush", spy_heappush)
        symbols = _base_symbols(sample_model, long_piece)
        assert len(symbols) > 3000
        expected = reference_apply_merges(sample_model, symbols)
        assert _apply_merges(sample_model, symbols) == expected
        assert len(expected) < len(symbols) // 2  # most of the piece is merged
        assert 0 < len(entries) <= len(sample_model.merges)


class TestDecode:
    def test_empty(self, byte_model):
        assert decode(byte_model, []) == ""

    def test_roundtrip_simple(self, byte_model, char_model):
        for model in (byte_model, char_model):
            for text in ("hello", "hello world", "¡héllo! 你好\n\t", "🎉 emoji"):
                assert decode(model, encode(model, text)) == text

    @pytest.mark.parametrize("mode_fixture", ["byte_model", "char_model"])
    def test_roundtrip_fuzz(self, mode_fixture, request):
        model = request.getfixturevalue(mode_fixture)
        rng = random.Random(4321)
        for _ in range(300):
            text = random_text(rng)
            assert decode(model, encode(model, text)) == text

    def test_id_out_of_range(self, byte_model, char_model):
        with pytest.raises(IdOutOfRange):
            decode(byte_model, [len(byte_model.vocab)])
        with pytest.raises(IdOutOfRange):
            decode(char_model, [-1])

    def test_invalid_fallback_bytes(self):
        model = toy_char_model()
        lone_continuation = model.vocab.index("<0xC3>")
        with pytest.raises(InvalidByteSequence):
            decode(model, [lone_continuation])
        # a cut-off fallback sequence stays an error before a vocabulary token
        with pytest.raises(InvalidByteSequence):
            decode(model, [lone_continuation, model.vocab.index("ab")])
        assert decode(model, [model.vocab.index("<0xC3>"), model.vocab.index("<0xA9>"),
                              model.vocab.index("ab")]) == "éab"

    def test_lone_surrogate_token(self):
        model = toy_char_model(extra_vocab=("\ud800",), merges=())
        with pytest.raises(InvalidByteSequence):
            decode(model, [model.vocab.index("\ud800")])

    def test_invalid_byte_mode_sequence(self, byte_model):
        c3_symbol = base_alphabet(TokenizerMode.BYTE_LEVEL)[0xC3]
        with pytest.raises(InvalidByteSequence):
            decode(byte_model, [byte_model.vocab.index(c3_symbol)])


# ---------------------------------------------------------------------------
# Model validation and serialization
# ---------------------------------------------------------------------------

class TestModel:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(IntegrityError):
            TokenizerModel(
                mode=TokenizerMode.CHAR_LEVEL_FALLBACK,
                scheme=CAT,
                vocab=FALLBACK_TOKENS + ("a", "a"),
                merges=(),
            )

    def test_base_alphabet_required(self):
        vocab = list(base_alphabet(TokenizerMode.BYTE_LEVEL))
        vocab[0], vocab[1] = vocab[1], vocab[0]
        with pytest.raises(IntegrityError):
            TokenizerModel(
                mode=TokenizerMode.BYTE_LEVEL, scheme=CAT, vocab=tuple(vocab), merges=()
            )

    def test_dangling_merge_rejected(self):
        with pytest.raises(IntegrityError):
            toy_char_model(extra_vocab=("a", "b"), merges=(("a", "b"),))
        # _replace builds a model as the constructor does: checked, with its tables
        model = toy_char_model(extra_vocab=("a", "b", "ab"), merges=(("a", "b"),))
        with pytest.raises(IntegrityError):
            model._replace(vocab=model.vocab[:-1])
        assert encode(model._replace(merges=()), "ab") == [model.vocab.index(c) for c in "ab"]

    def test_save_load_roundtrip(self, tmp_path, byte_model):
        path = tmp_path / "model.json"
        save_model(byte_model, path)
        assert load_model(path) == byte_model

    def test_serialization_canonical(self, byte_model):
        clone = TokenizerModel(
            mode=byte_model.mode,
            scheme=byte_model.scheme,
            vocab=tuple(byte_model.vocab),
            merges=tuple(byte_model.merges),
        )
        assert model_to_bytes(clone) == model_to_bytes(byte_model)
        obj = json.loads(model_to_bytes(byte_model))
        assert list(obj) == ["version", "mode", "scheme", "vocab", "merges"]

    def test_tampered_merge_is_integrity_error(self, tmp_path, byte_model):
        path = tmp_path / "model.json"
        save_model(byte_model, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["merges"].append(["zzz", "qqq"])
        path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_model(path)

    def test_version_mismatch(self, tmp_path, byte_model):
        path = tmp_path / "model.json"
        save_model(byte_model, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["version"] = 2
        path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_version_must_be_the_int(self, version, tmp_path, byte_model):
        # True and 1.0 both compare equal to 1
        path = tmp_path / "model.json"
        save_model(byte_model, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["version"] = version
        path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model", encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_model(path)
