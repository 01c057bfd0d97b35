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
from convtok.tokenizer import (
    FALLBACK_TOKENS,
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    _apply_merges,
    _base_symbols,
    base_alphabet,
    byte_symbol_map,
    decode,
    encode,
    encode_piece,
    load_model,
    model_to_bytes,
    pretokenize,
    save_model,
)
from convtok.trainer import TrainConfig, merge_adjacent, train_bpe

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
    return train_bpe(corpus, TrainConfig(vocab_size=300, mode=TokenizerMode.BYTE_LEVEL))


@pytest.fixture(scope="module")
def char_model():
    corpus = ["the cat sat on the mat", "hello world, hello again"]
    return train_bpe(
        corpus,
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
    def test_identity_ranges(self):
        mapping = byte_symbol_map()
        assert mapping[0x41] == "A"
        assert mapping[0x7E] == "~"
        assert mapping[0xFF] == chr(0xFF)

    def test_shifted_values(self):
        # derived by counting non-identity bytes in increasing order
        mapping = byte_symbol_map()
        assert mapping[0x20] == chr(288)
        assert mapping[0x00] == chr(256)
        assert mapping[0x7F] == chr(289)
        assert mapping[0xAD] == chr(323)

    def test_bijection(self):
        mapping = byte_symbol_map()
        assert len(mapping) == 256
        assert len(set(mapping.values())) == 256

    def test_matches_independent_enumeration(self):
        # independent reconstruction of the stated rule
        expected = {}
        shifted = 0
        for b in range(256):
            if 0x21 <= b <= 0x7E or 0xA1 <= b <= 0xAC or 0xAE <= b <= 0xFF:
                expected[b] = chr(b)
            else:
                expected[b] = chr(256 + shifted)
                shifted += 1
        assert shifted == 68
        assert byte_symbol_map() == expected


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
        texts = ["one two three", "two three", "three"]
        model = train_bpe(texts, TrainConfig(vocab_size=270, min_pair_frequency=1))
        table = PieceTable.of(texts, CAT)
        assert train_bpe(table, TrainConfig(vocab_size=270, min_pair_frequency=1)) == model
        with pytest.raises(ConfigError):
            train_bpe(table, TrainConfig(vocab_size=270, scheme=WS))


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


def random_merge_model(rng, mode, letters, extra_symbols=()):
    """A valid model whose merges join random symbols in a random rank order,
    so a merge may rank above the merges that make its operands."""
    vocab = list(base_alphabet(mode)) + [c for c in letters if c not in base_alphabet(mode)]
    symbols = list(letters) + list(extra_symbols)
    merges = []
    for _ in range(rng.randrange(1, 14)):
        left, right = rng.choice(symbols), rng.choice(symbols)
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
    """The same model with its own empty piece cache."""
    return TokenizerModel(mode=model.mode, scheme=model.scheme, vocab=model.vocab,
                          merges=model.merges)


@pytest.fixture(scope="module")
def sample_texts():
    # the corpora of the ``tiny`` experiment fixture, cut to half
    docs, lines = generate_corpora(seed=7, doc_bytes=30_000, conv_bytes=30_000)
    return docs + [turn["content"] for line in lines for turn in json.loads(line)["turns"]]


@pytest.fixture(scope="module")
def sample_model(sample_texts):
    return train_bpe(sample_texts, TrainConfig(vocab_size=1024))


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


class TestEncodeCost:
    def test_rank_lookups_linear_in_piece_length(self, sample_model, sample_texts):
        # one unbroken letter run of several thousand symbols, as spaceless
        # chat text makes; the rescan loop needs one pass per merge applied
        words = sorted({w for text in sample_texts for w in text.split() if w.isascii()
                        and w.isalpha()})
        piece = "".join(random.Random(3).choices(words, k=600))
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

    def test_piece_cache_is_bounded(self, sample_model, sample_texts, monkeypatch):
        pieces = sorted({p for text in sample_texts for p in pretokenize(text, CAT)})[:300]
        uncapped = fresh_copy(sample_model)
        expected = [encode_piece(uncapped, p) for p in pieces]
        monkeypatch.setattr("convtok.tokenizer.PIECE_CACHE_MAX", 16)
        capped = fresh_copy(sample_model)
        for _ in range(2):
            for piece, ids in zip(pieces, expected):
                assert encode_piece(capped, piece) == ids
                assert len(capped._piece_cache) <= 16


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
        lone_continuation = model.token_id("<0xC3>")
        with pytest.raises(InvalidByteSequence):
            decode(model, [lone_continuation])
        # a cut-off fallback sequence stays an error before a vocabulary token
        with pytest.raises(InvalidByteSequence):
            decode(model, [lone_continuation, model.token_id("ab")])
        assert decode(model, [model.token_id("<0xC3>"), model.token_id("<0xA9>"),
                              model.token_id("ab")]) == "éab"

    def test_lone_surrogate_token(self):
        model = toy_char_model(extra_vocab=("\ud800",), merges=())
        with pytest.raises(InvalidByteSequence):
            decode(model, [model.token_id("\ud800")])

    def test_invalid_byte_mode_sequence(self, byte_model):
        c3_symbol = byte_symbol_map()[0xC3]
        with pytest.raises(InvalidByteSequence):
            decode(byte_model, [byte_model.token_id(c3_symbol)])


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

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model", encoding="utf-8")
        with pytest.raises(IntegrityError):
            load_model(path)
