import copy
import random
import re

import pytest

import convtok.tokenizer
from convtok.corpus import (
    ConversationRecord,
    RoleFilter,
    extract_text,
    language_counts,
)
from convtok.errors import ConfigError, EmptyText, NoWords
from convtok.metrics import (
    FertilityResult,
    ReductionResult,
    fertility,
    reduction,
    token_count,
)
from convtok.samples import generate_corpora
from convtok.tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    count_words,
    encode,
    encode_piece,
)
from convtok.trainer import TrainConfig, train_bpe

CAT = PretokenScheme.CATEGORY_SPLIT
WS = PretokenScheme.WHITESPACE_SPLIT


def conversations_of(texts_by_language):
    records = []
    for language, texts in texts_by_language.items():
        for i, text in enumerate(texts):
            records.append(ConversationRecord(
                id=f"{language}-{i}", model_name="m",
                turns=(("user", text), ("assistant", text[::-1])),
                language=language,
            ))
    return tuple(records)


def language_subset(conversations, tag):
    return [r for r in conversations if r.language == tag]


def language_reductions(base, opt, conversations, threshold):
    """(language, conversation count, reduction %) per kept language, computed
    as experiment 2's language rows are: language_counts, then reduction over
    both roles of each language's records."""
    return [
        (tag, n, reduction(base, opt, extract_text(language_subset(conversations, tag),
                                                    RoleFilter.BOTH)).reduction_pct)
        for tag, n in language_counts(conversations, threshold)
    ]


class TestCountWords:
    def test_two_words(self):
        assert count_words("hello world") == 2

    def test_whitespace_only(self):
        assert count_words("   ") == 0

    def test_mixed_whitespace(self):
        assert count_words("a\tb\nc  d") == 4

    def test_unicode_whitespace(self):
        assert count_words("a b c") == 3


class TestFertility:
    def test_formula(self):
        assert FertilityResult(n_tokens=15, n_words=10).fertility == 1.5

    def test_whole_word_model_reaches_lower_bound(self):
        model = train_bpe(
            PieceTable.of(["one two"] * 3, CAT),
            TrainConfig(vocab_size=400, mode=TokenizerMode.CHAR_LEVEL_FALLBACK),
        )
        result = fertility(model, ["one two"])
        assert result.fertility == 1.0

    def test_no_words_rejected(self):
        model = train_bpe(PieceTable.of(["abc"], CAT), TrainConfig(vocab_size=258))
        with pytest.raises(NoWords):
            fertility(model, ["  ", "\t"])

    def test_matches_brute_force_recount(self):
        docs, _ = generate_corpora(seed=404, doc_bytes=30_000, conv_bytes=1)
        model = train_bpe(PieceTable.of(docs, CAT), TrainConfig(vocab_size=256 + 500))
        assert len(model.merges) == 500
        result = fertility(model, docs)
        # independent recount: plain per-text encodes and a regex word count
        n_tokens = sum(len(encode(model, text)) for text in docs)
        n_words = sum(len(re.findall(r"\S+", text)) for text in docs)
        assert result.n_tokens == n_tokens
        assert result.n_words == n_words

    def test_token_count_equals_per_text_sum(self):
        docs, _ = generate_corpora(seed=405, doc_bytes=8_000, conv_bytes=1)
        model = train_bpe(PieceTable.of(docs, CAT), TrainConfig(vocab_size=300))
        assert token_count(model, docs) == sum(len(encode(model, t)) for t in docs)

    @pytest.mark.parametrize("mode", list(TokenizerMode))
    def test_token_count_through_a_lengths_map(self, mode, monkeypatch):
        docs, _ = generate_corpora(seed=407, doc_bytes=6_000, conv_bytes=1)
        model = train_bpe(PieceTable.of(docs, CAT), TrainConfig(vocab_size=420, mode=mode))
        rng = random.Random(f"lengths-{mode.value}")
        words = [w for doc in docs[:20] for w in doc.split()] + ["字符", "ü", "\n", "  "]
        for _ in range(20):
            texts = [" ".join(rng.choices(words, k=rng.randrange(1, 30)))
                     for _ in range(rng.randrange(1, 6))]
            table = PieceTable.of(texts, CAT)
            expected = token_count(model, table)
            full: dict[str, int] = {}
            assert token_count(model, table, full) == expected
            assert full.keys() == table.pieces.keys()
            partial = dict(rng.sample(sorted(full.items()), len(full) // 2))
            assert token_count(model, table, partial) == expected
            assert partial == full
            with monkeypatch.context() as patch:
                # a full map encodes nothing
                patch.setattr(convtok.tokenizer, "encode_piece", None)
                assert token_count(model, table, full) == expected

    def test_counting_into_a_lengths_map_keeps_no_ids(self):
        docs, _ = generate_corpora(seed=409, doc_bytes=6_000, conv_bytes=1)
        table = PieceTable.of(docs, CAT)
        model = train_bpe(table, TrainConfig(vocab_size=300))
        before = copy.deepcopy(vars(model))
        lengths: dict[str, int] = {}
        total = token_count(model, table, lengths)
        assert lengths.keys() == table.pieces.keys()
        assert vars(model) == before  # the map holds the counts, not the model
        assert total == token_count(model, docs)
        assert lengths == {p: len(encode_piece(model, p)) for p in table.pieces}


class TestReduction:
    def test_formula_down(self):
        assert ReductionResult(tokens_base=100, tokens_opt=90).reduction_pct == pytest.approx(10.0)

    def test_formula_up_is_negative(self):
        assert ReductionResult(tokens_base=100, tokens_opt=102).reduction_pct == pytest.approx(-2.0)

    @pytest.mark.parametrize("tokens_base, tokens_opt", [(0, 7), (7, 0)])
    def test_a_zero_count_is_rejected(self, tokens_base, tokens_opt):
        with pytest.raises(EmptyText):
            ReductionResult(tokens_base=tokens_base, tokens_opt=tokens_opt)

    def test_identical_models_give_exact_zero(self):
        docs, _ = generate_corpora(seed=406, doc_bytes=5_000, conv_bytes=1)
        model = train_bpe(PieceTable.of(docs, CAT), TrainConfig(vocab_size=300))
        assert reduction(model, model, docs).reduction_pct == 0.0

    def test_empty_text_rejected(self):
        model = train_bpe(PieceTable.of(["abc abc"], CAT), TrainConfig(vocab_size=280))
        with pytest.raises(EmptyText):
            reduction(model, model, [])

    def test_models_of_two_schemes_rejected(self):
        # their token counts would be of different pieces
        texts = ["hello world", "hello there, world"]
        config = TrainConfig(vocab_size=280, min_pair_frequency=1)
        cat = train_bpe(PieceTable.of(texts, CAT), config)
        ws = train_bpe(PieceTable.of(texts, WS), config)
        for corpus in (texts, PieceTable.of(texts, CAT)):
            with pytest.raises(ConfigError):
                reduction(cat, ws, corpus)


def test_a_bare_str_is_not_a_corpus():
    # iterated, "the cat sat" would count as eleven one-character texts
    model = train_bpe(PieceTable.of(["the cat sat"] * 3, CAT), TrainConfig(vocab_size=300))
    assert token_count(model, ["the cat sat"]) == 3
    for measure in (lambda: token_count(model, "the cat sat"),
                    lambda: fertility(model, "the cat sat"),
                    lambda: reduction(model, model, "the cat sat")):
        with pytest.raises(TypeError, match="not one str"):
            measure()


class TestPerLanguageReduction:
    def test_single_language_matches_global(self):
        texts = [f"hello question number {i} thanks" for i in range(30)]
        conversations = conversations_of({"english": texts})
        both_texts = extract_text(conversations, RoleFilter.BOTH)
        base = train_bpe(PieceTable.of(["completely different corpus text"], CAT),
                         TrainConfig(vocab_size=280))
        opt = train_bpe(PieceTable.of(both_texts, CAT), TrainConfig(vocab_size=300))
        rows = language_reductions(base, opt, conversations, threshold=10)
        global_result = reduction(base, opt, both_texts)
        assert len(rows) == 1
        language, conversation_count, reduction_pct = rows[0]
        assert language == "english"
        assert conversation_count == 30
        assert reduction_pct == pytest.approx(global_result.reduction_pct)

    def test_threshold_is_strict(self):
        conversations = conversations_of({
            "english": [f"text {i}" for i in range(11)],
            "spanish": [f"texto {i}" for i in range(10)],
        })
        base = train_bpe(PieceTable.of(["x"], CAT),
                         TrainConfig(vocab_size=257, min_pair_frequency=1))
        rows = language_reductions(base, base, conversations, threshold=10)
        assert [language for language, _, _ in rows] == ["english"]

    def test_sorted_by_count_descending(self):
        conversations = conversations_of({
            "spanish": [f"texto {i}" for i in range(5)],
            "english": [f"text {i}" for i in range(9)],
        })
        base = train_bpe(PieceTable.of(["x"], CAT),
                         TrainConfig(vocab_size=257, min_pair_frequency=1))
        rows = language_reductions(base, base, conversations, threshold=1)
        assert [language for language, _, _ in rows] == ["english", "spanish"]

    def test_mismatched_language_goes_negative(self):
        # base knows the Chinese text well; the optimized model was trained
        # on English only, so the zh row shows an increase
        zh_texts = ["你好世界欢迎使用"] * 40
        en_texts = ["hello world welcome aboard"] * 40
        conversations = conversations_of({"chinese": zh_texts, "english": en_texts})
        config = TrainConfig(vocab_size=500, min_pair_frequency=1)
        base = train_bpe(PieceTable.of(zh_texts, CAT), config)
        opt = train_bpe(PieceTable.of(en_texts, CAT), config)
        rows = language_reductions(base, opt, conversations, threshold=5)
        by_language = {language: pct for language, _, pct in rows}
        assert by_language["chinese"] < 0

    def test_weighted_consistency_with_global_counts(self):
        conversations = conversations_of({
            "english": [f"common words {i}" for i in range(8)],
            "spanish": [f"palabras comunes {i}" for i in range(6)],
            "russian": [f"слова {i}" for i in range(2)],
        })
        base = train_bpe(PieceTable.of(["seed corpus"], CAT), TrainConfig(vocab_size=280))
        opt = train_bpe(PieceTable.of(["other seed"], CAT), TrainConfig(vocab_size=280))
        threshold = 3
        rows = language_reductions(base, opt, conversations, threshold=threshold)
        covered = {language for language, _, _ in rows}
        assert covered == {"english", "spanish"}
        per_language_opt = 0
        rest_opt = 0
        for language in ("english", "spanish", "russian"):
            subset = [r for r in conversations if r.language == language]
            tokens = token_count(opt, extract_text(subset, RoleFilter.BOTH))
            if language in covered:
                per_language_opt += tokens
            else:
                rest_opt += tokens
        global_opt = token_count(opt, extract_text(conversations, RoleFilter.BOTH))
        assert per_language_opt + rest_opt == global_opt
