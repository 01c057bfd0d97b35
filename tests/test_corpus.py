import json
import random

import pytest

from convtok.cli import main
from convtok.corpus import (
    ConversationRecord,
    ConversationSet,
    RoleFilter,
    SplitSpec,
    corpus_format,
    extract_text,
    load_conversations,
    load_documents,
    split,
)
from convtok.errors import EmptyCorpus, InvalidEncoding, MalformedRecord
from convtok.metrics import language_groups

# valid JSON nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def record_obj(i, language="english", turns=None):
    return {
        "id": f"c{i}",
        "model": "vicuna-13b",
        "language": language,
        "turns": turns if turns is not None else [
            {"role": "user", "content": f"question {i}"},
            {"role": "assistant", "content": f"answer {i}"},
        ],
    }


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def make_set(n, languages=("english",)):
    records = tuple(
        ConversationRecord(
            id=f"c{i}",
            model_name="m",
            turns=(("user", f"hi {i}"), ("assistant", f"hello {i}")),
            language=languages[i % len(languages)],
        )
        for i in range(n)
    )
    return ConversationSet(records=records)


# ---------------------------------------------------------------------------
# load_conversations
# ---------------------------------------------------------------------------

class TestLoadConversations:
    def test_three_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(i) for i in range(3)])
        loaded = load_conversations(path)
        assert len(loaded) == 3
        assert [r.id for r in loaded] == ["c0", "c1", "c2"]
        assert loaded.records[0].turns[0] == ("user", "question 0")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_conversations(path)) == 0

    def test_missing_language_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record_obj(1)
        del bad["language"]
        write_jsonl(path, [record_obj(0), bad, record_obj(2)])
        with pytest.raises(MalformedRecord) as err:
            load_conversations(path)
        assert err.value.line_number == 2

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_conversations(path)

    def test_deeply_nested_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(DEEP + "\n")
        with pytest.raises(MalformedRecord) as err:
            load_conversations(path)
        assert err.value.line_number == 2

    def test_bad_role(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0, turns=[{"role": "system", "content": "x"}])])
        with pytest.raises(MalformedRecord):
            load_conversations(path)

    def test_empty_turns(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0, turns=[])])
        with pytest.raises(MalformedRecord):
            load_conversations(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0), record_obj(0)])
        with pytest.raises(MalformedRecord) as err:
            load_conversations(path)
        assert err.value.line_number == 2

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'\xff\xfe{"id": "a"}\n')
        with pytest.raises(InvalidEncoding):
            load_conversations(path)

    def test_lone_surrogate_content(self, tmp_path):
        path = tmp_path / "c.jsonl"
        obj = record_obj(0, turns=[{"role": "user", "content": "x"}])
        line = json.dumps(obj).replace('"x"', '"\\ud800"')
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(InvalidEncoding):
            load_conversations(path)

    def test_language_lowercased(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0, language="English")])
        assert load_conversations(path).records[0].language == "english"

    def test_lmsys_field_names(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{
            "conversation_id": "abc123",
            "model": "vicuna-13b",
            "language": "Portuguese",
            "conversation": [
                {"role": "user", "content": "oi"},
                {"role": "assistant", "content": "olá"},
            ],
            "redacted": False,
        }])
        loaded = load_conversations(path)
        record = loaded.records[0]
        assert record.id == "abc123"
        assert record.language == "portuguese"
        assert record.turns == (("user", "oi"), ("assistant", "olá"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(record_obj(0)) + "\n\n" + json.dumps(record_obj(1)) + "\n",
            encoding="utf-8",
        )
        assert len(load_conversations(path)) == 2

    def test_unicode_line_breaks_inside_strings(self, tmp_path, capsys):
        # each of these would end a line for str.splitlines(); JSON escapes
        # the form feed as \f, and leaves the other three raw
        content = "one\u2028two\u2029three\u0085four\x0cfive"
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record_obj(0, turns=[{"role": "user", "content": content}])])
        assert "one\u2028two\u2029three\u0085four".encode("utf-8") in path.read_bytes()
        loaded = load_conversations(path)
        assert loaded.records[0].turns == (("user", content),)
        normalized = tmp_path / "out" / "normalized.jsonl"
        assert main(["ingest", "--conversations", str(path), "--out", str(normalized)]) == 0
        assert main(["ingest", "--conversations", str(normalized)]) == 0
        assert load_conversations(normalized) == loaded
        capsys.readouterr()

    def test_native_names_win_over_lmsys_names(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**record_obj(0), "conversation_id": "other"}])
        assert load_conversations(path).records[0].id == "c0"

    def test_native_record_without_id_keeps_its_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        obj = record_obj(0)
        del obj["id"]
        write_jsonl(path, [obj])
        with pytest.raises(MalformedRecord, match="missing field 'id'"):
            load_conversations(path)


# ---------------------------------------------------------------------------
# load_documents
# ---------------------------------------------------------------------------

class TestLoadDocuments:
    def test_plain_text(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("first doc\nsecond doc\n", encoding="utf-8")
        docs = load_documents(path)
        assert list(docs) == ["first doc", "second doc"]
        # only "\n" ends a line, less one "\r" before it
        path.write_bytes("first doc\x0csame doc\r\nsecond\u2028doc\rtoo\n".encode("utf-8"))
        assert list(load_documents(path)) == ["first doc\x0csame doc", "second\u2028doc\rtoo"]

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("\n   \n\t\n", encoding="utf-8")
        with pytest.raises(EmptyCorpus):
            load_documents(path)

    def test_jsonl_text_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "uno"}, {"text": "dos"}, {"text": "tres"}])
        docs = load_documents(path)
        assert list(docs) == ["uno", "dos", "tres"]

    def test_jsonl_autodetected(self, tmp_path):
        path = tmp_path / "d.whatever"
        write_jsonl(path, [{"text": "detected"}])
        assert list(load_documents(path)) == ["detected"]

    def test_jsonl_bad_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok"}\n{"no_text": 1}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord):
            load_documents(path)

    def test_non_utf8(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"ok\n\xc3(\n")
        with pytest.raises(InvalidEncoding):
            load_documents(path)

    @pytest.mark.parametrize("lines, line_number", [
        (['{"x": ' + DEEP + "}"], 1),
        (['{"text": "ok"}', '{"text": ' + DEEP + "}"], 2),
        (["{broken", DEEP], 2),
    ], ids=["sniffed-line", "jsonl-line", "sniffed-after-damaged-line"])
    def test_deeply_nested_line_is_malformed(self, lines, line_number, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_documents(path)
        assert err.value.line_number == line_number

    def test_text_that_is_not_json_stays_text(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("{not json\nsecond\n", encoding="utf-8")
        assert list(load_documents(path)) == ["{not json", "second"]

    def test_damaged_first_line_of_jsonl_is_malformed(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": broken\n{"text": "ok"}\n', encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_documents(path)
        assert err.value.line_number == 1


# ---------------------------------------------------------------------------
# corpus_format
# ---------------------------------------------------------------------------

class TestCorpusFormat:
    @pytest.mark.parametrize("text, expected", [
        (json.dumps(record_obj(0)) + "\n", "conversations"),
        ('{"conversation_id": "x", "conversation": []}\n', "conversations"),
        ('{"text": "a"}\n', "jsonl"),
        ("plain words\n", "text"),
        ('{"x": 1}\n{"text": "a"}\n', "text"),
        ("[1, 2]\n", "text"),
        ("\n\n", "text"),
        ('\n{"id": "x", broken\n{also broken\n' + json.dumps(record_obj(0)) + "\n",
         "conversations"),
        ('{"text": broken\nplain words\n{"text": "a"}\n', "text"),
    ], ids=["native", "lmsys", "jsonl", "text", "unknown-object", "json-list", "blank",
            "damaged-records-passed-over", "non-json-line-decides"])
    def test_first_json_line_decides(self, text, expected, tmp_path):
        path = tmp_path / "corpus"
        path.write_text(text, encoding="utf-8")
        assert corpus_format(path) == expected


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

class TestSplit:
    def test_sizes_10_records(self):
        train, test = split(make_set(10), SplitSpec(train_fraction=0.8, seed=1))
        assert len(train) == 8
        assert len(test) == 2

    def test_partition(self):
        conversations = make_set(137)
        for seed in (0, 1, 7):
            for fraction in (0.5, 0.8, 0.9):
                train, test = split(conversations, SplitSpec(train_fraction=fraction, seed=seed))
                train_ids = {r.id for r in train}
                test_ids = {r.id for r in test}
                assert not train_ids & test_ids
                assert train_ids | test_ids == {r.id for r in conversations}
                assert len(train) == round(fraction * 137)

    def test_deterministic(self):
        conversations = make_set(50)
        spec = SplitSpec(train_fraction=0.8, seed=42)
        first = split(conversations, spec)
        second = split(conversations, spec)
        assert first == second

    def test_stable_under_reordering(self):
        conversations = make_set(60)
        spec = SplitSpec(train_fraction=0.8, seed=3)
        train_ids = {r.id for r in split(conversations, spec)[0]}
        shuffled = list(conversations.records)
        random.Random(9).shuffle(shuffled)
        train_ids_shuffled = {r.id for r in split(ConversationSet(tuple(shuffled)), spec)[0]}
        assert train_ids == train_ids_shuffled

    def test_different_seeds_differ(self):
        conversations = make_set(1000)
        a, _ = split(conversations, SplitSpec(train_fraction=0.8, seed=0))
        b, _ = split(conversations, SplitSpec(train_fraction=0.8, seed=1))
        assert {r.id for r in a} != {r.id for r in b}

    def test_preserves_input_order(self):
        conversations = make_set(25)
        train, test = split(conversations, SplitSpec())
        ordering = {r.id: i for i, r in enumerate(conversations)}
        for side in (train, test):
            indices = [ordering[r.id] for r in side]
            assert indices == sorted(indices)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCorpus):
            split(ConversationSet(records=()), SplitSpec())

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)

    def test_duplicate_ids_rejected(self):
        record = make_set(1).records[0]
        with pytest.raises(ValueError):
            ConversationSet(records=(record, record))


# ---------------------------------------------------------------------------
# extract_text / language counts
# ---------------------------------------------------------------------------

class TestExtractText:
    def test_single_record_filters(self):
        conversations = ConversationSet(records=(
            ConversationRecord(
                id="a", model_name="m",
                turns=(("user", "hi"), ("assistant", "hello")),
                language="english",
            ),
        ))
        assert extract_text(conversations, RoleFilter.USER_ONLY) == ["hi"]
        assert extract_text(conversations, RoleFilter.ASSISTANT_ONLY) == ["hello"]
        assert extract_text(conversations, RoleFilter.BOTH) == ["hi", "hello"]

    def test_counts_add_up_on_fixture(self):
        conversations = make_set(100)
        n_user = len(extract_text(conversations, RoleFilter.USER_ONLY))
        n_assistant = len(extract_text(conversations, RoleFilter.ASSISTANT_ONLY))
        n_both = len(extract_text(conversations, RoleFilter.BOTH))
        assert n_user + n_assistant == n_both

    def test_order_is_record_then_turn(self):
        conversations = ConversationSet(records=(
            ConversationRecord(id="a", model_name="m",
                               turns=(("user", "1"), ("assistant", "2")), language="english"),
            ConversationRecord(id="b", model_name="m",
                               turns=(("user", "3"),), language="english"),
        ))
        assert extract_text(conversations, RoleFilter.BOTH) == ["1", "2", "3"]


def language_histogram(conversations):
    """Conversation counts per language tag, as ``ingest`` reports them."""
    return {language: len(subset) for language, subset in language_groups(conversations, 0)}


class TestLanguageHistogram:
    def test_simple_counts(self):
        conversations = make_set(3, languages=("en", "en", "zh"))
        # languages cycle: en, en, zh
        assert language_histogram(conversations) == {"en": 2, "zh": 1}

    def test_empty(self):
        assert language_histogram(ConversationSet(records=())) == {}

    def test_totals_match_set_size(self):
        conversations = make_set(97, languages=("en", "es", "zh", "fr"))
        histogram = language_histogram(conversations)
        assert sum(histogram.values()) == 97

    def test_chinese_share_fixture(self):
        # 24 of 1,000 conversations tagged zh -> 2.4% share
        languages = tuple("zh" if i < 24 else "en" for i in range(1000))
        records = tuple(
            ConversationRecord(id=f"c{i}", model_name="m",
                               turns=(("user", "x"),), language=languages[i])
            for i in range(1000)
        )
        histogram = language_histogram(ConversationSet(records=records))
        assert histogram["zh"] == 24
        assert histogram["zh"] / sum(histogram.values()) == pytest.approx(0.024)
