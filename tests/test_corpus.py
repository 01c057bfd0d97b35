import hashlib
import json
import random

import pytest

import convtok.samples
from convtok.cli import main
from convtok.corpus import (
    ConversationRecord,
    RoleFilter,
    SplitSpec,
    _sniff_format,
    conversation_line,
    extract_text,
    language_counts,
    load_conversations,
    load_documents,
    partition,
    split,
)
from convtok.errors import ConfigError, EmptyCorpus, InvalidEncoding, MalformedRecord
from convtok.samples import _Draws, _World, generate_corpora, write_sample_corpora

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
    return tuple(
        ConversationRecord(
            id=f"c{i}",
            model_name="m",
            turns=(("user", f"hi {i}"), ("assistant", f"hello {i}")),
            language=languages[i % len(languages)],
        )
        for i in range(n)
    )


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
        assert loaded[0].turns[0] == ("user", "question 0")

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

    def test_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1]\n", encoding="utf-8")
        with pytest.raises(MalformedRecord, match="^line 1: each line must hold a JSON object$"):
            load_conversations(path)

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
        assert load_conversations(path)[0].language == "english"

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
        record = loaded[0]
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
        assert loaded[0].turns == (("user", content),)
        normalized = tmp_path / "out" / "normalized.jsonl"
        assert main(["ingest", "--conversations", str(path), "--out", str(normalized)]) == 0
        assert main(["ingest", "--conversations", str(normalized)]) == 0
        assert load_conversations(normalized) == loaded
        capsys.readouterr()

    def test_native_names_win_over_lmsys_names(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**record_obj(0), "conversation_id": "other"}])
        assert load_conversations(path)[0].id == "c0"

    def test_native_record_without_id_keeps_its_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        obj = record_obj(0)
        del obj["id"]
        write_jsonl(path, [obj])
        with pytest.raises(MalformedRecord, match="missing field 'id'"):
            load_conversations(path)


# ---------------------------------------------------------------------------
# conversation_line
# ---------------------------------------------------------------------------

class TestConversationLine:
    @pytest.mark.parametrize("seed", [7, 20250601])
    def test_sample_lines_are_written_by_it(self, seed, tmp_path):
        _, lines = generate_corpora(seed=seed, doc_bytes=1, conv_bytes=30_000)
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = load_conversations(path)
        assert len(records) == len(lines) > 1
        assert [conversation_line(r) for r in records] == lines

    def test_lmsys_record_comes_back_in_native_names(self, tmp_path):
        lmsys = tmp_path / "lmsys.jsonl"
        write_jsonl(lmsys, [{
            "conversation_id": "x1", "model": "vicuna-13b", "language": "English",
            "conversation": [{"role": "user", "content": "hi\u2028"},
                             {"role": "assistant", "content": "olá"}],
            "redacted": False,
        }])
        record = load_conversations(lmsys)[0]
        line = conversation_line(record)
        assert line == ('{"id":"x1","model":"vicuna-13b","language":"english",'
                        '"turns":[{"role":"user","content":"hi\u2028"},'
                        '{"role":"assistant","content":"olá"}]}')
        native = tmp_path / "native.jsonl"
        native.write_text(line + "\n", encoding="utf-8")
        assert load_conversations(native) == (record,)


class TestSampleCorpora:
    def test_default_files_are_pinned(self, bundle):
        # the default `convtok samples` bytes; any change to a draw moves them
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (bundle.docs, bundle.convs)}
        assert digests == {
            "documents.txt": "3d8b83a7022d03e6b836820d83432595bad64ef6580c129f351db25f4240f3e8",
            "conversations.jsonl":
                "7af925d319a4a043ec6ac1811c9abbd8aca272591c243d3230c5db6c9b85e94b",
        }

    def test_benchmark_pool_is_pinned(self, tmp_path):
        # the default seed at 200 KB + 200 KB: the pool that the benchmark's
        # pipeline-cold workload writes as its set-up
        paths = write_sample_corpora(tmp_path, doc_bytes=200_000, conv_bytes=200_000)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == {
            "documents.txt": "b135a8312bafd17e4ba7c352bc43645392f0d328df3528ea8f44f02261c76c81",
            "conversations.jsonl":
                "364a9c268ceaa63be3767f88ee4c9e3d216b1756f97af23523c344f5d1c6a73c",
        }

    @pytest.mark.parametrize("seed", [-1, -5, 2**64])
    def test_a_seed_outside_64_unsigned_bits_is_refused(self, seed, tmp_path):
        # random.Random seeds an int by its absolute value, so -5 would
        # write seed 5's corpora; the refusal comes before any directory
        with pytest.raises(ConfigError, match="^seed must fit in 64 unsigned bits$"):
            generate_corpora(seed=seed, doc_bytes=1, conv_bytes=1)
        with pytest.raises(ConfigError, match="^seed must fit in 64 unsigned bits$"):
            write_sample_corpora(tmp_path / "out", seed=seed)
        assert not list(tmp_path.iterdir())


def _draw_lengths():
    """Bounds up to 32 and around powers of two, the widths of the
    generator's number ranges, and the length of every word list and lexicon
    that it picks from."""
    world = _World(_Draws(0))
    lists = [value for value in vars(convtok.samples).values()
             if isinstance(value, list) and value and isinstance(value[0], str)]
    lists += [world.sprinkle, world.en.hot, world.en.lexicon[:300]]
    for lang in world.langs.values():
        lists += [lang.function, lang.lexicon]
    bounds = {*range(1, 33), 100, 127, 255, 256, 257, 998, 1400, 0x2000}
    return sorted(bounds | {len(x) for x in lists if x})


class TestDraws:
    """``_Draws`` draws what ``random.Random``'s own methods draw, and leaves
    the generator's stream where they leave it."""

    @pytest.mark.parametrize("n", _draw_lengths())
    def test_pick_is_choice_randint_and_randrange(self, n):
        seq = [f"w{i}" for i in range(n)]
        for seed in range(25):
            draws, rng = _Draws(seed), random.Random(seed)
            for _ in range(20):
                assert draws.pick(seq) == rng.choice(seq)
                assert draws.pick(range(3, n + 3)) == rng.randint(3, n + 2)
                assert draws.pick(range(n)) == rng.randrange(n)
                assert draws.pick(range(-2, n - 2)) == rng.randrange(-2, n - 2)
            assert draws.random() == rng.random()

    def test_pick_from_nothing_fails(self):
        with pytest.raises(IndexError):
            _Draws(0).pick([])

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 21])
    def test_picks_is_sample(self, n):
        population = [f"line {i}" for i in range(n)]
        for seed in range(25):
            draws, rng = _Draws(seed), random.Random(seed)
            for k in range(min(n, 5) + 1):
                assert draws.picks(population, k) == rng.sample(population, k)
            assert draws.random() == rng.random()


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

    def test_jsonl_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok"}\n5\n', encoding="utf-8")
        with pytest.raises(MalformedRecord, match="^line 2: each line must hold a JSON object$"):
            load_documents(path)

    @pytest.mark.parametrize("lines, message", [
        (['{"id": "a", "model": "m", "language": "en", "turns": []}'],
         "line 1: expected an object with a string 'text' field"),
        (['{"conversation_id": "a", "conversation": []}'],
         "line 1: expected an object with a string 'text' field"),
        (["", "{broken", '{"id": "a", "turns": []}'], "line 2: "),
    ], ids=["native", "lmsys", "after-damaged-line"])
    def test_a_conversation_file_is_not_documents(self, lines, message, tmp_path):
        # a file that does not sniff as plain text is read as JSONL documents
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_documents(path)
        assert str(err.value).startswith(message)

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
# _sniff_format
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
    def test_first_json_line_decides(self, text, expected):
        assert _sniff_format(text.split("\n")) == expected


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
        shuffled = list(conversations)
        random.Random(9).shuffle(shuffled)
        train_ids_shuffled = {r.id for r in split(shuffled, spec)[0]}
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

    def test_partition_of_plain_items_keeps_input_order(self):
        items = [f"doc {i}" for i in range(40)]
        ids = [str(i) for i in range(40)]
        train, test = partition(items, ids, SplitSpec(train_fraction=0.8, seed=5))
        assert len(train) == 32 and len(test) == 8
        assert sorted(train + test) == sorted(items)
        for side in (train, test):
            indices = [items.index(item) for item in side]
            assert indices == sorted(indices)

    def test_partition_rejects_duplicate_ids(self):
        items = ["a", "b", "c"]
        with pytest.raises(ValueError, match="distinct"):
            partition(items, ["1", "2", "1"], SplitSpec())

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCorpus):
            split((), SplitSpec())

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)

    def test_duplicate_ids_rejected(self):
        record = make_set(1)[0]
        with pytest.raises(ValueError):
            split((record, record), SplitSpec())


# ---------------------------------------------------------------------------
# extract_text / language counts
# ---------------------------------------------------------------------------

class TestExtractText:
    def test_single_record_filters(self):
        conversations = (
            ConversationRecord(
                id="a", model_name="m",
                turns=(("user", "hi"), ("assistant", "hello")),
                language="english",
            ),
        )
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
        conversations = (
            ConversationRecord(id="a", model_name="m",
                               turns=(("user", "1"), ("assistant", "2")), language="english"),
            ConversationRecord(id="b", model_name="m",
                               turns=(("user", "3"),), language="english"),
        )
        assert extract_text(conversations, RoleFilter.BOTH) == ["1", "2", "3"]


def language_histogram(conversations):
    """Conversation counts per language tag, as ``ingest`` reports them."""
    return dict(language_counts(conversations, 0))


class TestLanguageHistogram:
    def test_simple_counts(self):
        conversations = make_set(3, languages=("en", "en", "zh"))
        # languages cycle: en, en, zh
        assert language_histogram(conversations) == {"en": 2, "zh": 1}

    def test_empty(self):
        assert language_histogram(()) == {}

    def test_totals_match_set_size(self):
        conversations = make_set(97, languages=("en", "es", "zh", "fr"))
        histogram = language_histogram(conversations)
        assert sum(histogram.values()) == 97

    def test_equal_counts_sort_by_tag(self):
        conversations = make_set(7, languages=("zh", "en", "fr", "de", "en", "zh", "fr"))
        assert language_counts(conversations, 0) == [
            ("en", 2), ("fr", 2), ("zh", 2), ("de", 1)]
        assert language_counts(conversations, 1) == [("en", 2), ("fr", 2), ("zh", 2)]

    def test_chinese_share_fixture(self):
        # 24 of 1,000 conversations tagged zh -> 2.4% share
        languages = tuple("zh" if i < 24 else "en" for i in range(1000))
        records = tuple(
            ConversationRecord(id=f"c{i}", model_name="m",
                               turns=(("user", "x"),), language=languages[i])
            for i in range(1000)
        )
        histogram = language_histogram(records)
        assert histogram["zh"] == 24
        assert histogram["zh"] / sum(histogram.values()) == pytest.approx(0.024)
