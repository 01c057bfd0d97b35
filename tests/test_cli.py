import io
import json
import sys
from pathlib import Path

import pytest

from convtok.cli import _experiment_spec, build_parser, main
from convtok.experiments import DEFAULT_VOCAB_SIZE, ExperimentSpec
from convtok.samples import write_sample_corpora
from convtok.tokenizer import PretokenScheme, TokenizerMode, decode, load_model
from convtok.trainer import TrainConfig


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    docs, convs = write_sample_corpora(root, seed=3, doc_bytes=40_000, conv_bytes=40_000)
    return {"docs": str(docs), "convs": str(convs), "root": root}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_reports_counts(data, capsys):
    code, out, _ = run(capsys, "ingest", "--conversations", data["convs"],
                       "--documents", data["docs"])
    assert code == 0
    summary = json.loads(out)
    assert summary["conversations"] > 0
    assert summary["documents"] > 0
    assert sum(summary["languages"].values()) == summary["conversations"]


def test_train_encode_roundtrip(data, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, out, _ = run(capsys, "train", "--corpus", data["docs"],
                       "--vocab-size", "400", "--out", str(model_path))
    assert code == 0
    assert json.loads(out)["vocab_size"] == 400

    code, out, _ = run(capsys, "encode", "--model", str(model_path),
                       "--text", "hello brave world")
    assert code == 0
    ids = json.loads(out)
    assert decode(load_model(model_path), ids) == "hello brave world"

    code, out, _ = run(capsys, "encode", "--model", str(model_path),
                       "--text", "hello", "--count-only")
    assert code == 0
    assert json.loads(out)["n_tokens"] >= 1


def test_train_on_conversations_with_role_filter(data, tmp_path, capsys):
    model_path = tmp_path / "user.json"
    code, out, _ = run(capsys, "train", "--corpus", data["convs"],
                       "--role-filter", "user", "--vocab-size", "350",
                       "--out", str(model_path))
    assert code == 0
    assert model_path.exists()


def test_fertility_command(data, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "350",
        "--out", str(model_path))
    code, out, _ = run(capsys, "fertility", "--model", str(model_path),
                       "--input", data["convs"], "--role-filter", "assistant")
    assert code == 0
    result = json.loads(out)
    assert result["fertility"] >= 1.0
    assert result["n_tokens"] >= result["n_words"] > 0


def test_experiment_commands_write_files(data, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    common = ["--conversations", data["convs"], "--documents", data["docs"],
              "--vocab-size", "380", "--threshold", "3", "--seed", "5",
              "--out", str(out_dir)]
    for command, expected in (
        ("exp1", "plot_fertility.csv"),
        ("exp2", "plot_reduction.csv"),
        ("exp3", "plot_documents_change.csv"),
    ):
        code, out, err = run(capsys, command, *common)
        assert code == 0, err
        summary = json.loads(out)
        assert (out_dir / command / "report.json").exists()
        assert (out_dir / command / expected).exists()
        assert summary["experiment"] == command
    assert (out_dir / "models" / "base.json").exists()


def test_report_regeneration(data, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    run(capsys, "exp1", "--conversations", data["convs"], "--documents", data["docs"],
        "--vocab-size", "380", "--threshold", "3", "--out", str(out_dir))
    original = (out_dir / "exp1" / "report.csv").read_bytes()
    code, _, _ = run(capsys, "report", "--report", str(out_dir / "exp1" / "report.json"),
                     "--out", str(tmp_path / "regen"))
    assert code == 0
    assert (tmp_path / "regen" / "report.csv").read_bytes() == original


def test_samples_deterministic(tmp_path, capsys):
    code, out, _ = run(capsys, "samples", "--out", str(tmp_path / "a"),
                       "--seed", "9", "--doc-bytes", "5000", "--conv-bytes", "5000")
    assert code == 0
    run(capsys, "samples", "--out", str(tmp_path / "b"),
        "--seed", "9", "--doc-bytes", "5000", "--conv-bytes", "5000")
    a = (tmp_path / "a" / "conversations.jsonl").read_bytes()
    b = (tmp_path / "b" / "conversations.jsonl").read_bytes()
    assert a == b


def test_ingest_writes_normalized_jsonl(tmp_path, capsys):
    lmsys = tmp_path / "lmsys.jsonl"
    lmsys.write_text(json.dumps({
        "conversation_id": "x1", "model": "vicuna-13b", "language": "English",
        "conversation": [{"role": "user", "content": "hi"},
                         {"role": "assistant", "content": "hello"}],
        "moderation": {"flagged": False},
    }) + "\n", encoding="utf-8")
    normalized = tmp_path / "normalized.jsonl"
    code, out, _ = run(capsys, "ingest", "--conversations", str(lmsys),
                       "--out", str(normalized))
    assert code == 0
    assert json.loads(out)["languages"] == {"english": 1}
    # the normalized file parses under the native schema
    code, out, _ = run(capsys, "ingest", "--conversations", str(normalized))
    assert code == 0
    assert json.loads(out)["conversations"] == 1


def test_train_lmsys_corpus(tmp_path, capsys):
    lmsys = tmp_path / "lmsys.jsonl"
    rows = [{
        "conversation_id": f"x{i}", "model": "vicuna-13b", "language": "English",
        "conversation": [{"role": "user", "content": "hola amigo " * 4},
                         {"role": "assistant", "content": "hello friend " * 6}],
    } for i in range(10)]
    lmsys.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", "--corpus", str(lmsys),
                       "--role-filter", "assistant", "--vocab-size", "300",
                       "--out", str(model_path))
    assert code == 0, err
    model = load_model(model_path)
    assert any("friend" in token for token in model.vocab[256:])


def to_lmsys_names(src, dest):
    """Rewrite a native conversation file with the LMSYS-Chat-1M field names."""
    with open(src, encoding="utf-8") as fh, open(dest, "w", encoding="utf-8") as out:
        for line in fh:
            record = json.loads(line)
            record["conversation_id"] = record.pop("id")
            record["conversation"] = record.pop("turns")
            out.write(json.dumps(record, ensure_ascii=False) + "\n")


def test_experiment_on_lmsys_corpus(data, tmp_path, capsys):
    lmsys = tmp_path / "lmsys.jsonl"
    to_lmsys_names(data["convs"], lmsys)
    reports = {}
    for name, convs in (("native", data["convs"]), ("lmsys", str(lmsys))):
        code, _, err = run(capsys, "exp1", "--conversations", convs, "--documents", data["docs"],
                           "--vocab-size", "300", "--threshold", "3",
                           "--out", str(tmp_path / name))
        assert code == 0, err
        reports[name] = json.loads((tmp_path / name / "exp1" / "report.json").read_bytes())
    # the same conversations under other field names: the same rows
    assert reports["lmsys"]["rows"] == reports["native"]["rows"]


def test_train_on_damaged_first_line_fails_cleanly(data, tmp_path, capsys):
    damaged = tmp_path / "damaged.jsonl"
    with open(data["convs"], encoding="utf-8") as fh:
        records = [next(fh) for _ in range(50)]
    damaged.write_text('{"id": "x", broken\n' + "".join(records), encoding="utf-8")
    code, out, err = run(capsys, "train", "--corpus", str(damaged), "--vocab-size", "300",
                         "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "MalformedRecord"
    assert payload["message"].startswith("line 1: ")
    assert not (tmp_path / "m.json").exists()


def test_experiment_on_damaged_jsonl_documents_fails_cleanly(data, tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"text": broken\n{"text": "one"}\n{"text": "two"}\n', encoding="utf-8")
    code, out, err = run(capsys, "exp1", "--conversations", data["convs"],
                         "--documents", str(docs), "--vocab-size", "300",
                         "--out", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "MalformedRecord"
    assert payload["message"].startswith("line 1: ")


def test_encode_from_input_file(data, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "350",
        "--out", str(model_path))
    text_file = tmp_path / "input.txt"
    text_file.write_text("words to encode", encoding="utf-8")
    code, out, _ = run(capsys, "encode", "--model", str(model_path),
                       "--input", str(text_file))
    assert code == 0
    assert decode(load_model(model_path), json.loads(out)) == "words to encode"


def test_experiment_with_pretrained_base_model(data, tmp_path, capsys):
    base_path = tmp_path / "base.json"
    run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "317",
        "--out", str(base_path))
    out_dir = tmp_path / "runs"
    code, _, err = run(capsys, "exp1", "--conversations", data["convs"],
                       "--documents", data["docs"], "--base-model", str(base_path),
                       "--threshold", "3", "--out", str(out_dir))
    assert code == 0, err
    cached = load_model(out_dir / "models" / "base.json")
    assert cached == load_model(base_path)
    assert len(cached.vocab) == 317


def test_error_is_machine_readable(tmp_path, capsys):
    code, out, err = run(capsys, "encode", "--model", str(tmp_path / "missing.json"),
                         "--text", "x")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_malformed_corpus_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "model": "m", "language": "en", "turns": []}\n',
                   encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--conversations", str(bad))
    assert code == 1
    assert json.loads(err)["error"] == "MalformedRecord"


def one_json_error(err):
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def test_non_utf8_encode_input_fails_cleanly(data, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "256",
        "--out", str(model_path))
    text_file = tmp_path / "latin1.txt"
    text_file.write_bytes("caf\xe9".encode("latin-1"))
    code, out, err = run(capsys, "encode", "--model", str(model_path),
                         "--input", str(text_file))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "InvalidEncoding"


def test_out_of_range_train_fraction_fails_cleanly(data, tmp_path, capsys):
    code, out, err = run(capsys, "exp1", "--conversations", data["convs"],
                         "--documents", data["docs"], "--train-fraction", "1.5",
                         "--out", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "ConfigError"
    assert "train_fraction" in payload["message"]


@pytest.fixture(scope="module")
def small_model(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("small_model") / "model.json"
    assert main(["train", "--corpus", data["docs"], "--vocab-size", "256",
                 "--out", str(path)]) == 0
    return str(path)


def test_non_utf8_encode_stdin_fails_cleanly(small_model, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"caf\xe9\n")))
    code, out, err = run(capsys, "encode", "--model", small_model)
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "InvalidEncoding"


def test_utf8_encode_stdin_roundtrips(small_model, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO("café\r\n".encode())))
    code, out, _ = run(capsys, "encode", "--model", small_model)
    assert code == 0
    assert decode(load_model(small_model), json.loads(out)) == "café\r\n"


def test_encode_input_stdin_and_text_agree_on_newlines(small_model, tmp_path, capsys,
                                                       monkeypatch):
    raw = b"one\r\ntwo\rthree\n"
    path = tmp_path / "crlf.txt"
    path.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    runs = [run(capsys, "encode", "--model", small_model, *source)
            for source in (["--input", str(path)], [], ["--text", raw.decode("utf-8")])]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    ids = [json.loads(out) for _, out, _ in runs]
    assert ids[0] == ids[1] == ids[2]
    assert decode(load_model(small_model), ids[0]) == raw.decode("utf-8")


def test_non_utf8_encode_text_fails_cleanly(small_model, capsys):
    # a non-UTF-8 argv byte reaches Python as a lone surrogate escape
    code, out, err = run(capsys, "encode", "--model", small_model, "--text", "caf\udce9")
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "InvalidEncoding"


_PROVENANCE = (b'"provenance":{"tool_version":"0","config_hash":"",'
               b'"conversations_sha256":"","documents_sha256":""}')


@pytest.mark.parametrize("content, error", [
    (b'{"x":1}', "IntegrityError"),
    (b"not json", "IntegrityError"),
    (b"\xff", "InvalidEncoding"),
    (b'{"experiment":"exp9","rows":[],' + _PROVENANCE + b'}', "IntegrityError"),
    (b'{"experiment":"exp1","rows":[{"scope":"documents","filter":null,"tokens_base":5,'
     b'"tokens_opt":null,"reduction_pct":null,"n_words":3,"fertility_base":"x",'
     b'"fertility_opt":null,"conversation_count":null}],' + _PROVENANCE + b'}', "IntegrityError"),
    (b'{"experiment":"exp2","rows":[],' + _PROVENANCE + b'}', "IntegrityError"),
])
def test_bad_report_fails_cleanly(tmp_path, capsys, content, error):
    report = tmp_path / "report.json"
    report.write_bytes(content)
    code, out, err = run(capsys, "report", "--report", str(report), "--out", str(tmp_path / "o"))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == error
    assert not (tmp_path / "o").exists()


def test_exp2_with_empty_held_out_split_fails_cleanly(data, tmp_path, capsys):
    # the one conversation lands in the train split, so the held-out texts
    # have neither tokens nor words: the token check fires first
    one = tmp_path / "one.jsonl"
    with open(data["convs"], encoding="utf-8") as f:
        one.write_text(f.readline(), encoding="utf-8")
    code, out, err = run(capsys, "exp2", "--conversations", str(one), "--documents", data["docs"],
                         "--vocab-size", "300", "--out", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "EmptyText"


def _bad_invocation(command, data, tmp):
    """argv for one failing run of ``command`` and the error it must name."""
    latin1 = tmp / "latin1.jsonl"
    latin1.write_bytes(b"caf\xe9\n")
    blank = tmp / "blank.txt"
    blank.write_text("\n", encoding="utf-8")
    not_json = tmp / "not_json.json"
    not_json.write_text("{", encoding="utf-8")
    a_file = tmp / "a_file"
    a_file.write_text("", encoding="utf-8")
    experiment = ["--conversations", data["convs"], "--documents", str(blank),
                  "--vocab-size", "300", "--out", str(tmp / "runs")]
    return {
        "ingest": (["--conversations", str(latin1)], "InvalidEncoding"),
        "train": (["--corpus", data["docs"], "--vocab-size", "100",
                   "--out", str(tmp / "m.json")], "ConfigError"),
        "encode": (["--model", str(tmp / "missing.json"), "--text", "x"],
                   "FileNotFoundError"),
        "fertility": (["--model", str(not_json), "--input", data["docs"]], "IntegrityError"),
        "exp1": (experiment, "EmptyCorpus"),
        "exp2": (experiment, "EmptyCorpus"),
        "exp3": (experiment, "EmptyCorpus"),
        "report": (["--report", str(not_json), "--out", str(tmp / "o")], "IntegrityError"),
        "samples": (["--out", str(a_file / "sub")], "NotADirectoryError"),
    }[command]


@pytest.mark.parametrize("command", [
    "ingest", "train", "encode", "fertility", "exp1", "exp2", "exp3", "report", "samples",
])
def test_every_subcommand_fails_with_one_json_line(command, data, tmp_path, capsys):
    argv, error = _bad_invocation(command, data, tmp_path)
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "c.txt", "--vocab-size", "abc", "--out", "m.json"],
    ["train", "--corpus", "c.txt"],
], ids=["non-integer-vocab-size", "missing-out"])
def test_usage_error_is_one_json_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith("convtok train: ")


@pytest.mark.parametrize("flag, text", [("--help", "usage: convtok"), ("--version", "convtok ")])
def test_help_and_version_keep_their_output(flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(text)


def test_experiment_flag_defaults_are_the_spec_defaults():
    args = build_parser().parse_args(["exp1", "--conversations", "c", "--documents", "d",
                                      "--out", "o"])
    assert _experiment_spec(args) == ExperimentSpec(Path("c"), Path("d"), Path("o"))


def test_train_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["train", "--corpus", "c", "--out", "m"])
    config = TrainConfig(vocab_size=args.vocab_size, mode=TokenizerMode(args.mode),
                         scheme=PretokenScheme(args.scheme),
                         min_pair_frequency=args.min_pair_frequency)
    assert config == TrainConfig(vocab_size=DEFAULT_VOCAB_SIZE)


@pytest.mark.parametrize("manifest", [
    b"\xff\xfe", b"[1]", b'"x"', b"{", b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf8", "list", "string", "not-json", "deeply-nested"])
def test_damaged_manifest_is_a_cache_miss(manifest, data, tmp_path, capsys):
    argv = ["exp1", "--conversations", data["convs"], "--documents", data["docs"],
            "--vocab-size", "300", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    clean = (tmp_path / "exp1" / "report.json").read_bytes()
    (tmp_path / "models" / "manifest.json").write_bytes(manifest)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert (tmp_path / "exp1" / "report.json").read_bytes() == clean
    recorded = json.loads((tmp_path / "models" / "manifest.json").read_bytes())
    assert recorded == {"config_hash": json.loads(clean)["provenance"]["config_hash"]}


@pytest.mark.parametrize("command, flag, error", [
    ("encode", "--model", "IntegrityError"),
    ("fertility", "--model", "IntegrityError"),
    ("report", "--report", "IntegrityError"),
    ("ingest", "--conversations", "MalformedRecord"),
    ("train", "--corpus", "MalformedRecord"),
])
def test_deeply_nested_json_is_one_json_line(command, flag, error, data, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    rest = {
        "encode": ["--text", "x"],
        "fertility": ["--input", data["docs"]],
        "report": ["--out", str(tmp_path / "out")],
        "ingest": [],
        "train": ["--vocab-size", "300", "--out", str(tmp_path / "m.json")],
    }[command]
    code, out, err = run(capsys, command, flag, str(deep), *rest)
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == error
