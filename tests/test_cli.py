import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import convtok.cli
import convtok.corpus
import convtok.experiments
import convtok.samples
import convtok.trainer
from convtok.cli import _experiment_spec, build_parser, main
from convtok.experiments import DEFAULT_SCHEME, DEFAULT_VOCAB_SIZE, ExperimentSpec
from convtok.samples import write_sample_corpora
from convtok.tokenizer import (
    PretokenScheme,
    TokenizerMode,
    base_alphabet,
    decode,
    load_model,
)
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
    # a warm rerun with the same flags writes every report file again, byte
    # for byte, after the experiment's directory is deleted
    out_dir = tmp_path / "runs"
    argv = ["--conversations", data["convs"], "--documents", data["docs"], "--vocab-size", "380",
            "--threshold", "3", "--out", str(out_dir)]
    cold = {}
    for experiment in ("exp1", "exp2", "exp3"):
        code, out, _ = run(capsys, experiment, *argv)
        assert code == 0
        files = (out_dir / experiment).iterdir()
        cold[experiment] = json.loads(out)["files"], {p.name: p.read_bytes() for p in files}
    for experiment, (written, original) in cold.items():
        shutil.rmtree(out_dir / experiment)
        code, out, _ = run(capsys, experiment, *argv)
        assert code == 0
        assert json.loads(out)["files"] == written
        assert {p.name: p.read_bytes() for p in (out_dir / experiment).iterdir()} == original


def test_samples_deterministic(tmp_path, capsys):
    code, out, _ = run(capsys, "samples", "--out", str(tmp_path / "a"),
                       "--seed", "9", "--doc-bytes", "5000", "--conv-bytes", "5000")
    assert code == 0
    run(capsys, "samples", "--out", str(tmp_path / "b"),
        "--seed", "9", "--doc-bytes", "5000", "--conv-bytes", "5000")
    a = (tmp_path / "a" / "conversations.jsonl").read_bytes()
    b = (tmp_path / "b" / "conversations.jsonl").read_bytes()
    assert a == b


def test_samples_under_a_file_fails_before_generating(tmp_path, monkeypatch):
    (tmp_path / "f").write_bytes(b"")

    def must_not_run(**kwargs):
        pytest.fail("corpora generated for an output directory that cannot exist")

    monkeypatch.setattr(convtok.samples, "generate_corpora", must_not_run)
    with pytest.raises(OSError):
        convtok.samples.write_sample_corpora(tmp_path / "f" / "sub")


@pytest.mark.parametrize("flag", ["--doc-bytes", "--conv-bytes"])
@pytest.mark.parametrize("size", ["0", "-5"])
def test_samples_below_one_byte_fails_cleanly(flag, size, tmp_path, capsys):
    code, out, err = run(capsys, "samples", "--out", str(tmp_path / "sdir" / "sub"), flag, size)
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "ConfigError"
    assert flag.removeprefix("--").replace("-", "_") in payload["message"]
    assert not list(tmp_path.iterdir())  # no file, and no directory made for one


def test_train_under_a_file_fails_before_training(data, tmp_path, capsys, monkeypatch):
    (tmp_path / "f").write_bytes(b"")

    def must_not_run(*args, **kwargs):
        pytest.fail("trained for an output path that cannot exist")

    monkeypatch.setattr(convtok.trainer, "train_bpe", must_not_run)
    code, out, err = run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "300",
                         "--out", str(tmp_path / "f" / "sub" / "m.json"))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "NotADirectoryError"


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


def test_ingest_out_reproduces_a_samples_file(data, tmp_path, capsys):
    normalized = tmp_path / "normalized.jsonl"
    code, _, _ = run(capsys, "ingest", "--conversations", data["convs"],
                     "--out", str(normalized))
    assert code == 0
    assert normalized.read_bytes() == Path(data["convs"]).read_bytes()


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


def test_base_model_lengths_are_bound_to_the_given_file(data, tmp_path, capsys):
    base_path = tmp_path / "base.json"
    run(capsys, "train", "--corpus", data["docs"], "--vocab-size", "317",
        "--out", str(base_path))
    # the same model in other bytes than the cache's copy of it
    base_path.write_text(json.dumps(json.loads(base_path.read_bytes()), indent=1),
                         encoding="utf-8")
    out_dir = tmp_path / "runs"
    code, _, err = run(capsys, "exp1", "--conversations", data["convs"],
                       "--documents", data["docs"], "--base-model", str(base_path),
                       "--threshold", "3", "--out", str(out_dir))
    assert code == 0, err
    lengths = json.loads((out_dir / "models" / "lengths" / "base.json").read_bytes())
    assert lengths["model_sha256"] == hashlib.sha256(base_path.read_bytes()).hexdigest()
    cached = (out_dir / "models" / "base.json").read_bytes()
    assert lengths["model_sha256"] != hashlib.sha256(cached).hexdigest()


def _bash(command, cwd):
    """Run a bash command line in which ``convtok`` stands for this
    checkout's command line; a run that blocks fails at the timeout."""
    cli = f"{shlex.quote(sys.executable)} -m convtok.cli "
    env = {**os.environ, "PYTHONPATH": str(Path(convtok.cli.__file__).parents[1])}
    return subprocess.run(["bash", "-c", command.replace("convtok ", cli)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(shutil.which("bash") is None, reason="process substitution needs bash")
@pytest.mark.parametrize("flag", ["--base-model", "--conversations", "--documents"])
def test_an_experiment_refuses_a_piped_input(flag, data, small_model, tmp_path):
    # an experiment parses an input and hashes it, or hashes it alone, so a
    # pipe would give one of the reads nothing: every piped base model would
    # hash alike and reuse another model's cached rows, and a piped corpus
    # would be parsed as empty
    inputs = {"--conversations": data["convs"], "--documents": data["docs"],
              "--base-model": small_model}
    inputs[flag] = f"<(cat {shlex.quote(inputs[flag])})"
    flags = " ".join(f"{name} {value}" for name, value in inputs.items())
    result = _bash(f"convtok exp1 {flags} --out runs", tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    payload = one_json_error(result.stderr)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("/dev/fd/")
    assert "is not a regular file" in payload["message"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.skipif(shutil.which("bash") is None, reason="process substitution needs bash")
def test_train_and_fertility_read_a_piped_corpus_as_the_file(data, small_model, tmp_path):
    for corpus in (data["convs"], data["docs"]):
        runs = []
        for source in (shlex.quote(corpus), f"<(cat {shlex.quote(corpus)})"):
            result = _bash(f"convtok train --corpus {source} --role-filter user --vocab-size 300 "
                           f"--out m.json && convtok fertility --model {shlex.quote(small_model)} "
                           f"--input {source}", tmp_path)
            assert result.returncode == 0, result.stderr
            runs.append((result.stdout, (tmp_path / "m.json").read_bytes()))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["train", "fertility"])
def test_train_and_fertility_read_their_corpus_once(command, data, small_model, tmp_path,
                                                    capsys, monkeypatch):
    reads = []
    real = convtok.corpus.read_utf8

    def spy(source):
        reads.append(source)
        return real(source)

    monkeypatch.setattr(convtok.corpus, "read_utf8", spy)
    for corpus in (data["convs"], data["docs"]):
        reads.clear()
        if command == "train":
            argv = ["train", "--corpus", corpus, "--vocab-size", "300",
                    "--out", str(tmp_path / "m.json")]
        else:
            argv = ["fertility", "--model", small_model, "--input", corpus]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert reads == [corpus]


def test_encode_text_and_input_are_exclusive(small_model, tmp_path, capsys):
    text_file = tmp_path / "input.txt"
    text_file.write_text("from the file", encoding="utf-8")
    code, out, err = run(capsys, "encode", "--model", small_model,
                         "--text", "zz", "--input", str(text_file))
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "UsageError"
    assert "not allowed with argument" in payload["message"]


def test_error_is_machine_readable(tmp_path, capsys):
    code, out, err = run(capsys, "encode", "--model", str(tmp_path / "missing.json"),
                         "--text", "x")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_output_lines_are_ascii_json(tmp_path):
    # a stream that can only take ASCII still gets every line, summary and
    # error alike, with non-ASCII text escaped
    record = {"id": "ñ", "model": "m", "language": "español",
              "turns": [{"role": "user", "content": "hola"}]}
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps(record) + "\n", encoding="utf-8")
    duplicate = tmp_path / "duplicate.jsonl"
    duplicate.write_text(2 * (json.dumps(record) + "\n"), encoding="utf-8")
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": str(Path(convtok.cli.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-m", "convtok.cli", "ingest", "--conversations",
                            str(path)], capture_output=True, env=env)
            for path in (good, duplicate)]
    assert [r.returncode for r in runs] == [0, 1]
    assert runs[0].stdout.isascii() and runs[1].stderr.isascii()
    assert json.loads(runs[0].stdout)["languages"] == {"español": 1}
    assert json.loads(runs[1].stderr)["message"] == "line 2: duplicate record id 'ñ'"


@pytest.mark.parametrize("entry", [
    ["-m", "convtok.cli"],
    ["-c", "import sys; from convtok.cli import script; sys.exit(script())"],
], ids=["module", "console-script"])
def test_a_command_exits_cleanly_with_the_collector_frozen(entry, data, small_model, capsys):
    # both entry points freeze the collector after main returns, so that
    # interpreter shutdown need not walk every module's objects; the exit
    # still warns of nothing, and stdout is what main prints
    argv = ["encode", "--model", small_model, "--input", data["docs"], "--count-only"]
    env = {**os.environ, "PYTHONPATH": str(Path(convtok.cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", *entry, *argv],
                            capture_output=True, text=True, env=env)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (result.returncode, result.stderr, result.stdout) == (0, "", out)


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


@pytest.mark.parametrize("field", ["id", "model", "language"])
def test_lone_surrogate_in_a_record_field_fails_cleanly(field, tmp_path, capsys):
    # valid JSON, but "\ud800" decodes to a string that UTF-8 cannot encode
    record = {"id": "a", "model": "m", "language": "en",
              "turns": [{"role": "user", "content": "hello there"}]}
    line = json.dumps(record).replace(f'"{field}": "{record[field]}"', f'"{field}": "x\\ud800"')
    assert "\\ud800" in line
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    for argv in (["ingest", "--conversations", str(bad)],
                 ["ingest", "--conversations", str(bad), "--out", str(tmp_path / "n.jsonl")],
                 ["train", "--corpus", str(bad), "--vocab-size", "300",
                  "--out", str(tmp_path / "m.json")]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        payload = one_json_error(err)
        assert payload["error"] == "InvalidEncoding"
        assert payload["message"].startswith("line 1: ")
    assert not (tmp_path / "n.jsonl").exists()
    assert not (tmp_path / "m.json").exists()


_RECORD = {"id": "a", "model": "m", "language": "en",
           "turns": [{"role": "user", "content": "hello there"}]}


@pytest.mark.parametrize("change, message", [
    ({"id": ""}, "id must be a non-empty string"),
    ({"model": 3}, "model must be a string"),
    ({"language": ""}, "language must be a non-empty string"),
    ({"turns": ["hello there"]}, "each turn must be an object"),
    ({"turns": [{"role": "user", "content": ["hello"]}]}, "turn content must be a string"),
], ids=["empty-id", "model-not-string", "empty-language", "turn-not-object",
        "content-not-string"])
def test_mistyped_record_field_fails_cleanly(change, message, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**_RECORD, **change}) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--conversations", str(bad))
    assert code == 1
    assert out == ""
    assert one_json_error(err) == {"error": "MalformedRecord", "message": f"line 1: {message}"}


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


@pytest.mark.parametrize("flag, value", [("--vocab-size", "10"), ("--min-pair-frequency", "0")])
def test_bad_training_flag_fails_before_any_corpus_is_read(flag, value, data, tmp_path, capsys,
                                                          monkeypatch):
    loads = []
    real_load = convtok.corpus.load_conversations
    monkeypatch.setattr(convtok.corpus, "load_conversations",
                        lambda path: loads.append(path) or real_load(path))
    code, out, err = run(capsys, "exp1", "--conversations", data["convs"],
                         "--documents", data["docs"], flag, value,
                         "--out", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "ConfigError"
    assert loads == []


@pytest.mark.parametrize("flag, value", [("--vocab-size", "10"), ("--min-pair-frequency", "0")])
def test_bad_train_flag_fails_before_the_corpus_is_read(flag, value, data, tmp_path, capsys,
                                                        monkeypatch):
    loads = []
    real_load = convtok.corpus.load_conversations
    monkeypatch.setattr(convtok.corpus, "load_conversations",
                        lambda path: loads.append(path) or real_load(path))
    out_dir = tmp_path / "models"
    code, out, err = run(capsys, "train", "--corpus", data["convs"], flag, value,
                         "--out", str(out_dir / "m.json"))
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == "ConfigError"
    assert loads == []
    assert not out_dir.exists()


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


_BYTE_VOCAB = list(base_alphabet(TokenizerMode.BYTE_LEVEL))
_MODEL = {"version": 1, "mode": "byte_level", "scheme": "category_split",
          "vocab": _BYTE_VOCAB, "merges": []}


@pytest.mark.parametrize("change, message", [
    (None, "model file must contain a JSON object"),
    ({"mode": "word_level"}, "bad mode/scheme field"),
    ({"scheme": "none"}, "bad mode/scheme field"),
    ({"vocab": _BYTE_VOCAB + [7]}, "vocab must be a list of strings"),
    ({"merges": {"t": "h"}}, "merges must be a list"),
    ({"merges": [["t", "h", "e"]]}, "bad merge entry"),
    ({"vocab": _BYTE_VOCAB[:255]}, "vocabulary smaller than the base alphabet"),
    ({"vocab": _BYTE_VOCAB + ["t h"]}, "token contains unmapped characters"),
    ({"vocab": _BYTE_VOCAB + ["th", "e x", "a b"]}, "token contains unmapped characters: 'e x'"),
], ids=["not-an-object", "bad-mode", "bad-scheme", "vocab-not-strings", "merges-not-list",
        "bad-merge-entry", "vocab-below-256", "unmapped-character", "unmapped-character-later"])
def test_damaged_model_fails_cleanly(change, message, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps([_MODEL] if change is None else {**_MODEL, **change}),
                     encoding="utf-8")
    code, out, err = run(capsys, "encode", "--model", str(model), "--text", "x")
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "IntegrityError"
    assert payload["message"].startswith(message)


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


def _bad_invocation(case, data, tmp, model):
    """argv for one failing run, named by its subcommand or by the subcommand
    and what is wrong, and the error it must name."""
    latin1 = tmp / "latin1.jsonl"
    latin1.write_bytes(b"caf\xe9\n")
    blank = tmp / "blank.txt"
    blank.write_text("\n", encoding="utf-8")
    not_json = tmp / "not_json.json"
    not_json.write_text("{", encoding="utf-8")
    a_file = tmp / "a_file"
    a_file.write_text("", encoding="utf-8")
    one_doc = tmp / "one_doc.txt"
    with open(data["docs"], encoding="utf-8") as f:
        one_doc.write_text(f.readline(), encoding="utf-8")
    assistant_only = tmp / "assistant_only.jsonl"
    assistant_only.write_text(json.dumps({"id": "a", "model": "m", "language": "en", "turns": [
        {"role": "assistant", "content": "hello there"}]}) + "\n", encoding="utf-8")
    # a lone surrogate is valid JSON, but no UTF-8 text holds it
    surrogate = tmp / "surrogate.json"
    surrogate.write_text(json.dumps({
        "version": 1, "mode": "char_level_fallback", "scheme": "category_split",
        "vocab": [f"<0x{b:02X}>" for b in range(256)] + ["\ud800"], "merges": []}),
        encoding="ascii")

    def train(corpus, *extra):
        return ["train", "--corpus", corpus, "--vocab-size", "300", "--out", str(tmp / "m.json"),
                *extra]

    def experiment(command, documents=str(blank), *extra):
        return [command, "--conversations", data["convs"], "--documents", documents,
                "--vocab-size", "300", "--out", str(tmp / "runs"), *extra]

    return {
        "ingest": (["ingest", "--conversations", str(latin1)], "InvalidEncoding"),
        "ingest-nothing": (["ingest"], "ConvtokError"),
        "ingest-out-without-conversations": (
            ["ingest", "--documents", data["docs"], "--out", str(tmp / "runs" / "c.jsonl")],
            "UsageError"),
        # a path flag given "" names the current directory, not an absent flag
        "ingest-empty-conversations-path": (["ingest", "--conversations", ""],
                                            "IsADirectoryError"),
        # a conversation file read as documents is JSONL without a text field
        "ingest-conversations-as-documents": (["ingest", "--documents", data["convs"]],
                                              "MalformedRecord"),
        # an output path with no name is the directory it would be written in
        "ingest-empty-out-path": (["ingest", "--conversations", data["convs"], "--out", ""],
                                  "IsADirectoryError"),
        "train": (["train", "--corpus", data["docs"], "--vocab-size", "100",
                   "--out", str(tmp / "m.json")], "ConfigError"),
        "train-min-pair-frequency-0": (["train", "--corpus", data["docs"], "--vocab-size", "300",
                                        "--min-pair-frequency", "0",
                                        "--out", str(tmp / "m.json")], "ConfigError"),
        "train-abbreviated-flag": (["train", "--corpus", data["docs"], "--vocab", "300",
                                    "--out", str(tmp / "runs" / "m.json")], "UsageError"),
        "train-empty-out-path": (["train", "--corpus", data["docs"], "--vocab-size", "300",
                                  "--out", ""], "IsADirectoryError"),
        "train-dot-out-path": (["train", "--corpus", data["docs"], "--vocab-size", "300",
                                "--out", "."], "IsADirectoryError"),
        # texts with no piece would train a model with no merges
        "train-empty-conversations": (train(str(a_file), "--format", "conversations"),
                                      "EmptyCorpus"),
        "train-role-filter-selects-nothing": (train(str(assistant_only), "--role-filter", "user"),
                                              "EmptyCorpus"),
        "encode": (["encode", "--model", str(tmp / "missing.json"), "--text", "x"],
                   "FileNotFoundError"),
        "encode-empty-input-path": (["encode", "--model", model, "--input", "", "--count-only"],
                                    "IsADirectoryError"),
        "fertility": (["fertility", "--model", str(not_json), "--input", data["docs"]],
                      "IntegrityError"),
        "fertility-conversations-as-documents": (
            ["fertility", "--model", model, "--input", data["convs"], "--format", "documents"],
            "MalformedRecord"),
        "train-conversations-as-documents": (train(data["convs"], "--format", "documents"),
                                             "MalformedRecord"),
        "exp1": (experiment("exp1"), "EmptyCorpus"),
        # a prefix of a flag is not that flag: each of these runs would succeed
        "exp1-abbreviated-flag": (["exp1", "--conv", data["convs"], "--documents", data["docs"],
                                   "--vocab-size", "300", "--out", str(tmp / "runs")],
                                  "UsageError"),
        "exp1-conversations-as-documents": (experiment("exp1", data["convs"]), "MalformedRecord"),
        "exp1-negative-doc-sample-bytes": (
            experiment("exp1", data["docs"], "--doc-sample-bytes", "-5"), "ConfigError"),
        "exp1-empty-base-model-path": (experiment("exp1", data["docs"], "--base-model", ""),
                                       "ConfigError"),
        "exp1-surrogate-base-model": (
            experiment("exp1", data["docs"], "--base-model", str(surrogate)), "IntegrityError"),
        # every experiment compares all three role filters; train and
        # fertility keep the flag, which picks their texts
        "exp1-role-filter": (experiment("exp1", data["docs"], "--role-filter", "both"),
                             "UsageError"),
        "exp2": (experiment("exp2"), "EmptyCorpus"),
        "exp2-abbreviated-flag": (experiment("exp2", data["docs"], "--thresh", "60"),
                                  "UsageError"),
        "exp2-negative-threshold": (
            experiment("exp2", data["docs"], "--threshold", "-3"), "ConfigError"),
        "exp2-role-filter": (experiment("exp2", data["docs"], "--role-filter", "both"),
                             "UsageError"),
        # 0.001 of either corpus rounds to no train item
        "exp2-empty-train-split": (
            experiment("exp2", data["docs"], "--train-fraction", "0.001"), "EmptyCorpus"),
        "exp3": (experiment("exp3"), "EmptyCorpus"),
        "exp3-empty-documents-train-split": (
            experiment("exp3", str(one_doc), "--train-fraction", "0.3"), "EmptyCorpus"),
        # the removed report subcommand is an unknown word
        "report": (["report", "--report", str(not_json), "--out", str(tmp / "o")],
                   "UsageError"),
        "samples": (["samples", "--out", str(a_file / "sub")], "NotADirectoryError"),
        # random.Random seeds an int by its absolute value: -5 would write seed 5's files
        "samples-negative-seed": (["samples", "--out", str(tmp / "runs"), "--seed", "-5"],
                                  "ConfigError"),
    }[case]


@pytest.mark.parametrize("case", [
    "ingest", "ingest-nothing", "ingest-out-without-conversations",
    "ingest-empty-conversations-path", "ingest-conversations-as-documents",
    "ingest-empty-out-path", "train", "train-min-pair-frequency-0", "train-abbreviated-flag",
    "train-empty-out-path", "train-dot-out-path", "train-empty-conversations",
    "train-role-filter-selects-nothing", "train-conversations-as-documents",
    "encode", "encode-empty-input-path", "fertility", "fertility-conversations-as-documents",
    "exp1", "exp1-abbreviated-flag", "exp1-conversations-as-documents",
    "exp1-negative-doc-sample-bytes",
    "exp1-empty-base-model-path", "exp1-surrogate-base-model", "exp1-role-filter",
    "exp2", "exp2-abbreviated-flag", "exp2-negative-threshold", "exp2-role-filter",
    "exp2-empty-train-split",
    "exp3", "exp3-empty-documents-train-split", "report", "samples", "samples-negative-seed",
])
def test_every_subcommand_fails_with_one_json_line(case, data, small_model, tmp_path, capsys,
                                                   monkeypatch):
    argv, error = _bad_invocation(case, data, tmp_path, small_model)
    # a relative --out, such as "" or ".", lands in the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error
    # a command that fails writes no --out
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "m.json").exists()
    assert list(cwd.iterdir()) == []


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
                         min_pair_frequency=args.min_pair_frequency)
    assert config == TrainConfig(vocab_size=DEFAULT_VOCAB_SIZE)
    assert PretokenScheme(args.scheme) is DEFAULT_SCHEME is ExperimentSpec._field_defaults["scheme"]


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


def _edit_json(clean: bytes, edit) -> bytes:
    """A cache file whose parsed object ``edit`` has changed in place."""
    obj = json.loads(clean)
    edit(obj)
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _edit_list(key, edit):
    """A damage that replaces the list under ``key``, the language counts or
    the cells, with ``edit`` of it."""
    return lambda clean, other: _edit_json(clean, lambda obj: obj.update({key: edit(obj[key])}))


def _first_count(value):
    return lambda p: [[p[0][0], value], *p[1:]]


def _first_cell(index, value):
    """An edit of the cells that sets entry ``index`` of the first cell."""
    return lambda p: [[*p[0][:index], value, *p[0][index + 1:]], *p[1:]]


def _duplicate_first(p):
    return p + p[:1]


def _other_split(*flags):
    """A damage that puts in place the valid test-split file of a workspace
    run with ``flags``: a file of another configuration."""
    return lambda clean, other: other(*flags)


def _set_languages(value: bytes):
    """A damage that puts the raw JSON ``value`` in place of the language counts."""
    return lambda clean, other: _edit_json(clean, lambda obj: obj.update(languages=0)).replace(
        b'"languages":0', b'"languages":' + value, 1)


def _drop_first_language_cells(obj):
    tag = obj["languages"][0][0]
    obj["cells"] = [cell for cell in obj["cells"] if cell[1] != tag]


def _scope_lists(obj):
    # the earlier layout: [scope, count] lists of word counts and piece
    # occurrences in place of the cells
    documents = obj.pop("cells")[0]
    obj.update(n_words=[["documents", documents[2]]], occurrences=[["documents", documents[3]]])


# damage to the test-split file as a whole or to its cells, each
# [role, tag, words, piece occurrences]: n-words-* damage a word count and
# count-* a piece occurrence count; the cells follow the language counts
_TABLE_DAMAGE = {
    "not-utf8": lambda clean, other: b"\xff\xfe",
    "truncated": lambda clean, other: clean[: len(clean) // 2],
    "list": lambda clean, other: b"[1]",
    "deeply-nested": lambda clean, other: b"[" * 100_000 + b"]" * 100_000,
    "other-scheme": _other_split("--scheme", "whitespace_split"),
    "other-config": _other_split("--seed", "5"),
    **{f"{prefix}-{kind}": _edit_list("cells", _first_cell(index, value))
       for index, prefix in [(2, "n-words"), (3, "count")]
       for kind, value in [("negative", -1), ("bool", True), ("float", 1.5), ("str", "2")]},
    "n-words-duplicate-scope": _edit_list("cells", _duplicate_first),
    "count-duplicate-scope": _edit_list("cells", lambda p: [p[0], p[0], *p[2:]]),
    "other-scope": _edit_list("cells", _first_cell(0, "train:documents")),
    "other-tag": _edit_list("cells", _first_cell(1, "xx")),
    "no-documents": _edit_list("cells", lambda p: p[1:]),
    "extra-scope": _edit_list("cells", lambda p: [*p, ["user", "xx", 9, 9]]),
    "reordered-scope": _edit_list("cells", lambda p: [p[1], p[0], *p[2:]]),
    "cell-short": _edit_list("cells", lambda p: [p[0][:3], *p[1:]]),
    "cell-long": _edit_list("cells", lambda p: [[*p[0], 0], *p[1:]]),
    "cell-object": _edit_list("cells", lambda p: [dict(enumerate(p[0])), *p[1:]]),
    "cells-object": _edit_list("cells", lambda p: dict(enumerate(p))),
    "no-cells": lambda clean, other: _edit_json(clean, lambda obj: obj.pop("cells")),
    "scope-lists": lambda clean, other: _edit_json(clean, _scope_lists),
}

# damage to the test-split file's language counts
_LANGUAGES_DAMAGE = {
    "not-utf8": lambda clean, other: clean.replace(b'"languages":[["', b'"languages":[["\xff', 1),
    "truncated": lambda clean, other: clean[: clean.index(b'"languages":[["') + 16],
    "list": _set_languages(b"[1]"),
    "deeply-nested": _set_languages(b"[" * 100_000 + b"]" * 100_000),
    "other-scope": lambda clean, other: _edit_json(
        clean, lambda obj: obj.update(languages=obj["cells"])),
    "count-negative": _edit_list("languages", _first_count(-1)),
    "count-zero": _edit_list("languages", _first_count(0)),
    "count-bool": _edit_list("languages", _first_count(True)),
    "empty-tag": _edit_list("languages", lambda p: [["", p[0][1]], *p[1:]]),
    "string-entry": _edit_list("languages", lambda p: ["ab", *p[1:]]),
    "duplicate-tag": _edit_list("languages", _duplicate_first),
    "reordered-tags": _edit_list("languages", lambda p: [p[1], p[0], *p[2:]]),
    "language-without-table": lambda clean, other: _edit_json(clean, _drop_first_language_cells),
}


def _assert_test_split_damage_is_a_miss(damage, data, tmp_path, capsys):
    """exp2 over a test-split file that ``damage`` made of its clean bytes
    exits 0 with the clean report and rewrites the file in full."""
    def argv(out, *extra):
        return ["exp2", "--conversations", data["convs"], "--documents", data["docs"],
                "--vocab-size", "300", "--threshold", "0", "--out", str(out), *extra]

    def other_split(*flags):
        code, _, err = run(capsys, *argv(tmp_path / "other", *flags))
        assert code == 0, err
        return (tmp_path / "other" / "models" / "test.json").read_bytes()

    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 0, err
    report = (tmp_path / "exp2" / "report.json").read_bytes()
    split = tmp_path / "models" / "test.json"
    clean = split.read_bytes()
    assert len(json.loads(clean)["languages"]) >= 2  # language rows to lose and to reorder
    damaged = damage(clean, other_split)
    assert damaged != clean
    split.write_bytes(damaged)
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 0, err
    assert (tmp_path / "exp2" / "report.json").read_bytes() == report
    assert split.read_bytes() == clean  # rebuilt in full and rewritten


@pytest.mark.parametrize("damage", list(_TABLE_DAMAGE))
def test_damaged_table_file_is_a_cache_miss(damage, data, tmp_path, capsys):
    _assert_test_split_damage_is_a_miss(_TABLE_DAMAGE[damage], data, tmp_path, capsys)


@pytest.mark.parametrize("damage", list(_LANGUAGES_DAMAGE))
def test_damaged_language_counts_are_a_cache_miss(damage, data, tmp_path, capsys):
    _assert_test_split_damage_is_a_miss(_LANGUAGES_DAMAGE[damage], data, tmp_path, capsys)


def test_a_test_split_naming_a_language_with_no_conversation_fails_cleanly(data, tmp_path,
                                                                          capsys):
    # a valid test-split file whose first language tag is edited, in the
    # language counts and in its cells, to one that no held-out conversation
    # has: the cells that the models are counted on again are not its cells
    argv = ["exp2", "--conversations", data["convs"], "--documents", data["docs"],
            "--vocab-size", "300", "--threshold", "0", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    report = tmp_path / "exp2" / "report.json"
    report.unlink()

    def rename_first_language(obj):
        tag = obj["languages"][0][0]
        obj["languages"][0][0] = "no-such-language"
        for cell in obj["cells"]:
            if cell[1] == tag:
                cell[1] = "no-such-language"

    split = tmp_path / "models" / "test.json"
    renamed = _edit_json(split.read_bytes(), rename_first_language)
    split.write_bytes(renamed)
    for lengths in (tmp_path / "models" / "lengths").iterdir():
        lengths.unlink()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    payload = one_json_error(err)
    assert payload["error"] == "IntegrityError"
    assert str(split) in payload["message"]
    assert not report.exists()
    assert split.read_bytes() == renamed
    assert list((tmp_path / "models" / "lengths").iterdir()) == []


# by experiment: a cached model file it reads, and another model of its cache
_DAMAGED_MODEL = {
    "exp1": ("base", "retrained_user"),
    "exp2": ("retrained_user", "retrained_assistant"),
    "exp3": ("retrained_both", "retrained_user"),
}


@pytest.mark.parametrize("experiment", list(_DAMAGED_MODEL))
def test_damaged_cached_model_fails_or_is_recounted(experiment, data, tmp_path, capsys):
    def argv(out):
        return [experiment, "--conversations", data["convs"], "--documents", data["docs"],
                "--vocab-size", "300", "--threshold", "3", "--out", str(out)]

    out = tmp_path / "runs"
    for command in ("exp1", "exp2", "exp3"):
        code, _, err = run(capsys, command, *argv(out)[1:])
        assert code == 0, err
    report = out / experiment / "report.json"
    cold = report.read_bytes()
    target, other = (out / "models" / f"{name}.json" for name in _DAMAGED_MODEL[experiment])

    # another model's valid bytes: a digest miss, so every table is counted again
    # with that model, as by a run whose cache holds only it and the manifest
    swapped = other.read_bytes()
    target.write_bytes(swapped)
    code, _, err = run(capsys, *argv(out))
    assert code == 0, err
    assert report.read_bytes() != cold
    fresh = tmp_path / "fresh"
    (fresh / "models").mkdir(parents=True)
    (fresh / "models" / "manifest.json").write_bytes((out / "models" / "manifest.json").read_bytes())
    (fresh / "models" / target.name).write_bytes(swapped)
    code, _, err = run(capsys, *argv(fresh))
    assert code == 0, err
    assert report.read_bytes() == (fresh / experiment / "report.json").read_bytes()
    lengths = json.loads((out / "models" / "lengths" / target.name).read_bytes())
    assert lengths["model_sha256"] == hashlib.sha256(swapped).hexdigest()

    # a truncated model file has no lengths file, so it is parsed and fails:
    # cut at a character boundary with IntegrityError, and cut through a
    # character with InvalidEncoding, as any file that is not UTF-8
    half = len(swapped) // 2
    inside = next(i for i in range(half, len(swapped)) if swapped[i] & 0xC0 == 0x80)
    for cut, error in [(swapped[:half].decode("utf-8", "ignore").encode("utf-8"), "IntegrityError"),
                       (swapped[:inside], "InvalidEncoding")]:
        target.write_bytes(cut)
        code, stdout, err = run(capsys, *argv(out))
        assert code == 1
        assert stdout == ""
        assert one_json_error(err)["error"] == error


def _edit_lengths(lengths: bytes, edit) -> bytes:
    """A lengths file whose list of token counts, one per test cell, is
    ``edit`` of its own."""
    return _edit_json(lengths, lambda obj: obj.update(lengths=edit(obj["lengths"])))


def _first_length(value):
    return lambda clean, other: _edit_lengths(clean, lambda p: [value, *p[1:]])


_LENGTHS_DAMAGE = {
    "not-utf8": lambda clean, other: b"\xff\xfe",
    "truncated": lambda clean, other: clean[: len(clean) // 2],
    "list": lambda clean, other: b"[1]",
    "deeply-nested": lambda clean, other: b"[" * 100_000 + b"]" * 100_000,
    "length-zero": _first_length(0),
    "length-negative": _first_length(-1),
    "length-bool": _first_length(True),
    "length-float": _first_length(1.5),
    "length-str": _first_length("2"),
    "length-null": _first_length(None),
    "length-list": lambda clean, other: _edit_lengths(clean, lambda p: [[p[0]], *p[1:]]),
    "lengths-dict": lambda clean, other: _edit_lengths(clean, lambda p: dict(enumerate(p))),
    "lacks-a-table": lambda clean, other: _edit_lengths(clean, lambda p: p[1:]),
    "extra-table": lambda clean, other: _edit_lengths(clean, lambda p: [*p, 9]),
    "below-occurrences": _first_length(1),
    # the earlier layout: [scope, tokens] pairs
    "scope-pairs": lambda clean, other: _edit_lengths(
        clean, lambda p: [[f"scope{i}", n] for i, n in enumerate(p)]),
    "other-model": lambda clean, other: other,
}


@pytest.mark.parametrize("damage", list(_LENGTHS_DAMAGE))
def test_damaged_lengths_file_is_a_cache_miss(damage, data, tmp_path, capsys):
    argv = ["exp3", "--conversations", data["convs"], "--documents", data["docs"],
            "--vocab-size", "300", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    report = (tmp_path / "exp3" / "report.json").read_bytes()
    lengths = tmp_path / "models" / "lengths"
    target = lengths / "retrained_both.json"
    clean = target.read_bytes()
    split = tmp_path / "models" / "test.json"
    clean_split = split.read_bytes()
    # the user model's file holds as many counts under another model's digest
    damaged = _LENGTHS_DAMAGE[damage](clean, (lengths / "retrained_user.json").read_bytes())
    assert damaged != clean
    target.write_bytes(damaged)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert (tmp_path / "exp3" / "report.json").read_bytes() == report
    assert target.read_bytes() == clean  # counted again and rewritten
    # the tables it is counted on are built from the corpora, and the
    # test-split file stays as it was
    assert split.read_bytes() == clean_split


def test_language_tags_never_name_a_path(data, tmp_path, capsys):
    tags = ["../../outside", "a/b", "x" * 300]
    convs = tmp_path / "in" / "conversations.jsonl"
    convs.parent.mkdir()
    with open(data["convs"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for i, record in enumerate(records):
        record["language"] = tags[i % len(tags)]
    convs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out" / "runs"
    code, _, err = run(capsys, "exp2", "--conversations", str(convs),
                       "--documents", data["docs"], "--vocab-size", "300", "--threshold", "0",
                       "--out", str(out))
    assert code == 0, err
    rows = json.loads((out / "exp2" / "report.json").read_bytes())["rows"]
    assert {r["scope"] for r in rows} == {"all", *(f"language:{tag}" for tag in tags)}
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != convs]
    assert written and all(out in p.parents for p in written)
    # every count lives in the one test-split file, so no tag names a file
    names = {p.relative_to(out / "models").as_posix() for p in (out / "models").rglob("*")}
    assert names == {"manifest.json", "test.json", "lengths",
                     *(f"{prefix}{name}.json" for prefix in ("", "lengths/")
                       for name in ("base", "retrained_user", "retrained_assistant",
                                    "retrained_both"))}
    split = json.loads((out / "models" / "test.json").read_bytes())
    assert set(split) == {"config_hash", "languages", "cells"}
    assert {tag for tag, _ in split["languages"]} == set(tags)
    ordered = [tag for tag, _ in split["languages"]] + [""]
    assert [cell[:2] for cell in split["cells"]] == [
        ["documents", ""], *([role, tag] for role in ("user", "assistant") for tag in ordered)]


def test_malformed_conversations_fail_before_missing_documents(data, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", broken\n', encoding="utf-8")
    code, out, err = run(capsys, "exp1", "--conversations", str(bad),
                         "--documents", str(tmp_path / "missing.txt"), "--vocab-size", "300",
                         "--out", str(tmp_path / "runs"))
    assert code == 1
    assert out == ""
    payload = one_json_error(err)
    assert payload["error"] == "MalformedRecord"
    assert payload["message"].startswith("line 1: ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, flag, error", [
    ("encode", "--model", "IntegrityError"),
    ("fertility", "--model", "IntegrityError"),
    ("ingest", "--conversations", "MalformedRecord"),
    ("train", "--corpus", "MalformedRecord"),
])
def test_deeply_nested_json_is_one_json_line(command, flag, error, data, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    rest = {
        "encode": ["--text", "x"],
        "fertility": ["--input", data["docs"]],
        "ingest": [],
        "train": ["--vocab-size", "300", "--out", str(tmp_path / "m.json")],
    }[command]
    code, out, err = run(capsys, command, flag, str(deep), *rest)
    assert code == 1
    assert out == ""
    assert one_json_error(err)["error"] == error


def _fresh_python(script: str, *args: str) -> str:
    """stdout of ``script`` run with ``args`` in a new interpreter that
    imports convtok from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(convtok.cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


# the modules of the package, beside convtok and convtok.cli, that each command imports
_COMMAND_MODULES = {
    "encode": {"errors", "config", "tokenizer"},
    "fertility": {"errors", "config", "tokenizer", "corpus", "metrics"},
    "samples": {"errors", "config", "corpus", "samples"},
    "exp1": {"errors", "config", "corpus", "tokenizer", "trainer", "metrics", "experiments",
             "build"},
}


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_each_command_imports_only_its_modules(command, data, small_model, tmp_path):
    argv = {
        "encode": ["encode", "--model", small_model, "--text", "hello", "--count-only"],
        "fertility": ["fertility", "--model", small_model, "--input", data["convs"]],
        "samples": ["samples", "--out", str(tmp_path), "--doc-bytes", "2000",
                    "--conv-bytes", "2000"],
        "exp1": ["exp1", "--conversations", data["convs"], "--documents", data["docs"],
                 "--vocab-size", "300", "--out", str(tmp_path)],
    }[command]
    out = _fresh_python(
        "import json, sys\n"
        "from convtok.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('convtok')),\n"
        "                  [m for m in ('dataclasses', 'inspect') if m in sys.modules]]))\n",
        *argv)
    code, modules, slow_imports = json.loads(out.splitlines()[-1])
    assert code == 0
    assert modules == sorted({"convtok", "convtok.cli"}
                             | {f"convtok.{m}" for m in _COMMAND_MODULES[command]})
    # the value types are named tuples: no command pays for dataclasses and
    # the inspect module it imports
    assert slow_imports == []


def test_a_warm_experiment_imports_no_parser_trainer_or_tokenizer(data, tmp_path):
    # a cold chain fills the cache; each warm rerun reads its counts from it
    # and neither parses a corpus nor trains nor encodes
    argv = ["--conversations", data["convs"], "--documents", data["docs"], "--vocab-size", "300",
            "--threshold", "3", "--out", str(tmp_path)]
    for exp in ("exp1", "exp2", "exp3"):
        assert main([exp, *argv]) == 0
    for exp in ("exp1", "exp2", "exp3"):
        out = _fresh_python(
            "import json, sys\n"
            "from convtok.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('convtok'))]))\n",
            exp, *argv)
        code, modules = json.loads(out.splitlines()[-1])
        assert code == 0
        assert modules == ["convtok", "convtok.cli", "convtok.config", "convtok.errors",
                           "convtok.experiments", "convtok.metrics"], exp


@pytest.mark.parametrize("command", ["ingest", "train", "encode", "fertility", "samples",
                                     "exp1", "exp2", "exp3"])
def test_a_lone_subcommand_parser_keeps_its_help(command):
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from convtok.cli import build_parser\n"
        "texts = []\n"
        "for parser in (build_parser(sys.argv[1]), build_parser()):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.suppress(SystemExit):\n"
        "        parser.parse_args([sys.argv[1], '--help'])\n"
        "    texts.append(buf.getvalue())\n"
        "print(json.dumps(texts))\n",
        command)
    lone, full = json.loads(out)
    assert lone.startswith(f"usage: convtok {command} ")
    assert lone == full


# the run settings' homes before they moved to config
_OLD_SETTINGS_PATHS = ("convtok.corpus.RoleFilter", "convtok.corpus.SplitSpec",
                       "convtok.tokenizer.PretokenScheme", "convtok.tokenizer.TokenizerMode",
                       "convtok.trainer.TrainConfig")


def test_package_exports_are_lazy_and_are_their_modules_objects():
    out = _fresh_python(
        "import importlib, json, sys\n"
        "import convtok\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('convtok.'))\n"
        "convtok.TrainConfig, convtok.RoleFilter\n"
        "settings = sorted(m for m in sys.modules if m.startswith('convtok.'))\n"
        "undisplayed = sorted(set(convtok.__all__) - set(dir(convtok)))\n"
        "homes = {name: getattr(convtok, name).__module__ for name in convtok.__all__}\n"
        "strays = [name for name, home in homes.items()\n"
        "          if getattr(importlib.import_module(home), name) is not getattr(convtok, name)]\n"
        "moved = []\n"
        "for path in sys.argv[1:]:\n"
        "    module, _, name = path.rpartition('.')\n"
        "    if getattr(importlib.import_module(module), name) is not getattr(convtok, name):\n"
        "        moved.append(path)\n"
        "try:\n"
        "    convtok.no_such_name\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([loaded, settings, undisplayed, sorted(set(homes.values())), strays,\n"
        "                  unknown, moved]))\n",
        *_OLD_SETTINGS_PATHS)
    loaded, settings, undisplayed, homes, strays, unknown, moved = json.loads(out)
    assert loaded == []  # import convtok imports none of its modules
    assert settings == ["convtok.config", "convtok.errors"]
    assert undisplayed == []
    assert homes == ["convtok.config", "convtok.corpus", "convtok.errors", "convtok.experiments",
                     "convtok.metrics", "convtok.samples", "convtok.tokenizer", "convtok.trainer"]
    assert strays == []
    assert unknown == "module 'convtok' has no attribute 'no_such_name'"
    assert moved == []  # each old path names the object that config holds
