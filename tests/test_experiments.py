import csv
import hashlib
import json
import os
import shutil
import threading
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import convtok
from convtok.corpus import RoleFilter, SplitSpec, extract_text, language_counts
from convtok.errors import ConfigError, ConvtokError, IntegrityError
from convtok.experiments import (
    ALL_FILTERS,
    EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    Provenance,
    ScopeRow,
    Workspace,
    emit_plot_data,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    write_report,
)
from convtok.metrics import fertility, reduction, token_count
from convtok.samples import write_sample_corpora
from convtok.tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    load_model,
    model_to_bytes,
    save_model,
)
from convtok.trainer import TrainConfig, train_bpe


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A miniature end-to-end run: small corpora, small vocabulary."""
    root = tmp_path_factory.mktemp("tiny")
    docs_path, convs_path = write_sample_corpora(
        root / "data", seed=7, doc_bytes=60_000, conv_bytes=60_000
    )
    spec = ExperimentSpec(
        conversations_path=convs_path,
        documents_path=docs_path,
        output_dir=root / "out",
        split=SplitSpec(train_fraction=0.8, seed=11),
        vocab_size=420,
        language_threshold=5,
    )
    ws = Workspace(spec)
    return SimpleNamespace(
        root=root,
        spec=spec,
        ws=ws,
        exp1=run_experiment1(spec, ws),
        exp2=run_experiment2(spec, ws),
        exp3=run_experiment3(spec, ws),
    )


class TestExperiment1:
    def test_four_scopes(self, tiny):
        assert [r.scope for r in tiny.exp1.rows] == ["documents", "all", "user", "assistant"]
        assert all(r.tokens_opt is None for r in tiny.exp1.rows)

    def test_conversation_scope_is_word_weighted_mean(self, tiny):
        rows = {r.scope: r for r in tiny.exp1.rows}
        assert rows["all"].tokens_base == rows["user"].tokens_base + rows["assistant"].tokens_base
        assert rows["all"].n_words == rows["user"].n_words + rows["assistant"].n_words
        low = min(rows["user"].fertility_base, rows["assistant"].fertility_base)
        high = max(rows["user"].fertility_base, rows["assistant"].fertility_base)
        assert low <= rows["all"].fertility_base <= high

    def test_rows_reproducible_from_metrics(self, tiny):
        base = tiny.ws.base_model()
        recomputed = fertility(base, tiny.ws.builder.docs_test)
        row = tiny.exp1.rows[0]
        assert row.tokens_base == recomputed.n_tokens
        assert row.n_words == recomputed.n_words
        assert row.fertility_base == round(recomputed.fertility, 6)


class TestExperiment2:
    def test_all_row_per_filter(self, tiny):
        all_rows = [r for r in tiny.exp2.rows if r.scope == "all"]
        assert [r.filter for r in all_rows] == ["user", "assistant", "both"]

    def test_split_is_disjoint(self, tiny):
        train_ids = {r.id for r in tiny.ws.builder.conv_train}
        test_ids = {r.id for r in tiny.ws.builder.conv_test}
        assert not train_ids & test_ids
        assert len(train_ids) + len(test_ids) == len(tiny.ws.builder.conversations)

    def test_language_rows_only_over_threshold(self, tiny):
        groups = dict(language_counts(tiny.ws.builder.conv_test, tiny.spec.language_threshold))
        language_rows = [r for r in tiny.exp2.rows if r.scope.startswith("language:")]
        assert language_rows
        for row in language_rows:
            tag = row.scope.removeprefix("language:")
            assert row.conversation_count == groups[tag]
            assert row.conversation_count > tiny.spec.language_threshold

    def test_rows_reproducible_from_metrics(self, tiny):
        base = tiny.ws.base_model()
        opt = tiny.ws.retrained(RoleFilter.BOTH)
        texts = extract_text(tiny.ws.builder.conv_test, RoleFilter.BOTH)
        recomputed = reduction(base, opt, texts)
        row = next(r for r in tiny.exp2.rows if r.scope == "all" and r.filter == "both")
        assert row.tokens_base == recomputed.tokens_base
        assert row.tokens_opt == recomputed.tokens_opt
        assert row.reduction_pct == round(recomputed.reduction_pct, 1)

    def test_language_rows_are_reductions_over_language_groups(self, tiny):
        base = tiny.ws.base_model()
        groups = language_counts(tiny.ws.builder.conv_test, tiny.spec.language_threshold)
        for role_filter in ALL_FILTERS:
            opt = tiny.ws.retrained(role_filter)
            rows = [r for r in tiny.exp2.rows
                    if r.filter == role_filter.value and r.scope.startswith("language:")]
            assert [r.scope for r in rows] == [f"language:{tag}" for tag, _ in groups]
            for row, (tag, n) in zip(rows, groups):
                subset = [r for r in tiny.ws.builder.conv_test if r.language == tag]
                recomputed = reduction(base, opt, extract_text(subset, RoleFilter.BOTH))
                assert row.conversation_count == n == len(subset)
                assert row.tokens_base == recomputed.tokens_base
                assert row.tokens_opt == recomputed.tokens_opt
                assert row.reduction_pct == round(recomputed.reduction_pct, 1)

    def test_a_warm_run_pretokenizes_nothing(self, tiny, monkeypatch):
        ws = Workspace(tiny.spec)  # every model and test table is cached on disk by now
        calls = []
        real = convtok.tokenizer.pretokenize

        def counting(text, scheme):
            calls.append(text)
            return real(text, scheme)

        for module in (convtok.tokenizer, convtok.metrics, convtok.trainer, convtok.experiments):
            if hasattr(module, "pretokenize"):
                monkeypatch.setattr(module, "pretokenize", counting)
        report = run_experiment2(tiny.spec, ws)
        assert report == tiny.exp2
        assert calls == []


class TestExperiment3:
    def test_includes_every_filter(self, tiny):
        assert [r.filter for r in tiny.exp3.rows] == ["user", "assistant", "both"]
        assert all(r.scope == "documents" for r in tiny.exp3.rows)

    def test_base_against_itself_is_zero(self, tiny):
        base = tiny.ws.base_model()
        assert reduction(base, base, tiny.ws.builder.docs_test).reduction_pct == 0.0


class TestDeterminism:
    def test_second_run_is_byte_identical(self, tiny, tmp_path):
        spec = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=tmp_path / "fresh",
            split=tiny.spec.split,
            vocab_size=tiny.spec.vocab_size,
            language_threshold=tiny.spec.language_threshold,
        )
        ws = Workspace(spec)
        repeat = run_experiment2(spec, ws)
        assert repeat.to_json_bytes() == tiny.exp2.to_json_bytes()
        assert repeat.provenance.config_hash == tiny.exp2.provenance.config_hash
        for name in ("base", "retrained_both"):
            a = load_model(tiny.spec.output_dir / "models" / f"{name}.json")
            b = load_model(spec.output_dir / "models" / f"{name}.json")
            assert model_to_bytes(a) == model_to_bytes(b)

    def test_models_cached_on_disk(self, tiny):
        models_dir = tiny.spec.output_dir / "models"
        names = {p.name for p in models_dir.iterdir()}
        assert names == {
            "base.json", "retrained_user.json", "retrained_assistant.json",
            "retrained_both.json", "manifest.json", "test.json", "lengths",
        }

    def test_config_change_invalidates_cached_models(self, tiny, tmp_path):
        out = tmp_path / "reused"
        spec_a = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=out,
            split=tiny.spec.split,
            vocab_size=300,
            language_threshold=tiny.spec.language_threshold,
        )
        run_experiment2(spec_a, Workspace(spec_a))
        spec_b = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=out,
            split=tiny.spec.split,
            vocab_size=330,
            language_threshold=tiny.spec.language_threshold,
        )
        ws_b = Workspace(spec_b)
        run_experiment2(spec_b, ws_b)
        for name in ("base", "retrained_user", "retrained_both"):
            model = load_model(out / "models" / f"{name}.json")
            assert len(model.vocab) <= 330
            assert len(model.vocab) > 300  # really retrained, not run A's files

    def test_interrupted_model_write_leaves_a_usable_cache(self, tiny, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=tmp_path / "interrupted",
            split=tiny.spec.split,
            vocab_size=tiny.spec.vocab_size,
            language_threshold=tiny.spec.language_threshold,
        )
        ws = Workspace(spec)
        ws.base_model()  # cached, with a valid manifest
        real_write_bytes = Path.write_bytes

        def dies_midway(path, data):
            if path.name.startswith("retrained_user"):
                real_write_bytes(path, data[: len(data) // 2])
                raise OSError("disk full")
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", dies_midway)
        with pytest.raises(OSError):
            ws.retrained(RoleFilter.USER_ONLY)
        monkeypatch.undo()

        fresh = Workspace(spec)
        model = fresh.retrained(RoleFilter.USER_ONLY)
        assert model_to_bytes(model) == model_to_bytes(tiny.ws.retrained(RoleFilter.USER_ONLY))
        names = {p.name for p in spec.output_dir.joinpath("models").iterdir()}
        assert names == {"base.json", "retrained_user.json", "manifest.json"}

    @pytest.mark.parametrize("writer", ["save_model", "write_report", "lengths"])
    def test_interrupted_rewrite_keeps_the_old_file(self, writer, tiny, tmp_path, monkeypatch):
        if writer == "save_model":
            path = tmp_path / "model.json"
            old, new = tiny.ws.base_model(), tiny.ws.retrained(RoleFilter.BOTH)
            write = partial(save_model, path=path)
        elif writer == "lengths":
            # a copy of the tiny cache whose base lengths file lacks tables,
            # so the first count with the base model counts and rewrites it
            spec = tiny.spec._replace(output_dir=tmp_path / "out")
            shutil.copytree(tiny.spec.output_dir / "models", spec.output_dir / "models")
            path = spec.output_dir / "models" / "lengths" / "base.json"
            obj = json.loads(path.read_bytes())
            old = partial(path.write_bytes, json.dumps({**obj, "lengths": obj["lengths"][::2]},
                                                       ensure_ascii=False).encode("utf-8"))
            ws = Workspace(spec)
            new = partial(ws.token_count, "base", "user")

            def write(step):
                step()
        else:
            path = tmp_path / "report" / "report.json"
            old, new = tiny.exp1, tiny.exp3
            write = partial(write_report, output_dir=path.parent)
        write(old)
        old_bytes = path.read_bytes()
        real_write_bytes = Path.write_bytes

        def dies_midway(target, data):
            real_write_bytes(target, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", dies_midway)
        with pytest.raises(OSError):
            write(new)
        monkeypatch.undo()
        assert path.read_bytes() == old_bytes
        assert not list(path.parent.glob("*.tmp"))

    def test_a_write_inside_another_write_of_the_path(self, tmp_path, monkeypatch):
        # the inner write starts and finishes between the outer write's
        # temp file and its rename
        path = tmp_path / "file.json"
        real_replace = os.replace
        calls = []

        def replace_after_a_second_write(src, dst):
            calls.append(dst)
            if len(calls) == 1:
                assert convtok.errors.write_atomic(path, b"inner") == path
                assert path.read_bytes() == b"inner"
            real_replace(src, dst)

        monkeypatch.setattr(convtok.errors.os, "replace", replace_after_a_second_write)
        assert convtok.errors.write_atomic(path, b"outer") == path
        assert calls == [path, path]
        assert path.read_bytes() == b"outer"
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]

    @pytest.mark.parametrize("size", [0, 2 * convtok.errors._HASH_CHUNK_BYTES + 7],
                             ids=["empty", "over-two-chunks"])
    def test_a_file_digest_reads_no_more_than_a_chunk_at_a_time(self, size, tmp_path,
                                                                monkeypatch):
        path = tmp_path / "corpus.txt"
        data = (bytes(range(256)) * (size // 256 + 1))[:size]
        path.write_bytes(data)
        reads = []

        class RecordingFile:
            # a file object's read cannot be replaced, so the spy wraps the file
            def __init__(self, *args):
                self.file = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

            def read(self, size=-1):
                reads.append(size)
                return self.file.read(size)

        # a module global named open shadows the builtin inside errors.py
        monkeypatch.setattr(convtok.errors, "open", RecordingFile, raising=False)
        assert convtok.errors.sha256_file(path) == hashlib.sha256(data).hexdigest()
        assert reads and all(0 < n <= convtok.errors._HASH_CHUNK_BYTES for n in reads)


class TestWorkspaceTraining:
    """Every model is train_bpe on a scope's table under the run's config."""

    def test_base_is_trained_on_the_sampled_documents(self, tiny):
        config = TrainConfig(vocab_size=tiny.spec.vocab_size, mode=tiny.spec.mode,
                             min_pair_frequency=tiny.spec.min_pair_frequency)
        assert tiny.ws.base_model() == train_bpe(tiny.ws.builder.table("train:documents"), config)

    def test_each_role_filter_trains_its_own_model(self, tiny):
        merges = {f: tiny.ws.retrained(f).merges for f in ALL_FILTERS}
        assert len(set(merges.values())) == len(merges)

    def test_retrained_models_stop_at_an_early_stopping_base(self, tiny, tmp_path):
        # a few short documents support far fewer merges than vocab_size asks for
        docs = tmp_path / "docs.txt"
        docs.write_text("".join(f"a short document, number {i}\n" for i in range(20)),
                        encoding="utf-8")
        spec = tiny.spec._replace(documents_path=docs, output_dir=tmp_path / "out",
                                  vocab_size=5000)
        ws = Workspace(spec)
        run_experiment2(spec, ws)
        base = ws.base_model()
        assert len(base.vocab) < spec.vocab_size
        sizes = [len(ws.retrained(f).vocab) for f in ALL_FILTERS]
        assert max(sizes) == len(base.vocab)  # the chat tables support more merges

    def test_retrained_models_take_the_base_files_configuration(self, tiny, tmp_path):
        base_path = tmp_path / "base.json"
        table = Workspace(tiny.spec._replace(output_dir=tmp_path / "whitespace",
                                             scheme=PretokenScheme.WHITESPACE_SPLIT)
                          ).builder.table("train:documents")
        config = TrainConfig(vocab_size=1500, mode=TokenizerMode.CHAR_LEVEL_FALLBACK)
        save_model(train_bpe(table, config), base_path)
        # the spec's own mode, scheme and vocab_size are the defaults, and unused
        spec = tiny.spec._replace(output_dir=tmp_path / "out", base_model_path=base_path,
                                  vocab_size=ExperimentSpec._field_defaults["vocab_size"])
        ws = Workspace(spec)
        run_experiment2(spec, ws)
        base = load_model(base_path)
        assert ws.base_model() == base
        for role_filter in ALL_FILTERS:
            model = ws.retrained(role_filter)
            assert (model.mode, model.scheme) == (base.mode, base.scheme)
            assert len(model.vocab) <= len(base.vocab)


class TestModelCache:
    def test_cold_run_writes_the_manifest_once(self, tiny, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=tmp_path / "cold",
            split=tiny.spec.split,
            vocab_size=300,
            language_threshold=tiny.spec.language_threshold,
        )
        written = []
        real_write_atomic = convtok.experiments.write_atomic

        def counting(path, data):
            written.append(Path(path).name)
            return real_write_atomic(path, data)

        monkeypatch.setattr(convtok.experiments, "write_atomic", counting)
        run_experiment2(spec)
        assert written.count("manifest.json") == 1
        assert written.count("test.json") == 1
        names = {p.name for p in (tmp_path / "cold" / "models").iterdir()}
        assert names == {"manifest.json", "base.json", "retrained_user.json",
                         "retrained_assistant.json", "retrained_both.json", "test.json",
                         "lengths"}

    def test_unused_flags_keep_the_base_model_cache(self, tiny, tmp_path, monkeypatch):
        # with a base model file its vocab size, mode and scheme govern the
        # run, so the spec's own values move neither the hash nor the models
        base_path = tmp_path / "base.json"
        table = tiny.ws.builder.table("train:documents")
        save_model(train_bpe(table, TrainConfig(vocab_size=300)), base_path)
        spec = tiny.spec._replace(output_dir=tmp_path / "out", base_model_path=base_path)
        first = run_experiment2(spec._replace(vocab_size=8192))
        trained = []
        monkeypatch.setattr(convtok.trainer, "train_bpe",
                            lambda *args: trained.append(args) or train_bpe(*args))
        second = run_experiment2(spec._replace(vocab_size=4096,
                                               mode=TokenizerMode.CHAR_LEVEL_FALLBACK,
                                               scheme=PretokenScheme.WHITESPACE_SPLIT))
        assert second.provenance.config_hash == first.provenance.config_hash
        assert second.rows == first.rows
        assert trained == []

    def test_warm_experiments_parse_only_the_corpora_they_use(self, tiny, tmp_path, monkeypatch):
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        cold = {name: run(spec) for name, run in EXPERIMENTS.items()}  # a workspace each
        calls = []

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

        spy(convtok.corpus, "load_conversations")
        spy(convtok.corpus, "load_documents")
        spy(convtok.tokenizer, "load_model")
        spy(convtok.tokenizer, "pretokenize")
        spy(PieceTable, "of")
        spy(PieceTable, "__add__")
        ws = Workspace(spec)
        assert run_experiment1(spec, ws) == cold["exp1"]
        assert run_experiment3(spec, ws) == cold["exp3"]
        assert run_experiment2(spec, Workspace(spec)) == cold["exp2"]
        assert calls == []  # not even a model file is parsed, nor a piece table built

    def test_the_test_split_serves_whichever_experiment_ran_first(self, tiny, tmp_path,
                                                                   monkeypatch):
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        run_experiment3(spec)
        cold = run_experiment2(spec._replace(output_dir=tmp_path / "cold"))
        calls = []

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

        spy(convtok.corpus, "load_conversations")
        spy(convtok.corpus, "load_documents")
        spy(convtok.tokenizer, "load_model")
        spy(convtok.tokenizer, "pretokenize")
        # exp3 counted every test table with each model, chat tables too
        assert run_experiment2(spec) == cold
        assert calls == []

    @pytest.mark.parametrize("run", EXPERIMENTS.values(), ids=EXPERIMENTS.keys())
    def test_each_experiment_alone_writes_the_cache_files_of_the_chain(self, run, tiny, tmp_path):
        # every lengths file counts every test table that a report reads,
        # whichever experiment wrote it, so it is the same file as after
        # exp1, exp2 and exp3
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        run(spec)
        chain, alone = (s.output_dir / "models" for s in (tiny.spec, spec))
        files = {p.relative_to(alone): p.read_bytes() for p in alone.rglob("*.json")}
        assert "lengths/base.json" in {p.as_posix() for p in files}
        assert files == {name: (chain / name).read_bytes() for name in files}

    def test_an_empty_documents_table_counts_zero_tokens(self, tiny, tmp_path, monkeypatch):
        # one document goes to the train split, so the documents test table is empty
        docs = tmp_path / "documents.txt"
        first = tiny.spec.documents_path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        docs.write_text(first, encoding="utf-8")
        spec = tiny.spec._replace(documents_path=docs, output_dir=tmp_path / "out")
        cold = run_experiment2(spec)
        models = spec.output_dir / "models"
        cells = json.loads((models / "test.json").read_bytes())["cells"]
        assert cells[0] == ["documents", "", 0, 0]
        for path in (models / "lengths").iterdir():
            assert json.loads(path.read_bytes())["lengths"][0] == 0
        written = []
        real_write_atomic = convtok.experiments.write_atomic
        monkeypatch.setattr(convtok.experiments, "write_atomic",
                            lambda *args: written.append(args[0]) or real_write_atomic(*args))
        assert run_experiment2(spec) == cold
        assert written == []

    def test_a_lengths_file_of_piece_lengths_is_a_miss(self, tiny, tmp_path):
        # the earlier format: the base model's token length of every test piece
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        chain, models = (s.output_dir / "models" for s in (tiny.spec, spec))
        shutil.copytree(chain, models)
        pieces: dict[str, int] = {}
        for _, _, table in tiny.ws.builder.test_cells:
            token_count(tiny.ws.base_model(), table, pieces)
        path = models / "lengths" / "base.json"
        digest = hashlib.sha256((models / "base.json").read_bytes()).hexdigest()
        path.write_bytes(json.dumps({"model_sha256": digest, "lengths": sorted(pieces.items())},
                                    ensure_ascii=False).encode("utf-8"))
        assert [run(spec) for run in EXPERIMENTS.values()] == [tiny.exp1, tiny.exp2, tiny.exp3]
        assert path.read_bytes() == (chain / "lengths" / "base.json").read_bytes()

    def test_building_the_test_split_removes_the_old_table_files(self, tiny, tmp_path):
        # a cache of the per-scope table files that test.json replaced
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        chain, models = (s.output_dir / "models" for s in (tiny.spec, spec))
        shutil.copytree(chain, models)
        (models / "test.json").unlink()
        (models / "tables").mkdir()
        (models / "tables" / "x.json").write_bytes(b"{}")
        assert run_experiment1(spec) == tiny.exp1
        assert not (models / "tables").exists()
        assert (models / "test.json").read_bytes() == (chain / "test.json").read_bytes()

    def test_a_model_encodes_each_test_piece_once_per_cache(self, tiny, tmp_path, monkeypatch):
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        encoded = Counter()
        real_encode_piece = convtok.tokenizer.encode_piece

        def counting(model, piece):
            encoded[model, piece] += 1
            return real_encode_piece(model, piece)

        monkeypatch.setattr(convtok.tokenizer, "encode_piece", counting)
        cold = {name: run(spec) for name, run in EXPERIMENTS.items()}  # a workspace each
        assert encoded and max(encoded.values()) == 1
        monkeypatch.undo()

        # a warm run looks each count up: it neither counts nor encodes
        applied, counted, written = [], [], []
        real_apply = convtok.tokenizer._apply_merges
        monkeypatch.setattr(convtok.tokenizer, "_apply_merges",
                            lambda *args: applied.append(args) or real_apply(*args))
        real_token_count = convtok.metrics.token_count
        monkeypatch.setattr(convtok.metrics, "token_count",
                            lambda *args: counted.append(args) or real_token_count(*args))
        real_write_atomic = convtok.experiments.write_atomic
        monkeypatch.setattr(convtok.experiments, "write_atomic",
                            lambda *args: written.append(args[0]) or real_write_atomic(*args))
        ws = Workspace(spec)
        assert {name: run(spec, ws) for name, run in EXPERIMENTS.items()} == cold
        assert applied == []
        assert counted == []
        assert written == []

    def test_a_changed_corpus_clears_models_and_tables(self, tiny, tmp_path):
        convs = tmp_path / "conversations.jsonl"
        lines = tiny.spec.conversations_path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[-1])
        record["turns"][0]["content"] += " and one more sentence"
        lines[-1] = json.dumps(record) + "\n"
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        warm = run_experiment2(spec)  # fills the cache for the original corpus
        models = spec.output_dir / "models"
        assert (models / "test.json").exists()
        assert list(models.glob("lengths/*.json"))
        convs.write_text("".join(lines), encoding="utf-8")
        edited = spec._replace(conversations_path=convs)
        ws = Workspace(edited)
        assert ws.provenance.config_hash != warm.provenance.config_hash
        # the models and the test-split file are gone
        assert [p.name for p in models.glob("*.json")] == ["manifest.json"]
        assert list(models.glob("lengths/*.json")) == []
        cold = run_experiment2(edited._replace(output_dir=tmp_path / "cold"))
        assert run_experiment2(edited, ws) == cold


class TestSideBySideTraining:
    """A cold exp2 or exp3 trains and counts its missing retrained models at
    once, in forked children, with the files and errors of a serial run."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # a run may fork whatever the machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def _files(run, spec) -> dict[Path, bytes]:
        # every file that a run and its report write under the output dir
        write_report(run(spec), spec.output_dir / "report")
        return {p.relative_to(spec.output_dir): p.read_bytes()
                for p in spec.output_dir.rglob("*") if p.is_file()}

    @staticmethod
    def _error(spec, monkeypatch, serial: bool) -> tuple[type, str]:
        with monkeypatch.context() as m:
            if serial:
                m.delattr(os, "fork")
            with pytest.raises(ConvtokError) as caught:
                run_experiment2(spec)
        return type(caught.value), str(caught.value)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("run", [run_experiment2, run_experiment3], ids=["exp2", "exp3"])
    def test_a_cold_run_writes_the_bytes_of_a_serial_run(self, run, tiny, tmp_path, monkeypatch):
        forks, trained, parent = [], [], os.getpid()
        real_fork, real_pretokenize = os.fork, convtok.tokenizer.pretokenize
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(convtok.trainer, "train_bpe",
                            lambda *args: trained.append(args[0]) or train_bpe(*args))

        def pretokenize_marked(*args):
            # a table built in a child leaves a file that this process sees
            if os.getpid() != parent:
                (tmp_path / f"table-built-in-{os.getpid()}").touch()
            return real_pretokenize(*args)

        monkeypatch.setattr(convtok.tokenizer, "pretokenize", pretokenize_marked)

        def files(out: str, after_exp1: bool):
            spec = tiny.spec._replace(output_dir=tmp_path / out)
            if after_exp1:
                # a valid test-split file and a cached base model
                run_experiment1(spec)
            return self._files(run, spec)

        # this process trains the base and the first retrained model, no more
        first = [tiny.ws.builder.table("train:documents"), tiny.ws.builder.table("train:user")]
        forked = files("forked", after_exp1=False)
        self._assert_no_child_left()
        assert (len(forks), trained) == (2, first)
        forked_after_exp1 = files("forked-after-exp1", after_exp1=True)
        self._assert_no_child_left()
        assert (len(forks), trained) == (4, first + first)
        # the children count on the test tables that this process built
        assert list(tmp_path.glob("table-built-in-*")) == []
        monkeypatch.delattr(os, "fork")
        assert Path("models/lengths/retrained_both.json") in forked
        assert forked == files("serial", after_exp1=False)
        assert forked_after_exp1 == files("serial-after-exp1", after_exp1=True)

    def test_a_model_whose_child_failed_is_trained_here(self, tiny, tmp_path, monkeypatch):
        parent, trained = os.getpid(), []

        def train_here_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("training failed in a child")
            trained.append(args[0])
            return train_bpe(*args)

        monkeypatch.setattr(convtok.trainer, "train_bpe", train_here_only)
        forked = self._files(run_experiment2, tiny.spec._replace(output_dir=tmp_path / "forked"))
        self._assert_no_child_left()
        assert len(trained) == 4
        monkeypatch.delattr(os, "fork")
        assert forked == self._files(run_experiment2,
                                     tiny.spec._replace(output_dir=tmp_path / "serial"))

    def test_a_vocabulary_below_the_chat_alphabet_fails_as_a_serial_run(self, tiny, tmp_path,
                                                                         monkeypatch):
        # 256 fallback tokens and the 90 characters of the user turns fit in
        # 400 entries, as do the train documents' 120; the assistant turns'
        # 165 do not
        spec = tiny.spec._replace(mode=TokenizerMode.CHAR_LEVEL_FALLBACK, vocab_size=400)
        forked = self._error(spec._replace(output_dir=tmp_path / "forked"), monkeypatch,
                             serial=False)
        self._assert_no_child_left()
        assert forked == self._error(spec._replace(output_dir=tmp_path / "serial"), monkeypatch,
                                     serial=True)
        assert forked[0] is ConfigError
        assert "below the base alphabet size 421" in forked[1]

    def test_a_cut_base_model_fails_as_a_serial_run(self, tiny, tmp_path, monkeypatch):
        spec = tiny.spec._replace(output_dir=tmp_path / "out")
        run_experiment1(spec)
        path = spec.output_dir / "models" / "base.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2].decode("utf-8", "ignore").encode("utf-8"))
        # neither run writes a file before it fails, so both use one cache
        forked = self._error(spec, monkeypatch, serial=False)
        assert forked == self._error(spec, monkeypatch, serial=True)
        assert forked[0] is IntegrityError

    @pytest.mark.parametrize("limit", ["affinity", "cpu_count", "thread"])
    def test_one_cpu_or_a_second_thread_keeps_the_run_serial(self, limit, tiny, tmp_path,
                                                             monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if limit == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif limit == "cpu_count":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            thread.start()
        try:
            assert run_experiment2(tiny.spec._replace(output_dir=tmp_path / "out")) == tiny.exp2
        finally:
            stop.set()
            if limit == "thread":
                thread.join(timeout=10)
                assert not thread.is_alive()


class TestTestSplit:
    def test_language_tables_visit_each_held_out_record_a_bounded_number_of_times(
            self, tiny, tmp_path):
        # one language per conversation at threshold 0: as many tables as
        # held-out conversations
        convs = tmp_path / "conversations.jsonl"
        records = [json.loads(line) for line in
                   tiny.spec.conversations_path.read_text(encoding="utf-8").splitlines()]
        for i, record in enumerate(records):
            record["language"] = f"tag{i}"
        convs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        spec = tiny.spec._replace(conversations_path=convs, output_dir=tmp_path / "out",
                                  language_threshold=0)
        ws = Workspace(spec)
        visits = Counter()

        class Counting(list):
            def __iter__(self):
                for record in super().__iter__():
                    visits[record.id] += 1
                    yield record

        train, test = ws.builder._conv_split
        ws.builder._conv_split = (train, Counting(test))
        languages = ws.languages()
        assert len(languages) == len(test) > 20
        cells = ws.builder.test_cells
        for tag, _ in languages:
            assert sum(table.n_words for _, cell_tag, table in cells if cell_tag == tag) > 0
        assert [tag for _, tag, _ in cells].count("") == 3  # documents, and no other language
        assert visits.keys() == {r.id for r in test}
        assert max(visits.values()) <= 5

    def test_a_cold_exp1_pretokenizes_each_held_out_text_once(self, tiny, tmp_path,
                                                               monkeypatch):
        # at threshold 1 three languages are counted and two are not
        spec = tiny.spec._replace(output_dir=tmp_path / "out", language_threshold=1)
        calls = Counter()
        real_pretokenize = convtok.tokenizer.pretokenize

        def counting(text, scheme):
            calls[text] += 1
            return real_pretokenize(text, scheme)

        monkeypatch.setattr(convtok.tokenizer, "pretokenize", counting)
        ws = Workspace(spec)
        run_experiment1(spec, ws)
        builder = ws.builder
        assert len(ws.languages()) >= 2
        assert {r.language for r in builder.conv_test} > {tag for tag, _ in ws.languages()}
        # the base model trains on every train document, each pretokenized once too
        assert sum(len(doc.encode("utf-8")) for doc in builder.docs_train) < spec.doc_sample_bytes
        turns = [content for record in builder.conv_test for _, content in record.turns]
        assert calls == Counter(builder.docs_test) + Counter(turns) + Counter(builder.docs_train)

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_scope_sums_equal_a_direct_recount(self, threshold, tiny, tmp_path):
        # threshold 0 counts every held-out language; threshold 1 leaves two
        # of them to the cells of the other languages
        spec = tiny.spec._replace(output_dir=tmp_path / "out", language_threshold=threshold)
        cold = Workspace(spec)
        for run in EXPERIMENTS.values():
            run(spec, cold)
        test = cold.builder.conv_test
        texts = {"documents": cold.builder.docs_test,
                 **{f.value: extract_text(test, f) for f in ALL_FILTERS}}
        texts["all"] = texts.pop(RoleFilter.BOTH.value)
        tags = [tag for tag, _ in cold.languages()]
        for tag in tags:
            texts[f"language:{tag}"] = extract_text([r for r in test if r.language == tag],
                                                    RoleFilter.BOTH)
        others = {r.language for r in test} - set(tags)
        assert len(tags) >= 2 and (others == set() if threshold == 0 else len(others) >= 1)
        rows = {r.scope for report in (run(spec, cold) for run in EXPERIMENTS.values())
                for r in report.rows}
        assert rows == set(texts)  # every scope that a report reads
        warm = Workspace(spec)  # every count from the cache files
        models = {"base": cold.base_model(), "retrained_both": cold.retrained(RoleFilter.BOTH)}
        for scope, scope_texts in texts.items():
            assert warm.n_words(scope) == PieceTable.of(scope_texts, spec.scheme).n_words
            for name, model in models.items():
                assert warm.token_count(name, scope) == token_count(model, scope_texts), scope


class TestSpecValidation:
    @pytest.mark.parametrize("run", [run_experiment1, run_experiment2, run_experiment3])
    def test_workspace_of_another_spec_is_rejected(self, run, tiny):
        # rows would follow one spec while the provenance hashed the other
        other = tiny.spec._replace(language_threshold=tiny.spec.language_threshold + 1)
        with pytest.raises(ConfigError):
            run(other, tiny.ws)
        assert run(tiny.spec, tiny.ws).provenance == tiny.ws.provenance

    def test_bad_values_raise_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.5)
        with pytest.raises(ConfigError):
            SplitSpec(seed=-1)
        paths = dict(conversations_path=tmp_path / "c.jsonl",
                     documents_path=tmp_path / "d.txt", output_dir=tmp_path / "out")
        for bad in ({"doc_sample_bytes": 0}, {"doc_sample_bytes": -5}, {"language_threshold": -3}):
            with pytest.raises(ConfigError):
                ExperimentSpec(**paths, **bad)
            with pytest.raises(ConfigError):  # _replace checks as the constructor does
                ExperimentSpec(**paths)._replace(**bad)
        ExperimentSpec(**paths, doc_sample_bytes=1, language_threshold=0)

    @pytest.mark.parametrize("field", ["base_model_path", "conversations_path", "documents_path"])
    def test_an_input_that_is_not_a_regular_file_is_refused_first(self, field, tiny, tmp_path):
        # an input is read to hash it and again to parse it: only a regular
        # file gives both reads the same bytes
        spec = tiny.spec._replace(output_dir=tmp_path / "out", **{field: tmp_path})
        with pytest.raises(ConfigError, match="is not a regular file"):
            Workspace(spec)
        assert not (tmp_path / "out").exists()


class TestReportFiles:
    def test_exp1_csv(self, tiny, tmp_path):
        files = write_report(tiny.exp1, tmp_path)
        report_csv = next(p for p in files if p.name == "report.csv")
        with open(report_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scope", "tokens_base", "tokens_opt", "reduction_pct",
                           "n_words", "fertility_base", "fertility_opt"]
        assert len(rows) == 5
        assert rows[1][0] == "documents"
        assert rows[1][2] == ""  # no optimized model in experiment 1

    def test_exp2_csv_per_filter(self, tiny, tmp_path):
        files = write_report(tiny.exp2, tmp_path)
        names = {p.name for p in files}
        assert {"report.json", "report_user.csv", "report_assistant.csv",
                "report_both.csv"} <= names

    def test_report_json_roundtrip(self, tiny, tmp_path):
        write_report(tiny.exp2, tmp_path)
        obj = json.loads((tmp_path / "report.json").read_bytes())
        loaded = ExperimentReport(experiment=obj["experiment"],
                                  rows=tuple(ScopeRow(**row) for row in obj["rows"]),
                                  provenance=Provenance(**obj["provenance"]))
        assert loaded == tiny.exp2

    def test_plot_data_exp1(self, tiny, tmp_path):
        (path,) = emit_plot_data(tiny.exp1, tmp_path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + four scopes

    def test_plot_data_exp2(self, tiny, tmp_path):
        paths = emit_plot_data(tiny.exp2, tmp_path)
        by_name = {p.name: p for p in paths}
        with open(by_name["plot_reduction.csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(ALL_FILTERS)
        with open(by_name["plot_languages.csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        n_languages = len(language_counts(tiny.ws.builder.conv_test, tiny.spec.language_threshold))
        assert len(rows) == 1 + n_languages

    def test_plot_data_exp3(self, tiny, tmp_path):
        (path,) = emit_plot_data(tiny.exp3, tmp_path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(ALL_FILTERS)

    def test_plot_data_of_an_unknown_experiment_writes_nothing(self, tiny, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment id: 'exp9'"):
            emit_plot_data(tiny.exp3._replace(experiment="exp9"), tmp_path)
        assert not list(tmp_path.iterdir())

    def test_report_of_an_unknown_experiment_writes_nothing(self, tiny, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment id: 'exp9'"):
            write_report(tiny.exp3._replace(experiment="exp9"), tmp_path)
        assert not list(tmp_path.iterdir())


# sha256 of every file that write_report writes for the tiny run, in the order
# it returns the paths
_TINY_OUTPUT_SHA256 = {
    "exp1": [
        ("report.json", "adbe36feff0153f1c406d22d8754164d51555591f710f3e2811214a635b22722"),
        ("report.csv", "0300e45a36783acbfd300caca0d17beedde78c2e74aed6d9d16bb11b239dbb98"),
        ("plot_fertility.csv", "c5098366b25f97a219622b6562c779de6e322d1737f710b01eb5be7f59cbcf05"),
    ],
    "exp2": [
        ("report.json", "6fcc9a6135a017cc8bf29f32b100706ee6d412b39d08d5e5813dbcb21af45aeb"),
        ("report_user.csv", "dc12cffa06d2a86520ac0d851c99996008f34cd3e1e5ee9bc05e720fe7eb5ad8"),
        ("report_assistant.csv",
         "d63cd159e019db4ebd2bdbe3fee738c88c1ca45a7fdbf82ac33f50a64c9e0c54"),
        ("report_both.csv", "6fd0ab8eef9f58b4ab6c962ed2b4e50bff02cad0d100eb718ab973149830530b"),
        ("plot_reduction.csv", "aa21a604edde1bf98d6d5f248bbd20ec882e6c97ca06e96edc1e4d0fdc0b61b9"),
        ("plot_languages.csv", "c8a48240f6d28b01eecec678d6edbbf7cd375c354d173915d72731324a30b316"),
    ],
    "exp3": [
        ("report.json", "3c027e93a239751d5930269cdfaac037488490ac17c06d3d486277d963b07bb0"),
        ("report_user.csv", "fbc84f3480ce70c3b39e090b0aec95deec8d230860da94ea4f7157ab8cea44fd"),
        ("report_assistant.csv",
         "60ccf7858c780307aef0bfe8d8f457d0a16f0242f71e625f3b6d8a7b1ff25275"),
        ("report_both.csv", "c622566902c9de7387cdb623866924e51f13a39e04197464a55e40d1c5b0dc18"),
        ("plot_documents_change.csv",
         "0a7267ec620980dbaf87d7607a1910dcd3be4ded60558992f7eb08bdda6c2a73"),
    ],
}


class TestOutputBytes:
    @pytest.mark.parametrize("experiment", sorted(_TINY_OUTPUT_SHA256))
    def test_every_output_file_is_pinned(self, experiment, tiny, tmp_path):
        report = getattr(tiny, experiment)
        paths = write_report(report, tmp_path)
        digests = [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in paths]
        assert digests == _TINY_OUTPUT_SHA256[experiment]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(n for n, _ in digests)


class TestSampleDocuments:
    """The base model's table is that of the leading train documents up to
    the byte budget, and of at least one."""

    @staticmethod
    def _workspace(tiny, tmp_path, docs: list[str], budget: int) -> Workspace:
        path = tmp_path / "documents.txt"
        path.write_text("".join(f"{doc}\n" for doc in docs), encoding="utf-8")
        return Workspace(tiny.spec._replace(documents_path=path, output_dir=tmp_path / "out",
                                            doc_sample_bytes=budget))

    def test_respects_budget(self, tiny, tmp_path):
        docs = [f"doc {i} " + "x" * 50 for i in range(100)]
        ws = self._workspace(tiny, tmp_path, docs, 500)
        train = ws.builder.docs_train
        n = next(n for n in range(1, len(train)) if sum(len(d.encode()) for d in train[:n]) >= 500)
        assert sum(len(d.encode()) for d in train[: n - 1]) < 500
        assert ws.builder.table("train:documents") == PieceTable.of(train[:n], tiny.spec.scheme)

    def test_at_least_one_document(self, tiny, tmp_path):
        docs = ["a single long document " * 100]
        ws = self._workspace(tiny, tmp_path, docs, 10)
        assert ws.builder.docs_train == docs
        assert ws.builder.table("train:documents") == PieceTable.of(docs, tiny.spec.scheme)


class TestCharFallbackPipeline:
    def test_exp2_runs_in_fallback_mode(self, tiny, tmp_path):
        from convtok.tokenizer import TokenizerMode, decode, encode

        spec = ExperimentSpec(
            conversations_path=tiny.spec.conversations_path,
            documents_path=tiny.spec.documents_path,
            output_dir=tmp_path / "char_out",
            split=tiny.spec.split,
            vocab_size=1400,
            mode=TokenizerMode.CHAR_LEVEL_FALLBACK,
            language_threshold=tiny.spec.language_threshold,
        )
        ws = Workspace(spec)
        report = run_experiment2(spec, ws)
        all_rows = [r for r in report.rows if r.scope == "all"]
        assert len(all_rows) == 3
        # conversation text contains characters outside the document-trained
        # base alphabet; encoding still roundtrips via byte fallback
        base = ws.base_model()
        sample = extract_text(ws.builder.conv_test, RoleFilter.BOTH)[0]
        assert decode(base, encode(base, sample)) == sample


class TestBundledDirections:
    """Direction-of-effect observations on the full bundled samples."""

    def test_assistant_fertility_not_above_user(self, exp_runs):
        rows = {r.scope: r for r in exp_runs.exp1.rows}
        assert rows["assistant"].fertility_base <= rows["user"].fertility_base

    def test_both_filter_beats_user_filter(self, exp_runs):
        all_rows = {r.filter: r for r in exp_runs.exp2.rows if r.scope == "all"}
        assert all_rows["both"].reduction_pct >= all_rows["user"].reduction_pct
