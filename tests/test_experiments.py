import csv
import json
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import convtok
from convtok.corpus import RoleFilter, SplitSpec, extract_text
from convtok.errors import ConfigError
from convtok.experiments import (
    ExperimentSpec,
    Workspace,
    emit_plot_data,
    load_report,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    sample_documents,
    write_report,
)
from convtok.metrics import fertility, language_groups, reduction
from convtok.samples import write_sample_corpora
from convtok.tokenizer import load_model, model_to_bytes, save_model


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
        recomputed = fertility(base, tiny.ws.docs_test)
        row = tiny.exp1.rows[0]
        assert row.tokens_base == recomputed.n_tokens
        assert row.n_words == recomputed.n_words
        assert row.fertility_base == round(recomputed.fertility, 6)


class TestExperiment2:
    def test_all_row_per_filter(self, tiny):
        all_rows = [r for r in tiny.exp2.rows if r.scope == "all"]
        assert [r.filter for r in all_rows] == ["user", "assistant", "both"]

    def test_split_is_disjoint(self, tiny):
        train_ids = {r.id for r in tiny.ws.conv_train.records}
        test_ids = {r.id for r in tiny.ws.conv_test.records}
        assert not train_ids & test_ids
        assert len(train_ids) + len(test_ids) == len(tiny.ws.conversations)

    def test_language_rows_only_over_threshold(self, tiny):
        groups = dict(
            (language, len(subset))
            for language, subset in language_groups(tiny.ws.conv_test, tiny.spec.language_threshold)
        )
        language_rows = [r for r in tiny.exp2.rows if r.scope.startswith("language:")]
        assert language_rows
        for row in language_rows:
            tag = row.scope.removeprefix("language:")
            assert row.conversation_count == groups[tag]
            assert row.conversation_count > tiny.spec.language_threshold

    def test_rows_reproducible_from_metrics(self, tiny):
        base = tiny.ws.base_model()
        opt = tiny.ws.retrained(RoleFilter.BOTH)
        texts = extract_text(tiny.ws.conv_test, RoleFilter.BOTH)
        recomputed = reduction(base, opt, texts)
        row = next(r for r in tiny.exp2.rows if r.scope == "all" and r.filter == "both")
        assert row.tokens_base == recomputed.tokens_base
        assert row.tokens_opt == recomputed.tokens_opt
        assert row.reduction_pct == round(recomputed.reduction_pct, 1)

    def test_language_rows_are_reductions_over_language_groups(self, tiny):
        base = tiny.ws.base_model()
        groups = language_groups(tiny.ws.conv_test, tiny.spec.language_threshold)
        for role_filter in tiny.spec.role_filters:
            opt = tiny.ws.retrained(role_filter)
            rows = [r for r in tiny.exp2.rows
                    if r.filter == role_filter.value and r.scope.startswith("language:")]
            assert [r.scope for r in rows] == [f"language:{tag}" for tag, _ in groups]
            for row, (_, subset) in zip(rows, groups):
                recomputed = reduction(base, opt, extract_text(subset, RoleFilter.BOTH))
                assert row.conversation_count == len(subset)
                assert row.tokens_base == recomputed.tokens_base
                assert row.tokens_opt == recomputed.tokens_opt
                assert row.reduction_pct == round(recomputed.reduction_pct, 1)

    def test_warm_run_pretokenizes_each_test_text_once(self, tiny, monkeypatch):
        ws = Workspace(tiny.spec)  # every model is cached on disk by now
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
        test_texts = extract_text(ws.conv_test, RoleFilter.BOTH)
        kept = language_groups(ws.conv_test, tiny.spec.language_threshold)
        language_texts = sum(len(extract_text(subset, RoleFilter.BOTH)) for _, subset in kept)
        assert calls
        assert len(calls) <= len(test_texts) + language_texts
        test_ids = {id(t) for t in test_texts}
        assert all(id(t) in test_ids for t in calls)  # no train text is pretokenized


class TestExperiment3:
    def test_includes_every_filter(self, tiny):
        assert [r.filter for r in tiny.exp3.rows] == ["user", "assistant", "both"]
        assert all(r.scope == "documents" for r in tiny.exp3.rows)

    def test_base_against_itself_is_zero(self, tiny):
        base = tiny.ws.base_model()
        assert reduction(base, base, tiny.ws.docs_test).reduction_pct == 0.0


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
            "retrained_both.json", "manifest.json",
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

    @pytest.mark.parametrize("writer", ["save_model", "write_report"])
    def test_interrupted_rewrite_keeps_the_old_file(self, writer, tiny, tmp_path, monkeypatch):
        if writer == "save_model":
            path = tmp_path / "model.json"
            old, new = tiny.ws.base_model(), tiny.ws.retrained(RoleFilter.BOTH)
            write = partial(save_model, path=path)
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


class TestSpecValidation:
    def test_bad_values_raise_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.5)
        with pytest.raises(ConfigError):
            SplitSpec(seed=-1)
        with pytest.raises(ConfigError):
            ExperimentSpec(conversations_path=tmp_path / "c.jsonl",
                           documents_path=tmp_path / "d.txt",
                           output_dir=tmp_path / "out", role_filters=())


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
        loaded = load_report(tmp_path / "report.json")
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
        assert len(rows) == 1 + len(tiny.spec.role_filters)
        with open(by_name["plot_languages.csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        n_languages = len(language_groups(tiny.ws.conv_test, tiny.spec.language_threshold))
        assert len(rows) == 1 + n_languages

    def test_plot_data_exp3(self, tiny, tmp_path):
        (path,) = emit_plot_data(tiny.exp3, tmp_path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(tiny.spec.role_filters)


class TestSampleDocuments:
    def test_respects_budget(self):
        docs = [f"doc {i} " + "x" * 50 for i in range(100)]
        sampled = sample_documents(docs, 500)
        assert sampled == docs[: len(sampled)]
        assert sum(len(d.encode()) for d in sampled) >= 500
        assert sum(len(d.encode()) for d in sampled[:-1]) < 500

    def test_at_least_one_document(self):
        docs = ["a single long document " * 100]
        assert sample_documents(docs, 10) == docs


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
        sample = extract_text(ws.conv_test, RoleFilter.BOTH)[0]
        assert decode(base, encode(base, sample)) == sample


class TestBundledDirections:
    """Direction-of-effect observations on the full bundled samples."""

    def test_assistant_fertility_not_above_user(self, exp_runs):
        rows = {r.scope: r for r in exp_runs.exp1.rows}
        assert rows["assistant"].fertility_base <= rows["user"].fertility_base

    def test_both_filter_beats_user_filter(self, exp_runs):
        all_rows = {r.filter: r for r in exp_runs.exp2.rows if r.scope == "all"}
        assert all_rows["both"].reduction_pct >= all_rows["user"].reduction_pct
