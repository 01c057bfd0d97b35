import time
from types import SimpleNamespace

import pytest

from convtok.corpus import SplitSpec
from convtok.experiments import (
    ExperimentSpec,
    Workspace,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    write_report,
)
from convtok.samples import write_sample_corpora

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, ok, detail in ACCEPTANCE_RESULTS:
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"{status}  {name}  ({detail})")


@pytest.fixture
def record_criterion():
    """Record an acceptance criterion outcome, then assert it."""

    def record(name: str, ok: bool, detail: str = ""):
        ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
        assert ok, f"acceptance criterion failed: {name} ({detail})"

    return record


@pytest.fixture(scope="session")
def bundle(tmp_path_factory):
    """Desk-scale sample corpora (~2 MB web text, ~2 MB conversations)."""
    out = tmp_path_factory.mktemp("bundle")
    docs_path, convs_path = write_sample_corpora(out)
    return SimpleNamespace(docs=docs_path, convs=convs_path)


def _bundle_spec(bundle, output_dir) -> ExperimentSpec:
    return ExperimentSpec(
        conversations_path=bundle.convs,
        documents_path=bundle.docs,
        output_dir=output_dir,
        split=SplitSpec(train_fraction=0.8, seed=0),
        vocab_size=8192,
        language_threshold=60,
    )


@pytest.fixture(scope="session")
def exp_runs(bundle, tmp_path_factory):
    """Full experiment pipeline on the bundled corpora.

    exp2 runs twice from scratch (independent output dirs) so determinism can
    be checked by file hashes; exp1/exp3 reuse the first run's models.
    """
    run1 = tmp_path_factory.mktemp("run1")
    run2 = tmp_path_factory.mktemp("run2")

    t0 = time.monotonic()
    ws1 = Workspace(_bundle_spec(bundle, run1))
    exp2 = run_experiment2(ws1.spec, ws1)
    exp2_seconds = time.monotonic() - t0
    write_report(exp2, run1 / "exp2")

    t0 = time.monotonic()
    ws2 = Workspace(_bundle_spec(bundle, run2))
    exp2_repeat = run_experiment2(ws2.spec, ws2)
    exp2_seconds = max(exp2_seconds, time.monotonic() - t0)
    write_report(exp2_repeat, run2 / "exp2")

    exp1 = run_experiment1(ws1.spec, ws1)
    write_report(exp1, run1 / "exp1")
    exp3 = run_experiment3(ws1.spec, ws1)
    write_report(exp3, run1 / "exp3")

    return SimpleNamespace(
        run1=run1,
        run2=run2,
        workspace=ws1,
        exp1=exp1,
        exp2=exp2,
        exp2_repeat=exp2_repeat,
        exp3=exp3,
        exp2_seconds=exp2_seconds,
    )
