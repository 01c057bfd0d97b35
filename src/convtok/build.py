"""What an experiment runs on a cache miss: parsing and splitting the
corpora, building piece tables, training models and counting their tokens.
``experiments.Workspace`` imports it on its first miss. It calls the corpus
parser, the tokenizer and the trainer through their modules.
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
from functools import cached_property

from . import corpus, metrics, tokenizer, trainer
from .config import RoleFilter, SplitSpec
from .errors import ConvtokError, EmptyCorpus
from .experiments import Workspace, _test_scopes


class Builder:
    """The parsed corpora, splits, piece tables and parsed models of one
    workspace, each made on first use. Every model is ``train_bpe`` on a
    scope's piece table under the workspace's config and scheme."""

    def __init__(self, workspace: Workspace, base: tokenizer.TokenizerModel | None):
        self.ws = workspace
        self._tables: dict[str, tokenizer.PieceTable] = {}
        # by model name: trained, parsed from its cache file or, for the
        # base, from the --base-model file
        self.models = {} if base is None else {"base": base}

    def load_corpora(self) -> None:
        # every bad input fails with its own error, in this order
        for name in ("conversations", "documents", "_conv_split", "_docs_split"):
            getattr(self, name)

    @cached_property
    def conversations(self) -> tuple[corpus.ConversationRecord, ...]:
        return corpus.load_conversations(self.ws.spec.conversations_path)

    @cached_property
    def documents(self) -> tuple[str, ...]:
        return corpus.load_documents(self.ws.spec.documents_path)

    @cached_property
    def _conv_split(self) -> tuple[list, list]:
        train, test = corpus.split(self.conversations, self.ws.spec.split)
        if {r.id for r in train} & {r.id for r in test}:
            raise ConvtokError("train/test split integrity violated")
        _require_train(train, len(self.conversations), "conversations", self.ws.spec.split)
        return train, test

    @cached_property
    def _docs_split(self) -> tuple[list[str], list[str]]:
        ids = [str(i) for i in range(len(self.documents))]
        train, test = corpus.partition(self.documents, ids, self.ws.spec.split)
        _require_train(train, len(ids), "documents", self.ws.spec.split)
        return train, test

    conv_train = property(lambda self: self._conv_split[0])
    conv_test = property(lambda self: self._conv_split[1])
    docs_train = property(lambda self: self._docs_split[0])
    docs_test = property(lambda self: self._docs_split[1])

    def model(self, name: str) -> tokenizer.TokenizerModel:
        """Model ``name`` (``base`` or ``retrained_<role>``): trained, or
        parsed and validated from its cache file, on first use."""
        self.ws._model_digest(name)
        model = self.models.get(name)
        if model is None:
            model = self.models[name] = tokenizer.load_model(self.ws._model_path(name))
        return model

    def save(self, name: str) -> None:
        """Write model ``name`` to its cache file, training it first unless
        it is held, as a ``--base-model`` file's model is."""
        model = self.models.get(name)
        if model is None:
            config = self.ws.config
            if name != "base":
                # a base that stopped early caps its retrained models at its own size
                config = config._replace(vocab_size=len(self.model("base").vocab))
            model = self.models[name] = trainer.train_bpe(self.table(_train_scope(name)), config)
        tokenizer.save_model(model, self.ws._model_path(name))

    def count(self, name: str, scopes) -> dict[str, int]:
        """Tokens of model ``name`` on the table of each of ``scopes``, in
        order, counted through one map of piece lengths."""
        model, lengths = self.model(name), {}
        return {s: metrics.token_count(model, self.table(s), lengths) for s in scopes}

    def test_split(self) -> dict:
        """The test-split file's lists: the held-out language counts and each
        test table's word count and piece occurrences. The per-scope table
        files that this file replaced go."""
        for stale in self.ws.models_dir.glob("tables/*.json"):
            stale.unlink()
        with suppress(OSError):  # no such directory, or one holding other files
            (self.ws.models_dir / "tables").rmdir()
        languages = corpus.language_counts(self.conv_test, self.ws.spec.language_threshold)
        # built first: a language table is otherwise built for the tags that
        # the workspace read from the test-split file
        self._language_tables(tag for tag, _ in languages)
        tables = {s: self.table(s) for s in _test_scopes(tag for tag, _ in languages)}
        return {"languages": languages,
                "n_words": [[s, t.n_words] for s, t in tables.items()],
                "occurrences": [[s, sum(t.pieces.values())] for s, t in tables.items()]}

    def table(self, scope: str) -> tokenizer.PieceTable:
        """Piece table of a scope in the run's scheme, built from the corpora
        on first use: ``train:documents``, ``train:<role>``, or on the test
        side ``documents``, ``<role>``, ``all`` (the sum of ``user`` and
        ``assistant``) and ``language:<tag>`` of each counted language,
        another tag being a KeyError."""
        table = self._tables.get(scope)
        if table is None:
            table = self._tables[scope] = self._build_table(scope)
        return table

    def _build_table(self, scope: str) -> tokenizer.PieceTable:
        if scope in ("all", "train:both"):
            prefix = scope.removesuffix("all").removesuffix("both")
            return self.table(f"{prefix}user") + self.table(f"{prefix}assistant")
        if scope.startswith("language:"):
            self._language_tables(tag for tag, _ in self.ws.languages())
            return self._tables[scope]
        if scope == "documents":
            texts = self.docs_test
        elif scope == "train:documents":
            # the leading train documents up to the byte budget, at least one
            texts, size = [], 0
            for doc in self.docs_train:
                if texts and size >= self.ws.spec.doc_sample_bytes:
                    break
                texts.append(doc)
                size += len(doc.encode("utf-8"))
        else:
            records = self.conv_train if scope.startswith("train:") else self.conv_test
            texts = corpus.extract_text(records, RoleFilter(scope.removeprefix("train:")))
        return tokenizer.PieceTable.of(texts, self.ws.scheme)

    def _language_tables(self, tags) -> None:
        # one pass groups the held-out records by counted language, so the
        # build is linear in the held-out records whatever the number of tags
        groups = {tag: [] for tag in tags}
        for record in self.conv_test:
            groups.get(record.language, []).append(record)
        for tag, records in groups.items():
            texts = corpus.extract_text(records, RoleFilter.BOTH)
            self._tables[f"language:{tag}"] = tokenizer.PieceTable.of(texts, self.ws.scheme)

    def train_side_by_side(self, missing: list[str]) -> None:
        """Train and count the models ``missing`` from the cache at once when
        :func:`_may_fork`: this process takes the first, and a forked child
        runs the workspace's ``token_count``, which writes the model and
        lengths files atomically, for each other. What a failed child did not
        write is trained or counted here on first use, as in a serial run."""
        if not _may_fork():
            return
        # what every child reads or runs is loaded once, before the forks, so
        # no child parses a file or builds a table of its own
        ws = self.ws
        for scope in [*ws._test_counts[2], *map(_train_scope, missing)]:
            self.table(scope)
        self.model("base")
        children = []
        try:
            for name in missing[1:]:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        ws.token_count(name, "all")
                        code = 0
                    finally:
                        # the child runs none of the parent's exit handlers,
                        # buffer flushes or error reports
                        os._exit(code)
                children.append(pid)
            ws.token_count(missing[0], "all")
        finally:
            for pid in children:
                os.waitpid(pid, 0)


def _require_train(train: list, total: int, side: str, spec: SplitSpec) -> None:
    # a split with no train item on one side would train a model with no merges
    if not train:
        raise EmptyCorpus(f"no {side} in the train split: train_fraction "
                          f"{spec.train_fraction} of {total} {side} rounds to 0")


def _train_scope(name: str) -> str:
    """The table that model ``name`` (``base`` or ``retrained_<role>``) trains on."""
    return "train:documents" if name == "base" else f"train:{name.removeprefix('retrained_')}"


def _may_fork() -> bool:
    """Whether models may be trained in forked children: this process can
    fork, runs no other thread, whose locks a child would inherit held, and
    may run on at least two CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2
