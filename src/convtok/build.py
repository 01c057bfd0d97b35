"""What an experiment runs on a cache miss: corpora, splits, piece tables,
training, counting, and jobs run side by side in forked children. It names
no model and no cache file: ``experiments.Workspace`` asks, and writes every
file. It calls the corpus parser, tokenizer and trainer through their modules.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property

from . import corpus, metrics, tokenizer, trainer
from .config import PretokenScheme, RoleFilter, SplitSpec, TrainConfig
from .errors import ConvtokError, EmptyCorpus


class Builder:
    """The parsed corpora, splits and piece tables of one experiment spec
    in one pretokenization scheme, each made on first use."""

    def __init__(self, spec, scheme: PretokenScheme):
        self.spec = spec
        self.scheme = scheme
        self._tables: dict[str, tokenizer.PieceTable] = {}

    def load_corpora(self) -> None:
        # every bad input fails with its own error, in this order
        for name in ("conversations", "documents", "_conv_split", "_docs_split"):
            getattr(self, name)

    @cached_property
    def conversations(self) -> tuple[corpus.ConversationRecord, ...]:
        return corpus.load_conversations(self.spec.conversations_path)

    @cached_property
    def documents(self) -> tuple[str, ...]:
        return corpus.load_documents(self.spec.documents_path)

    @cached_property
    def _conv_split(self) -> tuple[list, list]:
        train, test = corpus.split(self.conversations, self.spec.split)
        if {r.id for r in train} & {r.id for r in test}:
            raise ConvtokError("train/test split integrity violated")
        _require_train(train, len(self.conversations), "conversations", self.spec.split)
        return train, test

    @cached_property
    def _docs_split(self) -> tuple[list[str], list[str]]:
        ids = [str(i) for i in range(len(self.documents))]
        train, test = corpus.partition(self.documents, ids, self.spec.split)
        _require_train(train, len(ids), "documents", self.spec.split)
        return train, test

    conv_train = property(lambda self: self._conv_split[0])
    conv_test = property(lambda self: self._conv_split[1])
    docs_train = property(lambda self: self._docs_split[0])
    docs_test = property(lambda self: self._docs_split[1])

    @cached_property
    def languages(self) -> list[tuple[str, int]]:
        """``language_counts`` of the held-out conversations at the spec's
        threshold, taken after the split's integrity check."""
        return corpus.language_counts(self.conv_test, self.spec.language_threshold)

    def train(self, scope: str, config: TrainConfig) -> tokenizer.TokenizerModel:
        """``train_bpe`` on the table of ``scope`` under ``config``."""
        return trainer.train_bpe(self.table(scope), config)

    def count(self, model: tokenizer.TokenizerModel, tables) -> list[int]:
        """Tokens of ``model`` on each of ``tables``, in order, counted
        through one map of piece lengths."""
        lengths: dict[str, int] = {}
        return [metrics.token_count(model, table, lengths) for table in tables]

    @cached_property
    def test_cells(self) -> list[tuple[str, str, tokenizer.PieceTable]]:
        """The held-out split as disjoint ``(role, tag, table)`` cells, each
        text pretokenized once: ``("documents", "")``, then per role one per
        counted language in :attr:`languages` order and ``(role, "")`` for the rest."""
        tags = dict.fromkeys(tag for tag, _ in self.languages)  # ordered, and a set
        texts = {(role, tag): [] for role in ("user", "assistant") for tag in [*tags, ""]}
        for record in self.conv_test:
            tag = record.language if record.language in tags else ""
            for role, content in record.turns:
                texts[role, tag].append(content)
        cells = {("documents", ""): self.docs_test, **texts}
        return [(role, tag, tokenizer.PieceTable.of(group, self.scheme))
                for (role, tag), group in cells.items()]

    def table(self, scope: str) -> tokenizer.PieceTable:
        """Piece table of a train scope in the run's scheme, built from the
        corpora on first use: ``train:documents``, or ``train:<role>``, with
        ``train:both`` the sum of ``train:user`` and ``train:assistant``."""
        if scope not in self._tables:
            self._tables[scope] = self._build_table(scope)
        return self._tables[scope]

    def _build_table(self, scope: str) -> tokenizer.PieceTable:
        if scope == "train:both":
            return self.table("train:user") + self.table("train:assistant")
        if scope == "train:documents":
            # the leading train documents up to the byte budget, at least one
            texts, size = [], 0
            for doc in self.docs_train:
                if texts and size >= self.spec.doc_sample_bytes:
                    break
                texts.append(doc)
                size += len(doc.encode("utf-8"))
        else:
            texts = corpus.extract_text(self.conv_train, RoleFilter(scope.removeprefix("train:")))
        return tokenizer.PieceTable.of(texts, self.scheme)


def _require_train(train: list, total: int, side: str, spec: SplitSpec) -> None:
    # a split with no train item on one side would train a model with no merges
    if not train:
        raise EmptyCorpus(f"no {side} in the train split: train_fraction "
                          f"{spec.train_fraction} of {total} {side} rounds to 0")


def may_fork() -> bool:
    """Whether jobs may run in forked children: this process can fork, runs
    no other thread, whose locks a child would inherit held, and may run on
    at least two CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2


def side_by_side(jobs) -> None:
    """Run each of ``jobs`` but the first in a forked child and the first in
    this process, then wait for every child. A child's error ends only the
    child, so what a failed job did not finish is left to the caller."""
    children = []
    try:
        for job in jobs[1:]:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    job()
                    code = 0
                finally:
                    # the child runs none of the parent's exit handlers,
                    # buffer flushes or error reports
                    os._exit(code)
            children.append(pid)
        jobs[0]()
    finally:
        for pid in children:
            os.waitpid(pid, 0)
