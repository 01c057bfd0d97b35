"""Conversation-optimized tokenizer toolkit.

Retrains BPE-family tokenizers on chat corpora and quantifies token-count
savings against baseline-domain text.

Every public name is importable from here, but its module is imported only
when the name is first read (PEP 562), so a command that needs one module
does not pay for the others.
"""

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "config": ("PretokenScheme", "RoleFilter", "SplitSpec", "TokenizerMode", "TrainConfig"),
        "corpus": (
            "ConversationRecord", "extract_text", "load_conversations", "load_documents", "split",
        ),
        "errors": (
            "ConfigError", "ConvtokError", "EmptyCorpus", "EmptyText", "FormatVersionMismatch",
            "IdOutOfRange", "IntegrityError", "InvalidByteSequence", "InvalidEncoding",
            "MalformedRecord", "NoWords",
        ),
        "experiments": (
            "ExperimentReport", "ExperimentSpec", "Provenance", "ScopeRow", "Workspace",
            "emit_plot_data", "run_experiment1", "run_experiment2", "run_experiment3",
            "write_report",
        ),
        "metrics": ("FertilityResult", "ReductionResult", "fertility", "reduction", "token_count"),
        "samples": ("generate_corpora", "write_sample_corpora"),
        "tokenizer": (
            "PieceTable", "TokenizerModel", "count_words", "decode", "encode", "load_model",
            "pretokenize", "save_model",
        ),
        "trainer": ("train_bpe",),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
