"""Conversation-optimized tokenizer toolkit.

Retrains BPE-family tokenizers on chat corpora and quantifies token-count
savings against baseline-domain text.
"""

__version__ = "0.1.0"

from .corpus import (
    ConversationRecord,
    RoleFilter,
    SplitSpec,
    extract_text,
    load_conversations,
    load_documents,
    split,
)
from .errors import (
    ConfigError,
    ConvtokError,
    EmptyCorpus,
    EmptyText,
    FormatVersionMismatch,
    IdOutOfRange,
    IntegrityError,
    InvalidByteSequence,
    InvalidEncoding,
    MalformedRecord,
    NoWords,
)
from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    Provenance,
    ScopeRow,
    Workspace,
    emit_plot_data,
    load_report,
    run_experiment1,
    run_experiment2,
    run_experiment3,
    write_report,
)
from .metrics import (
    FertilityResult,
    ReductionResult,
    fertility,
    reduction,
    token_count,
)
from .samples import generate_corpora, write_sample_corpora
from .tokenizer import (
    PieceTable,
    PretokenScheme,
    TokenizerMode,
    TokenizerModel,
    count_words,
    decode,
    encode,
    load_model,
    pretokenize,
    save_model,
)
from .trainer import TrainConfig, train_bpe
