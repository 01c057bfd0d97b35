"""The value types a run is configured by, with their defaults. This module
imports no package module but ``errors``, so reading flags, specs or cached
results loads neither the corpus parser nor the tokenizer nor the trainer,
each of which imports these names from here."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, checked

N_BYTE_SYMBOLS = 256
DEFAULT_VOCAB_SIZE = 8192


class TokenizerMode(str, Enum):
    BYTE_LEVEL = "byte_level"
    CHAR_LEVEL_FALLBACK = "char_level_fallback"


class PretokenScheme(str, Enum):
    CATEGORY_SPLIT = "category_split"
    WHITESPACE_SPLIT = "whitespace_split"


DEFAULT_SCHEME = PretokenScheme.CATEGORY_SPLIT


def check_seed(seed: int) -> None:
    """A seed outside [0, 2**64) raises ConfigError: ``random.Random`` seeds
    an int by its absolute value, so -5 would draw what 5 draws."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 unsigned bits")


class RoleFilter(str, Enum):
    USER_ONLY = "user"
    ASSISTANT_ONLY = "assistant"
    BOTH = "both"


@checked
class SplitSpec(NamedTuple):
    """Train/test split parameters. Assignment is keyed on record ids, so a
    split is stable under re-ordering of the input file."""

    train_fraction: float = 0.8
    seed: int = 0

    def _check(self) -> SplitSpec:
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        check_seed(self.seed)
        return self


@checked
class TrainConfig(NamedTuple):
    vocab_size: int
    mode: TokenizerMode = TokenizerMode.BYTE_LEVEL
    min_pair_frequency: int = 2

    def _check(self) -> TrainConfig:
        if self.vocab_size < N_BYTE_SYMBOLS:
            raise ConfigError(
                f"vocab_size {self.vocab_size} is below the base alphabet size {N_BYTE_SYMBOLS}"
            )
        if self.min_pair_frequency < 1:
            raise ConfigError("min_pair_frequency must be at least 1")
        return self
