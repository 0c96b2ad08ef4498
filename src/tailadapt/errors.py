"""Exception types shared across the package.

Every failure the library raises deliberately derives from TailAdaptError so
callers (and the CLI) can catch one base class. Some types also inherit the
matching builtin so generic handlers keep working. The check_* functions
below are the one place each kind of value check is written.
"""

import math
import sys


class TailAdaptError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TailAdaptError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(TailAdaptError, RuntimeError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class DegenerateEmbeddingError(TailAdaptError, ValueError):
    """A row fed to l2 normalization has norm below the supported floor."""


class InvalidTemperatureError(TailAdaptError, ValueError):
    """Temperature must be strictly positive."""


class ClassIndexError(TailAdaptError, IndexError):
    """A class id falls outside the embedding table."""


class FrozenParameterError(TailAdaptError, RuntimeError):
    """An optimizer update was attempted through a frozen view."""


class FreezeViolationError(TailAdaptError, RuntimeError):
    """Frozen parameters changed while they were supposed to stay fixed."""


class ConfigurationError(TailAdaptError, ValueError):
    """A config value, key, strategy, or placement is not supported."""


class InvalidRatioError(ConfigurationError):
    """Imbalance ratio must be >= 1."""


class InvalidPowerError(ConfigurationError):
    """Power-law exponent must be strictly positive."""


class DatasetFormatError(TailAdaptError, ValueError):
    """A dataset file is malformed; the message names the offending spot."""


class CheckpointFormatError(TailAdaptError, ValueError):
    """A checkpoint file is malformed; the message names the offending spot."""


class DivergenceError(TailAdaptError, RuntimeError):
    """Training loss became non-finite or unreasonably large."""


def check_at_least(name: str, value, least) -> None:
    """Raise ConfigurationError unless value >= least, which a NaN never is."""
    if not value >= least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Raise ConfigurationError unless value is one of choices."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {choices}, got {value!r}")


def check_allocatable(name: str, *shape: int) -> None:
    """Raise ConfigurationError unless numpy can index an array of this
    shape at 8 bytes a value; past sys.maxsize bytes it raises ValueError,
    not MemoryError, even when each size alone would fit."""
    if math.prod(shape) * 8 > sys.maxsize:
        raise ConfigurationError(
            f"{name} {' x '.join(map(str, shape))} is too large to allocate")
