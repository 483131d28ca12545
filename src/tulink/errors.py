"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


class DataError(RuntimeError):
    """Unusable input data or missing pipeline artifacts."""


class TrainingError(RuntimeError):
    """Optimization failure, e.g. a non-finite loss or gradient."""


@contextmanager
def reading(path, stage: str):
    """Turn a parse failure inside the block into a DataError that names the
    artifact ``path`` and the pipeline stage that writes it."""
    try:
        yield
    except (StopIteration, ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
        detail = ("it ends early" if isinstance(exc, StopIteration)
                  else f"{type(exc).__name__}: {exc}")
        raise DataError(f"cannot parse {path} ({detail}); rerun the {stage!r} stage") from None
