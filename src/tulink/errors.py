"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


class DataError(RuntimeError):
    """Unusable input data or missing pipeline artifacts."""


class TrainingError(RuntimeError):
    """Optimization failure, e.g. a non-finite loss or gradient."""


def cannot_read(path, exc: Exception) -> str:
    """What went wrong reading the file ``path``, for an error message: the
    system's reason for an OSError (a missing file, a directory), the
    exception otherwise (bytes that are not UTF-8)."""
    reason = (exc.strerror if isinstance(exc, OSError) and exc.strerror
              else f"{type(exc).__name__}: {exc}")
    return f"cannot read {path} ({reason})"


@contextmanager
def reading(path, stage: str):
    """Turn a read or parse failure inside the block into a DataError that
    names the artifact ``path`` and the pipeline stage that writes it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{cannot_read(path, exc)}; rerun the {stage!r} stage") from None
    except (StopIteration, ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
        detail = ("it ends early" if isinstance(exc, StopIteration)
                  else f"{type(exc).__name__}: {exc}")
        raise DataError(f"cannot parse {path} ({detail}); rerun the {stage!r} stage") from None
