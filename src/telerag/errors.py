"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: data/validation problems exit 2,
provider and model backend failures exit 3.
"""

from __future__ import annotations

from pathlib import Path


class TeleragError(Exception):
    """Base class for all toolkit errors."""


class DataError(TeleragError):
    """Invalid or inconsistent input data."""


class DuplicateChunkError(DataError):
    """A chunk id was inserted twice into the same vector store."""


class DimensionMismatchError(DataError):
    """Vector dimensionality does not match the store."""


class FingerprintMismatchError(DataError):
    """Embedding provider does not match the one that built the store."""


class StoreFormatError(DataError):
    """Vector store file is corrupt, truncated, or not a store file."""


class DegenerateDataError(DataError):
    """Fitting data is rank-deficient; the message names the collinear regressors."""


class ProviderError(TeleragError):
    """Embedding provider failure (transport or protocol); safe to retry."""


class ModelError(TeleragError):
    """Language-model backend failure."""


class ModelUnavailableError(ModelError):
    """Every attempt at the remote endpoint failed with a retryable error."""


class ModelProtocolError(ModelError):
    """The model backend returned a malformed or unexpected response."""


class TranscriptMissError(ModelError):
    """A transcript backend has no recorded reply for the prompt."""


def read_utf8(path) -> str:
    """The text of the file at path; bytes that are not UTF-8 raise DataError
    naming the file and the offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
