"""Exception types shared across the package."""

import dataclasses


class MMFuseError(Exception):
    """Base class for all package errors."""


class DimensionError(MMFuseError):
    """Array shapes are incompatible with the requested operation."""


class NumericError(MMFuseError):
    """A computation produced or received non-finite values."""


class ContractError(MMFuseError):
    """An API was called in a way its contract forbids."""


class ConfigError(MMFuseError):
    """A configuration value is invalid or inconsistent."""


class DataError(MMFuseError):
    """Input data is malformed or out of range."""


class SchemaError(DataError):
    """A dataset does not match its declared metadata schema."""


class FormatError(DataError):
    """A file could not be parsed.

    Carries ``offset``, the byte position at which parsing failed.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class DegenerateSampleError(MMFuseError):
    """A statistical test received a sample it cannot be computed on."""


def check_known_keys(cls, d, what):
    """Raise ``ConfigError`` naming the keys of ``d`` that are no field of ``cls``."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
