"""Exception types shared across the package, and the ``Config`` base.

Every config section (model, train, dataset, synthetic spec, the experiment
itself) is a frozen dataclass that subclasses ``Config``: it is parsed from
JSON by the one ``Config.from_dict`` and validated whenever it is built.
"""

import dataclasses
import typing


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


class Config:
    """Base of every config dataclass: one parser, validated when built.

    ``from_dict`` checks a JSON object against the dataclass fields, turns
    lists into tuples and parses nested ``Config`` sections. Values are
    checked, never converted: an int fits ``float``, a bool fits only
    ``bool``, a list fits ``tuple[X, ...]`` when its elements fit ``X``.
    Every construction, ``dataclasses.replace`` included, runs ``validate``.
    """

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ``ConfigError`` on an out-of-range or inconsistent value."""

    @classmethod
    def from_dict(cls, d, prefix=""):
        """Build from ``d``; ``prefix`` is the dotted path of a nested section."""
        if not isinstance(d, dict):
            raise ConfigError(f"config {prefix[:-1] or 'file'} must be an object, got {d!r}")
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(prefix + k for k in set(d) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        kwargs = {}
        for name, value in d.items():
            t = fields[name]
            if not _fits(value, t):
                t = t.__name__ if isinstance(t, type) else t
                raise ConfigError(f"config key '{prefix}{name}' must be {t}, got {value!r}")
            sections = [a for a in typing.get_args(t) or (t,) if dataclasses.is_dataclass(a)]
            if sections and isinstance(value, dict):
                value = sections[0].from_dict(value, f"{prefix}{name}.")
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


def _fits(value, annotation):
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if args:  # a union such as ``int | None``
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool) or annotation is bool:
        return annotation is bool and isinstance(value, bool)
    if annotation is float:
        return isinstance(value, (int, float))
    if dataclasses.is_dataclass(annotation):
        return isinstance(value, dict)
    return isinstance(value, annotation)
