"""Exception types shared across the package, and the ``Config`` base.

Every config section (model, train, dataset, synthetic spec, the experiment
itself, a dataset's metadata schema and its columns) is a frozen dataclass
that subclasses ``Config``: it is parsed from JSON by the one
``Config.from_dict`` and validated whenever it is built.
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
    """Base of every config dataclass: one parser, checked when built.

    ``from_dict`` checks a JSON object against the dataclass fields, turns
    lists into tuples and parses nested ``Config`` sections: an object, or
    each element of a list for a ``tuple[Section, ...]`` field. A field with
    no default is a required key. Values are checked, never converted: an
    int fits ``float``, a bool fits only ``bool``, a list fits
    ``tuple[X, ...]`` when its elements fit ``X``, and a section field holds
    an instance of its section class. Every construction,
    ``dataclasses.replace`` included, checks each field's type and then runs
    ``validate``.
    """

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        self.validate()

    def validate(self):
        """Raise ``ConfigError`` on an out-of-range or inconsistent value."""

    @classmethod
    def from_dict(cls, d, prefix=""):
        """Build from ``d``; ``prefix`` is the dotted path of a nested section."""
        if not isinstance(d, dict):
            raise ConfigError(f"config {prefix[:-1] or 'file'} must be an object, got {d!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(prefix + k for k in set(d) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = [prefix + k for k, f in fields.items()
                   if k not in d and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        kwargs = {}
        for name, value in d.items():
            t, key = fields[name].type, prefix + name
            sections = [a for a in typing.get_args(t) or (t,) if dataclasses.is_dataclass(a)]
            many = typing.get_origin(t) is tuple
            if sections and many and isinstance(value, list):
                value = [sections[0].from_dict(v, f"{key}.{i}.") for i, v in enumerate(value)]
            elif sections and not many and isinstance(value, dict):
                value = sections[0].from_dict(value, f"{key}.")
            else:
                _check_type(key, value, t)
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


def _check_type(key, value, annotation):
    if not _fits(value, annotation):
        t = annotation.__name__ if isinstance(annotation, type) else annotation
        raise ConfigError(f"config key '{key}' must be {t}, got {value!r}")


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
    return isinstance(value, annotation)
