"""The JSON form of every dataclass that crosses a file or the wire.

Experiment configs, protocol definition files, unit descriptions and run
reports are written by :func:`to_json` and read back by :func:`read`. Each
class's field names and reader are built once and cached by type, so
reading a 224-stage protocol or a unit's wire form pays no type-hint
lookups.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from collections.abc import Iterable
from enum import Enum
from pathlib import Path

from .latency import DISTRIBUTION_PARAMETERS, Distribution, LatencyModel


class ExperimentConfigError(Exception):
    """An experiment config or protocol definition is unusable as written."""


def load(path: str | Path) -> object:
    """The JSON value in the file at ``path``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ExperimentConfigError(f"{path}: not valid JSON: {exc}") from exc


def dump(value: object, path: str | Path) -> None:
    """Write ``to_json(value)`` to ``path``: indented, keys sorted."""
    Path(path).write_text(json.dumps(to_json(value), indent=2, sort_keys=True))


# Types whose values are JSON values as they are.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_json(value: object) -> object:
    """``value`` as JSON values: dataclass (slotted or not) -> dict of its
    fields, tuple or list -> list, Enum -> its value, dict keys -> ``str``."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [item if type(item) in _PLAIN else to_json(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_json(item) for key, item in value.items()}
    data = {}
    # A dataclass, slotted or not: its fields, in field order.
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        data[field.name] = item if type(item) in _PLAIN else to_json(item)
    return data


def read(cls: type, data: object, where: str, exclude: Iterable[str] = ()):
    """An instance of the dataclass ``cls`` from the JSON object ``data``.

    Every key must name a field not in ``exclude``, every field without a
    default must be present, and each value must fit its field's type hint.
    A bool is never a number, and a latency-typed field takes a number (a
    constant) or a ``{"distribution": ...}`` object that sets only the
    parameters its distribution reads. Anything else raises
    :class:`ExperimentConfigError` naming ``where``.
    """
    return _fields_reader(cls, frozenset(exclude))(data, where)


def _fail(where: str, expected: str, value: object) -> typing.NoReturn:
    raise ExperimentConfigError(f"{where} must be {expected}, got {value!r}")


@functools.cache
def _fields_reader(cls: type, exclude: frozenset[str]):
    hints = typing.get_type_hints(cls)
    fields = [field for field in dataclasses.fields(cls) if field.name not in exclude]
    readers = {field.name: _reader(hints[field.name]) for field in fields}
    # A value of exactly its field's plain type is taken without a call.
    plain = {name: hints[name] for name in readers if hints[name] in _PLAIN}
    required = [
        field.name
        for field in fields
        if field.default is field.default_factory is dataclasses.MISSING
    ]

    def read_fields(data: object, where: str):
        if not isinstance(data, dict):
            _fail(where, "a JSON object", data)
        values = {}
        for key, value in data.items():
            if key not in readers:
                raise ExperimentConfigError(
                    f"unknown key {key!r} in {where}; expected one of "
                    f"{', '.join(sorted(readers))}"
                )
            if type(value) is not plain.get(key):
                value = readers[key](value, f"{where}.{key}")
            values[key] = value
        for name in required:
            if name not in values:
                raise ExperimentConfigError(f"{where}: missing required field {name!r}")
        return cls(**values)

    return read_fields


def _read_latency(value: object, where: str) -> LatencyModel:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = {"value": value}
    if not isinstance(value, dict):
        _fail(where, "a number or a latency object", value)
    kind = _reader(Distribution)(
        value.get("distribution", "CONSTANT"), f"{where}.distribution"
    )
    # A latency object may set only ``distribution`` and the fields it reads.
    unread = {name for names in DISTRIBUTION_PARAMETERS.values() for name in names}
    model = read(LatencyModel, value, where, unread - set(DISTRIBUTION_PARAMETERS[kind]))
    try:
        model.validate()
    except ValueError as exc:
        raise ExperimentConfigError(f"{where}: {exc}") from None
    return model


@functools.cache
def _reader(hint: object):
    """``(value, where) -> value`` read as the type ``hint`` names."""
    if hint is LatencyModel:
        return _read_latency
    if dataclasses.is_dataclass(hint):
        return _fields_reader(hint, frozenset())
    expected = getattr(hint, "__name__", str(hint))
    origin = typing.get_origin(hint)

    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {member.value: member for member in hint}

        def read_enum(value, where):
            if isinstance(value, str) and value in members:
                return members[value]
            _fail(where, "one of " + ", ".join(members), value)

        return read_enum

    if origin in (typing.Union, types.UnionType):
        options = [_reader(option) for option in typing.get_args(hint)]

        def read_union(value, where):
            for option in options:
                try:
                    return option(value, where)
                except ExperimentConfigError:
                    pass
            _fail(where, expected, value)

        return read_union

    if origin is tuple:
        item_hint = typing.get_args(hint)[0]
        item, plain = _reader(item_hint), item_hint if item_hint in _PLAIN else None

        def read_tuple(value, where):
            if not isinstance(value, list):
                _fail(where, expected, value)
            return tuple(
                [v if type(v) is plain else item(v, f"{where}[{i}]") for i, v in enumerate(value)]
            )

        return read_tuple

    accepted = (int, float) if hint is float else hint

    def read_scalar(value, where):
        # A bool is an int to isinstance, but never a number here.
        if isinstance(value, accepted) and (hint is bool or not isinstance(value, bool)):
            try:
                return float(value) if hint is float else value
            except OverflowError:  # an integer too large for a float
                pass
        _fail(where, expected, value)

    return read_scalar
