"""The one JSON form of every value gapscan writes.

An int becomes a decimal string, so 64- and 128-bit values survive any JSON
parser.  An enum becomes its value, a dataclass an object with its fields
in declaration order, a list or tuple a list, and a dict an object with its
keys in ascending order (enum keys in definition order).  None stays null.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from enum import Enum
from typing import Any

_hints = functools.cache(typing.get_type_hints)


def _key_rank(item: tuple[Any, Any]) -> Any:
    key = item[0]
    return list(type(key)).index(key) if isinstance(key, Enum) else key


def to_json(value: Any) -> Any:
    """The JSON form of `value`, recursively."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, int):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {
            f.name: to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {
            to_json(k): to_json(v) for k, v in sorted(value.items(), key=_key_rank)
        }
    return value


def from_json(tp: Any, data: Any) -> Any:
    """Rebuild a value of type `tp` from its `to_json` form.

    `tp` is int, an Enum, `X | None`, `list[X]`, `dict[K, V]`, or a
    dataclass annotated with these.
    A dataclass field missing from `data` keeps its default.  Malformed data
    raises AttributeError, KeyError, OverflowError, TypeError or ValueError.
    """
    if dataclasses.is_dataclass(tp):
        hints = _hints(tp)
        return tp(**{
            f.name: from_json(hints[f.name], data[f.name])
            for f in dataclasses.fields(tp)
            if f.name in data
        })
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if data is None else from_json(args[0], data)
    if origin is list:
        return [from_json(args[0], v) for v in data]
    if origin is dict:
        return {from_json(args[0], k): from_json(args[1], v) for k, v in data.items()}
    return tp(data)  # int or an Enum
