"""The one wire codec: typed objects to JSON values and back.

Every JSON document the program writes or reads back (served job
payloads, journal and store records, traffic and chaos bundles, report
files) is encoded and decoded here, from the type declarations of the
records: dataclass fields with their defaults, and ``TypedDict`` keys.
One table per class, built on first use, drives both directions.

Decoding has one rule per JSON type, the same everywhere:

* ``int`` takes only a JSON integer (never ``true``, ``2.0`` or ``"2"``);
* ``float`` takes an integer or a float (never ``true``), via ``float()``;
* ``bool`` takes only ``true``/``false``; ``str`` only a string;
* ``Optional[X]``, ``Tuple[X, ...]``, ``List[X]``, ``Dict[str, X]``,
  dataclasses and ``TypedDict``\\ s recurse; a bare ``dict`` takes any
  object as is.

A wrong type, a missing required field or a key the type does not
declare raises :class:`~repro.errors.UserInputError` naming the field
path (``Job.fault_plan.stalls[0].probability``).  Range checks stay in
each class's ``__post_init__``.

Encoding mirrors it rule for rule: scalars are copied as they are,
tuples and lists become lists, dicts and ``TypedDict`` values become
dicts, ``None`` passes through an ``Optional``, and a dataclass becomes
an object of its init fields in declaration order.  A nested record
encodes through its own ``to_dict`` (as it decodes through its own
``from_dict``), so a class whose wire shape differs from its fields
overrides the pair once and keeps that shape wherever it is nested.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import operator
import typing
from collections.abc import Mapping
from typing import Callable, Tuple, Union

from repro.errors import UserInputError

_SCALARS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


@functools.lru_cache(maxsize=None)
def _table(cls) -> Tuple[dict, frozenset, dict]:
    """The field table of a record class, built on first use: field
    name -> decoder of its declared type, the names that have no
    default, and field name -> encoder, in declaration order."""
    hints = typing.get_type_hints(cls)
    if dataclasses.is_dataclass(cls):
        fields = [f for f in dataclasses.fields(cls) if f.init]
        names = [f.name for f in fields]
        required = frozenset(
            f.name for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
    elif hasattr(cls, "__required_keys__"):  # a TypedDict
        names, required = list(hints), frozenset(cls.__required_keys__)
    else:
        raise TypeError(f"{cls!r} is not a wire type")
    return (
        {name: _decoder(hints[name]) for name in names},
        required,
        {name: _encoder(hints[name]) for name in names},
    )


def decode_record(cls, value, what: str):
    """Build ``cls`` (a dataclass or ``TypedDict``) from a JSON object."""
    if not isinstance(value, Mapping):
        raise UserInputError(
            f"{what} must be an object, got {type(value).__name__}"
        )
    declared, required, _ = _table(cls)
    unknown = sorted(str(k) for k in value if k not in declared)
    if unknown:
        raise UserInputError(f"{what} has undeclared key(s) {unknown}")
    missing = sorted(required.difference(value))
    if missing:
        raise UserInputError(f"{what} is missing required key(s) {missing}")
    return cls(**{
        key: declared[key](item, f"{what}.{key}")
        for key, item in value.items()
    })


def decode(tp, value, what: str):
    """``value`` (parsed JSON) as the declared type ``tp``."""
    return _decoder(tp)(value, what)


@functools.lru_cache(maxsize=None)
def _decoder(tp):
    """The function ``(value, what) -> decoded`` for the declared type
    ``tp``, built once per type."""
    if tp in _SCALARS:
        kind, expected = _SCALARS[tp]
        exact = tp is bool

        def scalar(value, what):
            if not isinstance(value, kind) or (
                not exact and isinstance(value, bool)
            ):
                raise UserInputError(
                    f"{what} must be {expected}, got {value!r:.80}"
                )
            try:
                return tp(value)
            except OverflowError:
                raise UserInputError(
                    f"{what} is out of range: {value!r:.80}"
                ) from None

        return scalar
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]
        present = _decoder(inner)
        return lambda value, what: (
            None if value is None else present(value, what)
        )
    if origin in (list, tuple):
        item = _decoder(args[0])

        def array(value, what):
            if not isinstance(value, (list, tuple)):
                raise UserInputError(
                    f"{what} must be an array, got {type(value).__name__}"
                )
            items = [item(v, f"{what}[{i}]") for i, v in enumerate(value)]
            return tuple(items) if origin is tuple else items

        return array
    if tp is dict or origin is dict:
        key_of, item = (
            (_decoder(args[0]), _decoder(args[1])) if args else (None, None)
        )

        def mapping(value, what):
            if not isinstance(value, Mapping):
                raise UserInputError(
                    f"{what} must be an object, got {type(value).__name__}"
                )
            if key_of is None:
                return dict(value)
            return {
                key_of(k, f"{what} key"): item(v, f"{what}.{k}")
                for k, v in value.items()
            }

        return mapping
    # A record class decodes through its own from_dict, so a class whose
    # wire keys differ from its fields does so nested, too.
    from_dict = getattr(tp, "from_dict", None)
    if from_dict is not None:
        return from_dict
    return functools.partial(decode_record, tp)


def encode_record(record) -> dict:
    """The JSON object of a dataclass ``record``, field by field."""
    return {
        name: encode(getattr(record, name))
        for name, encode in _table(type(record))[2].items()
    }


def _identity(value):
    return value


@functools.lru_cache(maxsize=None)
def _encoder(tp) -> Callable:
    """The function ``value -> JSON value`` for the declared type
    ``tp``, built once per type."""
    if tp in _SCALARS:
        return _identity
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]
        present = _encoder(inner)
        if present is _identity:
            return _identity
        return lambda value: None if value is None else present(value)
    if origin in (list, tuple):
        item = _encoder(args[0])
        if item is _identity:
            return list
        return lambda value: [item(v) for v in value]
    if tp is dict or origin is dict:
        item = _encoder(args[1]) if args else _identity
        if item is _identity:
            return dict
        return lambda value: {k: item(v) for k, v in value.items()}
    if hasattr(tp, "__required_keys__"):  # a TypedDict
        keys = _table(tp)[2]
        return lambda value: {k: keys[k](v) for k, v in value.items()}
    # A record class encodes through its own to_dict, so a class whose
    # wire keys differ from its fields does so nested, too.
    if hasattr(tp, "to_dict"):
        return operator.methodcaller("to_dict")
    return encode_record


class Wire:
    """Mixin: ``record.to_dict()`` encodes a record and
    ``cls.from_dict(data)`` decodes one, both from the class's field
    declarations."""

    to_dict = encode_record

    @classmethod
    def from_dict(cls, data, what: str = ""):
        return decode_record(cls, data, what or cls.__name__)
