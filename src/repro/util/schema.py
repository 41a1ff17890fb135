"""One checker for the declared fields of a dataclass.

A dataclass deriving from :class:`Checked` is checked on construction
(``__init__`` and ``dataclasses.replace`` alike).  Each field's value
must have its annotated type exactly: a bool is not an int, nor a str a
number, though an int may stand where a float is declared.  It must
then fit the :class:`Rule` declared beside the type::

    ops_per_core: Annotated[int, Rule(least=1)] = 6_000

``Optional[...]`` also admits None, which no rule constrains, and
``Tuple[T, ...]`` a tuple of ``T``.  A rule's bounds bound a number, or
the length of a str or tuple; its choices hold a value, or each item of
a tuple.  Every failure is a :class:`ValueError` in one format::

    ops_per_core must be an int >= 1, not '200'

:func:`load` builds a checked dataclass from a JSON object, so a key the
class does not declare is an error too.  A class's annotations are
resolved once, at its first check.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Collection, Dict, NamedTuple, Optional, Tuple


@dataclasses.dataclass(frozen=True, eq=False)
class Rule:
    """A field's range (``least <= x``, ``over < x``, ``x < below``) or
    choice set, declared in its ``Annotated`` type."""

    least: Optional[float] = None
    over: Optional[float] = None
    below: Optional[float] = None
    choices: Optional[Collection] = None

    def admits(self, value: Any) -> bool:
        size = len(value) if type(value) in (str, tuple) else value
        items = value if type(value) is tuple else (value,)
        return (
            (self.least is None or size >= self.least)
            and (self.over is None or size > self.over)
            and (self.below is None or size < self.below)
            and (self.choices is None or all(item in self.choices for item in items))
        )


class _Field(NamedTuple):
    name: str
    kind: type
    #: the exact types a value may have
    types: frozenset
    #: the exact types of a tuple's items (None: not a tuple)
    items: Optional[frozenset]
    rule: Optional[Rule]


def _types(kind: type) -> frozenset:
    return frozenset({int, float}) if kind is float else frozenset({kind})


def _field(name: str, hint: Any) -> _Field:
    optional = False
    rule = items = None
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        (hint,) = [arg for arg in args if arg is not type(None)]
        optional = True
    if typing.get_origin(hint) is typing.Annotated:
        hint, rule = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = _types(typing.get_args(hint)[0])
        hint = tuple
    types = _types(hint) | ({type(None)} if optional else set())
    return _Field(name, hint, types, items, rule)


#: each checked class's fields as ``(name, types, field, ruled)``, where
#: ``ruled`` says the field has a rule or item types to check past its type
_SCHEMAS: Dict[type, Tuple[Tuple[str, frozenset, _Field, bool], ...]] = {}


def _schema(cls: type) -> Tuple[Tuple[str, frozenset, _Field, bool], ...]:
    schema = _SCHEMAS.get(cls)
    if schema is None:
        hints = typing.get_type_hints(cls, include_extras=True)
        fields = [_field(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
        schema = _SCHEMAS[cls] = tuple(
            (f.name, f.types, f, f.rule is not None or f.items is not None) for f in fields
        )
    return schema


def _bound(value: Any) -> str:
    """``2**63`` for a large power of two, else the value itself."""
    size = abs(value)
    if type(value) is int and size > 2**32 and size & (size - 1) == 0:
        return f"{'-' if value < 0 else ''}2**{size.bit_length() - 1}"
    return repr(value)


def _expected(field: _Field) -> str:
    kind = field.kind
    text = {int: "an int", float: "a number"}.get(kind) or f"a {kind.__name__}"
    if field.items is not None:
        text += " of " + " or ".join(sorted(t.__name__ for t in field.items))
    rule = field.rule
    if rule is not None:
        bounds = " and ".join(
            f"{op} {_bound(value)}"
            for op, value in ((">=", rule.least), (">", rule.over), ("<", rule.below))
            if value is not None
        )
        if bounds:
            text += (" of length " if kind in (str, tuple) else " ") + bounds
        if rule.choices is not None:
            text += f" from {sorted(rule.choices)}"
    if type(None) in field.types:
        text += ", or None"
    return text


def _error(field: _Field, value: Any) -> ValueError:
    return ValueError(f"{field.name} must be {_expected(field)}, not {value!r}")


def _ruled(field: _Field, value: Any) -> bool:
    """Whether a value of one of ``field``'s types fits its rule and items."""
    if value is None:
        return True
    items = field.items
    if items is not None and any(type(item) not in items for item in value):
        return False
    return field.rule is None or field.rule.admits(value)


def check(obj: Any) -> None:
    """Raise :class:`ValueError` naming the first field of dataclass
    instance ``obj`` whose value does not fit its declaration."""
    for name, types, field, ruled in _schema(type(obj)):
        value = getattr(obj, name)
        if type(value) not in types or (ruled and not _ruled(field, value)):
            raise _error(field, value)


def check_field(cls: type, name: str, value: Any) -> None:
    """Raise :class:`ValueError` unless ``value`` fits field ``name`` of
    dataclass ``cls``, as :func:`check` would."""
    for declared, types, field, _ in _schema(cls):
        if declared == name:
            if type(value) not in types or not _ruled(field, value):
                raise _error(field, value)
            return
    raise KeyError(f"{cls.__name__} declares no field {name!r}")


class Checked:
    """Base of a dataclass that :func:`check` checks on construction."""

    __slots__ = ()

    #: dataclasses call it after ``__init__``
    __post_init__ = check


def load(cls: type, data: Any) -> Any:
    """``cls(**data)`` for the JSON object ``data``.

    A key ``cls`` does not declare, a required field ``data`` leaves
    out, or a value :func:`check` rejects is a :class:`ValueError`
    naming the field.
    """
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object, not {type(data).__name__}")
    fields = dataclasses.fields(cls)
    declared = sorted(f.name for f in fields)
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ValueError(f"undeclared fields {unknown}; declared: {declared}")
    missing = [
        f.name for f in fields
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing required fields {missing}")
    return cls(**data)


__all__ = ["Checked", "Rule", "check", "check_field", "load"]
