"""Tokens: the data items flowing over workflow channels.

Kepler propagates *tokens* between actor ports.  In this reproduction a
token is a thin, immutable wrapper around an arbitrary Python payload that
compares and hashes by value.  Events carry the raw payload instead
(:class:`~repro.core.events.CWEvent` unwraps a token it is given), so the
firing path builds none; the class stays because every checkpoint snapshot
names it.  :func:`field_of` is the by-name record access the group-by
clauses of windowed receivers use.
"""

from __future__ import annotations

from typing import Any, Mapping


class Token:
    """An immutable value container propagated between ports.

    ``Token`` compares and hashes by payload so tests and group-by logic can
    treat tokens as values; a mapping payload gives it named fields.
    Pickling goes through the module-level :func:`_revive_token`, which
    stored snapshots name by reference (see there).
    """

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("tokens are immutable")

    def __reduce__(self):
        """Fast pickle path (checkpoint snapshots serialize token floods).

        The default slot-based protocol both trips the immutability
        guard in :meth:`__setattr__` on restore and pays a per-object
        ``copyreg._slotnames`` lookup on dump; reducing to a plain
        rebuild call avoids both.  Works for subclasses: only the
        payload is state.
        """
        return (_revive_token, (type(self), self._value))

    @property
    def value(self) -> Any:
        return self._value

    def field(self, name: str) -> Any:
        """Return the named field of the payload (see :func:`field_of`)."""
        return field_of(self._value, name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Token):
            return self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Token", self._value)) if _hashable(self._value) else id(self)

    def __repr__(self) -> str:
        return f"Token({self._value!r})"


def _revive_token(cls: type, value: Any) -> "Token":
    """Rebuild a (possibly subclassed) token without calling ``__init__``.

    Keep this name and signature: every pickled token refers to
    ``repro.core.tokens._revive_token`` by reference, so checkpoint
    snapshots already on disk (the recorded fixtures under
    ``tests/data`` among them) load only while it exists.
    """
    token = cls.__new__(cls)
    object.__setattr__(token, "_value", value)
    return token


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def field_of(value: Any, name: str) -> Any:
    """Return the named field of the payload *value*.

    Works for mappings, dataclass-like objects, and named tuples; raises
    ``KeyError`` when the payload has no such field.
    """
    if isinstance(value, Mapping):
        if name in value:
            return value[name]
        raise KeyError(name)
    if hasattr(value, name):
        return getattr(value, name)
    raise KeyError(name)
