"""Strict readers for the integers and hex strings of JSON documents.

A writer emits one spelling of each value: an integer as a JSON integer,
bytes as two lowercase hex digits each.  These readers accept that
spelling alone, so one value has one encoding in a file or a proof
header, and every other spelling is EncodingError.
"""

from __future__ import annotations

from typing import Any

from blsces.errors import EncodingError

_HEX_DIGITS = frozenset("0123456789abcdef")


def json_int(value: Any, what: str) -> int:
    """A JSON integer.  A float, string or boolean that ``int`` would
    coerce is refused."""
    if type(value) is not int:
        raise EncodingError(f"{what} must be a JSON integer, found {type(value).__name__}")
    return value


def hex_bytes(value: Any, what: str, size: int | None = None) -> bytes:
    """The bytes a string of lowercase hex digits spells, two per byte,
    and ``size`` bytes when that is given.  Uppercase digits, whitespace,
    a ``0x`` prefix, underscores and a wrong length are refused, where
    ``bytes.fromhex`` and ``int(..., 16)`` accept some of them."""
    if type(value) is not str:
        raise EncodingError(f"{what} must be a hex string, found {type(value).__name__}")
    if len(value) % 2 or (size is not None and len(value) != 2 * size):
        width = "an even number of" if size is None else f"{2 * size}"
        raise EncodingError(f"{what} must be {width} hex digits, found {len(value)} characters")
    if not _HEX_DIGITS.issuperset(value):
        raise EncodingError(f"{what} must be lowercase hex digits")
    return bytes.fromhex(value)
