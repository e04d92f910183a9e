"""Application predicates proven alongside the hash statement.

A predicate names the claim whose value it constrains
(``claim_index``), receives the in-circuit byte LCs of that value in
``synthesize`` and emits constraints over them.  There are two: a range
check over decimal-integer values and equality to a constant string.
Each is described by a small serializable record (``describe``), from
which a verifier rebuilds the identical statement; a kind that
``predicate_from_descriptor`` does not know cannot be proven.
"""

from __future__ import annotations

from dataclasses import dataclass

from blsces.errors import StatementError
from blsces.zk.r1cs import LC, Builder


def _lc_sub_const(lc: LC, k: int) -> LC:
    return tuple(lc) + ((0, -k),)


def _range_bits(bd: Builder, lc: LC, width: int) -> None:
    """Constrain 0 <= <lc> < 2^width via a fresh bit decomposition."""
    bits = bd.bits_of(bd.lc_val(lc), width)
    bd.add_lin(tuple(lc) + tuple((b, -(1 << j)) for j, b in enumerate(bits)))


# The constraints hold modulo the scalar field R, so a value or bound
# near R could wrap round.  A value of at most 76 digits is below
# 10^76 < R and a bound is below 2^252, so value - low or high - value,
# when negative, wraps to at least R - 10^76 > 2^252, which no
# decomposition of the width (at most 252 bits) can hold: each check is
# exact over the integers.
MAX_DIGITS = 76
MAX_BOUND_BITS = 252


@dataclass(frozen=True)
class RangePredicate:
    """The claim value, read as an ASCII decimal integer of at most
    ``MAX_DIGITS`` digits, lies in [low, high], with high below
    2^``MAX_BOUND_BITS``.  Every byte is constrained to be a digit; the
    two-sided bound uses bit decompositions of value - low and
    high - value."""

    claim_index: int
    low: int
    high: int

    def __post_init__(self):
        if self.low > self.high or self.low < 0:
            raise StatementError("empty or negative range")
        if self.high >> MAX_BOUND_BITS:
            raise StatementError(f"range bound of 2^{MAX_BOUND_BITS} or more")

    def describe(self) -> dict:
        return {"kind": "range", "claim_index": self.claim_index, "low": self.low, "high": self.high}

    def synthesize(self, bd: Builder, value_bytes: list[LC]) -> None:
        if not 0 < len(value_bytes) <= MAX_DIGITS:
            raise StatementError(f"range predicate over a value of {len(value_bytes)} bytes, not 1 to {MAX_DIGITS}")
        digits = []
        for byte_lc in value_bytes:
            digit = _lc_sub_const(byte_lc, ord("0"))
            _range_bits(bd, digit, 4)
            # digit <= 9  <=>  digit + 6 < 16
            _range_bits(bd, tuple(digit) + ((0, 6),), 4)
            digits.append(digit)
        value_lc: LC = ()
        for d in digits:
            value_lc = tuple((v, c * 10) for v, c in value_lc)
            value_lc = value_lc + tuple(d)
        span = self.high - self.low
        width = max(span.bit_length(), 1)
        _range_bits(bd, _lc_sub_const(value_lc, self.low), width)
        _range_bits(bd, _lc_sub_const(tuple((v, -c) for v, c in value_lc), -self.high), width)


@dataclass(frozen=True)
class EqualsPredicate:
    """The claim value equals a public constant string."""

    claim_index: int
    expected: str

    def describe(self) -> dict:
        return {"kind": "equals", "claim_index": self.claim_index, "expected": self.expected}

    def synthesize(self, bd: Builder, value_bytes: list[LC]) -> None:
        expected = self.expected.encode("utf-8")
        if len(expected) != len(value_bytes):
            raise StatementError(
                f"value length {len(value_bytes)} cannot equal a {len(expected)}-byte constant"
            )
        for byte_lc, want in zip(value_bytes, expected):
            bd.add_lin(_lc_sub_const(byte_lc, want))


def predicate_from_descriptor(desc: dict | None) -> RangePredicate | EqualsPredicate | None:
    """The predicate a descriptor names; a descriptor from outside that
    names none raises StatementError."""
    if desc is None:
        return None
    try:
        kind = desc["kind"]
        if kind == "range":
            return RangePredicate(claim_index=int(desc["claim_index"]), low=int(desc["low"]), high=int(desc["high"]))
        if kind == "equals":
            return EqualsPredicate(claim_index=int(desc["claim_index"]), expected=str(desc["expected"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StatementError(f"malformed predicate descriptor: {exc!r}") from exc
    raise StatementError(f"unknown predicate kind {kind!r}")
