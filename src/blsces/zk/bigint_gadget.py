"""Base-field arithmetic emulated inside the proof field.

The statement field (the BN254 scalar field) is smaller than the base
field being emulated, so values are carried as four 64-bit limbs and
every multiplication is certified by the integer identity

    a * b + k = q * p + r

checked limb-by-limb: the convolution of the limbs on both sides is
compared over pairs of 64-bit positions, with explicit offset carries
between pairs.  Position sums stay below 2^131 and carries below 2^68,
far under the proof-field modulus, so the field equations coincide with
the integer ones and no aliasing is possible.  q and r are supplied by
the prover and range-checked through bit decompositions (top limbs are
narrowed so q < 2^255 and r < 2^254, which the honest canonical values
always satisfy).  A remainder is therefore congruent to a * b + k mod
p but not necessarily reduced: any r below 2^254 with a matching q is
accepted.  Two remainders equal as integers are congruent mod p; the
honest prover's canonical remainders are the ones that match.

``square_root_gadget`` certifies that x^3 + b is a nonzero square with
a witnessed root y (y * y == x^3 + b, y * y^-1 == 1) in four emulated
multiplications; the shape depends only on the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from blsces.zk.r1cs import Builder

LIMB_BITS = 64
NUM_LIMBS = 4
Q_WIDTHS = (64, 64, 64, 63)
R_WIDTHS = (64, 64, 64, 62)
CARRY_BITS = 69  # carries live in [-2^68, 2^68); stored offset by 2^68
_CARRY_OFFSET = 1 << (CARRY_BITS - 1)


def limbs_of(value: int) -> tuple[int, ...]:
    mask = (1 << LIMB_BITS) - 1
    return tuple((value >> (LIMB_BITS * i)) & mask for i in range(NUM_LIMBS))


def limbs_value(limbs: tuple[int, ...]) -> int:
    return sum(v << (LIMB_BITS * i) for i, v in enumerate(limbs))


@dataclass(frozen=True)
class EmulatedValue:
    """Four limb variables representing one base-field integer."""

    limbs: tuple[int, ...]  # variable indices, little-endian limbs


def alloc_checked(bd: Builder, value: int | None, widths=R_WIDTHS) -> EmulatedValue:
    """Allocate limb variables bound to fresh bit decompositions."""
    limb_vals = limbs_of(value) if (bd.compute and value is not None) else (None,) * NUM_LIMBS
    out = []
    for i in range(NUM_LIMBS):
        bits = bd.bits_of(limb_vals[i], widths[i])
        limb = bd.alloc(limb_vals[i])
        bd.add_lin(((limb, -1),) + tuple((b, 1 << j) for j, b in enumerate(bits)))
        out.append(limb)
    return EmulatedValue(tuple(out))


def emul_mul(
    bd: Builder,
    a: EmulatedValue,
    b: EmulatedValue,
    modulus: int,
    add_const: int = 0,
    supplied_qr: tuple[int, int] | None = None,
) -> EmulatedValue:
    """Constrain r = (a*b + add_const) mod p and return r.

    ``supplied_qr`` lets the caller feed an externally generated
    witness; invalid pairs still synthesize boolean assignments and
    simply leave the system unsatisfied.
    """
    square = a.limbs == b.limbs
    qr = None
    if bd.compute:
        a_val = limbs_value(tuple(bd.values[v] for v in a.limbs))
        b_val = limbs_value(tuple(bd.values[v] for v in b.limbs))
        if supplied_qr is not None:
            qr = supplied_qr
        else:
            qr = divmod(a_val * b_val + add_const, modulus)
    q = alloc_checked(bd, qr[0] if qr else None, Q_WIDTHS)
    r = alloc_checked(bd, qr[1] if qr else None, R_WIDTHS)

    # Limb products of a*b; squares reuse the symmetric half.
    prods: dict[tuple[int, int], int] = {}
    for i in range(NUM_LIMBS):
        for j in range(NUM_LIMBS):
            key = (min(i, j), max(i, j)) if square else (i, j)
            if key not in prods:
                prods[key] = bd.add_mul(a.limbs[key[0]], b.limbs[key[1]])

    p_limbs = limbs_of(modulus)

    def position_lc(k: int):
        terms: dict[int, int] = {}
        if k == 0 and add_const:
            terms[0] = add_const
        for i in range(NUM_LIMBS):
            j = k - i
            if not 0 <= j < NUM_LIMBS:
                continue
            key = (min(i, j), max(i, j)) if square else (i, j)
            terms[prods[key]] = terms.get(prods[key], 0) + 1
            if p_limbs[j]:
                terms[q.limbs[i]] = terms.get(q.limbs[i], 0) - p_limbs[j]
        if k < NUM_LIMBS:
            terms[r.limbs[k]] = terms.get(r.limbs[k], 0) - 1
        return terms

    # Group the 7 positions in pairs and thread offset carries between
    # the groups: group_g + carry_{g-1} = carry_g * 2^128.
    group_width = 1 << (2 * LIMB_BITS)
    carry_lc_prev = None
    for g in range(4):
        terms = position_lc(2 * g)
        if 2 * g + 1 < 7:
            for var, coeff in position_lc(2 * g + 1).items():
                terms[var] = terms.get(var, 0) + (coeff << LIMB_BITS)
        lc = tuple((v, c) for v, c in terms.items() if c)
        if carry_lc_prev is not None:
            lc = lc + carry_lc_prev
        if g == 3:
            bd.add_lin(lc)
            break
        stored = None
        if bd.compute:
            # All participating values are small exact ints, so this is
            # integer arithmetic, not field arithmetic.
            group_val = sum(bd.values[v] * c for v, c in lc)
            carry_val = group_val // group_width
            # Off-schedule only for invalid supplied witnesses; mask so
            # the bits stay boolean and the linear constraint carries
            # the violation instead of the synthesizer crashing.
            stored = (carry_val + _CARRY_OFFSET) & ((1 << CARRY_BITS) - 1)
        carry_bits = bd.bits_of(stored, CARRY_BITS)
        carry_terms = tuple((b, 1 << j) for j, b in enumerate(carry_bits))
        # group + carry_in = carry_out * 2^128, with carries stored offset
        bd.add_lin(lc + tuple((v, -(c << (2 * LIMB_BITS))) for v, c in carry_terms) + ((0, _CARRY_OFFSET << (2 * LIMB_BITS)),))
        carry_lc_prev = carry_terms + ((0, -_CARRY_OFFSET),)
    return r


def square_root_gadget(bd: Builder, x: EmulatedValue, y: int | None, p: int, b: int) -> None:
    """Constrain x^3 + b to be a nonzero square mod p with root ``y``.

    Over the emulated field: rhs = x * x * x + b, y * y == rhs and
    y * w == 1 with w = y^-1, so y is nonzero.  y and w are range-checked
    limbs.  Some nonzero y with y^2 == x^3 + b exists exactly when x^3 + b
    is a nonzero square, so the accepted statement is Euler's criterion.
    A zero y gets w = 0 and leaves the system unsatisfied.
    """
    w = pow(y, p - 2, p) if (bd.compute and y is not None) else None
    rhs = emul_mul(bd, emul_mul(bd, x, x, p), x, p, add_const=b)
    y_var = alloc_checked(bd, y)
    y_sq = emul_mul(bd, y_var, y_var, p)
    one = emul_mul(bd, y_var, alloc_checked(bd, w), p)
    for i in range(NUM_LIMBS):
        bd.add_lin(((y_sq.limbs[i], 1), (rhs.limbs[i], -1)))
    # y * w must reduce to exactly one: limbs (1, 0, 0, 0)
    bd.add_lin(((one.limbs[0], 1), (0, -1)))
    for i in range(1, NUM_LIMBS):
        bd.add_lin(((one.limbs[i], 1),))
