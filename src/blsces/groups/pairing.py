"""Optimized ate pairing on BN254.

The Miller loop runs over the NAF of 6u+2 with lines in affine twist
coordinates.  All G2-side work (slopes and intercepts of every
tangent/chord line) depends only on Q, so it is precomputed once per Q
and cached; ``G2Precomp`` walks Q's multiples in Jacobian coordinates
and shares one inversion among all 88 lines.  Evaluating a pairing
against a fixed key or the group generator then costs two Fp
multiplications per line plus the sparse Fp12 updates.

A product of pairings runs the Miller loops of all its pairs in
lockstep: one Fp12 squaring per loop step serves every pair, so each
extra pair adds only its line evaluations, and the product shares a
single final exponentiation whose hard part squares in the cyclotomic
subgroup.  The BLS verifier sums the hashed points under each public key
before it gets here, so it hands over one pair per distinct key plus
the aggregate's pair: two Miller loops for a one-issuer presentation of
any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from blsces.errors import OffCurveError
from blsces.groups.params import BN_U, P, R
from blsces.groups.points import G1Point, G2Point, _j2_double, _j2_madd, check_g1, check_g2, g2_psi
from blsces.groups.tower import (
    FP12_ONE,
    fp2_mul,
    fp2_pow,
    fp2_sqr,
    fp2_sub,
    fp12_conj,
    fp12_cyclotomic_pow,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_mul_line,
    fp12_pow,
    fp12_sqr,
    wnaf,
    XI,
)

ATE_LOOP_COUNT = 6 * BN_U + 2

# The twist endomorphism points.g2_psi squared: psi^2(x, y) = (x*TW_FROB2_X, -y).
TW_FROB2_X = fp2_pow(XI, (P * P - 1) // 3)
assert TW_FROB2_X[1] == 0
assert fp2_pow(XI, (P * P - 1) // 2) == (P - 1, 0)


_ATE_NAF = wnaf(ATE_LOOP_COUNT, 2)
assert sum(d << i for i, d in enumerate(_ATE_NAF)) == ATE_LOOP_COUNT


@dataclass(frozen=True)
class GtElement:
    """Element of the order-r target group (degree-12 extension)."""

    value: tuple

    def __mul__(self, other: "GtElement") -> "GtElement":
        return GtElement(fp12_mul(self.value, other.value))

    def __pow__(self, e: int) -> "GtElement":
        e %= R
        return GtElement(fp12_pow(self.value, e))

    def is_identity(self) -> bool:
        return self.value == FP12_ONE


GT_IDENTITY = GtElement(FP12_ONE)


def _tangent_num(t):
    """Slope numerator 3X^2 of the tangent at the Jacobian T = (X, Y, Z);
    the slope is 3X^2 / (2YZ), and 2YZ is the Z that _j2_double gives 2T."""
    x0, x1 = t[0], t[1]
    return (3 * (x0 + x1) * (x0 - x1) % P, 6 * x0 * x1 % P)


def _chord_num(t, a):
    """Slope numerator 2(y*Z^3 - Y) of the chord from the Jacobian
    T = (X, Y, Z) to the affine A = (x, y); the slope is that over 2ZH with
    H = x*Z^2 - X, which is the Z that _j2_madd gives T + A.  H = 0 means
    A = T or -T, which the walk of a point of order r never meets."""
    x0, x1, y0, y1, z0, z1 = t
    zz = fp2_sqr((z0, z1))
    if fp2_mul((a[0], a[1]), zz) == (x0, x1):
        raise ArithmeticError("degenerate line in Miller loop")
    s = fp2_mul((a[2], a[3]), fp2_mul(zz, (z0, z1)))
    return ((s[0] - y0) * 2 % P, (s[1] - y1) * 2 % P)


def _batch_inv(zs):
    """Inverses of the Fp2 elements zs: 1/z = conj(z)/N(z) with the norms
    N(z) = z0^2 + z1^2 in Fp inverted together by Montgomery's trick.  A
    zero z means T reached the identity, where a line is vertical."""
    norms = [(z0 * z0 + z1 * z1) % P for z0, z1 in zs]
    prefix = []
    acc = 1
    for n in norms:
        prefix.append(acc)
        acc = acc * n % P
    if acc == 0:
        raise ArithmeticError("degenerate vertical line in Miller loop")
    inv = pow(acc, -1, P)
    out = [None] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        ni = inv * prefix[i] % P
        inv = inv * norms[i] % P
        z0, z1 = zs[i]
        out[i] = (z0 * ni % P, -z1 * ni % P)
    return out


class G2Precomp:
    """Per-Q line data for the Miller loop: one (slope, intercept) pair per
    doubling step, optionally one per NAF addition, and the two Frobenius
    addition lines at the end.

    T walks the loop in Jacobian coordinates (points._j2_double and
    _j2_madd), and each line keeps its slope's numerator over the Z of the
    point its step makes.  Every Z of the walk is then inverted at once
    (Montgomery's trick), so a key costs one inversion.  A line's slope
    lam is its numerator times that inverse, and its intercept is
    c = lam*x - y at the affine point it passes through: T before a
    doubling, from the inverse of T's Z, and the added point of a chord.
    """

    __slots__ = ("steps", "tail")

    def __init__(self, q: G2Point):
        if q.infinity:
            raise OffCurveError("cannot precompute lines for the identity")
        (x0, x1), (y0, y1) = q.x, q.y
        plus = (x0, x1, y0, y1)
        minus = (x0, x1, -y0 % P, -y1 % P)
        q1 = g2_psi(q)
        q2neg = (x0 * TW_FROB2_X[0] % P, x1 * TW_FROB2_X[0] % P, y0, y1)
        t = (x0, x1, y0, y1, 1, 0)
        walk = [t]  # T before each line, and after the last
        lines = []  # (slope numerator, affine point the line passes through)
        for d in reversed(_ATE_NAF[:-1]):
            lines.append((_tangent_num(t), None))
            t = _j2_double(t)
            walk.append(t)
            if d:
                a = plus if d == 1 else minus
                lines.append((_chord_num(t, a), a))
                t = _j2_madd(t, a)
                walk.append(t)
        for a in ((*q1.x, *q1.y), q2neg):
            lines.append((_chord_num(t, a), a))
            t = _j2_madd(t, a)
            walk.append(t)
        zinv = _batch_inv([(z0, z1) for _, _, _, _, z0, z1 in walk])
        out = []
        for k, (num, a) in enumerate(lines):
            lam = fp2_mul(num, zinv[k + 1])
            if a is None:
                x0, x1, y0, y1, _, _ = walk[k]
                zi = zinv[k]
                zi2 = fp2_sqr(zi)
                x, y = fp2_mul((x0, x1), zi2), fp2_mul((y0, y1), fp2_mul(zi2, zi))
            else:
                x, y = (a[0], a[1]), (a[2], a[3])
            out.append((lam, fp2_sub(fp2_mul(lam, x), y)))
        it = iter(out)
        self.steps = [(next(it), next(it) if d else None) for d in reversed(_ATE_NAF[:-1])]
        self.tail = (next(it), next(it))


@lru_cache(maxsize=32)
def precompute_g2(q: G2Point) -> G2Precomp:
    """Validate the G2 point q and precompute its Miller-loop lines.

    This is the one place a G2 key is checked (curve equation and
    subgroup, OffCurveError otherwise): ``g2_from_bytes`` parses a key
    through it and the pairing reads its lines from it.  The cache keys
    by point value and holds only points that passed, as a raise is not
    cached; a hit costs one lookup, and a key is checked again only after
    it has fallen out of the cache.
    """
    check_g2(q)
    return G2Precomp(q)


def _miller(pairs):
    """Product of the Miller loops of all (precomp, G1 point) pairs.

    The loops run in lockstep, so the accumulator is squared once per
    step for all pairs and each pair only adds its line evaluations.
    """
    evals = [(pre.steps, pre.tail, -pt.x % P, pt.y) for pre, pt in pairs]
    f = FP12_ONE
    for i in range(len(_ATE_NAF) - 1):
        if i:  # f is still 1 at the first step
            f = fp12_sqr(f)
        for steps, _, xp_neg, yp in evals:
            (lam, c), add = steps[i]
            f = fp12_mul_line(f, yp, lam, xp_neg, c)
            if add is not None:
                lam, c = add
                f = fp12_mul_line(f, yp, lam, xp_neg, c)
    for _, tail, xp_neg, yp in evals:
        for lam, c in tail:
            f = fp12_mul_line(f, yp, lam, xp_neg, c)
    return f


def _final_exponentiation(f):
    # Easy part: f^((p^6 - 1)(p^2 + 1)).
    t = fp12_mul(fp12_conj(f), fp12_inv(f))
    t = fp12_mul(fp12_frobenius(t, 2), t)
    # Hard part, Scott et al. addition chain; conjugation inverts in the
    # cyclotomic subgroup reached after the easy part.
    fp1 = fp12_frobenius(t, 1)
    fp2_ = fp12_frobenius(t, 2)
    fp3 = fp12_frobenius(t, 3)
    fu = fp12_cyclotomic_pow(t, BN_U)
    fu2 = fp12_cyclotomic_pow(fu, BN_U)
    fu3 = fp12_cyclotomic_pow(fu2, BN_U)
    y3 = fp12_conj(fp12_frobenius(fu, 1))
    fu2p = fp12_frobenius(fu2, 1)
    fu3p = fp12_frobenius(fu3, 1)
    y2 = fp12_frobenius(fu2, 2)
    y0 = fp12_mul(fp12_mul(fp1, fp2_), fp3)
    y1 = fp12_conj(t)
    y5 = fp12_conj(fu2)
    y4 = fp12_conj(fp12_mul(fu, fu2p))
    y6 = fp12_conj(fp12_mul(fu3, fu3p))
    t0 = fp12_mul(fp12_mul(fp12_cyclotomic_sqr(y6), y4), y5)
    t1 = fp12_mul(fp12_mul(y3, y5), t0)
    t0 = fp12_mul(t0, y2)
    t1 = fp12_mul(fp12_cyclotomic_sqr(t1), t0)
    t1 = fp12_cyclotomic_sqr(t1)
    t0 = fp12_mul(t1, y1)
    t1 = fp12_mul(t1, y0)
    t0 = fp12_cyclotomic_sqr(t0)
    return fp12_mul(t0, t1)


def pairing(pt: G1Point, q: G2Point) -> GtElement:
    """Reduced ate pairing e(P, Q); identity inputs map to the GT identity."""
    return pairing_product([(pt, q)])


def pairing_product(pairs) -> GtElement:
    """Compute prod e(P_i, Q_i) over (G1Point, G2Point) tuples with a
    single final exponentiation.

    Every G1 point is checked against the curve equation; every non-identity
    G2 point is validated on its first use, cached with its line data.
    """
    loops = []
    for pt, q in pairs:
        check_g1(pt)
        if q.infinity:
            continue
        pre = precompute_g2(q)
        if not pt.infinity:
            loops.append((pre, pt))
    if not loops:
        return GT_IDENTITY
    return GtElement(_final_exponentiation(_miller(loops)))


def pairing_product_is_one(pairs) -> bool:
    return pairing_product(pairs).is_identity()
