"""Optimized ate pairing on BN254.

The Miller loop runs over the NAF of 6u+2 with lines in affine twist
coordinates.  All G2-side work (every tangent and chord line, divided by
its constant term) depends only on Q, so it is precomputed once per Q
and cached; ``G2Precomp`` walks Q's multiples in Jacobian coordinates
and shares one inversion among all 88 lines.  Evaluating a pairing
against a fixed key or the group generator then costs four Fp
multiplications per line to place P in it, plus 27 for the Fp12 update.

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
from blsces.groups.points import (
    TWIST_B,
    G1Point,
    G2Point,
    _batch_inv,
    _j2_double,
    _j2_madd,
    check_g1,
    check_g2,
    g2_psi,
)
from blsces.groups.tower import (
    FP12_ONE,
    fp2_mul,
    fp2_pow,
    fp2_smul,
    fp12_conj,
    fp12_cyclotomic_pow,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_mul_monic_line,
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
# 2b' is not a cube in Fp2, so no tangent's constant term is 0 (_tangent).
assert fp2_pow(fp2_smul(TWIST_B, 2), (P * P - 1) // 3) != (1, 0)


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


def _tangent(t, z):
    """(D, 2YZ^3, 3X^2 Z^2) for the tangent at the Jacobian T = (X, Y, Z),
    given z = 2YZ, the Z that _j2_double gives 2T: the tangent's slope is
    3X^2/(2YZ) and its constant term D/(2YZ^3), with D = 3X^3 - 2Y^2.  By
    the twist equation Y^2 = X^3 + b'Z^6, D = Z^6 (x^3 - 2b') at T's
    affine x, which is never 0 as 2b' is not a cube in Fp2."""
    x0, x1, y0, y1, z0, z1 = t
    e0, e1 = 3 * (x0 + x1) * (x0 - x1) % P, 6 * x0 * x1 % P  # 3X^2
    w0, w1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    t0, t1 = x0 * e0, x1 * e1
    d0 = (t0 - t1 - 2 * (y0 + y1) * (y0 - y1)) % P
    d1 = ((x0 + x1) * (e0 + e1) - t0 - t1 - 4 * y0 * y1) % P
    z0, z1 = z
    t0, t1 = z0 * w0, z1 * w1
    m0, m1 = (t0 - t1) % P, ((z0 + z1) * (w0 + w1) - t0 - t1) % P
    t0, t1 = e0 * w0, e1 * w1
    return (d0, d1), (m0, m1), ((t0 - t1) % P, ((e0 + e1) * (w0 + w1) - t0 - t1) % P)


def _chord(t, a):
    """(N, ZH, n) for the chord from the Jacobian T = (X, Y, Z) to the
    affine A: n = a_y Z^3 - Y, H = a_x Z^2 - X, slope n/(ZH), constant
    term N/(ZH) with N = n a_x - a_y ZH.  H = 0 (A = T or -T) raises
    OffCurveError here, N = 0 (a chord through the twist's origin) at the
    batch inversion; the walk of a point of order r meets neither."""
    x0, x1, y0, y1, z0, z1 = t
    ax0, ax1, ay0, ay1 = a
    w0, w1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    t0, t1 = ax0 * w0, ax1 * w1
    h0, h1 = (t0 - t1 - x0) % P, ((ax0 + ax1) * (w0 + w1) - t0 - t1 - x1) % P
    if not (h0 or h1):
        raise OffCurveError("vertical line in the Miller loop")
    t0, t1 = z0 * h0, z1 * h1
    m0, m1 = (t0 - t1) % P, ((z0 + z1) * (h0 + h1) - t0 - t1) % P  # ZH
    t0, t1 = z0 * w0, z1 * w1
    s0, s1 = t0 - t1, (z0 + z1) * (w0 + w1) - t0 - t1  # Z^3
    t0, t1 = ay0 * s0, ay1 * s1
    n0, n1 = (t0 - t1 - y0) % P, ((ay0 + ay1) * (s0 + s1) - t0 - t1 - y1) % P
    t0, t1, t2, t3 = n0 * ax0, n1 * ax1, ay0 * m0, ay1 * m1
    d0 = (t0 - t1 - t2 + t3) % P
    d1 = ((n0 + n1) * (ax0 + ax1) - t0 - t1 - (ay0 + ay1) * (m0 + m1) + t2 + t3) % P
    return (d0, d1), (m0, m1), (n0, n1)


class G2Precomp:
    """Per-Q line data for the Miller loop: one (mu, nu) pair per doubling
    step, optionally one per NAF addition, and the two Frobenius addition
    lines at the end.

    A line of slope lam and constant term c is y_P - lam*x_P*w + c*v*w at
    P.  It is stored divided by c, as mu = 1/c and nu = lam/c, so that its
    v*w coefficient is 1 (fp12_mul_monic_line): 1/c lies in Fp2, which the
    final exponentiation maps to 1, so no pairing value changes (Barreto,
    Kim, Lynn and Scott, CRYPTO 2002).  T walks the loop in Jacobian
    coordinates (points._j2_double and _j2_madd) through multiples [k]Q
    with 0 < k < r, so it never reaches the identity.  Each line keeps a
    numerator of c and those of 1/c and lam/c over it (_tangent, _chord),
    and the c numerators are inverted together (points._batch_inv): one
    inversion per key.
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
        lines = []
        for d in reversed(_ATE_NAF[:-1]):
            t2 = _j2_double(t)
            lines.append(_tangent(t, t2[4:]))
            t = t2
            if d:
                a = plus if d == 1 else minus
                lines.append(_chord(t, a))
                t = _j2_madd(t, a)
        for a in ((*q1.x, *q1.y), q2neg):
            lines.append(_chord(t, a))
            t = _j2_madd(t, a)
        try:
            cinv = _batch_inv([c for c, _, _ in lines])
        except ArithmeticError:
            raise OffCurveError("a Miller line passes through the twist's origin") from None
        it = iter((fp2_mul(mu, ci), fp2_mul(nu, ci)) for (_, mu, nu), ci in zip(lines, cinv))
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
            (mu, nu), add = steps[i]
            f = fp12_mul_monic_line(f, yp, mu, xp_neg, nu)
            if add is not None:
                mu, nu = add
                f = fp12_mul_monic_line(f, yp, mu, xp_neg, nu)
    for _, tail, xp_neg, yp in evals:
        for mu, nu in tail:
            f = fp12_mul_monic_line(f, yp, mu, xp_neg, nu)
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
