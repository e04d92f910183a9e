"""G1 and G2 points with Jacobian-coordinate arithmetic.

Public values are the frozen affine dataclasses ``G1Point`` and
``G2Point``; the Jacobian helpers underneath work on raw coordinate
tuples and are what scalar multiplication and the pairing use.  G2 lives
on the sextic twist y^2 = x^3 + 3/XI over Fp2.

``g1_mul_many``, the cost of every BLS signature, multiplies a batch of
points by one scalar (the signing key) with the GLV method (Gallant,
Lambert and Vanstone, CRYPTO 2001).  G1 has the cheap endomorphism
phi(x, y) = (GLV_BETA*x, y), which acts as [GLV_LAMBDA], so a 254-bit
scalar splits into two halves below 2^127 with
k = k1 + k2*GLV_LAMBDA (mod R).  The split and the width-5 NAF recoding
of both halves are made once per batch.  Each point then runs one
interleaved loop: one doubling per digit position, and one mixed
(Jacobian plus affine) addition per nonzero digit, read from tables of
its odd multiples P, 3P, ..., 15P.  The tables of the whole batch share
one inversion, and so do the results.  ``g1_mul`` is the one-point
case.  The split is sound only for points of G1; with cofactor 1 that
is every point on the curve, so an on-curve input (``check_g1``) is the
precondition.

G2 has no such shortcut that holds off the subgroup, and ``g2_mul`` must
be right there too (``check_g2`` is judged against a literal [R]Q), so
it runs the NAF of k, one Jacobian doubling per digit and one mixed
addition of Q or -Q per nonzero digit, and inverts once at the end.
Key generation multiplies only the generator, so ``g2_mul_gen`` reads
the multiples it needs from a fixed-base table instead (Brickell,
Gordon, McCurley and Wilson, "Fast exponentiation with precomputation",
EUROCRYPT 1992), and halves the table with psi, which acts on G2 as
[PSI_LAMBDA] = [p - r] = [6u^2] (Galbraith and Scott, "Exponentiation in
pairing-friendly groups using homomorphisms", Pairing 2008): k mod R
splits as k0 + k1*PSI_LAMBDA with both halves below 2^127, each half in
signed radix-64 digits costs one mixed addition of a table entry per
nonzero digit and no doubling at all, and one full addition joins
[k0]G2_GEN and psi([k1]G2_GEN).  The table, [d*64^i]G2_GEN for d = 1..32
over 22 windows, is built on first use and kept for the life of the
process.
``check_g2`` stays in Jacobian coordinates throughout: it applies psi to
them directly and compares its two sums by cross-multiplying, so a key
check costs no inversion.  ``pairing.G2Precomp`` walks the Miller loop
with its own copies of the doubling and mixed-addition formulas, which
give the same points and also return each step's line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from blsces.errors import OffCurveError
from blsces.groups.params import BN_U, CURVE_B, G1_GENERATOR, G2_GENERATOR, P, R
from blsces.groups.tower import (
    FP2_ZERO,
    XI,
    fp2_add,
    fp2_conj,
    fp2_inv,
    fp2_mul,
    fp2_neg,
    fp2_pow,
    fp2_smul,
    fp2_sqr,
    fp2_sub,
    wnaf,
)

# Twist coefficient b' = 3 / XI.
TWIST_B = fp2_mul((3, 0), fp2_inv(XI))

# Twist-Frobenius constants: psi(x, y) = (conj(x)*TW_FROB_X, conj(y)*TW_FROB_Y)
# is the p-power Frobenius carried over to the twist.
TW_FROB_X = fp2_pow(XI, (P - 1) // 3)
TW_FROB_Y = fp2_pow(XI, (P - 1) // 2)

# The GLV endomorphism of G1: phi(x, y) = (GLV_BETA*x, y) is [GLV_LAMBDA],
# with GLV_BETA a cube root of unity in Fp and GLV_LAMBDA one mod R, both
# polynomials in u.  Which of the two roots goes with which is fixed by
# phi(G1_GEN) = [GLV_LAMBDA]G1_GEN, checked in the tests.
GLV_BETA = 18 * BN_U**3 + 18 * BN_U**2 + 9 * BN_U + 1
GLV_LAMBDA = 36 * BN_U**3 + 18 * BN_U**2 + 6 * BN_U + 1
assert GLV_BETA != 1 and pow(GLV_BETA, 3, P) == 1
assert (GLV_LAMBDA * GLV_LAMBDA + GLV_LAMBDA + 1) % R == 0

# A short basis (a1, b1), (a2, b2) of the lattice {(a, b) : a + b*GLV_LAMBDA
# = 0 mod R}, of determinant -R.  Rounding against it leaves halves no
# larger than half its column sums, below 2^127.
_GLV_A1, _GLV_B1 = 6 * BN_U**2 + 4 * BN_U + 1, 2 * BN_U + 1
_GLV_A2, _GLV_B2 = 2 * BN_U + 1, -(6 * BN_U**2 + 2 * BN_U)
assert (_GLV_A1 + _GLV_B1 * GLV_LAMBDA) % R == 0
assert (_GLV_A2 + _GLV_B2 * GLV_LAMBDA) % R == 0
assert _GLV_A1 * _GLV_B2 - _GLV_A2 * _GLV_B1 == -R
assert max(abs(_GLV_A1) + abs(_GLV_A2), abs(_GLV_B1) + abs(_GLV_B2)) < 1 << 128

_BN_U_NAF = wnaf(BN_U, 2)  # check_g2's multiplication by u


@dataclass(frozen=True)
class G1Point:
    """Affine G1 point; (0, 0, True) is the identity."""

    x: int = 0
    y: int = 0
    infinity: bool = False

    def is_identity(self) -> bool:
        return self.infinity

    def __neg__(self) -> "G1Point":
        if self.infinity:
            return self
        return G1Point(self.x, -self.y % P)


@dataclass(frozen=True)
class G2Point:
    """Affine G2 point on the twist, coordinates in Fp2."""

    x: tuple[int, int] = FP2_ZERO
    y: tuple[int, int] = FP2_ZERO
    infinity: bool = False

    def is_identity(self) -> bool:
        return self.infinity

    def __neg__(self) -> "G2Point":
        if self.infinity:
            return self
        return G2Point(self.x, fp2_neg(self.y))


G1_IDENTITY = G1Point(infinity=True)
G2_IDENTITY = G2Point(infinity=True)
G1_GEN = G1Point(*G1_GENERATOR)
G2_GEN = G2Point(*G2_GENERATOR)


def g1_on_curve(pt: G1Point) -> bool:
    if pt.infinity:
        return True
    x, y = pt.x % P, pt.y % P
    return (y * y - (x * x * x + CURVE_B)) % P == 0


def g2_on_curve(pt: G2Point) -> bool:
    if pt.infinity:
        return True
    lhs = fp2_sqr(pt.y)
    rhs = fp2_add(fp2_mul(fp2_sqr(pt.x), pt.x), TWIST_B)
    return lhs == rhs


def check_g1(pt: G1Point) -> G1Point:
    if not g1_on_curve(pt):
        raise OffCurveError("G1 point fails curve equation")
    return pt


def g2_psi(pt: G2Point) -> G2Point:
    """The endomorphism psi of the twist; on G2 it acts as [p]."""
    if pt.infinity:
        return pt
    return G2Point(fp2_mul(fp2_conj(pt.x), TW_FROB_X), fp2_mul(fp2_conj(pt.y), TW_FROB_Y))


def check_g2(pt: G2Point) -> G2Point:
    """Validate a G2 point: the twist equation, then membership in the
    order-r subgroup, a real check because the twist has cofactor 2p - r.

    Q is in G2 exactly when [u+1]Q + psi([u]Q) + psi^2([u]Q) equals
    psi^3([2u]Q) (El Housni, Guillevic and Piellard, "Co-factor clearing
    and subgroup membership testing on pairing-friendly curves",
    AFRICACRYPT 2022): one scalar multiplication by the 63-bit u where
    [r]Q = O takes a 254-bit one.  [u]Q, its images under psi and both
    sums stay Jacobian, and the sums are compared by cross-multiplying.
    """
    if not g2_on_curve(pt):
        raise OffCurveError("G2 point fails twist curve equation")
    if not pt.infinity:
        uq = _j2_mul(pt, BN_U)
        psi_uq = _j2_psi(uq)
        psi2_uq = _j2_psi(psi_uq)
        lhs = _j2_add(_j2_madd(uq, (*pt.x, *pt.y)), _j2_add(psi_uq, psi2_uq))
        if not _j2_eq(lhs, _j2_double(_j2_psi(psi2_uq))):
            raise OffCurveError("G2 point outside the order-r subgroup")
    return pt


# ---------------------------------------------------------------------------
# Jacobian G1 over Fp
# ---------------------------------------------------------------------------

_J1_INF = (1, 1, 0)


def _j1_from(pt: G1Point):
    return _J1_INF if pt.infinity else (pt.x, pt.y, 1)


def _j1_to(j) -> G1Point:
    x, y, z = j
    if z == 0:
        return G1_IDENTITY
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return G1Point(x * zi2 % P, y * zi2 % P * zi % P)


def _j1_double(pt):
    x1, y1, z1 = pt
    if z1 == 0 or y1 == 0:
        return _J1_INF if y1 == 0 else pt
    # dbl-2009-l with d = 4*x1*y1^2 taken directly; e = 3*x1^2 and
    # 8*y1^4 stay unreduced, as every expression using them is reduced.
    a = x1 * x1 % P
    b = y1 * y1 % P
    d = 4 * x1 * b % P
    e = 3 * a
    x3 = (e * e - 2 * d) % P
    y3 = (e * (d - x3) - 8 * b * b) % P
    z3 = 2 * y1 * z1 % P
    return (x3, y3, z3)


def _j1_add(p, q):
    x1, y1, z1 = p
    x2, y2, z2 = q
    if z1 == 0:
        return q
    if z2 == 0:
        return p
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 % P * z2z2 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return _J1_INF
        return _j1_double(p)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % P * h % P
    return (x3, y3, z3)


def g1_add(a: G1Point, b: G1Point) -> G1Point:
    return _j1_to(_j1_add(_j1_from(a), _j1_from(b)))


def g1_sum(pts) -> G1Point:
    """Sum of G1 points, added in Jacobian coordinates with one inversion."""
    acc = _J1_INF
    for pt in pts:
        acc = _j1_add(acc, _j1_from(pt))
    return _j1_to(acc)


def _j1_madd(p, q):
    """Jacobian p plus affine q: a mixed addition, cheaper than _j1_add."""
    x1, y1, z1 = p
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u2 == x1:
        if s2 != y1:
            return _J1_INF
        return _j1_double(p)
    # madd-2007-bl; h, i and r stay unreduced, as every expression using
    # them is reduced.
    h = u2 - x1
    hh = h * h % P
    i = 4 * hh
    j = h * i % P
    r = 2 * (s2 - y1)
    v = x1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * y1 * j) % P
    z3 = 2 * z1 * h % P
    return (x3, y3, z3)


def _j1_batch_affine(pts):
    """Affine (x, y) of Jacobian points with nonzero z, sharing one
    inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in pts:
        prefix.append(acc)
        acc = acc * z % P
    inv = pow(acc, -1, P)
    out = [None] * len(pts)
    for i in range(len(pts) - 1, -1, -1):
        x, y, z = pts[i]
        zi = inv * prefix[i] % P
        inv = inv * z % P
        zi2 = zi * zi % P
        out[i] = (x * zi2 % P, y * zi2 % P * zi % P)
    return out


def glv_split(k: int) -> tuple[int, int]:
    """(k1, k2) with k1 + k2*GLV_LAMBDA = k (mod R) and |k1|, |k2| < 2^127.

    Babai rounding: write (k, 0) in the short basis, round both
    coordinates to the nearest integer, and return what is left over.
    """
    c1 = (2 * k * -_GLV_B2 + R) // (2 * R)
    c2 = (2 * k * _GLV_B1 + R) // (2 * R)
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _digit_table(odd, beta, negate):
    """Affine [d]Q for every odd digit d with |d| < 16, indexed by d itself
    (a negative d counts from the end of the 32-entry list).  Q is the
    base point, or phi(base) when beta is GLV_BETA, negated when negate."""
    table = [None] * 32
    for i, (x, y) in enumerate(odd):
        x = x * beta % P
        if negate:
            y = P - y
        table[2 * i + 1] = (x, y)
        table[-2 * i - 1] = (x, P - y)
    return table


def _j1_walk(table, schedule):
    """The Jacobian point that ``schedule`` leaves, starting from the
    identity: None doubles it and an index adds the affine table[index].
    The doubling and the mixed addition are _j1_double and _j1_madd
    written out.  Doubling the identity (z = 0) leaves z = 0, so it needs
    no test; an addition to the identity, or of a point with the same x
    (equal or opposite), goes to _j1_madd itself."""
    x1, y1, z1 = _J1_INF
    for op in schedule:
        if op is None:
            a = x1 * x1 % P
            b = y1 * y1 % P
            d = 4 * x1 * b % P
            e = 3 * a
            x3 = (e * e - 2 * d) % P
            z1 = 2 * y1 * z1 % P
            y1 = (e * (d - x3) - 8 * b * b) % P
            x1 = x3
            continue
        x2, y2 = table[op]
        z1z1 = z1 * z1 % P
        u2 = x2 * z1z1 % P
        if u2 == x1 or not z1:
            x1, y1, z1 = _j1_madd((x1, y1, z1), (x2, y2))
            continue
        h = u2 - x1
        i = 4 * (h * h % P)
        j = h * i % P
        r = 2 * (y2 * z1 % P * z1z1 % P - y1)
        v = x1 * i % P
        x3 = (r * r - j - 2 * v) % P
        y1 = (r * (v - x3) - 2 * y1 * j) % P
        z1 = 2 * z1 * h % P
        x1 = x3
    return (x1, y1, z1)


def g1_mul_many(pts, k: int) -> list[G1Point]:
    """[k]P for every P in pts, by one GLV split and one width-5 NAF
    recoding of k shared by all of them.

    Precondition: every P is on the curve.  The curve has prime order R
    (cofactor 1), so every on-curve point lies in G1, where reducing k
    mod R is sound and phi(x, y) = (GLV_BETA*x, y) acts as [GLV_LAMBDA].
    bls.sign_points runs check_g1 before it gets here.

    k = k1 + k2*GLV_LAMBDA with halves below 2^127, so
    [k]P = [k1]P + [k2]phi(P) takes about 127 doublings shared by both
    halves, plus one mixed addition per nonzero w-NAF digit from tables
    of the odd multiples P, 3P, ..., 15P and their images under phi.  A
    half's sign is folded into its table.  The odd multiples of every
    point are made affine together, and so are the results: two
    inversions for the whole batch.  Against the earlier one-point
    g1_mul called once per point, a batch took 0.91x the time at 4
    points and 0.89x at 16 (medians of 40 interleaved runs, unscaled,
    2 CPUs, Python 3.11.7).
    """
    k %= R
    out = [G1_IDENTITY] * len(pts)
    live = [i for i, pt in enumerate(pts) if not pt.infinity] if k else []
    if not live:
        return out
    k1, k2 = glv_split(k)
    digits1, digits2 = wnaf(abs(k1), 5), wnaf(abs(k2), 5)
    n = max(len(digits1), len(digits2))
    digits1 += [0] * (n - len(digits1))
    digits2 += [0] * (n - len(digits2))
    # One doubling per digit position, then the k1 digit's entry (table
    # index d mod 32) and the k2 digit's (32 + d mod 32).  The first
    # doubling, of the identity, is left out.
    schedule = []
    for d1, d2 in zip(reversed(digits1), reversed(digits2)):
        schedule.append(None)
        if d1:
            schedule.append(d1 % 32)
        if d2:
            schedule.append(32 + d2 % 32)
    del schedule[0]
    odd = []
    for i in live:
        base = (pts[i].x, pts[i].y, 1)
        two = _j1_double(base)
        odd.append(base)
        for _ in range(7):
            odd.append(_j1_add(odd[-1], two))
    odd = _j1_batch_affine(odd)
    accs = []
    for m in range(len(live)):
        row = odd[8 * m: 8 * m + 8]
        table = _digit_table(row, 1, k1 < 0) + _digit_table(row, GLV_BETA, k2 < 0)
        accs.append(_j1_walk(table, schedule))
    finite = [m for m, acc in enumerate(accs) if acc[2]]
    for m, (x, y) in zip(finite, _j1_batch_affine([accs[m] for m in finite])):
        out[live[m]] = G1Point(x, y)
    return out


def g1_mul(pt: G1Point, k: int) -> G1Point:
    """[k]pt: the one-point case of g1_mul_many, with its precondition."""
    return g1_mul_many([pt], k)[0]


# ---------------------------------------------------------------------------
# Jacobian G2 over Fp2
# ---------------------------------------------------------------------------
# A Jacobian G2 point is the flat tuple (x0, x1, y0, y1, z0, z1) of its
# three Fp2 coordinates, and an affine one (x0, x1, y0, y1).  The kernels
# are written out over these Fp coordinates, as the G1 ones are.

_J2_INF = (1, 0, 1, 0, 0, 0)


def _batch_inv(zs):
    """Inverses of the nonzero Fp2 elements zs: 1/z = conj(z)/N(z) with
    the norms N(z) = z0^2 + z1^2 in Fp inverted together by Montgomery's
    trick, so the whole list costs one inversion."""
    norms = [(z0 * z0 + z1 * z1) % P for z0, z1 in zs]
    prefix = []
    acc = 1
    for n in norms:
        prefix.append(acc)
        acc = acc * n % P
    if acc == 0:
        raise ArithmeticError("batch inversion of zero")
    inv = pow(acc, -1, P)
    out = [None] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        ni = inv * prefix[i] % P
        inv = inv * norms[i] % P
        z0, z1 = zs[i]
        out[i] = (z0 * ni % P, -z1 * ni % P)
    return out


def _j2_to(j) -> G2Point:
    x0, x1, y0, y1, z0, z1 = j
    if not (z0 or z1):
        return G2_IDENTITY
    zi = fp2_inv((z0, z1))
    zi2 = fp2_sqr(zi)
    return G2Point(fp2_mul((x0, x1), zi2), fp2_mul(fp2_mul((y0, y1), zi2), zi))


def _j2_double(pt):
    x0, x1, y0, y1, z0, z1 = pt
    if not (z0 or z1):
        return pt
    if not (y0 or y1):
        return _J2_INF
    # dbl-2009-l as in _j1_double, with d = 4*x*b taken directly.
    b0 = (y0 + y1) * (y0 - y1) % P
    b1 = 2 * y0 * y1 % P
    t0 = x0 * b0
    t1 = x1 * b1
    d0 = 4 * (t0 - t1) % P
    d1 = 4 * ((x0 + x1) * (b0 + b1) - t0 - t1) % P
    e0 = 3 * (x0 + x1) * (x0 - x1) % P
    e1 = 6 * x0 * x1 % P
    x30 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P
    x31 = (2 * e0 * e1 - 2 * d1) % P
    f0 = d0 - x30
    f1 = d1 - x31
    t0 = e0 * f0
    t1 = e1 * f1
    y30 = (t0 - t1 - 8 * (b0 + b1) * (b0 - b1)) % P
    y31 = ((e0 + e1) * (f0 + f1) - t0 - t1 - 16 * b0 * b1) % P
    t0 = y0 * z0
    t1 = y1 * z1
    z30 = 2 * (t0 - t1) % P
    z31 = 2 * ((y0 + y1) * (z0 + z1) - t0 - t1) % P
    return (x30, x31, y30, y31, z30, z31)


def _j2_madd(p, q):
    """Jacobian p plus affine q, as _j1_madd."""
    x0, x1, y0, y1, z0, z1 = p
    qx0, qx1, qy0, qy1 = q
    if not (z0 or z1):
        return (qx0, qx1, qy0, qy1, 1, 0)
    zz0 = (z0 + z1) * (z0 - z1) % P
    zz1 = 2 * z0 * z1 % P
    t0 = qx0 * zz0
    t1 = qx1 * zz1
    u0 = (t0 - t1) % P
    u1 = ((qx0 + qx1) * (zz0 + zz1) - t0 - t1) % P
    t0 = z0 * zz0
    t1 = z1 * zz1
    w0 = (t0 - t1) % P
    w1 = ((z0 + z1) * (zz0 + zz1) - t0 - t1) % P
    t0 = qy0 * w0
    t1 = qy1 * w1
    s0 = (t0 - t1) % P
    s1 = ((qy0 + qy1) * (w0 + w1) - t0 - t1) % P
    if u0 == x0 and u1 == x1:
        if s0 != y0 or s1 != y1:
            return _J2_INF
        return _j2_double(p)
    # madd-2007-bl; h and r stay unreduced, as every expression using
    # them is reduced.
    h0 = u0 - x0
    h1 = u1 - x1
    i0 = 4 * (h0 + h1) * (h0 - h1) % P
    i1 = 8 * h0 * h1 % P
    t0 = h0 * i0
    t1 = h1 * i1
    j0 = (t0 - t1) % P
    j1 = ((h0 + h1) * (i0 + i1) - t0 - t1) % P
    r0 = 2 * (s0 - y0)
    r1 = 2 * (s1 - y1)
    t0 = x0 * i0
    t1 = x1 * i1
    v0 = (t0 - t1) % P
    v1 = ((x0 + x1) * (i0 + i1) - t0 - t1) % P
    x30 = ((r0 + r1) * (r0 - r1) - j0 - 2 * v0) % P
    x31 = (2 * r0 * r1 - j1 - 2 * v1) % P
    f0 = v0 - x30
    f1 = v1 - x31
    t0 = r0 * f0
    t1 = r1 * f1
    g0 = y0 * j0
    g1 = y1 * j1
    y30 = (t0 - t1 - 2 * (g0 - g1)) % P
    y31 = ((r0 + r1) * (f0 + f1) - t0 - t1 - 2 * ((y0 + y1) * (j0 + j1) - g0 - g1)) % P
    t0 = z0 * h0
    t1 = z1 * h1
    z30 = 2 * (t0 - t1) % P
    z31 = 2 * ((z0 + z1) * (h0 + h1) - t0 - t1) % P
    return (x30, x31, y30, y31, z30, z31)


def _j2_add(p, q):
    """Sum of two Jacobian points (add-2007-bl)."""
    if not (p[4] or p[5]):
        return q
    if not (q[4] or q[5]):
        return p
    x1, y1, z1 = (p[0], p[1]), (p[2], p[3]), (p[4], p[5])
    x2, y2, z2 = (q[0], q[1]), (q[2], q[3]), (q[4], q[5])
    z1z1 = fp2_sqr(z1)
    z2z2 = fp2_sqr(z2)
    u1 = fp2_mul(x1, z2z2)
    u2 = fp2_mul(x2, z1z1)
    s1 = fp2_mul(fp2_mul(y1, z2), z2z2)
    s2 = fp2_mul(fp2_mul(y2, z1), z1z1)
    if u1 == u2:
        if s1 != s2:
            return _J2_INF
        return _j2_double(p)
    h = fp2_sub(u2, u1)
    i = fp2_smul(fp2_sqr(h), 4)
    j = fp2_mul(h, i)
    r = fp2_smul(fp2_sub(s2, s1), 2)
    v = fp2_mul(u1, i)
    x3 = fp2_sub(fp2_sub(fp2_sqr(r), j), fp2_smul(v, 2))
    y3 = fp2_sub(fp2_mul(r, fp2_sub(v, x3)), fp2_smul(fp2_mul(s1, j), 2))
    z3 = fp2_mul(fp2_sub(fp2_sub(fp2_sqr(fp2_add(z1, z2)), z1z1), z2z2), h)
    return (*x3, *y3, *z3)


def _j2_psi(pt):
    """psi on Jacobian coordinates: conjugate X, Y and Z, then scale X by
    TW_FROB_X and Y by TW_FROB_Y (Z enters the affine x and y squared and
    cubed, and conjugation commutes with both)."""
    x0, x1, y0, y1, z0, z1 = pt
    a0, a1 = TW_FROB_X
    b0, b1 = TW_FROB_Y
    return (
        (x0 * a0 + x1 * a1) % P, (x0 * a1 - x1 * a0) % P,
        (y0 * b0 + y1 * b1) % P, (y0 * b1 - y1 * b0) % P,
        z0, -z1 % P,
    )


def _j2_eq(p, q) -> bool:
    """Whether two Jacobian points are the same point, by cross-multiplying."""
    p_inf, q_inf = not (p[4] or p[5]), not (q[4] or q[5])
    if p_inf or q_inf:
        return p_inf and q_inf
    z1, z2 = (p[4], p[5]), (q[4], q[5])
    z1z1, z2z2 = fp2_sqr(z1), fp2_sqr(z2)
    if fp2_mul((p[0], p[1]), z2z2) != fp2_mul((q[0], q[1]), z1z1):
        return False
    return fp2_mul((p[2], p[3]), fp2_mul(z2z2, z2)) == fp2_mul((q[2], q[3]), fp2_mul(z1z1, z1))


def _j2_mul(pt: G2Point, k: int):
    """[k]pt in Jacobian coordinates for k > 0 and pt not the identity:
    the NAF of k, one mixed addition of pt or -pt per nonzero digit."""
    (x0, x1), (y0, y1) = pt.x, pt.y
    plus = (x0, x1, y0, y1)
    minus = (x0, x1, -y0 % P, -y1 % P)
    digits = _BN_U_NAF if k == BN_U else wnaf(k, 2)
    acc = (x0, x1, y0, y1, 1, 0)  # the top digit is 1
    for d in reversed(digits[:-1]):
        acc = _j2_double(acc)
        if d == 1:
            acc = _j2_madd(acc, plus)
        elif d == -1:
            acc = _j2_madd(acc, minus)
    return acc


def g2_add(a: G2Point, b: G2Point) -> G2Point:
    if b.infinity:
        return a
    if a.infinity:
        return b
    return _j2_to(_j2_madd((*a.x, *a.y, 1, 0), (*b.x, *b.y)))


def g2_mul(pt: G2Point, k: int) -> G2Point:
    # No reduction mod R here: the twist has points outside the order-R
    # subgroup, for which [k]Q and [k mod R]Q differ; tests check the
    # subgroup test against a literal [R]Q.
    if k < 0:
        return g2_mul(-pt, -k)
    if k == 0 or pt.infinity:
        return G2_IDENTITY
    return _j2_to(_j2_mul(pt, k))


# psi acts on G2 as [p], which is [PSI_LAMBDA] as G2 has order R.  As
# PSI_LAMBDA^2 < R, divmod(k, PSI_LAMBDA) of any k < R gives two halves
# below 2^127, and [k]Q = [k0]Q + psi([k1]Q) for Q in G2.
PSI_LAMBDA = P - R
assert PSI_LAMBDA == 6 * BN_U**2 and PSI_LAMBDA**2 < R

# Signed radix-2^w digits of a half, w = _GEN_W: _GEN_WINDOWS windows of
# digits in [1 - 2^(w-1), 2^(w-1)] reach past the largest half,
# (R - 1) // PSI_LAMBDA.
_GEN_W = 6
_GEN_RADIX = 1 << _GEN_W
_GEN_HALF = _GEN_RADIX // 2
_GEN_WINDOWS = ((R - 1) // PSI_LAMBDA).bit_length() // _GEN_W + 1
assert _GEN_HALF * (_GEN_RADIX**_GEN_WINDOWS - 1) // (_GEN_RADIX - 1) >= (R - 1) // PSI_LAMBDA


@cache
def _gen_table():
    """Affine [d*2^(w*i)]G2_GEN at index 2^(w-1)*i + d - 1, for
    d = 1..2^(w-1) and every window i of g2_mul_gen's halves.  Each
    window's multiples are built in Jacobian coordinates from the previous
    window's [2^w]B, and all of them share one inversion.  No entry is the
    identity, as R is a prime above 2^w."""
    walk = []
    b = (*G2_GEN.x, *G2_GEN.y, 1, 0)
    for _ in range(_GEN_WINDOWS):
        row = [b, _j2_double(b)]
        for d in range(3, _GEN_HALF + 1):
            row.append(_j2_double(row[d // 2 - 1]) if d % 2 == 0 else _j2_add(row[-1], b))
        walk += row
        b = _j2_double(row[-1])
    zinv = _batch_inv([(z0, z1) for _, _, _, _, z0, z1 in walk])
    table = []
    for (x0, x1, y0, y1, _, _), zi in zip(walk, zinv):
        zi2 = fp2_sqr(zi)
        table.append((*fp2_mul((x0, x1), zi2), *fp2_mul((y0, y1), fp2_mul(zi2, zi))))
    return table


def _gen_sum(table, k):
    """[k]G2_GEN in Jacobian coordinates for 0 <= k below 2^127: k in
    signed radix-2^w digits d_i with k = sum d_i*2^(w*i), and one mixed
    addition of [|d_i|*2^(w*i)]G2_GEN per nonzero digit, its y negated
    for a negative digit."""
    acc = _J2_INF
    i = 0
    while k:
        d = k & (_GEN_RADIX - 1)
        k >>= _GEN_W
        if d > _GEN_HALF:
            d -= _GEN_RADIX
            k += 1
        if d > 0:
            acc = _j2_madd(acc, table[i + d - 1])
        elif d < 0:
            x0, x1, y0, y1 = table[i - d - 1]
            acc = _j2_madd(acc, (x0, x1, -y0 % P, -y1 % P))
        i += _GEN_HALF
    return acc


def g2_mul_gen(k: int) -> G2Point:
    """[k]G2_GEN from the fixed-base table of the generator.

    k is reduced mod R, which is sound as the generator lies in G2, and
    split as k = k0 + k1*PSI_LAMBDA with both halves below 2^127.  Each
    half is summed from the table, whose 127 bits serve both, and
    [k]G2_GEN = [k0]G2_GEN + psi([k1]G2_GEN): one full addition joins the
    two sums, either of which may be the identity, and one inversion
    makes the result affine.  The sums are never equal or opposite: for
    k1 >= 1, k1*PSI_LAMBDA lies in [PSI_LAMBDA, R), above k0, and their
    sum k mod R is not 0.  The table costs one build per process.
    """
    k1, k0 = divmod(k % R, PSI_LAMBDA)
    table = _gen_table()
    return _j2_to(_j2_add(_gen_sum(table, k0), _j2_psi(_gen_sum(table, k1))))
