"""Optimized ate pairing on BN254.

The Miller loop runs over the NAF of 6u+2 with lines in affine twist
coordinates.  All G2-side work (every tangent and chord line, divided by
its constant term) depends only on Q, so it is precomputed once per Q
and cached; ``G2Precomp`` walks Q's multiples in Jacobian coordinates,
each doubling and addition step returning its line from its own
intermediates, and shares one inversion among all 88 lines.  A key is
subgroup-checked before its lines are first made, except the generator
constant ``G2_GEN``, which is in G2 by construction; ``KeyCache`` keeps
the lines of the most used keys and remembers which evicted keys
passed.  Evaluating a pairing against a fixed key or the group
generator then costs four Fp multiplications per line to place P in
it, plus 27 for the Fp12 update.

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

import functools
import itertools
import threading
from collections import namedtuple
from dataclasses import dataclass

from blsces.errors import OffCurveError
from blsces.groups.params import BN_U, P, R
from blsces.groups.points import (
    G2_GEN,
    TWIST_B,
    G1Point,
    G2Point,
    _batch_inv,
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
# 2b' is not a cube in Fp2, so no tangent's constant term is 0 (_double_step).
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


def _double_step(t):
    """2T for the Jacobian T = (X, Y, Z), exactly as points._j2_double
    computes it, and the tangent at T as (D, 2YZ^3, 3X^2 Z^2), built from
    the doubling's own 3X^2 and Y^2 and from Z^2: the tangent's slope is
    3X^2/(2YZ) and its constant term D/(2YZ^3), with D = 3X^3 - 2Y^2.  By
    the twist equation Y^2 = X^3 + b'Z^6, D = Z^6 (x^3 - 2b') at T's
    affine x, which is never 0 as 2b' is not a cube in Fp2.  T is a
    multiple [k]Q, 0 < k < r, of a point of G2 (never the identity, and
    the twist has no point of order 2)."""
    x0, x1, y0, y1, z0, z1 = t
    b0, b1 = (y0 + y1) * (y0 - y1) % P, 2 * y0 * y1 % P  # Y^2
    e0, e1 = 3 * (x0 + x1) * (x0 - x1) % P, 6 * x0 * x1 % P  # 3X^2
    w0, w1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    # dbl-2009-l, as points._j2_double.
    t0, t1 = x0 * b0, x1 * b1
    d0, d1 = 4 * (t0 - t1) % P, 4 * ((x0 + x1) * (b0 + b1) - t0 - t1) % P
    x30 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P
    x31 = (2 * e0 * e1 - 2 * d1) % P
    f0, f1 = d0 - x30, d1 - x31
    t0, t1 = e0 * f0, e1 * f1
    y30 = (t0 - t1 - 8 * (b0 + b1) * (b0 - b1)) % P
    y31 = ((e0 + e1) * (f0 + f1) - t0 - t1 - 16 * b0 * b1) % P
    t0, t1 = y0 * z0, y1 * z1
    z30, z31 = 2 * (t0 - t1) % P, 2 * ((y0 + y1) * (z0 + z1) - t0 - t1) % P
    t0, t1 = x0 * e0, x1 * e1
    c = (t0 - t1 - 2 * b0) % P, ((x0 + x1) * (e0 + e1) - t0 - t1 - 2 * b1) % P
    t0, t1 = z30 * w0, z31 * w1
    m = (t0 - t1) % P, ((z30 + z31) * (w0 + w1) - t0 - t1) % P
    t0, t1 = e0 * w0, e1 * w1
    n = (t0 - t1) % P, ((e0 + e1) * (w0 + w1) - t0 - t1) % P
    return (x30, x31, y30, y31, z30, z31), (c, m, n)


def _add_step(t, a):
    """T + A for the Jacobian T = (X, Y, Z) and the affine A, exactly as
    points._j2_madd computes it, and the chord from T to A as
    (r a_x - a_y Z3, Z3, r), built from the addition's own
    H = a_x Z^2 - X, n = a_y Z^3 - Y, r = 2n and Z3 = 2ZH: the chord's
    slope is n/(ZH) and its constant term N/(ZH) with N = n a_x - a_y ZH,
    and the triple is (2N, 2ZH, 2n).  H = 0 (A = T or -T) raises
    OffCurveError here, N = 0 (a chord through the twist's origin) at the
    batch inversion; the walk of a point of order r meets neither."""
    x0, x1, y0, y1, z0, z1 = t
    ax0, ax1, ay0, ay1 = a
    # madd-2007-bl, as points._j2_madd.
    zz0, zz1 = (z0 + z1) * (z0 - z1) % P, 2 * z0 * z1 % P  # Z^2
    t0, t1 = ax0 * zz0, ax1 * zz1
    h0, h1 = (t0 - t1 - x0) % P, ((ax0 + ax1) * (zz0 + zz1) - t0 - t1 - x1) % P
    if not (h0 or h1):
        raise OffCurveError("vertical line in the Miller loop")
    t0, t1 = z0 * zz0, z1 * zz1
    s0, s1 = (t0 - t1) % P, ((z0 + z1) * (zz0 + zz1) - t0 - t1) % P  # Z^3
    t0, t1 = ay0 * s0, ay1 * s1
    r0, r1 = 2 * (t0 - t1 - y0) % P, 2 * ((ay0 + ay1) * (s0 + s1) - t0 - t1 - y1) % P
    i0, i1 = 4 * (h0 + h1) * (h0 - h1) % P, 8 * h0 * h1 % P
    t0, t1 = h0 * i0, h1 * i1
    j0, j1 = (t0 - t1) % P, ((h0 + h1) * (i0 + i1) - t0 - t1) % P
    t0, t1 = x0 * i0, x1 * i1
    v0, v1 = (t0 - t1) % P, ((x0 + x1) * (i0 + i1) - t0 - t1) % P
    x30 = ((r0 + r1) * (r0 - r1) - j0 - 2 * v0) % P
    x31 = (2 * r0 * r1 - j1 - 2 * v1) % P
    f0, f1 = v0 - x30, v1 - x31
    t0, t1, g0, g1 = r0 * f0, r1 * f1, y0 * j0, y1 * j1
    y30 = (t0 - t1 - 2 * (g0 - g1)) % P
    y31 = ((r0 + r1) * (f0 + f1) - t0 - t1 - 2 * ((y0 + y1) * (j0 + j1) - g0 - g1)) % P
    t0, t1 = z0 * h0, z1 * h1
    z30, z31 = 2 * (t0 - t1) % P, 2 * ((z0 + z1) * (h0 + h1) - t0 - t1) % P
    t0, t1, t2, t3 = r0 * ax0, r1 * ax1, ay0 * z30, ay1 * z31
    c0 = (t0 - t1 - t2 + t3) % P
    c1 = ((r0 + r1) * (ax0 + ax1) - t0 - t1 - (ay0 + ay1) * (z30 + z31) + t2 + t3) % P
    return (x30, x31, y30, y31, z30, z31), ((c0, c1), (z30, z31), (r0, r1))


class G2Precomp:
    """Per-Q line data for the Miller loop: one (mu, nu) pair per doubling
    step, optionally one per NAF addition, and the two Frobenius addition
    lines at the end.

    A line of slope lam and constant term c is y_P - lam*x_P*w + c*v*w at
    P.  It is stored divided by c, as mu = 1/c and nu = lam/c, so that its
    v*w coefficient is 1 (fp12_mul_monic_line): 1/c lies in Fp2, which the
    final exponentiation maps to 1, so no pairing value changes (Barreto,
    Kim, Lynn and Scott, CRYPTO 2002).  T walks the loop in Jacobian
    coordinates through multiples [k]Q with 0 < k < r, so it never
    reaches the identity.  Each walk step (_double_step, _add_step)
    returns the next T and its line as a numerator of c and those of 1/c
    and lam/c over it, all from the step's own intermediates, and the c
    numerators are inverted together (points._batch_inv): one inversion
    per key.
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
            t, line = _double_step(t)
            lines.append(line)
            if d:
                t, line = _add_step(t, plus if d == 1 else minus)
                lines.append(line)
        for a in ((*q1.x, *q1.y), q2neg):
            t, line = _add_step(t, a)
            lines.append(line)
        try:
            cinv = _batch_inv([c for c, _, _ in lines])
        except ArithmeticError:
            raise OffCurveError("a Miller line passes through the twist's origin") from None
        it = iter((fp2_mul(mu, ci), fp2_mul(nu, ci)) for (_, mu, nu), ci in zip(lines, cinv))
        self.steps = [(next(it), next(it) if d else None) for d in reversed(_ATE_NAF[:-1])]
        self.tail = (next(it), next(it))


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class KeyCache:
    """A cache of ``build(key)`` for keys that must pass ``check(key)``
    first, kept by how often each key is used.

    It holds at most ``MAXSIZE`` values in order of last use, each with a
    use count that a hit raises by one.  A miss into a full cache evicts
    the least-used of the ``WINDOW`` least recently used entries, the
    oldest on a tie (the frequency-aware eviction of TinyLFU, Einziger,
    Friedman and Manes, ACM TOS 2017).  The evicted key moves, with its
    count, to a ghost record of the last ``GHOSTS`` evicted keys (the
    history of ARC, Megiddo and Modha, FAST 2003).  A key that misses
    but is in that record passed ``check`` when it first entered and is
    only built again; it re-enters with its count.  Every count, of
    values and ghosts, halves each ``HALVING`` misses, so old popularity
    fades.  A key whose ``check`` or ``build`` raises enters neither.

    ``cache_info()`` and ``cache_clear()`` mean what they mean on
    ``functools.lru_cache``: a miss is a lookup that built its value.

    Only a miss takes the lock, for every change to the table and the
    ghosts, so the table never holds more than ``MAXSIZE`` values.  A
    hit bumps its entry's count and last use and the hit count without
    it, so under threads a hit may go uncounted; the policy only reads
    those counts.
    """

    MAXSIZE = 32
    WINDOW = MAXSIZE // 2
    GHOSTS = HALVING = 4 * MAXSIZE

    def __init__(self, check, build):
        functools.update_wrapper(self, build)
        self._check, self._build = check, build
        self._lock = threading.Lock()
        self._clock = itertools.count()
        self._table = {}  # key -> [value, uses, last use]
        self._ghosts = {}  # evicted key -> uses, oldest first
        self._hits = self._misses = 0

    def __call__(self, key):
        entry = self._table.get(key)
        if entry is not None:
            entry[1] += 1
            entry[2] = next(self._clock)
            self._hits += 1
            return entry[0]
        if key not in self._ghosts:
            self._check(key)
        value = self._build(key)
        with self._lock:
            self._misses += 1
            uses = self._ghosts.pop(key, 0) + 1
            if key not in self._table:
                if len(self._table) >= self.MAXSIZE:
                    self._evict()
                self._table[key] = [value, uses, next(self._clock)]
            if self._misses % self.HALVING == 0:
                for entry in self._table.values():
                    entry[1] >>= 1
                for k in self._ghosts:
                    self._ghosts[k] >>= 1
        return value

    def _evict(self):
        oldest = sorted(self._table.items(), key=lambda item: item[1][2])[: self.WINDOW]
        # min keeps the first, so the oldest, of equal counts
        key, (_, uses, _) = min(oldest, key=lambda item: item[1][1])
        del self._table[key]
        self._ghosts[key] = uses
        if len(self._ghosts) > self.GHOSTS:
            del self._ghosts[next(iter(self._ghosts))]

    def cache_info(self):
        return _CacheInfo(self._hits, self._misses, self.MAXSIZE, len(self._table))

    def cache_clear(self):
        """Forget every value, ghost and count."""
        with self._lock:
            self._table.clear()
            self._ghosts.clear()
            self._hits = self._misses = 0


def _check_key(q: G2Point) -> None:
    # The generator constant is in G2 by construction (check_g2 passes it).
    if q != G2_GEN:
        check_g2(q)


@functools.partial(KeyCache, _check_key)
def precompute_g2(q: G2Point) -> G2Precomp:
    """Validate the G2 point q and precompute its Miller-loop lines.

    This is the one place a G2 key is checked (curve equation and
    subgroup, OffCurveError otherwise): ``g2_from_bytes`` parses a key
    through it and the pairing reads its lines from it.  The generator
    constant ``G2_GEN``, the verifier's other pair, is the one point not
    checked: it is in G2 by construction (``check_g2`` passes it).

    A ``KeyCache`` keys the lines by point value and holds those of 32
    keys that passed, so a hit costs one lookup.  A full cache evicts
    the least-used of its 16 least recently used keys, and remembers the
    last 128 keys it evicted with their use counts.  G2 membership
    depends only on the point's value, so such a key, when it returns,
    is walked again but not checked again.  A key is checked again only
    when it comes back after it has left that record too.
    """
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
