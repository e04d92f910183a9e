"""Extension-field tower for the BN254 pairing: Fp2, Fp6, Fp12.

Representations (plain int tuples, no classes, to keep the interpreter
overhead of the Miller loop and final exponentiation tolerable):

* Fp2:  (a0, a1)            = a0 + a1*i,           i^2 = -1
* Fp6:  (c0, c1, c2) of Fp2 = c0 + c1*v + c2*v^2,  v^3 = XI = 9 + i
* Fp12: (d0, d1) of Fp6     = d0 + d1*w,           w^2 = v

Every function returns canonical coefficients in [0, P).  The Fp12
multiplication kernels are written out over the twelve Fp coefficients:

* ``fp12_mul``: 54 integer products (three Karatsuba Fp6 products);
* ``fp12_sqr``: 36 (complex squaring, two Fp6 products);
* ``fp12_mul_monic_line``: 31, for a Miller line stored divided by its
  constant term, so that its v*w coefficient is 1.

Their intermediates are unreduced (possibly negative) ints, and each
output coefficient takes a single ``% P``.  Python ints do not overflow,
so deferring the reduction only costs a few bits of operand size (lazy
reduction, as in Aranha et al., EUROCRYPT 2011).
"""

from __future__ import annotations

from blsces.groups.params import BN_U, P

XI = (9, 1)

FP2_ZERO = (0, 0)
FP2_ONE = (1, 0)
FP6_ZERO = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = (FP2_ONE, FP2_ZERO, FP2_ZERO)
FP12_ONE = (FP6_ONE, FP6_ZERO)


# ---------------------------------------------------------------------------
# Fp2
# ---------------------------------------------------------------------------

def fp2_add(a, b):
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fp2_sub(a, b):
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fp2_neg(a):
    return (-a[0] % P, -a[1] % P)


def fp2_conj(a):
    return (a[0], -a[1] % P)


def fp2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    # (a0+a1)(b0+b1) - t0 - t1 = a0*b1 + a1*b0
    return ((t0 - t1) % P, ((a0 + a1) * (b0 + b1) - t0 - t1) % P)


def fp2_sqr(a):
    a0, a1 = a
    # (a0+a1)(a0-a1) + 2*a0*a1*i
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def fp2_smul(a, k):
    return (a[0] * k % P, a[1] * k % P)


def fp2_mul_xi(a):
    # multiply by XI = 9 + i
    a0, a1 = a
    return ((9 * a0 - a1) % P, (9 * a1 + a0) % P)


def fp2_inv(a):
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % P
    ninv = pow(norm, -1, P)
    return (a0 * ninv % P, -a1 * ninv % P)


def fp2_pow(a, e):
    out = FP2_ONE
    while e:
        if e & 1:
            out = fp2_mul(out, a)
        a = fp2_sqr(a)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# Fp6
# ---------------------------------------------------------------------------

def fp6_sub(a, b):
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a):
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """Karatsuba product x*y of two Fp6 elements given as their six Fp
    coefficients: x = x0 + x1*v + x2*v^2 with x_k = a_2k + a_2k+1 * i,
    and y likewise from b.

    Inputs may be unreduced; the six output coefficients are unreduced.
    Six Fp2 products of three integer multiplications each.
    """
    # v_k = x_k * y_k over Fp2.
    t0 = a0 * b0
    t1 = a1 * b1
    v00 = t0 - t1
    v01 = (a0 + a1) * (b0 + b1) - t0 - t1
    t0 = a2 * b2
    t1 = a3 * b3
    v10 = t0 - t1
    v11 = (a2 + a3) * (b2 + b3) - t0 - t1
    t0 = a4 * b4
    t1 = a5 * b5
    v20 = t0 - t1
    v21 = (a4 + a5) * (b4 + b5) - t0 - t1
    # c0 = XI*((x1 + x2)(y1 + y2) - v1 - v2) + v0
    e0 = a2 + a4
    e1 = a3 + a5
    f0 = b2 + b4
    f1 = b3 + b5
    t0 = e0 * f0
    t1 = e1 * f1
    s0 = t0 - t1 - v10 - v20
    s1 = (e0 + e1) * (f0 + f1) - t0 - t1 - v11 - v21
    c0 = 9 * s0 - s1 + v00
    c1 = 9 * s1 + s0 + v01
    # c1 = (x0 + x1)(y0 + y1) - v0 - v1 + XI*v2
    e0 = a0 + a2
    e1 = a1 + a3
    f0 = b0 + b2
    f1 = b1 + b3
    t0 = e0 * f0
    t1 = e1 * f1
    c2 = t0 - t1 - v00 - v10 + 9 * v20 - v21
    c3 = (e0 + e1) * (f0 + f1) - t0 - t1 - v01 - v11 + 9 * v21 + v20
    # c2 = (x0 + x2)(y0 + y2) - v0 - v2 + v1
    e0 = a0 + a4
    e1 = a1 + a5
    f0 = b0 + b4
    f1 = b1 + b5
    t0 = e0 * f0
    t1 = e1 * f1
    c4 = t0 - t1 - v00 - v20 + v10
    c5 = (e0 + e1) * (f0 + f1) - t0 - t1 - v01 - v21 + v11
    return c0, c1, c2, c3, c4, c5


def fp6_mul(a, b):
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    c0, c1, c2, c3, c4, c5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    return ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P))


def fp6_mul_v(a):
    # multiply by v: (c0 + c1 v + c2 v^2) * v = XI*c2 + c0 v + c1 v^2
    return (fp2_mul_xi(a[2]), a[0], a[1])


def fp6_inv(a):
    a0, a1, a2 = a
    t0 = fp2_sqr(a0)
    t1 = fp2_sqr(a1)
    t2 = fp2_sqr(a2)
    c0 = fp2_sub(t0, fp2_mul_xi(fp2_mul(a1, a2)))
    c1 = fp2_sub(fp2_mul_xi(t2), fp2_mul(a0, a1))
    c2 = fp2_sub(t1, fp2_mul(a0, a2))
    norm = fp2_add(fp2_mul(a0, c0), fp2_mul_xi(fp2_add(fp2_mul(a2, c1), fp2_mul(a1, c2))))
    ninv = fp2_inv(norm)
    return (fp2_mul(c0, ninv), fp2_mul(c1, ninv), fp2_mul(c2, ninv))


# ---------------------------------------------------------------------------
# Fp12
# ---------------------------------------------------------------------------

def fp12_mul(a, b):
    """Karatsuba over Fp6: (g + h w)(g' + h' w) = (gg' + v hh') +
    ((g + h)(g' + h') - gg' - hh') w, with one reduction per output."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    ((b0, b1), (b2, b3), (b4, b5)), ((b6, b7), (b8, b9), (b10, b11)) = b
    u0, u1, u2, u3, u4, u5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5)
    w0, w1, w2, w3, w4, w5 = _fp6_mul_raw(a6, a7, a8, a9, a10, a11, b6, b7, b8, b9, b10, b11)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11,
    )
    # v*hh' = XI*(w4 + w5 i) + (w0 + w1 i) v + (w2 + w3 i) v^2
    return (
        (
            ((u0 + 9 * w4 - w5) % P, (u1 + 9 * w5 + w4) % P),
            ((u2 + w0) % P, (u3 + w1) % P),
            ((u4 + w2) % P, (u5 + w3) % P),
        ),
        (
            ((s0 - u0 - w0) % P, (s1 - u1 - w1) % P),
            ((s2 - u2 - w2) % P, (s3 - u3 - w3) % P),
            ((s4 - u4 - w4) % P, (s5 - u5 - w5) % P),
        ),
    )


def fp12_sqr(a):
    """Complex squaring: (g + h w)^2 = ((g + h)(g + v h) - gh - v gh)
    + 2gh w, two Fp6 products with one reduction per output."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    u0, u1, u2, u3, u4, u5 = _fp6_mul_raw(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11)
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        a0 + 9 * a10 - a11, a1 + 9 * a11 + a10, a2 + a6, a3 + a7, a4 + a8, a5 + a9,
    )
    return (
        (
            ((s0 - u0 - 9 * u4 + u5) % P, (s1 - u1 - 9 * u5 - u4) % P),
            ((s2 - u2 - u0) % P, (s3 - u3 - u1) % P),
            ((s4 - u4 - u2) % P, (s5 - u5 - u3) % P),
        ),
        (
            (2 * u0 % P, 2 * u1 % P),
            (2 * u2 % P, 2 * u3 % P),
            (2 * u4 % P, 2 * u5 % P),
        ),
    )


def fp12_conj(a):
    return (a[0], fp6_neg(a[1]))


def fp12_inv(a):
    a0, a1 = a
    t = fp6_inv(fp6_sub(fp6_mul(a0, a0), fp6_mul_v(fp6_mul(a1, a1))))
    return (fp6_mul(a0, t), fp6_neg(fp6_mul(a1, t)))


def fp12_pow(a, e):
    out = FP12_ONE
    while e:
        if e & 1:
            out = fp12_mul(out, a)
        a = fp12_sqr(a)
        e >>= 1
    return out


def fp12_cyclotomic_sqr(a):
    """Granger-Scott squaring, valid only in the cyclotomic subgroup.

    Precondition: a^(p^4 - p^2 + 1) = 1, as holds for every element after
    the easy part of the final exponentiation.  Elsewhere the result is
    not a^2.  Writing a = A + B*w + C*w^2 with A, B, C in Fp4 and
    w^3 = s, the square is (3A^2 - 2conj(A)) + (3s*C^2 + 2conj(B))*w
    + (3B^2 - 2conj(C))*w^2: three Fp4 squarings instead of a full Fp12
    one (Granger and Scott, PKC 2010).  Each Fp4 square
    (x + y*s)^2 = (x^2 + XI*y^2) + ((x + y)^2 - x^2 - y^2)*s takes three
    Fp2 squarings of two integer products each.
    """
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    # A = g0 + h1*s = (a0 + a1 i) + (a8 + a9 i)s
    xx0 = (a0 + a1) * (a0 - a1)
    xx1 = 2 * a0 * a1
    yy0 = (a8 + a9) * (a8 - a9)
    yy1 = 2 * a8 * a9
    s0 = a0 + a8
    s1 = a1 + a9
    t0 = xx0 + 9 * yy0 - yy1
    t1 = xx1 + 9 * yy1 + yy0
    t2 = (s0 + s1) * (s0 - s1) - xx0 - yy0
    t3 = 2 * s0 * s1 - xx1 - yy1
    # B = h0 + g2*s = (a6 + a7 i) + (a4 + a5 i)s
    xx0 = (a6 + a7) * (a6 - a7)
    xx1 = 2 * a6 * a7
    yy0 = (a4 + a5) * (a4 - a5)
    yy1 = 2 * a4 * a5
    s0 = a6 + a4
    s1 = a7 + a5
    u0 = xx0 + 9 * yy0 - yy1
    u1 = xx1 + 9 * yy1 + yy0
    u2 = (s0 + s1) * (s0 - s1) - xx0 - yy0
    u3 = 2 * s0 * s1 - xx1 - yy1
    # C = g1 + h2*s = (a2 + a3 i) + (a10 + a11 i)s
    xx0 = (a2 + a3) * (a2 - a3)
    xx1 = 2 * a2 * a3
    yy0 = (a10 + a11) * (a10 - a11)
    yy1 = 2 * a10 * a11
    s0 = a2 + a10
    s1 = a3 + a11
    v0 = xx0 + 9 * yy0 - yy1
    v1 = xx1 + 9 * yy1 + yy0
    v2 = (s0 + s1) * (s0 - s1) - xx0 - yy0
    v3 = 2 * s0 * s1 - xx1 - yy1
    # s*C^2 = XI*(C^2)_1 + (C^2)_0*s
    sv0 = 9 * v2 - v3
    sv1 = 9 * v3 + v2
    return (
        (
            ((3 * t0 - 2 * a0) % P, (3 * t1 - 2 * a1) % P),
            ((3 * u0 - 2 * a2) % P, (3 * u1 - 2 * a3) % P),
            ((3 * v0 - 2 * a4) % P, (3 * v1 - 2 * a5) % P),
        ),
        (
            ((3 * sv0 + 2 * a6) % P, (3 * sv1 + 2 * a7) % P),
            ((3 * t2 + 2 * a8) % P, (3 * t3 + 2 * a9) % P),
            ((3 * u2 + 2 * a10) % P, (3 * u3 + 2 * a11) % P),
        ),
    )


def fp12_cyclotomic_pow(a, e):
    """a^e for a in the cyclotomic subgroup and e >= 0.

    Uses the width-4 NAF of e over a table of a, a^3, a^5 and a^7;
    conjugation inverts in that subgroup, so a negative digit reads the
    conjugate of its entry.  The power starts from the top digit's entry,
    so e = BN_U, with 14 nonzero digits, costs 62 squarings and 16
    multiplications (3 for the table).
    """
    if e == 0:
        return FP12_ONE
    a2 = fp12_cyclotomic_sqr(a)
    table = [None] * 16
    table[1] = a
    for d in (3, 5, 7):
        table[d] = fp12_mul(table[d - 2], a2)
    for d in (1, 3, 5, 7):
        table[-d] = fp12_conj(table[d])
    digits = _BN_U_WNAF4 if e == BN_U else wnaf(e, 4)
    out = table[digits[-1]]
    for d in reversed(digits[:-1]):
        out = fp12_cyclotomic_sqr(out)
        if d:
            out = fp12_mul(out, table[d])
    return out


def wnaf(k, w):
    """Width-w non-adjacent form of k >= 0, least significant digit first.

    Every nonzero digit is odd, below 2^(w-1) in absolute value, and
    followed by at least w-1 zeros; width 2 is the plain NAF.
    """
    digits = []
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while k:
        if k & 1:
            d = k & mask
            if d >= half:
                d -= 1 << w
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


_BN_U_WNAF4 = wnaf(BN_U, 4)  # the final exponentiation's three powers by u


def fp12_mul_monic_line(f, y, mu, x, nu):
    """Multiply f by the monic line A + B*w + v*w, with A = mu*y and
    B = nu*x for the Fp scalars y and x (the G1 point's y and negated x)
    and a stored line's Fp2 mu = 1/c and nu = lam/c.  Karatsuba over Fp6
    as in fp12_mul, with f = g + h*w: g*A, h*(B + v) and (g + h)*(A + B + v)
    take three Fp2 products each, as multiplying by v only moves
    coefficients; 31 integer products with the four forming A and B, and
    one reduction per output.
    """
    ((f0, f1), (f2, f3), (f4, f5)), ((f6, f7), (f8, f9), (f10, f11)) = f
    a0, a1 = mu[0] * y % P, mu[1] * y % P
    b0, b1 = nu[0] * x % P, nu[1] * x % P
    # g_k*A
    a = a0 + a1
    t0, t1 = f0 * a0, f1 * a1
    p0, p1 = t0 - t1, (f0 + f1) * a - t0 - t1
    t0, t1 = f2 * a0, f3 * a1
    p2, p3 = t0 - t1, (f2 + f3) * a - t0 - t1
    t0, t1 = f4 * a0, f5 * a1
    p4, p5 = t0 - t1, (f4 + f5) * a - t0 - t1
    # h_k*B
    b = b0 + b1
    t0, t1 = f6 * b0, f7 * b1
    q0, q1 = t0 - t1, (f6 + f7) * b - t0 - t1
    t0, t1 = f8 * b0, f9 * b1
    q2, q3 = t0 - t1, (f8 + f9) * b - t0 - t1
    t0, t1 = f10 * b0, f11 * b1
    q4, q5 = t0 - t1, (f10 + f11) * b - t0 - t1
    # (g_k + h_k)*(A + B)
    e0, e1 = a0 + b0, a1 + b1
    e = e0 + e1
    k0, k1 = f0 + f6, f1 + f7
    t0, t1 = k0 * e0, k1 * e1
    s0, s1 = t0 - t1, (k0 + k1) * e - t0 - t1
    k0, k1 = f2 + f8, f3 + f9
    t0, t1 = k0 * e0, k1 * e1
    s2, s3 = t0 - t1, (k0 + k1) * e - t0 - t1
    k0, k1 = f4 + f10, f5 + f11
    t0, t1 = k0 * e0, k1 * e1
    s4, s5 = t0 - t1, (k0 + k1) * e - t0 - t1
    # g*A + v*h*(B + v) and (g + h)(A + B + v) - g*A - h*(B + v), where the
    # v terms reduce to v*(g + h) - v*h = v*g
    return (
        (
            ((p0 + 9 * (q4 + f8) - q5 - f9) % P, (p1 + 9 * (q5 + f9) + q4 + f8) % P),
            ((p2 + q0 + 9 * f10 - f11) % P, (p3 + q1 + 9 * f11 + f10) % P),
            ((p4 + q2 + f6) % P, (p5 + q3 + f7) % P),
        ),
        (
            ((s0 - p0 - q0 + 9 * f4 - f5) % P, (s1 - p1 - q1 + 9 * f5 + f4) % P),
            ((s2 - p2 - q2 + f0) % P, (s3 - p3 - q3 + f1) % P),
            ((s4 - p4 - q4 + f2) % P, (s5 - p5 - q5 + f3) % P),
        ),
    )


# ---------------------------------------------------------------------------
# Frobenius
# ---------------------------------------------------------------------------
# Write f in the w-basis as sum a_k w^k (a_k in Fp2, k = 0..5).  Then
# f^(p^i) maps a_k to conj^i(a_k) * GAMMA[i][k] with GAMMA[i][k] =
# XI^(k (p^i - 1) / 6).  The constants are computed once at import.

def _gamma(i):
    return tuple(fp2_pow(XI, k * (P**i - 1) // 6) for k in range(6))


_GAMMA1 = _gamma(1)
_GAMMA2 = _gamma(2)
_GAMMA3 = _gamma(3)


def _to_wbasis(f):
    (g0, g1, g2), (h0, h1, h2) = f
    return (g0, h0, g1, h1, g2, h2)


def _from_wbasis(a):
    return ((a[0], a[2], a[4]), (a[1], a[3], a[5]))


def fp12_frobenius(f, power=1):
    if power == 1:
        gamma, conj = _GAMMA1, True
    elif power == 2:
        gamma, conj = _GAMMA2, False
    elif power == 3:
        gamma, conj = _GAMMA3, True
    else:
        raise ValueError("unsupported Frobenius power")
    a = _to_wbasis(f)
    out = []
    for k in range(6):
        ak = fp2_conj(a[k]) if conj else a[k]
        out.append(fp2_mul(ak, gamma[k]))
    return _from_wbasis(tuple(out))
