"""Extension-field tower for the BN254 pairing: Fp2, Fp6, Fp12.

Representations (plain int tuples, no classes, to keep the interpreter
overhead of the Miller loop and final exponentiation tolerable):

* Fp2:  (a0, a1)            = a0 + a1*i,           i^2 = -1
* Fp6:  (c0, c1, c2) of Fp2 = c0 + c1*v + c2*v^2,  v^3 = XI = 9 + i
* Fp12: (d0, d1) of Fp6     = d0 + d1*w,           w^2 = v

All coefficients are canonical ints in [0, P).
"""

from __future__ import annotations

from blsces.groups.params import P

XI = (9, 1)

FP2_ZERO = (0, 0)
FP2_ONE = (1, 0)
FP6_ZERO = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE = (FP2_ONE, FP2_ZERO, FP2_ZERO)
FP12_ONE = (FP6_ONE, FP6_ZERO)
FP12_ZERO = (FP6_ZERO, FP6_ZERO)


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

def fp6_add(a, b):
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a, b):
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a):
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def fp6_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    v0 = fp2_mul(a0, b0)
    v1 = fp2_mul(a1, b1)
    v2 = fp2_mul(a2, b2)
    c0 = fp2_add(fp2_mul_xi(fp2_sub(fp2_sub(fp2_mul(fp2_add(a1, a2), fp2_add(b1, b2)), v1), v2)), v0)
    c1 = fp2_add(fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a1), fp2_add(b0, b1)), v0), v1), fp2_mul_xi(v2))
    c2 = fp2_add(fp2_sub(fp2_sub(fp2_mul(fp2_add(a0, a2), fp2_add(b0, b2)), v0), v2), v1)
    return (c0, c1, c2)


def fp6_sqr(a):
    return fp6_mul(a, a)


def fp6_smul(a, s):
    """Multiply an Fp6 element by an Fp2 scalar."""
    return (fp2_mul(a[0], s), fp2_mul(a[1], s), fp2_mul(a[2], s))


def fp6_mul_v(a):
    # multiply by v: (c0 + c1 v + c2 v^2) * v = XI*c2 + c0 v + c1 v^2
    return (fp2_mul_xi(a[2]), a[0], a[1])


def fp6_mul_sparse(a, b0, b1):
    """Multiply by b0 + b1*v with b0, b1 in Fp2."""
    a0, a1, a2 = a
    return (
        fp2_add(fp2_mul(a0, b0), fp2_mul_xi(fp2_mul(a2, b1))),
        fp2_add(fp2_mul(a0, b1), fp2_mul(a1, b0)),
        fp2_add(fp2_mul(a1, b1), fp2_mul(a2, b0)),
    )


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
    a0, a1 = a
    b0, b1 = b
    v0 = fp6_mul(a0, b0)
    v1 = fp6_mul(a1, b1)
    c1 = fp6_sub(fp6_sub(fp6_mul(fp6_add(a0, a1), fp6_add(b0, b1)), v0), v1)
    c0 = fp6_add(v0, fp6_mul_v(v1))
    return (c0, c1)


def fp12_sqr(a):
    a0, a1 = a
    v0 = fp6_mul(a0, a1)
    t = fp6_add(a0, fp6_mul_v(a1))
    c0 = fp6_sub(fp6_sub(fp6_mul(fp6_add(a0, a1), t), v0), fp6_mul_v(v0))
    return (c0, fp6_add(v0, v0))


def fp12_conj(a):
    return (a[0], fp6_neg(a[1]))


def fp12_inv(a):
    a0, a1 = a
    t = fp6_inv(fp6_sub(fp6_sqr(a0), fp6_mul_v(fp6_sqr(a1))))
    return (fp6_mul(a0, t), fp6_neg(fp6_mul(a1, t)))


def fp12_pow(a, e):
    out = FP12_ONE
    while e:
        if e & 1:
            out = fp12_mul(out, a)
        a = fp12_sqr(a)
        e >>= 1
    return out


def _fp4_sqr(a, b):
    """Square a + b*s in Fp4 = Fp2[s]/(s^2 - XI); returns the unreduced
    integer coefficients of (a^2 + XI*b^2) + 2ab*s."""
    a0, a1 = a
    b0, b1 = b
    aa0 = (a0 + a1) * (a0 - a1)
    aa1 = 2 * a0 * a1
    bb0 = (b0 + b1) * (b0 - b1)
    bb1 = 2 * b0 * b1
    ab0 = a0 * b0 - a1 * b1
    ab1 = a0 * b1 + a1 * b0
    return aa0 + 9 * bb0 - bb1, aa1 + 9 * bb1 + bb0, 2 * ab0, 2 * ab1


def fp12_cyclotomic_sqr(a):
    """Granger-Scott squaring, valid only in the cyclotomic subgroup.

    Precondition: a^(p^4 - p^2 + 1) = 1, as holds for every element after
    the easy part of the final exponentiation.  Elsewhere the result is
    not a^2.  Writing a = A + B*w + C*w^2 with A, B, C in Fp4 and
    w^3 = s, the square is (3A^2 - 2conj(A)) + (3s*C^2 + 2conj(B))*w
    + (3B^2 - 2conj(C))*w^2: three Fp4 squarings instead of a full Fp12
    one (Granger and Scott, PKC 2010).
    """
    (g0, g1, g2), (h0, h1, h2) = a
    # A = g0 + h1*s, B = h0 + g2*s, C = g1 + h2*s.
    t0, t1, t2, t3 = _fp4_sqr(g0, h1)
    u0, u1, u2, u3 = _fp4_sqr(h0, g2)
    v0, v1, v2, v3 = _fp4_sqr(g1, h2)
    # s*C^2 = XI*(C^2)_1 + (C^2)_0*s
    sv0 = 9 * v2 - v3
    sv1 = 9 * v3 + v2
    return (
        (
            ((3 * t0 - 2 * g0[0]) % P, (3 * t1 - 2 * g0[1]) % P),
            ((3 * u0 - 2 * g1[0]) % P, (3 * u1 - 2 * g1[1]) % P),
            ((3 * v0 - 2 * g2[0]) % P, (3 * v1 - 2 * g2[1]) % P),
        ),
        (
            ((3 * sv0 + 2 * h0[0]) % P, (3 * sv1 + 2 * h0[1]) % P),
            ((3 * t2 + 2 * h1[0]) % P, (3 * t3 + 2 * h1[1]) % P),
            ((3 * u2 + 2 * h2[0]) % P, (3 * u3 + 2 * h2[1]) % P),
        ),
    )


def fp12_cyclotomic_pow(a, e):
    """a^e for a in the cyclotomic subgroup and e >= 0.

    Uses the NAF of e: conjugation inverts in that subgroup, so a
    negative digit costs the same multiplication as a positive one.
    """
    out = FP12_ONE
    a_inv = fp12_conj(a)
    for digit in reversed(naf(e)):
        out = fp12_cyclotomic_sqr(out)
        if digit == 1:
            out = fp12_mul(out, a)
        elif digit == -1:
            out = fp12_mul(out, a_inv)
    return out


def naf(k):
    """Non-adjacent form of k >= 0, least significant digit first."""
    digits = []
    while k:
        if k & 1:
            d = 2 - (k & 3)
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def fp12_eq_one(a):
    return a == FP12_ONE


def fp12_mul_line(f, a, b, c):
    """Multiply f by the sparse line element a + b*w + c*v*w.

    ``a`` is a plain Fp scalar (the G1 point's y-coordinate); b and c are
    Fp2.  In the (Fp6, Fp6) pairing of f this operand is (g, h) with
    g = (a, 0, 0) and h = (b, c, 0).
    """
    f0, f1 = f
    g0 = ((f0[0][0] * a % P, f0[0][1] * a % P),
          (f0[1][0] * a % P, f0[1][1] * a % P),
          (f0[2][0] * a % P, f0[2][1] * a % P))
    h1 = fp6_mul_sparse(f1, b, c)
    c0 = fp6_add(g0, fp6_mul_v(h1))
    h0 = fp6_mul_sparse(f0, b, c)
    g1 = ((f1[0][0] * a % P, f1[0][1] * a % P),
          (f1[1][0] * a % P, f1[1][1] * a % P),
          (f1[2][0] * a % P, f1[2][1] * a % P))
    c1 = fp6_add(h0, g1)
    return (c0, c1)


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
