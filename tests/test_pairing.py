"""Pairing properties and the independent-implementation cross-check."""

import random

from naive_pairing import ONE as NAIVE_ONE, naive_pairing, tower_to_poly
from blsces.groups import (
    G1_GEN,
    G1_IDENTITY,
    G2_GEN,
    G2_IDENTITY,
    GT_IDENTITY,
    g1_mul,
    g2_mul,
    pairing,
    pairing_product,
    pairing_product_is_one,
)
from blsces.groups.pairing import (
    _ATE_NAF,
    TW_FROB2_X,
    G2Precomp,
    _add_step,
    _double_step,
    _final_exponentiation,
)
from blsces.groups.params import BN_U, P, R
from blsces.groups.points import _j2_double, _j2_madd, g2_psi
from blsces.groups.tower import (
    fp2_inv,
    fp2_mul,
    fp2_neg,
    fp2_smul,
    fp2_sqr,
    fp2_sub,
    fp12_conj,
    fp12_cyclotomic_pow,
    fp12_cyclotomic_sqr,
    fp12_frobenius,
    fp12_inv,
    fp12_mul,
    fp12_pow,
    fp12_sqr,
)

rng = random.Random(555)


def test_pairing_of_identity_inputs():
    assert pairing(G1_IDENTITY, G2_GEN) == GT_IDENTITY
    assert pairing(G1_GEN, G2_IDENTITY) == GT_IDENTITY


def test_nondegenerate_and_order():
    e = pairing(G1_GEN, G2_GEN)
    assert not e.is_identity()
    assert (e ** R).is_identity()


def test_bilinearity_symmetry():
    a = rng.randrange(2, 1000)
    assert pairing(g1_mul(G1_GEN, a), G2_GEN) == pairing(G1_GEN, g2_mul(G2_GEN, a))


def test_bilinearity_exponent():
    e = pairing(G1_GEN, G2_GEN)
    for _ in range(4):
        a = rng.randrange(2, 1 << 64)
        b = rng.randrange(2, 1 << 64)
        assert pairing(g1_mul(G1_GEN, a), g2_mul(G2_GEN, b)) == e ** (a * b)


def test_inverse_product():
    p = g1_mul(G1_GEN, 7)
    assert pairing_product_is_one([(p, G2_GEN), (-p, G2_GEN)])
    assert not pairing_product_is_one([(p, G2_GEN), (p, G2_GEN)])


def test_matches_independent_implementation():
    """The production tower/precomp pairing equals a from-scratch naive
    full-extension pairing on random inputs, including full-size scalars."""
    cases = [(1, 1), (5, 7), (rng.randrange(2, R), rng.randrange(2, R))]
    for a, b in cases:
        p = g1_mul(G1_GEN, a)
        q = g2_mul(G2_GEN, b)
        mine = tower_to_poly(pairing(p, q).value)
        ref = naive_pairing((p.x, p.y), (q.x, q.y))
        assert mine == ref
    assert tower_to_poly(pairing(G1_GEN, G2_GEN).value) != NAIVE_ONE


def _line_through(x1, y1, x2, y2):
    """The chord or tangent as stored, (1/c, lam/c) for its slope lam and
    constant term c = lam*x1 - y1, by plain affine inversions, and the
    point it makes."""
    if x1 == x2:
        assert y1 == y2, "vertical line"
        num = fp2_smul(fp2_sqr(x1), 3)
        den = fp2_smul(y1, 2)
    else:
        num = fp2_sub(y2, y1)
        den = fp2_sub(x2, x1)
    lam = fp2_mul(num, fp2_inv(den))
    x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)
    c_inv = fp2_inv(fp2_sub(fp2_mul(lam, x1), y1))
    return (c_inv, fp2_mul(lam, c_inv)), (x3, y3)


def _affine_lines(q):
    """G2Precomp's steps and tail by the plain affine walk: the reference
    for its Jacobian walk with one shared inversion."""
    neg_y = fp2_neg(q.y)
    t = (q.x, q.y)
    steps = []
    for d in reversed(_ATE_NAF[:-1]):
        dbl, t = _line_through(*t, *t)
        add = None
        if d:
            add, t = _line_through(*t, q.x, q.y if d == 1 else neg_y)
        steps.append((dbl, add))
    q1 = g2_psi(q)
    l1, t = _line_through(*t, q1.x, q1.y)
    l2, _ = _line_through(*t, fp2_smul(q.x, TW_FROB2_X[0]), q.y)
    return steps, (l1, l2)


def test_line_precompute_matches_affine_walk():
    keyrng = random.Random(1789)
    for q in [G2_GEN, *(g2_mul(G2_GEN, keyrng.randrange(1, R)) for _ in range(5))]:
        pre = G2Precomp(q)
        assert (pre.steps, pre.tail) == _affine_lines(q)


def test_walk_steps_match_the_jacobian_kernels():
    """Each walk step lands on the very tuple points._j2_double or _j2_madd
    gives, at any Z, for both signs of the added point, so the walk ends
    where the plain kernels do; its line, divided by its constant term,
    is the affine tangent or chord."""

    def divided(line):
        c, m, n = line
        ci = fp2_inv(c)
        return fp2_mul(m, ci), fp2_mul(n, ci)

    steprng = random.Random(2011)
    for _ in range(6):
        tq, aq = (g2_mul(G2_GEN, steprng.randrange(1, R)) for _ in range(2))
        z = (steprng.randrange(P), steprng.randrange(P))
        assert z not in ((0, 0), (1, 0))
        z2 = fp2_sqr(z)
        t = (*fp2_mul(tq.x, z2), *fp2_mul(fp2_mul(tq.y, z2), z), *z)
        t2, line = _double_step(t)
        assert t2 == _j2_double(t)
        assert divided(line) == _line_through(tq.x, tq.y, tq.x, tq.y)[0]
        for ay in (aq.y, fp2_neg(aq.y)):
            a = (*aq.x, *ay)
            ta, line = _add_step(t, a)
            assert ta == _j2_madd(t, a)
            assert divided(line) == _line_through(tq.x, tq.y, aq.x, ay)[0]


def test_product_shares_final_exponentiation():
    a, b = 11, 13
    pa, pb = g1_mul(G1_GEN, a), g1_mul(G1_GEN, b)
    combined = pairing_product([(pa, G2_GEN), (pb, G2_GEN)])
    assert combined == pairing(g1_mul(G1_GEN, a + b), G2_GEN)


def _random_fp12():
    return tuple(tuple((rng.randrange(P), rng.randrange(P)) for _ in range(3)) for _ in range(2))


def _easy_part(f):
    """f^((p^6 - 1)(p^2 + 1)), which lands in the cyclotomic subgroup."""
    t = fp12_mul(fp12_conj(f), fp12_inv(f))
    return fp12_mul(fp12_frobenius(t, 2), t)


def test_cyclotomic_sqr_matches_generic_after_easy_part():
    for _ in range(5):
        f = _random_fp12()
        c = _easy_part(f)
        assert fp12_cyclotomic_sqr(c) == fp12_sqr(c)
        assert fp12_cyclotomic_pow(c, BN_U) == fp12_pow(c, BN_U)
        # between them every width-4 digit from -7 to 7, and top digits
        # 1, 3, 5 and 7
        for e in (0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 2**64 - 1, BN_U):
            assert fp12_cyclotomic_pow(c, e) == fp12_pow(c, e)
        # the precondition matters: off the subgroup the shortcut is wrong
        assert fp12_cyclotomic_sqr(f) != fp12_sqr(f)


def test_final_exponentiation_matches_plain_power():
    """The hard part's cyclotomic chain equals f^((p^12 - 1) / r)."""
    f = _random_fp12()
    assert _final_exponentiation(f) == fp12_pow(f, (P**12 - 1) // R)


def test_product_of_many_pairs_matches_separate_pairings():
    """Lockstep Miller loops over mixed keys equal the product of the
    single pairings."""
    keys = [g2_mul(G2_GEN, k) for k in (3, 5)]
    pts = [g1_mul(G1_GEN, k) for k in (2, 7, 11)]
    pairs = [(pts[0], keys[0]), (pts[1], keys[1]), (pts[2], keys[0]), (G1_IDENTITY, keys[1])]
    expected = GT_IDENTITY
    for pt, q in pairs:
        expected = expected * pairing(pt, q)
    assert pairing_product(pairs) == expected
    assert pairing_product(pairs) == pairing(G1_GEN, G2_GEN) ** (3 * 2 + 5 * 7 + 3 * 11)
