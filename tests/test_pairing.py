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
from blsces.groups.pairing import _final_exponentiation
from blsces.groups.params import BN_U, P, R
from blsces.groups.tower import (
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
        for e in (0, 1, 2, 3, 7):
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
