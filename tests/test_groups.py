"""Group laws, scalar multiplication, and point serialization."""

import random

import pytest

from blsces import bls
from blsces.errors import EncodingError, OffCurveError
from blsces.groups import (
    G1_GEN,
    G1_IDENTITY,
    G1_IDENTITY_BYTES,
    G2_GEN,
    G2_IDENTITY,
    check_g1,
    check_g2,
    decompress_x,
    g1_add,
    g1_compress,
    g1_decompress,
    g1_mul,
    g1_sum,
    g2_add,
    g2_from_bytes,
    g2_mul,
    g2_to_bytes,
)
from blsces.groups.params import P, R, TOY
from blsces.groups.points import G1Point, G2Point

rng = random.Random(2024)


def random_g1(k=None):
    return g1_mul(G1_GEN, k if k is not None else rng.randrange(1, R))


def test_identity_laws():
    p = random_g1()
    assert g1_add(p, G1_IDENTITY) == p
    assert g1_add(G1_IDENTITY, p) == p
    assert g1_mul(p, 0) == G1_IDENTITY
    assert g2_add(G2_GEN, G2_IDENTITY) == G2_GEN
    assert g2_mul(G2_GEN, 0) == G2_IDENTITY


def test_doubling_matches_addition():
    for _ in range(100):
        p = random_g1()
        assert g1_mul(p, 2) == g1_add(p, p)


def test_scalar_distributivity_bulk():
    # (a + b) * P == a*P + b*P over 1000 random cases; scalars span the
    # full range, points come from cheap small multiples of the generator
    base_points = [random_g1() for _ in range(8)]
    for trial in range(1000):
        p = base_points[trial % len(base_points)]
        a = rng.randrange(R)
        b = rng.randrange(R)
        left = g1_mul(p, (a + b) % R)
        right = g1_add(g1_mul(p, a), g1_mul(p, b))
        assert left == right


def test_addition_inverse_and_commutativity():
    p, q = random_g1(), random_g1()
    assert g1_add(p, q) == g1_add(q, p)
    assert g1_add(p, -p) == G1_IDENTITY


def test_g1_sum_matches_pairwise_addition():
    p, q = random_g1(), random_g1()
    assert g1_sum([]) == G1_IDENTITY
    assert g1_sum([p]) == p
    assert g1_sum([p, -p]) == G1_IDENTITY
    assert g1_sum([p, p]) == g1_mul(p, 2)
    assert g1_sum([p, G1_IDENTITY, q, p]) == g1_add(g1_add(p, q), p)


def test_g1_order_is_r():
    # r * P = O on hashed and random points; with Hasse's bound this
    # pins the curve order to exactly r (cofactor 1)
    for msg in (b"a", b"b", b"c"):
        h = bls.hash_to_g1(msg).point
        assert g1_mul(h, R) == G1_IDENTITY
    assert g1_mul(random_g1(), R) == G1_IDENTITY


def test_g2_subgroup_checks():
    assert g2_mul(G2_GEN, R) == G2_IDENTITY
    check_g2(g2_mul(G2_GEN, 12345))
    # a point on the twist but outside the order-r subgroup must fail:
    # build one by finding an x whose rhs is a square, then checking the
    # candidate is not killed by r
    from blsces.groups.points import TWIST_B, g2_on_curve
    from blsces.groups.tower import fp2_add, fp2_mul, fp2_sqr

    found = None
    x1 = 0
    while found is None:
        x1 += 1
        x = (x1, 1)
        rhs = fp2_add(fp2_mul(fp2_sqr(x), x), TWIST_B)
        # sqrt in Fp2 via norm: solvable iff norm is a QR and the usual
        # half-trace works; cheap trial: try y of the form (t, u) by
        # brute-forcing small candidates is hopeless, so instead use the
        # standard complex square root formula
        a, b = rhs
        norm = (a * a + b * b) % P
        s = pow(norm, (P + 1) // 4, P)
        if s * s % P != norm:
            continue
        t = (a + s) * pow(2, -1, P) % P
        u = pow(t, (P + 1) // 4, P)
        if u * u % P != t:
            t = (a - s) * pow(2, -1, P) % P
            u = pow(t, (P + 1) // 4, P)
            if u * u % P != t:
                continue
        v = b * pow(2 * u, -1, P) % P
        y = (u, v)
        if fp2_sqr(y) == rhs:
            cand = G2Point(x, y)
            assert g2_on_curve(cand)
            if not g2_mul(cand, R).is_identity():
                found = cand
    with pytest.raises(OffCurveError):
        check_g2(found)


def _fp2_sqrt(a):
    """A square root in Fp2 through the norm, or None."""
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % P
    s = pow(norm, (P + 1) // 4, P)
    if s * s % P != norm:
        return None
    for root in (s, -s):
        t = (a0 + root) * pow(2, -1, P) % P
        u = pow(t, (P + 1) // 4, P)
        if u and u * u % P == t:
            return (u, a1 * pow(2 * u, -1, P) % P)
    return None


def _random_twist_point(rng):
    """A point of the whole twist group E'(Fp2), of order dividing h*r."""
    from blsces.groups.points import TWIST_B
    from blsces.groups.tower import fp2_add, fp2_mul, fp2_sqr

    while True:
        x = (rng.randrange(P), rng.randrange(P))
        y = _fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), TWIST_B))
        if y is not None:
            return G2Point(x, y)


def _passes_check_g2(q):
    try:
        check_g2(q)
    except OffCurveError:
        return False
    return True


def test_g2_endomorphism_check_matches_literal():
    """check_g2's psi-based test gives the verdict of [r]Q == O on members
    and on each kind of non-member the twist has (cofactor h = 2p - r)."""
    rng = random.Random(2022)
    h = 2 * P - R
    members = [g2_mul(G2_GEN, rng.randrange(1, R)) for _ in range(6)]
    members += [g2_mul(_random_twist_point(rng), h) for _ in range(6)]
    torsion = [g2_mul(_random_twist_point(rng), R) for _ in range(6)]
    while True:
        small = g2_mul(_random_twist_point(rng), h * R // 10069)
        if not small.is_identity():
            break
    assert h % 10069 == 0 and g2_mul(small, 10069).is_identity()
    non_members = [_random_twist_point(rng) for _ in range(6)]
    non_members += torsion + [small, g2_add(small, small)]
    non_members += [g2_add(m, t) for m, t in zip(members, torsion)]
    non_members += [g2_add(m, small) for m in members[:3]]
    for q in members:
        assert g2_mul(q, R).is_identity() and _passes_check_g2(q)
    for q in non_members:
        assert not g2_mul(q, R).is_identity() and not _passes_check_g2(q)


def test_off_curve_rejection():
    with pytest.raises(OffCurveError):
        check_g1(G1Point(1, 1))
    with pytest.raises(OffCurveError):
        check_g2(G2Point((1, 2), (3, 4)))


# -- compression ---------------------------------------------------------------


def test_compress_roundtrip_bulk():
    for _ in range(1000):
        p = random_g1()
        assert g1_decompress(g1_compress(p)) == p


def test_identity_encoding():
    assert g1_compress(G1_IDENTITY) == G1_IDENTITY_BYTES
    assert g1_decompress(G1_IDENTITY_BYTES) == G1_IDENTITY
    assert G1_IDENTITY_BYTES[0] == 0x40 and set(G1_IDENTITY_BYTES[1:]) == {0}


def test_flipped_sign_bit_negates():
    for _ in range(20):
        p = random_g1()
        data = bytearray(g1_compress(p))
        data[0] ^= 0x80
        assert g1_decompress(bytes(data)) == -p


def test_malformed_compressions():
    with pytest.raises(EncodingError):
        g1_decompress(bytes(31))  # wrong length
    with pytest.raises(EncodingError):
        g1_decompress(bytes([0x40, 1]) + bytes(30))  # identity flag with payload
    with pytest.raises(EncodingError):
        g1_decompress(P.to_bytes(32, "big"))  # x out of range
    # an x whose rhs is a non-residue cannot decompress
    x = next(x for x in range(2, 100) if not __import__("blsces.groups.params", fromlist=["legendre"]).legendre((x**3 + 3) % P, P) == 1)
    with pytest.raises(EncodingError):
        g1_decompress(x.to_bytes(32, "big"))


def test_toy_decompression_table():
    # x = 1 over the toy field: rhs = 4 with roots {2, 9}; the sign bit
    # selects between them (canonical even root is 2)
    assert decompress_x(1, 0, TOY) == (1, 2)
    assert decompress_x(1, 1, TOY) == (1, 9)
    for x in range(11):
        rhs = TOY.rhs(x)
        roots = sorted(y for y in range(11) if y * y % 11 == rhs)
        if not roots:
            with pytest.raises(EncodingError):
                decompress_x(x, 0, TOY)
        else:
            got = {decompress_x(x, 0, TOY)[1], decompress_x(x, 1, TOY)[1]}
            assert got == set(roots) or roots == [0]


def test_g2_serialization_roundtrip():
    for k in (1, 2, 12345):
        q = g2_mul(G2_GEN, k)
        assert g2_from_bytes(g2_to_bytes(q)) == q
    assert g2_from_bytes(bytes(128)) == G2_IDENTITY
    with pytest.raises(EncodingError):
        g2_from_bytes(bytes(127))
    with pytest.raises(EncodingError):
        g2_from_bytes(bytes(64) + b"\x01" + bytes(63))
