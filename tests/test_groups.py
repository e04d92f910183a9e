"""Group laws, scalar multiplication, and point serialization."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_pairing import _neg as naive_neg, _padd as naive_padd, lift_g2
from blsces import bls
from blsces.errors import EncodingError, OffCurveError, ValidationError
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
from blsces.groups.params import BN_U, P, R, TOY
from blsces.groups.points import (
    GLV_BETA,
    GLV_LAMBDA,
    G1Point,
    G2Point,
    _GLV_A1,
    _GLV_A2,
    _GLV_B1,
    _GLV_B2,
    _j1_madd,
    _j1_to,
    _j1_walk,
    g1_mul_many,
    g2_mul_gen,
    glv_split,
)
from blsces.groups.tower import wnaf

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


def _naive_g2_mul(q, k):
    """[k]q by double-and-add over the naive oracle's untwisted affine
    points in E(Fp12), sharing no formula with g2_mul; None is O."""
    base = lift_g2((q.x, q.y))
    if k < 0:
        base, k = (base[0], naive_neg(base[1])), -k
    acc = None
    for bit in bin(k)[2:]:
        if acc is not None:
            acc = naive_padd(acc, acc)
        if bit == "1":
            acc = naive_padd(acc, base)
    return acc


def test_g2_mul_matches_naive_oracle():
    """g2_mul against the naive oracle, on members and non-members of G2
    and on scalars around R, where a non-member's [k]Q and [k mod R]Q
    differ."""
    rng = random.Random(7)
    points = [G2_GEN, *(g2_mul(G2_GEN, rng.randrange(1, R)) for _ in range(2))]
    points += [_random_twist_point(rng) for _ in range(2)]
    scalars = [0, 1, 2, 3, R - 1, R, R + 1, -1, -2, -(R + 1)]
    scalars += [rng.getrandbits(254) for _ in range(2)] + [-rng.getrandbits(254)]
    for q in points:
        for k in scalars:
            got = g2_mul(q, k)
            assert (None if got.infinity else lift_g2((got.x, got.y))) == _naive_g2_mul(q, k), k


def test_g2_mul_gen_matches_g2_mul():
    """The fixed-base table path agrees with g2_mul on seeded random
    scalars and on the recoding's edges: a digit of 8, the first carry at
    9, 16^i +- 8 in every window, the top of the range, scalars of R and
    above (reduced mod R), and multiples of R (the identity)."""
    rng = random.Random(17)
    scalars = [rng.randrange(1, R) for _ in range(50)]
    scalars += [1, 8, 9, 15, 16, 17, R - 1, R + 1, R + 9, 3 * R - 8, rng.getrandbits(300)]
    scalars += [16**i + s for i in range(1, 64) for s in (8, -8)]
    for k in scalars:
        assert g2_mul_gen(k) == g2_mul(G2_GEN, k), k
    for k in (0, R, 5 * R):
        assert g2_mul_gen(k) == G2_IDENTITY


def test_g2_mul_gen_table_built_once_on_first_use():
    """Importing the package builds no table; the first key builds it and
    later keys reuse it."""
    script = (
        "import random, blsces, blsces.cli, blsces.zk\n"
        "from blsces.groups import points\n"
        "assert points._gen_table.cache_info().currsize == 0\n"
        "for seed in range(3):\n"
        "    blsces.bls.keygen(random.Random(seed))\n"
        "info = points._gen_table.cache_info()\n"
        "print(info.misses, info.hits)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]


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


# -- GLV scalar multiplication -------------------------------------------------


def _affine_add(a, b):
    """Textbook affine addition on y^2 = x^3 + 3, sharing no code with
    the library's Jacobian formulas."""
    if a.infinity:
        return b
    if b.infinity:
        return a
    if a.x == b.x:
        if (a.y + b.y) % P == 0:
            return G1_IDENTITY
        slope = 3 * a.x * a.x * pow(2 * a.y, -1, P) % P
    else:
        slope = (b.y - a.y) * pow(b.x - a.x, -1, P) % P
    x = (slope * slope - a.x - b.x) % P
    return G1Point(x, (slope * (a.x - x) - a.y) % P)


def ladder(pt, k):
    """[k]pt by plain double-and-add over k mod R: the oracle for g1_mul."""
    acc = G1_IDENTITY
    for bit in bin(k % R)[2:]:
        acc = _affine_add(acc, acc)
        if bit == "1":
            acc = _affine_add(acc, pt)
    return acc


def _rounding_at_half(g):
    """The two scalars k whose product k*g sits next to R/2 mod R, so that
    rounding k*g/R lands just below and just above one half (R is odd,
    so exactly one half cannot occur)."""
    return [(R - 1) // 2 * pow(g, -1, R) % R, (R + 1) // 2 * pow(g, -1, R) % R]


EDGE_SCALARS = [
    0, 1, 2, 3, 15, 16, 17, R - 1, R, R + 1, -1, -7, -(R + 12345), 2 * R + 5,
    GLV_LAMBDA, R - GLV_LAMBDA, GLV_LAMBDA + 1, 1 << 127, (1 << 128) - 1,
    1 << 128, (1 << 254) - 1,
    *_rounding_at_half(-_GLV_B2), *_rounding_at_half(_GLV_B1),
]


def _check_split(k):
    k1, k2 = glv_split(k % R)
    assert (k1 + k2 * GLV_LAMBDA - k) % R == 0
    assert abs(k1) < 1 << 127 and abs(k2) < 1 << 127


def test_glv_constants():
    assert GLV_BETA != 1 and pow(GLV_BETA, 3, P) == 1
    assert (GLV_LAMBDA * GLV_LAMBDA + GLV_LAMBDA + 1) % R == 0
    assert G1Point(GLV_BETA * G1_GEN.x % P, G1_GEN.y) == ladder(G1_GEN, GLV_LAMBDA)
    for a, b in ((_GLV_A1, _GLV_B1), (_GLV_A2, _GLV_B2)):
        assert (a + b * GLV_LAMBDA) % R == 0
    assert abs(_GLV_A1 * _GLV_B2 - _GLV_A2 * _GLV_B1) == R


def test_g1_mul_matches_ladder_on_edge_scalars():
    points = [G1_GEN, bls.hash_to_g1(b"glv").point, random_g1()]
    for k in EDGE_SCALARS:
        _check_split(k)
        for pt in points:
            assert g1_mul(pt, k) == ladder(pt, k), k
        assert g1_mul(G1_IDENTITY, k) == G1_IDENTITY
    assert glv_split(GLV_LAMBDA) == (0, 1)


def test_g1_mul_matches_ladder_on_random_points_and_scalars():
    for _ in range(20):
        pt = random_g1()
        k = rng.randrange(-R, 2 * R)
        _check_split(k)
        assert g1_mul(pt, k) == ladder(pt, k)


@given(st.integers(min_value=-(1 << 260), max_value=1 << 260), st.integers(min_value=1, max_value=R - 1))
@settings(max_examples=25, deadline=None)
def test_g1_mul_matches_ladder_property(k, m):
    pt = g1_mul(G1_GEN, m)
    _check_split(k)
    assert g1_mul(pt, k) == ladder(pt, k)


def test_mixed_addition_special_cases():
    pt = random_g1()
    jac = (pt.x, pt.y, 1)
    assert _j1_to(_j1_madd((1, 1, 0), (pt.x, pt.y))) == pt
    assert _j1_to(_j1_madd(jac, (pt.x, pt.y))) == _affine_add(pt, pt)
    assert _j1_to(_j1_madd(jac, (pt.x, -pt.y % P))) == G1_IDENTITY
    # a Jacobian representative with z != 1 exercises the scaled compare
    z = 12345
    scaled = (pt.x * z * z % P, pt.y * z**3 % P, z)
    assert _j1_to(_j1_madd(scaled, (pt.x, pt.y))) == _affine_add(pt, pt)
    q = random_g1()
    assert _j1_to(_j1_madd(scaled, (q.x, q.y))) == _affine_add(pt, q)


def test_g1_mul_many_matches_ladder_on_random_points_and_scalars():
    for m in (1, 2, 5):
        pts = [random_g1() for _ in range(m)]
        k = rng.randrange(-R, 2 * R)
        assert g1_mul_many(pts, k) == [ladder(pt, k) for pt in pts]


def test_g1_mul_many_edge_scalars_and_members():
    """k = 0, 1, -1, R - 1, R and R + 1 over a batch that holds the
    identity twice and one point twice; the empty batch is empty."""
    p, q = random_g1(), bls.hash_to_g1(b"batch").point
    pts = [G1_IDENTITY, p, q, G1_IDENTITY, p]
    for k in (0, 1, -1, R - 1, R, R + 1):
        assert g1_mul_many(pts, k) == [ladder(pt, k) for pt in pts], k
    assert g1_mul_many([], rng.randrange(R)) == []
    assert g1_mul_many([G1_IDENTITY] * 3, 5) == [G1_IDENTITY] * 3


def test_g1_mul_many_batch_of_16_matches_one_point_calls():
    pts = [bls.hash_to_g1(b"claim %d" % i).point for i in range(16)]
    k = rng.randrange(1, R)
    many = g1_mul_many(pts, k)
    assert many == [g1_mul(pt, k) for pt in pts]
    assert many[3] == ladder(pts[3], k) and many[15] == ladder(pts[15], k)


def test_j1_walk_falls_back_on_equal_x():
    """The walk's inline mixed addition hands the identity and a point of
    the sum's x to _j1_madd: adding P to P doubles, adding -P to P
    cancels, and adding to the identity starts again from the entry."""
    pt, q = random_g1(), random_g1()
    table = [(pt.x, pt.y), (pt.x, -pt.y % P), (q.x, q.y)]
    two = _affine_add(pt, pt)
    cases = [
        ([0, 0], two),  # P + P: the doubling case
        ([0, None, 1, 0], two),  # 2P - P + P: equal x in a Jacobian sum
        ([0, None, 1, 1], G1_IDENTITY),  # 2P - P - P: the cancelling case
        ([0, 1, 2], q),  # P - P, then Q added to the identity
        ([0, 1, None, 0], pt),  # the identity doubled stays the identity
        ([2, None, 0, 0], _affine_add(_affine_add(q, q), two)),
    ]
    for schedule, expect in cases:
        assert _j1_to(_j1_walk(table, schedule)) == expect, schedule


def test_batched_signing_is_byte_identical_to_one_at_a_time(issuer):
    hashed = [bls.hash_to_g1(b"claim %d" % i) for i in range(6)]
    batch = [g1_compress(pt) for pt in bls.sign_points(issuer.sk, hashed)]
    assert batch == [bls.sign_hashed(issuer.sk, h).data for h in hashed]
    assert batch == [g1_compress(ladder(h.point, issuer.sk)) for h in hashed]
    assert bls.sign_points(issuer.sk, []) == []
    with pytest.raises(ValidationError):
        bls.sign_points(R, hashed)


def _naf(k):
    """The plain NAF loop that wnaf(k, 2) replaced."""
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


def test_wnaf_width_2_is_naf():
    for k in [*range(4096), BN_U, 6 * BN_U + 2]:
        assert wnaf(k, 2) == _naf(k)


@given(st.integers(min_value=0, max_value=1 << 300), st.integers(min_value=2, max_value=8))
@settings(max_examples=300, deadline=None)
def test_wnaf_digits(k, w):
    digits = wnaf(k, w)
    assert sum(d << i for i, d in enumerate(digits)) == k
    assert not digits or digits[-1] != 0
    for i, d in enumerate(digits):
        if d:
            assert d % 2 == 1 and abs(d) < 1 << (w - 1)
            assert not any(digits[i + 1 : i + w])
