"""Signature scheme behavior: hashing, signing, aggregation."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blsces import bls
from blsces.errors import DuplicateMessageError, EncodingError, InvalidPublicKeyError, ValidationError
from blsces.groups import (
    G1_IDENTITY_BYTES,
    G2_GEN,
    G2_IDENTITY,
    g1_add,
    g1_decompress,
    g2_mul,
    g2_to_bytes,
    pairing_product_is_one,
)
from blsces.groups.params import P, R, TOY, sqrt_mod

VECTORS = json.loads((pathlib.Path(__file__).parent / "vectors" / "golden.json").read_text())

rng = random.Random(99)


# -- keygen ----------------------------------------------------------------

def test_keygen_distinct_and_consistent():
    k1 = bls.keygen(random.Random(1))
    k2 = bls.keygen(random.Random(2))
    assert k1.sk != k2.sk
    assert 0 < k1.sk < R
    assert k1.pk == g2_mul(G2_GEN, k1.sk)


def test_keygen_fixed_seed_reproducible(issuer):
    again = bls.keygen(random.Random(0xB15CE5))
    assert again == issuer
    assert f"{again.sk:064x}" == VECTORS["sk"]
    assert g2_to_bytes(again.pk).hex() == VECTORS["pk"]


# -- hash_to_g1 --------------------------------------------------------------

def test_hash_deterministic():
    a = bls.hash_to_g1(b"same message")
    b = bls.hash_to_g1(b"same message")
    assert a == b


def test_hash_point_on_curve_and_in_subgroup():
    from blsces.groups import g1_mul, G1_IDENTITY

    h = bls.hash_to_g1(b"subgroup?")
    assert (h.point.y**2 - (h.point.x**3 + 3)) % P == 0
    assert g1_mul(h.point, R) == G1_IDENTITY


def test_hash_toy_counter_walk():
    """Replay try-and-increment by hand over the toy field using only the
    candidate extractor; the accepted x set comes from the exhaustive
    residue table."""
    signing_xs = {0, 1, 4, 7, 8}
    for msg in (b"", b"a", b"counter-walk", b"zz"):
        h = bls.hash_to_g1(msg, TOY)
        for c in range(h.counter):
            x, _, _ = bls.hash_candidate(msg, c, TOY)
            assert x not in signing_xs, "an earlier counter should have landed"
        x, sign, _ = bls.hash_candidate(msg, h.counter, TOY)
        assert x in signing_xs and x == h.x
        # y = (-1)^sign * canonical root of rhs
        y0 = next(y for y in range(0, 11, 1) if y * y % 11 == TOY.rhs(x) and y % 2 == 0)
        assert h.point.y == ((11 - y0) % 11 if sign else y0)


def test_hash_at_counter_consistency():
    h = bls.hash_to_g1(b"at-counter")
    again = bls.hash_to_g1_at(b"at-counter", h.counter)
    assert again is not None and again.point == h.point
    for c in range(h.counter):
        assert bls.hash_to_g1_at(b"at-counter", c) is None


def test_counter_exhaustion_raises(monkeypatch):
    from blsces.errors import HashToCurveFailure
    from blsces.groups.params import CurveProfile

    monkeypatch.setattr(CurveProfile, "signing_root", lambda self, x: None)
    bls._hash_to_g1_cached.cache_clear()
    with pytest.raises(HashToCurveFailure):
        bls.hash_to_g1(b"never lands", TOY)
    bls._hash_to_g1_cached.cache_clear()


def test_hash_search_takes_one_square_root(monkeypatch):
    """A cold search decides each candidate by its symbol and takes one
    square root, landing on the first counter where hash_to_g1_at lands."""
    from blsces.groups import params

    local = random.Random(29)
    msgs = [e["msg"].encode() for e in VECTORS["signatures"]] + [local.randbytes(71) for _ in range(200)]
    firsts = [next(h for c in range(bls.COUNTER_BOUND) if (h := bls.hash_to_g1_at(m, c)) is not None) for m in msgs]
    assert sum(h.counter > 0 for h in firsts) > len(msgs) // 4
    roots = []
    monkeypatch.setattr(params, "sqrt_mod", lambda a, p: roots.append(a) or sqrt_mod(a, p))
    for msg, first in zip(msgs, firsts):
        roots.clear()
        assert bls._hash_to_g1_cached.__wrapped__(msg, "bn254") == first
        assert len(roots) == 1


def test_sign_bit_is_highest_spare_bit():
    import hashlib

    msg, counter = b"spare-bits", 0
    digest = int.from_bytes(hashlib.sha256(msg + bytes([counter])).digest(), "big")
    x, sign, spare = bls.hash_candidate(msg, counter)
    assert x == digest >> 2
    assert spare == digest & 3
    assert sign == (digest >> 1) & 1


# -- sign / verify -------------------------------------------------------------

def test_sign_deterministic(issuer):
    assert bls.sign(issuer.sk, b"m") == bls.sign(issuer.sk, b"m")


def test_sign_verify_thousand_random_messages(issuer):
    for _ in range(1000):
        msg = rng.randbytes(rng.randint(0, 64))
        sig = bls.sign(issuer.sk, msg)
        assert bls.verify(issuer.pk, msg, sig)


def test_golden_signatures(issuer):
    for entry in VECTORS["signatures"]:
        msg = entry["msg"].encode()
        sig = bls.sign(issuer.sk, msg)
        assert sig.data.hex() == entry["sig"]
        assert bls.hash_to_g1(msg).counter == entry["counter"]


def test_verify_rejects_flipped_bit(issuer):
    sig = bls.sign(issuer.sk, b"exact message")
    assert not bls.verify(issuer.pk, b"exact messagf", sig)


def test_verify_rejects_wrong_key(issuer):
    other = bls.keygen(random.Random(4))
    sig = bls.sign(issuer.sk, b"bound to key")
    assert not bls.verify(other.pk, b"bound to key", sig)


def test_verify_malformed_signature_distinct_error(issuer):
    with pytest.raises(EncodingError):
        bls.verify(issuer.pk, b"m", bls.Signature(bytes(32)))


def test_verify_rejects_identity_key(issuer):
    # e(H, identity) is 1 for every H, so the identity aggregate would
    # "verify" any message under the identity key.
    identity_sig = bls.Signature(G1_IDENTITY_BYTES)
    with pytest.raises(InvalidPublicKeyError):
        bls.verify(G2_IDENTITY, b"any message", identity_sig)
    with pytest.raises(InvalidPublicKeyError):
        bls.verify_aggregate([issuer.pk, G2_IDENTITY], [b"m0", b"m1"], bls.sign(issuer.sk, b"m0"))


def test_forgery_rejected_sampled(issuer):
    for _ in range(20):
        fake = bls.Signature(bls.sign(issuer.sk, rng.randbytes(8)).data)
        msg = rng.randbytes(12)
        assert not bls.verify(issuer.pk, msg, fake)


# -- aggregation ----------------------------------------------------------------

def test_aggregate_singleton(issuer):
    s = bls.sign(issuer.sk, b"one")
    assert bls.aggregate([s]) == s


def test_aggregate_empty_is_identity():
    assert bls.aggregate([]).data == G1_IDENTITY_BYTES


def test_aggregate_matches_point_sum(issuer):
    msgs = [bytes([i]) * 4 for i in range(5)]
    sigs = [bls.sign(issuer.sk, m) for m in msgs]
    agg = bls.aggregate(sigs)
    total = g1_decompress(sigs[0].data)
    for s in sigs[1:]:
        total = g1_add(total, g1_decompress(s.data))
    assert g1_decompress(agg.data) == total


def test_aggregate_identifies_malformed_index(issuer):
    sigs = [bls.sign(issuer.sk, b"x"), bls.Signature(bytes(32))]
    with pytest.raises(EncodingError, match="signature 1"):
        bls.aggregate(sigs)


def test_verify_aggregate_basics(issuer):
    keys = [bls.keygen(random.Random(i)) for i in (10, 11, 12)]
    msgs = [b"m0", b"m1", b"m2"]
    sigs = [bls.sign(k.sk, m) for k, m in zip(keys, msgs)]
    agg = bls.aggregate(sigs)
    assert bls.verify_aggregate([k.pk for k in keys], msgs, agg)
    # n = 1 reduces to plain verification
    assert bls.verify_aggregate([keys[0].pk], [msgs[0]], sigs[0]) == bls.verify(keys[0].pk, msgs[0], sigs[0])


def test_verify_aggregate_leave_one_out_rejects(issuer):
    keys = [bls.keygen(random.Random(i)) for i in (20, 21, 22)]
    msgs = [b"a", b"b", b"c"]
    sigs = [bls.sign(k.sk, m) for k, m in zip(keys, msgs)]
    for drop in range(3):
        partial = bls.aggregate([s for i, s in enumerate(sigs) if i != drop])
        assert not bls.verify_aggregate([k.pk for k in keys], msgs, partial)


def test_verify_aggregate_input_validation(issuer):
    sig = bls.sign(issuer.sk, b"m")
    with pytest.raises(ValidationError):
        bls.verify_aggregate([issuer.pk], [], sig)
    with pytest.raises(ValidationError):
        bls.verify_aggregate([issuer.pk, issuer.pk], [b"m"], sig)
    with pytest.raises(DuplicateMessageError):
        bls.verify_aggregate([issuer.pk, issuer.pk], [b"m", b"m"], sig)


def _per_pair_verdict(pks, points, agg):
    """The unsummed equation: one pair per (point, key), then the aggregate."""
    pairs = [(pt, pk) for pk, pt in zip(pks, points)]
    pairs.append((-bls.decode_signature(agg), G2_GEN))
    return pairing_product_is_one(pairs)


def test_verify_aggregate_points_matches_per_pair_product(issuer):
    other = bls.keygen(random.Random(31))
    hashed = [bls.hash_to_g1(f"summed {i}".encode()) for i in range(4)]
    points = [h.point for h in hashed]
    for keys in ([issuer] * 4, [issuer, other, issuer, other]):
        pks = [k.pk for k in keys]
        sigs = [bls.sign_hashed(k.sk, h) for k, h in zip(keys, hashed)]
        honest = bls.aggregate(sigs)
        # one member signed under the wrong key or over the wrong message
        impostor = issuer if keys[3] is other else other
        wrong_key = bls.aggregate(sigs[:3] + [bls.sign_hashed(impostor.sk, hashed[3])])
        wrong_msg = bls.aggregate(sigs[:3] + [bls.sign(keys[3].sk, b"not summed")])
        for agg, expect in ((honest, True), (wrong_key, False), (wrong_msg, False)):
            assert bls.verify_aggregate_points(pks, points, agg) is _per_pair_verdict(pks, points, agg) is expect
        # the same points claimed under swapped keys
        if len(set(pks)) > 1:
            swapped = pks[1:] + pks[:1]
            assert not bls.verify_aggregate_points(swapped, points, honest)
            assert not _per_pair_verdict(swapped, points, honest)


def test_verify_aggregate_points_checks_every_point(issuer):
    from blsces.errors import OffCurveError
    from blsces.groups import G1Point

    h = bls.hash_to_g1(b"on curve").point
    off = G1Point(h.x, (h.y + 1) % P)
    sig = bls.aggregate([bls.sign(issuer.sk, b"on curve")] * 2)
    with pytest.raises(OffCurveError):
        bls.verify_aggregate_points([issuer.pk] * 3, [h, off, -off], sig)


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_aggregation_homomorphism_one_key(issuer, k, hrng):
    msgs = list({hrng.randbytes(6) for _ in range(k)})
    sigs = [bls.sign(issuer.sk, m) for m in msgs]
    agg = bls.aggregate(sigs)
    assert bls.verify_aggregate([issuer.pk] * len(msgs), msgs, agg)


@given(st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_aggregate_order_independent(issuer, hrng):
    msgs = [b"p0", b"p1", b"p2", b"p3"]
    sigs = [bls.sign(issuer.sk, m) for m in msgs]
    perm = list(range(4))
    hrng.shuffle(perm)
    assert bls.aggregate([sigs[i] for i in perm]) == bls.aggregate(sigs)
    assert bls.verify_aggregate(
        [issuer.pk] * 4, [msgs[i] for i in perm], bls.aggregate(sigs)
    )
