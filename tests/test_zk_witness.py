"""Hash-to-curve witnesses against exhaustive-table and modexp oracles."""

import random

import pytest

from blsces import bls
from blsces.credential import CEAS, Claim, Credential
from blsces.errors import ValidationError
from blsces.groups.params import BN254, TOY
from blsces.groups import decompress_x
from blsces.zk.witness import hash_to_curve_witness

rng = random.Random(41)

TOY_CEAS = CEAS.from_index_sets(1, [[0]])

# Exhaustive residue table over p = 11: x -> rhs is a nonzero square?
TOY_SIGNING = {x: (x < 11 and pow((x**3 + 3) % 11, 5, 11) == 1) for x in range(16)}


def toy_claim(tag: str) -> Claim:
    return Claim("h", "p", tag)


def test_toy_signing_table():
    assert {x for x, ok in TOY_SIGNING.items() if ok} == {0, 1, 4, 7, 8}


def test_toy_signing_table_matches_profile():
    """The Euler-criterion table agrees with the profile's own test."""
    assert all(TOY.is_signing_x(x) == ok for x, ok in TOY_SIGNING.items())


def test_witness_agrees_with_hash_to_g1_toy():
    """The witness path and the signing hash agree on (x, sign, counter)
    for messages covering every reachable signing x."""
    seen_x = set()
    tag = 0
    while seen_x != {0, 1, 4, 7, 8} and tag < 300:
        claim = toy_claim(f"t{tag}")
        tag += 1
        (x, sign), wit = hash_to_curve_witness(0, claim, 1, TOY_CEAS, TOY)
        from blsces.credential import encode_claim_message

        h = bls.hash_to_g1(encode_claim_message(TOY_CEAS, 1, 0, claim), TOY)
        assert (h.x, h.sign_bit, h.counter) == (x, sign, wit.counter)
        assert TOY_SIGNING[x]
        # the verifier decompresses the public pair to the hashed point
        assert decompress_x(x, sign, TOY) == (h.point.x, h.point.y)
        seen_x.add(x)
    assert seen_x == {0, 1, 4, 7, 8}


def test_witness_counter_is_first_success_toy():
    claim = toy_claim("first-success")
    (_, _), wit = hash_to_curve_witness(0, claim, 1, TOY_CEAS, TOY)
    from blsces.credential import encode_claim_message

    msg = encode_claim_message(TOY_CEAS, 1, 0, claim)
    for c in range(wit.counter):
        x, _, _ = bls.hash_candidate(msg, c, TOY)
        assert not TOY_SIGNING[x]


def test_witness_real_field_consistency():
    ceas = CEAS.from_index_sets(2, [[0, 1]])
    cred = Credential((Claim("h", "age", "19"), Claim("h", "country", "CH")))
    for i in range(2):
        (x, sign), wit = hash_to_curve_witness(i, cred[i], 2, ceas, BN254)
        from blsces.credential import encode_claim_message

        h = bls.hash_to_g1(encode_claim_message(ceas, 2, i, cred[i]), BN254)
        assert h.x == x == wit.x
        assert h.sign_bit == sign
        assert h.counter == wit.counter
        # decompression from the public pair recovers the hashed point
        assert decompress_x(x, sign, BN254) == (h.point.x, h.point.y)


def test_witness_rejects_hidden_claim():
    with pytest.raises(ValidationError):
        hash_to_curve_witness(0, toy_claim("x").hide(), 1, TOY_CEAS, TOY)
