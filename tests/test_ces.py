"""Content-extraction signature laws and the unforgeability negative suite."""

import itertools
import random
from dataclasses import replace

import pytest

from conftest import random_credential
from blsces import bls
from blsces.ces import ExtractedPresentation, ces_extract, ces_sign, ces_verify
from blsces.credential import (
    BLINDED,
    CEAS,
    Claim,
    Credential,
    ExtractionSet,
    clear_indices,
    encode_claim_message,
    is_sub_credential,
)
from blsces.errors import ValidationError
from blsces.groups import G1_IDENTITY_BYTES, G2_IDENTITY, g1_add, g1_decompress

rng = random.Random(77)


def xset(*idxs):
    return ExtractionSet(frozenset(idxs))


@pytest.fixture(scope="module")
def signed4(issuer):
    cred = Credential(
        (
            Claim("holder", "age", "19"),
            Claim("holder", "country", "CH"),
            Claim("holder", "degree", "MSc"),
            Claim("holder", "license", "B"),
        )
    )
    ceas = CEAS.from_index_sets(4, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [2, 3]])
    return ces_sign(issuer.sk, cred, ceas)


# -- signing -------------------------------------------------------------------

def test_sign_one_claim_credential(issuer):
    cred = Credential((Claim("h", "p", "v"),))
    ceas = CEAS.from_index_sets(1, [[0]])
    sc = ces_sign(issuer.sk, cred, ceas)
    msg = encode_claim_message(ceas, 1, 0, cred[0])
    assert bls.verify(issuer.pk, msg, sc.sigs[0])


def test_sign_three_claims_individually_verifiable(issuer):
    cred = random_credential(rng, 3)
    ceas = CEAS.from_index_sets(3, [[0, 1, 2]])
    sc = ces_sign(issuer.sk, cred, ceas)
    msgs = [encode_claim_message(ceas, 3, i, cred[i]) for i in range(3)]
    assert len(set(msgs)) == 3
    for i in range(3):
        assert bls.verify(issuer.pk, msgs[i], sc.sigs[i])


def test_sign_deterministic(issuer, signed4):
    again = ces_sign(issuer.sk, signed4.cred, signed4.ceas)
    assert again == signed4


def test_sign_rejects_hidden_claims_and_width_mismatch(issuer):
    cred = Credential((Claim("h", "p", "v").hide(),))
    with pytest.raises(ValidationError):
        ces_sign(issuer.sk, cred, CEAS.from_index_sets(1, [[0]]))
    with pytest.raises(ValidationError):
        ces_sign(issuer.sk, Credential((Claim("h", "p", "v"),)), CEAS.from_index_sets(2, [[0]]))


# -- extraction -------------------------------------------------------------------

def test_extract_blinds_exactly_the_complement(signed4):
    pres = ces_extract(signed4, xset(0, 1, 2))
    assert clear_indices(pres.sub_cred) == frozenset({0, 1, 2})
    assert is_sub_credential(pres.sub_cred, signed4.cred)
    assert pres.sub_cred[3].value is BLINDED
    assert pres.sub_cred[3].property == "license"  # value-only blinding
    both = ces_extract(signed4, xset(0, 1, 2), blind_properties=True)
    assert both.sub_cred[3].property is BLINDED


def test_extract_singleton_sigma_equals_claim_sig(signed4):
    pres = ces_extract(signed4, xset(2))
    assert pres.sigma == signed4.sigs[2]


def test_extract_sigma_is_point_sum(signed4):
    pres = ces_extract(signed4, xset(0, 2, 3))
    total = g1_decompress(signed4.sigs[0].data)
    for i in (2, 3):
        total = g1_add(total, g1_decompress(signed4.sigs[i].data))
    assert g1_decompress(pres.sigma.data) == total


def test_extract_out_of_range(signed4):
    with pytest.raises(ValidationError):
        ces_extract(signed4, xset(9))


def test_extract_does_not_enforce_policy(signed4):
    # {1} is not in the policy; extraction still works, verification rejects
    pres = ces_extract(signed4, xset(1))
    assert not ces_verify(bls.keygen(random.Random(1)).pk, pres)


def test_iterative_extraction_matches_direct(signed4):
    """Every x2 strictly inside x1: re-extracting from a re-extractable
    presentation equals extracting from the signed credential."""
    x1 = {0, 1, 2}
    pres1 = ces_extract(signed4, ExtractionSet(frozenset(x1)), reextractable=True)
    for size in (1, 2):
        for x2 in itertools.combinations(sorted(x1), size):
            via = ces_extract(pres1, xset(*x2))
            direct = ces_extract(signed4, xset(*x2))
            assert via == direct
            assert via.ext_sig_bytes() == direct.ext_sig_bytes()


def test_iterative_extraction_needs_kept_sigs(signed4):
    final = ces_extract(signed4, xset(0, 1))
    with pytest.raises(ValidationError):
        ces_extract(final, xset(0))


def test_iterative_extraction_cannot_reveal_hidden(signed4):
    pres1 = ces_extract(signed4, xset(0, 1), reextractable=True)
    with pytest.raises(ValidationError):
        ces_extract(pres1, xset(2))


# -- verification -------------------------------------------------------------------

def test_verify_end_to_end(issuer, signed4):
    for subset in ([0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [2, 3]):
        pres = ces_extract(signed4, xset(*subset))
        assert ces_verify(issuer.pk, pres)


def test_verify_full_credential_degenerate_path(issuer, signed4):
    # a fully visible presentation is not a sub-credential, but verifies
    # through the all-indices extraction when the policy allows it
    pres = ces_extract(signed4, xset(0, 1, 2, 3))
    assert not is_sub_credential(pres.sub_cred, signed4.cred)
    assert ces_verify(issuer.pk, pres)


def test_verify_runs_two_pairs_for_any_disclosure_size(issuer, pairs_seen):
    cred = random_credential(random.Random(16), 16)
    subsets = [[0], [0, 5, 9, 15], list(range(16))]
    sc = ces_sign(issuer.sk, cred, CEAS.from_index_sets(16, subsets))
    for subset in subsets:
        pairs_seen.clear()
        pres = ces_extract(sc, xset(*subset))
        assert ces_verify(issuer.pk, pres)
        assert pairs_seen == [2], len(subset)
        forged = replace(pres, sigma=sc.sigs[1] if subset == [0] else sc.sigs[0])
        assert not ces_verify(issuer.pk, forged)


def test_verify_rejects_tampered_value(issuer, signed4):
    pres = ces_extract(signed4, xset(0, 1))
    claims = list(pres.sub_cred.claims)
    claims[0] = Claim("holder", "age", "21")
    bad = replace(pres, sub_cred=Credential(tuple(claims)))
    res = ces_verify(issuer.pk, bad)
    assert not res and res.code == "signature_mismatch"


def test_verify_rejects_extraction_outside_policy(issuer, signed4):
    res = ces_verify(issuer.pk, ces_extract(signed4, xset(1)))
    assert not res and res.code == "extraction_not_allowed"


def test_verify_rejects_all_hidden(issuer, signed4):
    pres = ces_extract(signed4, xset(0))
    claims = tuple(c.hide() for c in pres.sub_cred.claims)
    res = ces_verify(issuer.pk, replace(pres, sub_cred=Credential(claims)))
    assert not res and res.code == "nothing_disclosed"


def test_verify_rejects_swapped_claims_exhaustive(issuer):
    """Swapping any two visible claims (with their signatures and
    counters) breaks verification because the index is signed."""
    cred = random_credential(rng, 3)
    ceas = CEAS.from_index_sets(3, [[0, 1, 2]])
    sc = ces_sign(issuer.sk, cred, ceas)
    pres = ces_extract(sc, xset(0, 1, 2))
    assert ces_verify(issuer.pk, pres)
    for i, j in itertools.combinations(range(3), 2):
        claims = list(pres.sub_cred.claims)
        claims[i], claims[j] = claims[j], claims[i]
        counters = dict(pres.counters)
        counters[i], counters[j] = counters[j], counters[i]
        bad = replace(pres, sub_cred=Credential(tuple(claims)), counters=counters)
        assert not ces_verify(issuer.pk, bad)


def test_verify_rejects_tampered_counter(issuer, signed4):
    pres = ces_extract(signed4, xset(0, 1))
    counters = dict(pres.counters)
    counters[0] = (counters[0] + 1) % 256
    res = ces_verify(issuer.pk, replace(pres, counters=counters))
    assert not res and res.code in ("bad_counter", "signature_mismatch")


def test_verify_rejects_counter_set_mismatch(issuer, signed4):
    pres = ces_extract(signed4, xset(0, 1))
    missing = dict(pres.counters)
    del missing[1]
    res = ces_verify(issuer.pk, replace(pres, counters=missing))
    assert not res and res.code == "counters_mismatch"
    extra = dict(pres.counters)
    extra[3] = 0
    res = ces_verify(issuer.pk, replace(pres, counters=extra))
    assert not res and res.code == "counters_mismatch"


def test_verify_rejects_malformed_aggregate_bytes(issuer, signed4):
    pres = ces_extract(signed4, xset(0))
    # identity flag with a nonzero payload can never decode
    res = ces_verify(issuer.pk, replace(pres, sigma=bls.Signature(b"\x40\x01" + b"\x00" * 30)))
    assert not res and res.code == "malformed_signature"
    # a well-formed but wrong point is a plain signature mismatch
    res = ces_verify(issuer.pk, replace(pres, sigma=bls.Signature(b"\x00" * 31 + b"\x07")))
    assert not res and res.code == "signature_mismatch"


def test_verify_rejects_identity_key(signed4):
    # The all-zero key file parses to the G2 identity; with the identity
    # aggregate every disclosed claim set would pass the pairing check.
    pres = replace(ces_extract(signed4, xset(0, 1)), sigma=bls.Signature(G1_IDENTITY_BYTES))
    res = ces_verify(G2_IDENTITY, pres)
    assert not res and res.code == "invalid_public_key"


def test_verify_rejects_foreign_key(signed4):
    stranger = bls.keygen(random.Random(31337))
    assert not ces_verify(stranger.pk, ces_extract(signed4, xset(0)))


def test_hidden_claim_prefix_is_outside_the_model(issuer, signed4):
    """Hidden claims never enter verification, so a tampered hidden
    prefix still verifies; that is the accepted model boundary, and
    both-blinded extraction removes the prefix entirely."""
    pres = ces_extract(signed4, xset(0, 1))
    claims = list(pres.sub_cred.claims)
    assert claims[3].hidden and claims[3].property == "license"
    claims[3] = Claim("holder", "felonies", BLINDED)
    forged_prefix = replace(pres, sub_cred=Credential(tuple(claims)))
    assert ces_verify(issuer.pk, forged_prefix)  # accepted: hidden claims carry no weight
    # a hidden claim can never be made visible again without the issuer
    both = ces_extract(signed4, xset(0, 1), blind_properties=True)
    assert all(c.property is BLINDED for c in both.sub_cred.claims if c.hidden)


# -- privacy --------------------------------------------------------------------------

def test_privacy_hidden_content_invisible(issuer):
    """Two credentials equal on the disclosed indices produce
    byte-identical extracted signatures and identical transcripts."""
    ceas = CEAS.from_index_sets(3, [[0, 2]])
    base = random_credential(rng, 3)
    for _ in range(25):
        other_claims = list(base.claims)
        other_claims[1] = Claim("holder", "secret", rng.choice("xyz") * rng.randint(1, 6))
        other = Credential(tuple(other_claims))
        p1 = ces_extract(ces_sign(issuer.sk, base, ceas), xset(0, 2))
        p2 = ces_extract(ces_sign(issuer.sk, other, ceas), xset(0, 2))
        assert p1.ext_sig_bytes() == p2.ext_sig_bytes()
        r1, r2 = ces_verify(issuer.pk, p1), ces_verify(issuer.pk, p2)
        assert (r1.accept, r1.code) == (r2.accept, r2.code)


# -- simplistic-approach oracle ---------------------------------------------------------

def test_agrees_with_per_claim_verification_oracle(issuer, signed4):
    """Re-extractable presentations carry every per-claim signature; the
    naive verify-each-signature protocol must agree with the aggregate
    check on honest and tampered inputs."""

    def naive_verify(pres: ExtractedPresentation) -> bool:
        visible = clear_indices(pres.sub_cred)
        if not visible or not pres.kept_sigs:
            return False
        n = len(pres.sub_cred)
        for i in sorted(visible):
            msg = encode_claim_message(pres.ceas, n, i, pres.sub_cred[i])
            if not bls.verify(issuer.pk, msg, pres.kept_sigs[i]):
                return False
        return ExtractionSet(visible).mask() in pres.ceas.subsets

    good = ces_extract(signed4, xset(0, 1), reextractable=True)
    assert naive_verify(good) and ces_verify(issuer.pk, good)

    claims = list(good.sub_cred.claims)
    claims[1] = Claim("holder", "country", "XX")
    bad = replace(good, sub_cred=Credential(tuple(claims)))
    assert not naive_verify(bad) and not ces_verify(issuer.pk, bad)

    off_policy = ces_extract(signed4, xset(1, 2), reextractable=True)
    assert not naive_verify(off_policy) and not ces_verify(issuer.pk, off_policy)
