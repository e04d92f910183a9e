"""A G2 key is validated in one place, and every entry point rejects a bad one.

``pairing.precompute_g2`` checks a key and caches its Miller-loop lines;
``g2_from_bytes`` parses through it, so a key parsed and then verified is
checked once, and a cached key is not checked again.
"""

import importlib
import random

import pytest

from test_groups import _random_twist_point
from blsces import bls, cli, formats
from blsces.ces import ces_extract, ces_sign, ces_verify
from blsces.credential import CEAS, Claim, Credential, ExtractionSet
from blsces.errors import EncodingError, OffCurveError
from blsces.groups import G1_GEN, G2_GEN, g2_from_bytes, g2_mul, g2_to_bytes, pairing_product
from blsces.groups.params import P, R
from blsces.groups.points import G2Point
from blsces.zk import BackendParams, prove_extraction, zk_verify

pairing = importlib.import_module("blsces.groups.pairing")
encoding = importlib.import_module("blsces.groups.encoding")

MSG = b"key check"


def _off_subgroup_point():
    q = _random_twist_point(random.Random(16))
    assert not g2_mul(q, R).is_identity()
    return q


BAD_KEYS = {"off_subgroup": _off_subgroup_point(), "off_curve": G2Point((1, 2), (3, 4))}


@pytest.fixture(scope="module")
def presented(issuer, tmp_path_factory):
    """A one-claim presentation and its proof under the issuer key, as
    objects and as the CLI's files."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    x = ExtractionSet(frozenset({0}))
    pres = ces_extract(ces_sign(issuer.sk, cred, ceas), x)
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, x)
    root = tmp_path_factory.mktemp("keys")
    (root / "pres.json").write_text(formats.dumps(formats.presentation_to_json(pres)))
    (root / "bundle.json").write_text(formats.dumps(formats.proof_bundle_to_json(proof, inputs, pres.sigma)))
    return pres, proof, inputs, root


def _assert_rejected_everywhere(pk, issuer, presented):
    pres, proof, inputs, root = presented
    with pytest.raises(EncodingError):
        g2_from_bytes(g2_to_bytes(pk))
    with pytest.raises(EncodingError):
        formats.public_key_from_json(formats.public_key_to_json(pk))
    assert ces_verify(pk, pres).code == "invalid_public_key"
    assert zk_verify(BackendParams(), pk, pres.sigma, proof, inputs).code == "invalid_public_key"
    sig = bls.sign(issuer.sk, MSG)
    with pytest.raises(OffCurveError):
        bls.verify(pk, MSG, sig)
    with pytest.raises(OffCurveError):
        bls.verify_aggregate([pk], [MSG], sig)
    with pytest.raises(OffCurveError):
        pairing_product([(G1_GEN, pk)])
    (root / "pk.json").write_text(formats.dumps(formats.public_key_to_json(pk)))
    pubkey = ["--pubkey", str(root / "pk.json")]
    assert cli.main(["verify", *pubkey, "--presentation", str(root / "pres.json")]) == cli.EXIT_MALFORMED
    assert cli.main(["zk-verify", *pubkey, "--bundle", str(root / "bundle.json")]) == cli.EXIT_MALFORMED


@pytest.mark.parametrize("kind", sorted(BAD_KEYS))
def test_every_entry_point_rejects_a_bad_key(kind, issuer, presented):
    """A failed check is never cached, so a bad key is refused on every
    call, also once a valid key is in the cache."""
    pk = BAD_KEYS[kind]
    for _ in range(2):
        _assert_rejected_everywhere(pk, issuer, presented)
    pres, proof, inputs, _ = presented
    assert ces_verify(issuer.pk, pres)
    assert zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs).accept
    _assert_rejected_everywhere(pk, issuer, presented)


def test_a_line_through_the_twist_origin_is_refused(monkeypatch, issuer, presented):
    """No known key has a chord through the twist's origin, where a line's
    constant term is 0 and it cannot be stored divided by it; forcing that
    numerator to 0 on one key's chords makes every entry point refuse the
    key as it refuses an off-curve one, and leaves other keys alone."""
    pk = g2_mul(G2_GEN, 0x5EED)
    add_step = pairing._add_step

    def zero_on_pk(t, a):
        t, (c, mu, nu) = add_step(t, a)
        return t, (((0, 0) if (a[0], a[1]) == pk.x else c), mu, nu)

    monkeypatch.setattr(pairing, "_add_step", zero_on_pk)
    _assert_rejected_everywhere(pk, issuer, presented)
    pres, proof, inputs, _ = presented
    assert ces_verify(issuer.pk, pres)
    assert zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs).accept


def test_a_vertical_chord_is_refused():
    """A chord from T to T or -T is vertical and has no constant term to
    divide by; the walk of a key of order r never meets one."""
    x0, x1, y0, y1 = (*G2_GEN.x, *G2_GEN.y)
    for a in ((x0, x1, y0, y1), (x0, x1, -y0 % P, -y1 % P)):
        with pytest.raises(OffCurveError):
            pairing._add_step((x0, x1, y0, y1, 1, 0), a)


def test_a_parsed_key_is_checked_once(monkeypatch, issuer, presented):
    """Parsing a cold key checks it and caches its lines, so the verify
    that follows checks nothing; parsing it again is a cache hit.  Both
    bindings of check_g2 are watched, the one parsing used to call too."""
    pres = presented[0]
    pairing.precompute_g2.cache_clear()
    pairing.precompute_g2(G2_GEN)  # the verifier's other pair
    checked = []
    check_g2 = pairing.check_g2

    def spy(q):
        checked.append(q)
        return check_g2(q)

    for module in (pairing, encoding):
        monkeypatch.setattr(module, "check_g2", spy)
    doc = formats.public_key_to_json(issuer.pk)
    assert ces_verify(formats.public_key_from_json(doc), pres)
    assert checked == [issuer.pk]
    checked.clear()
    assert ces_verify(formats.public_key_from_json(doc), pres)
    assert checked == []


def test_only_the_generator_skips_the_key_check(monkeypatch, issuer):
    """G2_GEN is a constant of G2, so precomputing its lines checks
    nothing; any other cold key is checked once."""
    assert pairing.check_g2(G2_GEN) == G2_GEN
    pairing.precompute_g2.cache_clear()
    checked = []
    check_g2 = pairing.check_g2

    def spy(q):
        checked.append(q)
        return check_g2(q)

    monkeypatch.setattr(pairing, "check_g2", spy)
    pairing.precompute_g2(G2_GEN)
    assert checked == []
    pairing.precompute_g2(issuer.pk)
    assert checked == [issuer.pk]
