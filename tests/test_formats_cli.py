"""File formats round-trip; the CLI agrees with direct library calls."""

import base64
import copy
import json
import random
import struct
import subprocess
import sys
import time
import tracemalloc
import types

import pytest

from conftest import random_ceas, random_credential
from test_key_checks import BAD_KEYS
from blsces import bls, cli, credential, formats
from blsces.ces import ces_extract, ces_sign, ces_verify
from blsces.credential import MAX_CEAS_SUBSETS, MAX_CEAS_WIDTH, CEAS, Claim, Credential, ExtractionSet
from blsces.errors import EncodingError, FileTooLargeError
from blsces.groups import G1_IDENTITY_BYTES, G2_IDENTITY, g2_to_bytes, params, points
from blsces.zk.backend import Proof
from blsces.zk.statement import PublicInputs

rng = random.Random(88)


# -- formats ---------------------------------------------------------------------

def test_key_files_roundtrip(issuer):
    sk_doc = formats.secret_key_to_json(issuer.sk)
    pk_doc = formats.public_key_to_json(issuer.pk)
    assert formats.secret_key_from_json(json.loads(formats.dumps(sk_doc))) == issuer.sk
    assert formats.public_key_from_json(json.loads(formats.dumps(pk_doc))) == issuer.pk


def test_wrong_format_tag_rejected(issuer):
    doc = formats.secret_key_to_json(issuer.sk)
    doc["format"] = "something-else"
    with pytest.raises(EncodingError):
        formats.secret_key_from_json(doc)


def test_credential_roundtrip_fuzz():
    for _ in range(50):
        n = rng.randint(1, 5)
        cred = random_credential(rng, n)
        hidden = {i for i in range(n) if rng.random() < 0.4 and n > 1}
        both = rng.random() < 0.5
        cred = Credential(
            tuple(c.hide(both) if i in hidden else c for i, c in enumerate(cred.claims))
        )
        ceas = random_ceas(rng, n)
        doc = formats.credential_to_json(cred, ceas)
        back_cred, back_ceas = formats.credential_from_json(json.loads(formats.dumps(doc)))
        assert back_cred == cred
        assert back_ceas == ceas


def test_signed_and_presentation_roundtrip(issuer):
    cred = random_credential(rng, 3)
    ceas = CEAS.from_index_sets(3, [[0], [0, 2]])
    sc = ces_sign(issuer.sk, cred, ceas)
    doc = formats.signed_to_json(sc)
    assert formats.signed_from_json(json.loads(formats.dumps(doc))) == sc

    for reex in (False, True):
        pres = ces_extract(sc, ExtractionSet(frozenset({0, 2})), reextractable=reex)
        pdoc = formats.presentation_to_json(pres)
        back = formats.presentation_from_json(json.loads(formats.dumps(pdoc)))
        assert back == pres
        assert bool(ces_verify(issuer.pk, back))


def test_serialization_is_deterministic(issuer):
    cred = random_credential(random.Random(5), 2)
    ceas = CEAS.from_index_sets(2, [[0]])
    sc = ces_sign(issuer.sk, cred, ceas)
    assert formats.dumps(formats.signed_to_json(sc)) == formats.dumps(formats.signed_to_json(sc))


def test_proof_bundle_roundtrip(issuer):
    from blsces.zk import prove_extraction, zk_setup

    setup = zk_setup(rng=random.Random(3))
    cred = Credential((Claim("h", "age", "19"),))
    ceas = CEAS.from_index_sets(1, [[0]])
    x = ExtractionSet(frozenset({0}))
    proof, inputs = prove_extraction(setup.backend_params, cred, ceas, x)
    sigma = ces_extract(ces_sign(setup.keypair.sk, cred, ceas), x).sigma
    doc = formats.proof_bundle_to_json(proof, inputs, sigma)
    assert doc["backend"] == "transparent" and doc["aggregate_signature"] == sigma.data.hex()
    assert formats.proof_bundle_from_json(json.loads(formats.dumps(doc))) == (proof, inputs, sigma)
    for backend in ("groth16", None):
        with pytest.raises(EncodingError, match="prover backend"):
            formats.proof_bundle_from_json(dict(doc, backend=backend))
    # the signature is required, as 32 bytes of hex
    for bad in ("zz", sigma.data.hex()[:-2], sigma.data.hex() + "00", None, 7):
        with pytest.raises(EncodingError, match="bad proof bundle"):
            formats.proof_bundle_from_json(dict(doc, aggregate_signature=bad))
    del doc["aggregate_signature"]
    with pytest.raises(EncodingError, match="bad proof bundle"):
        formats.proof_bundle_from_json(doc)


def test_malformed_files_raise_encoding_errors(issuer):
    # not JSON, bytes that are not UTF-8 (the CLI hands loads bytes), and
    # nesting deeper than json.loads recurses
    for text in ("{not json", b'{"a": "\xff"}', "[" * 100_000):
        with pytest.raises(EncodingError):
            formats.loads(text)
    with pytest.raises(EncodingError):
        formats.signed_from_json({"format": formats.FORMAT_SIGNED, "version": 1, "claims": []})
    # a hidden flag that is not a JSON boolean: "false" is a truthy string
    # that would hide the claim and drop its value
    for hidden in ("false", "true", 0, 1, None):
        claim = {"subject": "s", "property": "p", "value": "v", "hidden": hidden}
        with pytest.raises(EncodingError, match="hidden"):
            formats.credential_from_json(
                {"format": formats.FORMAT_CREDENTIAL, "version": 1, "subject": "s", "claims": [claim]}
            )
        with pytest.raises(EncodingError, match="hidden"):
            formats.presentation_from_json(
                {
                    "format": formats.FORMAT_PRESENTATION,
                    "version": 1,
                    "claims": [claim],
                    "ceas": {"n": 1, "subsets": [[0]]},
                    "aggregate_signature": "00",
                    "counters": {},
                }
            )
    with pytest.raises(EncodingError):
        formats.presentation_from_json(
            {
                "format": formats.FORMAT_PRESENTATION,
                "version": 1,
                "claims": [{"subject": "s", "property": "p", "value": "v", "hidden": False}],
                "ceas": {"n": 1, "subsets": [[0]]},
                "aggregate_signature": "zz",
                "counters": {},
            }
        )
    # an integer on the wire is a JSON integer: a float, digit string or
    # boolean that int() would coerce gives one value a second encoding,
    # and a counter key has one spelling
    cred = Credential((Claim("s", "p", "v"), Claim("s", "q", "w")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    sc = ces_sign(issuer.sk, cred, ceas)
    signed = formats.signed_to_json(sc)
    pres = formats.presentation_to_json(ces_extract(sc, ExtractionSet(frozenset({0}))))
    inputs = PublicInputs(x_coords=(1,), sign_bits=(1,), ceas_bytes=ceas.to_bytes(), extraction=(0,))
    bundle = formats.proof_bundle_to_json(Proof(bytes(40)), inputs, sc.sigs[0])
    pub = bundle["public_inputs"]
    c = sc.counters[0]
    for doc, parse in ((signed, formats.signed_from_json), (pres, formats.presentation_from_json)):
        parse(doc)
        for policy in (
            {"n": "2", "subsets": [[0], [0, 1]]},
            {"n": 2.0, "subsets": [[0], [0, 1]]},
            {"n": 2, "subsets": [[False], [False, True]]},
            {"n": 2, "subsets": [[0.0], [0, 1.0]]},
            {"n": 2, "subsets": [["0"], [0, 1]]},
        ):
            with pytest.raises(EncodingError, match="bad ceas"):
                formats.ceas_from_json(policy)
            with pytest.raises(EncodingError, match="bad ceas"):
                parse(dict(doc, ceas=policy))
    formats.proof_bundle_from_json(bundle)
    for bad in (c + 0.9, float(c), str(c), True, False):
        with pytest.raises(EncodingError, match="JSON integer"):
            formats.signed_from_json(dict(signed, counters=[bad] + signed["counters"][1:]))
        with pytest.raises(EncodingError, match="JSON integer"):
            formats.presentation_from_json(dict(pres, counters={"0": bad}))
    for key in ("00", "+0", " 0", "0 ", "-0", "\u0660"):
        with pytest.raises(EncodingError, match="not canonical"):
            formats.presentation_from_json(dict(pres, counters={key: c}))
    for field, bad in (("sign_bits", True), ("sign_bits", 1.0), ("sign_bits", "1"),
                       ("extraction", False), ("extraction", 0.0), ("extraction", "0")):
        with pytest.raises(EncodingError, match="JSON integer"):
            formats.proof_bundle_from_json(dict(bundle, public_inputs=dict(pub, **{field: [bad]})))


def hex_respellings(h):
    """Spellings of the lowercase hex string h, other than h, that
    ``bytes.fromhex`` or ``int(h, 16)`` reads, or that change its width,
    and two values that are not strings: a reader must refuse each."""
    assert h != h.upper(), "the case needs a hex letter"
    spellings = {
        "uppercase": h.upper(),
        "one uppercase digit": next(h[:i] + c.upper() + h[i + 1:] for i, c in enumerate(h) if c.isalpha()),
        "space-separated bytes": " ".join(h[i:i + 2] for i in range(0, len(h), 2)),
        "surrounding whitespace": f" {h}\n",
        "0x prefix": "0x" + h,
        "0x prefix, same width": "0x" + h[2:],
        "underscore": h[:4] + "_" + h[4:],
        "one byte short": h[:-2],
        "one byte long": h + "00",
        "odd length": h[:-1],
        "a JSON number": int(h[:8], 16),
        "null": None,
    }
    assert h not in spellings.values()
    return spellings


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return doc


@pytest.fixture(scope="module")
def hex_fields(issuer):
    """Every hex field of every file format, with the document that holds
    it and the parser that reads it."""
    cred = Credential((Claim("s", "p", "v"), Claim("s", "q", "w")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    sc = ces_sign(issuer.sk, cred, ceas)
    signed = formats.signed_to_json(sc)
    pres = formats.presentation_to_json(ces_extract(sc, ExtractionSet(frozenset({0, 1})), reextractable=True))
    inputs = PublicInputs(x_coords=(0xFEDCBA9876543210 << 180,), sign_bits=(1,), ceas_bytes=ceas.to_bytes(), extraction=(0,))
    bundle = formats.proof_bundle_to_json(Proof(bytes(40)), inputs, sc.sigs[0])
    return {
        "secret_key": (formats.secret_key_to_json(issuer.sk), ["secret_key"], formats.secret_key_from_json),
        "public_key": (formats.public_key_to_json(issuer.pk), ["public_key"], formats.public_key_from_json),
        "signatures": (signed, ["signatures", 1], formats.signed_from_json),
        "aggregate_signature": (pres, ["aggregate_signature"], formats.presentation_from_json),
        "kept_signatures": (pres, ["kept_signatures", "1"], formats.presentation_from_json),
        "bundle x": (bundle, ["public_inputs", "x", 0], formats.proof_bundle_from_json),
        "bundle aggregate_signature": (bundle, ["aggregate_signature"], formats.proof_bundle_from_json),
    }


@pytest.mark.parametrize("field", [
    "secret_key", "public_key", "signatures", "aggregate_signature", "kept_signatures", "bundle x",
    "bundle aggregate_signature",
])
def test_hex_fields_take_only_the_written_spelling(hex_fields, field):
    """Each hex field is read only as the fixed-width lowercase digits
    its writer emits.  bytes.fromhex and int(h, 16) also read uppercase
    digits, whitespace and (int) a 0x prefix and underscores: read with
    them, an uppercase or space-separated aggregate signature verifies
    ok and an uppercase public key parses."""
    doc, path, parse = hex_fields[field]
    parse(doc)
    node = doc
    for key in path:
        node = node[key]
    for name, bad in hex_respellings(node).items():
        with pytest.raises(EncodingError):
            parse(_replaced(doc, path, bad))
            pytest.fail(f"{field} as {name} ({bad!r}) parsed")


# -- CLI -----------------------------------------------------------------------------

def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "blsces.cli", *args],
        capture_output=True,
        text=True,
    )
    diag = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    return proc.returncode, diag


@pytest.fixture(scope="module")
def cli_flow(tmp_path_factory):
    """One issued credential driven through the CLI; used by several tests."""
    root = tmp_path_factory.mktemp("cli")
    cred_doc = {
        "format": formats.FORMAT_CREDENTIAL,
        "version": 1,
        "subject": "alice",
        "claims": [
            {"subject": "alice", "property": "age", "value": "19", "hidden": False},
            {"subject": "alice", "property": "country", "value": "CH", "hidden": False},
        ],
        "ceas": {"n": 2, "subsets": [[0], [0, 1]]},
    }
    (root / "cred.json").write_text(formats.dumps(cred_doc))
    code, _ = run_cli("keygen", "--secret-out", str(root / "sk.json"), "--public-out", str(root / "pk.json"), "--seed", "424242")
    assert code == 0
    code, _ = run_cli("issue", "--key", str(root / "sk.json"), "--credential", str(root / "cred.json"), "--out", str(root / "signed.json"))
    assert code == 0
    code, _ = run_cli("extract", "--signed", str(root / "signed.json"), "--indices", "0", "--out", str(root / "pres.json"))
    assert code == 0
    return root


def test_cli_verify_accepts_and_agrees_with_library(cli_flow):
    code, diag = run_cli("verify", "--pubkey", str(cli_flow / "pk.json"), "--presentation", str(cli_flow / "pres.json"))
    assert code == 0 and diag["ok"] is True
    pk = formats.public_key_from_json(json.loads((cli_flow / "pk.json").read_text()))
    pres = formats.presentation_from_json(json.loads((cli_flow / "pres.json").read_text()))
    lib = ces_verify(pk, pres)
    assert bool(lib) is True and diag["code"] == lib.code


def test_cli_verify_of_a_respelled_aggregate_signature_exits_2(cli_flow):
    """The walkthrough's presentation with its aggregate signature in
    uppercase, or as space-separated bytes, is malformed (exit 2), not
    a second spelling of the same presentation."""
    doc = json.loads((cli_flow / "pres.json").read_text())
    sig = doc["aggregate_signature"]
    for name, spelling in (("upper", sig.upper()), ("spaced", " ".join(sig[i:i + 2] for i in range(0, len(sig), 2)))):
        path = cli_flow / f"pres_{name}.json"
        path.write_text(formats.dumps(dict(doc, aggregate_signature=spelling)))
        code, diag = run_cli("verify", "--pubkey", str(cli_flow / "pk.json"), "--presentation", str(path))
        assert code == cli.EXIT_MALFORMED and diag["ok"] is False, (name, diag)


def test_cli_issue_is_deterministic_and_matches_library(cli_flow):
    signed_doc = json.loads((cli_flow / "signed.json").read_text())
    sk = formats.secret_key_from_json(json.loads((cli_flow / "sk.json").read_text()))
    cred, ceas = formats.credential_from_json(json.loads((cli_flow / "cred.json").read_text()))
    sc = ces_sign(sk, cred, ceas)
    assert formats.signed_to_json(sc) == signed_doc


def test_cli_tampered_presentation_exit_1(cli_flow):
    doc = json.loads((cli_flow / "pres.json").read_text())
    doc["claims"][0]["value"] = "20"
    (cli_flow / "tampered.json").write_text(formats.dumps(doc))
    code, diag = run_cli("verify", "--pubkey", str(cli_flow / "pk.json"), "--presentation", str(cli_flow / "tampered.json"))
    assert code == 1 and diag["ok"] is False


def test_cli_verify_rejects_identity_key(cli_flow):
    # The all-zero key file is the G2 identity, under which the identity
    # aggregate would verify any disclosed claims.
    doc = formats.public_key_to_json(G2_IDENTITY)
    assert doc["public_key"] == "00" * 128
    (cli_flow / "zero_pk.json").write_text(formats.dumps(doc))
    pres = json.loads((cli_flow / "pres.json").read_text())
    pres["aggregate_signature"] = G1_IDENTITY_BYTES.hex()
    (cli_flow / "identity_pres.json").write_text(formats.dumps(pres))
    code, diag = run_cli("verify", "--pubkey", str(cli_flow / "zero_pk.json"), "--presentation", str(cli_flow / "identity_pres.json"))
    assert code == 1 and diag == {"ok": False, "code": "invalid_public_key"}


def test_cli_bad_index_exit_2(cli_flow):
    code, diag = run_cli("extract", "--signed", str(cli_flow / "signed.json"), "--indices", "5", "--out", str(cli_flow / "x.json"))
    assert code == 2 and "5" in diag["error"]


def test_cli_missing_file_exit_3(cli_flow):
    code, diag = run_cli("verify", "--pubkey", str(cli_flow / "nope.json"), "--presentation", str(cli_flow / "pres.json"))
    assert code == 3 and diag["kind"] == "io"


def test_cli_malformed_json_exit_2(cli_flow):
    (cli_flow / "garbage.json").write_text("{broken")
    code, diag = run_cli("verify", "--pubkey", str(cli_flow / "garbage.json"), "--presentation", str(cli_flow / "pres.json"))
    assert code == 2


def test_cli_prove_and_zk_verify(cli_flow):
    code, _ = run_cli(
        "prove", "--signed", str(cli_flow / "signed.json"), "--indices", "0",
        "--predicate", "range:0:18:64", "--out", str(cli_flow / "bundle.json"),
    )
    assert code == 0
    code, diag = run_cli("zk-verify", "--pubkey", str(cli_flow / "pk.json"), "--bundle", str(cli_flow / "bundle.json"))
    assert code == 0 and diag["ok"] is True and diag["policy_ok"] and diag["pairing_ok"] and diag["proof_ok"]
    assert diag["predicate"] == {"kind": "range", "claim_index": 0, "low": 18, "high": 64}
    # the bundle carries the aggregate of the disclosed claims' signatures,
    # the one the presentation of the same claims carries
    doc = json.loads((cli_flow / "bundle.json").read_text())
    pres_doc = json.loads((cli_flow / "pres.json").read_text())
    assert doc["aggregate_signature"] == pres_doc["aggregate_signature"]

    # the signature of another extraction: pairing conjunct fails, exit 1
    code, _ = run_cli("extract", "--signed", str(cli_flow / "signed.json"), "--indices", "0,1", "--out", str(cli_flow / "pres01.json"))
    assert code == 0
    other = json.loads((cli_flow / "pres01.json").read_text())["aggregate_signature"]
    (cli_flow / "wrong_sig.json").write_text(formats.dumps(dict(doc, aggregate_signature=other)))
    code, diag = run_cli("zk-verify", "--pubkey", str(cli_flow / "pk.json"), "--bundle", str(cli_flow / "wrong_sig.json"))
    assert code == 1 and diag["pairing_ok"] is False and diag["code"] == "pairing_failed"

    # a missing or malformed signature field is malformed input, exit 2
    for name, bundle in (("no_sig", {k: v for k, v in doc.items() if k != "aggregate_signature"}),
                         ("short_sig", dict(doc, aggregate_signature="00" * 31))):
        (cli_flow / f"{name}.json").write_text(formats.dumps(bundle))
        code, diag = run_cli("zk-verify", "--pubkey", str(cli_flow / "pk.json"), "--bundle", str(cli_flow / f"{name}.json"))
        assert code == 2 and diag["kind"] == "malformed", name

    # a proof header whose predicate lacks its fields is rejected, exit 1
    doc = json.loads((cli_flow / "bundle.json").read_text())
    header, blob = base64.b64decode(doc["proof"]).split(b"\n", 1)
    meta = json.loads(header)
    meta["layout"]["predicate"] = {"kind": "range"}
    doc["proof"] = base64.b64encode(json.dumps(meta).encode() + b"\n" + blob).decode()
    (cli_flow / "bad_predicate.json").write_text(formats.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "blsces.cli", "zk-verify", "--pubkey", str(cli_flow / "pk.json"),
         "--bundle", str(cli_flow / "bad_predicate.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    (line,) = proc.stdout.splitlines()
    diag = json.loads(line)
    assert diag["ok"] is False and diag["code"] == "proof_rejected:statement_rebuild_failed"
    assert diag["predicate"] == {"kind": "range"}

    # a bundle naming a prover backend that does not exist is malformed
    doc = json.loads((cli_flow / "bundle.json").read_text())
    doc["backend"] = "groth16"
    (cli_flow / "foreign.json").write_text(formats.dumps(doc))
    code, diag = run_cli("zk-verify", "--pubkey", str(cli_flow / "pk.json"), "--bundle", str(cli_flow / "foreign.json"))
    assert code == 2 and diag["kind"] == "malformed" and "groth16" in diag["error"]


def test_cli_zk_verify_expects_predicate(cli_flow, tmp_path):
    """zk-verify --predicate range:0:18:65 accepts a proof of that range
    only; a proof of no predicate or of other bounds exits 1."""
    verdicts = {}
    for spec in (None, "range:0:18:64", "range:0:18:65"):
        bundle = tmp_path / f"bundle-{spec}.json"
        code, _ = run_cli(
            "prove", "--signed", str(cli_flow / "signed.json"), "--indices", "0",
            *(("--predicate", spec) if spec else ()), "--out", str(bundle),
        )
        assert code == 0
        verdicts[spec] = run_cli(
            "zk-verify", "--pubkey", str(cli_flow / "pk.json"), "--bundle", str(bundle), "--predicate", "range:0:18:65",
        )
    for spec in (None, "range:0:18:64"):
        code, diag = verdicts[spec]
        assert code == 1 and diag["ok"] is False and diag["code"] == "predicate_rejected"
    code, diag = verdicts["range:0:18:65"]
    assert code == 0 and diag["ok"] is True and diag["code"] == "ok"
    code, diag = run_cli(
        "zk-verify", "--pubkey", str(cli_flow / "pk.json"),
        "--bundle", str(tmp_path / "bundle-None.json"), "--predicate", "range:0:18",
    )
    assert code == 2 and diag["kind"] == "malformed"


def test_cli_issue_with_separate_ceas_file(cli_flow, tmp_path):
    cred_doc = json.loads((cli_flow / "cred.json").read_text())
    del cred_doc["ceas"]
    bare = tmp_path / "bare.json"
    bare.write_text(formats.dumps(cred_doc))
    policy = tmp_path / "policy.json"
    policy.write_text(formats.dumps({"ceas": {"n": 2, "subsets": [[0], [0, 1]]}}))

    code, diag = run_cli("issue", "--key", str(cli_flow / "sk.json"), "--credential", str(bare), "--out", str(tmp_path / "signed.json"))
    assert code == 2 and "policy" in diag["error"]
    code, _ = run_cli(
        "issue", "--key", str(cli_flow / "sk.json"), "--credential", str(bare),
        "--ceas", str(policy), "--out", str(tmp_path / "signed.json"),
    )
    assert code == 0
    assert json.loads((tmp_path / "signed.json").read_text()) == json.loads((cli_flow / "signed.json").read_text())
    # a policy file whose top level is not an object is malformed input,
    # refused with one JSON line, not a traceback and the reject status
    for text in ("[1, 2]", "null", '"ceas"', '{"ceas": [[0], [0, 1]]}'):
        policy.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "blsces.cli", "issue", "--key", str(cli_flow / "sk.json"), "--credential", str(bare),
             "--ceas", str(policy), "--out", str(tmp_path / "signed.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stderr == "", (text, proc.stderr)
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["kind"] == "malformed", text


def test_cli_keygen_seed_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        code, _ = run_cli("keygen", "--secret-out", str(d / "sk.json"), "--public-out", str(d / "pk.json"), "--seed", "7")
        assert code == 0
    assert (a / "sk.json").read_text() == (b / "sk.json").read_text()
    assert (a / "pk.json").read_text() == (b / "pk.json").read_text()


def test_cli_self_test_and_gen_vectors(tmp_path):
    code, diag = run_cli("self-test")
    assert code == 0 and diag["ok"] and diag["profile"] == "bn254"
    out = tmp_path / "vec.json"
    code, diag = run_cli("gen-vectors", "--out", str(out), "--seed", "5")
    assert code == 0 and out.exists()
    again = tmp_path / "vec2.json"
    run_cli("gen-vectors", "--out", str(again), "--seed", "5")
    assert out.read_text() == again.read_text()
    # the option is gone, not ignored
    assert run_cli("self-test", "--toy")[0] == 2


def test_cli_self_test_checks_a_warm_verify(monkeypatch, capsys):
    """self-test verifies a forgery and the honest presentation again with
    the roots memoised, and compares a memoised root with the uncached
    one, so a memo that hands back the other root fails it by name even
    where issuer and verifier agree on it."""
    assert cli.main(["self-test"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["warm_verify_agrees"] is True
    exact = params.sqrt_mod.__wrapped__

    def odd_root(a, p):
        y = exact(a, p)
        return None if y is None else (p - y) % p

    odd_root.__wrapped__ = exact
    monkeypatch.setattr(params, "sqrt_mod", odd_root)
    assert cli.main(["self-test"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["warm_verify_agrees"] is False
    assert checks["hash_on_curve"] is True


def test_cli_self_test_checks_keygen_against_g2_mul(monkeypatch, capsys):
    """self-test compares the fixed-seed key's pk with g2_mul of the
    generator, so a key from a bad table fails it by name."""
    assert cli.main(["self-test"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["keygen_matches_reference"] is True
    monkeypatch.setattr(points, "g2_mul_gen", lambda k: points.g2_mul(points.G2_GEN, k + 1))
    assert cli.main(["self-test"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["keygen_matches_reference"] is False


# -- hostile keys and presentations in bounded time and memory ---------------------------
#
# Each shape enters as wire text, is parsed by public_key_from_json and
# presentation_from_json and then checked by ces_verify, as `blsces verify`
# does.  Each must end in its own code ("malformed" where parsing refuses
# it, as the CLI reports), under a wall-time bound of at least five times
# the cost measured on 2 CPUs with Python 3.11.7 and a tracemalloc peak
# bound of at least twice it.  Measured: 0.43 s and 0.76 MB; 2 us and
# 1 KB, since loads refuses the 10.8 MB text before json.loads reads it
# (json.loads of it peaked at 44 MB); 0.06 s and 19 MB; 1.2 ms and 5 KB.

# shape: (code, wall seconds, peak MB)
PRESENTATION_BUDGETS = {
    "widest_presentation": ("ok", 2.5, 4),
    "extra_claims": ("too_large", 0.05, 1),
    "extra_counters": ("counters_mismatch", 0.5, 48),
    "key_outside_g2": ("malformed", 0.05, 1),
}


@pytest.fixture(scope="module")
def hostile_presentations(issuer):
    """Each shape's key text and presentation text.  The widest discloses
    all 1,024 claims of a credential under a policy at its caps, 256
    subsets of width 1,024; the others start from an honest two-claim
    presentation: 10^5 claim entries too many (10.8 MB of text), 10^5
    counters too many, and a key on the twist but outside G2."""
    ceas = CEAS.from_index_sets(MAX_CEAS_WIDTH, [list(range(MAX_CEAS_WIDTH))] + [[0, k] for k in range(1, MAX_CEAS_SUBSETS)])
    cred = Credential(tuple(Claim("holder", f"p{i}", f"v{i}") for i in range(MAX_CEAS_WIDTH)))
    widest = ces_extract(ces_sign(issuer.sk, cred, ceas), ExtractionSet(frozenset(range(MAX_CEAS_WIDTH))))
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    pres = formats.presentation_to_json(ces_extract(ces_sign(issuer.sk, cred, ceas), ExtractionSet(frozenset({0, 1}))))
    key = formats.public_key_to_json(issuer.pk)
    outside = dict(key, public_key=g2_to_bytes(BAD_KEYS["off_subgroup"]).hex())
    counters = {**pres["counters"], **{str(k): 0 for k in range(2, 100_002)}}
    shapes = {
        "widest_presentation": (key, formats.presentation_to_json(widest)),
        "extra_claims": (key, dict(pres, claims=pres["claims"] + pres["claims"][:1] * 100_000)),
        "extra_counters": (key, dict(pres, counters=counters)),
        "key_outside_g2": (outside, pres),
    }
    return {name: (formats.dumps(k), formats.dumps(p)) for name, (k, p) in shapes.items()}


def present(key_text, presentation_text):
    """The code `blsces verify` reports for the two files' texts."""
    try:
        pk = formats.public_key_from_json(formats.loads(key_text))
        pres = formats.presentation_from_json(formats.loads(presentation_text))
    except FileTooLargeError:
        return "too_large"
    except EncodingError:
        return "malformed"
    return ces_verify(pk, pres).code


@pytest.mark.parametrize("name", sorted(PRESENTATION_BUDGETS))
def test_hostile_presentation_is_refused_within_budget(name, hostile_presentations):
    code, max_seconds, max_mb = PRESENTATION_BUDGETS[name]
    texts = hostile_presentations[name]
    t0 = time.perf_counter()
    assert present(*texts) == code
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    try:
        assert present(*texts) == code
        peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()
    assert seconds < max_seconds and peak < max_mb, (seconds, peak)


def test_widest_verify_serialises_its_policy_once(monkeypatch, hostile_presentations):
    """Parsing and verifying the widest presentation packs its policy's
    header once, when the policy is made, not once per claim message."""
    packs = []

    def pack(fmt, *args):
        packs.append(fmt)
        return struct.pack(fmt, *args)

    monkeypatch.setattr(credential, "struct", types.SimpleNamespace(pack=pack, unpack=struct.unpack))
    assert present(*hostile_presentations["widest_presentation"]) == "ok"
    assert packs.count(">II") == 1


def test_file_cap_admits_the_widest_honest_files(issuer, hostile_presentations, tmp_path):
    """formats.loads parses a text of exactly MAX_FILE_BYTES and refuses
    one character more before json.loads reads it, allocating less than
    64 KB; the widest honest key, presentation and signed credential, a
    1,024-claim credential under a policy of 256 subsets of 1,023 or
    1,024 indices, fit under it with room for longer claims.  The CLI reads at most one byte over the
    cap of a file, and reports a longer one with exit 2 and kind
    too_large."""
    cap = formats.MAX_FILE_BYTES
    at_cap = '"' + "a" * (cap - 2) + '"'
    assert formats.loads(at_cap) == "a" * (cap - 2)
    over = at_cap + " "
    tracemalloc.start()
    try:
        with pytest.raises(FileTooLargeError):
            formats.loads(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    key_text, pres_text = hostile_presentations["widest_presentation"]
    policy = CEAS.from_index_sets(
        MAX_CEAS_WIDTH,
        [list(range(MAX_CEAS_WIDTH))] + [[i for i in range(MAX_CEAS_WIDTH) if i != k] for k in range(1, MAX_CEAS_SUBSETS)],
    )
    # re-extractable, every counter of three digits
    pres = json.loads(pres_text)
    pres["ceas"] = {"n": MAX_CEAS_WIDTH, "subsets": policy.index_sets()}
    pres["counters"] = {i: 255 for i in pres["counters"]}
    pres["kept_signatures"] = {i: pres["aggregate_signature"] for i in pres["counters"]}
    signed = dict(pres, format=formats.FORMAT_SIGNED, signatures=list(pres["kept_signatures"].values()),
                  counters=list(pres["counters"].values()))
    for text in (key_text, formats.dumps(pres), formats.dumps(signed)):
        assert len(text.encode()) <= cap // 2
        formats.loads(text)
    path = tmp_path / "big.json"
    path.write_text(" " * cap + "{}")
    code, diag = run_cli("verify", "--pubkey", str(path), "--presentation", str(path))
    assert (code, diag["kind"]) == (2, "too_large")
    tracemalloc.start()
    try:
        with pytest.raises(FileTooLargeError):
            cli._read_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap + (1 << 20), peak
