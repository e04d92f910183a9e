"""JSON file formats for keys, credentials, presentations, and proofs.

A proof bundle carries the proof, its public inputs and the aggregate
signature of the disclosed claims, so a verifier needs only the issuer
key besides it and no presentation.

Human-facing files are JSON; anything hashed or signed uses the
canonical byte serializations from the credential module.  The two
never mix: parsing a file reconstructs objects, and canonical bytes are
recomputed from those objects, so JSON quirks can never reach a hash.
Files carry no timestamps and serialize with sorted keys, which keeps
byte-identical outputs for identical inputs.
"""

from __future__ import annotations

import base64
import json
from typing import Any

from blsces import bls
from blsces.ces import ExtractedPresentation, SignedCredential
from blsces.credential import BLINDED, CEAS, Claim, Credential
from blsces.errors import EncodingError, FileTooLargeError
from blsces.groups import G2Point, g2_from_bytes, g2_to_bytes
from blsces.groups.params import FIELD_BYTES
from blsces.wire import hex_bytes, json_int
from blsces.zk.backend import TRANSPARENT_BACKEND, Proof
from blsces.zk.statement import PublicInputs

FORMAT_SECRET_KEY = "blsces-secret-key"
FORMAT_PUBLIC_KEY = "blsces-public-key"
FORMAT_CREDENTIAL = "blsces-credential"
FORMAT_SIGNED = "blsces-signed-credential"
FORMAT_PRESENTATION = "blsces-presentation"
FORMAT_PROOF = "blsces-proof-bundle"
VERSION = 1


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _expect(data: Any, fmt: str) -> dict:
    if not isinstance(data, dict):
        raise EncodingError("expected a JSON object")
    if data.get("format") != fmt:
        raise EncodingError(f"expected format {fmt!r}, found {data.get('format')!r}")
    if data.get("version") != VERSION:
        raise EncodingError(f"unsupported version {data.get('version')!r}")
    return data


def _sig_bytes(value: Any) -> bytes:
    return hex_bytes(value, "signature", FIELD_BYTES)


def _index_key(key: Any) -> int:
    """An object key naming a claim index, in its one canonical spelling."""
    try:
        i = int(key)
    except (TypeError, ValueError) as exc:
        raise EncodingError(f"bad index key {key!r}") from exc
    if str(i) != key:
        raise EncodingError(f"index key {key!r} is not canonical")
    return i


# Most characters (or bytes) of a file loads() hands to json.loads.  The
# widest honest file holds a policy at its caps, 256 subsets of up to
# 1,024 indices (3.4 MB as dumps writes them), which leaves 4.8 MB for
# the claims of a 1,024-claim credential.
MAX_FILE_BYTES = 1 << 23


def loads(text: str | bytes) -> dict:
    if len(text) > MAX_FILE_BYTES:
        raise FileTooLargeError(f"file of more than {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise EncodingError(f"invalid JSON: {exc}") from exc


# -- keys -------------------------------------------------------------------

def secret_key_to_json(sk: int) -> dict:
    return {
        "format": FORMAT_SECRET_KEY,
        "version": VERSION,
        "curve": "bn254",
        "secret_key": f"{sk:064x}",
    }


def secret_key_from_json(data: dict) -> int:
    data = _expect(data, FORMAT_SECRET_KEY)
    return int.from_bytes(hex_bytes(data.get("secret_key"), "secret key", FIELD_BYTES), "big")


def public_key_to_json(pk: G2Point) -> dict:
    return {
        "format": FORMAT_PUBLIC_KEY,
        "version": VERSION,
        "curve": "bn254",
        "public_key": g2_to_bytes(pk).hex(),
    }


def public_key_from_json(data: dict) -> G2Point:
    data = _expect(data, FORMAT_PUBLIC_KEY)
    return g2_from_bytes(hex_bytes(data.get("public_key"), "public key", 4 * FIELD_BYTES))


# -- credentials -------------------------------------------------------------

def _claims_to_json(cred: Credential) -> list[dict]:
    out = []
    for c in cred.claims:
        out.append(
            {
                "subject": c.subject,
                "property": None if c.property is BLINDED else c.property,
                "value": None if c.value is BLINDED else c.value,
                "hidden": c.hidden,
            }
        )
    return out


def _claims_from_json(items: Any) -> Credential:
    if not isinstance(items, list) or not items:
        raise EncodingError("claims must be a non-empty list")
    claims = []
    for item in items:
        if not isinstance(item, dict):
            raise EncodingError("claim entries must be objects")
        subject = item.get("subject")
        prop = item.get("property")
        value = item.get("value")
        hidden = item.get("hidden", False)
        if not isinstance(hidden, bool):
            raise EncodingError("claim hidden flag must be a boolean")
        if not isinstance(subject, str):
            raise EncodingError("claim subject must be a string")
        if hidden:
            value_f = BLINDED
            prop_f = BLINDED if prop is None else prop
        else:
            if not isinstance(value, str):
                raise EncodingError("visible claim needs a string value")
            value_f = value
            prop_f = prop
        if prop_f is not BLINDED and not isinstance(prop_f, str):
            raise EncodingError("claim property must be a string")
        claims.append(Claim(subject=subject, property=prop_f, value=value_f))
    return Credential(tuple(claims))


def _ceas_to_json(ceas: CEAS) -> dict:
    return {"n": ceas.n, "subsets": ceas.index_sets()}


def _ceas_from_json(data: Any) -> CEAS:
    if not isinstance(data, dict):
        raise EncodingError("ceas must be an object")
    try:
        subsets = ((json_int(i, "subset index") for i in s) for s in data["subsets"])
        return CEAS.from_index_sets(json_int(data["n"], "ceas n"), subsets)
    except Exception as exc:  # KeyError, TypeError, ValueError, ValidationError
        raise EncodingError(f"bad ceas: {exc}") from exc


ceas_from_json = _ceas_from_json


def credential_to_json(cred: Credential, ceas: CEAS | None = None) -> dict:
    out = {
        "format": FORMAT_CREDENTIAL,
        "version": VERSION,
        "subject": cred.claims[0].subject,
        "claims": _claims_to_json(cred),
    }
    if ceas is not None:
        out["ceas"] = _ceas_to_json(ceas)
    return out


def credential_from_json(data: dict) -> tuple[Credential, CEAS | None]:
    data = _expect(data, FORMAT_CREDENTIAL)
    cred = _claims_from_json(data.get("claims"))
    ceas = _ceas_from_json(data["ceas"]) if data.get("ceas") is not None else None
    return cred, ceas


# -- signed credentials -------------------------------------------------------

def signed_to_json(sc: SignedCredential) -> dict:
    return {
        "format": FORMAT_SIGNED,
        "version": VERSION,
        "subject": sc.cred.claims[0].subject,
        "claims": _claims_to_json(sc.cred),
        "ceas": _ceas_to_json(sc.ceas),
        "signatures": [s.data.hex() for s in sc.sigs],
        "counters": list(sc.counters),
    }


def signed_from_json(data: dict) -> SignedCredential:
    data = _expect(data, FORMAT_SIGNED)
    cred = _claims_from_json(data.get("claims"))
    ceas = _ceas_from_json(data.get("ceas"))
    try:
        sigs = tuple(bls.Signature(_sig_bytes(h)) for h in data["signatures"])
        counters = tuple(json_int(c, "counter") for c in data["counters"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise EncodingError(f"bad signed credential: {exc}") from exc
    if any(not 0 <= c < 256 for c in counters):
        raise EncodingError("counter out of byte range")
    try:
        return SignedCredential(cred=cred, ceas=ceas, sigs=sigs, counters=counters)
    except Exception as exc:
        raise EncodingError(f"inconsistent signed credential: {exc}") from exc


# -- presentations -------------------------------------------------------------

def presentation_to_json(pres: ExtractedPresentation) -> dict:
    out = {
        "format": FORMAT_PRESENTATION,
        "version": VERSION,
        "subject": pres.sub_cred.claims[0].subject,
        "claims": _claims_to_json(pres.sub_cred),
        "ceas": _ceas_to_json(pres.ceas),
        "aggregate_signature": pres.sigma.data.hex(),
        "counters": {str(i): c for i, c in sorted(pres.counters.items())},
        "kept_signatures": (
            {str(i): s.data.hex() for i, s in sorted(pres.kept_sigs.items())}
            if pres.kept_sigs is not None
            else None
        ),
    }
    return out


def presentation_from_json(data: dict) -> ExtractedPresentation:
    data = _expect(data, FORMAT_PRESENTATION)
    cred = _claims_from_json(data.get("claims"))
    ceas = _ceas_from_json(data.get("ceas"))
    try:
        sigma = bls.Signature(_sig_bytes(data["aggregate_signature"]))
        counters = {_index_key(k): json_int(v, "counter") for k, v in data["counters"].items()}
        kept = data.get("kept_signatures")
        kept_sigs = (
            {_index_key(k): bls.Signature(_sig_bytes(v)) for k, v in kept.items()}
            if kept is not None
            else None
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise EncodingError(f"bad presentation: {exc}") from exc
    if any(not 0 <= c < 256 for c in counters.values()):
        raise EncodingError("counter out of byte range")
    return ExtractedPresentation(
        sub_cred=cred, ceas=ceas, sigma=sigma, counters=counters, kept_sigs=kept_sigs
    )


# -- proof bundles --------------------------------------------------------------

def proof_bundle_to_json(proof: Proof, inputs: PublicInputs, sigma: bls.Signature) -> dict:
    """A proof bundle; ``sigma`` aggregates the disclosed claims' signatures."""
    ceas = CEAS.from_bytes(inputs.ceas_bytes)
    return {
        "format": FORMAT_PROOF,
        "version": VERSION,
        "backend": TRANSPARENT_BACKEND.name,
        "aggregate_signature": sigma.data.hex(),
        "public_inputs": {
            "x": [f"{x:064x}" for x in inputs.x_coords],
            "sign_bits": list(inputs.sign_bits),
            "ceas": _ceas_to_json(ceas),
            "extraction": list(inputs.extraction),
        },
        "proof": base64.b64encode(proof.data).decode("ascii"),
    }


def proof_bundle_from_json(data: dict) -> tuple[Proof, PublicInputs, bls.Signature]:
    """Parse a proof bundle into its proof, public inputs and aggregate
    signature; a bundle naming any prover backend other than the
    transparent one, or without a 32-byte signature, is malformed."""
    data = _expect(data, FORMAT_PROOF)
    if data.get("backend") != TRANSPARENT_BACKEND.name:
        raise EncodingError(f"unknown prover backend {data.get('backend')!r}")
    try:
        pub = data["public_inputs"]
        ceas = _ceas_from_json(pub["ceas"])
        inputs = PublicInputs(
            x_coords=tuple(int.from_bytes(hex_bytes(h, "x", FIELD_BYTES), "big") for h in pub["x"]),
            sign_bits=tuple(json_int(b, "sign bit") for b in pub["sign_bits"]),
            ceas_bytes=ceas.to_bytes(),
            extraction=tuple(json_int(i, "extraction index") for i in pub["extraction"]),
        )
        proof = Proof(base64.b64decode(data["proof"], validate=True))
        sigma = bls.Signature(_sig_bytes(data["aggregate_signature"]))
    except Exception as exc:
        raise EncodingError(f"bad proof bundle: {exc}") from exc
    return proof, inputs, sigma
