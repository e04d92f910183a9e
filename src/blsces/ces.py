"""Content-extraction signatures: per-claim signing, extraction, verification.

The issuer signs every claim of a credential separately, binding each
signature to the extraction policy, the credential length, and the claim
index.  Extraction blinds undisclosed claims and aggregates the
remaining signatures into one group element; verification rebuilds the
per-claim messages from the visible claims and runs a single pairing
product against the issuer key.

Counters: signing runs try-and-increment once per claim and stores the
successful counter next to the signature, so holders never re-derive
them.  Verification consumes the presented counters by evaluating the
final hash iteration directly; a tampered counter lands on a different
curve point (or none) and the pairing check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from blsces import bls
from blsces.credential import (
    CEAS,
    Credential,
    ExtractionSet,
    ceas_contains,
    clear_indices,
    encode_claim_message,
)
from blsces.errors import EncodingError, InvalidPublicKeyError, ValidationError
from blsces.groups import G2Point


@dataclass(frozen=True)
class SignedCredential:
    cred: Credential
    ceas: CEAS
    sigs: tuple[bls.Signature, ...]
    counters: tuple[int, ...]

    def __post_init__(self):
        if len(self.sigs) != len(self.cred) or len(self.counters) != len(self.cred):
            raise ValidationError("one signature and counter per claim required")


@dataclass(frozen=True)
class ExtractedPresentation:
    sub_cred: Credential
    ceas: CEAS
    sigma: bls.Signature
    counters: dict[int, int]
    kept_sigs: Optional[dict[int, bls.Signature]] = None

    def ext_sig_bytes(self) -> bytes:
        """Canonical bytes of the extracted signature: policy, aggregate,
        and the visible-index counters.  This is what privacy tests
        compare; no hidden-claim data participates."""
        parts = [self.ceas.to_bytes(), self.sigma.data]
        for i in sorted(self.counters):
            parts.append(i.to_bytes(4, "big") + bytes([self.counters[i]]))
        return b"".join(parts)


@dataclass(frozen=True)
class VerifyResult:
    accept: bool
    code: str = "ok"

    def __bool__(self) -> bool:
        return self.accept


def ces_sign(sk: int, cred: Credential, ceas: CEAS) -> SignedCredential:
    """Sign every claim of a fully visible credential under the policy."""
    if not cred.all_visible:
        raise ValidationError("issuance requires every claim visible")
    if ceas.n != len(cred):
        raise ValidationError("CEAS width differs from credential length")
    n = len(cred)
    sigs = []
    counters = []
    for i, claim in enumerate(cred.claims):
        msg = encode_claim_message(ceas, n, i, claim)
        h = bls.hash_to_g1(msg)
        sigs.append(bls.sign_hashed(sk, h))
        counters.append(h.counter)
    return SignedCredential(cred=cred, ceas=ceas, sigs=tuple(sigs), counters=tuple(counters))


def _blind_outside(cred: Credential, keep: ExtractionSet, blind_properties: bool) -> Credential:
    claims = []
    for i, claim in enumerate(cred.claims):
        if i in keep:
            claims.append(claim)
        else:
            claims.append(claim.hide(blind_property=blind_properties))
    return Credential(tuple(claims))


def ces_extract(
    source: "SignedCredential | ExtractedPresentation",
    x: ExtractionSet,
    reextractable: bool = False,
    blind_properties: bool = False,
) -> ExtractedPresentation:
    """Derive a presentation disclosing exactly the claims indexed by ``x``.

    ``source`` is either a signed credential or a re-extractable
    presentation (iterative extraction).  Whether ``x`` is allowed by
    the policy is deliberately not enforced here; the verifier enforces
    it, and a holder extracting outside the policy only hurts themself.
    """
    if isinstance(source, SignedCredential):
        cred = source.cred
        available = set(range(len(cred)))
        sig_at = {i: source.sigs[i] for i in available}
        counter_at = {i: source.counters[i] for i in available}
    else:
        if source.kept_sigs is None:
            raise ValidationError("presentation was not extracted in re-extractable mode")
        cred = source.sub_cred
        available = set(source.kept_sigs)
        sig_at = dict(source.kept_sigs)
        counter_at = dict(source.counters)
    n = len(cred)
    if any(i >= n for i in x.indices):
        raise ValidationError(f"extraction index out of range for length {n}")
    if not x.indices <= available:
        raise ValidationError("extraction set exceeds the claims available in the source")
    for i in x.sorted():
        if cred[i].hidden:
            raise ValidationError(f"claim {i} is already hidden in the source")

    sub = _blind_outside(cred, x, blind_properties)
    sigma = bls.aggregate([sig_at[i] for i in x.sorted()])
    return ExtractedPresentation(
        sub_cred=sub,
        ceas=source.ceas,
        sigma=sigma,
        counters={i: counter_at[i] for i in x.sorted()},
        kept_sigs={i: sig_at[i] for i in x.sorted()} if reextractable else None,
    )


def ces_verify(pk: G2Point, pres: ExtractedPresentation) -> VerifyResult:
    """Verify a presentation against the issuer public key.

    Hostile input is tolerated: every failure maps to a reject with a
    diagnostic code rather than an exception.
    """
    visible = clear_indices(pres.sub_cred)
    if not visible:
        return VerifyResult(False, "nothing_disclosed")
    n = len(pres.sub_cred)
    if pres.ceas.n != n:
        return VerifyResult(False, "policy_width_mismatch")
    x = ExtractionSet(visible)
    if not ceas_contains(pres.ceas, x):
        return VerifyResult(False, "extraction_not_allowed")
    if set(pres.counters) != set(visible):
        return VerifyResult(False, "counters_mismatch")

    points = []
    for i in x.sorted():
        claim = pres.sub_cred[i]
        msg = encode_claim_message(pres.ceas, n, i, claim)
        try:
            h = bls.hash_to_g1_at(msg, pres.counters[i])
        except ValidationError:
            h = None
        if h is None:
            return VerifyResult(False, "bad_counter")
        points.append(h.point)
    try:
        ok = bls.verify_aggregate_points([pk] * len(points), points, pres.sigma)
    except InvalidPublicKeyError:
        return VerifyResult(False, "invalid_public_key")
    except (EncodingError, ValidationError):
        return VerifyResult(False, "malformed_signature")
    if not ok:
        return VerifyResult(False, "signature_mismatch")
    return VerifyResult(True)
