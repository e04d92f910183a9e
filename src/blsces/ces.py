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

Signing hashes every claim first and signs them all in one batched G1
multiplication (``bls.sign_points``).  The credential ``ces_sign``
returns keeps those points, and one parsed from JSON decodes each
signature the first time it is extracted.  A re-extractable
presentation holds the points of its kept signatures the same way, so
``ces_extract`` sums points and decompresses no signature twice, from
either source.  On the verify-one-issuer benchmark's set-up (8
credentials of 16 claims, 10 extractions each) the two took the median
``setup_s`` from 0.244 to 0.176 s (``perfbench/run.py``, 10 pairs of
30 s runs, 2 CPUs, Python 3.11.7).

``ces_verify`` decodes the presented aggregate and hashes the disclosed
claims on every call, but their square roots are memoised per process
(``params.sqrt_mod``), so a presentation verified before pays no root
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from blsces.errors import EncodingError, InvalidPublicKeyError, OffCurveError, ValidationError
from blsces.groups import G1Point, G2Point, g1_compress, g1_sum


@dataclass(frozen=True)
class SignedCredential:
    cred: Credential
    ceas: CEAS
    sigs: tuple[bls.Signature, ...]
    counters: tuple[int, ...]
    # Signature points by claim index, filled by ces_sign or by ``point``
    # on first use, so each signature is decoded at most once.  It is no
    # init field, so dataclasses.replace starts a new credential empty.
    _points: dict[int, G1Point] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sigs) != len(self.cred) or len(self.counters) != len(self.cred):
            raise ValidationError("one signature and counter per claim required")

    def point(self, i: int) -> G1Point:
        """Claim i's signature as a point; malformed bytes raise
        EncodingError naming the claim."""
        return _point(self._points, self.sigs, i)


def _point(points: dict[int, G1Point], sigs, i: int) -> G1Point:
    """``sigs[i]`` as a point, decoded once into ``points``."""
    pt = points.get(i)
    if pt is None:
        try:
            pt = bls.decode_signature(sigs[i])
        except EncodingError as exc:
            raise EncodingError(f"signature {i} malformed: {exc}") from exc
        points[i] = pt
    return pt


@dataclass(frozen=True)
class ExtractedPresentation:
    sub_cred: Credential
    ceas: CEAS
    sigma: bls.Signature
    counters: dict[int, int]
    kept_sigs: Optional[dict[int, bls.Signature]] = None
    # Kept signature points by claim index, as ``SignedCredential._points``:
    # filled by ces_extract from its source's points or by ``point`` on
    # first use, so re-extraction decodes each kept signature at most once.
    _points: dict[int, G1Point] = field(default_factory=dict, init=False, repr=False, compare=False)

    def point(self, i: int) -> G1Point:
        """Kept claim i's signature as a point; malformed bytes raise
        EncodingError naming the claim."""
        return _point(self._points, self.kept_sigs, i)

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
    hashed = [bls.hash_to_g1(encode_claim_message(ceas, n, i, claim)) for i, claim in enumerate(cred.claims)]
    pts = bls.sign_points(sk, hashed)
    signed = SignedCredential(
        cred=cred,
        ceas=ceas,
        sigs=tuple(bls.Signature(g1_compress(pt)) for pt in pts),
        counters=tuple(h.counter for h in hashed),
    )
    signed._points.update(enumerate(pts))
    return signed


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
    points = [source.point(i) for i in x.sorted()]
    pres = ExtractedPresentation(
        sub_cred=sub,
        ceas=source.ceas,
        sigma=bls.Signature(g1_compress(g1_sum(points))),
        counters={i: counter_at[i] for i in x.sorted()},
        kept_sigs={i: sig_at[i] for i in x.sorted()} if reextractable else None,
    )
    if reextractable:
        pres._points.update(zip(x.sorted(), points))
    return pres


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
    # The hashed points are on the curve by construction and a bad
    # aggregate raises EncodingError, so a failed point check is the key's.
    try:
        ok = bls.verify_aggregate_points([pk] * len(points), points, pres.sigma)
    except (InvalidPublicKeyError, OffCurveError):
        return VerifyResult(False, "invalid_public_key")
    except (EncodingError, ValidationError):
        return VerifyResult(False, "malformed_signature")
    if not ok:
        return VerifyResult(False, "signature_mismatch")
    return VerifyResult(True)
