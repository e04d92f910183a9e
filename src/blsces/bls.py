"""BLS signatures over BN254 with try-and-increment hashing to G1.

``hash_to_g1`` appends a single counter byte to the message and takes
sha256 until the leading digest bits name a curve x-coordinate whose
rhs = x^3 + b is a nonzero quadratic residue.  The counter is exposed to
callers because the credential layers re-run the final, deterministic
iteration and prove it inside a constraint system.

Digest layout for a profile whose prime has L bits: the first L digest
bits (big-endian) are the candidate x, the remaining 256 - L bits are
spare, and the highest spare bit picks the square root, so the hashed
point is (x, (-1)^sign * sqrt(x^3 + b)).  Candidates with x >= p or a
zero/non-residue rhs advance the counter.

The search decides each candidate by its Legendre symbol (a binary
Jacobi computation, about a fifth of a square root's modular
exponentiation) and takes the square root only of the residue it lands
on: one root per hashed message, where about half the candidates tried
are non-residues.  ``hash_to_g1_at``, which verifiers call at a counter
that travels with the signature, takes the root directly.  Roots are
memoised per process (``params.sqrt_mod``), so a claim message hashed
before, by the issuer or by an earlier verify, costs its digest and a
lookup.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from blsces.errors import (
    DuplicateMessageError,
    EncodingError,
    HashToCurveFailure,
    InvalidPublicKeyError,
    ValidationError,
)
from blsces.groups import (
    BN254,
    G2_GEN,
    CurveProfile,
    G1Point,
    G2Point,
    check_g1,
    g1_compress,
    g1_decompress,
    g1_sum,
    pairing_product_is_one,
    points,
)
from blsces.groups.params import PROFILES, R, legendre

COUNTER_BOUND = 256  # counter fits one byte; miss probability ~ 2^-256 per message

SHA256_BITS = 256


@dataclass(frozen=True)
class KeyPair:
    """Signing key (scalar mod r) and its public key sk * g2."""

    sk: int
    pk: G2Point


@dataclass(frozen=True)
class Signature:
    """Compressed-G1 signature bytes (32 bytes)."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != 32:
            raise EncodingError("signature must be 32 bytes")

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True)
class HashToG1Result:
    point: G1Point
    counter: int
    sign_bit: int
    x: int


def keygen(rng=None) -> KeyPair:
    """Sample a keypair.  ``rng`` needs ``randrange``; defaults to the OS CSPRNG.

    A seeded random.Random gives reproducible keys for test vectors.
    """
    if rng is None:
        rng = secrets.SystemRandom()
    sk = rng.randrange(1, R)
    return KeyPair(sk=sk, pk=points.g2_mul_gen(sk))


def hash_candidate(msg: bytes, counter: int, profile: CurveProfile = BN254) -> tuple[int, int, int]:
    """One try-and-increment step: digest of msg || counter split into
    (candidate x, sign bit, spare bits)."""
    if not 0 <= counter < COUNTER_BOUND:
        raise ValidationError("counter out of range")
    digest = hashlib.sha256(msg + bytes([counter])).digest()
    d = int.from_bytes(digest, "big")
    shift = SHA256_BITS - profile.x_bits
    x = d >> shift
    spare = d & ((1 << shift) - 1)
    sign = (spare >> (shift - 1)) & 1
    return x, sign, spare


def hash_to_g1_at(msg: bytes, counter: int, profile: CurveProfile = BN254) -> HashToG1Result | None:
    """Evaluate the single deterministic iteration at a given counter.

    Returns None when that counter does not land on the curve.  This is
    the building block verifiers use when the counter travels with the
    signature instead of being re-derived.
    """
    x, sign, _ = hash_candidate(msg, counter, profile)
    y0 = profile.signing_root(x)
    if y0 is None:
        return None
    y = (profile.p - y0) % profile.p if sign else y0
    return HashToG1Result(point=G1Point(x, y), counter=counter, sign_bit=sign, x=x)


@lru_cache(maxsize=4096)
def _hash_to_g1_cached(msg: bytes, profile_name: str) -> HashToG1Result:
    """The first counter whose candidate lands on the curve.

    A candidate is skipped on its symbol: x >= p, or rhs(x) zero or a
    non-residue.  Only a residue reaches ``hash_to_g1_at`` and its square
    root, so a search takes one root however many counters it tries, and
    lands on the same counter as trying every root would.
    """
    profile = PROFILES[profile_name]
    for counter in range(COUNTER_BOUND):
        x, _, _ = hash_candidate(msg, counter, profile)
        if x >= profile.p or legendre(profile.rhs(x), profile.p) != 1:
            continue
        result = hash_to_g1_at(msg, counter, profile)
        if result is not None:
            return result
    raise HashToCurveFailure(f"no curve point within {COUNTER_BOUND} counters")


def hash_to_g1(msg: bytes, profile: CurveProfile = BN254) -> HashToG1Result:
    """Deterministic try-and-increment hash onto the curve."""
    return _hash_to_g1_cached(bytes(msg), profile.name)


def sign(sk: int, msg: bytes) -> Signature:
    """Deterministic BLS signature: compress(sk * H(msg))."""
    return sign_hashed(sk, hash_to_g1(msg))


def sign_hashed(sk: int, h: HashToG1Result) -> Signature:
    return Signature(g1_compress(sign_points(sk, [h])[0]))


def sign_points(sk: int, hashed: Sequence[HashToG1Result]) -> list[G1Point]:
    """The signature points [sk]H of hashed messages, by one batched
    multiplication; each H is checked against the curve first."""
    if not 0 < sk < R:
        raise ValidationError("signing key out of range")
    return points.g1_mul_many([check_g1(h.point) for h in hashed], sk)


def decode_signature(sig: Signature) -> G1Point:
    """Decode signature bytes to a point; raises EncodingError when malformed."""
    return g1_decompress(sig.data)


def verify(pk: G2Point, msg: bytes, sig: Signature) -> bool:
    """Pairing check e(H(msg), pk) == e(sig, g2).

    Raises like ``verify_aggregate_points``: EncodingError for malformed
    signature bytes, InvalidPublicKeyError for the identity key, and
    OffCurveError for a key off the curve or outside G2.  The key is
    validated by ``pairing.precompute_g2`` together with its cached line
    precompute, so a key parsed by ``g2_from_bytes`` is not checked again.
    """
    return verify_aggregate_points([pk], [hash_to_g1(msg).point], sig)


def aggregate(sigs: Sequence[Signature]) -> Signature:
    """Sum the signature points; the empty aggregate is the identity encoding."""
    decoded = []
    for idx, sig in enumerate(sigs):
        try:
            decoded.append(decode_signature(sig))
        except EncodingError as exc:
            raise EncodingError(f"signature {idx} malformed: {exc}") from exc
    return Signature(g1_compress(g1_sum(decoded)))


def verify_aggregate_points(
    pks: Sequence[G2Point],
    points: Sequence[G1Point],
    agg: Signature,
) -> bool:
    """Pairing-product check over already-hashed message points.

    Checks prod e(H_i, pk_i) == e(agg, g2) as prod_pk e(sum of that key's
    H_i, pk) * e(-agg, g2), which is the same equation by bilinearity:
    one Miller loop per distinct key plus one for the aggregate, however
    many points share a key.  Every point is still checked against the
    curve equation before it is summed.

    Malformed aggregate bytes raise EncodingError and an identity public
    key raises InvalidPublicKeyError, so callers can report both apart
    from a cryptographic reject.  The identity key must never reach the
    pairing: e(H, identity) is 1 for every H, so the identity aggregate
    would verify any message.
    """
    if len(pks) != len(points) or not pks:
        raise ValidationError("need equally many public keys and points, at least one")
    if any(pk.is_identity() for pk in pks):
        raise InvalidPublicKeyError("public key is the G2 identity")
    agg_point = decode_signature(agg)
    by_key: dict[G2Point, list[G1Point]] = {}
    for pk, pt in zip(pks, points):
        by_key.setdefault(pk, []).append(check_g1(pt))
    pairs = [(g1_sum(pts), pk) for pk, pts in by_key.items()]
    pairs.append((-agg_point, G2_GEN))
    return pairing_product_is_one(pairs)


def verify_aggregate(
    pks: Sequence[G2Point],
    msgs: Sequence[bytes],
    agg: Signature,
) -> bool:
    """Verify prod e(H(m_i), pk_i) == e(agg, g2).

    Messages must be pairwise distinct: the credential layer always
    embeds the claim index, so a repeat can only be hostile input.
    """
    if len(pks) != len(msgs):
        raise ValidationError("public key and message counts differ")
    if not msgs:
        raise ValidationError("empty aggregate verification")
    if len(set(msgs)) != len(msgs):
        raise DuplicateMessageError("aggregate verification with repeated message")
    return verify_aggregate_points(pks, [hash_to_g1(m).point for m in msgs], agg)
