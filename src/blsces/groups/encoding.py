"""Byte encodings for field elements and points.

These layouts are the bit-exact contract used everywhere something is
hashed or signed:

* Fp element: 32-byte big-endian integer, value < p.
* Compressed G1: 32 bytes; the low 254 bits hold x big-endian, bit 255
  (0x80 of byte 0) is the root-sign bit, bit 254 (0x40 of byte 0) is the
  identity flag.  The identity is exactly 0x40 followed by 31 zero
  bytes; since x < p < 2^254 a valid x never touches either flag bit.
* Uncompressed G2: 4 x 32 bytes, x.c0 || x.c1 || y.c0 || y.c1; the
  identity is 128 zero bytes.

Root-sign convention: the canonical square root is the even one, so the
sign bit is simply y & 1 and decompression computes
y = (-1)^sign * sqrt(x^3 + b) via y = p - y0 when the bit is set.
"""

from __future__ import annotations

from blsces.errors import EncodingError, OffCurveError
from blsces.groups.pairing import precompute_g2
from blsces.groups.params import BN254, FIELD_BYTES, CurveProfile
# check_g2, which g2_from_bytes reaches only through precompute_g2,
# stays importable here: perfbench/tracing.py binds it by name.
from blsces.groups.points import G1Point, G2Point, G1_IDENTITY, G2_IDENTITY, check_g2  # noqa: F401

_SIGN_BIT = 0x80
_INFINITY_BIT = 0x40

G1_IDENTITY_BYTES = bytes([_INFINITY_BIT]) + bytes(FIELD_BYTES - 1)


def fp_from_bytes(data: bytes, p: int) -> int:
    if len(data) != FIELD_BYTES:
        raise EncodingError(f"expected {FIELD_BYTES} bytes, got {len(data)}")
    value = int.from_bytes(data, "big")
    if value >= p:
        raise EncodingError("field element out of range")
    return value


def decompress_x(x: int, sign_bit: int, profile: CurveProfile = BN254) -> tuple[int, int]:
    """Recover the affine point with the given x and root sign.

    Raises EncodingError when x is out of range or x^3 + b is a
    non-residue (no such curve point).
    """
    if not 0 <= x < profile.p:
        raise EncodingError("x-coordinate out of range")
    if sign_bit not in (0, 1):
        raise EncodingError("sign bit must be 0 or 1")
    y0 = profile.sqrt(profile.rhs(x))
    if y0 is None:
        raise EncodingError("x-coordinate is not on the curve")
    y = (profile.p - y0) % profile.p if sign_bit else y0
    return (x, y)


def g1_compress(pt: G1Point) -> bytes:
    if pt.infinity:
        return G1_IDENTITY_BYTES
    data = bytearray(pt.x.to_bytes(FIELD_BYTES, "big"))
    if pt.y & 1:
        data[0] |= _SIGN_BIT
    return bytes(data)


def g1_decompress(data: bytes) -> G1Point:
    if len(data) != FIELD_BYTES:
        raise EncodingError(f"compressed G1 must be {FIELD_BYTES} bytes")
    head = data[0]
    if head & _INFINITY_BIT:
        if data != G1_IDENTITY_BYTES:
            raise EncodingError("malformed identity encoding")
        return G1_IDENTITY
    sign = 1 if head & _SIGN_BIT else 0
    x = int.from_bytes(bytes([head & 0x3F]) + data[1:], "big")
    return G1Point(*decompress_x(x, sign))


def g2_to_bytes(pt: G2Point) -> bytes:
    if pt.infinity:
        return bytes(4 * FIELD_BYTES)
    (x0, x1), (y0, y1) = pt.x, pt.y
    return b"".join(c.to_bytes(FIELD_BYTES, "big") for c in (x0, x1, y0, y1))


def g2_from_bytes(data: bytes) -> G2Point:
    """Parse an uncompressed G2 point and validate it as a public key.

    Any point but the identity goes through ``pairing.precompute_g2``,
    which checks the curve equation and the subgroup and caches the
    point's Miller-loop lines, so the pairing that follows a parse finds
    them ready.  A point already in that cache passed the check when it
    entered, and costs one lookup.  A failed check raises EncodingError.
    """
    if len(data) != 4 * FIELD_BYTES:
        raise EncodingError(f"G2 encoding must be {4 * FIELD_BYTES} bytes")
    if data == bytes(4 * FIELD_BYTES):
        return G2_IDENTITY
    c = [fp_from_bytes(data[i * FIELD_BYTES:(i + 1) * FIELD_BYTES], BN254.p) for i in range(4)]
    pt = G2Point((c[0], c[1]), (c[2], c[3]))
    try:
        precompute_g2(pt)
    except OffCurveError as exc:
        raise EncodingError(f"invalid G2 point: {exc}") from exc
    return pt
