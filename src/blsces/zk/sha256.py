"""SHA-256 compression and padding in plain Python.

The prover and the verifier hash a claim message's public prefix with
``sha256_compress`` outside the constraint system; the gadget in
``sha256_gadget`` proves the rest.  Round constants and the initial
state are derived from the fractional parts of cube/square roots of
the first primes with exact integer arithmetic (no float rounding); the
test suite pins the result against hashlib.
"""

from __future__ import annotations

import math

WORD = 32


def _primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if all(n % q for q in out if q * q <= n):
            out.append(n)
        n += 1
    return out


def _icbrt(n: int) -> int:
    x = 1 << ((n.bit_length() + 2) // 3 + 1)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


def _iv() -> list[int]:
    return [math.isqrt(p << 64) - (math.isqrt(p) << 32) for p in _primes(8)]


def _round_constants() -> list[int]:
    return [_icbrt(p << 96) - (_icbrt(p) << 32) for p in _primes(64)]


SHA256_IV = _iv()
SHA256_K = _round_constants()


def rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (WORD - n))) & 0xFFFFFFFF


def sha256_compress(state: list[int], block: bytes) -> list[int]:
    """One plain compression application; used for hashing a claim
    message's public prefix outside the constraint system."""
    w = list(int.from_bytes(block[4 * t: 4 * t + 4], "big") for t in range(16))
    for t in range(16, 64):
        s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & 0xFFFFFFFF)
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        t1 = (h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + SHA256_K[t] + w[t]) & 0xFFFFFFFF
        t2 = ((rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c))) & 0xFFFFFFFF
        a, b, c, d, e, f, g, h = (t1 + t2) & 0xFFFFFFFF, a, b, c, (d + t1) & 0xFFFFFFFF, e, f, g
    return [(s + v) & 0xFFFFFFFF for s, v in zip(state, [a, b, c, d, e, f, g, h])]


def sha256_pad(length: int) -> bytes:
    """Padding bytes appended to a message of ``length`` bytes."""
    rem = (length + 9) % 64
    zeros = (64 - rem) % 64
    return b"\x80" + bytes(zeros) + (8 * length).to_bytes(8, "big")
