"""SHA-256 compression and padding in plain Python.

Only the recording builder runs ``sha256_compress``: it hashes a claim
message's public prefix outside the constraint system, and the gadget
in ``sha256_gadget`` proves the rest.  The verifier takes the claim's
digest from ``hashlib`` and runs neither.  Round constants and the
initial state are derived from the fractional parts of cube/square
roots of the first primes with exact integer arithmetic (no float
rounding); the test suite pins the result against hashlib.
"""

from __future__ import annotations

import math
import struct

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


def sha256_compress(state: list[int], block: bytes) -> list[int]:
    """One plain compression application, which the recording builder
    runs over a claim message's public prefix; rotations are written
    out, since a call per rotation would double its cost."""
    m = 0xFFFFFFFF
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        x, y = w[t - 15], w[t - 2]
        s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
        s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & m)
    a, b, c, d, e, f, g, h = state
    for k, wt in zip(SHA256_K, w):
        s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
        t1 = h + (s1 & m) + (g ^ e & (f ^ g)) + k + wt
        s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
        t2 = (s0 & m) + (a & b | c & (a | b))
        a, b, c, d, e, f, g, h = (t1 + t2) & m, a, b, c, (d + t1) & m, e, f, g
    return [(s + v) & m for s, v in zip(state, [a, b, c, d, e, f, g, h])]


def sha256_pad(length: int) -> bytes:
    """Padding bytes appended to a message of ``length`` bytes."""
    rem = (length + 9) % 64
    zeros = (64 - rem) % 64
    return b"\x80" + bytes(zeros) + (8 * length).to_bytes(8, "big")
