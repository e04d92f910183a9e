"""SHA-256 compression function, both as plain Python and as R1CS gadget.

The gadget carries every bit as a literal, an int b: b >= 0 is variable
b and ~b is its negation 1 - w[b].  Variable 0 holds 1, so ``ONE`` (0)
and ``ZERO`` (~0) are the constants.  Words are lists of 32 literals,
little-endian.  Costs per bit:

* NOT, rotations and shifts are free: they rearrange literals.
* XOR moves both negations to its output.  Against a constant it is a
  literal flip; otherwise one product d * d = z with d = a - b.
* Ch(e, f, g) folds when e is constant or f == g; otherwise one product
  e * (f - g) = c - g.
* Maj(a, b, c) = Ch(a xor b, c, a): two products, none while a and b
  are constants in the first rounds.
* An addition of k words allocates 32 result and ceil(log2 k) carry
  bits, each with a booleanity check, and ties them to the operand sum
  in one linear constraint.

One application over a fully secret block is about 30,400 constraints:
19,600 products, 10,500 booleanity checks and 312 linear.  Only this
module knows the literal format; ``lit_lc`` turns a literal into a
linear combination for callers.

Round constants and the initial state are derived from the fractional
parts of cube/square roots of the first primes with exact integer
arithmetic (no float rounding); the test suite pins the result against
hashlib.
"""

from __future__ import annotations

import math

from blsces.zk.r1cs import LC, Builder

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


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (WORD - n))) & 0xFFFFFFFF


def sha256_compress(state: list[int], block: bytes) -> list[int]:
    """One plain compression application; used for pre-hashing long
    messages outside the constraint system."""
    w = list(int.from_bytes(block[4 * t: 4 * t + 4], "big") for t in range(16))
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & 0xFFFFFFFF)
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + ((e & f) ^ (~e & g)) + SHA256_K[t] + w[t]) & 0xFFFFFFFF
        t2 = ((_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c))) & 0xFFFFFFFF
        a, b, c, d, e, f, g, h = (t1 + t2) & 0xFFFFFFFF, a, b, c, (d + t1) & 0xFFFFFFFF, e, f, g
    return [(s + v) & 0xFFFFFFFF for s, v in zip(state, [a, b, c, d, e, f, g, h])]


def sha256_pad(length: int) -> bytes:
    """Padding bytes appended to a message of ``length`` bytes."""
    rem = (length + 9) % 64
    zeros = (64 - rem) % 64
    return b"\x80" + bytes(zeros) + (8 * length).to_bytes(8, "big")


# ---------------------------------------------------------------------------
# Gadget: words are lists of 32 bit literals, little-endian.
# ---------------------------------------------------------------------------

ONE = 0  # variable 0 holds 1
ZERO = ~ONE


def lit_lc(b: int, k: int = 1) -> LC:
    """k times the value of literal b, as a linear combination."""
    return ((b, k),) if b >= 0 else ((0, k), (~b, -k))


def const_word(value: int) -> list[int]:
    return [ONE if (value >> j) & 1 else ZERO for j in range(WORD)]


def _value(bd: Builder, b: int) -> int:
    return bd.values[b] if b >= 0 else 1 - bd.values[~b]


def xor(bd: Builder, a: int, b: int) -> int:
    """a xor b: negations move to the output, so a product is needed only
    between two variables, and for boolean a, b, (a - b)^2 = a xor b."""
    flip = (a < 0) ^ (b < 0)
    a, b = max(a, ~a), max(b, ~b)  # the variables under the literals
    if a == ONE or b == ONE:
        # one side is the constant 1, which flips the other
        z = b if a == ONE else a
        flip = not flip
    else:
        z = bd.alloc(bd.values[a] ^ bd.values[b] if bd.compute else None)
        d = ((a, 1), (b, -1))
        bd.add_r1(d, d, ((z, 1),))
    return ~z if flip else z


def ch(bd: Builder, e: int, f: int, g: int) -> int:
    """e ? f : g, under the one product e * (f - g) = c - g."""
    if e < 0:
        e, f, g = ~e, g, f
    if e == ONE or f == g:
        return f
    c = bd.alloc(_value(bd, f if bd.values[e] else g) if bd.compute else None)
    minus_g = lit_lc(g, -1)
    bd.add_r1(((e, 1),), lit_lc(f) + minus_g, ((c, 1),) + minus_g)
    return c


def word_xor3(bd: Builder, x: list[int], y: list[int], z: list[int]) -> list[int]:
    return [xor(bd, xor(bd, a, b), c) for a, b, c in zip(x, y, z)]


def word_rotr(w: list[int], n: int) -> list[int]:
    return w[n:] + w[:n]


def word_shr(w: list[int], n: int) -> list[int]:
    return w[n:] + [ZERO] * n


def word_ch(bd: Builder, e: list[int], f: list[int], g: list[int]) -> list[int]:
    return [ch(bd, eb, fb, gb) for eb, fb, gb in zip(e, f, g)]


def word_maj(bd: Builder, a: list[int], b: list[int], c: list[int]) -> list[int]:
    """Maj(a, b, c) = Ch(a xor b, c, a) bitwise."""
    return [ch(bd, xor(bd, ab, bb), cb, ab) for ab, bb, cb in zip(a, b, c)]


def word_add(bd: Builder, *words: list[int]) -> list[int]:
    """Sum mod 2^32: allocate 32 result bits plus overflow bits and tie
    them to the operand sum with one linear constraint."""
    terms = []
    const = 0
    for w in words:
        for j, b in enumerate(w):
            if b > 0:
                terms.append((b, 1 << j))
            elif b != ZERO:
                const += 1 << j
                if b != ONE:
                    terms.append((~b, -(1 << j)))
    value = None
    if bd.compute:
        vals = bd.values
        value = const + sum(vals[v] * k for v, k in terms)
    carry_bits = max(1, (len(words) - 1).bit_length())
    bits = bd.bits_of(value, WORD + carry_bits)
    if const:
        terms.append((0, const))
    terms.extend((b, -(1 << j)) for j, b in enumerate(bits))
    bd.add_lin(terms)
    return bits[:WORD]


def sha256_compress_gadget(bd: Builder, state: list[list[int]], block: list[list[int]]) -> list[list[int]]:
    """Synthesize one compression application.

    ``state`` is 8 words, ``block`` 16 words; returns the 8 output
    words.  Word bits may be constants, variables or their negations.
    """
    w = list(block)
    for t in range(16, 64):
        s0 = word_xor3(bd, word_rotr(w[t - 15], 7), word_rotr(w[t - 15], 18), word_shr(w[t - 15], 3))
        s1 = word_xor3(bd, word_rotr(w[t - 2], 17), word_rotr(w[t - 2], 19), word_shr(w[t - 2], 10))
        w.append(word_add(bd, w[t - 16], s0, w[t - 7], s1))
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = word_xor3(bd, word_rotr(e, 6), word_rotr(e, 11), word_rotr(e, 25))
        ch_w = word_ch(bd, e, f, g)
        t1 = word_add(bd, h, big_s1, ch_w, const_word(SHA256_K[t]), w[t])
        big_s0 = word_xor3(bd, word_rotr(a, 2), word_rotr(a, 13), word_rotr(a, 22))
        maj = word_maj(bd, a, b, c)
        t2 = word_add(bd, big_s0, maj)
        h, g, f = g, f, e
        e = word_add(bd, d, t1)
        d, c, b = c, b, a
        a = word_add(bd, t1, t2)
    return [word_add(bd, s, v) for s, v in zip(state, [a, b, c, d, e, f, g, h])]
