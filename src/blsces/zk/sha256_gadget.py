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

The word path.  Inside the gadget a word is a ``Word``: its literals and,
when the builder knows it, the 32-bit value they hold.  Rotations and
shifts move both.  ``word_xor3``, ``word_ch``, ``word_maj`` and
``word_add`` first compute, with Python int operations on the operand
values, the bits of the variables their per-bit path would allocate, in
its allocation order, and hand them to ``bd.alloc_bits`` with its
constraint counts.  The literals alone fix that pattern:

* xor3 over variables allocates 2 per bit (t = x xor y, then t xor z),
  or 1 where ``word_shr`` put ZERO into z, since xor with ZERO is free;
* Ch over variables, f and g sharing none, allocates 1 per bit;
* Maj over variables, c and a sharing none, allocates 2 per bit,
  interleaved;
* an addition allocates 32 result and its carry bits, whatever its
  literals.

"Variables" means literals above ONE: no constant and no negation.  Any
other shape (the constants of the first rounds and of public message
bytes, the negations they bring, f == g in Ch), an unknown value, or a
builder that declines runs the per-bit path instead, from the same
state.  How each builder takes the bits is in ``r1cs``; in every case
the variables, values and constraints are those of the per-bit path.

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
    """One plain compression application; used for hashing a claim
    message's public prefix outside the constraint system."""
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
MASK = (1 << WORD) - 1
# format specs for a value's bits, most significant first, per width
_BITS_SPEC = {width: f"0{width}b" for width in range(WORD, WORD + 8)}


class Word(list):
    """A word's literals, little-endian, and ``value``: the 32-bit value
    they hold, or None where the builder does not know it or the list is
    not a whole word."""

    __slots__ = ("value",)

    def __init__(self, lits, value: int | None = None):
        super().__init__(lits)
        self.value = value


def lit_lc(b: int, k: int = 1) -> LC:
    """k times the value of literal b, as a linear combination."""
    return ((b, k),) if b >= 0 else ((0, k), (~b, -k))


def const_word(value: int) -> Word:
    return Word([ONE if (value >> j) & 1 else ZERO for j in range(WORD)], value & MASK)


def _value(bd: Builder, b: int) -> int:
    return bd.values[b] if b >= 0 else 1 - bd.values[~b]


def _known(*words) -> list[int] | None:
    """The words' values, or None if the builder does not know one."""
    try:
        values = [w.value for w in words]
    except AttributeError:  # a plain list of literals
        return None
    return None if None in values else values


def _bits(value: int, width: int = WORD) -> bytes:
    """``value``, below 2^width, as ``width`` ASCII '0'/'1' bits, least
    significant first: the order the gadget allocates bits in."""
    return format(value, _BITS_SPEC[width]).encode()[::-1]


def _per_bit(bd: Builder, lits: list[int]) -> Word:
    """The output of a word operation's per-bit path; only a whole word
    has a value."""
    return Word(lits, bd.word_value(lits) if len(lits) == WORD else None)


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


def word_xor3(bd: Builder, x: list[int], y: list[int], z: list[int]) -> Word:
    """x ^ y ^ z bitwise, as t = xor(x, y) and then xor(t, z) per bit."""
    known = _known(x, y, z)
    if known is not None:
        # variables in x and y; in z variables below p and word_shr's
        # ZEROs from p up, where xor(t, ZERO) is t and allocates nothing
        p = WORD - z.count(ZERO)
        if min(x) > ONE and min(y) > ONE and min(z[:p], default=1) > ONE:
            t = known[0] ^ known[1]
            out = t ^ known[2]
            t_bits = _bits(t)
            new = bytearray(WORD + p)
            new[0: 2 * p: 2] = t_bits[:p]
            new[1: 2 * p: 2] = _bits(out)[:p]
            new[2 * p:] = t_bits[p:]
            base = bd.alloc_bits(new, r1s=WORD + p)
            if base is not None:
                return Word([*range(base + 1, base + 2 * p, 2), *range(base + 2 * p, base + WORD + p)], out)
    return _per_bit(bd, [xor(bd, xor(bd, a, b), c) for a, b, c in zip(x, y, z)])


def word_rotr(w: list[int], n: int) -> Word:
    value = getattr(w, "value", None)
    return Word(w[n:] + w[:n], None if value is None else _rotr(value, n))


def word_shr(w: list[int], n: int) -> Word:
    value = getattr(w, "value", None)
    return Word(w[n:] + [ZERO] * n, None if value is None else value >> n)


def word_ch(bd: Builder, e: list[int], f: list[int], g: list[int]) -> Word:
    known = _known(e, f, g)
    # over variables Ch folds only where f and g share one
    if known is not None and min(e) > ONE and min(f) > ONE and min(g) > ONE and set(f).isdisjoint(g):
        ev, fv, gv = known
        out = (ev & fv) | (~ev & gv)
        base = bd.alloc_bits(_bits(out), r1s=WORD)
        if base is not None:
            return Word(range(base, base + WORD), out)
    return _per_bit(bd, [ch(bd, eb, fb, gb) for eb, fb, gb in zip(e, f, g)])


def word_maj(bd: Builder, a: list[int], b: list[int], c: list[int]) -> Word:
    """Maj(a, b, c) = Ch(a xor b, c, a) bitwise."""
    known = _known(a, b, c)
    if known is not None and min(a) > ONE and min(b) > ONE and min(c) > ONE and set(c).isdisjoint(a):
        av, bv, cv = known
        t = av ^ bv
        out = (av & bv) | (av & cv) | (bv & cv)
        new = bytearray(2 * WORD)
        new[0::2] = _bits(t)
        new[1::2] = _bits(out)
        base = bd.alloc_bits(new, r1s=2 * WORD)
        if base is not None:
            return Word(range(base + 1, base + 2 * WORD, 2), out)
    return _per_bit(bd, [ch(bd, xor(bd, ab, bb), cb, ab) for ab, bb, cb in zip(a, b, c)])


def word_add(bd: Builder, *words: list[int]) -> Word:
    """Sum mod 2^32: allocate 32 result bits plus overflow bits and tie
    them to the operand sum with one linear constraint."""
    carry_bits = max(1, (len(words) - 1).bit_length())
    width = WORD + carry_bits
    known = _known(*words)
    if known is not None:
        total = sum(known)
        base = bd.alloc_bits(_bits(total, width), bools=width, lins=1)
        if base is not None:
            return Word(range(base, base + WORD), total & MASK)
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
    bits = bd.bits_of(value, width)
    if const:
        terms.append((0, const))
    terms.extend((b, -(1 << j)) for j, b in enumerate(bits))
    bd.add_lin(terms)
    return _per_bit(bd, bits[:WORD])


def _word(bd: Builder, lits: list[int]) -> Word:
    return lits if isinstance(lits, Word) else _per_bit(bd, lits)


def sha256_compress_gadget(bd: Builder, state: list[list[int]], block: list[list[int]]) -> list[Word]:
    """Synthesize one compression application.

    ``state`` is 8 words, ``block`` 16 words; returns the 8 output
    words.  Word bits may be constants, variables or their negations.
    """
    state = [_word(bd, s) for s in state]
    w = [_word(bd, m) for m in block]
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
