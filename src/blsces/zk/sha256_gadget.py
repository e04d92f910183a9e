"""SHA-256 compression function as an R1CS gadget.

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

One application over a fully secret block is 30,640 constraints: 19,856
products, 10,472 booleanity checks and 312 linear.  Only this module
knows the literal format; ``lit_lc`` turns a literal into a linear
combination for callers.

Only the recording builder runs the gadget.  The verifier's builder
takes no compression: no constraint outside the compressions reads a
value of theirs but the last one's outputs, a claim's sha256 digest,
which it takes from ``hashlib``, and every constraint inside holds on
the values the gadget computes (see ``statement``).

The plain compression and the constants are in ``sha256``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from blsces.zk.sha256 import SHA256_K, WORD

if TYPE_CHECKING:  # r1cs runs the gadget through its builders
    from blsces.zk.r1cs import LC, Builder


# ---------------------------------------------------------------------------
# Gadget: words are lists of 32 bit literals, little-endian.
# ---------------------------------------------------------------------------

ONE = 0  # variable 0 holds 1
ZERO = ~ONE
# the little-endian bit literals of each public byte value
_BYTE_LITS = [tuple(ONE if byte >> j & 1 else ZERO for j in range(8)) for byte in range(256)]


def lit_lc(b: int, k: int = 1) -> LC:
    """k times the value of literal b, as a linear combination."""
    return ((b, k),) if b >= 0 else ((0, k), (~b, -k))


def const_word(value: int) -> list[int]:
    return [ONE if (value >> j) & 1 else ZERO for j in range(WORD)]


def _value(bd: Builder, b: int) -> int:
    return bd.values[b] if b >= 0 else 1 - bd.values[~b]


def _compress(ops, state: list, block: list) -> list:
    """One compression over the word operations ``ops``, a
    ``PerBitWords``."""
    w = list(block)
    for t in range(16, 64):
        s0 = ops.sigma(w[t - 15], 7, 18, 3, shift=True)
        s1 = ops.sigma(w[t - 2], 17, 19, 10, shift=True)
        w.append(ops.add(w[t - 16], s0, w[t - 7], s1))
    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = ops.sigma(e, 6, 11, 25)
        ch_w = ops.ch(e, f, g)
        t1 = ops.add(h, big_s1, ch_w, ops.const(SHA256_K[t]), w[t])
        big_s0 = ops.sigma(a, 2, 13, 22)
        maj_w = ops.maj(a, b, c)
        t2 = ops.add(big_s0, maj_w)
        h, g, f = g, f, e
        e = ops.add(d, t1)
        d, c, b = c, b, a
        a = ops.add(t1, t2)
    return [ops.add(s, v) for s, v in zip(state, [a, b, c, d, e, f, g, h])]


# -- the per-bit path -------------------------------------------------------------

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
        z = bd.alloc(bd.values[a] ^ bd.values[b])
        d = ((a, 1), (b, -1))
        bd.add_r1(d, d, ((z, 1),))
    return ~z if flip else z


def ch(bd: Builder, e: int, f: int, g: int) -> int:
    """e ? f : g, under the one product e * (f - g) = c - g."""
    if e < 0:
        e, f, g = ~e, g, f
    if e == ONE or f == g:
        return f
    c = bd.alloc(_value(bd, f if bd.values[e] else g))
    minus_g = lit_lc(g, -1)
    bd.add_r1(((e, 1),), lit_lc(f) + minus_g, ((c, 1),) + minus_g)
    return c


def maj(bd: Builder, a: int, b: int, c: int) -> int:
    """Maj(a, b, c) = Ch(a xor b, c, a)."""
    return ch(bd, xor(bd, a, b), c, a)


def add_width(count: int) -> int:
    """Bits an addition of ``count`` words allocates: 32 and its carries."""
    return WORD + max(1, (count - 1).bit_length())


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
    vals = bd.values
    bits = bd.bits_of(const + sum(vals[v] * k for v, k in terms), add_width(len(words)))
    if const:
        terms.append((0, const))
    terms.extend((b, -(1 << j)) for j, b in enumerate(bits))
    bd.add_lin(terms)
    return bits[:WORD]


class PerBitWords:
    """The per-bit path's word operations: each runs its gadget literal by
    literal through ``bd``.  ``sigma`` is rotr(r1) ^ rotr(r2) ^ rotr(k),
    or ^ shr(k) with ``shift``, as t = x xor y and then t xor z per bit;
    rotations and shifts rearrange literals, a shift bringing in ZEROs."""

    const = staticmethod(const_word)

    def __init__(self, bd: Builder):
        self.bd = bd

    def sigma(self, w: list[int], r1: int, r2: int, k: int, shift: bool = False) -> list[int]:
        bd = self.bd
        z = w[k:] + ([ZERO] * k if shift else w[:k])
        return [xor(bd, xor(bd, x, y), zb) for x, y, zb in zip(w[r1:] + w[:r1], w[r2:] + w[:r2], z)]

    def ch(self, e: list[int], f: list[int], g: list[int]) -> list[int]:
        return [ch(self.bd, *lits) for lits in zip(e, f, g)]

    def maj(self, a: list[int], b: list[int], c: list[int]) -> list[int]:
        return [maj(self.bd, *lits) for lits in zip(a, b, c)]

    def add(self, *words: list[int]) -> list[int]:
        return word_add(self.bd, *words)


class GadgetCalls:
    """Counts, while open as a context manager, the calls of the per-bit
    ``xor`` and ``ch`` gadgets (``per_bit``; ``maj`` runs both).  The
    verifier's builder makes none, which the tests and
    ``scripts/circuit_report.py`` check with it."""

    def __init__(self):
        self.per_bit = 0
        self._saved = {}

    def __enter__(self):
        module = globals()
        for name in ("xor", "ch"):
            gadget = self._saved[name] = module[name]

            def counted(*args, gadget=gadget):
                self.per_bit += 1
                return gadget(*args)

            module[name] = counted
        return self

    def __exit__(self, *exc):
        globals().update(self._saved)


def sha256_compress_gadget(bd: Builder, state: list[list[int]], block: list[list[int]]) -> list[list[int]]:
    """Synthesize one compression application per bit.

    ``state`` is 8 words, ``block`` 16 words; returns the 8 output
    words.  Word bits may be constants, variables or their negations.
    """
    return _compress(PerBitWords(bd), state, block)


def block_literals(block: bytes, secret: bytes, var: int) -> list[list[int]]:
    """The 16 words of a message block as literals: each byte that
    ``secret`` marks nonzero is held, little-endian, in the next eight
    variables from ``var`` on, and every other byte is a public constant.
    A word's bytes are big-endian."""
    lits: list[int] = []
    for byte, hidden in zip(block, secret):
        if hidden:
            lits += range(var, var + 8)
            var += 8
        else:
            lits += _BYTE_LITS[byte]
    return [lits[p + 24: p + 32] + lits[p + 16: p + 24] + lits[p + 8: p + 16] + lits[p: p + 8]
            for p in range(0, 512, 32)]
