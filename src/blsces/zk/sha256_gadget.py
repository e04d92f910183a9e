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

Two paths synthesize a compression.  The per-bit path runs the
operations above literal by literal; it is the reference, which the
recording builder runs.  The block path computes, with plain Python
ints, the bit of every variable the per-bit path would allocate, in its
allocation order, and hands the whole block to one ``bd.alloc_bits``
call with its constraint counts.  Its word operations, over words of
variables carried as plain ints and words holding constants carried as
bit masks, are in ``sha256_block``; this module turns the input words'
literals into those words, with the values it asks the builder for
(``bd.word_value``).  A builder that knows none (the recording one), or
input state words that share a variable (where Ch could fold on f ==
g), take the per-bit path instead; a statement never hands the
verifier's builder such a block.  In every case the variables, values
and constraint counts are those of the per-bit path.

The plain compression and the constants are in ``sha256``.
"""

from __future__ import annotations

from blsces.zk.r1cs import LC, Builder
from blsces.zk.sha256 import SHA256_K, WORD
from blsces.zk.sha256_block import MASK, BlockWords, add_width


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


def _compress(ops, state: list, block: list) -> list:
    """One compression over the word operations ``ops``: the per-bit
    path's over literals or the block path's over ints and masks, which
    allocate the same variables in the same order."""
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
    ``xor`` and ``ch`` gadgets (``per_bit``; ``maj`` runs both), the
    block path's word operations that took the mask branch (``masked``),
    and its compressions that took it though their 24 input words held
    un-negated variables alone (``masked_all_variable``).  An honest
    statement makes no per-bit call, and a compression over variables
    alone takes no mask branch, which the tests and
    ``scripts/circuit_report.py`` check with it."""

    def __init__(self):
        self.per_bit = self.masked = self.masked_all_variable = 0
        self._saved = {}

    def __enter__(self):
        module = globals()
        for name in ("xor", "ch"):
            gadget = self._saved[name] = module[name]

            def counted(*args, gadget=gadget):
                self.per_bit += 1
                return gadget(*args)

            module[name] = counted
        compress = self._saved["_compress"] = module["_compress"]

        def watched(ops, state, block):
            out = compress(ops, state, block)
            if isinstance(ops, BlockWords) and ops.masked:
                self.masked += ops.masked
                self.masked_all_variable += all(isinstance(w, int) or w[1:] == (MASK, 0) for w in state + block)
            return out

        module["_compress"] = watched
        return self

    def __exit__(self, *exc):
        globals().update(self._saved)


def _input_word(bd: Builder, lits: list[int]):
    """A word of literals as the block path takes it (a plain int or
    masks, see ``sha256_block``), or None where the builder knows no
    value for it."""
    if min(lits) > ONE:  # un-negated variables only
        return bd.word_value(lits)
    v = n = 0
    for j, b in enumerate(lits):
        if b < 0:
            n |= 1 << j
            if b != ZERO:
                v |= 1 << j
        elif b != ONE:
            v |= 1 << j
    under = bd.word_value([b if b >= 0 else ~b for b in lits])
    return None if under is None else (under ^ n, v, n)


def _shares_a_variable(words: list[list[int]]) -> bool:
    lits = [b for w in words for b in w if b != ONE and b != ZERO]
    return len(set(lits)) != len(lits)


def sha256_compress_gadget(bd: Builder, state: list[list[int]], block: list[list[int]]) -> list[list[int]]:
    """Synthesize one compression application.

    ``state`` is 8 words, ``block`` 16 words; returns the 8 output
    words.  Word bits may be constants, variables or their negations.
    """
    words = None if _shares_a_variable(state) else [_input_word(bd, lits) for lits in state + block]
    if words is None or None in words:
        return _compress(PerBitWords(bd), state, block)
    ops = BlockWords()
    _compress(ops, words[:8], words[8:])
    bits = ops.bits()
    start = bd.alloc_bits(bits, bools=ops.bools, lins=ops.lins, r1s=len(bits) - ops.bools)
    # the outputs are the low words of the last eight additions
    width = add_width(2)
    base = start + len(bits) - 8 * width
    return [list(range(k, k + WORD)) for k in range(base, base + 8 * width, width)]
