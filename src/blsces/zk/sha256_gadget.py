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
operations above literal by literal.  The block path computes, with
plain Python ints, the bit of every variable the per-bit path would
allocate, in its allocation order, and hands the whole block to one
``bd.alloc_bits`` call with its constraint counts.  It models each
word by three 32-bit masks: the value its literals hold, which of them
are variables (the rest are ONE or ZERO), and which are negated.  Those
masks fix what the per-bit path allocates, so constants (the state
entering a claim's first in-circuit block, public message bytes, the
ZEROs a shift brings in) and the negations they bring stay on the block
path.  Its values are those of the input words, which it asks the
builder for (``bd.word_value``).  A builder that knows none, input
state words that share a variable (where Ch could fold on f == g), or a
builder that declines the bits run the per-bit path instead, from the
same state.  How each builder takes the bits is in ``r1cs``; in every
case the variables, values and constraints are those of the per-bit
path.

The plain compression and the constants are in ``sha256``.
"""

from __future__ import annotations

from blsces.zk.r1cs import LC, Builder
from blsces.zk.sha256 import SHA256_K, WORD, rotr


# ---------------------------------------------------------------------------
# Gadget: words are lists of 32 bit literals, little-endian.
# ---------------------------------------------------------------------------

ONE = 0  # variable 0 holds 1
ZERO = ~ONE
MASK = (1 << WORD) - 1
# format specs for a value's bits, most significant first, per width
_BITS_SPEC = {width: f"0{width}b" for width in range(WORD, WORD + 8)}


def lit_lc(b: int, k: int = 1) -> LC:
    """k times the value of literal b, as a linear combination."""
    return ((b, k),) if b >= 0 else ((0, k), (~b, -k))


def const_word(value: int) -> list[int]:
    return [ONE if (value >> j) & 1 else ZERO for j in range(WORD)]


def _value(bd: Builder, b: int) -> int:
    return bd.values[b] if b >= 0 else 1 - bd.values[~b]


def _add_width(count: int) -> int:
    """Bits an addition of ``count`` words allocates: 32 and its carries."""
    return WORD + max(1, (count - 1).bit_length())


def _compress(ops, state: list, block: list) -> list:
    """One compression over the word operations ``ops``: the per-bit
    path's over literals or the block path's over masks, which allocate
    the same variables in the same order."""
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
    value = None
    if bd.compute:
        vals = bd.values
        value = const + sum(vals[v] * k for v, k in terms)
    bits = bd.bits_of(value, _add_width(len(words)))
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


class PerBitCalls:
    """Counts the calls of the per-bit ``xor`` and ``ch`` gadgets (``maj``
    runs both) made while it is open as a context manager.  An honest
    statement takes every compression on the block path and makes none,
    which the tests and ``scripts/circuit_report.py`` check with it."""

    def __init__(self):
        self.calls = 0
        self._saved = {}

    def __enter__(self):
        module = globals()
        for name in ("xor", "ch"):
            gadget = self._saved[name] = module[name]

            def counted(*args, gadget=gadget):
                self.calls += 1
                return gadget(*args)

            module[name] = counted
        return self

    def __exit__(self, *exc):
        globals().update(self._saved)


# -- the block path ---------------------------------------------------------------
# A word is a triple of 32-bit masks (x, v, n): the values its literals
# hold, which literals are variables, and which are negated.  A constant
# is ONE (n clear, x set) or ZERO (n set, x clear), and x ^ n is the
# value of the variable under each literal (variable 0 holds 1).  A
# fresh variable word, an addition's result, is (x, MASK, 0).

_ADD_WIDTH = {count: _add_width(count) for count in (2, 4, 5)}
_DROP = bytes.maketrans(b"01", b"\x00\x02")  # a '1' in a drop mask deletes its byte


def _bits(value: int, width: int = WORD) -> bytes:
    """``value``, below 2^width, as ``width`` ASCII '0'/'1' bits, least
    significant first: the order the gadget allocates bits in."""
    return format(value, _BITS_SPEC[width]).encode()[::-1]


def _keep(values: bytes, drop: bytes) -> bytes:
    """The bytes of ASCII bits ``values`` where the ASCII mask ``drop``
    holds '0': a dropped byte becomes '2' or '3' and is deleted."""
    code = int.from_bytes(values, "big") + int.from_bytes(drop.translate(_DROP), "big")
    return code.to_bytes(len(values), "big").translate(None, b"23")


def _pick(alloc_t: int, t, alloc_o: int, o) -> bytes:
    """The bits of the variables under words t and o where ``alloc_t``
    and ``alloc_o`` are set, interleaved bit by bit, t's bit first: the
    order of a per-bit operation that allocates twice per bit."""
    bits = bytearray(2 * WORD)
    bits[0::2] = _bits(t[0] ^ t[2])
    bits[1::2] = _bits(o[0] ^ o[2])
    if alloc_t & alloc_o == MASK:  # nothing to drop
        return bits
    drop = bytearray(2 * WORD)
    drop[0::2] = _bits(MASK ^ alloc_t)
    drop[1::2] = _bits(MASK ^ alloc_o)
    return _keep(bits, drop)


def _rot(word, k: int):
    x, v, n = word
    return rotr(x, k), rotr(v, k), rotr(n, k)


def _xor(a, b):
    """xor per bit, and where it allocates: where both are variables."""
    both = a[1] & b[1]
    return (a[0] ^ b[0], a[1] | b[1], a[2] ^ b[2] ^ MASK ^ both), both


def _ch(e, f, g):
    """ch per bit, and where it allocates: where e is a variable and f, g
    are not the same constant (the caller rules out a shared variable)."""
    xe, ye = e[0], MASK ^ e[0]
    (xf, vf, nf), (xg, vg, ng) = f, g
    alloc = e[1] & (vf | vg | xf ^ xg)
    fold = MASK ^ alloc
    return (xe & xf | ye & xg, alloc | fold & (xe & vf | ye & vg), fold & (xe & nf | ye & ng)), alloc


class BlockWords:
    """The block path's word operations over masks: each appends to
    ``out`` the bits of the variables its per-bit twin allocates, and
    counts the booleanity and linear constraints of the additions."""

    def __init__(self):
        self.out = bytearray()
        self.bools = self.lins = 0

    @staticmethod
    def const(value: int):
        return value, 0, MASK ^ value

    def sigma(self, word, r1: int, r2: int, k: int, shift: bool = False):
        x, v, n = word
        # a shift brings in ZEROs: not variables, negated
        z = (x >> k, v >> k, (n >> k) | (MASK ^ (MASK >> k))) if shift else _rot(word, k)
        t, alloc_t = _xor(_rot(word, r1), _rot(word, r2))
        o, alloc_o = _xor(t, z)
        self.out += _pick(alloc_t, t, alloc_o, o)
        return o

    def ch(self, e, f, g):
        word, alloc = _ch(e, f, g)
        bits = _bits(word[0])
        self.out += bits if alloc == MASK else _keep(bits, _bits(MASK ^ alloc))
        return word

    def maj(self, a, b, c):
        t, alloc_t = _xor(a, b)
        word, alloc = _ch(t, c, a)
        self.out += _pick(alloc_t, t, alloc, word)
        return word

    def add(self, *words):
        total = 0
        for word in words:
            total += word[0]
        width = _ADD_WIDTH[len(words)]
        self.out += format(total, _BITS_SPEC[width]).encode()[::-1]
        self.bools += width
        self.lins += 1
        return total & MASK, MASK, 0


def _masks(bd: Builder, lits: list[int]):
    """A word of literals as masks (x, v, n), or None where the builder
    knows no value for it."""
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
    words = None if _shares_a_variable(state) else [_masks(bd, lits) for lits in state + block]
    if words is not None and None not in words:
        ops = BlockWords()
        _compress(ops, words[:8], words[8:])
        bits = ops.out
        start = bd.alloc_bits(bits, bools=ops.bools, lins=ops.lins, r1s=len(bits) - ops.bools)
        if start is not None:
            # the outputs are the low words of the last eight additions
            width = _ADD_WIDTH[2]
            base = start + len(bits) - 8 * width
            return [list(range(k, k + WORD)) for k in range(base, base + 8 * width, width)]
    return _compress(PerBitWords(bd), state, block)
