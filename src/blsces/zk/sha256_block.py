"""The block path of the sha256 gadget: its word operations over ints.

``sha256_gadget._compress`` runs over these operations to compute, with
plain Python ints, the bit of every variable the per-bit path would
allocate, in its allocation order, with the constraint counts of the
additions (products are the rest).

A word is a plain int, its value, when its 32 literals are all
un-negated variables, as every addition's result is, and an operation
over such words takes the int branch: a few int operations.  A word
holding a constant (the state entering a claim's first in-circuit
block, public message bytes, the ZEROs a shift brings in) or a negation
is a triple of 32-bit masks (x, v, n): the values its literals hold,
which of them are variables, and which are negated.  A constant is ONE
(n clear, x set) or ZERO (n set, x clear), and x ^ n is the value of
the variable under each literal (variable 0 holds 1).  The masks fix
what the per-bit path allocates, so an operation that reads such a word
takes the mask branch; its result is an int again once its literals are
all variables.  Over a constant state that is rounds 0-3 and the
schedule's reads of w[1..15], about 24 of a compression's 352
operations other than additions.

An operation records the bits it allocates as one value, the bit
allocated first least significant, and the format field of its width;
one that allocates twice per bit, t and then o, records the two words
interleaved.  ``BlockWords.bits`` formats a compression's records in
one pass.
"""

from __future__ import annotations

from blsces.zk.sha256 import WORD, rotr

MASK = (1 << WORD) - 1


def add_width(count: int) -> int:
    """Bits an addition of ``count`` words allocates: 32 and its carries."""
    return WORD + max(1, (count - 1).bit_length())


_ADD_WIDTH = {count: add_width(count) for count in (2, 4, 5)}
_FIELD = ["{:0%db}" % width for width in range(2 * WORD + 1)]  # a value's bits, most significant first
_EVEN = [int(format(byte, "b"), 4) for byte in range(256)]  # bit j of a byte moved to bit 2j
_ODD = [spread << 1 for spread in _EVEN]  # and to bit 2j + 1
_DROP = bytes.maketrans(b"01", b"\x02\x00")  # an allocation mask's '0' drops its bit


def _interleave(t: int, o: int) -> int:
    """Two 32-bit words interleaved bit by bit, t's bit first: the record
    of an operation that allocates t and then o per bit."""
    e, d = _EVEN, _ODD
    return (
        e[t & 255] | d[o & 255] | (e[t >> 8 & 255] | d[o >> 8 & 255]) << 16
        | (e[t >> 16 & 255] | d[o >> 16 & 255]) << 32 | (e[t >> 24] | d[o >> 24]) << 48
    )


def _masks(word):
    """A word as masks (x, v, n)."""
    return (word, MASK, 0) if word.__class__ is int else word


def _word(masks):
    """Masks as a word: a plain int if every literal is an un-negated variable."""
    x, v, n = masks
    return x if v == MASK and not n else masks


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
    """The block path's word operations: each records the bits of the
    variables its per-bit twin allocates (see the module docstring), and
    the additions count their booleanity and linear constraints.
    ``masked`` counts the operations that took the mask branch."""

    def __init__(self):
        self.values = []
        self.fields = []
        self.bools = self.lins = self.masked = 0

    @staticmethod
    def const(value: int):
        return value, 0, MASK ^ value

    def bits(self) -> bytes:
        """The ASCII '0'/'1' bit of every variable recorded, in allocation order."""
        return "".join(reversed(self.fields)).format(*reversed(self.values))[::-1].encode()

    def _record_kept(self, value: int, alloc: int, width: int) -> None:
        """Record the bits of ``value``, ``width`` of them, where ``alloc``
        is set, packed: the mask branch's record."""
        self.masked += 1
        field = _FIELD[width]
        code = int.from_bytes(field.format(value).encode(), "big")
        code += int.from_bytes(field.format(alloc).encode().translate(_DROP), "big")
        kept = code.to_bytes(width, "big").translate(None, b"23")
        if kept:
            self.values.append(int(kept, 2))
            self.fields.append(_FIELD[len(kept)])

    def sigma(self, word, r1: int, r2: int, k: int, shift: bool = False):
        if word.__class__ is int:
            ww = word | word << WORD
            t = (ww >> r1 ^ ww >> r2) & MASK
            if shift:
                # o's top k literals are t's: only t is allocated there
                o = t ^ word >> k
                low = 2 * (WORD - k)
                self.values.append(_interleave(t, o) & ((1 << low) - 1) | t >> WORD - k << low)
                self.fields.append(_FIELD[2 * WORD - k])
            else:
                o = t ^ ww >> k & MASK
                self.values.append(_interleave(t, o))
                self.fields.append(_FIELD[2 * WORD])
            return o
        x, v, n = word
        # a shift brings in ZEROs: not variables, negated
        z = (x >> k, v >> k, (n >> k) | (MASK ^ (MASK >> k))) if shift else _rot(word, k)
        t, alloc_t = _xor(_rot(word, r1), _rot(word, r2))
        o, alloc_o = _xor(t, z)
        self._record_kept(
            _interleave(t[0] ^ t[2], o[0] ^ o[2]), _interleave(alloc_t, alloc_o), 2 * WORD
        )
        return _word(o)

    def ch(self, e, f, g):
        if e.__class__ is f.__class__ is g.__class__ is int:
            c = g ^ e & (f ^ g)
            self.values.append(c)
            self.fields.append(_FIELD[WORD])
            return c
        word, alloc = _ch(_masks(e), _masks(f), _masks(g))
        self._record_kept(word[0], alloc, WORD)
        return _word(word)

    def maj(self, a, b, c):
        if a.__class__ is b.__class__ is c.__class__ is int:
            t = a ^ b
            m = a ^ t & (c ^ a)
            self.values.append(_interleave(t, m))
            self.fields.append(_FIELD[2 * WORD])
            return m
        a = _masks(a)
        t, alloc_t = _xor(a, _masks(b))
        word, alloc = _ch(t, _masks(c), a)
        self._record_kept(
            _interleave(t[0] ^ t[2], word[0] ^ word[2]), _interleave(alloc_t, alloc), 2 * WORD
        )
        return _word(word)

    def add(self, *words):
        total = 0
        for word in words:
            total += word if word.__class__ is int else word[0]
        width = _ADD_WIDTH[len(words)]
        self.values.append(total)
        self.fields.append(_FIELD[width])
        self.bools += width
        self.lins += 1
        return total & MASK
