"""The block path of the sha256 gadget: the counts of one compression.

``sha256_gadget._compress`` runs over these operations to count, with
no value computed, the variables and constraints the per-bit path
allocates for one compression, from the shape of its input words alone:
which of their literals are variables, and the values of the rest, the
constants (the state entering a claim's first in-circuit block, public
message bytes, the round constants and the ZEROs a shift brings in).

A word is a pair of 32-bit masks (x, v): v marks the literals that are
variables, and x holds the constants' values (its bits under v mean
nothing).  A negation changes nothing the per-bit path allocates, so no
mask records it.  Per bit:

* xor allocates where both operands are variables; its result is a
  variable where either is, and the constants' xor elsewhere;
* Ch(e, f, g) takes f or g by e's value where e is a constant, and
  elsewhere allocates unless f and g are the same constant, which it
  keeps.  The per-bit path also folds one variable under both f and g;
  a statement never hands it one, since its state words are the
  outputs of distinct additions and its message bits distinct
  variables;
* Maj(a, b, c) is Ch(a xor b, c, a);
* an addition allocates its 32 result bits and its carries, all
  variables.

Each variable xor or Ch allocates is one product, each variable an
addition allocates one booleanity check, and each addition one linear
constraint.  A word of variables alone is ``VAR``; an operation over
``VAR`` words alone counts without mask arithmetic, which is every
operation of a compression but the schedule's reads of message words
holding public bytes and, over a constant state, rounds 0-3.
"""

from __future__ import annotations

from blsces.zk.sha256 import WORD, rotr

MASK = (1 << WORD) - 1
VAR = (0, MASK)


def add_width(count: int) -> int:
    """Bits an addition of ``count`` words allocates: 32 and its carries."""
    return WORD + max(1, (count - 1).bit_length())


_ADD_WIDTH = {count: add_width(count) for count in (2, 4, 5)}


def word_shape(x: int, v: int):
    """A word's masks, or VAR if every literal is a variable."""
    return VAR if v == MASK else (x, v)


class BlockWords:
    """The block path's word operations over masks (see the module
    docstring): each returns the shape of its result and counts what
    its per-bit twin allocates, ``products`` and, for the additions,
    ``bools`` and ``lins``.  A compression allocates ``products +
    bools`` variables under ``products`` general constraints."""

    def __init__(self):
        self.products = self.bools = self.lins = 0

    @staticmethod
    def const(value: int):
        return value, 0

    def sigma(self, word, r1: int, r2: int, k: int, shift: bool = False):
        """rotr(r1) ^ rotr(r2) ^ rotr(k), or ^ shr(k) with ``shift``, as
        t = x xor y and then t xor z per bit."""
        if word is VAR:
            # with a shift, z's top k literals are ZEROs: no product there
            self.products += 2 * WORD - k if shift else 2 * WORD
            return VAR
        x, v = word
        vx, vy = rotr(v, r1), rotr(v, r2)
        xz, vz = (x >> k, v >> k) if shift else (rotr(x, k), rotr(v, k))
        vt = vx | vy
        self.products += (vx & vy).bit_count() + (vt & vz).bit_count()
        return word_shape(rotr(x, r1) ^ rotr(x, r2) ^ xz, vt | vz)

    def ch(self, e, f, g):
        if e is f is g is VAR:
            self.products += WORD
            return VAR
        return self._ch(e, f, g)

    def _ch(self, e, f, g):
        (xe, ve), (xf, vf), (xg, vg) = e, f, g
        alloc = ve & (vf | vg | xf ^ xg)
        self.products += alloc.bit_count()
        # elsewhere f or g by e's value; where e is a variable they are one constant
        ye = MASK ^ xe
        return word_shape(xe & xf | ye & xg, alloc | (MASK ^ alloc) & (xe & vf | ye & vg))

    def maj(self, a, b, c):
        if a is b is c is VAR:
            self.products += 2 * WORD
            return VAR
        (xa, va), (xb, vb) = a, b
        self.products += (va & vb).bit_count()
        return self._ch(word_shape(xa ^ xb, va | vb), c, a)

    def add(self, *words):
        self.bools += _ADD_WIDTH[len(words)]
        self.lins += 1
        return VAR
