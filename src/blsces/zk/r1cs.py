"""Rank-1 constraint system and its three builders.

Scale matters here: a real-field statement runs to about 29,650
constraints per claim (29,651 for one BN254 claim: 10,592 booleanity,
317 linear and 18,742 general), all but a few from the sha256 gadget
and its bit decompositions, so constraints are stored by kind instead
of as uniform LC triples:

* ``bools``: variable indices v with v * (1 - v) = 0
* ``lins``:  linear combinations that must equal zero
* ``r1s``:   general (A, B, C) LC triples with <A,w> * <B,w> = <C,w>

A linear combination is a tuple of (variable, coefficient) pairs; a
variable may appear more than once, and its coefficients add.  Variable
0 is pinned to the constant 1, which is also how constants enter LCs.
``iter_r1cs`` exposes every constraint in the uniform a*b = c shape
(bools, then lins, then r1s) for dumps and for the mutation-sweep tests.

The gadgets emit constraints through a builder of one of three kinds:

* ``Builder`` (the prover's) computes each variable's value as it
  allocates it and counts constraints by kind; it stores none, since
  the proof carries only the values.
* ``RecordingBuilder`` computes the same values and also stores every
  constraint in a ``ConstraintSystem``: the reference for dumps, audits
  and the mutation-sweep tests, through ``first_violation``.
* ``CheckingBuilder`` (the verifier's) is handed a transported
  assignment.  Allocation reads the next value; each linear constraint
  is evaluated as it is emitted, and each bit decomposition and sha256
  compression taken whole.  It keeps only counts, and evaluates no
  product or booleanity constraint: its ``add_r1`` and ``add_bool``
  raise.

Gadgets tell the computing kinds from the checking one by
``bd.compute``.  Each builder's ``cs`` has the same sizes; only the
recording builder's holds the constraints.

The sha256 gadget's block path (see ``sha256_gadget``) reads the values
of a compression's input words with ``word_value``, computes the bit of
every variable its per-bit path would allocate, and hands them to
``alloc_bits`` with the constraint counts.  Word values come from a
bit-class view of the assignment, one ASCII byte per value: '0' or '1'
for a bit and '2' for anything else.  A builder whose ``bits`` is None
keeps no view and knows no word value.

* ``Builder`` keeps the view beside its values as it allocates them,
  reads word values from it, and appends the bits, as they are, to the
  view and as values to the assignment, adding the counts.  Its values
  are an ``Assignment`` whose ``bits`` are that view, so the backend
  writes the view without rebuilding it.
* ``CheckingBuilder`` reads word values from the view of the
  transported assignment and compares the bits with the next slice of
  it.  A slice that differs raises ``ConstraintViolation`` naming the
  region (claim and block) and the first variable that differs.
* ``RecordingBuilder`` keeps no view, since the mutation-sweep tests
  change its values in place, so every compression runs on the per-bit
  path and every constraint is stored.

The comparison is the per-bit check.  Every value the checker reads is
below the field modulus R (the backend refuses wider ones), and every
bit a compression reads is 0 or 1: a message bit passed ``bits_of``, an
earlier compression's output passed its slice.  Over such inputs the
per-bit constraints fix each variable a compression allocates: xor's
(a - b)^2 = z gives z = a xor b, Ch's e * (f - g) = c - g gives
c = g + e(f - g), and an addition's boolean bits, weighted by powers of
2, equal the operand sum mod R, where both sides are integers below
2^35, far below R, so the bits are the sum's binary digits.  A slice
therefore matches exactly when the block's per-bit constraints hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from blsces.errors import ConstraintViolation, StatementError, WitnessShapeError
from blsces.groups.params import R as BN254_SCALAR_FIELD

LC = tuple  # tuple[tuple[int, int], ...]

# translate tables: a byte value to its bit class, '0' or '1' for a
# canonical bit and '2' otherwise; ASCII bits to the values 0 and 1
BIT_CLASS = b"01" + b"2" * 254
_ASCII_BIT = bytes.maketrans(b"01", bytes(range(2)))
_VIEW_CHUNK = 1 << 10


class Assignment(list):
    """Witness values, and ``bits``, their bit classes (see
    ``BIT_CLASS``): as parsed from a proof, or as the prover's builder
    allocated them.  The values are read-only once built, so the view
    cannot go stale: a caller that changes a value copies them into a
    plain list, whose view the backend and the checking builder build
    themselves."""

    __slots__ = ("bits",)

    def __init__(self, values, bits: bytes):
        super().__init__(values)
        self.bits = bits

    def _read_only(self, *args, **kwargs):
        raise TypeError("parsed witness values are read-only; copy them with list() to change them")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = reverse = sort = clear = _read_only


def bit_view(values: list[int]) -> bytes:
    """The bit classes of any list of values."""
    out = bytearray()
    for start in range(0, len(values), _VIEW_CHUNK):
        chunk = values[start: start + _VIEW_CHUNK]
        try:
            out += bytes(chunk)
        except (ValueError, TypeError):  # a value outside 0..255
            out += bytes(v if v in (0, 1) else 2 for v in chunk)
    return bytes(out.translate(BIT_CLASS))


def lc_value(lc: LC, w: list, field: int) -> int:
    total = 0
    for var, coeff in lc:
        total += w[var] * coeff
    return total % field


@dataclass
class ConstraintSystem:
    field: int = BN254_SCALAR_FIELD
    num_vars: int = 1  # var 0 == 1
    num_public: int = 0  # vars 1..num_public are public inputs
    bools: list = dc_field(default_factory=list)
    lins: list = dc_field(default_factory=list)
    r1s: list = dc_field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bools) + len(self.lins) + len(self.r1s)

    # -- evaluation ---------------------------------------------------

    def first_violation(self, w: list) -> int | None:
        """Index (in iter_r1cs order) of the first failing constraint."""
        f = self.field
        if len(w) != self.num_vars or w[0] != 1:
            raise StatementError("assignment length or constant slot wrong")
        idx = 0
        for v in self.bools:
            if w[v] % f not in (0, 1):
                return idx
            idx += 1
        for lc in self.lins:
            if lc_value(lc, w, f) != 0:
                return idx
            idx += 1
        for a_lc, b_lc, c_lc in self.r1s:
            if lc_value(a_lc, w, f) * lc_value(b_lc, w, f) % f != lc_value(c_lc, w, f):
                return idx
            idx += 1
        return None

    def satisfied(self, w: list) -> bool:
        return self.first_violation(w) is None

    # -- uniform views ------------------------------------------------

    def iter_r1cs(self):
        """Yield every constraint as an (A, B, C) LC triple."""
        one = ((0, 1),)
        for v in self.bools:
            yield (((v, 1),), ((0, 1), (v, -1)), ())
        for lc in self.lins:
            yield (lc, one, ())
        for a_lc, b_lc, c_lc in self.r1s:
            yield (a_lc, b_lc, c_lc)

    def constraint(self, idx: int):
        nb, nl = len(self.bools), len(self.lins)
        if idx < nb:
            v = self.bools[idx]
            return (((v, 1),), ((0, 1), (v, -1)), ())
        idx -= nb
        if idx < nl:
            return (self.lins[idx], ((0, 1),), ())
        return self.r1s[idx - nl]

    def eval_constraint(self, idx: int, w: list) -> bool:
        a_lc, b_lc, c_lc = self.constraint(idx)
        f = self.field
        return lc_value(a_lc, w, f) * lc_value(b_lc, w, f) % f == lc_value(c_lc, w, f)

    def var_index(self) -> dict:
        """Map variable -> indices of constraints mentioning it.

        Mutating one variable can only falsify constraints it appears
        in, so the mutation-sweep tests re-check just those.
        """
        index: dict[int, list[int]] = {}
        for idx, (a_lc, b_lc, c_lc) in enumerate(self.iter_r1cs()):
            for lc in (a_lc, b_lc, c_lc):
                for var, _ in lc:
                    index.setdefault(var, []).append(idx)
        return index

    def dump(self, limit: int | None = None):
        """Human-readable one-line-per-constraint dump for auditing."""
        def fmt_lc(lc):
            if not lc:
                return "0"
            parts = []
            for var, coeff in lc:
                coeff %= self.field
                if coeff > self.field // 2:
                    cs = f"-{self.field - coeff}"
                else:
                    cs = str(coeff)
                parts.append(f"{cs}*w{var}" if var else cs)
            return " + ".join(parts)

        lines = []
        for idx, (a, b, c) in enumerate(self.iter_r1cs()):
            if limit is not None and idx >= limit:
                lines.append(f"... ({len(self) - limit} more)")
                break
            lines.append(f"[{idx}] ({fmt_lc(a)}) * ({fmt_lc(b)}) = {fmt_lc(c)}")
        return "\n".join(lines)


class Tally:
    """Stands in for a constraint list the prover's and the checking
    builder do not keep: it has a length and nothing else."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n

    def __len__(self) -> int:
        return self.n


class Builder:
    """The prover's builder: computes each variable's value as it
    allocates it and counts constraints by kind without storing them.
    ``values`` is an ``Assignment`` whose ``bits`` is the bit-class view
    kept beside them.  ``region`` names the part of the statement being
    synthesized; the checking builder reports it.  ``cs`` is a
    ``ConstraintSystem`` of the sizes so far, with tallies for its
    constraint lists."""

    compute = True
    region = ""

    field = BN254_SCALAR_FIELD

    def __init__(self):
        self.bits = bytearray(b"1")
        self.values: list = Assignment([1], self.bits)
        self.num_vars = 1
        self.num_public = 0
        self.n_bools = self.n_lins = self.n_r1s = 0
        self._public_frozen = False

    @property
    def cs(self) -> ConstraintSystem:
        return ConstraintSystem(
            self.field, self.num_vars, self.num_public, Tally(self.n_bools), Tally(self.n_lins), Tally(self.n_r1s)
        )

    # -- allocation ---------------------------------------------------
    # values grow through list methods: an Assignment refuses its own

    def alloc(self, value: int) -> int:
        self._public_frozen = True
        return self._append(value)

    def alloc_public(self, value: int) -> int:
        if self._public_frozen:
            raise StatementError("public inputs must be allocated before witness variables")
        self.num_public += 1
        return self._append(value)

    def _append(self, value: int) -> int:
        value %= self.field
        list.append(self.values, value)
        if self.bits is not None:
            self.bits.append(BIT_CLASS[min(value, 2)])
        self.num_vars += 1
        return self.num_vars - 1

    # -- constraint emission -------------------------------------------

    def add_bool(self, var: int) -> None:
        self.n_bools += 1

    def add_lin(self, lc: LC) -> None:
        self.n_lins += 1

    def add_r1(self, a_lc: LC, b_lc: LC, c_lc: LC) -> None:
        self.n_r1s += 1

    # -- helpers --------------------------------------------------------

    def lc_val(self, lc: LC) -> int:
        if not self.compute:
            raise StatementError("a checking builder computes no values")
        return lc_value(lc, self.values, self.field)

    def bit(self, value: int) -> int:
        v = self.alloc(value)
        self.add_bool(v)
        return v

    def bits_of(self, value: int, width: int) -> list[int]:
        """Allocate ``width`` boolean variables holding the little-endian
        bits of ``value`` (masked to the width, so hostile values still
        produce boolean assignments and fail elsewhere)."""
        bits = format(value & ((1 << width) - 1), f"0{width}b").encode()[::-1]
        start = self.alloc_bits(bits, bools=width)
        return list(range(start, start + width))

    # -- whole blocks -----------------------------------------------------

    def alloc_bits(self, bits: bytes, bools: int = 0, lins: int = 0, r1s: int = 0) -> int:
        """Allocate one variable per ASCII '0' or '1' of ``bits``, holding
        it, under ``bools``, ``lins`` and ``r1s`` constraints of each kind;
        returns the first index."""
        start = self.num_vars
        self._public_frozen = True
        list.extend(self.values, bits.translate(_ASCII_BIT))
        if self.bits is not None:
            self.bits += bits
        self.num_vars = start + len(bits)
        self.n_bools += bools
        self.n_lins += lins
        self.n_r1s += r1s
        return start

    def word_value(self, variables: list[int]) -> int | None:
        """The value the variables hold as little-endian bits, or None if
        one of them is not a canonical bit or the builder keeps no view."""
        if self.bits is None:
            return None
        try:
            return int(bytes(map(self.bits.__getitem__, reversed(variables))), 2)
        except ValueError:  # a '2'
            return None


class RecordingBuilder(Builder):
    """A prover's builder that also stores every constraint, for audits,
    dumps and the mutation-sweep tests; ``cs`` is the stored system.  Its
    values are a plain list, which those tests change in place, and it
    keeps no bit-class view, which would go stale when they do."""

    def __init__(self):
        super().__init__()
        self.values = [1]
        self.bits = None
        self.bools: list = []
        self.lins: list = []
        self.r1s: list = []

    @property
    def cs(self) -> ConstraintSystem:
        return ConstraintSystem(self.field, self.num_vars, self.num_public, self.bools, self.lins, self.r1s)

    def add_bool(self, var: int) -> None:
        self.bools.append(var)

    def add_lin(self, lc: LC) -> None:
        self.lins.append(tuple(lc))

    def add_r1(self, a_lc: LC, b_lc: LC, c_lc: LC) -> None:
        self.r1s.append((tuple(a_lc), tuple(b_lc), tuple(c_lc)))

    def bits_of(self, value: int, width: int) -> list[int]:
        bits = super().bits_of(value, width)
        self.bools.extend(bits)
        return bits


class CheckingBuilder(Builder):
    """The verifier's builder over the assignment ``values``, whose
    constant slot must hold 1.  It stores no constraint; the first
    violation raises ``ConstraintViolation`` naming the region, and an
    assignment that runs out raises ``WitnessShapeError``.  ``cs``
    reports the sizes of the system checked so far, with tallies for
    its constraint lists."""

    compute = False

    def __init__(self, values: list[int]):
        super().__init__()
        if not values or values[0] != 1:
            raise WitnessShapeError("the constant slot does not hold 1")
        self.values = values
        self.bits = values.bits if isinstance(values, Assignment) else bit_view(values)

    def _take(self, width: int) -> int:
        """Allocate the next ``width`` variables; returns the first."""
        start = self.num_vars
        if start + width > len(self.values):
            raise WitnessShapeError("assignment ends before the statement's variables")
        self.num_vars = start + width
        return start

    def alloc(self, value: int | None = None) -> int:
        return self._take(1)

    def alloc_public(self, value: int | None = None) -> int:
        idx = self._take(1)
        self.num_public += 1
        return idx

    def add_bool(self, *args) -> None:
        raise StatementError(f"{self.region}: a checking builder evaluates no product or booleanity constraint")

    add_r1 = add_bool

    def add_lin(self, lc: LC) -> None:
        # a plain loop: LCs here are short, where a comprehension costs more
        w = self.values
        total = 0
        for v, k in lc:
            total += w[v] * k
        if total % self.field:
            raise ConstraintViolation(f"{self.region}: lin constraint {self.n_lins} fails")
        self.n_lins += 1

    def bits_of(self, value: int | None, width: int) -> list[int]:
        start = self._take(width)
        k = self.bits.find(b"2", start, start + width)
        if k >= 0:
            raise ConstraintViolation(f"{self.region}: variable {k} is not a bit")
        self.n_bools += width
        return list(range(start, start + width))

    def alloc_bits(self, bits: bytes, bools: int = 0, lins: int = 0, r1s: int = 0) -> int:
        start = self._take(len(bits))
        if self.bits[start: self.num_vars] != bits:
            k = next(k for k, b in enumerate(bits) if self.bits[start + k] != b)
            raise ConstraintViolation(f"{self.region}: variable {start + k} is not the bit its block's inputs fix")
        self.n_bools += bools
        self.n_lins += lins
        self.n_r1s += r1s
        return start
