"""Rank-1 constraint system and its two builders.

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

The gadgets emit constraints through a builder of one of two kinds.
Both compute each variable's value as they allocate it; the statement
hands them the public inputs and the secret message bytes, which fix
every other value (see ``statement``).

* ``Builder`` (the verifier's) stores no constraint and counts them by
  kind.  It evaluates each linear constraint it is handed, and the
  first that fails raises ``ConstraintViolation`` naming the region
  (claim and gadget) being synthesized.  Every other constraint holds
  by construction: a product or booleanity constraint is the one its
  gadget's value computation solves, so the builder does not evaluate
  it.  It keeps a bit-class view beside its values, one ASCII byte per
  value, '0' or '1' for a bit and '2' for anything else, from which the
  sha256 gadget's block path reads the values of a compression's input
  words (``word_value``) and to which it appends a whole compression's
  bits at once (``alloc_bits``).
* ``RecordingBuilder`` stores every constraint in a
  ``ConstraintSystem`` and evaluates none: it is the reference for
  dumps, audits and the mutation-sweep tests, through
  ``first_violation``.  It keeps no view, since those tests change its
  values in place, so every compression runs on the gadget's per-bit
  path and every constraint is stored.

The two give the same values and per-kind counts, and ``Builder``
raises exactly when the recorded system is unsatisfied: on values
computed this way only a linear constraint can fail.  A linear
constraint that ties a bit decomposition to its value fails when the
value does not fit the width (``bits_of`` masks it), so a value that
does not fit is refused, never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from blsces.errors import ConstraintViolation, StatementError
from blsces.groups.params import R as BN254_SCALAR_FIELD

LC = tuple  # tuple[tuple[int, int], ...]

# ASCII bits to the values 0 and 1
_ASCII_BIT = bytes.maketrans(b"01", bytes(range(2)))


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
    """Stands in for a constraint list ``Builder`` does not keep: it has
    a length and nothing else."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n

    def __len__(self) -> int:
        return self.n


class Builder:
    """The verifier's builder: computes each variable's value as it
    allocates it, evaluates each linear constraint, and counts
    constraints by kind without storing them.  ``bits`` is the
    bit-class view kept beside ``values``.  ``region`` names the part
    of the statement being synthesized, for the refusal's detail.
    ``cs`` is a ``ConstraintSystem`` of the sizes so far, with tallies
    for its constraint lists."""

    region = ""

    field = BN254_SCALAR_FIELD

    def __init__(self):
        self.bits = bytearray(b"1")
        self.values: list = [1]
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
        self.values.append(value)
        if self.bits is not None:
            self.bits.append(b"012"[min(value, 2)])
        self.num_vars += 1
        return self.num_vars - 1

    # -- constraint emission -------------------------------------------

    def add_bool(self, var: int) -> None:
        self.n_bools += 1

    def add_lin(self, lc: LC) -> None:
        # a plain loop: LCs here are short, where a comprehension costs more
        w = self.values
        total = 0
        for v, k in lc:
            total += w[v] * k
        if total % self.field:
            raise ConstraintViolation(f"{self.region}: lin constraint {self.n_lins} fails")
        self.n_lins += 1

    def add_r1(self, a_lc: LC, b_lc: LC, c_lc: LC) -> None:
        self.n_r1s += 1

    # -- helpers --------------------------------------------------------

    def lc_val(self, lc: LC) -> int:
        return lc_value(lc, self.values, self.field)

    def bit(self, value: int) -> int:
        v = self.alloc(value)
        self.add_bool(v)
        return v

    def bits_of(self, value: int, width: int) -> list[int]:
        """Allocate ``width`` boolean variables holding the little-endian
        bits of ``value``, masked to the width: a value that does not fit
        still gets boolean bits, and fails the linear constraint that
        ties them to it."""
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
        self.values += bits.translate(_ASCII_BIT)
        if self.bits is not None:
            self.bits += bits
        self.num_vars = start + len(bits)
        self.n_bools += bools
        self.n_lins += lins
        self.n_r1s += r1s
        return start

    def word_value(self, variables: list[int]) -> int | None:
        """The value the variables hold as little-endian bits, or None if
        one of them is not a bit or the builder keeps no view."""
        if self.bits is None:
            return None
        try:
            return int(bytes(map(self.bits.__getitem__, reversed(variables))), 2)
        except ValueError:  # a '2'
            return None


class RecordingBuilder(Builder):
    """A builder that stores every constraint and evaluates none, for
    audits, dumps and the mutation-sweep tests; ``cs`` is the stored
    system.  It keeps no bit-class view, which would go stale when those
    tests change its values in place."""

    def __init__(self):
        super().__init__()
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
