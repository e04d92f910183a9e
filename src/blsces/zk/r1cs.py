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
  constraint in a ``ConstraintSystem``, for dumps, audits and the
  mutation-sweep tests.
* ``CheckingBuilder`` (the verifier's) is handed a transported
  assignment.  Allocation reads the next value; each constraint is
  evaluated as it is emitted, exactly as ``first_violation`` would, and
  then dropped.  It keeps only counts.

Gadgets tell the computing kinds from the checking one by
``bd.compute``.  Each builder's ``cs`` has the same sizes; only the
recording builder's holds the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from blsces.errors import ConstraintViolation, StatementError, WitnessShapeError
from blsces.groups.params import R as BN254_SCALAR_FIELD

LC = tuple  # tuple[tuple[int, int], ...]


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
    ``region`` names the part of the statement being synthesized; the
    checking builder reports it.  ``cs`` is a ``ConstraintSystem`` of the
    sizes so far, with tallies for its constraint lists."""

    compute = True
    region = ""

    field = BN254_SCALAR_FIELD

    def __init__(self):
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
        self.values.append(value % self.field)
        self.num_vars += 1
        return self.num_vars - 1

    def alloc_public(self, value: int) -> int:
        if self._public_frozen:
            raise StatementError("public inputs must be allocated before witness variables")
        self.values.append(value % self.field)
        self.num_vars += 1
        self.num_public += 1
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
        self._public_frozen = True
        start = self.num_vars
        self.values += [(value >> j) & 1 for j in range(width)]
        self.num_vars = start + width
        self.n_bools += width
        return list(range(start, start + width))


class RecordingBuilder(Builder):
    """A prover's builder that also stores every constraint, for audits,
    dumps and the mutation-sweep tests; ``cs`` is the stored system."""

    def __init__(self):
        super().__init__()
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
    """The verifier's builder: reads each variable from the assignment
    ``values`` and evaluates each constraint as it is emitted, mod
    ``field``.  It stores no constraint; the first violation raises
    ``ConstraintViolation`` naming the region, and an assignment that
    runs out raises ``WitnessShapeError``.  ``cs`` reports the sizes of
    the system checked so far, with tallies for its constraint lists."""

    compute = False

    def __init__(self, values: list[int], field: int = BN254_SCALAR_FIELD):
        super().__init__()
        self.values = values
        self.field = field

    def _violated(self, kind: str, idx: int):
        raise ConstraintViolation(f"{self.region}: {kind} constraint {idx} fails")

    # -- allocation ---------------------------------------------------

    def alloc(self, value: int | None = None) -> int:
        idx = self.num_vars
        if idx >= len(self.values):
            raise WitnessShapeError("assignment ends before the statement's variables")
        self.num_vars = idx + 1
        return idx

    def alloc_public(self, value: int | None = None) -> int:
        idx = self.alloc()
        self.num_public += 1
        return idx

    # -- constraint evaluation -------------------------------------------

    def add_bool(self, var: int) -> None:
        w = self.values[var]
        if w > 1 and w % self.field > 1:
            self._violated("bool", self.n_bools)
        self.n_bools += 1

    # Plain loops: LCs here are short, where a comprehension costs more.

    def add_lin(self, lc: LC) -> None:
        w = self.values
        total = 0
        for v, k in lc:
            total += w[v] * k
        if total % self.field:
            self._violated("lin", self.n_lins)
        self.n_lins += 1

    def add_r1(self, a_lc: LC, b_lc: LC, c_lc: LC) -> None:
        w = self.values
        a = b = c = 0
        for v, k in a_lc:
            a += w[v] * k
        if b_lc is a_lc:
            b = a
        else:
            for v, k in b_lc:
                b += w[v] * k
        for v, k in c_lc:
            c += w[v] * k
        if (a * b - c) % self.field:
            self._violated("r1", self.n_r1s)
        self.n_r1s += 1

    def bits_of(self, value: int | None, width: int) -> list[int]:
        start = self.num_vars
        end = start + width
        if end > len(self.values):
            raise WitnessShapeError("assignment ends before the statement's variables")
        self.num_vars = end
        bits = self.values[start:end]
        if max(bits) > 1:
            for j, w in enumerate(bits):
                if w % self.field > 1:
                    self._violated("bool", self.n_bools + j)
        self.n_bools += width
        return list(range(start, end))
