"""Rank-1 constraint system with a builder that doubles as witness generator.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from blsces.errors import StatementError
from blsces.groups.params import R as BN254_SCALAR_FIELD

LC = tuple  # tuple[tuple[int, int], ...]


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

    def lc_value(self, lc: LC, w: list) -> int:
        f = self.field
        total = 0
        for var, coeff in lc:
            total += w[var] * coeff
        return total % f

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
            if self.lc_value(lc, w) != 0:
                return idx
            idx += 1
        for a_lc, b_lc, c_lc in self.r1s:
            if self.lc_value(a_lc, w) * self.lc_value(b_lc, w) % f != self.lc_value(c_lc, w):
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
        return self.lc_value(a_lc, w) * self.lc_value(b_lc, w) % self.field == self.lc_value(c_lc, w)

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


class Builder:
    """Synthesizes a constraint system, computing witness values alongside
    when running on the prover side (``compute=True``); the verifier
    rebuilds the identical shape with ``compute=False`` and checks a
    transported assignment instead."""

    def __init__(self, compute: bool = True):
        self.cs = ConstraintSystem()
        self.compute = compute
        self.values: list = [1]
        self._public_frozen = False

    # -- allocation ---------------------------------------------------

    def alloc(self, value: int | None = None) -> int:
        self._public_frozen = True
        idx = self.cs.num_vars
        self.cs.num_vars += 1
        self.values.append(value % self.cs.field if (self.compute and value is not None) else value)
        return idx

    def alloc_public(self, value: int | None = None) -> int:
        if self._public_frozen:
            raise StatementError("public inputs must be allocated before witness variables")
        idx = self.cs.num_vars
        self.cs.num_vars += 1
        self.cs.num_public += 1
        self.values.append(value % self.cs.field if (self.compute and value is not None) else value)
        return idx

    # -- constraint emission -------------------------------------------

    def add_bool(self, var: int) -> None:
        self.cs.bools.append(var)

    def add_lin(self, lc: LC) -> None:
        self.cs.lins.append(tuple(lc))

    def add_r1(self, a_lc: LC, b_lc: LC, c_lc: LC) -> None:
        self.cs.r1s.append((tuple(a_lc), tuple(b_lc), tuple(c_lc)))

    # -- helpers --------------------------------------------------------

    def lc_val(self, lc: LC) -> int:
        if not self.compute:
            raise StatementError("value requested while building shape only")
        return self.cs.lc_value(lc, self.values)

    def bit(self, value: int | None = None) -> int:
        v = self.alloc(value)
        self.add_bool(v)
        return v

    def bits_of(self, value: int | None, width: int) -> list[int]:
        """Allocate ``width`` boolean variables holding the little-endian
        bits of ``value`` (masked to the width, so hostile values still
        produce boolean assignments and fail elsewhere)."""
        out = []
        for j in range(width):
            bv = None
            if self.compute and value is not None:
                bv = (value >> j) & 1
            out.append(self.bit(bv))
        return out
