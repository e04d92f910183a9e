#!/usr/bin/env python3
"""Report constraint-system sizes and synthesis times.

Builds representative statements on the toy and production profiles,
one of them over long claims whose first block is hashed outside the
system, and prints constraint/variable counts, the constraints of each
region ("claim i, sha256 block b", "claim i, binding", "claim i,
predicate"), the times of the three syntheses (the recorded build,
which stores every constraint; the prover's, which stores none; the
verifier's check, a checking builder run over the assignment), the
per-bit sha256 gadget calls (``xor`` and ``ch``) the prover and the
checker made, the block path's word operations that took its mask
branch, plus a short auditable dump excerpt.  Exits 1 if any of
these honest statements is unsatisfied, if the prover's values or
per-kind counts differ from the recorded build's, if the checker
rejects the honest assignment or accepts one with a mutated variable,
if the checker's per-kind constraint counts differ from the recorded
ones, if the prover or the checker of an honest statement made a
per-bit gadget call instead of taking every compression whole, or if a
compression whose input words were all variables took the mask branch
(which stays correct, only slow).

    python scripts/circuit_report.py [--dump N]
"""

import argparse
import sys
import time
from collections import Counter

from blsces import CEAS, Claim, Credential
from blsces.errors import ConstraintViolation
from blsces.groups.params import BN254, TOY
from blsces.zk import Builder, CheckingBuilder, RecordingBuilder, hash_to_curve_witness, prover_layout, synthesize
from blsces.zk import sha256_gadget
from blsces.zk.predicates import RangePredicate


class RegionRecorder(RecordingBuilder):
    """A recording builder that also counts the constraints emitted in
    each region: those stored between one region change and the next."""

    def __init__(self):
        super().__init__()
        self.per_region = Counter()
        self._region = ""
        self._mark = 0

    def _stored(self) -> int:
        return len(self.bools) + len(self.lins) + len(self.r1s)

    @property
    def region(self) -> str:
        return self._region

    @region.setter
    def region(self, name: str) -> None:
        self.per_region[self._region] += self._stored() - self._mark
        self._region, self._mark = name, self._stored()


def check(layout, values):
    """The checker's constraint counts, or None if it rejects."""
    try:
        return synthesize(layout, CheckingBuilder(values)).cs
    except ConstraintViolation:
        return None


def report(profile, n_claims: int, dump: int, long_claims: bool = False) -> bool:
    """Report on a statement over the first n_claims claims of a
    credential.  Long claims are 2 of 6 under a policy of all 63 subsets,
    whose 71 canonical bytes put every secret byte past block 0, and
    carry 85-byte values, so blocks 1-3 of each are in-circuit and block
    2 holds secret bytes alone: a compression whose input words are all
    variables.  The first has a range predicate."""
    if long_claims:
        width = 6
        cred = Credential(tuple(Claim("holder", f"field{i}", str(10**84 + i)) for i in range(width)))
        sets = [[i for i in range(width) if m >> i & 1] for m in range(1, 1 << width)]
        predicate = RangePredicate(0, 10**84, 10**85)
    else:
        width = n_claims
        cred = Credential(tuple(Claim("holder", f"field{i}", str(20 + i)) for i in range(width)))
        sets = [list(range(width))]
        predicate = None
    ceas = CEAS.from_index_sets(width, sets)
    extraction = tuple(range(n_claims))
    witnesses = {}
    for i in extraction:
        (_, _), wit = hash_to_curve_witness(i, cred[i], width, ceas, profile)
        witnesses[i] = wit
    layout, witness = prover_layout(cred, ceas, witnesses, extraction, predicate, profile.name)
    t0 = time.monotonic()
    recorder = RegionRecorder()
    res = synthesize(layout, recorder, witness)
    build_s = time.monotonic() - t0
    recorder.region = ""  # count the last region's constraints
    with sha256_gadget.GadgetCalls() as prover_calls:
        t0 = time.monotonic()
        proved = synthesize(layout, Builder(), witness)
        prove_s = time.monotonic() - t0
    with sha256_gadget.GadgetCalls() as checker_calls:
        t0 = time.monotonic()
        checked = check(res.layout, res.values)
        check_s = time.monotonic() - t0
    ok = res.cs.satisfied(res.values)
    cs = res.cs

    def counts(c):
        return len(c.bools), len(c.lins), len(c.r1s), c.num_vars, c.num_public

    prover_same = proved.values == res.values and counts(proved.cs) == counts(cs)
    same = checked is not None and counts(checked) == counts(cs)
    mutated = list(res.values)
    mutated[-1] ^= 1  # the last bit (a carry or a range bit): still boolean, breaks its sum
    rejects = check(res.layout, mutated) is None
    print(f"profile={profile.name} claims={n_claims}" + (" long" if long_claims else ""))
    print(
        f"  constraints={len(cs)} (bool={len(cs.bools)} "
        f"lin={len(cs.lins)} r1={len(cs.r1s)}) vars={cs.num_vars} public={cs.num_public}"
    )
    blocks = ", ".join(f"claim {c.index}: blocks {c.first_block}-{c.total_blocks - 1}" for c in layout.claims)
    print(f"  in-circuit sha256 {blocks}")
    for region, count in recorder.per_region.items():
        if count:
            print(f"  {region or 'public inputs'}: {count}")
    print(
        f"  recorded build {build_s:.2f}s, prover {prove_s * 1e3:.1f} ms, verifier check {check_s * 1e3:.1f} ms, "
        f"satisfied={ok} prover_matches={prover_same} checker_accepts={checked is not None} "
        f"counts_match={same} mutation_rejected={rejects}"
    )
    print(f"  per-bit xor/ch calls: prover {prover_calls.per_bit}, checker {checker_calls.per_bit}")
    print(
        f"  mask-branch word ops: prover {prover_calls.masked}, checker {checker_calls.masked}; "
        f"in all-variable compressions: prover {prover_calls.masked_all_variable}, "
        f"checker {checker_calls.masked_all_variable}"
    )
    if dump:
        print("  dump excerpt:")
        for line in cs.dump(limit=dump).splitlines():
            print(f"    {line}")
    print()
    whole = all(c.per_bit == c.masked_all_variable == 0 for c in (prover_calls, checker_calls))
    return ok and prover_same and same and rejects and whole


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", type=int, default=0, help="print the first N constraints")
    args = parser.parse_args()
    results = [report(TOY, 1, args.dump), report(BN254, 1, 0), report(BN254, 3, 0), report(BN254, 2, 0, long_claims=True)]
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
