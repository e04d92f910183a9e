#!/usr/bin/env python3
"""Report constraint-system sizes and synthesis times.

Builds representative statements on the toy and production profiles and
prints constraint/variable counts, the times of the three syntheses (the
recorded build, which stores every constraint; the prover's, which
stores none; the verifier's check, a checking builder run over the
assignment), plus a short auditable dump excerpt.  Exits 1 if any of
these honest statements is unsatisfied, if the prover's values or
per-kind counts differ from the recorded build's, if the checker rejects
the honest assignment or accepts one with a mutated variable, or if the
checker's per-kind constraint counts differ from the recorded ones.

    python scripts/circuit_report.py [--dump N]
"""

import argparse
import sys
import time

from blsces import CEAS, Claim, Credential
from blsces.errors import ConstraintViolation
from blsces.groups.params import BN254, TOY
from blsces.zk import Builder, CheckingBuilder, RecordingBuilder, hash_to_curve_witness, prover_layout, synthesize


def check(layout, values):
    """The checker's constraint counts, or None if it rejects."""
    try:
        return synthesize(layout, CheckingBuilder(values)).cs
    except ConstraintViolation:
        return None


def report(profile, n_claims: int, dump: int) -> bool:
    cred = Credential(
        tuple(Claim("holder", f"field{i}", str(20 + i)) for i in range(n_claims))
    )
    ceas = CEAS.from_index_sets(n_claims, [list(range(n_claims))])
    extraction = tuple(range(n_claims))
    witnesses = {}
    for i in extraction:
        (_, _), wit = hash_to_curve_witness(i, cred[i], n_claims, ceas, profile)
        witnesses[i] = wit
    layout, witness = prover_layout(cred, ceas, witnesses, extraction, profile_name=profile.name)
    t0 = time.monotonic()
    res = synthesize(layout, RecordingBuilder(), witness)
    build_s = time.monotonic() - t0
    t0 = time.monotonic()
    proved = synthesize(layout, Builder(), witness)
    prove_s = time.monotonic() - t0
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
    mutated[-1] ^= 1  # the last carry bit: still boolean, breaks its sum
    rejects = check(res.layout, mutated) is None
    print(f"profile={profile.name} claims={n_claims}")
    print(
        f"  constraints={len(cs)} (bool={len(cs.bools)} "
        f"lin={len(cs.lins)} r1={len(cs.r1s)}) vars={cs.num_vars} public={cs.num_public}"
    )
    print(
        f"  recorded build {build_s:.2f}s, prover {prove_s:.2f}s, verifier check {check_s:.2f}s, "
        f"satisfied={ok} prover_matches={prover_same} checker_accepts={checked is not None} "
        f"counts_match={same} mutation_rejected={rejects}"
    )
    if dump:
        print("  dump excerpt:")
        for line in cs.dump(limit=dump).splitlines():
            print(f"    {line}")
    print()
    return ok and prover_same and same and rejects


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", type=int, default=0, help="print the first N constraints")
    args = parser.parse_args()
    results = [report(TOY, 1, args.dump), report(BN254, 1, 0), report(BN254, 3, 0)]
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
