#!/usr/bin/env python3
"""Report constraint-system sizes and synthesis times.

Builds representative statements on the toy and production profiles and
prints constraint/variable counts, prover and shape-only (verifier)
synthesis times, plus a short auditable dump excerpt.  Exits 1 if any
of these honest statements is unsatisfied, or if the shape-only
rebuild differs from the prover's constraint system.

    python scripts/circuit_report.py [--dump N]
"""

import argparse
import sys
import time

from blsces import CEAS, Claim, Credential
from blsces.groups.params import BN254, TOY
from blsces.zk import build_statement, hash_to_curve_witness, synthesize


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
    t0 = time.monotonic()
    res = build_statement(cred, ceas, witnesses, extraction, profile_name=profile.name)
    build_s = time.monotonic() - t0
    t0 = time.monotonic()
    shape = synthesize(res.layout).cs
    shape_s = time.monotonic() - t0
    t0 = time.monotonic()
    ok = res.cs.satisfied(res.values)
    check_s = time.monotonic() - t0
    cs = res.cs
    same = (shape.bools, shape.lins, shape.r1s, shape.num_vars, shape.num_public) == (
        cs.bools, cs.lins, cs.r1s, cs.num_vars, cs.num_public
    )
    print(f"profile={profile.name} claims={n_claims}")
    print(
        f"  constraints={len(cs)} (bool={len(cs.bools)} "
        f"lin={len(cs.lins)} r1={len(cs.r1s)}) vars={cs.num_vars} public={cs.num_public}"
    )
    print(
        f"  build {build_s:.2f}s, shape-only build {shape_s:.2f}s, "
        f"full satisfaction check {check_s:.2f}s, satisfied={ok} shape_matches={same}"
    )
    if dump:
        print("  dump excerpt:")
        for line in cs.dump(limit=dump).splitlines():
            print(f"    {line}")
    print()
    return ok and same


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", type=int, default=0, help="print the first N constraints")
    args = parser.parse_args()
    results = [report(TOY, 1, args.dump), report(BN254, 1, 0), report(BN254, 3, 0)]
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
