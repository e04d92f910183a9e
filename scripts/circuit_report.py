#!/usr/bin/env python3
"""Report constraint-system sizes and synthesis times.

Builds representative statements on the toy and production profiles,
one of them over long claims whose first block is hashed outside the
system, and prints constraint/variable counts, the constraints of each
region ("claim i, sha256 block b", "claim i, binding", "claim i,
predicate"), the secret bytes a proof carries, the times of the two
syntheses (the recorded build, which stores every constraint, and the
verifier's, which regenerates from the public inputs and the secret
bytes the values its linear constraints read, stores no constraint and
runs no compression: in all and per claim, the best of five), the
per-bit sha256 gadget calls (``xor`` and ``ch``) and the plain
``sha256_compress`` calls the verifier made, plus a short auditable
dump excerpt.  Exits 1 if any of these honest statements is
unsatisfied, if the verifier's verdict differs from the recorded
system's ``satisfied`` on the honest secret bytes or on them with the
last byte changed (the recorded system rebuilt on those bytes), or if
the verifier made a per-bit gadget call or a plain compression, which
the long claims' public block 0 would show.

    python scripts/circuit_report.py [--dump N]
"""

import argparse
import contextlib
import sys
import time
import timeit
from collections import Counter

from blsces import CEAS, Claim, Credential
from blsces.errors import ConstraintViolation
from blsces.groups.params import BN254, TOY
from blsces.zk import Builder, RecordingBuilder, hash_to_curve_witness, prover_layout, synthesize
from blsces.zk import sha256_gadget
from blsces.zk.predicates import EqualsPredicate


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


@contextlib.contextmanager
def plain_compressions():
    """Counts, while open, the calls of the plain ``sha256_compress``
    through each blsces module that binds it."""
    calls = Counter()
    saved = {
        m: m.sha256_compress for name, m in sys.modules.items() if name.startswith("blsces") and hasattr(m, "sha256_compress")
    }
    for module, original in saved.items():
        def counted(*args, original=original):
            calls["plain"] += 1
            return original(*args)

        module.sha256_compress = counted
    try:
        yield calls
    finally:
        for module, original in saved.items():
            module.sha256_compress = original


def verify(layout, inputs, secret):
    """The verifier's synthesis, or None if it rejects."""
    try:
        return synthesize(layout, Builder(), inputs, secret)
    except ConstraintViolation:
        return None


def report(profile, n_claims: int, dump: int, long_claims: bool = False) -> bool:
    """Report on a statement over the first n_claims claims of a
    credential.  Long claims are 2 of 6 under a policy of all 63 subsets,
    whose 71 canonical bytes put every secret byte past block 0, and
    carry 85-byte values, so blocks 1-3 of each are in-circuit and block
    2 holds secret bytes alone.  The first has an equals predicate on its
    value; a range predicate takes values of at most 76 digits."""
    if long_claims:
        width = 6
        cred = Credential(tuple(Claim("holder", f"field{i}", str(10**84 + i)) for i in range(width)))
        sets = [[i for i in range(width) if m >> i & 1] for m in range(1, 1 << width)]
        predicate = EqualsPredicate(0, str(10**84))
    else:
        width = n_claims
        cred = Credential(tuple(Claim("holder", f"field{i}", str(20 + i)) for i in range(width)))
        sets = [list(range(width))]
        predicate = None
    ceas = CEAS.from_index_sets(width, sets)
    extraction = tuple(range(n_claims))
    hashed = {i: hash_to_curve_witness(i, cred[i], width, ceas, profile) for i in extraction}
    layout, inputs, secret = prover_layout(cred, ceas, hashed, extraction, predicate, profile.name)
    t0 = time.monotonic()
    recorder = RegionRecorder()
    res = synthesize(layout, recorder, inputs, secret)
    build_s = time.monotonic() - t0
    recorder.region = ""  # count the last region's constraints
    cs = res.cs
    ok = cs.satisfied(res.values)
    # the last secret byte is a counter: the message changes, and with it the digest
    mutated = secret[:-1] + bytes([secret[-1] ^ 1])
    recorded = synthesize(layout, RecordingBuilder(), inputs, mutated)
    mutated_ok = recorded.cs.satisfied(recorded.values)
    with sha256_gadget.GadgetCalls() as calls, plain_compressions() as plain:
        checked = verify(layout, inputs, secret)
        mutated_accepted = verify(layout, inputs, mutated) is not None
        verify_s = min(timeit.repeat(lambda: verify(layout, inputs, secret), number=1, repeat=5))
    accepted = checked is not None
    print(f"profile={profile.name} claims={n_claims}" + (" long" if long_claims else ""))
    print(
        f"  constraints={len(cs)} (bool={len(cs.bools)} "
        f"lin={len(cs.lins)} r1={len(cs.r1s)}) vars={cs.num_vars} public={cs.num_public} secret bytes={len(secret)}"
    )
    blocks = ", ".join(f"claim {c.index}: blocks {c.first_block}-{c.total_blocks - 1}" for c in layout.claims)
    print(f"  in-circuit sha256 {blocks}")
    for region, count in recorder.per_region.items():
        if count:
            print(f"  {region or 'public inputs'}: {count}")
    print(
        f"  recorded build {build_s:.2f}s, verifier {verify_s * 1e3:.2f} ms "
        f"({verify_s * 1e3 / n_claims:.2f} ms per claim), {len(checked.values) if accepted else 0} values kept, "
        f"satisfied={ok} verifier_accepts={accepted} "
        f"mutated_satisfied={mutated_ok} verifier_accepts_mutated={mutated_accepted}"
    )
    print(f"  per-bit xor/ch calls: {calls.per_bit}, plain sha256_compress calls: {plain['plain']}")
    if dump:
        print("  dump excerpt:")
        for line in cs.dump(limit=dump).splitlines():
            print(f"    {line}")
    print()
    return ok and accepted and mutated_accepted == mutated_ok and calls.per_bit == 0 and plain["plain"] == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", type=int, default=0, help="print the first N constraints")
    args = parser.parse_args()
    results = [report(TOY, 1, args.dump), report(BN254, 1, 0), report(BN254, 3, 0), report(BN254, 2, 0, long_claims=True)]
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
