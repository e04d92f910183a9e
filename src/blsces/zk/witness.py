"""Witness generation for the hash-to-curve statement.

For each disclosed claim the prover re-runs try-and-increment outside
the constraint system and keeps the successful counter.  The constraint
system then only has to check the final, deterministic iteration; the
verifier recovers the point from the public (x, sign) pair itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from blsces import bls
from blsces.credential import CEAS, Claim, encode_claim_message
from blsces.errors import ValidationError
from blsces.groups.params import BN254, CurveProfile


@dataclass(frozen=True)
class HashToCurveWitness:
    """Everything needed to re-derive one hashed point inside the proof."""

    index: int
    x: int
    sign_bit: int
    counter: int


def hash_to_curve_witness(
    i: int,
    claim: Claim,
    n: int,
    ceas: CEAS,
    profile: CurveProfile = BN254,
) -> tuple[tuple[int, int], HashToCurveWitness]:
    """Run the full try-and-increment search for one claim message and
    package the result: public part (x, sign_bit) plus the witness.

    Raises HashToCurveFailure on counter exhaustion and ValidationError
    for hidden claims, mirroring the signing path exactly.
    """
    if claim.hidden:
        raise ValidationError("cannot build a hash witness for a hidden claim")
    msg = encode_claim_message(ceas, n, i, claim)
    h = bls.hash_to_g1(msg, profile)
    witness = HashToCurveWitness(
        index=i,
        x=h.x,
        sign_bit=h.sign_bit,
        counter=h.counter,
    )
    return (h.x, h.sign_bit), witness
