"""Witness generation for the hash-to-curve statement.

For each disclosed claim the prover re-runs try-and-increment outside
the constraint system and keeps the successful counter.  The constraint
system then only has to check the final, deterministic iteration; the
verifier recovers the point from the public (x, sign) pair itself.
"""

from __future__ import annotations

from blsces import bls
from blsces.credential import CEAS, Claim, encode_claim_message
from blsces.errors import ValidationError
from blsces.groups.params import BN254, CurveProfile


def hash_to_curve_witness(
    i: int,
    claim: Claim,
    n: int,
    ceas: CEAS,
    profile: CurveProfile = BN254,
) -> bls.HashToG1Result:
    """Run the full try-and-increment search for claim i's message: the
    public part is the result's (x, sign_bit), and its counter is the
    secret byte the statement appends to the message.

    Raises HashToCurveFailure on counter exhaustion and ValidationError
    for hidden claims, mirroring the signing path exactly.
    """
    if claim.hidden:
        raise ValidationError("cannot build a hash witness for a hidden claim")
    return bls.hash_to_g1(encode_claim_message(ceas, n, i, claim), profile)
