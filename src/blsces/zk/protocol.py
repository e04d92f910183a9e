"""Proving and verifying extractions without revealing claims.

The holder proves, inside the constraint system, that hash-to-curve was
evaluated correctly over the (secret) encoded claim messages and that
the application predicate holds; the verifier decompresses the
resulting points from the public (x, sign) pairs and performs the
aggregate pairing check itself, outside the proof.  Verification is the
conjunction of three independently reported checks:

  b1  the disclosed index set is allowed by the policy,
  b2  the pairing equation binds the extracted signature to the
      decompressed points under the issuer key,
  b3  the backend accepts the proof for the public inputs,

and, when the verifier names the predicate it expects, a fourth: the
proof's layout proves exactly that predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from blsces import bls
from blsces.credential import CEAS, Credential, ExtractionSet, ceas_contains
from blsces.errors import EncodingError, InvalidPublicKeyError, OffCurveError, ValidationError
from blsces.groups import G1Point, G2Point, decompress_x
from blsces.groups.params import BN254
from blsces.zk.backend import BackendParams, Proof, TRANSPARENT_BACKEND
from blsces.zk import statement
from blsces.zk.r1cs import Builder
# build_statement, which records the constraints prove_extraction only
# counts, stays importable here: perfbench/tracing.py binds it by name.
from blsces.zk.statement import PublicInputs, build_statement  # noqa: F401
from blsces.zk.witness import hash_to_curve_witness


@dataclass(frozen=True)
class ZkSetup:
    keypair: bls.KeyPair
    backend_params: BackendParams


@dataclass(frozen=True)
class ZkVerifyResult:
    accept: bool
    policy_ok: bool
    pairing_ok: bool
    proof_ok: bool
    code: str = "ok"
    # where the backend found the witness unsatisfied, as BackendVerdict.detail
    detail: str = ""
    # the predicate the proof's layout names, as BackendVerdict.predicate
    predicate: dict | None = None

    def __bool__(self):
        return self.accept


def zk_setup(rng=None) -> ZkSetup:
    """Issuer keypair plus the (empty) transparent-backend parameters."""
    return ZkSetup(keypair=bls.keygen(rng), backend_params=BackendParams())


def prove_extraction(
    backend_params: BackendParams,
    cred: Credential,
    ceas: CEAS,
    x: ExtractionSet,
    predicate=None,
) -> tuple[Proof, PublicInputs]:
    """Generate hash witnesses for every disclosed claim and prove the
    statement.  Requires x to be allowed by the policy and the claims at
    x to be visible."""
    if not ceas_contains(ceas, x):
        raise ValidationError("extraction set is not allowed by the policy")
    idxs = tuple(x.sorted())
    witnesses = {}
    publics_x = []
    publics_sign = []
    for i in idxs:
        (xi, sign), wit = hash_to_curve_witness(i, cred[i], len(cred), ceas)
        witnesses[i] = wit
        publics_x.append(xi)
        publics_sign.append(sign)
    inputs = PublicInputs(
        x_coords=tuple(publics_x),
        sign_bits=tuple(publics_sign),
        ceas_bytes=ceas.to_bytes(),
        extraction=idxs,
    )
    layout, witness = statement.prover_layout(cred, ceas, witnesses, idxs, predicate)
    # through the module, so perfbench/tracing.py's wrapper on
    # statement.synthesize sees the prover's synthesis too
    proof = TRANSPARENT_BACKEND.prove(backend_params, statement.synthesize(layout, Builder(), witness))
    return proof, inputs


def zk_verify(
    backend_params: BackendParams,
    pk: G2Point,
    ext_sig: bls.Signature,
    proof: Proof,
    inputs: PublicInputs,
    predicate=None,
) -> ZkVerifyResult:
    """Check policy membership, the pairing equation over decompressed
    points, and the backend proof; accept only if all three hold.

    With ``predicate``, also accept only a proof whose layout proves
    exactly that predicate (``predicate_rejected`` otherwise): a proof of
    no predicate, or of other bounds, is then refused.
    """
    # b1: the disclosed index set is allowed by the policy the verifier
    # was handed.  b3 binds that policy to the one the messages were
    # encoded under; the statement does not prove membership, so b1 is
    # the only check that the policy allows the extraction.
    try:
        ceas = CEAS.from_bytes(inputs.ceas_bytes)
        x = ExtractionSet(frozenset(inputs.extraction))
        b1 = ceas_contains(ceas, x)
    except (EncodingError, ValidationError):
        b1 = False

    # b2: decompress each point from its public (x, sign) pair and run
    # the aggregate pairing equation.
    b2 = False
    b2_code = "pairing_failed"
    points = None
    try:
        points = [
            G1Point(*decompress_x(xi, sign))
            for xi, sign in zip(inputs.x_coords, inputs.sign_bits)
        ]
    except EncodingError:
        b2_code = "decompress_failed"
    if points is not None:
        # the decompressed points are on the curve, so a failed point
        # check is the key's
        try:
            b2 = bls.verify_aggregate_points([pk] * len(points), points, ext_sig)
        except (InvalidPublicKeyError, OffCurveError):
            b2_code = "invalid_public_key"
        except EncodingError:
            b2_code = "malformed_signature"
        except ValidationError:
            b2_code = "malformed_inputs"

    # b3: backend proof verification, of a statement over BN254: a toy
    # profile would bind only a few bits of x.
    verdict = TRANSPARENT_BACKEND.verify(backend_params, proof, inputs, profile=BN254.name)
    b3 = bool(verdict)
    # the predicate the verifier asks for is the one the proof proves
    b4 = predicate is None or verdict.predicate == predicate.describe()

    accept = b1 and b2 and b3 and b4
    if accept:
        code = "ok"
    elif not b1:
        code = "policy_rejected"
    elif not b2:
        code = b2_code
    elif not b3:
        code = f"proof_rejected:{verdict.code}"
    else:
        code = "predicate_rejected"
    return ZkVerifyResult(
        accept=accept,
        policy_ok=b1,
        pairing_ok=b2,
        proof_ok=b3,
        code=code,
        detail=verdict.detail,
        predicate=verdict.predicate,
    )
