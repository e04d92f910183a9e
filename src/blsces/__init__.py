"""Selective-disclosure credentials from aggregatable BLS signatures.

A credential is an ordered list of subject-property-value claims.  The
issuer signs each claim individually under a signer-chosen extraction
policy; anyone holding the signed credential can blind claims and
aggregate the remaining signatures into a single short presentation
signature, which verifies against the issuer key alone.  A constraint
system layer can additionally prove that the hash-to-curve step was
evaluated correctly and that a predicate holds over claim values,
leaving only the pairing check to the verifier; its transparent proof
carries the disclosed claims' bytes, so it hides them from no one.
"""

from blsces.bls import (
    HashToG1Result,
    KeyPair,
    Signature,
    aggregate,
    hash_to_g1,
    keygen,
    sign,
    verify,
    verify_aggregate,
)
from blsces.ces import (
    ExtractedPresentation,
    SignedCredential,
    VerifyResult,
    ces_extract,
    ces_sign,
    ces_verify,
)
from blsces.credential import (
    BLINDED,
    CEAS,
    Claim,
    Credential,
    ExtractionSet,
    ceas_contains,
    clear_indices,
    encode_claim_message,
    is_sub_credential,
)

__version__ = "0.1.0"

__all__ = [
    "BLINDED",
    "CEAS",
    "Claim",
    "Credential",
    "ExtractedPresentation",
    "ExtractionSet",
    "HashToG1Result",
    "KeyPair",
    "Signature",
    "SignedCredential",
    "VerifyResult",
    "aggregate",
    "ceas_contains",
    "ces_extract",
    "ces_sign",
    "ces_verify",
    "clear_indices",
    "encode_claim_message",
    "hash_to_g1",
    "is_sub_credential",
    "keygen",
    "sign",
    "verify",
    "verify_aggregate",
]
