"""Constraint-system proof path for hash-to-curve and claim predicates."""

from blsces.zk.backend import (
    BackendParams,
    BackendVerdict,
    Proof,
    TRANSPARENT_BACKEND,
    TransparentBackend,
)
from blsces.zk.predicates import EqualsPredicate, RangePredicate, predicate_from_descriptor
from blsces.zk.protocol import ZkSetup, ZkVerifyResult, prove_extraction, zk_setup, zk_verify
from blsces.zk.r1cs import Builder, CheckingBuilder, ConstraintSystem, RecordingBuilder
from blsces.zk.statement import (
    PublicInputs,
    StatementLayout,
    SynthesisResult,
    build_statement,
    prover_layout,
    synthesize,
)
from blsces.zk.witness import HashToCurveWitness, hash_to_curve_witness

__all__ = [
    "BackendParams",
    "BackendVerdict",
    "Builder",
    "CheckingBuilder",
    "ConstraintSystem",
    "EqualsPredicate",
    "HashToCurveWitness",
    "Proof",
    "PublicInputs",
    "RangePredicate",
    "RecordingBuilder",
    "StatementLayout",
    "SynthesisResult",
    "TRANSPARENT_BACKEND",
    "TransparentBackend",
    "ZkSetup",
    "ZkVerifyResult",
    "build_statement",
    "hash_to_curve_witness",
    "predicate_from_descriptor",
    "prove_extraction",
    "prover_layout",
    "synthesize",
    "zk_setup",
    "zk_verify",
]
