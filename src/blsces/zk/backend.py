"""The transparent prover backend.

A succinct proof system is explicitly out of scope; the "proof" here is
the full witness assignment plus the statement layout.  Verify pins the
public variables to the supplied public inputs, then synthesizes the
statement the layout describes with a checking builder over the
assignment.  That builder evaluates each linear constraint as it is
emitted, takes each bit decomposition and each sha256 compression
whole against the values' bit classes, and keeps no constraint.  It
offers no hiding against the verifier and no succinctness; it exists
so the statement logic is testable end to end.

A proof is ``header JSON \n classes \n wide``.  ``classes`` holds one
ASCII byte per witness value, its bit class (see ``r1cs.BIT_CLASS``):
``0`` or ``1`` for a bit and ``2`` for any other value.  That is the
view the checking builder compares whole blocks against.  ``prove``
writes the view the prover's builder kept beside the values (or
``bit_view`` of a plain list of values), and ``parse`` hands the bytes
on unchanged.
``wide`` holds each class-``2`` value, in order, as a 32-byte
big-endian word.  A wide value below 2, or at or above the field
modulus R, is refused, so each witness has one encoding.  Every value
the checker reads is then below R, under which its whole-block
comparison is the per-bit check (see ``r1cs``): a mismatched block is
refused as ``constraints_unsatisfied`` with a detail naming the claim,
the block and the first variable that differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from blsces.errors import (
    ConstraintViolation,
    EncodingError,
    ProofTooLargeError,
    StatementError,
    WitnessShapeError,
)
from blsces.groups.params import R
from blsces.zk.r1cs import Assignment, CheckingBuilder, bit_view
from blsces.zk.statement import PublicInputs, StatementLayout, SynthesisResult, public_assignment, synthesize

_WIDE_BYTES = 32
_WIDE = ord("2")
_CLASS_VALUE = bytes.maketrans(b"012", bytes(range(3)))  # '2' holds a place for its wide value

# Most values parse() builds, about 70 one-claim witnesses: the classes
# come from outside, so a longer witness is refused before any list of
# its values is built.
MAX_WITNESS_VALUES = 1 << 21

# Most bytes of a header parse() hands to json.loads.  The widest honest
# one lists a policy at its caps, 256 subsets at width 1,024, in 65,552
# hex digits (65,757 bytes with one claim).  Even 1,024 extracted claims,
# each with three 10-digit lengths, add under 85 KB to that, and the
# witness cap keeps an honest proof far below that many claims.
MAX_HEADER_BYTES = 1 << 18


def _witness(classes: bytes, wide: bytes) -> Assignment:
    """The values that class bytes and wide words encode, with the class
    bytes as their bit classes."""
    if classes.translate(None, b"012"):
        raise EncodingError("witness class byte outside 012")
    if len(wide) != _WIDE_BYTES * classes.count(_WIDE):
        raise EncodingError("wide words do not match the witness classes")
    wides = [int.from_bytes(wide[k: k + _WIDE_BYTES], "big") for k in range(0, len(wide), _WIDE_BYTES)]
    if wides and min(wides) < 2:
        raise EncodingError("a wide value below 2 is a bit")
    if wides and max(wides) >= R:
        raise EncodingError("a wide value at or above the field modulus")
    values = Assignment(classes.translate(_CLASS_VALUE), classes)
    k = -1
    for v in wides:
        k = classes.index(_WIDE, k + 1)
        # Assignment refuses changes once built; its builder may still fill it
        list.__setitem__(values, k, v)
    return values


@dataclass(frozen=True)
class Proof:
    """Backend-defined opaque proof bytes."""

    data: bytes


@dataclass(frozen=True)
class BackendParams:
    """Setup output.  The transparent backend needs none."""

    backend: str = "transparent"


@dataclass(frozen=True)
class BackendVerdict:
    ok: bool
    code: str = "ok"
    # where an unsatisfied witness failed: claim, region and constraint
    detail: str = ""
    # the predicate descriptor the proof's layout names; None when the
    # proof did not parse
    predicate: dict | None = None

    def __bool__(self):
        return self.ok


class TransparentBackend:
    name = "transparent"

    def prove(self, params: BackendParams, statement: SynthesisResult) -> Proof:
        if statement.values is None:
            raise StatementError("cannot prove a synthesis without a witness")
        header = json.dumps(
            {"backend": self.name, "layout": statement.layout.to_json()},
            separators=(",", ":"),
            sort_keys=True,
        ).encode()
        values = statement.values
        # the prover's builder kept the classes beside the values
        classes = values.bits if isinstance(values, Assignment) else bit_view(values)
        wide = []
        k = classes.find(_WIDE)
        while k >= 0:
            # a negative value, or one of 2^256 or more, raises OverflowError
            wide.append(values[k].to_bytes(_WIDE_BYTES, "big"))
            k = classes.find(_WIDE, k + 1)
        return Proof(b"\n".join((header, classes, b"".join(wide))))

    def parse(self, proof: Proof) -> tuple[StatementLayout, Assignment]:
        data = proof.data
        # measure the header and the classes by their separators before
        # copying or parsing either
        first = data.find(b"\n")
        if first > MAX_HEADER_BYTES:
            raise ProofTooLargeError(f"header of more than {MAX_HEADER_BYTES} bytes")
        second = data.find(b"\n", first + 1) if first >= 0 else -1
        if second < 0:
            raise EncodingError("malformed proof: missing separator")
        if second - first - 1 > MAX_WITNESS_VALUES:
            raise ProofTooLargeError(f"witness of more than {MAX_WITNESS_VALUES} values")
        header, classes, wide = data[:first], data[first + 1: second], data[second + 1:]
        try:
            meta = json.loads(header)
            if meta.get("backend") != self.name:
                raise EncodingError("proof built for a different backend")
            layout = StatementLayout.from_json(meta["layout"])
        except EncodingError:
            raise
        except Exception as exc:
            raise EncodingError(f"malformed proof: {exc}") from exc
        return layout, _witness(classes, wide)

    def verify(
        self, params: BackendParams, proof: Proof, inputs: PublicInputs, profile: str | None = None
    ) -> BackendVerdict:
        """Check the proof for the public inputs; with ``profile``, accept
        only a statement over that curve profile."""
        try:
            layout, values = self.parse(proof)
        except ProofTooLargeError:
            return BackendVerdict(False, "proof_too_large")
        except EncodingError:
            return BackendVerdict(False, "malformed_proof")
        verdict = partial(BackendVerdict, predicate=layout.predicate)
        if profile is not None and layout.profile_name != profile:
            return verdict(False, "profile_rejected")
        if not values or values[0] != 1:
            return verdict(False, "witness_shape_mismatch")
        try:
            expected_public = public_assignment(layout, inputs)
            if len(values) <= len(expected_public):
                return verdict(False, "witness_shape_mismatch")
            # a tampered (x, sign) is refused before any synthesis
            if values[1: 1 + len(expected_public)] != expected_public:
                return verdict(False, "public_inputs_mismatch")
            checked = synthesize(layout, CheckingBuilder(values)).cs
        except WitnessShapeError:
            return verdict(False, "witness_shape_mismatch")
        except ConstraintViolation as exc:
            return verdict(False, "constraints_unsatisfied", str(exc))
        except (StatementError, EncodingError):
            return verdict(False, "statement_rebuild_failed")
        if checked.num_vars != len(values) or checked.num_public != len(expected_public):
            return verdict(False, "witness_shape_mismatch")
        return verdict(True)


TRANSPARENT_BACKEND = TransparentBackend()
