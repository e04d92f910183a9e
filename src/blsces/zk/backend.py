"""The transparent prover backend.

A succinct proof system is explicitly out of scope; the "proof" here is
the full witness assignment plus the statement layout.  Verify pins the
public variables to the supplied public inputs, then synthesizes the
statement the layout describes with a checking builder over the
assignment, which evaluates each constraint as it is emitted and keeps
none.  It offers no hiding against the verifier and no succinctness; it
exists so the statement logic is testable end to end.

The witness travels as one zlib stream of 32-byte big-endian values.
Nearly every value is a bit, so both directions work on whole buffers:
``prove`` writes the low bytes of a window of values with one slice
assignment and calls ``to_bytes`` only in a window that holds a value
above 255; ``parse`` reads every low byte with one slice, then finds
the values with a nonzero high byte with ``translate`` and ``find``,
window by window so the scan never copies the whole witness, and
decodes only those with ``int.from_bytes``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

from blsces.errors import (
    ConstraintViolation,
    EncodingError,
    ProofTooLargeError,
    StatementError,
    WitnessShapeError,
)
from blsces.zk.r1cs import CheckingBuilder
from blsces.zk.statement import PublicInputs, StatementLayout, SynthesisResult, public_assignment, synthesize

_VALUE_BYTES = 32

# Largest witness parse() inflates, about 70 one-claim witnesses.  The
# compressed blob comes from outside, and zlib inflates zeros about
# 1000-fold, so a larger witness is refused before it is allocated.
MAX_WITNESS_BYTES = 64 << 20
_INFLATE_CHUNK = 1 << 16
# Values packed per slice assignment, and witness bytes scanned per copy.
_PACK_WINDOW = 1 << 12
_SCAN_WINDOW = 1 << 14  # a multiple of _VALUE_BYTES
_NONZERO = bytes(1) + bytes([1]) * 255  # translate table: any nonzero byte to 1


def _inflate(blob: bytes) -> bytearray:
    """Inflate one zlib stream of at most MAX_WITNESS_BYTES, ignoring
    trailing bytes.  Output is appended in chunks to one buffer, so a
    refused stream never holds much more than the cap."""
    inflater = zlib.decompressobj()
    packed = bytearray()
    tail = blob
    while True:
        room = MAX_WITNESS_BYTES + 1 - len(packed)
        chunk = inflater.decompress(tail, min(_INFLATE_CHUNK, room))
        packed += chunk
        if len(packed) > MAX_WITNESS_BYTES:
            raise ProofTooLargeError(f"witness inflates past {MAX_WITNESS_BYTES} bytes")
        if inflater.eof:
            return packed
        tail = inflater.unconsumed_tail
        if not chunk and not tail:
            raise EncodingError("truncated witness stream")


def _pack(values: list[int]) -> bytearray:
    """The values as 32-byte big-endian words; a negative value or one of
    2^256 or more raises OverflowError."""
    buf = bytearray(_VALUE_BYTES * len(values))
    for start in range(0, len(values), _PACK_WINDOW):
        window = values[start: start + _PACK_WINDOW]
        try:
            buf[_VALUE_BYTES * start + _VALUE_BYTES - 1: _VALUE_BYTES * (start + len(window)): _VALUE_BYTES] = window
        except ValueError:  # a value outside 0..255
            for k, v in enumerate(window, start):
                if 0 <= v < 256:
                    buf[_VALUE_BYTES * k + _VALUE_BYTES - 1] = v
                else:
                    buf[_VALUE_BYTES * k: _VALUE_BYTES * (k + 1)] = v.to_bytes(_VALUE_BYTES, "big")
    return buf


def _unpack(packed: bytearray) -> list[int]:
    """The values of whole 32-byte big-endian words."""
    with memoryview(packed) as view:
        values = view[_VALUE_BYTES - 1:: _VALUE_BYTES].tolist()
    for start in range(0, len(packed), _SCAN_WINDOW):
        flags = packed[start: start + _SCAN_WINDOW].translate(_NONZERO)
        flags[_VALUE_BYTES - 1:: _VALUE_BYTES] = bytes(len(flags) // _VALUE_BYTES)
        pos = flags.find(1)
        while pos >= 0:
            k = (start + pos) // _VALUE_BYTES
            values[k] = int.from_bytes(packed[_VALUE_BYTES * k: _VALUE_BYTES * (k + 1)], "big")
            pos = flags.find(1, _VALUE_BYTES * (k + 1) - start)
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
        return Proof(header + b"\n" + zlib.compress(_pack(statement.values), 6))

    def parse(self, proof: Proof) -> tuple[StatementLayout, list[int]]:
        try:
            header, blob = proof.data.split(b"\n", 1)
            meta = json.loads(header)
            if meta.get("backend") != self.name:
                raise EncodingError("proof built for a different backend")
            layout = StatementLayout.from_json(meta["layout"])
            packed = _inflate(blob)
        except EncodingError:
            raise
        except Exception as exc:
            raise EncodingError(f"malformed proof: {exc}") from exc
        if len(packed) % _VALUE_BYTES:
            raise EncodingError("witness blob length not a multiple of the value size")
        return layout, _unpack(packed)

    def verify(self, params: BackendParams, proof: Proof, inputs: PublicInputs) -> BackendVerdict:
        try:
            layout, values = self.parse(proof)
        except ProofTooLargeError:
            return BackendVerdict(False, "proof_too_large")
        except EncodingError:
            return BackendVerdict(False, "malformed_proof")
        if not values or values[0] != 1:
            return BackendVerdict(False, "witness_shape_mismatch")
        try:
            expected_public = public_assignment(layout, inputs)
            if len(values) <= len(expected_public):
                return BackendVerdict(False, "witness_shape_mismatch")
            # a tampered (x, sign) is refused before any synthesis
            if values[1: 1 + len(expected_public)] != expected_public:
                return BackendVerdict(False, "public_inputs_mismatch")
            checked = synthesize(layout, CheckingBuilder(values)).cs
        except WitnessShapeError:
            return BackendVerdict(False, "witness_shape_mismatch")
        except ConstraintViolation as exc:
            return BackendVerdict(False, "constraints_unsatisfied", str(exc))
        except (StatementError, EncodingError):
            return BackendVerdict(False, "statement_rebuild_failed")
        if checked.num_vars != len(values) or checked.num_public != len(expected_public):
            return BackendVerdict(False, "witness_shape_mismatch")
        return BackendVerdict(True)


TRANSPARENT_BACKEND = TransparentBackend()
