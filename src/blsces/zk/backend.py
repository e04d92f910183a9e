"""The transparent prover backend.

A succinct proof system is explicitly out of scope; the "proof" here
reveals the secret claim bytes to the verifier, with the statement
layout.  It offers no hiding against the verifier and no succinctness;
it exists so the statement logic is testable end to end.

A proof is ``header JSON \n secret``.  The header names the statement
layout; ``secret`` holds each extracted claim's subject, property and
value bytes and its counter byte, claim after claim in layout order, so
its length follows from the layout (``StatementLayout.secret_length``).
Those bytes and the public inputs fix every value of the statement (see
``statement``), so ``prove`` synthesizes nothing: it writes the bytes.
``verify`` checks their count against the layout, then synthesizes the
statement with the verifier's ``Builder``, which regenerates from the
public inputs and the bytes every value a linear constraint reads,
takes each claim's digest from one ``hashlib`` call over the whole
message, runs no sha256 compression, not even over a public prefix,
and evaluates each linear constraint: the binding of x and sign to the
digest and the predicate's checks.  The first that fails is refused as
``constraints_unsatisfied``, with a detail naming the claim and the
region; that verdict is the recorded system's ``satisfied`` on the
witness the bytes regenerate.

On the zk-range benchmark's inputs (seed 61) a one-claim BN254 proof
with a range predicate is 242 bytes, a 229-byte header and 12 secret
bytes (309 bytes for two claims).  ``prove`` takes 0.07 ms once the
claims' hashes are cached, and ``verify`` about 0.17 ms (0.25 ms for
two claims), of which parsing is under 0.01 ms (the median over six
processes of the fastest of 300 verifies, process time, unscaled, 2
CPUs, Python 3.11.7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from blsces.errors import ConstraintViolation, EncodingError, ProofTooLargeError, StatementError
from blsces.zk.r1cs import Builder
from blsces.zk.statement import PublicInputs, StatementLayout, synthesize

# Most in-circuit sha256 blocks verify() accepts in one proof: it bounds
# the recorded system of a statement, about 30,000 constraints a block.
# The verifier takes none of them.  Its builder keeps a claim's 256
# digest bits and the value bits a predicate reads: one BN254 claim of
# 64 blocks verifies in about 0.2 ms under a 0.034 MB tracemalloc peak.
MAX_BLOCKS = 64

# Most bytes of a header parse() hands to json.loads.  The widest honest
# one lists a policy at its caps, 256 subsets at width 1,024, in 65,552
# hex digits (65,757 bytes with one claim).  Even 1,024 extracted claims,
# each with three 10-digit lengths, add under 85 KB to that, and the
# block cap keeps an honest proof far below that many claims.
MAX_HEADER_BYTES = 1 << 18


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
    # where the regenerated witness failed: claim, region and constraint
    detail: str = ""
    # the predicate descriptor the proof's layout names; None when the
    # proof did not parse
    predicate: dict | None = None

    def __bool__(self):
        return self.ok


class TransparentBackend:
    name = "transparent"

    def prove(self, params: BackendParams, layout: StatementLayout, secret: bytes) -> Proof:
        """The proof of the statement ``layout`` describes over the secret
        bytes ``synthesize`` takes for it."""
        if len(secret) != layout.secret_length:
            raise StatementError("secret bytes differ in length from the layout's claims")
        header = json.dumps(
            {"backend": self.name, "layout": layout.to_json()},
            separators=(",", ":"),
            sort_keys=True,
        ).encode()
        return Proof(header + b"\n" + secret)

    def parse(self, proof: Proof) -> tuple[StatementLayout, bytes]:
        """The layout a proof's header names and the secret bytes after it."""
        data = proof.data
        # measure the header by its separator before copying or parsing it
        first = data.find(b"\n")
        if first > MAX_HEADER_BYTES:
            raise ProofTooLargeError(f"header of more than {MAX_HEADER_BYTES} bytes")
        if first < 0:
            raise EncodingError("malformed proof: missing separator")
        try:
            meta = json.loads(data[:first])
            if meta.get("backend") != self.name:
                raise EncodingError("proof built for a different backend")
            layout = StatementLayout.from_json(meta["layout"])
        except EncodingError:
            raise
        except Exception as exc:
            raise EncodingError(f"malformed proof: {exc}") from exc
        return layout, data[first + 1:]

    def verify(
        self,
        params: BackendParams,
        proof: Proof,
        inputs: PublicInputs,
        profile: str | None = None,
        predicate: dict | None = None,
    ) -> BackendVerdict:
        """Check the proof for the public inputs.  With ``profile``, accept
        only a statement over that curve profile; with ``predicate``, a
        descriptor, only one proving exactly that predicate, refused as
        ``predicate_rejected`` as soon as the header parses."""
        try:
            layout, secret = self.parse(proof)
        except ProofTooLargeError:
            return BackendVerdict(False, "proof_too_large")
        except EncodingError:
            return BackendVerdict(False, "malformed_proof")
        verdict = partial(BackendVerdict, predicate=layout.predicate)
        if predicate is not None and layout.predicate != predicate:
            return verdict(False, "predicate_rejected")
        if profile is not None and layout.profile_name != profile:
            return verdict(False, "profile_rejected")
        try:
            claims = layout.claims
            if len(secret) != layout.secret_length:
                return verdict(False, "witness_shape_mismatch")
            if sum(cl.total_blocks - cl.first_block for cl in claims) > MAX_BLOCKS:
                return verdict(False, "proof_too_large")
            synthesize(layout, Builder(), inputs, secret)
        except ConstraintViolation as exc:
            return verdict(False, "constraints_unsatisfied", str(exc))
        except (StatementError, EncodingError):
            return verdict(False, "statement_rebuild_failed")
        return verdict(True)


TRANSPARENT_BACKEND = TransparentBackend()
