"""Building the provable statement for a disclosed-claim set.

For every claim index in the extraction set the statement enforces, over
one shared constraint system:

  (a) the final sha256 compression(s) of the encoded claim message with
      its counter byte, tying the public (x, sign) pair to the digest
      bits.  Long messages are pre-hashed outside the system; the
      carried-in state is a public input, and the in-circuit suffix
      always covers the bytes from the counter's block to the end of
      the padding (one block, or two when the padding spills over).
  (b) an optional application predicate over claim-value bytes.

Facts the verifier checks itself are not proved again: it decompresses
each point from its public (x, sign) pair, which rejects an x off the
curve, and it checks the extraction set against the policy, which
``public_assignment`` pins to the layout's.

The layout records everything a verifier needs to synthesize the
identical statement over a transported assignment: claim component
lengths, pre-hash states, and the predicate description.  Message bytes that are publicly known (policy bytes,
lengths, indices, padding) enter the circuit as constants rather than
witness variables, so they cannot be substituted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from blsces.credential import CEAS, Claim, encode_claim_message
from blsces.errors import StatementError, ValidationError
from blsces.groups.params import PROFILES
from blsces.zk.predicates import predicate_from_descriptor
from blsces.zk.r1cs import LC, Builder, ConstraintSystem, RecordingBuilder
from blsces.zk.sha256_gadget import (
    ONE,
    SHA256_IV,
    ZERO,
    const_word,
    lit_lc,
    sha256_compress,
    sha256_compress_gadget,
    sha256_pad,
)
from blsces.zk.witness import HashToCurveWitness

SHA_BITS = 256
# The public x enters as little-endian limbs, each below the proof field.
LIMB_BITS = 64
NUM_LIMBS = 4


@dataclass(frozen=True)
class PublicInputs:
    """Protocol-level public inputs: per-claim (x, sign) pairs in
    ascending index order, the canonical policy bytes, and the
    extraction set."""

    x_coords: tuple[int, ...]
    sign_bits: tuple[int, ...]
    ceas_bytes: bytes
    extraction: tuple[int, ...]

    def __post_init__(self):
        if len(self.x_coords) != len(self.extraction) or len(self.sign_bits) != len(self.extraction):
            raise ValidationError("one (x, sign) pair per extracted index required")
        if tuple(sorted(set(self.extraction))) != tuple(self.extraction):
            raise ValidationError("extraction indices must be sorted and distinct")


@dataclass(frozen=True)
class ClaimLayout:
    index: int
    len_subject: int
    len_property: int
    len_value: int
    # sha state entering the in-circuit suffix; None when the whole
    # padded message is in-circuit (suffix starts at the IV).
    prehash_state: tuple[int, ...] | None
    msg_len: int
    padded_len: int

    @property
    def first_block(self) -> int:
        """Index of the first in-circuit block: the counter's block."""
        return (self.msg_len - 1) // 64

    @property
    def total_blocks(self) -> int:
        return self.padded_len // 64


@dataclass(frozen=True)
class StatementLayout:
    profile_name: str
    ceas_bytes: bytes
    n: int
    extraction: tuple[int, ...]
    claims: tuple[ClaimLayout, ...]
    predicate: dict | None

    def to_json(self) -> dict:
        return {
            "profile": self.profile_name,
            "ceas": self.ceas_bytes.hex(),
            "n": self.n,
            "extraction": list(self.extraction),
            "claims": [
                {
                    "index": c.index,
                    "len_subject": c.len_subject,
                    "len_property": c.len_property,
                    "len_value": c.len_value,
                    "prehash_state": list(c.prehash_state) if c.prehash_state else None,
                    "msg_len": c.msg_len,
                    "padded_len": c.padded_len,
                }
                for c in self.claims
            ],
            "predicate": self.predicate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "StatementLayout":
        return cls(
            profile_name=data["profile"],
            ceas_bytes=bytes.fromhex(data["ceas"]),
            n=int(data["n"]),
            extraction=tuple(int(i) for i in data["extraction"]),
            claims=tuple(
                ClaimLayout(
                    index=int(c["index"]),
                    len_subject=int(c["len_subject"]),
                    len_property=int(c["len_property"]),
                    len_value=int(c["len_value"]),
                    prehash_state=tuple(c["prehash_state"]) if c["prehash_state"] else None,
                    msg_len=int(c["msg_len"]),
                    padded_len=int(c["padded_len"]),
                )
                for c in data["claims"]
            ),
            predicate=data.get("predicate"),
        )


def _component_lengths(claim: Claim) -> tuple[int, int, int]:
    return (
        len(claim.subject.encode("utf-8")),
        len(claim.property.encode("utf-8")),
        len(claim.value.encode("utf-8")),
    )


def _skeleton(ceas_bytes: bytes, n: int, i: int, lens: tuple[int, int, int]):
    """The in-circuit suffix of a claim message with its counter byte and
    padding, built from public data only with secret bytes zeroed.

    The message follows ``encode_claim_message``: the length-prefixed
    policy bytes, n and i as 4-byte integers, then subject, property
    and value, each after its 4-byte length.  Returns the message length
    with the counter, the suffix ``[64 * first_block, padded_len)`` and
    the secret spans (start, length, kind) clipped to it, at message
    offsets.  Nothing before the suffix is built, so a declared length
    costs no memory."""
    try:
        segments = [(struct.pack(">I", len(ceas_bytes)) + ceas_bytes + struct.pack(">II", n, i), None)]
        for length, kind in zip(lens, ("subject", "property", "value")):
            segments += [(struct.pack(">I", length), None), (length, kind)]
    except struct.error as exc:
        raise StatementError(f"claim lengths do not fit the encoding: {exc}") from exc
    segments.append((1, "counter"))
    msg_len = sum(seg if kind else len(seg) for seg, kind in segments)
    segments.append((sha256_pad(msg_len), None))
    start = 64 * ((msg_len - 1) // 64)
    suffix = bytearray()
    spans = []
    pos = 0
    for seg, kind in segments:
        size = seg if kind else len(seg)
        lo, hi = max(pos, start), pos + size
        if lo < hi:
            if kind:
                spans.append((lo, hi - lo, kind))
                suffix += bytes(hi - lo)
            else:
                suffix += seg[lo - pos:]
        pos += size
    return msg_len, bytes(suffix), spans


def build_claim_layout(ceas: CEAS, n: int, i: int, claim: Claim) -> ClaimLayout:
    """Shape and pre-hash data for one visible claim (prover side)."""
    lens = _component_lengths(claim)
    base = encode_claim_message(ceas, n, i, claim)
    msg_len = len(base) + 1
    padded_len = msg_len + len(sha256_pad(msg_len))
    first_block = (msg_len - 1) // 64
    state = None
    if first_block > 0:
        st = list(SHA256_IV)
        for k in range(first_block):
            st = sha256_compress(st, base[64 * k: 64 * (k + 1)])
        state = tuple(st)
    return ClaimLayout(
        index=i,
        len_subject=lens[0],
        len_property=lens[1],
        len_value=lens[2],
        prehash_state=state,
        msg_len=msg_len,
        padded_len=padded_len,
    )


@dataclass
class SynthesisResult:
    cs: ConstraintSystem
    values: list | None
    layout: StatementLayout


def public_assignment(layout: StatementLayout, inputs: PublicInputs) -> list[int]:
    """Expected values of the public variables (1..num_public) in the
    canonical order used by ``synthesize``: per claim x limbs, sign, and
    pre-hash state words."""
    if inputs.extraction != layout.extraction:
        raise StatementError("extraction set differs between layout and public inputs")
    if inputs.ceas_bytes != layout.ceas_bytes:
        raise StatementError("policy differs between layout and public inputs")
    out: list[int] = []
    mask = (1 << LIMB_BITS) - 1
    for k, cl in enumerate(layout.claims):
        x = inputs.x_coords[k]
        if x < 0 or x.bit_length() > 256:
            raise StatementError("public x out of range")
        out.extend((x >> (LIMB_BITS * j)) & mask for j in range(NUM_LIMBS))
        sign = inputs.sign_bits[k]
        if sign not in (0, 1):
            raise StatementError("sign bit must be 0 or 1")
        out.append(sign)
        if cl.prehash_state is not None:
            out.extend(cl.prehash_state)
    return out


def synthesize(
    layout: StatementLayout,
    bd: Builder,
    witness: dict[int, tuple[Claim, HashToCurveWitness]] | None = None,
) -> SynthesisResult:
    """Synthesize the statement a layout describes through a fresh
    builder ``bd``:

    * a computing ``Builder`` or ``RecordingBuilder`` needs ``witness``
      (claim and hash witness per extracted index) and computes the
      assignment; only the recording one stores the constraints;
    * a ``CheckingBuilder``, handed a transported assignment, takes no
      witness and checks each constraint as it is emitted.  It raises
      ``ConstraintViolation`` at the first failure, naming its claim
      and region, and ``WitnessShapeError`` if the assignment runs out.

    The constraints depend only on the layout, so every kind emits the
    same ones."""
    compute = bd.compute
    if compute != (witness is not None):
        raise StatementError("a computing builder needs a witness and a checking builder none")
    profile = PROFILES.get(layout.profile_name)
    if profile is None:
        raise StatementError(f"unknown curve profile {layout.profile_name!r}")
    ceas = CEAS.from_bytes(layout.ceas_bytes)
    if ceas.n != layout.n:
        raise StatementError("layout width disagrees with its policy bytes")
    if not layout.extraction or tuple(sorted(set(layout.extraction))) != layout.extraction:
        raise StatementError("layout extraction set not canonical")
    if any(not 0 <= i < layout.n for i in layout.extraction):
        raise StatementError("layout extraction index out of range")
    if tuple(c.index for c in layout.claims) != layout.extraction:
        raise StatementError("one claim layout per extracted index required")
    predicate = predicate_from_descriptor(layout.predicate)
    if predicate is not None and predicate.claim_index not in layout.extraction:
        raise StatementError("predicate targets an undisclosed claim")

    l_bits = profile.x_bits
    shift = SHA_BITS - l_bits
    mask = (1 << LIMB_BITS) - 1

    # ---- public inputs, canonical order ---------------------------------
    per_claim_pub = []
    for cl in layout.claims:
        wit = None
        if compute:
            if cl.index not in witness:
                raise StatementError(f"missing witness for claim {cl.index}")
            wit = witness[cl.index][1]
        limbs = tuple(
            bd.alloc_public((wit.x >> (LIMB_BITS * j)) & mask if wit else None)
            for j in range(NUM_LIMBS)
        )
        sign = bd.alloc_public(wit.sign_bit if wit else None)
        states = None
        if cl.prehash_state is not None:
            states = tuple(bd.alloc_public(v if compute else None) for v in cl.prehash_state)
        per_claim_pub.append((limbs, sign, states))

    # ---- per-claim hash constraints ----------------------------------------
    value_lcs_by_index: dict[int, list[LC]] = {}
    for cl, (limbs, sign, states) in zip(layout.claims, per_claim_pub):
        lens = (cl.len_subject, cl.len_property, cl.len_value)
        msg_len, suffix, spans = _skeleton(layout.ceas_bytes, layout.n, cl.index, lens)
        suffix_start = 64 * cl.first_block
        if msg_len != cl.msg_len or suffix_start + len(suffix) != cl.padded_len:
            raise StatementError("layout lengths disagree with the encoding")

        real_msg = None
        if compute:
            claim_obj, wit = witness[cl.index]
            if claim_obj.hidden:
                raise StatementError("witness claim is hidden")
            if _component_lengths(claim_obj) != lens:
                raise StatementError("claim component lengths disagree with the layout")
            real_msg = (
                encode_claim_message(ceas, layout.n, cl.index, claim_obj)
                + bytes([wit.counter])
                + sha256_pad(cl.msg_len)
            )
            assert len(real_msg) == cl.padded_len

        secret_kind = {}
        for start, length, kind in spans:
            for off in range(start, start + length):
                secret_kind[off] = kind

        # per-byte little-endian bit literals over the in-circuit suffix
        byte_bits: dict[int, list[int]] = {}
        value_bytes: list[LC] = []
        for off in range(suffix_start, cl.padded_len):
            if off % 64 == 0:
                bd.region = f"claim {cl.index}, sha256 block {off // 64}"
            kind = secret_kind.get(off)
            if kind is None:
                byte_bits[off] = [ONE if (suffix[off - suffix_start] >> j) & 1 else ZERO for j in range(8)]
            else:
                bits = bd.bits_of(real_msg[off] if compute else None, 8)
                byte_bits[off] = bits
                if kind == "value":
                    value_bytes.append(tuple((b, 1 << j) for j, b in enumerate(bits)))
        value_lcs_by_index[cl.index] = value_bytes

        # initial state words
        bd.region = f"claim {cl.index}, sha256 block {cl.first_block}"
        if states is None:
            state_words = [const_word(v) for v in SHA256_IV]
        else:
            state_words = []
            for sv in states:
                sbits = bd.bits_of(bd.values[sv] if compute else None, 32)
                bd.add_lin(((sv, -1),) + tuple((b, 1 << j) for j, b in enumerate(sbits)))
                state_words.append(sbits)

        # suffix compressions; a word's big-endian bytes, little-endian bits
        for blk in range(cl.first_block, cl.total_blocks):
            bd.region = f"claim {cl.index}, sha256 block {blk}"
            block_words = [
                [b for bpos in (3, 2, 1, 0) for b in byte_bits[64 * blk + 4 * t + bpos]]
                for t in range(16)
            ]
            state_words = sha256_compress_gadget(bd, state_words, block_words)

        # digest bit t (little-endian over the 256-bit big-endian digest)
        def digest_bit(t: int) -> int:
            return state_words[7 - t // 32][t % 32]

        # bind public x limbs and sign to the digest bits
        bd.region = f"claim {cl.index}, binding"
        for j in range(NUM_LIMBS):
            lc: LC = ((limbs[j], -1),)
            for m in range(LIMB_BITS * j, min(LIMB_BITS * (j + 1), l_bits)):
                lc += lit_lc(digest_bit(m + shift), 1 << (m - LIMB_BITS * j))
            bd.add_lin(lc)
        bd.add_lin(((sign, -1),) + lit_lc(digest_bit(shift - 1)))

    # ---- application predicate -------------------------------------------
    if predicate is not None:
        cl = layout.claims[layout.extraction.index(predicate.claim_index)]
        value_bytes = value_lcs_by_index[predicate.claim_index]
        if len(value_bytes) != cl.len_value:
            raise StatementError(
                "claim value is not fully inside the in-circuit suffix; "
                "predicates need the whole value in the final blocks"
            )
        bd.region = f"claim {cl.index}, predicate"
        predicate.synthesize(bd, value_bytes)

    return SynthesisResult(cs=bd.cs, values=bd.values if compute else None, layout=layout)


def prover_layout(
    cred,
    ceas: CEAS,
    witnesses: dict[int, HashToCurveWitness],
    extraction: tuple[int, ...] | list[int],
    predicate=None,
    profile_name: str = "bn254",
) -> tuple[StatementLayout, dict[int, tuple[Claim, HashToCurveWitness]]]:
    """The layout of a statement over prover-side data, and the witness
    ``synthesize`` takes for it.

    ``witnesses`` maps each extracted index to its hash witness; the
    credential supplies the claim bytes.
    """
    idxs = tuple(sorted(set(int(i) for i in extraction)))
    if not idxs:
        raise StatementError("empty extraction set")
    missing = [i for i in idxs if i not in witnesses]
    if missing:
        raise StatementError(f"missing witnesses for indices {missing}")
    claims = []
    for i in idxs:
        claim = cred[i]
        if claim.hidden:
            raise StatementError(f"claim {i} is hidden")
        claims.append(build_claim_layout(ceas, len(cred), i, claim))
    layout = StatementLayout(
        profile_name=profile_name,
        ceas_bytes=ceas.to_bytes(),
        n=len(cred),
        extraction=idxs,
        claims=tuple(claims),
        predicate=predicate.describe() if predicate is not None else None,
    )
    return layout, {i: (cred[i], witnesses[i]) for i in idxs}


def build_statement(
    cred,
    ceas: CEAS,
    witnesses: dict[int, HashToCurveWitness],
    extraction: tuple[int, ...] | list[int],
    predicate=None,
    profile_name: str = "bn254",
) -> SynthesisResult:
    """Layout, assignment and the stored constraint system from
    prover-side data (the arguments of ``prover_layout``)."""
    layout, witness = prover_layout(cred, ceas, witnesses, extraction, predicate, profile_name)
    return synthesize(layout, RecordingBuilder(), witness)
