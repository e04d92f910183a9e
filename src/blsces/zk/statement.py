"""Building the provable statement for a disclosed-claim set.

For every claim index in the extraction set the statement enforces, over
one shared constraint system:

  (a) the sha256 compressions of the encoded claim message with its
      counter byte, from the block of its first secret byte to the end
      of the padding, tying the public (x, sign) pair to the digest
      bits.  The whole blocks before that block hold only public bytes
      (the length-prefixed policy, n, i and length prefixes); both
      sides hash them outside the system from the layout, and the
      resulting state enters as constants.
  (b) an optional application predicate over claim-value bytes.

Facts the verifier checks itself are not proved again: it decompresses
each point from its public (x, sign) pair, which rejects an x off the
curve, and it checks the extraction set against the policy, which
``public_assignment`` pins to the layout's.

The layout, which a proof carries as its header, records only what a
verifier cannot derive: the curve profile, the policy bytes, the
extraction set, each extracted claim's three component lengths, and the
predicate description.  The width n follows from the policy bytes, a
claim's index from the extraction, and its message length from the
policy's length and the component lengths (``StatementLayout.claims``).
Message bytes that are publicly known (policy bytes, lengths, indices,
padding) enter the circuit as constants rather than witness variables,
so they cannot be substituted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from blsces.credential import CEAS, Claim, encode_claim_message
from blsces.errors import EncodingError, StatementError, ValidationError, WitnessShapeError
from blsces.groups.params import PROFILES
from blsces.zk.predicates import predicate_from_descriptor
from blsces.zk.r1cs import LC, Builder, ConstraintSystem, RecordingBuilder
from blsces.zk.sha256 import SHA256_IV, sha256_compress, sha256_pad
from blsces.zk.sha256_gadget import ONE, ZERO, const_word, lit_lc, sha256_compress_gadget
from blsces.zk.witness import HashToCurveWitness

SHA_BITS = 256
# the little-endian bit literals of each public byte value
_BYTE_LITS = [tuple(ONE if byte >> j & 1 else ZERO for j in range(8)) for byte in range(256)]
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


def _first_block(msg_len: int, lens: tuple[int, int, int]) -> int:
    """Index of a claim message's first in-circuit block: the block of
    its first secret byte (subject, property, value or counter).  The
    components end just before the counter, the last byte."""
    pos = msg_len - 1 - sum(lens) - 8  # the subject, after its length
    for length in lens:
        if length:
            return pos // 64
        pos += length + 4
    return (msg_len - 1) // 64


@dataclass(frozen=True)
class ClaimLayout:
    """One extracted claim's shape: its index, its component lengths
    (subject, property, value) and its message length with the counter
    byte."""

    index: int
    lens: tuple[int, int, int]
    msg_len: int

    @property
    def first_block(self) -> int:
        return _first_block(self.msg_len, self.lens)

    @property
    def total_blocks(self) -> int:
        return (self.msg_len + len(sha256_pad(self.msg_len))) // 64


def build_claim_layout(ceas_bytes: bytes, i: int, lens: tuple[int, int, int]) -> ClaimLayout:
    """The shape of claim i's message under the policy ``ceas_bytes``, from
    public lengths alone: the policy after its 4-byte length, n and i as
    4 bytes each, the three components after their 4-byte lengths, and
    the counter byte."""
    return ClaimLayout(index=i, lens=lens, msg_len=4 + len(ceas_bytes) + 8 + 12 + sum(lens) + 1)


@dataclass(frozen=True)
class StatementLayout:
    profile_name: str
    ceas_bytes: bytes
    extraction: tuple[int, ...]
    # (subject, property, value) byte lengths, one triple per extracted index
    claim_lens: tuple[tuple[int, int, int], ...]
    predicate: dict | None

    @property
    def claims(self) -> tuple[ClaimLayout, ...]:
        """Each extracted claim's shape, paired with the extraction in
        order; ``synthesize`` refuses a layout whose counts differ."""
        return tuple(build_claim_layout(self.ceas_bytes, i, lens) for i, lens in zip(self.extraction, self.claim_lens))

    def to_json(self) -> dict:
        return {
            "profile": self.profile_name,
            "ceas": self.ceas_bytes.hex(),
            "extraction": list(self.extraction),
            "claims": [
                {"len_subject": ls, "len_property": lp, "len_value": lv} for ls, lp, lv in self.claim_lens
            ],
            "predicate": self.predicate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "StatementLayout":
        """The layout a proof header describes; a header of any other
        shape raises EncodingError.  Values are checked only when the
        statement is rebuilt from the layout."""
        try:
            return cls(
                profile_name=data["profile"],
                ceas_bytes=bytes.fromhex(data["ceas"]),
                extraction=tuple(int(i) for i in data["extraction"]),
                claim_lens=tuple(
                    (int(c["len_subject"]), int(c["len_property"]), int(c["len_value"])) for c in data["claims"]
                ),
                predicate=data.get("predicate"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EncodingError(f"malformed statement layout: {exc!r}") from exc


def _component_lengths(claim: Claim) -> tuple[int, int, int]:
    return (
        len(claim.subject.encode("utf-8")),
        len(claim.property.encode("utf-8")),
        len(claim.value.encode("utf-8")),
    )


def _skeleton(ceas_bytes: bytes, n: int, i: int, lens: tuple[int, int, int]):
    """The public shape of a claim message with its counter byte and
    padding, built from public data only.

    The message follows ``encode_claim_message``: the length-prefixed
    policy bytes, n and i as 4-byte integers, then subject, property
    and value, each after its 4-byte length.  Returns the prefix, the
    whole blocks before the block of the first secret byte, which hold
    only public bytes; and the rest of the message with its counter byte
    up to the end of the padding as segments (offset, data, kind):
    public bytes with kind None, or a secret component's length and its
    kind ("subject", "property", "value" or "counter").  No secret byte
    is built, so a declared length costs no memory."""
    try:
        parts = [(struct.pack(">I", len(ceas_bytes)) + ceas_bytes + struct.pack(">II", n, i), None)]
        for length, kind in zip(lens, ("subject", "property", "value")):
            parts += [(struct.pack(">I", length), None), (length, kind)]
    except struct.error as exc:
        raise StatementError(f"claim lengths do not fit the encoding: {exc}") from exc
    parts.append((1, "counter"))
    segments = []
    pos = 0
    for data, kind in parts:
        size = data if kind else len(data)
        if size:
            segments.append((pos, data, kind))
        pos += size
    segments.append((pos, sha256_pad(pos), None))
    # everything before the first secret byte is public and contiguous
    start = 64 * _first_block(pos, lens)
    head = b"".join(data for off, data, _ in segments if off < start)
    rest = [(start, head[start:], None)] if len(head) > start else []
    return head[:start], rest + [seg for seg in segments if seg[0] >= start]


@dataclass
class SynthesisResult:
    cs: ConstraintSystem
    values: list | None
    layout: StatementLayout


def public_assignment(layout: StatementLayout, inputs: PublicInputs) -> list[int]:
    """Expected values of the public variables (1..num_public) in the
    canonical order used by ``synthesize``: per claim x limbs and sign."""
    if inputs.extraction != layout.extraction:
        raise StatementError("extraction set differs between layout and public inputs")
    if inputs.ceas_bytes != layout.ceas_bytes:
        raise StatementError("policy differs between layout and public inputs")
    out: list[int] = []
    mask = (1 << LIMB_BITS) - 1
    for x, sign in zip(inputs.x_coords, inputs.sign_bits):
        if x < 0 or x.bit_length() > 256:
            raise StatementError("public x out of range")
        out.extend((x >> (LIMB_BITS * j)) & mask for j in range(NUM_LIMBS))
        if sign not in (0, 1):
            raise StatementError("sign bit must be 0 or 1")
        out.append(sign)
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
      witness and checks the constraints as they are emitted, each
      sha256 block whole.  It raises ``ConstraintViolation`` at the
      first failure, naming its claim and region, and
      ``WitnessShapeError`` if the assignment runs out.

    The constraints depend only on the layout, so every kind emits the
    same ones."""
    compute = bd.compute
    if compute != (witness is not None):
        raise StatementError("a computing builder needs a witness and a checking builder none")
    profile = PROFILES.get(layout.profile_name)
    if profile is None:
        raise StatementError(f"unknown curve profile {layout.profile_name!r}")
    ceas = CEAS.from_bytes(layout.ceas_bytes)
    if not layout.extraction or tuple(sorted(set(layout.extraction))) != layout.extraction:
        raise StatementError("layout extraction set not canonical")
    if any(not 0 <= i < ceas.n for i in layout.extraction):
        raise StatementError("layout extraction index out of range")
    if len(layout.claim_lens) != len(layout.extraction):
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
        per_claim_pub.append((limbs, sign))

    # ---- per-claim hash constraints ----------------------------------------
    # every claim message starts with the length-prefixed policy and n:
    # their whole blocks are hashed once for all claims
    head = struct.pack(">I", len(layout.ceas_bytes)) + layout.ceas_bytes + struct.pack(">I", ceas.n)
    shared_len = 64 * (len(head) // 64)
    shared_state = list(SHA256_IV)
    for k in range(0, shared_len, 64):
        shared_state = sha256_compress(shared_state, head[k: k + 64])
    value_lcs_by_index: dict[int, list[LC]] = {}
    for cl, (limbs, sign) in zip(layout.claims, per_claim_pub):
        prefix, segments = _skeleton(layout.ceas_bytes, ceas.n, cl.index, cl.lens)
        # each secret byte takes 8 variables: a checker refuses declared
        # lengths its assignment cannot hold before building anything
        secret_bits = 8 * sum(data for _, data, kind in segments if kind)
        if not compute and bd.num_vars + secret_bits > len(bd.values):
            raise WitnessShapeError("assignment ends before the claim's secret bytes")

        real_msg = None
        if compute:
            claim_obj, wit = witness[cl.index]
            if claim_obj.hidden:
                raise StatementError("witness claim is hidden")
            if _component_lengths(claim_obj) != cl.lens:
                raise StatementError("claim component lengths disagree with the layout")
            real_msg = (
                encode_claim_message(ceas, ceas.n, cl.index, claim_obj)
                + bytes([wit.counter])
                + sha256_pad(cl.msg_len)
            )

        # the little-endian bit literals of each byte from the first
        # in-circuit block: constants for public bytes, and variables for
        # secret ones, allocated a component's share of a block at a time
        lits: list[int] = []
        value_bytes: list[LC] = []
        for start, data, kind in segments:
            if kind is None:
                for byte in data:
                    lits += _BYTE_LITS[byte]
                continue
            end = start + data
            cuts = [start, *range(start - start % 64 + 64, end, 64), end]
            for lo, hi in zip(cuts, cuts[1:]):
                bd.region = f"claim {cl.index}, sha256 block {lo // 64}"
                bits = bd.bits_of(int.from_bytes(real_msg[lo:hi], "little") if compute else None, 8 * (hi - lo))
                lits += bits
                if kind == "value":
                    value_bytes += [tuple((b + j, 1 << j) for j in range(8)) for b in bits[::8]]
        value_lcs_by_index[cl.index] = value_bytes

        # the state after the public prefix, as constants
        state = shared_state
        for k in range(shared_len, len(prefix), 64):
            state = sha256_compress(state, prefix[k: k + 64])
        state_words = [const_word(v) for v in state]

        # in-circuit compressions; a word's big-endian bytes, little-endian bits
        for blk in range(cl.first_block, cl.total_blocks):
            bd.region = f"claim {cl.index}, sha256 block {blk}"
            base = 512 * (blk - cl.first_block)
            block_words = [lits[p + 24: p + 32] + lits[p + 16: p + 24] + lits[p + 8: p + 16] + lits[p: p + 8]
                           for p in range(base, base + 512, 32)]
            state_words = sha256_compress_gadget(bd, state_words, block_words)

        # bind public x limbs and sign to the digest bits; digest bit t is
        # little-endian over the 256-bit big-endian digest
        digest = [b for word in reversed(state_words) for b in word]
        bd.region = f"claim {cl.index}, binding"
        for j in range(NUM_LIMBS):
            lc = [(limbs[j], -1)]
            for m in range(LIMB_BITS * j, min(LIMB_BITS * (j + 1), l_bits)):
                lc += lit_lc(digest[m + shift], 1 << (m - LIMB_BITS * j))
            bd.add_lin(lc)
        bd.add_lin([(sign, -1), *lit_lc(digest[shift - 1])])

    # ---- application predicate -------------------------------------------
    if predicate is not None:
        bd.region = f"claim {predicate.claim_index}, predicate"
        predicate.synthesize(bd, value_lcs_by_index[predicate.claim_index])

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
    credential supplies the claim bytes, and the policy must be as wide
    as the credential is long.
    """
    if ceas.n != len(cred):
        raise StatementError("policy width differs from the credential's length")
    idxs = tuple(sorted(set(int(i) for i in extraction)))
    if not idxs:
        raise StatementError("empty extraction set")
    missing = [i for i in idxs if i not in witnesses]
    if missing:
        raise StatementError(f"missing witnesses for indices {missing}")
    for i in idxs:
        if cred[i].hidden:
            raise StatementError(f"claim {i} is hidden")
    layout = StatementLayout(
        profile_name=profile_name,
        ceas_bytes=ceas.to_bytes(),
        extraction=idxs,
        claim_lens=tuple(_component_lengths(cred[i]) for i in idxs),
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
