"""Building the provable statement for a disclosed-claim set.

For every claim index in the extraction set the statement enforces, over
one shared constraint system:

  (a) the sha256 compressions of the encoded claim message with its
      counter byte, from the block of its first secret byte to the end
      of the padding, tying the public (x, sign) pair to the digest
      bits.  The whole blocks before that block hold only public bytes
      (the length-prefixed policy, n, i and length prefixes); the
      recording builder hashes them outside the system, and the
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

``synthesize`` takes the public inputs and the secret bytes: each
extracted claim's subject, property and value bytes and its counter
byte, claim after claim in layout order.  Those fix every variable the
statement allocates, which is why a proof carries the secret bytes
alone:

* variable 0 holds 1;
* the public variables, each claim's four 64-bit limbs of x and its
  sign bit, hold ``public_assignment`` of the public inputs;
* each secret byte's eight message bits are the byte's bits;
* a sha256 compression's variables are fixed by its inputs: message
  bits, constants, and the previous compression's outputs.  Over bits,
  xor's (a - b)^2 = z gives z = a xor b, Ch's e * (f - g) = c - g gives
  c = g + e(f - g), Maj is a xor and a Ch, and an addition's result and
  carry bits, weighted by powers of 2, equal the operand sum, an
  integer below 2^35, far below the field modulus, so they are the
  sum's binary digits.  Every constraint of a compression holds on
  these values, its linear ones included, and no constraint outside
  the compressions reads a variable of them but the last one's output
  words, which hold the chained compressions' output from the sha256
  IV over the padded message: the sha256 digest of the claim message;
* the x and sign binding allocates nothing: its linear constraints tie
  the public variables to the last compression's digest bits;
* a range predicate's decompositions hold the bits of a value the
  message bits fix (a digit, a digit plus 6, value - low and
  high - value); each is tied to that value by a linear constraint,
  which holds only if the value fits the width.  An equals predicate
  allocates nothing: its linear constraints compare the value bytes
  with the constant.

So the statement holds exactly when the linear constraints outside the
compressions do, on the values the public inputs and the secret bytes
regenerate; the verifier's ``Builder`` evaluates them as they are
emitted, runs no compression, and allocates each claim's digest bits
from ``hashlib`` (see ``r1cs``).  ``synthesize`` hands a builder's
``sha256`` each claim message whole, padded, with its secret bytes
marked, and binds x and sign to the digest bits it returns; how the
digest is taken is the builder's.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

from blsces.bls import HashToG1Result
from blsces.credential import CEAS
# encode_claim_message, which _claim_message follows, stays importable
# here: perfbench/tracing.py binds it by name.
from blsces.credential import encode_claim_message  # noqa: F401
from blsces.errors import EncodingError, StatementError, ValidationError
from blsces.groups.params import PROFILES
from blsces.wire import hex_bytes, json_int
from blsces.zk.predicates import predicate_from_descriptor
from blsces.zk.r1cs import LC, Builder, ConstraintSystem, RecordingBuilder
from blsces.zk.sha256 import sha256_pad

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

    @functools.cached_property
    def ceas(self) -> CEAS:
        """The policy ``ceas_bytes`` encodes, parsed on first use and kept,
        so that ``zk_verify`` and ``synthesize`` share one parse; bytes
        that encode none raise EncodingError on every use."""
        return CEAS.from_bytes(self.ceas_bytes)


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
    the counter byte.  A length the 4-byte prefix cannot hold raises
    StatementError."""
    if not all(0 <= length < 1 << 32 for length in lens):
        raise StatementError(f"claim lengths {lens} do not fit the encoding")
    return ClaimLayout(index=i, lens=lens, msg_len=4 + len(ceas_bytes) + 8 + 12 + sum(lens) + 1)


@dataclass(frozen=True)
class StatementLayout:
    profile_name: str
    ceas_bytes: bytes
    extraction: tuple[int, ...]
    # (subject, property, value) byte lengths, one triple per extracted index
    claim_lens: tuple[tuple[int, int, int], ...]
    predicate: dict | None

    @functools.cached_property
    def claims(self) -> tuple[ClaimLayout, ...]:
        """Each extracted claim's shape, paired with the extraction in
        order, built once per layout; ``synthesize`` refuses a layout
        whose counts differ."""
        return tuple(build_claim_layout(self.ceas_bytes, i, lens) for i, lens in zip(self.extraction, self.claim_lens))

    @property
    def secret_length(self) -> int:
        """Bytes of the secret ``synthesize`` takes: each claim's three
        components and its counter byte."""
        return sum(sum(cl.lens) + 1 for cl in self.claims)

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
        shape raises EncodingError, as does a policy that is not
        lowercase hex or an index or length that is not a JSON integer
        (``wire``).  Values are checked only when the statement is
        rebuilt from the layout."""
        try:
            return cls(
                profile_name=data["profile"],
                ceas_bytes=hex_bytes(data["ceas"], "policy"),
                extraction=tuple(json_int(i, "extraction index") for i in data["extraction"]),
                claim_lens=tuple(
                    tuple(json_int(c[k], k) for k in ("len_subject", "len_property", "len_value"))
                    for c in data["claims"]
                ),
                predicate=data.get("predicate"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EncodingError(f"malformed statement layout: {exc!r}") from exc


def _claim_message(ceas_bytes: bytes, n: int, i: int, lens: tuple[int, int, int], claim_secret: bytes):
    """Claim i's message with its counter byte and sha256 padding, and a
    mask marking each secret byte 0xFF and each public byte 0.

    The message follows ``encode_claim_message``: the length-prefixed
    policy bytes, n and i as 4-byte integers, then subject, property
    and value, each after its 4-byte length; ``claim_secret`` holds the
    three components, of the lengths ``lens``, and the counter byte.
    The lengths are a ``ClaimLayout``'s, which fit their 4-byte
    prefixes."""
    msg = bytearray(struct.pack(">I", len(ceas_bytes)) + ceas_bytes + struct.pack(">II", n, i))
    mask = bytearray(len(msg))
    pos = 0
    for length in lens:
        msg += struct.pack(">I", length) + claim_secret[pos: pos + length]
        mask += bytes(4) + b"\xff" * length
        pos += length
    pad = sha256_pad(len(msg) + 1)
    return bytes(msg + claim_secret[pos:] + pad), bytes(mask + b"\xff" + bytes(len(pad)))


@dataclass
class SynthesisResult:
    cs: ConstraintSystem
    # the builder's values: all of them, a list, from RecordingBuilder;
    # the kept ones by variable, a dict, from Builder
    values: list | dict
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


def synthesize(layout: StatementLayout, bd: Builder, inputs: PublicInputs, secret: bytes) -> SynthesisResult:
    """Synthesize the statement a layout describes through a fresh
    builder ``bd``, from the public inputs and the secret bytes (see the
    module docstring), which fix every value.  ``Builder`` raises
    ``ConstraintViolation`` at the first linear constraint that fails,
    naming its claim and region, and keeps only the values those
    constraints read; ``RecordingBuilder`` stores every value and
    constraint instead.  The constraints depend only on the layout."""
    profile = PROFILES.get(layout.profile_name)
    if profile is None:
        raise StatementError(f"unknown curve profile {layout.profile_name!r}")
    # public_assignment refuses a layout whose policy differs from the
    # inputs', so the inputs' parse serves where the bytes are the same
    ceas = inputs.ceas if inputs.ceas_bytes == layout.ceas_bytes else CEAS.from_bytes(layout.ceas_bytes)
    if not layout.extraction or tuple(sorted(set(layout.extraction))) != layout.extraction:
        raise StatementError("layout extraction set not canonical")
    if any(not 0 <= i < ceas.n for i in layout.extraction):
        raise StatementError("layout extraction index out of range")
    if len(layout.claim_lens) != len(layout.extraction):
        raise StatementError("one claim layout per extracted index required")
    predicate = predicate_from_descriptor(layout.predicate)
    if predicate is not None and predicate.claim_index not in layout.extraction:
        raise StatementError("predicate targets an undisclosed claim")
    if len(secret) != layout.secret_length:
        raise StatementError("secret bytes differ in length from the layout's claims")

    l_bits = profile.x_bits
    shift = SHA_BITS - l_bits

    # ---- public inputs, canonical order ---------------------------------
    public = iter(public_assignment(layout, inputs))
    per_claim_pub = []
    for _ in layout.claims:
        limbs = tuple(bd.alloc_public(next(public)) for _ in range(NUM_LIMBS))
        per_claim_pub.append((limbs, bd.alloc_public(next(public))))

    # ---- per-claim hash constraints ----------------------------------------
    value_lcs: list[LC] = []
    taken = 0
    for cl, (limbs, sign) in zip(layout.claims, per_claim_pub):
        # the claim's secret bytes as message bits, little-endian, in
        # message order; the value's bytes follow subject and property,
        # and only a predicate on this claim reads their bits
        size = sum(cl.lens) + 1
        claim_secret = secret[taken: taken + size]
        taken += size
        bd.region = f"claim {cl.index}, sha256 block {cl.first_block}"
        value = range(cl.lens[0] + cl.lens[1], sum(cl.lens))
        read = predicate is not None and predicate.claim_index == cl.index
        var = bd.message_bits(claim_secret, value if read else range(0))
        if read:
            value_lcs = [tuple((var + 8 * k + j, 1 << j) for j in range(8)) for k in value]
        msg, mask = _claim_message(layout.ceas_bytes, ceas.n, cl.index, cl.lens, claim_secret)

        # bind public x limbs and sign to the digest bits, variables all;
        # digest bit t is little-endian over the 256-bit big-endian digest
        digest = bd.sha256(msg, mask, cl, var)
        bd.region = f"claim {cl.index}, binding"
        for j in range(NUM_LIMBS):
            low = LIMB_BITS * j
            bits = range(low, min(low + LIMB_BITS, l_bits))
            bd.add_lin([(limbs[j], -1), *((digest[m + shift], 1 << (m - low)) for m in bits)])
        bd.add_lin([(sign, -1), (digest[shift - 1], 1)])

    # ---- application predicate -------------------------------------------
    if predicate is not None:
        bd.region = f"claim {predicate.claim_index}, predicate"
        predicate.synthesize(bd, value_lcs)

    return SynthesisResult(cs=bd.cs, values=bd.values, layout=layout)


def prover_layout(
    cred,
    ceas: CEAS,
    hashed: dict[int, HashToG1Result],
    extraction: tuple[int, ...] | list[int],
    predicate=None,
    profile_name: str = "bn254",
) -> tuple[StatementLayout, PublicInputs, bytes]:
    """The layout of a statement over prover-side data, its public
    inputs, and the secret bytes ``synthesize`` takes for it.

    ``hashed`` maps each extracted index to its claim message's hash
    (``hash_to_curve_witness``), which gives the public (x, sign) pair
    and the counter; the credential supplies the claim bytes, and the
    policy must be as wide as the credential is long.
    """
    n = len(cred)
    if ceas.n != n:
        raise StatementError("policy width differs from the credential's length")
    idxs = tuple(sorted(set(int(i) for i in extraction)))
    if not idxs:
        raise StatementError("empty extraction set")
    missing = [i for i in idxs if i not in hashed]
    if missing:
        raise StatementError(f"missing witnesses for indices {missing}")
    for i in idxs:
        if cred[i].hidden:
            raise StatementError(f"claim {i} is hidden")
    # a claim's secret bytes: its subject, property and value, then its counter
    parts = [
        (cred[i].subject.encode("utf-8"), cred[i].property.encode("utf-8"), cred[i].value.encode("utf-8"))
        for i in idxs
    ]
    layout = StatementLayout(
        profile_name=profile_name,
        ceas_bytes=ceas.to_bytes(),
        extraction=idxs,
        claim_lens=tuple(tuple(map(len, p)) for p in parts),
        predicate=predicate.describe() if predicate is not None else None,
    )
    inputs = PublicInputs(
        x_coords=tuple(hashed[i].x for i in idxs),
        sign_bits=tuple(hashed[i].sign_bit for i in idxs),
        ceas_bytes=layout.ceas_bytes,
        extraction=idxs,
    )
    secret = b"".join(b"".join(p) + bytes([hashed[i].counter]) for i, p in zip(idxs, parts))
    return layout, inputs, secret


def build_statement(
    cred,
    ceas: CEAS,
    hashed: dict[int, HashToG1Result],
    extraction: tuple[int, ...] | list[int],
    predicate=None,
    profile_name: str = "bn254",
) -> SynthesisResult:
    """Layout, assignment and the stored constraint system from
    prover-side data (the arguments of ``prover_layout``)."""
    layout, inputs, secret = prover_layout(cred, ceas, hashed, extraction, predicate, profile_name)
    return synthesize(layout, RecordingBuilder(), inputs, secret)
