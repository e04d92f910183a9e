"""Claims, credentials, extraction policies, and canonical message bytes.

A credential is an ordered sequence of subject-property-value claims;
the order is signed, so indices are meaningful.  Hiding a claim replaces
its value (and optionally its property) with the BLINDED sentinel, which
is a dedicated singleton rather than a magic string so that a claim
whose real value happens to be the text "BLINDED" stays unambiguous.

The extraction policy (an explicit set of permitted index subsets) and
per-claim message encodings defined here are the exact bytes everything
downstream hashes and signs; both are canonical and length-prefixed so
the encodings are injective.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from blsces.errors import EncodingError, ValidationError


class _Blinded:
    """Sentinel marking a hidden claim component."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BLINDED"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


BLINDED = _Blinded()


@dataclass(frozen=True)
class Claim:
    subject: str
    property: "str | _Blinded"
    value: "str | _Blinded"

    def __post_init__(self):
        if self.property is BLINDED and self.value is not BLINDED:
            raise ValidationError("a claim with a blinded property must blind its value too")

    @property
    def hidden(self) -> bool:
        return self.value is BLINDED

    def hide(self, blind_property: bool = False) -> "Claim":
        """Return the blinded form of this claim.

        ``blind_property`` selects both-blinded mode, which also removes
        the property so a hidden claim leaks nothing about what was
        asserted.
        """
        return Claim(
            subject=self.subject,
            property=BLINDED if blind_property else self.property,
            value=BLINDED,
        )


@dataclass(frozen=True)
class Credential:
    claims: tuple[Claim, ...]

    def __post_init__(self):
        if not isinstance(self.claims, tuple):
            object.__setattr__(self, "claims", tuple(self.claims))
        if not self.claims:
            raise ValidationError("a credential holds at least one claim")

    def __len__(self) -> int:
        return len(self.claims)

    def __getitem__(self, i: int) -> Claim:
        return self.claims[i]

    @property
    def all_visible(self) -> bool:
        return not any(c.hidden for c in self.claims)


@dataclass(frozen=True)
class ExtractionSet:
    """Non-empty subset of claim indices selected for disclosure."""

    indices: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.indices, frozenset):
            object.__setattr__(self, "indices", frozenset(self.indices))
        if not self.indices:
            raise ValidationError("extraction set is empty")
        if any(i < 0 for i in self.indices):
            raise ValidationError("negative claim index")

    def sorted(self) -> list[int]:
        return sorted(self.indices)

    def mask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)


# The widest policy, in claims.  A width is a bare number in a JSON file,
# and the canonical bytes and index lists grow with it, so a document
# must not be able to name a width its own size does not pay for.
MAX_CEAS_WIDTH = 1024
# The most subsets a policy lists.  Its canonical bytes go into every
# claim message, and a ZK verifier hashes them in pure Python, so with
# the width cap this bounds them at 8 + 256 * 128 = 32,776 bytes.
MAX_CEAS_SUBSETS = 256


@dataclass(frozen=True)
class CEAS:
    """Content-extraction access structure: allowed index subsets.

    Subsets are stored as bit masks over width ``n``; serialization
    sorts and deduplicates them, so equal structures share one byte
    representation.
    """

    n: int
    subsets: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("CEAS width must be positive")
        if self.n > MAX_CEAS_WIDTH:
            raise ValidationError(f"CEAS width above {MAX_CEAS_WIDTH}")
        if not isinstance(self.subsets, frozenset):
            object.__setattr__(self, "subsets", frozenset(self.subsets))
        if not self.subsets:
            raise ValidationError("CEAS holds at least one subset")
        if len(self.subsets) > MAX_CEAS_SUBSETS:
            raise ValidationError(f"CEAS lists more than {MAX_CEAS_SUBSETS} subsets")
        if any(s < 0 or s.bit_length() > self.n for s in self.subsets):
            raise ValidationError("CEAS subset exceeds its width")

    @classmethod
    def from_index_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "CEAS":
        """The policy of width n allowing ``sets``.  Reading stops at the
        first set past MAX_CEAS_SUBSETS, repeats included."""
        masks = set()
        for k, s in enumerate(sets):
            if k == MAX_CEAS_SUBSETS:
                raise ValidationError(f"CEAS lists more than {MAX_CEAS_SUBSETS} subsets")
            mask = 0
            for i in s:
                if not 0 <= i < n:
                    raise ValidationError(f"index {i} outside width {n}")
                mask |= 1 << i
            masks.add(mask)
        return cls(n=n, subsets=frozenset(masks))

    def index_sets(self) -> list[list[int]]:
        return [[i for i in range(self.n) if mask >> i & 1] for mask in sorted(self.subsets)]

    def to_bytes(self) -> bytes:
        """Canonical serialization: width, count, then sorted subset masks."""
        mask_len = (self.n + 7) // 8
        out = [struct.pack(">II", self.n, len(self.subsets))]
        out.extend(mask.to_bytes(mask_len, "big") for mask in sorted(self.subsets))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CEAS":
        if len(data) < 8:
            raise EncodingError("CEAS bytes too short")
        n, count = struct.unpack(">II", data[:8])
        if n < 1:
            raise EncodingError("CEAS width must be positive")
        if count > MAX_CEAS_SUBSETS:
            raise EncodingError(f"CEAS lists more than {MAX_CEAS_SUBSETS} subsets")
        mask_len = (n + 7) // 8
        if len(data) != 8 + count * mask_len:
            raise EncodingError("CEAS byte length mismatch")
        masks = [
            int.from_bytes(data[8 + k * mask_len: 8 + (k + 1) * mask_len], "big")
            for k in range(count)
        ]
        if masks != sorted(set(masks)):
            raise EncodingError("CEAS bytes are not canonical")
        try:
            return cls(n=n, subsets=frozenset(masks))
        except ValidationError as exc:
            raise EncodingError(f"CEAS bytes hold no valid policy: {exc}") from exc


def ceas_contains(ceas: CEAS, x: ExtractionSet) -> bool:
    """Exact membership of the extraction set among the allowed subsets."""
    if max(x.indices) >= ceas.n:
        raise ValidationError("extraction set wider than the CEAS")
    return x.mask() in ceas.subsets


def clear_indices(cred: Credential) -> frozenset[int]:
    """Indices of the visible claims; empty means nothing is disclosed."""
    return frozenset(i for i, c in enumerate(cred.claims) if not c.hidden)


def is_sub_credential(sub: Credential, full: Credential) -> bool:
    """The derivation relation between a presentation and its source.

    Holds when lengths match, at least one claim of ``sub`` is hidden,
    and every visible claim of ``sub`` equals ``full``'s claim at the
    same index.
    """
    if len(sub) != len(full):
        return False
    if not any(c.hidden for c in sub.claims):
        return False
    for s, f in zip(sub.claims, full.claims):
        if not s.hidden and s != f:
            return False
    return True


def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def encode_claim_message(
    ceas: CEAS,
    n: int,
    i: int,
    claim: Claim,
    counter: int | None = None,
) -> bytes:
    """Canonical signed-message bytes for one claim.

    Fields in order: length-prefixed canonical CEAS bytes, n and i as
    fixed 4-byte integers, then the length-prefixed UTF-8 claim triple,
    then the optional counter byte.  Length prefixes keep the encoding
    injective; bare concatenation would let (n=1, i=12) collide with
    (n=11, i=2) and claim boundaries drift.
    """
    if claim.hidden:
        raise ValidationError("hidden claims are never encoded for signing")
    if not 0 <= i < n:
        raise ValidationError(f"claim index {i} outside credential of length {n}")
    parts = [
        _lp(ceas.to_bytes()),
        struct.pack(">I", n),
        struct.pack(">I", i),
        _lp(claim.subject.encode("utf-8")),
        _lp(claim.property.encode("utf-8")),
        _lp(claim.value.encode("utf-8")),
    ]
    if counter is not None:
        if not 0 <= counter < 256:
            raise ValidationError("counter must fit one byte")
        parts.append(bytes([counter]))
    return b"".join(parts)
