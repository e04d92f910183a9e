"""Credential data model: relations, policies, and canonical encodings."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blsces import formats
from blsces.credential import (
    BLINDED,
    CEAS,
    MAX_CEAS_SUBSETS,
    MAX_CEAS_WIDTH,
    Claim,
    Credential,
    ExtractionSet,
    ceas_contains,
    clear_indices,
    encode_claim_message,
    is_sub_credential,
)
from blsces.errors import EncodingError, ValidationError


def cred3():
    return Credential(
        (Claim("s", "a", "1"), Claim("s", "b", "2"), Claim("s", "c", "3"))
    )


def blind(cred: Credential, hidden: set[int], both: bool = False) -> Credential:
    return Credential(
        tuple(c.hide(both) if i in hidden else c for i, c in enumerate(cred.claims))
    )


# -- claims ---------------------------------------------------------------------

def test_hidden_iff_value_blinded():
    c = Claim("s", "p", "v")
    assert not c.hidden
    assert c.hide().hidden
    assert c.hide().property == "p"
    assert c.hide(blind_property=True).property is BLINDED


def test_blinded_property_requires_blinded_value():
    with pytest.raises(ValidationError):
        Claim("s", BLINDED, "visible")


def test_blinded_sentinel_is_not_the_string():
    c = Claim("s", "p", "BLINDED")  # a real value that happens to spell it
    assert not c.hidden


def test_credential_nonempty():
    with pytest.raises(ValidationError):
        Credential(())


# -- sub-credential relation -------------------------------------------------------

def test_sub_credential_examples():
    full = cred3()
    assert is_sub_credential(blind(full, {1}), full)
    # nothing hidden: not a sub-credential, even of itself
    assert not is_sub_credential(full, full)
    # different length
    assert not is_sub_credential(Credential(full.claims[:2]), full)


def test_sub_credential_swapped_claims_brute_force():
    """Only the identity arrangement (with at least one claim blinded)
    stands in the relation; every proper permutation fails."""
    full = cred3()
    for perm in itertools.permutations(range(3)):
        rearranged = Credential(tuple(full.claims[i] for i in perm))
        for hidden_mask in range(1, 8):
            hidden = {i for i in range(3) if hidden_mask >> i & 1}
            sub = blind(rearranged, hidden)
            expected = all(
                perm[i] == i for i in range(3) if i not in hidden
            )
            assert is_sub_credential(sub, full) == expected


def test_sub_credential_transitive_exhaustive():
    """a ⊑ b and b ⊑ c imply a ⊑ c over all blinding patterns of a
    3-claim credential (supports iterative extraction)."""
    full = cred3()
    layers = [blind(full, {i for i in range(3) if m >> i & 1}) for m in range(8)]
    for a, b in itertools.product(layers, repeat=2):
        if is_sub_credential(a, b) and is_sub_credential(b, full):
            assert is_sub_credential(a, full)


def test_both_blinded_mode_is_still_sub_credential():
    full = cred3()
    sub = blind(full, {0, 2}, both=True)
    assert sub.claims[0].property is BLINDED
    assert is_sub_credential(sub, full)


# -- clear_indices -------------------------------------------------------------------

def test_clear_indices():
    full = cred3()
    assert clear_indices(full) == frozenset({0, 1, 2})
    assert clear_indices(blind(full, {0, 1, 2})) == frozenset()
    assert clear_indices(blind(full, {1})) == frozenset({0, 2})


# -- CEAS ------------------------------------------------------------------------------

def test_ceas_membership_examples():
    ceas = CEAS.from_index_sets(3, [[0, 1], [2]])
    assert ceas_contains(ceas, ExtractionSet(frozenset({0, 1})))
    # strict subset of an allowed subset is not itself allowed
    assert not ceas_contains(ceas, ExtractionSet(frozenset({0})))
    with pytest.raises(ValidationError):
        ceas_contains(ceas, ExtractionSet(frozenset({5})))


def test_ceas_membership_exhaustive_against_scan():
    rng = random.Random(3)
    for _ in range(20):
        masks = rng.sample(range(1, 16), 3)
        ceas = CEAS(n=4, subsets=frozenset(masks))
        subsets_as_sets = [frozenset(i for i in range(4) if m >> i & 1) for m in ceas.subsets]
        for candidate_mask in range(1, 16):
            candidate = frozenset(i for i in range(4) if candidate_mask >> i & 1)
            oracle = any(candidate == s for s in subsets_as_sets)  # linear scan
            assert ceas_contains(ceas, ExtractionSet(candidate)) == oracle


def test_ceas_canonical_bytes():
    a = CEAS.from_index_sets(3, [[0, 1], [2], [2]])
    b = CEAS.from_index_sets(3, [[2], [1, 0]])
    assert a.to_bytes() == b.to_bytes()
    assert CEAS.from_bytes(a.to_bytes()) == a
    with pytest.raises(EncodingError):
        CEAS.from_bytes(a.to_bytes()[:-1])
    # non-canonical order rejected
    import struct

    raw = struct.pack(">II", 3, 2) + bytes([4]) + bytes([3])
    with pytest.raises(EncodingError):
        CEAS.from_bytes(raw)
    # bytes that decode to no policy: no subsets, or a mask wider than n
    for raw in (struct.pack(">II", 3, 0), struct.pack(">II", 3, 1) + bytes([8])):
        with pytest.raises(EncodingError):
            CEAS.from_bytes(raw)


def test_ceas_validation():
    with pytest.raises(ValidationError):
        CEAS(n=2, subsets=frozenset())
    with pytest.raises(ValidationError):
        CEAS(n=2, subsets=frozenset({4}))
    with pytest.raises(ValidationError):
        CEAS.from_index_sets(2, [[3]])


def test_ceas_subset_cap():
    """A policy lists at most MAX_CEAS_SUBSETS subsets.  At the cap and
    the widest width it parses from masks, index sets, canonical bytes
    (32,776 of them) and JSON; one subset more is refused by each, and
    reading index sets stops at the first one past the cap."""
    import struct

    width = MAX_CEAS_WIDTH
    for count in (MAX_CEAS_SUBSETS, MAX_CEAS_SUBSETS + 1):
        masks = list(range(1, count + 1))
        sets = [[i for i in range(width) if m >> i & 1] for m in masks]
        raw = struct.pack(">II", width, count) + b"".join(m.to_bytes(width // 8, "big") for m in masks)
        if count == MAX_CEAS_SUBSETS:
            ceas = CEAS(n=width, subsets=frozenset(masks))
            assert CEAS.from_index_sets(width, sets) == CEAS.from_bytes(raw) == formats.ceas_from_json({"n": width, "subsets": sets}) == ceas
            assert ceas.to_bytes() == raw and len(raw) == 32_776
            continue
        with pytest.raises(ValidationError):
            CEAS(n=width, subsets=frozenset(masks))
        with pytest.raises(ValidationError):
            CEAS.from_index_sets(width, sets)
        with pytest.raises(EncodingError):
            CEAS.from_bytes(raw)
        with pytest.raises(EncodingError):
            formats.ceas_from_json({"n": width, "subsets": sets})
    with pytest.raises(ValidationError):
        CEAS.from_index_sets(width, itertools.repeat([0]))


# -- message encoding ---------------------------------------------------------------------

def enc(ceas, n, i, claim, counter=None):
    return encode_claim_message(ceas, n, i, claim, counter)


def test_encoding_deterministic_and_field_sensitive():
    ceas = CEAS.from_index_sets(2, [[0]])
    other = CEAS.from_index_sets(2, [[1]])
    c = Claim("s", "p", "v")
    assert enc(ceas, 2, 0, c) == enc(ceas, 2, 0, c)
    assert enc(ceas, 2, 0, c) != enc(other, 2, 0, c)
    assert enc(ceas, 2, 0, c) != enc(ceas, 2, 1, c)
    assert enc(ceas, 2, 0, c, 0) != enc(ceas, 2, 0, c, 1)


def test_encoding_rejects_hidden_and_bad_index():
    ceas = CEAS.from_index_sets(2, [[0]])
    with pytest.raises(ValidationError):
        enc(ceas, 2, 0, Claim("s", "p", "v").hide())
    with pytest.raises(ValidationError):
        enc(ceas, 2, 2, Claim("s", "p", "v"))
    with pytest.raises(ValidationError):
        enc(ceas, 2, 0, Claim("s", "p", "v"), counter=300)


def test_encoding_separates_ambiguous_decimal_concatenations():
    """n=1,i=12 and n=11,i=2 collide as decimal strings; the fixed-width
    fields keep them apart."""
    ceas = CEAS.from_index_sets(112, [[0]])
    c = Claim("s", "p", "v")
    assert enc(ceas, 112, 12, c) != enc(ceas, 112, 2, c)
    # and with realistic widths: same bytes appended differently
    a = enc(CEAS.from_index_sets(1, [[0]]), 1, 0, Claim("s", "p", "x12"))
    b = enc(CEAS.from_index_sets(1, [[0]]), 1, 0, Claim("s", "px", "12"))
    assert a != b


def test_encoding_injective_fuzz():
    """10^5 random inputs, no two distinct inputs share an encoding
    (tracked through sha256 of the bytes)."""
    rng = random.Random(12345)
    seen: dict[bytes, tuple] = {}
    ceas_pool = [
        CEAS.from_index_sets(n, [[i] for i in range(n)]) for n in (1, 2, 3)
    ]
    alphabet = "abc|:0123"
    for trial in range(100_000):
        ceas = rng.choice(ceas_pool)
        n = ceas.n
        i = rng.randrange(n)
        claim = Claim(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))),
        )
        counter = rng.choice([None, rng.randrange(256)])
        key = (ceas.to_bytes(), n, i, claim, counter)
        digest = hashlib.sha256(enc(ceas, n, i, claim, counter)).digest()
        if digest in seen:
            assert seen[digest] == key, "encoding collision between distinct inputs"
        seen[digest] = key


@given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
@settings(max_examples=200, deadline=None)
def test_encoding_roundtrip_parseable(subject, prop, value):
    """Length prefixes let the claim triple be parsed back unambiguously."""
    import struct

    ceas = CEAS.from_index_sets(1, [[0]])
    data = enc(ceas, 1, 0, Claim(subject, prop, value))
    offset = 4 + len(ceas.to_bytes()) + 8
    out = []
    for _ in range(3):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        out.append(data[offset: offset + length].decode("utf-8"))
        offset += length
    assert out == [subject, prop, value]
    assert offset == len(data)
