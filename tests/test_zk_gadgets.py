"""Constraint-system gadgets checked against plain recomputation."""

import hashlib
import os
import random

import pytest

from blsces.groups.params import BN254, TOY
from blsces.groups.params import P as BIG_P
from blsces.zk.r1cs import Builder
from blsces.zk.bigint_gadget import (
    alloc_checked,
    emul_mul,
    limbs_value,
    square_root_gadget,
)
from blsces.zk.sha256_gadget import (
    SHA256_IV,
    SHA256_K,
    const_word,
    sha256_compress,
    sha256_compress_gadget,
    sha256_pad,
    word_from_bits,
)

rng = random.Random(31)


# -- plain sha helpers ----------------------------------------------------------

def test_constants_match_hashlib_indirectly():
    # IV and K are derived arithmetically; a correct digest proves both
    for msg in (b"", b"abc", os.urandom(40)):
        padded = msg + sha256_pad(len(msg))
        assert len(padded) % 64 == 0
        state = list(SHA256_IV)
        for k in range(0, len(padded), 64):
            state = sha256_compress(state, padded[k: k + 64])
        digest = b"".join(w.to_bytes(4, "big") for w in state)
        assert digest == hashlib.sha256(msg).digest()


def test_known_constants_spot_values():
    assert SHA256_IV[0] == 0x6A09E667
    assert SHA256_K[0] == 0x428A2F98
    assert SHA256_K[63] == 0xC67178F2


# -- sha gadget --------------------------------------------------------------------

def gadget_digest(block: bytes, state=None):
    bd = Builder()
    block_words = [
        word_from_bits(bd.bits_of(int.from_bytes(block[4 * t: 4 * t + 4], "big"), 32))
        for t in range(16)
    ]
    state_words = [const_word(v) for v in (state or SHA256_IV)]
    out = sha256_compress_gadget(bd, state_words, block_words)
    vals = [sum(bd.lc_val(lc) << j for j, lc in enumerate(word)) for word in out]
    return bd, vals


def test_sha_gadget_matches_plain_on_random_blocks():
    for _ in range(3):
        block = rng.randbytes(64)
        bd, vals = gadget_digest(block)
        assert vals == sha256_compress(list(SHA256_IV), block)
        assert bd.cs.satisfied(bd.values)


def test_sha_gadget_with_carried_state():
    state = [rng.randrange(1 << 32) for _ in range(8)]
    block = rng.randbytes(64)
    bd, vals = gadget_digest(block, state)
    assert vals == sha256_compress(state, block)


def test_sha_gadget_rejects_flipped_witness_bit():
    block = rng.randbytes(64)
    bd, _ = gadget_digest(block)
    # flip one message bit after synthesis: some constraint must break
    w = list(bd.values)
    w[1] ^= 1
    assert not bd.cs.satisfied(w)


# -- emulated field multiplication ----------------------------------------------------

@pytest.mark.parametrize("modulus", [11, BIG_P])
def test_emul_mul_random(modulus):
    for _ in range(5):
        a_val = rng.randrange(modulus)
        b_val = rng.randrange(modulus)
        k = rng.choice([0, 3])
        bd = Builder()
        a = alloc_checked(bd, a_val)
        b = alloc_checked(bd, b_val)
        r = emul_mul(bd, a, b, modulus, add_const=k)
        assert bd.cs.satisfied(bd.values)
        r_val = limbs_value(tuple(bd.values[v] for v in r.limbs))
        assert r_val == (a_val * b_val + k) % modulus


def emul_mul_satisfied(a_val: int, b_val: int, qr: tuple[int, int]) -> bool:
    bd = Builder()
    a = alloc_checked(bd, a_val)
    b = alloc_checked(bd, b_val)
    emul_mul(bd, a, b, BIG_P, supplied_qr=qr)
    return bd.cs.satisfied(bd.values)


def test_emul_mul_rejects_wrong_quotient_or_remainder():
    a_val, b_val = rng.randrange(BIG_P), rng.randrange(BIG_P)
    q0, r0 = divmod(a_val * b_val, BIG_P)
    for bad in [(q0 + 1, r0), (q0, (r0 + 1) % BIG_P)]:
        assert not emul_mul_satisfied(a_val, b_val, bad)


def test_emul_mul_unreduced_remainder_contract():
    """emul_mul certifies a*b + k = q*p + r with r < 2^254, not r < p.
    A remainder shifted up by p is accepted when it still fits in 254
    bits and rejected when it does not."""
    # (p-1)^2 = (p-2)*p + 1: r0 + p = p + 1 < 2^254, so it passes
    q0, r0 = divmod((BIG_P - 1) ** 2, BIG_P)
    assert r0 + BIG_P < 1 << 254
    assert emul_mul_satisfied(BIG_P - 1, BIG_P - 1, (q0 - 1, r0 + BIG_P))
    # (p-1)*2 = 1*p + (p-2): r0 + p = 2p - 2 >= 2^254, out of range
    q0, r0 = divmod((BIG_P - 1) * 2, BIG_P)
    assert r0 + BIG_P >= 1 << 254
    assert not emul_mul_satisfied(BIG_P - 1, 2, (q0 - 1, r0 + BIG_P))


def test_emul_square_uses_symmetry():
    a_val = rng.randrange(BIG_P)
    bd = Builder()
    a = alloc_checked(bd, a_val)
    r = emul_mul(bd, a, a, BIG_P)
    assert bd.cs.satisfied(bd.values)
    assert limbs_value(tuple(bd.values[v] for v in r.limbs)) == a_val * a_val % BIG_P
    assert len(bd.cs.muls) == 10  # upper-triangular limb products only


# -- square-root gadget ------------------------------------------------------------

def square_root_satisfied(x_val: int, y_val: int, profile=TOY) -> bool:
    bd = Builder()
    x = alloc_checked(bd, x_val)
    square_root_gadget(bd, x, y_val, profile.p, profile.b)
    return bd.cs.satisfied(bd.values)


def test_toy_square_root_exhaustive():
    """Over every (x, y) in F_11 x F_11 the gadget holds exactly when
    y^2 == x^3 + 3 and y != 0, so some y exists exactly for the signing
    x values; x = 2 (rhs = 0) has only the root y = 0 and is rejected."""
    reachable = set()
    for x_val in range(11):
        for y_val in range(11):
            expected = y_val != 0 and y_val * y_val % 11 == (x_val**3 + 3) % 11
            assert square_root_satisfied(x_val, y_val) == expected, (x_val, y_val)
            if expected:
                reachable.add(x_val)
    assert reachable == {x for x in range(11) if TOY.is_signing_x(x)} == {0, 1, 4, 7, 8}
    assert (2**3 + 3) % 11 == 0 and 2 not in reachable


def test_toy_chain_single_quotient_identity():
    # x = 1: rhs = 1^3 + 3 = 4 is a square (4^5 - 1 = 93 * 11) with roots
    # 2 and 9.  Each of the gadget's four emulated multiplications is an
    # exact integer identity a*m + k == q*11 + r; for y = 2, w = 6 only
    # y*w = 12 needs a quotient.
    assert pow(4, 5) - 1 == 93 * 11
    steps = [(1, 1, 0, 0, 1), (1, 1, 3, 0, 4), (2, 2, 0, 0, 4), (2, 6, 0, 1, 1)]
    bd = Builder()
    for a_val, m_val, k, q, r in steps:
        assert a_val * m_val + k == q * 11 + r
        out = emul_mul(bd, alloc_checked(bd, a_val), alloc_checked(bd, m_val), 11, add_const=k)
        assert limbs_value(tuple(bd.values[v] for v in out.limbs)) == r
    assert bd.cs.satisfied(bd.values)
    assert square_root_satisfied(1, 2) and square_root_satisfied(1, 9)


def test_toy_chain_rhs_one_all_zero_quotients():
    # x = 4: 4^3 = 64 = 9 = -2, so rhs = 1, whose roots are 1 and 10.
    # With y = w = 1 every product is 1 and needs no reduction.
    assert (4**3 + 3) % 11 == 1
    assert square_root_satisfied(4, 1) and square_root_satisfied(4, 10)
    assert not square_root_satisfied(4, 0)
    assert [y for y in range(11) if square_root_satisfied(4, y)] == [1, 10]


@pytest.mark.parametrize("x_val,expected", [(0, True), (1, True), (3, False), (5, False), (7, True)])
def test_toy_chain_agrees_with_modexp(x_val, expected):
    # some root y satisfies the gadget exactly when Euler's criterion holds
    assert any(square_root_satisfied(x_val, y) for y in range(11)) == expected
    assert (pow((x_val**3 + 3) % 11, 5, 11) == 1) == expected


def test_perturbed_chain_quotient_falsifies():
    # x = 1, y = 2: adding 1 to any witness value the gadget allocates
    # (y, w, their limbs and bits, every quotient and remainder) falsifies it
    bd = Builder()
    x = alloc_checked(bd, 1)
    first = bd.cs.num_vars
    square_root_gadget(bd, x, 2, 11, 3)
    assert bd.cs.satisfied(bd.values)
    assert bd.cs.num_vars - first > 50
    for var in range(first, bd.cs.num_vars):
        original = bd.values[var]
        bd.values[var] = (original + 1) % bd.cs.field
        assert not bd.cs.satisfied(bd.values), var
        bd.values[var] = original


def test_real_square_root_satisfied_for_residue():
    x_val = next(x for x in range(100, 400) if BN254.is_signing_x(x))
    y_val = BN254.sqrt(BN254.rhs(x_val))
    assert square_root_satisfied(x_val, y_val, BN254)
    assert square_root_satisfied(x_val, BIG_P - y_val, BN254)
    assert not square_root_satisfied(x_val, y_val + 1, BN254)


def test_square_root_gadget_size():
    bd = Builder()
    square_root_gadget(bd, alloc_checked(bd, 1), 2, 11, 3)
    # x, y, w limb checks plus four emulated multiplications
    assert len(bd.cs.muls) == 10 + 16 + 10 + 16


# -- constraint system plumbing ----------------------------------------------------

def test_dump_and_uniform_view():
    bd = Builder()
    a = bd.bit(1)
    b = bd.bit(0)
    c = bd.add_mul(a, b)
    bd.add_lin(((c, 1),))
    cs = bd.cs
    assert len(cs) == 4
    dump = cs.dump()
    assert len(dump.splitlines()) == 4
    assert "w1" in dump
    triples = list(cs.iter_r1cs())
    assert len(triples) == 4
    for idx in range(len(cs)):
        assert cs.constraint(idx) == triples[idx]
        assert cs.eval_constraint(idx, bd.values)


def test_var_index_covers_every_constraint():
    bd = Builder()
    bits = [bd.bit(rng.randrange(2)) for _ in range(5)]
    bd.add_lin(tuple((b, 1 << j) for j, b in enumerate(bits)) + ((0, -bd.lc_val(tuple((b, 1 << j) for j, b in enumerate(bits)))),))
    cs = bd.cs
    index = cs.var_index()
    covered = set()
    for var, idxs in index.items():
        covered.update(idxs)
    assert covered == set(range(len(cs)))


def test_public_allocation_must_precede_witness():
    from blsces.errors import StatementError

    bd = Builder()
    bd.alloc_public(1)
    bd.alloc(2)
    with pytest.raises(StatementError):
        bd.alloc_public(3)
