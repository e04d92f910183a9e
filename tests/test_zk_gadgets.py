"""Constraint-system gadgets checked against plain recomputation."""

import hashlib
import os
import random
from itertools import product

import pytest

from blsces.credential import CEAS, Claim, Credential
from blsces.errors import ConstraintViolation, EncodingError, StatementError
from blsces.groups import decompress_x
from blsces.groups.params import BN254, TOY
from blsces.groups.params import P as BIG_P
from blsces.zk import build_statement, hash_to_curve_witness
from blsces.zk import sha256_gadget
from blsces.zk.r1cs import Builder, ConstraintSystem, RecordingBuilder
from blsces.zk.sha256 import SHA256_IV, SHA256_K, sha256_compress, sha256_pad
from blsces.zk.sha256_gadget import ONE, ZERO, ch, const_word, lit_lc, maj, sha256_compress_gadget, xor

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
    bd = RecordingBuilder()
    block_words = [bd.bits_of(int.from_bytes(block[4 * t: 4 * t + 4], "big"), 32) for t in range(16)]
    state_words = [const_word(v) for v in (state or SHA256_IV)]
    out = sha256_compress_gadget(bd, state_words, block_words)
    vals = [sum(bd.lc_val(lit_lc(b)) << j for j, b in enumerate(word)) for word in out]
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


def mixed_words(r: random.Random, count: int, pool: list[int]) -> list[list[int]]:
    """Words of literals drawn from ``pool``, each negated at random, and
    of constants: all variables, all constants, or half and half."""
    def literal(share):
        if r.random() < share:
            return r.choice((ONE, ZERO))
        v = r.choice(pool)
        return ~v if r.random() < 0.3 else v

    return [[literal(share) for _ in range(32)] for share in (r.choice((0.0, 0.5, 1.0)) for _ in range(count))]


@pytest.mark.parametrize("shared", [False, True], ids=["distinct-state", "shared-state"])
def test_block_path_matches_per_bit_on_any_literals(shared):
    """Over state and message words mixing variables, negations and
    constants, the verifier's builder allocates the values of the
    recording builder, which runs per bit, under its per-kind counts.
    State words whose variables are distinct take the block path, with
    no per-bit xor or Ch.  State words that share a variable, where Ch
    and Maj could fold on f == g, take the per-bit path (no statement
    hands the verifier such a block)."""
    r = random.Random(0x5A)
    for _ in range(3):
        bits = [r.getrandbits(1) for _ in range(300)]
        # the same literals over variables 1..300 for every builder
        if shared:
            state = mixed_words(r, 8, list(range(1, 41)))
        else:
            # each variable literal of variable 1 becomes its own variable
            fresh = iter(r.sample(range(1, 257), 256))
            state = [[lit if lit in (ONE, ZERO) else (~v if lit < 0 else v) for lit in w for v in [next(fresh)]]
                     for w in mixed_words(r, 8, [1])]
        block = mixed_words(r, 16, list(range(257, 301)))
        runs = []
        for bd in (Builder(), RecordingBuilder()):
            for b in bits:
                bd.bit(b)
            with sha256_gadget.GadgetCalls() as spy:
                out = sha256_compress_gadget(bd, state, block)
            cs = bd.cs
            runs.append((out, list(bd.values), (len(cs.bools), len(cs.lins), len(cs.r1s)), spy.per_bit))
        (out, values, counts, block_calls), (per_bit_out, per_bit_values, per_bit_counts, _) = runs
        assert values == per_bit_values and counts == per_bit_counts and out == per_bit_out
        assert (block_calls > 0) == shared


@pytest.mark.parametrize("constant_state", [False, True], ids=["all-variable", "constant-state"])
def test_int_branch_matches_per_bit(constant_state):
    """With every message word fresh variables, and the state fresh
    variables too or constants, the verifier's builder allocates the
    values of the recording builder, which runs per bit, under its
    per-kind counts, and makes no per-bit xor or Ch.  Over variables
    alone no word operation takes the mask branch; over a constant state
    exactly the eight of rounds 0-2 that read a state word do (Sigma0,
    Sigma1, Ch and Maj of round 0, Ch and Maj of rounds 1 and 2), so the
    constants reach no later round."""
    for seed in range(4):
        r = random.Random(seed)
        state_values = [r.getrandbits(32) for _ in range(8)]
        block = r.randbytes(64)
        runs = []
        for bd in (Builder(), RecordingBuilder()):
            if constant_state:
                state = [const_word(v) for v in state_values]
            else:
                state = [bd.bits_of(v, 32) for v in state_values]
            words = [bd.bits_of(int.from_bytes(block[4 * t: 4 * t + 4], "big"), 32) for t in range(16)]
            with sha256_gadget.GadgetCalls() as spy:
                out = sha256_compress_gadget(bd, state, words)
            cs = bd.cs
            runs.append((out, list(bd.values), (len(cs.bools), len(cs.lins), len(cs.r1s)), spy))
        (out, values, counts, spy), (per_bit_out, per_bit_values, per_bit_counts, _) = runs
        assert values == per_bit_values and counts == per_bit_counts and out == per_bit_out, seed
        assert [sum(values[b] << j for j, b in enumerate(w)) for w in out] == sha256_compress(state_values, block)
        assert (spy.per_bit, spy.masked, spy.masked_all_variable) == (0, 8 if constant_state else 0, 0), seed


# -- bit literals ------------------------------------------------------------------

def literal_cases(arity: int):
    """Every pick of ``arity`` literals from {x, ~x, y, ~y, z, ~z, 1, 0}
    under every assignment of x, y, z: each operand ranges over variable,
    negation and both constants, and operands may share a variable."""
    for values in product((0, 1), repeat=3):
        for picks in product(range(8), repeat=arity):
            bd = RecordingBuilder()
            pool = [lit for v in values for x in [bd.bit(v)] for lit in (x, ~x)] + [ONE, ZERO]
            yield bd, [pool[k] for k in picks]


CONSTANTS = (ONE, ZERO)


@pytest.mark.parametrize(
    "arity,gadget,plain,products,folds",
    [
        (2, xor, lambda a, b: a ^ b, 1, lambda a, b: a in CONSTANTS or b in CONSTANTS),
        (3, ch, lambda e, f, g: f if e else g, 1, lambda e, f, g: e in CONSTANTS or f == g),
        (3, maj, lambda a, b, c: int(a + b + c >= 2), 2, None),
    ],
    ids=["xor", "ch", "maj"],
)
def test_literal_gadget_truth_tables(arity, gadget, plain, products, folds):
    for bd, lits in literal_cases(arity):
        out = gadget(bd, *lits)
        want = plain(*(bd.lc_val(lit_lc(b)) for b in lits))
        assert bd.lc_val(lit_lc(out)) == want, lits
        assert bd.cs.satisfied(bd.values), lits
        # one variable per product: xor and Ch cost one, Maj two
        assert len(bd.cs.r1s) == bd.cs.num_vars - 4 <= products, lits
        if folds is not None:
            assert (not bd.cs.r1s) == folds(*lits), lits
        # every variable the gadget allocated is pinned by its constraint
        for v in range(4, bd.cs.num_vars):
            w = list(bd.values)
            w[v] ^= 1
            assert not bd.cs.satisfied(w), (lits, v)


# -- the on-curve check ------------------------------------------------------------
# The statement proves no square root: zk_verify's decompress_x rejects an
# x whose x^3 + b is not a square, so these tests check that check.

def roots(x_val: int, profile=TOY) -> set[int]:
    """The y values decompress_x yields for x over both sign bits."""
    try:
        return {decompress_x(x_val, sign, profile)[1] for sign in (0, 1)}
    except EncodingError:
        return set()


def test_toy_square_root_exhaustive():
    """Over every (x, y) in F_11 x F_11, decompress_x yields y for some
    sign exactly when y^2 == x^3 + 3.  The x with a point are the signing
    x values plus x = 2, whose rhs is 0 and whose only point is (2, 0)."""
    for x_val in range(11):
        for y_val in range(11):
            expected = y_val * y_val % 11 == (x_val**3 + 3) % 11
            assert (y_val in roots(x_val)) == expected, (x_val, y_val)
    reachable = {x for x in range(11) if roots(x)}
    assert reachable - {x for x in range(11) if TOY.is_signing_x(x)} == {2}
    assert reachable == {0, 1, 2, 4, 7, 8}
    assert roots(2) == {0}


def test_toy_chain_single_quotient_identity():
    # x = 1: rhs = 1^3 + 3 = 4 is a square (4^5 - 1 = 93 * 11) with roots
    # 2 and 9, one per sign bit.
    assert pow(4, 5) - 1 == 93 * 11
    assert {decompress_x(1, sign, TOY) for sign in (0, 1)} == {(1, 2), (1, 9)}


def test_toy_chain_rhs_one_all_zero_quotients():
    # x = 4: 4^3 = 64 = 9 = -2, so rhs = 1, whose roots are 1 and 10.
    assert (4**3 + 3) % 11 == 1
    assert roots(4) == {1, 10}


@pytest.mark.parametrize("x_val,expected", [(0, True), (1, True), (3, False), (5, False), (7, True)])
def test_toy_chain_agrees_with_modexp(x_val, expected):
    # decompress_x finds a point exactly when Euler's criterion holds
    assert bool(roots(x_val)) == expected
    assert (pow((x_val**3 + 3) % 11, 5, 11) == 1) == expected


def test_real_square_root_satisfied_for_residue():
    x_val = next(x for x in range(100, 400) if BN254.is_signing_x(x))
    y_val = BN254.sqrt(BN254.rhs(x_val))
    assert roots(x_val, BN254) == {y_val, BIG_P - y_val}
    non_residue = next(x for x in range(100, 400) if not BN254.is_signing_x(x))
    assert roots(non_residue, BN254) == set()


def test_square_root_gadget_size():
    # the point costs the statement only the five linear constraints
    # binding the public x limbs and sign bit to the digest
    cred = Credential((Claim("h", "age", "33"),))
    ceas = CEAS.from_index_sets(1, [[0]])
    wit = hash_to_curve_witness(0, cred[0], 1, ceas, TOY)
    cs = build_statement(cred, ceas, {0: wit}, (0,), profile_name="toy11").cs
    assert cs.num_public == 5
    index = cs.var_index()
    touching = {idx for var in range(1, 6) for idx in index[var]}
    assert len(touching) == 5
    lins = range(len(cs.bools), len(cs.bools) + len(cs.lins))
    assert all(idx in lins for idx in touching)


# -- constraint system plumbing ----------------------------------------------------

def test_dump_and_uniform_view():
    bd = RecordingBuilder()
    a = bd.bit(1)
    b = bd.bit(0)
    c = bd.alloc(0)
    bd.add_r1(((a, 1),), ((b, 1),), ((c, 1),))
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
    bd = RecordingBuilder()
    bits = [bd.bit(rng.randrange(2)) for _ in range(5)]
    bd.add_lin(tuple((b, 1 << j) for j, b in enumerate(bits)) + ((0, -bd.lc_val(tuple((b, 1 << j) for j, b in enumerate(bits)))),))
    cs = bd.cs
    index = cs.var_index()
    covered = set()
    for var, idxs in index.items():
        covered.update(idxs)
    assert covered == set(range(len(cs)))


def test_public_allocation_must_precede_witness():
    bd = Builder()
    bd.alloc_public(1)
    bd.alloc(2)
    with pytest.raises(StatementError):
        bd.alloc_public(3)


def test_checking_builder_matches_first_violation():
    """The verifier's builder evaluates a linear constraint mod the field
    exactly as ConstraintSystem.first_violation evaluates it, for values
    below, at and above the modulus, and a refusal names the region and
    the constraint.  A bit decomposition of a value that does not fit its
    width holds the value's low bits, and the linear constraint tying
    them to the value then fails: the builder refuses exactly the values
    whose recorded decomposition first_violation refuses.  It evaluates
    no product or booleanity constraint, whose values it computed."""
    f = ConstraintSystem().field
    pool = (0, 1, 2, 3, 4, f - 1, f, f + 1, 2 * f + 1)

    def lin(bd, w):
        bd.add_lin(((bd.alloc(w[0]), 1), (bd.alloc(w[1]), 1), (0, -1)))

    def decomposition(bd, w):
        value = bd.alloc(w[0])
        bits = bd.bits_of(bd.lc_val(((value, 1),)), 2)
        bd.add_lin(((value, 1), (bits[0], -1), (bits[1], -2)))

    for name, (arity, emit) in {"lin": (2, lin), "bits_of": (1, decomposition)}.items():
        verdicts = set()
        for w in product(pool, repeat=arity):
            recorder = RecordingBuilder()
            emit(recorder, w)
            bd = Builder()
            bd.region = "claim 0, predicate"
            try:
                emit(bd, w)
                accepted = True
            except ConstraintViolation as exc:
                accepted = False
                assert str(exc) == "claim 0, predicate: lin constraint 0 fails", (name, w)
            assert accepted == recorder.cs.satisfied(recorder.values), (name, w)
            assert bd.values == recorder.values, (name, w)
            verdicts.add(accepted)
        assert verdicts == {True, False}, name
    bd = Builder()
    bd.add_bool(bd.alloc(2))
    bd.add_r1(((1, 1),), ((1, 1),), ((0, 1),))
    assert (bd.n_bools, bd.n_r1s) == (1, 1)
