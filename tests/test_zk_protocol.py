"""Statement building, the transparent backend, and full proof flows."""

import json
import random
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blsces import bls, formats
from blsces.ces import ces_extract, ces_sign
from blsces.credential import MAX_CEAS_SUBSETS, MAX_CEAS_WIDTH, CEAS, Claim, Credential, ExtractionSet, encode_claim_message
from blsces.errors import ConstraintViolation, EncodingError, ProofTooLargeError, StatementError, ValidationError
from blsces.groups import decompress_x
from blsces.groups.params import BN254, TOY
from blsces.zk import (
    BackendParams,
    EqualsPredicate,
    Proof,
    RangePredicate,
    TRANSPARENT_BACKEND,
    build_statement,
    hash_to_curve_witness,
    prove_extraction,
    synthesize,
    zk_setup,
    zk_verify,
)
from blsces.zk import backend, sha256_gadget, statement
from blsces.zk.r1cs import Builder, CheckingBuilder, ConstraintSystem, RecordingBuilder, bit_view
from blsces.zk.sha256 import sha256_pad
from blsces.zk.statement import PublicInputs, _skeleton, prover_layout, public_assignment

rng = random.Random(17)

TOY_CEAS = CEAS.from_index_sets(1, [[0]])
# all 63 subsets of six claims: 71 canonical bytes, so every message's
# first secret byte (at offset 87) lies in block 1 and block 0 is hashed
# outside the system
WIDE_CEAS = CEAS.from_index_sets(6, [[i for i in range(6) if m >> i & 1] for m in range(1, 64)])
FILLER = tuple(Claim("h", "p", "v") for _ in range(5))


def toy_statement(value="33", predicate=None, claim=None):
    cred = Credential((claim or Claim("h", "age", value),))
    (_, _), wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, TOY)
    return build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate, profile_name="toy11"), wit


# -- statement building ------------------------------------------------------------

def test_toy_statement_satisfied():
    res, _ = toy_statement()
    assert res.cs.satisfied(res.values)
    assert res.cs.num_public == 5  # 4 limbs + sign


class PerBitChecker(CheckingBuilder):
    """The checking builder on its per-bit path alone: the reference the
    word path is held to."""

    def alloc_bits(self, bits, bools=0, lins=0, r1s=0):
        return None

    def word_value(self, lits):
        return None


def checked_constraints(monkeypatch, res):
    """Check res's assignment with the per-bit checker, recording every
    constraint it evaluates in the form the prover stores it; returns the
    record and the checker's counts."""
    seen = ConstraintSystem()
    bits_of, add_bool, add_lin, add_r1 = (
        CheckingBuilder.bits_of, CheckingBuilder.add_bool, CheckingBuilder.add_lin, CheckingBuilder.add_r1
    )

    def rec_bits_of(bd, value, width):
        bits = bits_of(bd, value, width)
        seen.bools.extend(bits)
        return bits

    def rec_bool(bd, var):
        add_bool(bd, var)
        seen.bools.append(var)

    def rec_lin(bd, lc):
        add_lin(bd, lc)
        seen.lins.append(tuple(lc))

    def rec_r1(bd, a_lc, b_lc, c_lc):
        add_r1(bd, a_lc, b_lc, c_lc)
        seen.r1s.append((tuple(a_lc), tuple(b_lc), tuple(c_lc)))

    with monkeypatch.context() as m:
        for name, fn in (("bits_of", rec_bits_of), ("add_bool", rec_bool), ("add_lin", rec_lin), ("add_r1", rec_r1)):
            m.setattr(CheckingBuilder, name, fn)
        checked = synthesize(res.layout, PerBitChecker(list(res.values)))
    assert checked.values is None
    return seen, checked.cs


def sizes(cs):
    return len(cs.bools), len(cs.lins), len(cs.r1s), cs.num_vars, cs.num_public


def bn254_statement(value="33", predicate=None):
    cred = Credential((Claim("h", "age", value),))
    (_, _), wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, BN254)
    return build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate)


def wide_statement(claim, profile=TOY, predicate=None):
    """One claim under WIDE_CEAS, whose block 0 is hashed outside."""
    cred = Credential((claim,) + FILLER)
    (_, _), wit = hash_to_curve_witness(0, cred[0], 6, WIDE_CEAS, profile)
    return build_statement(cred, WIDE_CEAS, {0: wit}, (0,), predicate=predicate, profile_name=profile.name)


def test_checker_checks_what_the_prover_proved(monkeypatch):
    """Bit literals fold on their structure, never on values: on the
    prover's assignment the per-bit checker evaluates exactly the
    constraints the prover stored, for two witnesses of one shape, with
    and without a range predicate, over two in-circuit blocks, after a
    prefix hashed outside, and on both profiles.  The checker as the
    verifier runs it, on its word path, accepts each assignment with the
    same per-kind counts; test_word_path_verdicts_match_per_bit holds
    its verdicts on mutated assignments to the per-bit checker's."""
    res33, _ = toy_statement("33")
    res44, _ = toy_statement("44")
    seen33, counts33 = checked_constraints(monkeypatch, res33)
    seen44, _ = checked_constraints(monkeypatch, res44)
    for seen in (seen33, seen44):
        for res in (res33, res44):
            assert (seen.bools, seen.lins, seen.r1s) == (res.cs.bools, res.cs.lins, res.cs.r1s)
    assert sizes(counts33) == sizes(res33.cs) and len(counts33) == len(res33.cs)
    long_claim, _ = toy_statement(claim=Claim("h", "bio", "x" * 80))
    prefixed = wide_statement(Claim("h", "bio", "x" * 80))
    assert (long_claim.layout.claims[0].first_block, long_claim.layout.claims[0].total_blocks) == (0, 2)
    assert (prefixed.layout.claims[0].first_block, prefixed.layout.claims[0].total_blocks) == (1, 3)
    for res in (
        res33,
        toy_statement("42", RangePredicate(0, 40, 45))[0],
        long_claim,
        prefixed,
        bn254_statement(),
        bn254_statement("42", RangePredicate(0, 18, 65)),
    ):
        seen, counts = checked_constraints(monkeypatch, res)
        assert (seen.bools, seen.lins, seen.r1s) == (res.cs.bools, res.cs.lins, res.cs.r1s)
        assert sizes(counts) == sizes(res.cs)
        word_counts = synthesize(res.layout, CheckingBuilder(list(res.values))).cs
        assert sizes(word_counts) == sizes(res.cs) and len(word_counts) == len(res.cs)


def test_prover_computes_what_the_recorder_records():
    """The storing-nothing prover's builder yields the recording builder's
    assignment and sizes, on both profiles, for one and two claims, with
    a range predicate, an equals predicate, a claim of two in-circuit
    blocks and claims whose first block is hashed outside."""
    claims = (Claim("h", "age", "42"), Claim("h", "country", "CH"), Claim("h", "bio", "x" * 80))
    cred = Credential(claims)
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [2], [0, 2]])
    wide = Credential(claims + FILLER[:3])
    cases = [
        (cred, ceas, (0,), RangePredicate(0, 40, 45)),
        (cred, ceas, (0, 1), EqualsPredicate(1, "CH")),
        (cred, ceas, (2,), None),
        (cred, ceas, (0, 2), RangePredicate(0, 18, 65)),
        (wide, WIDE_CEAS, (0, 2), RangePredicate(0, 18, 65)),
    ]
    for profile in (TOY, BN254):
        for c, policy, idxs, predicate in cases:
            wits = {i: hash_to_curve_witness(i, c[i], len(c), policy, profile)[1] for i in idxs}
            layout, witness = prover_layout(c, policy, wits, idxs, predicate, profile.name)
            recorded = synthesize(layout, RecordingBuilder(), witness)
            proved = synthesize(layout, Builder(), witness)
            assert recorded.cs.satisfied(recorded.values)
            assert proved.values == recorded.values, (profile.name, idxs)
            assert sizes(proved.cs) == sizes(recorded.cs) and len(proved.cs) == len(recorded.cs), (profile.name, idxs)
    assert [cl.first_block for cl in layout.claims] == [1, 1]
    assert [cl.total_blocks for cl in layout.claims] == [2, 3]


class PerBitBuilder(Builder):
    """The prover's builder on its per-bit path alone."""

    def word_value(self, variables):
        return None


def test_block_path_matches_per_bit_across_alignments():
    """For every value length 0..63 under a one-claim policy, and a few
    under WIDE_CEAS (block 0 hashed outside), the prover's builder, which
    takes whole blocks, yields exactly the values and per-kind counts of
    a per-bit builder, and the checker accepts its assignment with those
    counts; neither makes a per-bit xor or Ch.  Between them these
    lengths put public and secret bytes at every alignment against a
    word, cross the 55/56-byte padding spill, and give one to three
    in-circuit blocks."""
    in_circuit = set()
    for policy, filler, lengths in ((TOY_CEAS, (), range(64)), (WIDE_CEAS, FILLER, (0, 19, 20, 57, 90, 100))):
        for n in lengths:
            cred = Credential((Claim("h", "bio", "v" * n),) + filler)
            wit = hash_to_curve_witness(0, cred[0], len(cred), policy, TOY)[1]
            layout, witness = prover_layout(cred, policy, {0: wit}, (0,), None, "toy11")
            per_bit = synthesize(layout, PerBitBuilder(), witness)
            with sha256_gadget.GadgetCalls() as spy:
                block = synthesize(layout, Builder(), witness)
                checked = synthesize(layout, CheckingBuilder(block.values)).cs
            assert block.values == per_bit.values, (policy.n, n)
            assert sizes(block.cs) == sizes(per_bit.cs) == sizes(checked), (policy.n, n)
            assert spy.per_bit == 0, (policy.n, n)
            cl = layout.claims[0]
            in_circuit.add(cl.total_blocks - cl.first_block)
    assert in_circuit == {1, 2, 3}


def test_honest_zk_range_makes_no_per_bit_calls():
    """An honest prove and check of the benchmark's zk-range shape (BN254,
    claims {0} and {0, 1} of three, a range predicate on claim 0) takes
    every compression whole: no per-bit xor or Ch gadget runs."""
    setup = zk_setup(rng=random.Random(0x2A))
    cred = Credential((Claim("holder", "age", "42"), Claim("holder", "country", "QZ"), Claim("holder", "member", "0f1e2d3c")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
    signed = ces_sign(setup.keypair.sk, cred, ceas)
    with sha256_gadget.GadgetCalls() as spy:
        for idxs in ({0}, {0, 1}):
            x = ExtractionSet(frozenset(idxs))
            proof, inputs = prove_extraction(setup.backend_params, cred, ceas, x, RangePredicate(0, 18, 65))
            result = zk_verify(setup.backend_params, setup.keypair.pk, ces_extract(signed, x).sigma, proof, inputs)
            assert result.accept, result.code
    assert spy.per_bit == 0


def test_prove_extraction_bytes_are_the_recorded_packing(monkeypatch):
    """A proof carries the header and the recorded synthesis's values as
    their class bytes and wide words, for one and two claims.
    The prover synthesizes once, through the statement module's
    ``synthesize`` (where tracing wraps it), with a builder that records
    nothing."""
    builders = []

    def spy(layout, bd, witness=None):
        builders.append(type(bd))
        return synthesize(layout, bd, witness)

    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    for idxs in ((0,), (0, 1)):
        monkeypatch.setattr(statement, "synthesize", spy)
        proof, inputs = prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset(idxs)), RangePredicate(0, 18, 65))
        monkeypatch.undo()
        assert builders == [Builder], builders
        builders.clear()
        wits = {i: hash_to_curve_witness(i, cred[i], 2, ceas)[1] for i in idxs}
        res = build_statement(cred, ceas, wits, idxs, RangePredicate(0, 18, 65))
        header = json.dumps({"backend": "transparent", "layout": res.layout.to_json()}, separators=(",", ":"), sort_keys=True)
        assert proof.data == header.encode() + b"\n" + encoding(res.values), idxs
        assert inputs.x_coords == tuple(w.x for w in wits.values())


def test_checker_verdict_matches_satisfied():
    """For every public variable and 300 seeded single-variable
    mutations, the checker accepts exactly when the prover's system is
    satisfied.  Adding the field modulus changes no residue, so those
    mutations are accepted by both."""
    res, _ = toy_statement("42", RangePredicate(0, 40, 45))
    cs, f = res.cs, res.cs.field
    mrng = random.Random(0xC4EC)
    cases = [(var, 1) for var in range(1, 1 + cs.num_public)]
    for _ in range(300):
        var = mrng.randrange(1, cs.num_vars)
        cases.append((var, mrng.choice((1, f - 1, f, mrng.randrange(1, 1 << 255)))))
    verdicts = []
    for var, delta in cases:
        values = list(res.values)
        values[var] += delta
        try:
            synthesize(res.layout, CheckingBuilder(values))
            accepted = True
        except ConstraintViolation:
            accepted = False
        assert accepted == cs.satisfied(values), (var, delta)
        verdicts.append(accepted)
    assert True in verdicts and False in verdicts


# operations per compression: 48 schedule steps of sigma, sigma, add;
# 64 rounds of sigma, ch, add, sigma, maj, add, add, add; 8 final adds
SCHEDULE_OPS, ROUND_OPS = 48 * 3, 8


def op_kinds(monkeypatch, layout, witness):
    """Synthesize with the recording builder, which runs every
    compression per bit, and name the variables each sha256 word
    operation allocates by kind: "schedule, public bytes" (a schedule
    sigma over a word holding a public byte), "schedule, secret bytes",
    "round, constant state" (a round's sigma, Ch or Maj over a word
    holding a constant: the state entering the first block), "round,
    variables", "addition" and "final add".  Returns kind -> list of
    (start, end) variable ranges, in order."""
    kinds: dict[str, list] = {}
    position = []

    def compress(ops, state, block):
        position.append(0)
        return run_compress(ops, state, block)

    def spy(name, method):
        def run(ops, *words, **kw):
            k = position[-1]
            position[-1] += 1
            start = ops.bd.num_vars
            out = method(ops, *words, **kw)
            constant = any(min(w) <= sha256_gadget.ONE for w in words[:1 if name == "sigma" else 3])
            if name == "add":
                kind = "final add" if k >= SCHEDULE_OPS + 64 * ROUND_OPS else "addition"
            elif k < SCHEDULE_OPS:
                kind = "schedule, " + ("public bytes" if constant else "secret bytes")
            else:
                kind = "round, " + ("constant state" if constant else "variables")
            if ops.bd.num_vars > start:
                kinds.setdefault(kind, []).append((start, ops.bd.num_vars))
            return out

        return run

    run_compress = sha256_gadget._compress
    with monkeypatch.context() as m:
        m.setattr(sha256_gadget, "_compress", compress)
        for name in ("sigma", "ch", "maj", "add"):
            m.setattr(sha256_gadget.PerBitWords, name, spy(name, getattr(sha256_gadget.PerBitWords, name)))
        res = synthesize(layout, RecordingBuilder(), witness)
    return res, kinds


def checker_verdict(builder, layout, values):
    try:
        synthesize(layout, builder(values))
    except ConstraintViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", ["42", "x" * 80], ids=["one-block", "two-block"])
def test_word_path_verdicts_match_per_bit(monkeypatch, value):
    """Over a one-block and a two-block statement, mutations of variables
    of every kind a compression allocates (rounds over the constant
    state, schedule words with public bytes, rounds and schedule words
    over variables only, additions and the final additions) get the
    same verdict from the checker, which takes whole blocks where they
    match, as from its per-bit path alone, with the same region and
    constraint index; the checker accepts exactly when the recorded
    system is satisfied.  Each variable is set to v ^ 1, 2, v + f,
    f - 1 and 256 + v, whose low byte is the bit; a seeded sample
    mutates several variables at once.  Each witness is also sent
    through the backend, whose parsed bit view the checker uses, for the
    same verdict."""
    cred = Credential((Claim("h", "bio", value),))
    (_, _), wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, TOY)
    predicate = RangePredicate(0, 40, 45) if value == "42" else None
    layout, witness = prover_layout(cred, TOY_CEAS, {0: wit}, (0,), predicate, "toy11")
    res, kinds = op_kinds(monkeypatch, layout, witness)
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    cs, f = res.cs, res.cs.field
    index = cs.var_index()
    assert set(kinds) == {
        "schedule, public bytes", "schedule, secret bytes", "round, constant state", "round, variables",
        "addition", "final add",
    }
    assert checker_verdict(CheckingBuilder, layout, list(res.values)) is None
    # the first variable of each kind's first operation, and the last of its last
    targets = {var for ranges in kinds.values() for var in (ranges[0][0], ranges[-1][1] - 1)}
    cases = [{var: res.values[var] ^ 1} for var in sorted(targets)]
    cases += [{var: v} for var in sorted(targets) for v in (2, res.values[var] + f, f - 1, 256 + res.values[var])]
    mrng = random.Random(0x30D)
    lo = 1 + cs.num_public
    for _ in range(12):
        picked = mrng.sample(range(lo, cs.num_vars), mrng.choice((2, 3, 8)))
        cases.append({var: mrng.choice((res.values[var] ^ 1, 2, res.values[var] + f)) for var in picked})
    verdicts = set()
    for mutation in cases:
        values = list(res.values)
        for var, v in mutation.items():
            values[var] = v
        word = checker_verdict(CheckingBuilder, layout, values)
        assert word == checker_verdict(PerBitChecker, layout, values), mutation
        touched = {idx for var in mutation for idx in index[var]}
        assert (word is None) == all(cs.eval_constraint(idx, values) for idx in touched), mutation
        proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(res, values=values))
        assert TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs).detail == (word or ""), mutation
        verdicts.add(word is None)
    assert verdicts == {True, False}


def test_backend_rejects_witness_one_value_short_or_long():
    res, wit = toy_statement("42", RangePredicate(0, 40, 45))
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    for values in (res.values[:-1], res.values + [0]):
        proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(res, values=values))
        assert TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs).code == "witness_shape_mismatch"


def test_unsatisfied_verdict_names_claim_and_block(monkeypatch, issuer, tmp_path):
    """A flipped message bit of claim 1 in a two-claim witness keeps its
    booleanity and first breaks a constraint of claim 1's sha256 block;
    the code stays constraints_unsatisfied and the detail says where, in
    the backend's verdict, in zk_verify's result and on the CLI line.
    Under the wide policy claim 1's first in-circuit block is block 1."""
    cred = Credential((Claim("h", "age", "33"), Claim("h", "bio", "x" * 80)) + FILLER[:4])
    ceas = WIDE_CEAS
    wits = {i: hash_to_curve_witness(i, cred[i], 6, ceas)[1] for i in (0, 1)}
    byte_bits = []
    bits_of = Builder.bits_of

    def recording(bd, value, width):
        bits = bits_of(bd, value, width)
        if width == 8:
            byte_bits.append((bd.region, bits))
        return bits

    with monkeypatch.context() as m:
        m.setattr(Builder, "bits_of", recording)
        res = build_statement(cred, ceas, wits, (0, 1))
    assert res.layout.claims[1].first_block == 1
    region, bits = next(rb for rb in byte_bits if rb[0].startswith("claim 1,"))
    assert region == "claim 1, sha256 block 1"
    values = list(res.values)
    values[bits[0]] ^= 1
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(res, values=values))
    inputs = PublicInputs(
        tuple(wits[i].x for i in (0, 1)), tuple(wits[i].sign_bit for i in (0, 1)), ceas.to_bytes(), (0, 1)
    )
    verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    assert verdict.code == "constraints_unsatisfied"
    assert verdict.detail.startswith("claim 1, sha256 block 1: "), verdict.detail
    assert TRANSPARENT_BACKEND.verify(BackendParams(), TRANSPARENT_BACKEND.prove(BackendParams(), res), inputs)

    # the pairing holds, and the proof's detail is carried to the result
    pres = ces_extract(ces_sign(issuer.sk, cred, ceas), ExtractionSet(frozenset({0, 1})))
    r = zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs)
    assert not r.accept and r.pairing_ok and not r.proof_ok and r.detail == verdict.detail
    honest = zk_verify(BackendParams(), issuer.pk, pres.sigma, TRANSPARENT_BACKEND.prove(BackendParams(), res), inputs)
    assert honest.accept and honest.detail == ""
    files = {
        "pubkey": formats.public_key_to_json(issuer.pk),
        "bundle": formats.proof_bundle_to_json(proof, inputs, pres.sigma),
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(formats.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "blsces.cli", "zk-verify"] + [a for n in files for a in (f"--{n}", str(tmp_path / f"{n}.json"))],
        capture_output=True,
        text=True,
    )
    (line,) = proc.stdout.splitlines()
    diag = json.loads(line)
    assert proc.returncode == 1 and (diag["code"], diag["detail"]) == (r.code, verdict.detail), proc


def test_skeleton_builds_only_the_suffix():
    """The prefix, and the segments from the block of the first secret
    byte on, equal those cut from the whole zeroed message, for every
    split of small component lengths, empty components included, under a
    narrow policy (nothing hashed outside) and a wide one (block 0
    hashed outside), with the padding spilling into a block of its own or
    not.  A declared length builds nothing of its size, and a length the
    4-byte prefix cannot hold is refused."""
    shapes = set()
    for ceas in (CEAS.from_index_sets(6, [[0], [0, 1, 2]]), WIDE_CEAS):
        ceas_bytes = ceas.to_bytes()
        for ls in (0, 1, 7):
            for lp in (0, 3):
                for lv in range(150):
                    lens = (ls, lp, lv)
                    base = encode_claim_message(ceas, 6, 1, Claim("\x00" * ls, "\x00" * lp, "\x00" * lv))
                    msg_len = len(base) + 1
                    full = base + b"\x00" + sha256_pad(msg_len)
                    spans, pos = [], 4 + len(ceas_bytes) + 8
                    for length, kind in zip(lens, ("subject", "property", "value")):
                        if length:
                            spans.append((pos + 4, length, kind))
                        pos += 4 + length
                    spans.append((pos, 1, "counter"))
                    start = 64 * (spans[0][0] // 64)
                    prefix, segments = _skeleton(ceas_bytes, 6, 1, lens)
                    cl = statement.build_claim_layout(ceas_bytes, 1, lens)
                    assert (cl.msg_len, prefix) == (msg_len, full[:start]), lens
                    assert segments[0][0] == start, lens
                    rebuilt = b"".join(bytes(data) if kind else data for _, data, kind in segments)
                    assert rebuilt == full[start:], lens
                    assert [(off, data, kind) for off, data, kind in segments if kind] == spans, lens
                    assert (cl.first_block, cl.total_blocks) == (start // 64, len(full) // 64), lens
                    shapes.add((start // 64, (len(full) - start) // 64))
    assert {first for first, _ in shapes} == {0, 1}
    assert {blocks for _, blocks in shapes} == {1, 2, 3, 4}
    ceas_bytes = WIDE_CEAS.to_bytes()
    prefix, segments = _skeleton(ceas_bytes, 6, 1, (0, 0, (1 << 32) - 1))
    assert statement.build_claim_layout(ceas_bytes, 1, (0, 0, (1 << 32) - 1)).msg_len == 4 + len(ceas_bytes) + 8 + 12 + (1 << 32)
    assert len(prefix) + sum(len(data) for _, data, kind in segments if not kind) <= 4 + len(ceas_bytes) + 8 + 12 + 72
    for lens in ((1 << 32, 0, 0), (0, -1, 0)):
        with pytest.raises(StatementError):
            _skeleton(ceas_bytes, 6, 1, lens)


def test_statement_missing_witness():
    cred = Credential((Claim("h", "a", "1"), Claim("h", "b", "2")))
    ceas = CEAS.from_index_sets(2, [[0, 1]])
    (_, _), wit = hash_to_curve_witness(0, cred[0], 2, ceas, TOY)
    with pytest.raises(StatementError, match="missing"):
        build_statement(cred, ceas, {0: wit}, (0, 1), profile_name="toy11")


def test_statement_rejects_hidden_claim():
    cred = Credential((Claim("h", "a", "1").hide(),))
    with pytest.raises(StatementError):
        build_statement(cred, TOY_CEAS, {}, (0,), profile_name="toy11")


def test_statement_perturbed_root_unsatisfied():
    """The statement holds no root; it pins the pair (x, sign) the verifier
    decompresses.  Only the hashed x and its sign bit satisfy it."""
    (_, _), wit = hash_to_curve_witness(0, Claim("h", "age", "33"), 1, TOY_CEAS, TOY)
    cred = Credential((Claim("h", "age", "33"),))
    for x in range(11):
        for sign in (0, 1):
            res = build_statement(
                cred, TOY_CEAS, {0: replace(wit, x=x, sign_bit=sign)}, (0,), profile_name="toy11"
            )
            assert res.cs.satisfied(res.values) == ((x, sign) == (wit.x, wit.sign_bit)), (x, sign)


def test_statement_shape_ignores_policy_size():
    """The statement proves no policy membership, so 64 more subsets do
    not grow it.  Under policies of 49 and 113 subsets of eight claims,
    64 canonical bytes apart, a claim's first secret byte sits at the
    same offset of its first in-circuit block (1 and 2), and one block
    is in-circuit.  The statements differ only where the prefix states'
    constant bits fold Ch products in round 1, at most 32 of them; the
    booleanity and linear constraints are the same."""
    shapes = []
    for count in (49, 113):
        ceas = CEAS.from_index_sets(8, [[i for i in range(8) if m >> i & 1] for m in range(1, count + 1)])
        cred = Credential((Claim("h", "age", "7" * 30),) + tuple(Claim("h", "p", "v") for _ in range(7)))
        (_, _), wit = hash_to_curve_witness(0, cred[0], 8, ceas, BN254)
        res = build_statement(cred, ceas, {0: wit}, (0,))
        cl = res.layout.claims[0]
        assert cl.total_blocks - cl.first_block == 1
        assert res.cs.satisfied(res.values)
        shapes.append((cl.first_block, len(res.cs.bools), len(res.cs.lins), len(res.cs.r1s), res.cs.num_vars, res.cs.num_public))
    (first0, *fixed0, r1s0, vars0, pub0), (first1, *fixed1, r1s1, vars1, pub1) = shapes
    assert (first0, first1) == (1, 2)
    assert fixed0 == fixed1 and pub0 == pub1 == 5
    assert abs(r1s0 - r1s1) <= 32 and vars0 - vars1 == r1s0 - r1s1


def test_statement_multiblock_prehash():
    """A long value pushes the message over one block: from the IV both
    blocks are in-circuit, and under the wide policy block 0 is hashed
    outside and its state enters as constants.  Both are satisfiable with
    five public inputs, the checker accepts them, and a flipped last
    carry bit is caught in the last block."""
    long_claim = Claim("h", "bio", "x" * 80)
    for res, blocks in ((toy_statement(claim=long_claim)[0], (0, 2)), (wide_statement(long_claim), (1, 3))):
        cl = res.layout.claims[0]
        assert (cl.first_block, cl.total_blocks) == blocks
        assert res.cs.num_public == 5
        assert res.cs.satisfied(res.values)
        synthesize(res.layout, CheckingBuilder(list(res.values)))
        values = list(res.values)
        values[-1] ^= 1
        with pytest.raises(ConstraintViolation, match=f"^claim 0, sha256 block {blocks[1] - 1}: "):
            synthesize(res.layout, CheckingBuilder(values))


def test_statement_direct_evaluation_oracle_toy():
    """Satisfiability agrees with recomputing the hash and the predicate
    outside the constraint system, across random inputs."""
    for trial in range(40):
        value = str(rng.randrange(10, 99))
        claim = Claim("h", "age", value)
        (_, _), wit = hash_to_curve_witness(0, claim, 1, TOY_CEAS, TOY)
        lo, hi = sorted((rng.randrange(10, 99), rng.randrange(10, 99)))
        predicate = RangePredicate(0, lo, hi)
        cred = Credential((claim,))
        res = build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate, profile_name="toy11")
        assert res.cs.satisfied(res.values) == (lo <= int(value) <= hi)


# -- predicates ----------------------------------------------------------------------

def test_range_predicate_inside_and_outside():
    ok, _ = toy_statement("42", RangePredicate(0, 40, 45))
    assert ok.cs.satisfied(ok.values)
    bad, _ = toy_statement("46", RangePredicate(0, 40, 45))
    assert not bad.cs.satisfied(bad.values)
    edge_lo, _ = toy_statement("40", RangePredicate(0, 40, 45))
    assert edge_lo.cs.satisfied(edge_lo.values)
    edge_hi, _ = toy_statement("45", RangePredicate(0, 40, 45))
    assert edge_hi.cs.satisfied(edge_hi.values)


def test_range_predicate_rejects_non_digit():
    res, _ = toy_statement("4x", RangePredicate(0, 0, 99))
    assert not res.cs.satisfied(res.values)


def test_equals_predicate():
    ok, _ = toy_statement("CH", EqualsPredicate(0, "CH"))
    assert ok.cs.satisfied(ok.values)
    bad, _ = toy_statement("DE", EqualsPredicate(0, "CH"))
    assert not bad.cs.satisfied(bad.values)
    with pytest.raises(StatementError):
        toy_statement("CHX", EqualsPredicate(0, "CH"))


def test_predicate_must_target_disclosed_claim():
    with pytest.raises(StatementError):
        toy_statement("42", RangePredicate(1, 0, 99))


# -- transparent backend ----------------------------------------------------------------

def test_backend_roundtrip_toy():
    res, wit = toy_statement("27")
    params = BackendParams()
    proof = TRANSPARENT_BACKEND.prove(params, res)
    inputs = PublicInputs(
        x_coords=(wit.x,),
        sign_bits=(wit.sign_bit,),
        ceas_bytes=TOY_CEAS.to_bytes(),
        extraction=(0,),
    )
    assert TRANSPARENT_BACKEND.verify(params, proof, inputs)
    # same proof against altered public x: reject
    bad = replace(inputs, x_coords=((wit.x + 1) % 11,))
    verdict = TRANSPARENT_BACKEND.verify(params, proof, bad)
    assert not verdict and verdict.code == "public_inputs_mismatch"


def test_backend_rejects_garbage():
    params = BackendParams()
    inputs = PublicInputs((1,), (0,), TOY_CEAS.to_bytes(), (0,))
    assert TRANSPARENT_BACKEND.verify(params, Proof(b"junk"), inputs).code == "malformed_proof"


def encoding(values):
    """A witness's class bytes and wide words, value by value."""
    classes = bytes(b"01"[v] if v in (0, 1) else ord("2") for v in values)
    return classes + b"\n" + b"".join(v.to_bytes(32, "big") for v in values if v not in (0, 1))


FLIP_BIT = bytes.maketrans(b"01", b"10")

F = ConstraintSystem().field
EDGE_VALUES = (0, 1, 255, 256, F - 1, F, (1 << 256) - 1)
TOY_RES = toy_statement("27")[0]
TOY_HEADER = TRANSPARENT_BACKEND.prove(BackendParams(), TOY_RES).data.split(b"\n", 1)[0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 9000),
    seed=st.integers(0, 1 << 32),
    edges=st.dictionaries(st.integers(0, 8999), st.sampled_from(EDGE_VALUES) | st.integers(0, (1 << 256) - 1), max_size=6),
)
def test_parse_inverts_prove(n, seed, edges):
    """prove writes each value's class byte and each wide value's word,
    and parse returns the values with ``bit_view(values)`` as their bit
    classes, which cannot be changed once parsed, for bit witnesses with
    edge values anywhere in them; a negative value still raises
    OverflowError."""
    r = random.Random(seed)
    values = [r.getrandbits(1) for _ in range(n)]
    for k, v in edges.items():
        if k < n:
            values[k] = v
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(TOY_RES, values=values))
    assert proof.data == TOY_HEADER + b"\n" + encoding(values)
    layout, parsed = TRANSPARENT_BACKEND.parse(proof)
    assert layout == TOY_RES.layout
    assert parsed == values and parsed.bits == bit_view(values)
    if values:
        with pytest.raises(TypeError):
            parsed[0] = 1
        values[seed % n] = -1 - seed
        with pytest.raises(OverflowError):
            TRANSPARENT_BACKEND.prove(BackendParams(), replace(TOY_RES, values=values))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CLASSES = st.binary(max_size=40) | st.lists(st.sampled_from(b"012"), max_size=40).map(bytes)
WIDE = st.binary(max_size=100) | st.lists(st.integers(0, (1 << 256) - 1), max_size=3).map(
    lambda vs: b"".join(v.to_bytes(32, "big") for v in vs)
)


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=300)
    | st.builds(lambda blob: TOY_HEADER + b"\n" + blob, st.binary(max_size=300))
    | st.builds(lambda classes, wide: TOY_HEADER + b"\n" + classes + b"\n" + wide, CLASSES, WIDE)
    | st.builds(
        lambda meta, classes, wide: json.dumps(meta).encode() + b"\n" + classes + b"\n" + wide,
        st.fixed_dictionaries({"backend": st.just("transparent") | JSON, "layout": JSON}) | JSON,
        CLASSES,
        WIDE,
    )
)
def test_parse_any_bytes_ends_in_encoding_error_or_a_parse(data):
    try:
        layout, values = TRANSPARENT_BACKEND.parse(Proof(data))
    except EncodingError:
        return
    classes = data.split(b"\n", 2)[1]
    assert len(values) == len(classes) and values.bits == classes == bit_view(values)


def test_backend_witness_cap_boundary():
    """A witness of exactly the cap parses, with its class bytes as its
    bit classes; one value more is too large, and is refused before any
    list of its values is built (8 bytes a value) and before any copy of
    the body: the refusal allocates less than 64 KB."""
    cap = backend.MAX_WITNESS_VALUES
    at_cap = Proof(TOY_HEADER + b"\n11" + b"0" * (cap - 3) + b"2\n" + (7).to_bytes(32, "big"))
    layout, values = TRANSPARENT_BACKEND.parse(at_cap)
    assert len(values) == cap and values[:3] == [1, 1, 0] and values[-1] == 7
    assert values.bits == bit_view(values)
    over = Proof(TOY_HEADER + b"\n" + b"0" * (cap + 1) + b"\n")
    tracemalloc.start()
    try:
        with pytest.raises(ProofTooLargeError):
            TRANSPARENT_BACKEND.parse(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16), peak


def test_backend_header_cap_boundary():
    """A header of exactly the cap parses; one byte more is too large, and
    is refused before json.loads reads it: the refusal allocates less
    than 64 KB."""
    cap = backend.MAX_HEADER_BYTES
    at_cap = TOY_HEADER + b" " * (cap - len(TOY_HEADER))
    layout, values = TRANSPARENT_BACKEND.parse(Proof(at_cap + b"\n11\n"))
    assert layout.profile_name == "toy11" and values == [1, 1]
    over = Proof(at_cap + b" \n11\n")
    tracemalloc.start()
    try:
        with pytest.raises(ProofTooLargeError):
            TRANSPARENT_BACKEND.parse(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16), peak


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(b"", id="no-separator"),
        pytest.param(b"\n1010", id="one-separator"),
        pytest.param(b"\n10a1\n", id="bad-class-byte"),
        pytest.param(b"\n10 1\n", id="space-class-byte"),
        pytest.param(b"\n102\n", id="wide-missing"),
        pytest.param(b"\n102\n" + (5).to_bytes(32, "big")[1:], id="wide-short"),
        pytest.param(b"\n102\n" + (5).to_bytes(32, "big") + bytes(1), id="wide-long"),
        pytest.param(b"\n10\n" + (5).to_bytes(32, "big"), id="wide-unclaimed"),
        pytest.param(b"\n102\n" + (0).to_bytes(32, "big"), id="wide-zero"),
        pytest.param(b"\n102\n" + (1).to_bytes(32, "big"), id="wide-one"),
    ],
)
def test_backend_refuses_malformed_witness(body):
    """A body after the header that no witness encodes to is malformed:
    a missing separator, a class byte outside 012, wide words short or
    long for the class-2 count, or a wide value that is a bit."""
    _, wit = toy_statement("27")
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    proof = Proof(TOY_HEADER + body)
    with pytest.raises(EncodingError) as exc:
        TRANSPARENT_BACKEND.parse(proof)
    assert not isinstance(exc.value, ProofTooLargeError)
    verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    assert not verdict and verdict.code == "malformed_proof" and verdict.predicate is None


def test_backend_refuses_a_deflated_proof():
    """A proof in the earlier format, one zlib stream of 32-byte words
    after the header, is malformed."""
    res, wit = toy_statement("27")
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    assert TRANSPARENT_BACKEND.verify(BackendParams(), TRANSPARENT_BACKEND.prove(BackendParams(), res), inputs)
    words = b"".join(v.to_bytes(32, "big") for v in res.values)
    deflated = Proof(TOY_HEADER + b"\n" + zlib.compress(words, 6))
    with pytest.raises(EncodingError):
        TRANSPARENT_BACKEND.parse(deflated)
    assert TRANSPARENT_BACKEND.verify(BackendParams(), deflated, inputs).code == "malformed_proof"


def test_backend_memory_ignores_declared_lengths():
    """A header may declare any component length, and the message length
    follows from it.  The verifier builds only the in-circuit suffix of
    the message, so a 50 MB value length costs no more memory than an
    honest proof and is refused as a shape mismatch."""
    res, wit = toy_statement("27")
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), res)
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    claim = res.layout.to_json()["claims"][0]
    tampered = with_layout(proof, claims=[dict(claim, len_value=50_000_000)])
    verdict, peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), tampered, inputs)
    assert verdict.code == "witness_shape_mismatch"
    assert peak < 5 << 20, peak


def test_backend_memory_ignores_declared_lengths_over_a_long_witness():
    """All secret bytes are in-circuit, so a declared length is checked
    against the assignment before any byte is built: a 50 MB value over
    an honest witness padded to 200,000 values is refused as a shape
    mismatch holding little more than the parsed witness, where building
    its 25,000 bytes would take some 20 MB."""
    res, wit = toy_statement("27")
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(res, values=res.values + [0] * 200_000))
    claim = res.layout.to_json()["claims"][0]
    tampered = with_layout(proof, claims=[dict(claim, len_value=50_000_000)])
    verdict, peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), tampered, inputs)
    assert verdict.code == "witness_shape_mismatch"
    assert peak < 16 << 20, peak


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prover_stores_no_constraints():
    """A two-claim BN254 proof with a range predicate is made without
    holding its ~60,000 constraints, and verifying it peaks no higher
    than parsing it plus checking its values as a plain list."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH"), Claim("holder", "tier", "3")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 1, 2]])
    args = (BackendParams(), cred, ceas, ExtractionSet(frozenset({0, 1})), RangePredicate(0, 18, 65))
    prove_extraction(*args)  # fill the hash caches outside the measurement
    (proof, inputs), prove_peak = traced_peak(prove_extraction, *args)
    verdict, verify_peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), proof, inputs)
    (layout, values), parse_peak = traced_peak(TRANSPARENT_BACKEND.parse, proof)
    plain = list(values)
    _, check_peak = traced_peak(lambda: synthesize(layout, CheckingBuilder(plain)))
    assert verdict
    assert prove_peak < 8 << 20, prove_peak
    assert verify_peak <= 1.1 * (parse_peak + check_peak), (verify_peak, parse_peak, check_peak)


def test_public_assignment_layout_mismatch():
    res, wit = toy_statement("27")
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    vals = public_assignment(res.layout, inputs)
    assert vals == res.values[1: 1 + res.cs.num_public]
    with pytest.raises(StatementError):
        public_assignment(res.layout, replace(inputs, extraction=(0, 1), x_coords=(1, 2), sign_bits=(0, 0)))


# -- full protocol, real field -------------------------------------------------------------

def test_zk_setup_twice_independent_keys_same_params():
    s1 = zk_setup(rng=random.Random(1))
    s2 = zk_setup(rng=random.Random(2))
    assert s1.keypair.sk != s2.keypair.sk
    assert s1.backend_params == s2.backend_params  # empty transparent params


def test_zk_setup_keypair_round_trips_through_ces():
    setup = zk_setup(rng=random.Random(9))
    cred = Credential((Claim("h", "p", "v"),))
    ceas = CEAS.from_index_sets(1, [[0]])
    sc = ces_sign(setup.keypair.sk, cred, ceas)
    pres = ces_extract(sc, ExtractionSet(frozenset({0})))
    from blsces.ces import ces_verify

    assert ces_verify(setup.keypair.pk, pres)


@pytest.fixture(scope="module")
def zk_env():
    setup = zk_setup(rng=random.Random(0xB15CE5))
    cred = Credential(
        (Claim("holder", "age", "19"), Claim("holder", "country", "CH"), Claim("holder", "tier", "3"))
    )
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 1, 2]])
    sc = ces_sign(setup.keypair.sk, cred, ceas)
    x = ExtractionSet(frozenset({0, 1}))
    pres = ces_extract(sc, x)
    proof, inputs = prove_extraction(setup.backend_params, cred, ceas, x)
    return setup, cred, ceas, sc, pres, proof, inputs


def test_zk_end_to_end_accepts(zk_env):
    setup, _, _, _, pres, proof, inputs = zk_env
    res = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, inputs)
    assert res.accept and res.code == "ok"
    assert res.policy_ok and res.pairing_ok and res.proof_ok


def test_zk_verify_runs_two_pairs(zk_env, pairs_seen):
    setup, _, _, _, pres, proof, inputs = zk_env
    assert len(inputs.extraction) == 2
    assert zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, inputs).accept
    assert pairs_seen == [2]


def test_zk_prove_requires_policy_membership(zk_env):
    setup, cred, ceas, *_ = zk_env
    with pytest.raises(ValidationError):
        prove_extraction(setup.backend_params, cred, ceas, ExtractionSet(frozenset({1})))


def test_zk_conjunct_isolation(zk_env):
    setup, cred, ceas, sc, pres, proof, inputs = zk_env
    pk = setup.keypair.pk

    # policy failure: hand the verifier a policy excluding X.  The proof
    # binds the policy it was built under, so its conjunct fails too (see
    # test_zk_policy_conjunct_implied_by_proof); the code names the policy.
    narrowed = CEAS.from_index_sets(3, [[0]])
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, replace(inputs, ceas_bytes=narrowed.to_bytes()))
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (False, True, False)
    assert r.code == "policy_rejected" and not r.accept

    # pairing-only failure: aggregate from a different extraction
    other = ces_extract(sc, ExtractionSet(frozenset({0})))
    r = zk_verify(setup.backend_params, pk, other.sigma, proof, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, False, True)
    assert r.code == "pairing_failed" and not r.accept

    # proof-only failure: flip the last witness bit
    header, classes, wide = proof.data.split(b"\n", 2)
    assert classes[-1:] in (b"0", b"1")
    broken = Proof(b"\n".join((header, classes[:-1] + classes[-1:].translate(FLIP_BIT), wide)))
    r = zk_verify(setup.backend_params, pk, pres.sigma, broken, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code.startswith("proof_rejected") and not r.accept


def test_zk_verify_rejects_oversized_witness(zk_env):
    """A body of one class byte more than the cap is refused with its own
    code before the witness is built."""
    setup, _, _, _, pres, proof, inputs = zk_env
    header = proof.data.split(b"\n", 1)[0]
    oversized = Proof(header + b"\n" + b"0" * (backend.MAX_WITNESS_VALUES + 1) + b"\n")
    with pytest.raises(ProofTooLargeError):
        TRANSPARENT_BACKEND.parse(oversized)
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, oversized, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code == "proof_rejected:proof_too_large" and not r.accept and r.predicate is None


def test_zk_verify_reports_the_proven_predicate(zk_env):
    """The result names the predicate the proof's layout proves: None for
    a proof made with no predicate, the descriptor for a range."""
    setup, cred, ceas, _, pres, proof, inputs = zk_env
    pk = setup.keypair.pk
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, inputs)
    assert r.accept and r.predicate is None
    ranged, ranged_inputs = prove_extraction(
        setup.backend_params, cred, ceas, ExtractionSet(frozenset({0, 1})), RangePredicate(0, 18, 65)
    )
    r = zk_verify(setup.backend_params, pk, pres.sigma, ranged, ranged_inputs)
    assert r.accept and r.predicate == RangePredicate(0, 18, 65).describe()
    assert TRANSPARENT_BACKEND.verify(setup.backend_params, ranged, ranged_inputs).predicate == r.predicate
    # reported on a rejection too, wherever the proof parsed
    flipped = replace(ranged_inputs, sign_bits=(1 - ranged_inputs.sign_bits[0],) + ranged_inputs.sign_bits[1:])
    r = zk_verify(setup.backend_params, pk, pres.sigma, ranged, flipped)
    assert not r.accept and r.code == "pairing_failed" and r.predicate == RangePredicate(0, 18, 65).describe()


def test_zk_verify_binds_the_expected_predicate(zk_env):
    """A verifier that expects range:0:18:65 accepts only a proof of that
    range: a proof of no predicate, of other bounds, or of another kind
    verifies on its own but is refused as predicate_rejected."""
    setup, cred, ceas, _, pres, proof, inputs = zk_env
    pk = setup.keypair.pk
    want = RangePredicate(0, 18, 65)
    x = ExtractionSet(frozenset({0, 1}))
    others = [(proof, inputs)]
    for other in (RangePredicate(0, 0, 99), RangePredicate(0, 18, 64), EqualsPredicate(0, "19")):
        others.append(prove_extraction(setup.backend_params, cred, ceas, x, other))
    for p, i in others:
        assert zk_verify(setup.backend_params, pk, pres.sigma, p, i).accept
        r = zk_verify(setup.backend_params, pk, pres.sigma, p, i, predicate=want)
        assert not r.accept and r.code == "predicate_rejected"
        assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, True)
    exact, exact_inputs = prove_extraction(setup.backend_params, cred, ceas, x, want)
    r = zk_verify(setup.backend_params, pk, pres.sigma, exact, exact_inputs, predicate=want)
    assert r.accept and r.code == "ok" and r.predicate == want.describe()
    # a failed proof keeps its own code, whatever predicate it names
    flipped = replace(inputs, sign_bits=(1 - inputs.sign_bits[0],) + inputs.sign_bits[1:])
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, flipped, predicate=want)
    assert not r.accept and r.code == "pairing_failed"


def test_zk_verify_binds_the_proved_policy(zk_env):
    """Inputs naming another policy that also allows the extraction do
    not verify: the claim messages were encoded under the proof's policy."""
    setup, _, ceas, _, pres, proof, inputs = zk_env
    other = CEAS.from_index_sets(3, [[0, 1]])
    assert other != ceas and other.to_bytes() != inputs.ceas_bytes
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, replace(inputs, ceas_bytes=other.to_bytes()))
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code == "proof_rejected:statement_rebuild_failed" and not r.accept


def test_zk_policy_conjunct_implied_by_proof(zk_env):
    """An extraction the issuer's policy excludes never verifies.  The
    statement does not prove membership, so a holder who aggregates the
    per-claim signatures themselves gets a satisfied statement and a
    valid pairing; the policy conjunct alone rejects."""
    setup, cred, _, _, _, _, _ = zk_env
    narrowed = CEAS.from_index_sets(3, [[0]])
    idxs = (0, 1)
    sc = ces_sign(setup.keypair.sk, cred, narrowed)
    sigma = bls.aggregate([sc.sigs[i] for i in idxs])
    wits = {i: hash_to_curve_witness(i, cred[i], len(cred), narrowed)[1] for i in idxs}
    res = build_statement(cred, narrowed, wits, idxs)
    assert res.cs.satisfied(res.values)
    inputs = PublicInputs(
        tuple(wits[i].x for i in idxs), tuple(wits[i].sign_bit for i in idxs), narrowed.to_bytes(), idxs
    )
    proof = TRANSPARENT_BACKEND.prove(setup.backend_params, res)
    r = zk_verify(setup.backend_params, setup.keypair.pk, sigma, proof, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (False, True, True)
    assert r.code == "policy_rejected" and not r.accept


def test_zk_malformed_ext_sig_distinct_code(zk_env):
    setup, _, _, _, _, proof, inputs = zk_env

    bad_sig = bls.Signature(b"\x40\x01" + b"\x00" * 30)
    r = zk_verify(setup.backend_params, setup.keypair.pk, bad_sig, proof, inputs)
    assert not r.accept and not r.pairing_ok and r.code == "malformed_signature"


def test_zk_verify_rejects_identity_key(zk_env):
    # An honest proof with the identity aggregate under the identity key
    # must not pass the pairing conjunct.
    _, _, _, _, _, proof, inputs = zk_env
    from blsces.groups import G1_IDENTITY_BYTES, G2_IDENTITY

    r = zk_verify(BackendParams(), G2_IDENTITY, bls.Signature(G1_IDENTITY_BYTES), proof, inputs)
    assert not r.accept and not r.pairing_ok and r.code == "invalid_public_key"


def test_zk_bundle_extraction_mismatch_rejected(zk_env):
    setup, _, _, _, pres, proof, inputs = zk_env
    # public inputs claiming a different index set than the proof layout
    shifted = replace(
        inputs,
        extraction=(0, 2),
    )
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, shifted)
    # the rebuilt statement cannot bind these inputs, so the proof
    # conjunct fails regardless of what the policy conjunct says
    assert not r.accept and not r.proof_ok


def with_layout(proof: Proof, **fields) -> Proof:
    """The proof with fields of its header's layout replaced."""
    header, blob = proof.data.split(b"\n", 1)
    meta = json.loads(header)
    meta["layout"].update(fields)
    return Proof(json.dumps(meta).encode() + b"\n" + blob)


def test_zk_verify_rejects_malformed_statement_description(zk_env):
    """A header whose predicate or policy describes no valid statement is
    rejected with statement_rebuild_failed; nothing is raised."""
    setup, _, _, _, pres, proof, inputs = zk_env
    pk = setup.keypair.pk
    good = {"kind": "range", "claim_index": 0, "low": 18, "high": 65}
    for predicate in (
        {"kind": "range"},
        "range",
        dict(good, low="x"),
        dict(good, claim_index=None),
        dict(good, kind="greater"),
        ["range", 0, 18, 65],
    ):
        r = zk_verify(setup.backend_params, pk, pres.sigma, with_layout(proof, predicate=predicate), inputs)
        assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False), predicate
        assert r.code == "proof_rejected:statement_rebuild_failed", predicate
    # a policy of no subsets, or one wider than its width, in both the
    # layout and the public inputs: no policy allows the extraction, and
    # the statement cannot be rebuilt
    for ceas_bytes in (struct.pack(">II", 3, 0), struct.pack(">II", 3, 1) + b"\xff"):
        bad_inputs = replace(inputs, ceas_bytes=ceas_bytes)
        bad_proof = with_layout(proof, ceas=ceas_bytes.hex())
        verdict = TRANSPARENT_BACKEND.verify(setup.backend_params, bad_proof, bad_inputs)
        assert verdict.code == "statement_rebuild_failed"
        r = zk_verify(setup.backend_params, pk, pres.sigma, bad_proof, bad_inputs)
        assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (False, True, False)
        assert r.code == "policy_rejected" and not r.accept


def test_zk_verify_rejects_x_off_the_curve(zk_env):
    """The statement does not prove x is on the curve; zk_verify's
    decompression rejects an x with no curve point, or one >= p."""
    setup, _, _, _, pres, proof, inputs = zk_env
    non_residue_x = next(x for x in range(2, 100) if BN254.sqrt(BN254.rhs(x)) is None)
    for bad_x in (non_residue_x, BN254.p, BN254.p + inputs.x_coords[0]):
        bad = replace(inputs, x_coords=(bad_x,) + inputs.x_coords[1:])
        r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, bad)
        assert not r.accept and not r.pairing_ok and r.code == "decompress_failed", bad_x
    # toy11: the x with a point are those where x^3 + 3 is a square, zero
    # included (x = 2 gives the point (2, 0)); x >= 11 is out of range
    for x in range(16):
        for sign in (0, 1):
            if x in (0, 1, 2, 4, 7, 8):
                px, py = decompress_x(x, sign, TOY)
                assert px == x and (py * py - TOY.rhs(x)) % 11 == 0
            else:
                with pytest.raises(EncodingError):
                    decompress_x(x, sign, TOY)
    assert decompress_x(2, 0, TOY) == decompress_x(2, 1, TOY) == (2, 0)


def test_zk_tampered_public_x_rejected(zk_env):
    setup, _, _, _, pres, proof, inputs = zk_env
    bad = replace(inputs, x_coords=(inputs.x_coords[0] ^ 1, inputs.x_coords[1]))
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, bad)
    assert not r.accept and not r.pairing_ok and not r.proof_ok


def test_zk_sign_bit_flip_negates_point_and_rejects(zk_env):
    setup, _, _, _, pres, proof, inputs = zk_env
    for k in range(len(inputs.sign_bits)):
        flipped = tuple(b ^ 1 if i == k else b for i, b in enumerate(inputs.sign_bits))
        r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, replace(inputs, sign_bits=flipped))
        assert not r.accept and not r.pairing_ok


def test_zk_cross_credential_proof_swap(zk_env):
    setup, cred, ceas, sc, pres, proof, inputs = zk_env
    other_cred = Credential(
        (Claim("holder", "age", "77"), Claim("holder", "country", "DE"), Claim("holder", "tier", "1"))
    )
    other_sc = ces_sign(setup.keypair.sk, other_cred, ceas)
    other_pres = ces_extract(other_sc, ExtractionSet(frozenset({0, 1})))
    other_proof, other_inputs = prove_extraction(setup.backend_params, other_cred, ceas, ExtractionSet(frozenset({0, 1})))

    # both honest flows accept
    assert zk_verify(setup.backend_params, setup.keypair.pk, other_pres.sigma, other_proof, other_inputs).accept
    # swapped: proof of one credential with the other's inputs/signature
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, other_proof, inputs)
    assert not r.accept
    r = zk_verify(setup.backend_params, setup.keypair.pk, other_pres.sigma, proof, other_inputs)
    assert not r.accept


def test_zk_verify_acceptance_matches_ces_and_predicate(zk_env):
    """For honest inputs the conjunction equals plain presentation
    verification AND the predicate value."""
    from blsces.ces import ces_verify

    setup, cred, ceas, sc, _, _, _ = zk_env
    x = ExtractionSet(frozenset({0, 1}))
    pres = ces_extract(sc, x)
    for lo, hi, expect_pred in ((18, 65, True), (30, 65, False)):
        if expect_pred:
            proof, inputs = prove_extraction(
                setup.backend_params, cred, ceas, x, predicate=RangePredicate(0, lo, hi)
            )
            r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, inputs)
            assert r.accept == (bool(ces_verify(setup.keypair.pk, pres)) and expect_pred)
        else:
            # an honest prover cannot satisfy the failing predicate; the
            # produced assignment leaves the system unsatisfied
            proof, inputs = prove_extraction(
                setup.backend_params, cred, ceas, x, predicate=RangePredicate(0, lo, hi)
            )
            r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, inputs)
            assert not r.accept and not r.proof_ok


# -- the public prefix and the profile are the verifier's ------------------------------

LONG_SUBJECT = "did:example:123456789abcdefghi"


@pytest.fixture(scope="module")
def long_env():
    """Three claims whose messages of 71-81 bytes straddle blocks 0 and 1,
    under a policy that never allows claim 1 alone, and honest proofs of
    claim 1 by itself, which the policy does not let anyone present:
    without a predicate, and with "claim 1 in [30, 50]"."""
    setup = zk_setup(rng=random.Random(0x10C))
    cred = Credential(
        (Claim(LONG_SUBJECT, "age", "19"), Claim(LONG_SUBJECT, "score", "42"), Claim(LONG_SUBJECT, "country", "CH"))
    )
    ceas = CEAS.from_index_sets(3, [[0], [0, 2], [0, 1, 2]])
    sc = ces_sign(setup.keypair.sk, cred, ceas)
    wits = {i: hash_to_curve_witness(i, cred[i], 3, ceas)[1] for i in range(3)}
    proofs = []
    for predicate in (None, RangePredicate(1, 30, 50)):
        layout, witness = prover_layout(cred, ceas, wits, (1,), predicate)
        proofs.append(TRANSPARENT_BACKEND.prove(BackendParams(), synthesize(layout, Builder(), witness)))
    return setup, cred, ceas, sc, wits, layout, proofs


def test_zk_verify_straddling_claims(long_env):
    """Every claim's secret triple starts in block 0 and ends in block 1,
    so both blocks are in-circuit; an honest proof of claims {0, 2} with a
    range predicate verifies, and the statement has two blocks a claim."""
    setup, cred, ceas, sc, _, layout, _ = long_env
    assert layout.claims[0].index == 1
    for i in range(3):
        msg_len = len(encode_claim_message(ceas, 3, i, cred[i])) + 1
        assert 71 <= msg_len <= 81
    assert (layout.claims[0].first_block, layout.claims[0].total_blocks) == (0, 2)
    x = ExtractionSet(frozenset({0, 2}))
    proof, inputs = prove_extraction(setup.backend_params, cred, ceas, x, RangePredicate(0, 18, 65))
    r = zk_verify(setup.backend_params, setup.keypair.pk, ces_extract(sc, x).sigma, proof, inputs)
    assert r.accept and r.code == "ok"


def test_zk_verify_rejects_relabelled_claim(long_env):
    """Claim 1's honest proof, relabelled as claim 0 with extraction {0}
    (which the policy allows), is presented with x(H(M1)) and sigma_1,
    and so is the one whose range predicate, relabelled "claim 0 in
    [30, 50]", was proved over claim 1's value.  The policy and the
    pairing hold, and the proof fails, because n and i enter the
    statement as the verifier's constants."""
    setup, _, ceas, sc, wits, _, proofs = long_env
    inputs = PublicInputs((wits[1].x,), (wits[1].sign_bit,), ceas.to_bytes(), (0,))
    for proof in proofs:
        predicate = json.loads(proof.data.split(b"\n", 1)[0])["layout"]["predicate"]
        if predicate is not None:
            predicate = dict(predicate, claim_index=0)
        relabelled = with_layout(proof, extraction=[0], predicate=predicate)
        r = zk_verify(setup.backend_params, setup.keypair.pk, sc.sigs[1], relabelled, inputs)
        assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False), predicate
        assert r.code == "proof_rejected:constraints_unsatisfied", r.code


def test_zk_verify_rejects_swapped_policy(long_env):
    """Claim 1's honest proof under another width-3 policy of the same
    byte length, one that allows {1}, is rejected: the policy bytes enter
    the statement as constants."""
    setup, _, ceas, sc, wits, _, (proof, _) = long_env
    other = CEAS.from_index_sets(3, [[1], [0, 2], [0, 1, 2]])
    assert len(other.to_bytes()) == len(ceas.to_bytes()) and other != ceas
    inputs = PublicInputs((wits[1].x,), (wits[1].sign_bit,), other.to_bytes(), (1,))
    r = zk_verify(setup.backend_params, setup.keypair.pk, sc.sigs[1], with_layout(proof, ceas=other.to_bytes().hex()), inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code == "proof_rejected:constraints_unsatisfied"


def test_zk_verify_accepts_only_bn254(zk_env):
    """An honest proof whose header names the toy profile, which binds
    only a few bits of x, is rejected by zk_verify with its own code;
    the backend alone, asked for no profile, still checks it."""
    setup, _, _, _, pres, proof, inputs = zk_env
    toy = with_layout(proof, profile="toy11")
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, toy, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code == "proof_rejected:profile_rejected"
    assert TRANSPARENT_BACKEND.verify(setup.backend_params, toy, inputs).code != "profile_rejected"


# -- hostile headers in bounded time and memory ------------------------------------------
#
# Each shape is the worst of its kind that a proof header can carry, fed
# both to the backend's check and to zk_verify on BN254.  Each must end in
# its own code, under a tracemalloc peak and a wall-time bound of at least
# five times the cost measured on 2 CPUs with Python 3.11.7, so that the
# bounds catch a change of cost class, not noise.

# shape: (backend code, wall seconds, peak MB), for the backend check and
# zk_verify alike.  Measured, the slower of the two: 0.19 s and 0.49 MB,
# 16 ms and 0.56 MB, 30 ms and 0.56 MB, 84 ms and 0.68 MB.
BUDGETS = {
    "widest_policy": ("ok", 2.0, 4),
    "one_claim_too_many": ("statement_rebuild_failed", 0.25, 4),
    "oversized_header": ("proof_too_large", 0.25, 4),
    "declared_length_2_32": ("witness_shape_mismatch", 0.25, 4),
    "flipped_first_block_bit": ("constraints_unsatisfied", 1.0, 4),
}


class RegionStarts(Builder):
    """The prover's builder, noting the first variable of each region."""

    def __init__(self):
        self._region = ""
        self.starts = {}
        super().__init__()

    @property
    def region(self):
        return self._region

    @region.setter
    def region(self, name):
        self._region = name
        self.starts.setdefault(name, self.num_vars)


def widest_policy_proof(sk):
    """An honest proof of claim 0 of a 1024-claim credential under the
    widest policy accepted, 256 subsets at width 1024: a 32,776-byte
    public prefix that prover and verifier both hash."""
    ceas = CEAS.from_index_sets(MAX_CEAS_WIDTH, [[0]] + [[0, k] for k in range(1, MAX_CEAS_SUBSETS)])
    cred = Credential((Claim("holder", "age", "42"),) + (Claim("holder", "p", "v"),) * (MAX_CEAS_WIDTH - 1))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset({0})), RangePredicate(0, 18, 65))
    return proof, inputs, bls.sign(sk, encode_claim_message(ceas, MAX_CEAS_WIDTH, 0, cred[0]))


def hostile_shapes(sk):
    """Each shape's proof, public inputs and aggregate signature.  The
    three tampered shapes start from an honest two-claim proof with a
    range predicate, the benchmark's zk-range shape."""
    cred = Credential((Claim("holder", "age", "42"), Claim("holder", "country", "QZ"), Claim("holder", "member", "0f1e2d3c")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
    x = ExtractionSet(frozenset({0, 1}))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, x, RangePredicate(0, 18, 65))
    sigma = ces_extract(ces_sign(sk, cred, ceas), x).sigma
    claims = json.loads(proof.data.split(b"\n", 1)[0])["layout"]["claims"]
    header, classes, wide = proof.data.split(b"\n", 2)
    # the last bit of claim 0's one in-circuit block, so that the checker's
    # per-bit path runs the whole compression before it fails
    wits = {i: hash_to_curve_witness(i, cred[i], len(cred), ceas)[1] for i in x.sorted()}
    layout, witness = prover_layout(cred, ceas, wits, x.sorted(), RangePredicate(0, 18, 65))
    bd = RegionStarts()
    synthesize(layout, bd, witness)
    end = bd.starts["claim 1, sha256 block 0"]
    k = max(classes.rfind(b"0", 0, end), classes.rfind(b"1", 0, end))
    flipped = Proof(b"\n".join((header, classes[:k] + classes[k: k + 1].translate(FLIP_BIT) + classes[k + 1:], wide)))
    return {
        "widest_policy": widest_policy_proof(sk),
        "one_claim_too_many": (with_layout(proof, claims=claims + claims[:1]), inputs, sigma),
        # 10^5 claim entries too many: a 5.5 MB header
        "oversized_header": (with_layout(proof, claims=claims + claims[:1] * 100_000), inputs, sigma),
        "declared_length_2_32": (with_layout(proof, claims=[dict(claims[0], len_value=(1 << 32) - 1), claims[1]]), inputs, sigma),
        "flipped_first_block_bit": (flipped, inputs, sigma),
    }


@pytest.fixture(scope="module")
def shapes(issuer):
    return hostile_shapes(issuer.sk)


def measure(fn, *args):
    """The call's result, its wall time untraced, and its tracemalloc peak
    in MB on a second call."""
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, traced_peak(fn, *args)[1] / (1 << 20)


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_hostile_header_is_refused_within_budget(name, shapes, issuer):
    code, max_seconds, max_mb = BUDGETS[name]
    proof, inputs, sigma = shapes[name]
    verdict, seconds, peak = measure(TRANSPARENT_BACKEND.verify, BackendParams(), proof, inputs)
    assert verdict.code == code, verdict
    assert seconds < max_seconds and peak < max_mb, (seconds, peak)
    result, seconds, peak = measure(zk_verify, BackendParams(), issuer.pk, sigma, proof, inputs)
    assert result.code == (code if code == "ok" else f"proof_rejected:{code}"), result
    assert result.policy_ok and result.pairing_ok
    assert seconds < max_seconds and peak < max_mb, (seconds, peak)


def test_flipped_first_block_bit_takes_the_per_bit_path(shapes):
    """The flipped bit misses the checker's block slice, so the verdict
    is the per-bit constraints', naming claim 0's first block."""
    proof, inputs, _ = shapes["flipped_first_block_bit"]
    with sha256_gadget.GadgetCalls() as spy:
        verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    assert spy.per_bit > 0
    assert verdict.detail.startswith("claim 0, sha256 block 0: "), verdict.detail


def test_prove_refuses_a_policy_of_another_width():
    """A policy narrower or wider than the credential is long is refused
    at prove time, though the extraction is in the policy."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    for ceas in (CEAS.from_index_sets(1, [[0]]), CEAS.from_index_sets(3, [[0], [0, 1]])):
        with pytest.raises(StatementError, match="policy width"):
            prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset({0})))
