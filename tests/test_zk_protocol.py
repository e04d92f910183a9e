"""Statement building, the transparent backend, and full proof flows."""

import hashlib
import json
import random
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blsces import bls, formats
from blsces.ces import ces_extract, ces_sign
from blsces.credential import MAX_CEAS_SUBSETS, MAX_CEAS_WIDTH, CEAS, Claim, Credential, ExtractionSet, encode_claim_message
from blsces.errors import ConstraintViolation, EncodingError, ProofTooLargeError, StatementError, ValidationError
from blsces.groups import decompress_x
from blsces.groups.params import BN254, R, TOY
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
from blsces.zk.predicates import predicate_from_descriptor
from blsces.zk.r1cs import Builder, RecordingBuilder, lc_value
from blsces.zk.sha256 import SHA256_IV, sha256_compress, sha256_pad
from blsces.zk.statement import PublicInputs, StatementLayout, _claim_message, prover_layout, public_assignment

rng = random.Random(17)

TOY_CEAS = CEAS.from_index_sets(1, [[0]])
# all 63 subsets of six claims: 71 canonical bytes, so every message's
# first secret byte (at offset 87) lies in block 1 and block 0 is hashed
# outside the system
WIDE_CEAS = CEAS.from_index_sets(6, [[i for i in range(6) if m >> i & 1] for m in range(1, 64)])
FILLER = tuple(Claim("h", "p", "v") for _ in range(5))


def toy_statement(value="33", predicate=None, claim=None):
    cred = Credential((claim or Claim("h", "age", value),))
    wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, TOY)
    return build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate, profile_name="toy11"), wit


# -- statement building ------------------------------------------------------------

def test_toy_statement_satisfied():
    res, _ = toy_statement()
    assert res.cs.satisfied(res.values)
    assert res.cs.num_public == 5  # 4 limbs + sign


class Logged:
    """Over a builder, logs each linear constraint it is handed as
    (region, LC) in ``lins_by_region``, and each claim's digest bits in
    ``digests``."""

    def __init__(self):
        super().__init__()
        self.lins_by_region = []
        self.digests = []

    def add_lin(self, lc):
        super().add_lin(lc)
        self.lins_by_region.append((self.region, tuple(lc)))

    def sha256(self, msg, mask, cl, var):
        self.digests.append(super().sha256(msg, mask, cl, var))
        return self.digests[-1]


class LoggedRecorder(Logged, RecordingBuilder):
    pass


class LoggedChecker(Logged, Builder):
    pass


def assert_checks_recorded(layout, inputs, secret):
    """The verifier's builder, run over the public inputs and the secret
    bytes, checks the recorded system's linear constraints outside the
    compressions, in order and by region: each one it evaluates has the
    next one's coefficients, over variables of the recorded values.
    Each claim's digest bits hold the values of the recorded digest
    words, the public variables the recorded values, and the verifier
    makes no per-bit gadget call.  Returns both builders."""
    recorder, checker = LoggedRecorder(), LoggedChecker()
    recorded = synthesize(layout, recorder, inputs, secret)
    with sha256_gadget.GadgetCalls() as spy:
        checked = synthesize(layout, checker, inputs, secret)
    assert spy.per_bit == 0
    f = recorded.cs.field

    def terms(lins, values):
        return [(region, tuple((values[v], k % f) for v, k in lc)) for region, lc in lins]

    outside = [(region, lc) for region, lc in recorder.lins_by_region if ", sha256 block " not in region]
    assert terms(checker.lins_by_region, checked.values) == terms(outside, recorded.values)
    assert len(checker.digests) == len(recorder.digests) == len(layout.claims)
    for bits, recorded_bits in zip(checker.digests, recorder.digests):
        assert [checked.values[b] for b in bits] == [recorded.values[b] for b in recorded_bits]
    public = range(recorded.cs.num_public + 1)
    assert checked.cs.num_public == recorded.cs.num_public
    assert [checked.values[v] for v in public] == recorded.values[: len(public)]
    return checker, recorder


def statement_args(claim, profile=TOY, predicate=None, ceas=TOY_CEAS):
    """The layout, public inputs and secret bytes of a statement over
    claim 0, alone or, under WIDE_CEAS, before FILLER."""
    cred = Credential((claim,) + (FILLER if ceas is WIDE_CEAS else ()))
    wit = hash_to_curve_witness(0, cred[0], len(cred), ceas, profile)
    return prover_layout(cred, ceas, {0: wit}, (0,), predicate, profile.name)


def test_checker_checks_what_the_prover_proved():
    """Bit literals fold on their structure, never on values: two
    claims of one shape record the same system, and the verifier's
    builder evaluates the same linear constraints over either.  Over
    those, with and without a range predicate, over two in-circuit
    blocks, after a prefix hashed outside, and on both profiles, it
    checks the recorded system's linear constraints outside the
    compressions, in order, and holds the recorded digest
    (``assert_checks_recorded``), while the recorded compressions are
    those of the in-circuit blocks;
    test_word_path_verdicts_match_per_bit holds its verdicts on mutated
    secret bytes to the recorded system's."""
    (checker33, recorder33), (checker44, recorder44) = (
        assert_checks_recorded(*statement_args(Claim("h", "age", v))) for v in ("33", "44")
    )
    assert (recorder33.bools, recorder33.lins, recorder33.r1s) == (recorder44.bools, recorder44.lins, recorder44.r1s)
    assert checker33.lins_by_region == checker44.lins_by_region
    long_claim = Claim("h", "bio", "x" * 80)
    for args, blocks in (
        (statement_args(Claim("h", "age", "42"), predicate=RangePredicate(0, 40, 45)), (0, 1)),
        (statement_args(long_claim), (0, 2)),
        (statement_args(long_claim, ceas=WIDE_CEAS), (1, 3)),
        (statement_args(Claim("h", "age", "33"), BN254), (0, 1)),
        (statement_args(Claim("h", "age", "42"), BN254, RangePredicate(0, 18, 65)), (0, 1)),
    ):
        cl = args[0].claims[0]
        assert (cl.first_block, cl.total_blocks) == blocks
        checker, recorder = assert_checks_recorded(*args)
        assert {region for region, _ in checker.lins_by_region} <= {"claim 0, binding", "claim 0, predicate"}
        compressions = {region for region, _ in recorder.lins_by_region if ", sha256 block " in region}
        assert compressions == {f"claim 0, sha256 block {b}" for b in range(*blocks)}


def test_prover_computes_what_the_recorder_records():
    """The verifier's builder, which stores no constraint and takes no
    compression, regenerates from the public inputs and the secret bytes
    every value a linear constraint outside the compressions reads as
    the recording builder records it, each claim's digest included
    (``assert_checks_recorded``), on both profiles, for one and two
    claims, with a range predicate, an equals predicate, a claim of two
    in-circuit blocks and claims whose first block is hashed outside;
    the recorded systems are satisfied."""
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
            wits = {i: hash_to_curve_witness(i, c[i], len(c), policy, profile) for i in idxs}
            layout, inputs, secret = prover_layout(c, policy, wits, idxs, predicate, profile.name)
            _, recorder = assert_checks_recorded(layout, inputs, secret)
            assert recorder.cs.satisfied(recorder.values), (profile.name, idxs)
    assert [cl.first_block for cl in layout.claims] == [1, 1]
    assert [cl.total_blocks for cl in layout.claims] == [2, 3]


def test_block_path_matches_per_bit_across_alignments():
    """For every value length 0..63 under a one-claim policy, and a few
    under WIDE_CEAS (block 0 hashed outside), the verifier's builder
    accepts the honest bytes, checking the recorded linear constraints
    outside the compressions, over the recorded values, with no per-bit
    xor or Ch (``assert_checks_recorded``).  Between them these lengths
    put public and secret bytes at every alignment against a word, cross
    the 55/56-byte padding spill, and give one to three in-circuit
    blocks."""
    in_circuit = set()
    for policy, filler, lengths in ((TOY_CEAS, (), range(64)), (WIDE_CEAS, FILLER, (0, 19, 20, 57, 90, 100))):
        for n in lengths:
            cred = Credential((Claim("h", "bio", "v" * n),) + filler)
            wit = hash_to_curve_witness(0, cred[0], len(cred), policy, TOY)
            layout, inputs, secret = prover_layout(cred, policy, {0: wit}, (0,), None, "toy11")
            assert_checks_recorded(layout, inputs, secret)
            cl = layout.claims[0]
            in_circuit.add(cl.total_blocks - cl.first_block)
    assert in_circuit == {1, 2, 3}


def test_honest_zk_range_makes_no_per_bit_calls():
    """An honest prove and check of the benchmark's zk-range shape (BN254,
    claims {0} and {0, 1} of three, a range predicate on claim 0) takes
    no compression: no per-bit xor or Ch gadget runs."""
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
    """A proof carries the header and each claim's subject, property and
    value bytes and its counter byte, for one and two claims: the bytes
    the recorded statement was built from.  A one-claim BN254 range
    proof is at most 1 KB.  The prover runs no synthesis."""
    builders = []

    def spy(layout, bd, inputs, secret):
        builders.append(type(bd))
        return synthesize(layout, bd, inputs, secret)

    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    for idxs in ((0,), (0, 1)):
        monkeypatch.setattr(statement, "synthesize", spy)
        monkeypatch.setattr(backend, "synthesize", spy)
        proof, inputs = prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset(idxs)), RangePredicate(0, 18, 65))
        monkeypatch.undo()
        assert builders == [], builders
        wits = {i: hash_to_curve_witness(i, cred[i], 2, ceas) for i in idxs}
        res = build_statement(cred, ceas, wits, idxs, RangePredicate(0, 18, 65))
        header = json.dumps({"backend": "transparent", "layout": res.layout.to_json()}, separators=(",", ":"), sort_keys=True)
        secret = b"".join(
            (cred[i].subject + cred[i].property + cred[i].value).encode() + bytes([wits[i].counter]) for i in idxs
        )
        assert proof.data == header.encode() + b"\n" + secret, idxs
        assert synthesize(res.layout, RecordingBuilder(), inputs, secret).values == res.values
        assert inputs.x_coords == tuple(w.x for w in wits.values())
        if idxs == (0,):
            assert len(proof.data) <= 1024


def checker_verdict(layout, inputs, secret):
    """The verifier's builder's detail for secret bytes it rejects, None
    if it accepts them."""
    try:
        synthesize(layout, Builder(), inputs, secret)
    except ConstraintViolation as exc:
        return str(exc)
    return None


def first_failing_region(layout, inputs, secret):
    """The recorded system rebuilt on the secret bytes: whether it is
    satisfied, the region of its first failing linear constraint in
    emission order (the only kind that can fail on regenerated values),
    and its values."""
    recorder = LoggedRecorder()
    recorded = synthesize(layout, recorder, inputs, secret)
    f = recorded.cs.field
    failing = (region for region, lc in recorder.lins_by_region if lc_value(lc, recorded.values, f))
    return recorded.cs.satisfied(recorded.values), next(failing, None), recorded.values


def mutated(secret, at, byte):
    return secret[:at] + bytes([byte]) + secret[at + 1:]


def verdict_cases():
    """A toy one-claim statement with a range predicate, and its cases: the
    honest secret bytes and public inputs, each public x and sign
    mutated, and 300 seeded single-byte mutations of the secret bytes,
    half of them of the value's digits."""
    layout, inputs, secret = statement_args(Claim("h", "age", "42"), predicate=RangePredicate(0, 40, 45))
    value_at = range(len(secret) - 3, len(secret) - 1)
    assert secret[value_at.start: value_at.stop] == b"42"
    mrng = random.Random(0xC4EC)
    cases = [(inputs, secret)]
    cases += [(replace(inputs, x_coords=(inputs.x_coords[0] ^ 1 << k,)), secret) for k in range(4)]
    cases.append((replace(inputs, sign_bits=(1 - inputs.sign_bits[0],)), secret))
    for m in range(300):
        at = mrng.choice(value_at) if m % 2 else mrng.randrange(len(secret))
        byte = mrng.choice(b"0123456789") if m % 2 else mrng.randrange(256)
        cases.append((inputs, mutated(secret, at, byte)))
    return layout, cases


def test_checker_verdict_matches_satisfied():
    """For each of ``verdict_cases``, the verifier accepts exactly when
    the recorded system, rebuilt on the mutated bytes, is satisfied, and
    a refusal names the region of its first failing constraint.  On the
    toy profile the binding covers five digest bits, so some mutations
    keep it and are refused by the range predicate, or accepted with a
    satisfied system."""
    layout, cases = verdict_cases()
    codes = Counter()
    regions = Counter()
    for case_inputs, case_secret in cases:
        expected, region, _ = first_failing_region(layout, case_inputs, case_secret)
        proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, case_secret)
        verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, case_inputs)
        assert verdict.ok == expected, (case_inputs, case_secret, verdict)
        codes[verdict.code] += 1
        if not expected:
            assert verdict.detail == checker_verdict(layout, case_inputs, case_secret)
            assert verdict.detail.startswith(f"{region}: lin constraint "), (verdict.detail, region)
            regions[region] += 1
    assert codes.keys() == {"ok", "constraints_unsatisfied"}, codes
    assert regions.keys() == {"claim 0, binding", "claim 0, predicate"}, regions


def zk_range_proof(idxs):
    """A proof of claims ``idxs`` of the benchmark's zk-range shape: three
    BN254 claims, a range predicate on claim 0; and its public inputs."""
    cred = Credential((Claim("holder", "age", "42"), Claim("holder", "country", "QZ"), Claim("holder", "member", "0f1e2d3c")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
    return prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset(idxs)), RangePredicate(0, 18, 65))


def test_warm_verify_runs_no_compression_and_no_count_pass(monkeypatch, issuer):
    """A verify runs no plain compression, the first time it sees a proof
    and again, whatever a claim's public prefix: the zk-range shape
    (BN254, claims 0 and 1, a range predicate), whose claims have none;
    two toy claims whose first in-circuit block is block 1; and a BN254
    claim under the widest policy, whose first 512 blocks are public.
    The recording builder still hashes each claim's public prefix
    outside the system, one plain compression per block before its
    first in-circuit one."""
    calls = Counter()
    for module in [m for name, m in sys.modules.items() if name.startswith("blsces")]:
        if hasattr(module, "sha256_compress"):
            def counted(*args, original=module.sha256_compress):
                calls["sha256_compress"] += 1
                return original(*args)

            monkeypatch.setattr(module, "sha256_compress", counted)
    zk_range = zk_range_proof({0, 1})
    wide = Credential((Claim("h", "age", "33"), Claim("h", "bio", "x" * 80)) + FILLER[:4])
    wits = {i: hash_to_curve_witness(i, wide[i], 6, WIDE_CEAS, TOY) for i in (0, 1)}
    layout, inputs, secret = prover_layout(wide, WIDE_CEAS, wits, (0, 1), None, TOY.name)
    assert [cl.first_block for cl in layout.claims] == [1, 1]
    wide_proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret)
    widest, widest_inputs, _ = widest_policy_proof(issuer.sk)
    prefixes = []
    for proof, inputs in (zk_range, (wide_proof, inputs), (widest, widest_inputs)):
        parsed, secret = TRANSPARENT_BACKEND.parse(proof)
        prefixes.append(sum(cl.first_block for cl in parsed.claims))
        for _ in range(2):
            calls.clear()
            assert TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
            assert calls["sha256_compress"] == 0, calls
        synthesize(parsed, RecordingBuilder(), inputs, secret)
        assert calls["sha256_compress"] == prefixes[-1], (calls, prefixes)
    assert prefixes[:2] == [0, 2] and prefixes[2] >= 512, prefixes


def test_layout_builds_each_claim_once_per_verify(monkeypatch):
    """A layout builds its claims' shapes once: verifying a proof of one
    claim, and of two, builds each claim's layout once."""
    built = []
    original = statement.build_claim_layout
    monkeypatch.setattr(statement, "build_claim_layout", lambda *args: built.append(args[1]) or original(*args))
    for idxs in ({0}, {0, 1}):
        proof, inputs = zk_range_proof(idxs)
        built.clear()
        assert TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
        assert built == sorted(idxs), built


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.tuples(st.text(max_size=12), st.text(max_size=12), st.text(max_size=150)), min_size=6, max_size=6),
    st.sets(st.integers(0, 5), min_size=1, max_size=3),
)
def test_digest_is_the_chained_compressions(components, extraction):
    """Under WIDE_CEAS, whose policy bytes fill more than a block, so that
    each claim's first in-circuit block is past block 0, for one to
    three claims whose values may span several blocks: sha256 over each
    claim's unpadded message (hashlib) is the chain of plain
    compressions from the IV over its padded message, which the
    circuit's compressions compute, and the verifier's builder, which
    keeps that digest, holds the recorded digest words' values and checks
    the recorded linear constraints outside the compressions
    (``assert_checks_recorded``)."""
    cred = Credential(tuple(Claim(*parts) for parts in components))
    idxs = tuple(sorted(extraction))
    wits = {i: hash_to_curve_witness(i, cred[i], 6, WIDE_CEAS, TOY) for i in idxs}
    layout, inputs, secret = prover_layout(cred, WIDE_CEAS, wits, idxs, None, TOY.name)
    taken = 0
    for cl in layout.claims:
        size = sum(cl.lens) + 1
        msg, _ = _claim_message(layout.ceas_bytes, 6, cl.index, cl.lens, secret[taken: taken + size])
        taken += size
        state = SHA256_IV
        for k in range(0, len(msg), 64):
            state = sha256_compress(state, msg[k: k + 64])
        assert hashlib.sha256(msg[: cl.msg_len]).digest() == struct.pack(">8I", *state)
        assert cl.first_block > 0
    assert_checks_recorded(layout, inputs, secret)


# operations per compression: 48 schedule steps of sigma, sigma, add;
# 64 rounds of sigma, ch, add, sigma, maj, add, add, add; 8 final adds
SCHEDULE_OPS, ROUND_OPS = 48 * 3, 8


def op_kinds(monkeypatch, layout, inputs, secret):
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
        res = synthesize(layout, RecordingBuilder(), inputs, secret)
    return res, kinds


def secret_word(layout):
    """The message word holding claim 0's first secret byte."""
    cl = layout.claims[0]
    _, mask = _claim_message(layout.ceas_bytes, 1, cl.index, cl.lens, bytes(sum(cl.lens) + 1))
    return mask.index(0xFF) // 4


@pytest.mark.parametrize("value", ["42", "x" * 80], ids=["one-block", "two-block"])
def test_word_path_verdicts_match_per_bit(monkeypatch, value):
    """Over a one-block and a two-block statement, secret-byte mutations
    (one bit of each byte, or a sample of them, flipped; each byte set to
    0 and 255 in turn; and a seeded sample changing several bytes at
    once) regenerate witnesses that differ from the honest one in
    variables of every kind a compression allocates (schedule words with
    public bytes, rounds and schedule words over variables only,
    additions and the final additions) but the rounds over the constant
    state, rounds 0-2, which read only public message words: the first
    secret byte is in word 6.  The verifier's builder, which takes every block whole,
    refuses each exactly when the recorded per-bit system, rebuilt on
    those bytes, is unsatisfied, naming the region of the first
    constraint it fails, and the backend gives the same verdict without
    a per-bit gadget call."""
    cred = Credential((Claim("h", "bio", value),))
    wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, TOY)
    predicate = RangePredicate(0, 40, 45) if value == "42" else None
    layout, inputs, secret = prover_layout(cred, TOY_CEAS, {0: wit}, (0,), predicate, "toy11")
    res, kinds = op_kinds(monkeypatch, layout, inputs, secret)
    assert set(kinds) == {
        "schedule, public bytes", "schedule, secret bytes", "round, constant state", "round, variables",
        "addition", "final add",
    }
    assert checker_verdict(layout, inputs, secret) is None
    cl = layout.claims[0]
    assert cl.total_blocks - cl.first_block == (1 if value == "42" else 2)
    mrng = random.Random(0x30D)
    positions = range(len(secret)) if len(secret) <= 16 else sorted({0, len(secret) - 1, *mrng.sample(range(len(secret)), 14)})
    cases = [{at: secret[at] ^ 1 << mrng.randrange(8)} for at in positions]
    cases += [{at: byte} for at in (0, len(secret) - 1) for byte in (0, 255) if secret[at] != byte]
    for _ in range(6):
        cases.append({at: mrng.randrange(256) for at in mrng.sample(range(len(secret)), mrng.choice((2, 3)))})
    changed_kinds = set()
    for mutation in cases:
        case = bytes(mutation.get(at, b) for at, b in enumerate(secret))
        satisfied, region, regenerated = first_failing_region(layout, inputs, case)
        word = checker_verdict(layout, inputs, case)
        assert (word is None) == satisfied, mutation
        if word is not None:
            assert word.startswith(f"{region}: "), (mutation, word)
        changed_kinds |= {kind for kind, ranges in kinds.items()
                          if any(regenerated[v] != res.values[v] for start, end in ranges for v in range(start, end))}
        proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, case)
        with sha256_gadget.GadgetCalls() as spy:
            verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
        assert spy.per_bit == 0, mutation
        assert (verdict.ok, verdict.detail) == (word is None, word or ""), mutation
    assert secret_word(layout) == 6
    assert changed_kinds == set(kinds) - {"round, constant state"}


def test_backend_rejects_witness_one_value_short_or_long():
    """Secret bytes one short or one long for the layout are refused as a
    shape mismatch, and prove refuses to write them."""
    layout, inputs, secret = statement_args(Claim("h", "age", "42"), predicate=RangePredicate(0, 40, 45))
    header = TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret).data.split(b"\n", 1)[0]
    for wrong in (secret[:-1], secret + b"\0"):
        with pytest.raises(StatementError):
            TRANSPARENT_BACKEND.prove(BackendParams(), layout, wrong)
        proof = Proof(header + b"\n" + wrong)
        assert TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs).code == "witness_shape_mismatch"


class ByteRegions(Builder):
    """The verifier's builder, noting the region of each bit
    decomposition, in order: message bytes and predicate values."""

    def __init__(self):
        super().__init__()
        self.regions = []

    def bits_of(self, value, width):
        self.regions.append(self.region)
        return super().bits_of(value, width)

    def message_bits(self, data, kept):
        self.regions.append(self.region)
        return super().message_bits(data, kept)


def test_unsatisfied_verdict_names_claim_and_block(issuer, tmp_path):
    """A flipped bit of claim 1's first secret byte in a two-claim proof
    regenerates another message, and the recorded system rebuilt on
    those bytes first fails claim 1's binding of x and sign to the
    digest; the code stays constraints_unsatisfied and the detail says
    where, in the backend's verdict, in zk_verify's result and on the CLI
    line.  Under the wide policy claim 1's first in-circuit block, which
    holds that byte, is block 1."""
    cred = Credential((Claim("h", "age", "33"), Claim("h", "bio", "x" * 80)) + FILLER[:4])
    ceas = WIDE_CEAS
    wits = {i: hash_to_curve_witness(i, cred[i], 6, ceas) for i in (0, 1)}
    layout, inputs, secret = prover_layout(cred, ceas, wits, (0, 1), None)
    assert [cl.first_block for cl in layout.claims] == [1, 1]
    byte_regions = ByteRegions()
    synthesize(layout, byte_regions, inputs, secret)
    assert next(r for r in byte_regions.regions if r.startswith("claim 1,")) == "claim 1, sha256 block 1"
    at = sum(layout.claims[0].lens) + 1  # claim 1's first secret byte
    flipped = mutated(secret, at, secret[at] ^ 1)
    assert first_failing_region(layout, inputs, flipped)[:2] == (False, "claim 1, binding")
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, flipped)
    verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    assert verdict.code == "constraints_unsatisfied"
    assert verdict.detail.startswith("claim 1, binding: "), verdict.detail
    assert TRANSPARENT_BACKEND.verify(BackendParams(), TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret), inputs)

    # the pairing holds, and the proof's detail is carried to the result
    pres = ces_extract(ces_sign(issuer.sk, cred, ceas), ExtractionSet(frozenset({0, 1})))
    r = zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs)
    assert not r.accept and r.pairing_ok and not r.proof_ok and r.detail == verdict.detail
    honest = zk_verify(BackendParams(), issuer.pk, pres.sigma, TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret), inputs)
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


def test_claim_message_matches_the_signed_encoding():
    """The message ``synthesize`` hashes is the signed encoding, the
    counter byte and the sha256 padding, and its mask marks exactly the
    three components and the counter, for every split of small
    component lengths, empty components included, under a narrow policy
    (nothing hashed outside) and a wide one (block 0 hashed outside),
    with the padding spilling into a block of its own or not.  The
    layout's message length, first in-circuit block and block count,
    read from the lengths alone, agree with the mask, and a length the
    4-byte prefix cannot hold is refused."""
    shapes = set()
    for ceas in (CEAS.from_index_sets(6, [[0], [0, 1, 2]]), WIDE_CEAS):
        ceas_bytes = ceas.to_bytes()
        for ls in (0, 1, 7):
            for lp in (0, 3):
                for lv in range(150):
                    lens = (ls, lp, lv)
                    claim = Claim("s" * ls, "p" * lp, "v" * lv)
                    secret = ("s" * ls + "p" * lp + "v" * lv).encode() + b"\x5a"
                    base = encode_claim_message(ceas, 6, 1, claim) + b"\x5a"
                    msg, mask = _claim_message(ceas_bytes, 6, 1, lens, secret)
                    assert msg == base + sha256_pad(len(base)), lens
                    want = bytearray(len(msg))
                    pos = 4 + len(ceas_bytes) + 8
                    for length in lens:
                        want[pos + 4: pos + 4 + length] = b"\xff" * length
                        pos += 4 + length
                    want[pos] = 0xFF
                    assert mask == want, lens
                    cl = statement.build_claim_layout(ceas_bytes, 1, lens)
                    assert cl.msg_len == len(base) == mask.rindex(0xFF) + 1, lens
                    assert (cl.first_block, cl.total_blocks) == (mask.index(0xFF) // 64, len(msg) // 64), lens
                    shapes.add((cl.first_block, cl.total_blocks - cl.first_block))
    assert {first for first, _ in shapes} == {0, 1}
    assert {blocks for _, blocks in shapes} == {1, 2, 3, 4}
    ceas_bytes = WIDE_CEAS.to_bytes()
    assert statement.build_claim_layout(ceas_bytes, 1, (0, 0, (1 << 32) - 1)).msg_len == 4 + len(ceas_bytes) + 8 + 12 + (1 << 32)
    for lens in ((1 << 32, 0, 0), (0, -1, 0)):
        with pytest.raises(StatementError):
            statement.build_claim_layout(ceas_bytes, 1, lens)


def test_statement_missing_witness():
    cred = Credential((Claim("h", "a", "1"), Claim("h", "b", "2")))
    ceas = CEAS.from_index_sets(2, [[0, 1]])
    wit = hash_to_curve_witness(0, cred[0], 2, ceas, TOY)
    with pytest.raises(StatementError, match="missing"):
        build_statement(cred, ceas, {0: wit}, (0, 1), profile_name="toy11")


def test_statement_rejects_hidden_claim():
    cred = Credential((Claim("h", "a", "1").hide(),))
    with pytest.raises(StatementError):
        build_statement(cred, TOY_CEAS, {}, (0,), profile_name="toy11")


def test_statement_perturbed_root_unsatisfied():
    """The statement holds no root; it pins the pair (x, sign) the verifier
    decompresses.  Only the hashed x and its sign bit satisfy it."""
    wit = hash_to_curve_witness(0, Claim("h", "age", "33"), 1, TOY_CEAS, TOY)
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
        wit = hash_to_curve_witness(0, cred[0], 8, ceas, BN254)
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
    five public inputs, the verifier's builder accepts their bytes, and a
    changed counter byte, in the last block, regenerates another digest,
    which claim 0's binding refuses."""
    long_claim = Claim("h", "bio", "x" * 80)
    for args, blocks in ((statement_args(long_claim), (0, 2)), (statement_args(long_claim, ceas=WIDE_CEAS), (1, 3))):
        layout, inputs, secret = args
        res = synthesize(layout, RecordingBuilder(), inputs, secret)
        cl = layout.claims[0]
        assert (cl.first_block, cl.total_blocks) == blocks
        assert res.cs.num_public == 5
        assert res.cs.satisfied(res.values)
        assert checker_verdict(layout, inputs, secret) is None
        assert secret[-1] < 255
        with pytest.raises(ConstraintViolation, match="^claim 0, binding: "):
            synthesize(layout, Builder(), inputs, secret[:-1] + bytes([secret[-1] + 1]))


def test_statement_direct_evaluation_oracle_toy():
    """Satisfiability agrees with recomputing the hash and the predicate
    outside the constraint system, across random inputs."""
    for trial in range(40):
        value = str(rng.randrange(10, 99))
        claim = Claim("h", "age", value)
        wit = hash_to_curve_witness(0, claim, 1, TOY_CEAS, TOY)
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


def test_range_predicate_cannot_wrap_modulo_the_field(issuer):
    """The predicate's checks hold modulo the scalar field R, so a value
    of 77 digits or a bound of 2^252 or more could wrap round it: str(R +
    20) is 20 modulo R, inside [18, 65], and 20 - 50 wraps to a number
    below 2^300.  A proof over the first is refused when the verifier
    rebuilds the statement, and the second bound is refused when the
    predicate is made or read from a header; a zero-padded 76-digit value
    in range, and the widest bound, are still accepted."""
    for high in (2**252, 2**300):
        with pytest.raises(StatementError):
            RangePredicate(0, 50, high)
        with pytest.raises(StatementError):
            predicate_from_descriptor({"kind": "range", "claim_index": 0, "low": 50, "high": high})
    ceas = CEAS.from_index_sets(1, [[0]])
    x = ExtractionSet(frozenset({0}))
    cases = (
        (str(R + 20), RangePredicate(0, 18, 65), "proof_rejected:statement_rebuild_failed"),
        ("0" * 74 + "42", RangePredicate(0, 18, 65), "ok"),
        ("0" * 74 + "42", RangePredicate(0, 0, 2**252 - 1), "ok"),
    )
    for value, predicate, code in cases:
        cred = Credential((Claim("h", "age", value),))
        pres = ces_extract(ces_sign(issuer.sk, cred, ceas), x)
        proof, inputs = prove_extraction(BackendParams(), cred, ceas, x, predicate)
        r = zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs, predicate=predicate)
        assert (r.accept, r.code) == (code == "ok", code), value
        assert r.pairing_ok
    layout, inputs, secret = statement_args(Claim("h", "age", "7" * 77), predicate=RangePredicate(0, 0, 99))
    with pytest.raises(StatementError):
        synthesize(layout, RecordingBuilder(), inputs, secret)


# -- transparent backend ----------------------------------------------------------------

def test_backend_roundtrip_toy():
    layout, inputs, secret = statement_args(Claim("h", "age", "27"))
    params = BackendParams()
    proof = TRANSPARENT_BACKEND.prove(params, layout, secret)
    assert TRANSPARENT_BACKEND.verify(params, proof, inputs)
    # same proof against altered public x: the bytes hash to another x
    bad = replace(inputs, x_coords=((inputs.x_coords[0] + 1) % 11,))
    verdict = TRANSPARENT_BACKEND.verify(params, proof, bad)
    assert not verdict and verdict.code == "constraints_unsatisfied"
    assert verdict.detail.startswith("claim 0, binding: ")


def test_backend_rejects_garbage():
    params = BackendParams()
    inputs = PublicInputs((1,), (0,), TOY_CEAS.to_bytes(), (0,))
    assert TRANSPARENT_BACKEND.verify(params, Proof(b"junk"), inputs).code == "malformed_proof"


TOY_ARGS = statement_args(Claim("h", "age", "27"))
TOY_HEADER = TRANSPARENT_BACKEND.prove(BackendParams(), TOY_ARGS[0], TOY_ARGS[2]).data.split(b"\n", 1)[0]


@settings(max_examples=60, deadline=None)
@given(
    components=st.tuples(st.text(max_size=90), st.text(max_size=20), st.text(max_size=90)),
    counter=st.integers(0, 255),
    newlines=st.integers(0, 3),
)
def test_parse_inverts_prove(components, counter, newlines):
    """prove writes the header, a newline and the secret bytes, whatever
    bytes they hold (newlines included), and parse returns the layout and
    those bytes; prove refuses secret bytes one short or one long."""
    subject, prop, value = components
    value += "\n" * newlines
    lens = tuple(len(c.encode()) for c in (subject, prop, value))
    layout = StatementLayout("toy11", TOY_CEAS.to_bytes(), (0,), (lens,), None)
    secret = (subject + prop + value).encode() + bytes([counter])
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret)
    header = json.dumps({"backend": "transparent", "layout": layout.to_json()}, separators=(",", ":"), sort_keys=True)
    assert proof.data == header.encode() + b"\n" + secret
    assert TRANSPARENT_BACKEND.parse(proof) == (layout, secret)
    for wrong in (secret[:-1], secret + b"\n"):
        with pytest.raises(StatementError):
            TRANSPARENT_BACKEND.prove(BackendParams(), layout, wrong)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=300)
    | st.builds(lambda blob: TOY_HEADER + b"\n" + blob, st.binary(max_size=300))
    | st.builds(
        lambda meta, blob: json.dumps(meta).encode() + b"\n" + blob,
        st.fixed_dictionaries({"backend": st.just("transparent") | JSON, "layout": JSON}) | JSON,
        st.binary(max_size=100),
    )
)
def test_parse_any_bytes_ends_in_encoding_error_or_a_parse(data):
    try:
        layout, secret = TRANSPARENT_BACKEND.parse(Proof(data))
    except EncodingError:
        return
    assert secret == data.split(b"\n", 1)[1]


def blocks_proof(value_len):
    """A toy proof of one claim whose value is ``value_len`` zero bytes,
    with its in-circuit block count, and public inputs it cannot
    satisfy."""
    layout = StatementLayout("toy11", TOY_CEAS.to_bytes(), (0,), ((1, 1, value_len),), None)
    (cl,) = layout.claims
    inputs = PublicInputs((1,), (0,), TOY_CEAS.to_bytes(), (0,))
    return TRANSPARENT_BACKEND.prove(BackendParams(), layout, bytes(3 + value_len)), cl.total_blocks - cl.first_block, inputs


def test_backend_witness_cap_boundary(monkeypatch):
    """A proof of exactly the cap of in-circuit blocks is synthesized; one
    whose layout declares
    one block more, with the bytes to match, is too large, and is
    refused before any synthesis, allocating less than 64 KB."""
    cap = backend.MAX_BLOCKS
    value_len = next(n for n in range(64 * cap) if blocks_proof(n)[1] == cap + 1)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return synthesize(*args)

    monkeypatch.setattr(backend, "synthesize", counted)
    at_cap, blocks, inputs = blocks_proof(value_len - 1)
    assert blocks == cap
    verdict = TRANSPARENT_BACKEND.verify(BackendParams(), at_cap, inputs)
    assert verdict.code != "proof_too_large" and len(calls) == 1
    over, blocks, inputs = blocks_proof(value_len)
    assert blocks == cap + 1
    verdict, peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), over, inputs)
    assert verdict.code == "proof_too_large" and len(calls) == 1
    assert peak < (1 << 16), peak


def test_backend_header_cap_boundary():
    """A header of exactly the cap parses; one byte more is too large, and
    is refused before json.loads reads it: the refusal allocates less
    than 64 KB."""
    cap = backend.MAX_HEADER_BYTES
    at_cap = TOY_HEADER + b" " * (cap - len(TOY_HEADER))
    layout, secret = TRANSPARENT_BACKEND.parse(Proof(at_cap + b"\n11\n"))
    assert layout.profile_name == "toy11" and secret == b"11\n"
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
    """A body after the header that is not the layout's secret bytes is
    refused: a missing separator as malformed, before any witness is
    read, and any body of the earlier format's shapes (bit classes and
    32-byte words, well formed or not) as a shape mismatch, since its
    length is not the 7 bytes the layout declares."""
    inputs = TOY_ARGS[1]
    proof = Proof(TOY_HEADER + body)
    verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    if not body:
        with pytest.raises(EncodingError) as exc:
            TRANSPARENT_BACKEND.parse(proof)
        assert not isinstance(exc.value, ProofTooLargeError)
        assert not verdict and verdict.code == "malformed_proof" and verdict.predicate is None
    else:
        assert TRANSPARENT_BACKEND.parse(proof) == (TOY_ARGS[0], body[1:])
        assert len(body) - 1 != len(TOY_ARGS[2])
        assert not verdict and verdict.code == "witness_shape_mismatch"


def test_backend_refuses_a_deflated_proof():
    """A proof in an earlier format, one zlib stream of 32-byte words
    after the header, or the recorded witness's bit classes and wide
    words, is refused: its body is not the layout's secret bytes."""
    layout, inputs, secret = TOY_ARGS
    assert TRANSPARENT_BACKEND.verify(BackendParams(), TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret), inputs)
    values = synthesize(layout, RecordingBuilder(), inputs, secret).values
    words = b"".join(v.to_bytes(32, "big") for v in values)
    classes = bytes(b"01"[v] if v in (0, 1) else ord("2") for v in values)
    wide = b"".join(v.to_bytes(32, "big") for v in values if v not in (0, 1))
    for body in (zlib.compress(words, 6), classes + b"\n" + wide):
        earlier = Proof(TOY_HEADER + b"\n" + body)
        assert TRANSPARENT_BACKEND.verify(BackendParams(), earlier, inputs).code == "witness_shape_mismatch"


def test_backend_memory_ignores_declared_lengths():
    """A header may declare any component length, and the message length
    follows from it.  The verifier compares the declared lengths with
    the secret bytes before it builds anything, so a 50 MB value length
    costs no more memory than an honest proof and is refused as a shape
    mismatch."""
    layout, inputs, secret = TOY_ARGS
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret)
    claim = layout.to_json()["claims"][0]
    tampered = with_layout(proof, claims=[dict(claim, len_value=50_000_000)])
    verdict, peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), tampered, inputs)
    assert verdict.code == "witness_shape_mismatch"
    assert peak < 5 << 20, peak


def test_backend_memory_ignores_declared_lengths_over_a_long_witness():
    """A 50 MB value over an honest proof padded with 200,000 secret bytes
    is refused as a shape mismatch holding little more than the parsed
    bytes, where building its message would take some 50 MB."""
    layout, inputs, secret = TOY_ARGS
    proof = Proof(TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret).data + bytes(200_000))
    claim = layout.to_json()["claims"][0]
    tampered = with_layout(proof, claims=[dict(claim, len_value=50_000_000)])
    verdict, peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), tampered, inputs)
    assert verdict.code == "witness_shape_mismatch"
    assert peak < 1 << 20, peak


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prover_stores_no_constraints():
    """A two-claim BN254 proof with a range predicate is made without
    synthesizing its ~60,000 constraints, in under 64 KB, and verifying
    it peaks no higher than parsing it plus synthesizing it with the
    verifier's builder."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH"), Claim("holder", "tier", "3")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 1, 2]])
    args = (BackendParams(), cred, ceas, ExtractionSet(frozenset({0, 1})), RangePredicate(0, 18, 65))
    prove_extraction(*args)  # fill the hash caches outside the measurement
    (proof, inputs), prove_peak = traced_peak(prove_extraction, *args)
    verdict, verify_peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), proof, inputs)
    (layout, secret), parse_peak = traced_peak(TRANSPARENT_BACKEND.parse, proof)
    _, check_peak = traced_peak(lambda: synthesize(layout, Builder(), inputs, secret))
    assert verdict
    assert prove_peak < 1 << 16, prove_peak
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

    # proof-only failure: change the last secret byte, claim 1's counter
    broken = Proof(proof.data[:-1] + bytes([proof.data[-1] ^ 1]))
    r = zk_verify(setup.backend_params, pk, pres.sigma, broken, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code.startswith("proof_rejected") and not r.accept


def test_zk_verify_rejects_oversized_witness(zk_env):
    """A proof whose layout declares one in-circuit block more than the
    cap, with the secret bytes to match, is refused with its own code
    before any synthesis."""
    setup, _, _, _, pres, proof, inputs = zk_env
    layout, secret = TRANSPARENT_BACKEND.parse(proof)
    (_, _, first_len), other = layout.claim_lens

    def blocks(value_len):
        lens = (layout.claim_lens[0][:2] + (value_len,), other)
        return sum(cl.total_blocks - cl.first_block for cl in replace(layout, claim_lens=lens).claims)

    value_len = next(n for n in range(64 * backend.MAX_BLOCKS) if blocks(n) > backend.MAX_BLOCKS)
    claims = layout.to_json()["claims"]
    claims[0]["len_value"] = value_len
    head, tail = secret[: sum(layout.claim_lens[0][:2])], secret[sum(layout.claim_lens[0][:2]) + first_len:]
    oversized = with_layout(Proof(b"\n".join((proof.data.split(b"\n", 1)[0], head + bytes(value_len) + tail))), claims=claims)
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
        # refused from the header: neither the pairing nor the proof is checked
        assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, False, False)
    exact, exact_inputs = prove_extraction(setup.backend_params, cred, ceas, x, want)
    r = zk_verify(setup.backend_params, pk, pres.sigma, exact, exact_inputs, predicate=want)
    assert r.accept and r.code == "ok" and r.predicate == want.describe()
    # a proof of the expected predicate that fails keeps its own code; one
    # of another predicate is refused for that first
    for p, code in ((exact, "pairing_failed"), (proof, "predicate_rejected")):
        flipped = replace(inputs, sign_bits=(1 - inputs.sign_bits[0],) + inputs.sign_bits[1:])
        r = zk_verify(setup.backend_params, pk, pres.sigma, p, flipped, predicate=want)
        assert not r.accept and r.code == code


def test_zk_verify_refuses_another_predicate_before_any_work(zk_env, pairs_seen, monkeypatch):
    """A proof of another predicate than the expected one is refused as
    predicate_rejected as soon as its header parses: no pairing product
    is computed and no statement synthesized.  A policy that does not
    allow the extraction keeps precedence, and a header that does not
    parse names no predicate, so it gets the pairing's or the proof's
    code."""
    setup, cred, ceas, _, pres, proof, inputs = zk_env
    pk = setup.keypair.pk
    synthesized = []

    def counted(*args):
        synthesized.append(args[0])
        return synthesize(*args)

    monkeypatch.setattr(backend, "synthesize", counted)
    want = RangePredicate(0, 18, 65)
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, inputs, predicate=want)
    assert r.code == "predicate_rejected" and r.predicate is None
    assert pairs_seen == [] and synthesized == []
    narrowed = replace(inputs, ceas_bytes=CEAS.from_index_sets(3, [[0]]).to_bytes())
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, narrowed, predicate=want)
    assert r.code == "policy_rejected" and not r.policy_ok
    assert pairs_seen == [] and synthesized == []
    garbled = Proof(b"{" + proof.data)
    r = zk_verify(setup.backend_params, pk, pres.sigma, garbled, inputs, predicate=want)
    assert r.code == "proof_rejected:malformed_proof" and r.pairing_ok
    assert pairs_seen == [2] and synthesized == []
    # the same proof, expected with its own predicate, does both
    r = zk_verify(setup.backend_params, pk, pres.sigma, proof, inputs)
    assert r.accept and pairs_seen == [2, 2] and len(synthesized) == 1


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
    wits = {i: hash_to_curve_witness(i, cred[i], len(cred), narrowed) for i in idxs}
    layout, inputs, secret = prover_layout(cred, narrowed, wits, idxs)
    res = synthesize(layout, RecordingBuilder(), inputs, secret)
    assert res.cs.satisfied(res.values)
    proof = TRANSPARENT_BACKEND.prove(setup.backend_params, layout, secret)
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
    wits = {i: hash_to_curve_witness(i, cred[i], 3, ceas) for i in range(3)}
    proofs = []
    for predicate in (None, RangePredicate(1, 30, 50)):
        layout, _, secret = prover_layout(cred, ceas, wits, (1,), predicate)
        proofs.append(TRANSPARENT_BACKEND.prove(BackendParams(), layout, secret))
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
# zk_verify alike.  Measured, the slower of the two: 18 ms and 0.24 MB
# (the widest policy, whose public prefix the verifier does not hash),
# 16 ms and 0.56 MB, 30 ms and 0.56 MB, 84 ms and 0.68 MB.  The flipped
# bit, refused at claim 0's binding after both claims' blocks, takes
# 18 ms and 0.72 MB, and the widened byte 10 ms and 0.05 MB.  An honest
# claim of MAX_BLOCKS in-circuit blocks takes 2 ms in the backend
# (17-28 ms in zk_verify, with the pairing) and 0.044 MB, from a cold
# cache too; a verifier that keeps every message bit and every
# compression's outputs peaks at 8.2 MB there, and one that computes
# every interior value of a compression at 23 MB, both above its bound.
BUDGETS = {
    "widest_policy": ("ok", 2.0, 4),
    "block_cap": ("ok", 0.25, 1),
    "one_claim_too_many": ("statement_rebuild_failed", 0.25, 4),
    "oversized_header": ("proof_too_large", 0.25, 4),
    "declared_length_2_32": ("witness_shape_mismatch", 0.25, 4),
    "flipped_first_block_bit": ("constraints_unsatisfied", 0.25, 4),
    "wide_bit": ("witness_shape_mismatch", 0.25, 4),
}


def widest_policy_proof(sk):
    """An honest proof of claim 0 of a 1024-claim credential under the
    widest policy accepted, 256 subsets at width 1024: a 32,776-byte
    public prefix, which only the recording builder hashes block by
    block."""
    ceas = CEAS.from_index_sets(MAX_CEAS_WIDTH, [[0]] + [[0, k] for k in range(1, MAX_CEAS_SUBSETS)])
    cred = Credential((Claim("holder", "age", "42"),) + (Claim("holder", "p", "v"),) * (MAX_CEAS_WIDTH - 1))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset({0})), RangePredicate(0, 18, 65))
    return proof, inputs, bls.sign(sk, encode_claim_message(ceas, MAX_CEAS_WIDTH, 0, cred[0]))


def block_cap_proof(sk):
    """An honest proof of one BN254 claim of exactly the cap of in-circuit
    blocks, ``backend.MAX_BLOCKS``: a 4,044-byte value."""
    ceas = CEAS.from_index_sets(1, [[0]])

    def blocks(value_len):
        (cl,) = StatementLayout("bn254", ceas.to_bytes(), (0,), ((6, 3, value_len),), None).claims
        return cl.total_blocks - cl.first_block

    value_len = max(n for n in range(64 * backend.MAX_BLOCKS) if blocks(n) == backend.MAX_BLOCKS)
    cred = Credential((Claim("holder", "bio", "x" * value_len),))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset({0})))
    return proof, inputs, bls.sign(sk, encode_claim_message(ceas, 1, 0, cred[0]))


def flip(proof, at):
    """The proof with one bit of secret byte ``at`` flipped."""
    header, secret = proof.data.split(b"\n", 1)
    return Proof(header + b"\n" + mutated(secret, at, secret[at] ^ 1))


def widen(proof, at):
    """The proof with secret byte ``at`` written as two bytes, a zero
    byte before it: the same value, wider."""
    header, secret = proof.data.split(b"\n", 1)
    return Proof(header + b"\n" + secret[:at] + b"\0" + secret[at:])


def hostile_shapes(sk):
    """Each shape's proof, public inputs and aggregate signature.  The
    tampered shapes start from an honest two-claim proof with a range
    predicate, the benchmark's zk-range shape: claim 0's first secret
    byte, a message bit of its one in-circuit block, flipped; and that
    byte widened to two."""
    cred = Credential((Claim("holder", "age", "42"), Claim("holder", "country", "QZ"), Claim("holder", "member", "0f1e2d3c")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
    x = ExtractionSet(frozenset({0, 1}))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, x, RangePredicate(0, 18, 65))
    sigma = ces_extract(ces_sign(sk, cred, ceas), x).sigma
    claims = json.loads(proof.data.split(b"\n", 1)[0])["layout"]["claims"]
    return {
        "wide_bit": (widen(proof, 0), inputs, sigma),
        "widest_policy": widest_policy_proof(sk),
        "block_cap": block_cap_proof(sk),
        "one_claim_too_many": (with_layout(proof, claims=claims + claims[:1]), inputs, sigma),
        # 10^5 claim entries too many: a 5.5 MB header
        "oversized_header": (with_layout(proof, claims=claims + claims[:1] * 100_000), inputs, sigma),
        "declared_length_2_32": (with_layout(proof, claims=[dict(claims[0], len_value=(1 << 32) - 1), claims[1]]), inputs, sigma),
        "flipped_first_block_bit": (flip(proof, 0), inputs, sigma),
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


def test_flipped_first_block_bit_is_refused_by_its_block(shapes):
    """The flipped bit of claim 0's first in-circuit block regenerates
    another message and digest; the verifier, which takes no
    compression and makes no per-bit gadget call, refuses the proof
    where the recorded system rebuilt on those bytes first fails: claim
    0's binding of x and sign."""
    proof, inputs, _ = shapes["flipped_first_block_bit"]
    layout, secret = TRANSPARENT_BACKEND.parse(proof)
    byte_regions = ByteRegions()
    with pytest.raises(ConstraintViolation):
        synthesize(layout, byte_regions, inputs, secret)
    assert byte_regions.regions[0] == "claim 0, sha256 block 0"
    assert first_failing_region(layout, inputs, secret)[:2] == (False, "claim 0, binding")
    with sha256_gadget.GadgetCalls() as spy:
        verdict = TRANSPARENT_BACKEND.verify(BackendParams(), proof, inputs)
    assert spy.per_bit == 0
    assert verdict.code == "constraints_unsatisfied"
    assert verdict.detail.startswith("claim 0, binding: "), verdict.detail


def test_wide_encoding_of_a_bit_is_refused(issuer):
    """Secret bytes have one encoding: an honest proof whose first, last
    or first and last secret bytes are each written as two bytes, a zero
    byte before the same value, is refused by the byte count as a shape
    mismatch, with the pairing holding, for one claim and for three.  The
    honest bytes alone regenerate a satisfied recorded system."""
    cred = Credential((Claim("holder", "age", "42"), Claim("holder", "country", "QZ"), Claim("holder", "member", "0f1e2d3c")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1, 2]])
    for idxs in ((0,), (0, 1, 2)):
        x = ExtractionSet(frozenset(idxs))
        proof, inputs = prove_extraction(BackendParams(), cred, ceas, x, RangePredicate(0, 18, 65))
        sigma = ces_extract(ces_sign(issuer.sk, cred, ceas), x).sigma
        layout, secret = TRANSPARENT_BACKEND.parse(proof)
        first, last = 0, len(secret) - 1
        for ks in ((first,), (last,), (last, first)):
            rewritten = proof
            for k in ks:
                rewritten = widen(rewritten, k)
            assert rewritten.data != proof.data
            verdict = TRANSPARENT_BACKEND.verify(BackendParams(), rewritten, inputs)
            assert (verdict.code, verdict.detail) == ("witness_shape_mismatch", ""), (idxs, ks)
            result = zk_verify(BackendParams(), issuer.pk, sigma, rewritten, inputs)
            assert result.code == "proof_rejected:witness_shape_mismatch" and result.pairing_ok, (idxs, ks)
        res = synthesize(layout, RecordingBuilder(), inputs, secret)
        assert res.cs.satisfied(res.values)


def test_prove_refuses_a_policy_of_another_width():
    """A policy narrower or wider than the credential is long is refused
    at prove time, though the extraction is in the policy."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH")))
    for ceas in (CEAS.from_index_sets(1, [[0]]), CEAS.from_index_sets(3, [[0], [0, 1]])):
        with pytest.raises(StatementError, match="policy width"):
            prove_extraction(BackendParams(), cred, ceas, ExtractionSet(frozenset({0})))


@pytest.fixture(scope="module")
def header_proof(issuer):
    """A one-claim BN254 proof under the issuer key, its public inputs and
    aggregate signature.  The policy's bytes spell a hex letter (the
    subset {0, 1, 3} is the mask 0x0b), so an uppercase policy differs."""
    cred = Credential(tuple(Claim("holder", p, v) for p, v in (("age", "42"), ("country", "QZ"), ("city", "Bern"), ("tier", "b"))))
    ceas = CEAS.from_index_sets(4, [[0], [0, 1, 3]])
    x = ExtractionSet(frozenset({0}))
    proof, inputs = prove_extraction(BackendParams(), cred, ceas, x)
    return proof, inputs, ces_extract(ces_sign(issuer.sk, cred, ceas), x).sigma


def rewrite_header(proof, rewrite):
    """The proof with ``rewrite`` applied to its header's layout, which is
    written back as ``prove`` writes it."""
    header, secret = proof.data.split(b"\n", 1)
    meta = json.loads(header)
    rewrite(meta["layout"])
    return Proof(json.dumps(meta, separators=(",", ":"), sort_keys=True).encode() + b"\n" + secret)


def _set_claim(key, respell):
    def rewrite(layout):
        claim = layout["claims"][0]
        claim[key] = respell(claim[key])
    return rewrite


def _set_policy(respell):
    def rewrite(layout):
        layout["ceas"] = respell(layout["ceas"])
    return rewrite


HEADER_RESPELLINGS = {
    "len_value 2.5": _set_claim("len_value", lambda n: n + 0.5),
    "len_value as a float": _set_claim("len_value", float),
    "len_subject as a string": _set_claim("len_subject", str),
    "len_property as a string": _set_claim("len_property", str),
    "extraction [false]": lambda layout: layout.update(extraction=[False]),
    "extraction [0.0]": lambda layout: layout.update(extraction=[0.0]),
    "extraction as a string": lambda layout: layout.update(extraction=["0"]),
    "policy in uppercase": _set_policy(str.upper),
    "policy as space-separated bytes": _set_policy(lambda h: " ".join(h[i:i + 2] for i in range(0, len(h), 2))),
    "policy with surrounding whitespace": _set_policy(lambda h: f" {h}\n"),
}


def test_header_rewrite_keeps_an_honest_proof(issuer, header_proof):
    proof, inputs, sigma = header_proof
    assert rewrite_header(proof, lambda layout: None) == proof
    assert zk_verify(BackendParams(), issuer.pk, sigma, proof, inputs).code == "ok"


@pytest.mark.parametrize("name", sorted(HEADER_RESPELLINGS))
def test_a_respelled_header_is_a_malformed_proof(issuer, header_proof, name):
    """A proof header's indices and lengths are JSON integers and its
    policy is lowercase hex, by the rules of the wire formats.  int()
    and bytes.fromhex read each of these rewrites of an honest proof as
    the same values, so read with them each verifies ok."""
    proof, inputs, sigma = header_proof
    rewritten = rewrite_header(proof, HEADER_RESPELLINGS[name])
    assert rewritten != proof
    with pytest.raises(EncodingError):
        TRANSPARENT_BACKEND.parse(rewritten)
    result = zk_verify(BackendParams(), issuer.pk, sigma, rewritten, inputs)
    assert result.code == "proof_rejected:malformed_proof" and result.pairing_ok


@pytest.fixture(scope="module")
def predicate_proofs(issuer):
    """header_proof's credential and disclosure proved with a range and
    with an equals predicate: for each, the predicate, the proof, its
    public inputs and the aggregate signature."""
    cred = Credential(tuple(Claim("holder", p, v) for p, v in (("age", "42"), ("country", "QZ"))))
    ceas = CEAS.from_index_sets(2, [[0], [0, 1]])
    x = ExtractionSet(frozenset({0}))
    sigma = ces_extract(ces_sign(issuer.sk, cred, ceas), x).sigma
    out = {}
    for pred in (RangePredicate(0, 18, 65), EqualsPredicate(0, "42")):
        proof, inputs = prove_extraction(BackendParams(), cred, ceas, x, pred)
        out[pred.describe()["kind"]] = (pred, proof, inputs, sigma)
    return out


def _set_predicate(**fields):
    return lambda layout: layout["predicate"].update(fields)


PREDICATE_RESPELLINGS = {
    "claim_index false": ("range", _set_predicate(claim_index=False)),
    "low 18.0": ("range", _set_predicate(low=18.0)),
    "high 65.0": ("range", _set_predicate(high=65.0)),
    "a range with an extra field": ("range", _set_predicate(note="")),
    "expected as a number": ("equals", _set_predicate(expected=42)),
}


@pytest.mark.parametrize("expect", [False, True], ids=["no expected predicate", "expected predicate"])
@pytest.mark.parametrize("name", sorted(PREDICATE_RESPELLINGS))
def test_a_respelled_predicate_is_refused(issuer, predicate_proofs, name, expect):
    """A predicate descriptor is read only in the spelling describe()
    writes.  int() reads false, 18.0 and 65.0 as 0, 18 and 65, and
    Python's == finds each rewritten descriptor equal to the honest one,
    so read that way each of these rewrites of an honest proof verifies
    ok, even under the very predicate it was proved with."""
    kind, rewrite = PREDICATE_RESPELLINGS[name]
    pred, proof, inputs, sigma = predicate_proofs[kind]
    assert zk_verify(BackendParams(), issuer.pk, sigma, proof, inputs, predicate=pred).code == "ok"
    rewritten = rewrite_header(proof, rewrite)
    assert rewritten != proof
    result = zk_verify(BackendParams(), issuer.pk, sigma, rewritten, inputs, predicate=pred if expect else None)
    assert not result.accept
    if expect:
        assert result.code == "predicate_rejected" and not result.pairing_ok
    else:
        assert result.code == "proof_rejected:statement_rebuild_failed" and result.pairing_ok


def test_zk_verify_parses_the_policy_once(issuer, header_proof, monkeypatch):
    """zk_verify's policy check and the statement it rebuilds read one
    parse of the policy bytes."""
    proof, inputs, sigma = header_proof
    inputs = replace(inputs)  # a fresh copy, which holds no parse yet
    from_bytes = CEAS.from_bytes.__func__
    parsed = []

    def counted(cls, data):
        parsed.append(data)
        return from_bytes(cls, data)

    monkeypatch.setattr(CEAS, "from_bytes", classmethod(counted))
    assert zk_verify(BackendParams(), issuer.pk, sigma, proof, inputs).code == "ok"
    assert parsed == [inputs.ceas_bytes]
