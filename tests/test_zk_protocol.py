"""Statement building, the transparent backend, and full proof flows."""

import json
import random
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blsces import bls, formats
from blsces.ces import ces_extract, ces_sign
from blsces.credential import CEAS, Claim, Credential, ExtractionSet, encode_claim_message
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
from blsces.zk import backend, statement
from blsces.zk.r1cs import Builder, CheckingBuilder, ConstraintSystem, RecordingBuilder
from blsces.zk.sha256_gadget import sha256_pad
from blsces.zk.statement import PublicInputs, _skeleton, prover_layout, public_assignment

rng = random.Random(17)

TOY_CEAS = CEAS.from_index_sets(1, [[0]])


def toy_statement(value="33", predicate=None, claim=None):
    cred = Credential((claim or Claim("h", "age", value),))
    (_, _), wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, TOY)
    return build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate, profile_name="toy11"), wit


# -- statement building ------------------------------------------------------------

def test_toy_statement_satisfied():
    res, _ = toy_statement()
    assert res.cs.satisfied(res.values)
    assert res.cs.num_public == 5  # 4 limbs + sign


def checked_constraints(monkeypatch, res):
    """Check res's assignment with a checking builder that records every
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
        checked = synthesize(res.layout, CheckingBuilder(list(res.values)))
    assert checked.values is None
    return seen, checked.cs


def sizes(cs):
    return len(cs.bools), len(cs.lins), len(cs.r1s), cs.num_vars, cs.num_public


def bn254_statement(value="33", predicate=None):
    cred = Credential((Claim("h", "age", value),))
    (_, _), wit = hash_to_curve_witness(0, cred[0], 1, TOY_CEAS, BN254)
    return build_statement(cred, TOY_CEAS, {0: wit}, (0,), predicate=predicate)


def test_checker_checks_what_the_prover_proved(monkeypatch):
    """Bit literals fold on their structure, never on values: on the
    prover's assignment the checker evaluates exactly the constraints the
    prover stored, for two witnesses of one shape, with and without a
    range predicate, with a pre-hashed claim, and on both profiles."""
    res33, _ = toy_statement("33")
    res44, _ = toy_statement("44")
    seen33, counts33 = checked_constraints(monkeypatch, res33)
    seen44, _ = checked_constraints(monkeypatch, res44)
    for seen in (seen33, seen44):
        for res in (res33, res44):
            assert (seen.bools, seen.lins, seen.r1s) == (res.cs.bools, res.cs.lins, res.cs.r1s)
    assert sizes(counts33) == sizes(res33.cs) and len(counts33) == len(res33.cs)
    long_claim, _ = toy_statement(claim=Claim("h", "bio", "x" * 80))
    assert long_claim.layout.claims[0].prehash_state is not None
    for res in (
        toy_statement("42", RangePredicate(0, 40, 45))[0],
        long_claim,
        bn254_statement(),
        bn254_statement("42", RangePredicate(0, 18, 65)),
    ):
        seen, counts = checked_constraints(monkeypatch, res)
        assert (seen.bools, seen.lins, seen.r1s) == (res.cs.bools, res.cs.lins, res.cs.r1s)
        assert sizes(counts) == sizes(res.cs)


def test_prover_computes_what_the_recorder_records():
    """The storing-nothing prover's builder yields the recording builder's
    assignment and sizes, on both profiles, for one and two claims, with
    a range predicate, an equals predicate and a pre-hashed claim."""
    cred = Credential((Claim("h", "age", "42"), Claim("h", "country", "CH"), Claim("h", "bio", "x" * 80)))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [2], [0, 2]])
    cases = [
        ((0,), RangePredicate(0, 40, 45)),
        ((0, 1), EqualsPredicate(1, "CH")),
        ((2,), None),
        ((0, 2), RangePredicate(0, 18, 65)),
    ]
    for profile in (TOY, BN254):
        wits = {i: hash_to_curve_witness(i, cred[i], 3, ceas, profile)[1] for i in range(3)}
        for idxs, predicate in cases:
            layout, witness = prover_layout(cred, ceas, wits, idxs, predicate, profile.name)
            recorded = synthesize(layout, RecordingBuilder(), witness)
            proved = synthesize(layout, Builder(), witness)
            assert recorded.cs.satisfied(recorded.values)
            assert proved.values == recorded.values, (profile.name, idxs)
            assert sizes(proved.cs) == sizes(recorded.cs) and len(proved.cs) == len(recorded.cs), (profile.name, idxs)
    assert layout.claims[1].prehash_state is not None


def test_prove_extraction_bytes_are_the_recorded_packing(monkeypatch):
    """A proof carries the header and the recorded synthesis's values
    packed and compressed as they always were, for one and two claims.
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
        assert proof.data == header.encode() + b"\n" + zlib.compress(old_packing(res.values), 6), idxs
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
    the backend's verdict, in zk_verify's result and on the CLI line."""
    cred = Credential((Claim("h", "age", "33"), Claim("h", "bio", "x" * 80)))
    ceas = CEAS.from_index_sets(2, [[0, 1]])
    wits = {i: hash_to_curve_witness(i, cred[i], 2, ceas, TOY)[1] for i in (0, 1)}
    byte_bits = []
    bits_of = Builder.bits_of

    def recording(bd, value, width):
        bits = bits_of(bd, value, width)
        if width == 8:
            byte_bits.append((bd.region, bits))
        return bits

    with monkeypatch.context() as m:
        m.setattr(Builder, "bits_of", recording)
        res = build_statement(cred, ceas, wits, (0, 1), profile_name="toy11")
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

    # the toy points do not pair under a BN254 key; the proof's detail is
    # carried whatever the other conjuncts say
    pres = ces_extract(ces_sign(issuer.sk, cred, ceas), ExtractionSet(frozenset({0, 1})))
    r = zk_verify(BackendParams(), issuer.pk, pres.sigma, proof, inputs)
    assert not r.accept and not r.proof_ok and r.detail == verdict.detail
    assert zk_verify(BackendParams(), issuer.pk, pres.sigma, TRANSPARENT_BACKEND.prove(BackendParams(), res), inputs).detail == ""
    files = {
        "pubkey": formats.public_key_to_json(issuer.pk),
        "presentation": formats.presentation_to_json(pres),
        "bundle": formats.proof_bundle_to_json(proof, inputs),
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
    """The suffix template and secret spans equal those cut from the
    whole zeroed message, for every split of small component lengths
    (one to four blocks, padding spilling into a block of its own or
    not); a length the 4-byte prefix cannot hold is refused."""
    ceas = CEAS.from_index_sets(3, [[0], [0, 1, 2]])
    ceas_bytes = ceas.to_bytes()
    spills = set()
    for ls in (0, 1, 7):
        for lp in (0, 3):
            for lv in range(150):
                lens = (ls, lp, lv)
                base = encode_claim_message(ceas, 3, 1, Claim("\x00" * ls, "\x00" * lp, "\x00" * lv))
                msg_len = len(base) + 1
                full = base + b"\x00" + sha256_pad(msg_len)
                start = 64 * ((msg_len - 1) // 64)
                spans, pos = [], 4 + len(ceas_bytes) + 8
                for length, kind in zip(lens, ("subject", "property", "value")):
                    spans.append((pos + 4, length, kind))
                    pos += 4 + length
                spans.append((pos, 1, "counter"))
                cut = [(max(s, start), s + n - max(s, start), k) for s, n, k in spans if s + n > max(s, start)]
                assert _skeleton(ceas_bytes, 3, 1, lens) == (msg_len, full[start:], cut), lens
                spills.add((len(full) - start) // 64)
    assert spills == {1, 2}
    msg_len, suffix, spans = _skeleton(ceas_bytes, 3, 1, (0, 0, (1 << 32) - 1))
    assert msg_len == 4 + len(ceas_bytes) + 8 + 12 + (1 << 32) and len(suffix) <= 128
    for lens in ((1 << 32, 0, 0), (0, -1, 0)):
        with pytest.raises(StatementError):
            _skeleton(ceas_bytes, 3, 1, lens)


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
    """The statement proves no policy membership, so a policy of one
    subset and one of all 63 subsets of six claims give the same shape.
    The larger policy adds 62 bytes to every message; the first claim's
    value is 62 bytes longer under the smaller one, so both messages have
    the same length and the in-circuit suffix holds only value bytes."""
    small = CEAS.from_index_sets(6, [[0]])
    full = CEAS.from_index_sets(6, [[i for i in range(6) if m >> i & 1] for m in range(1, 64)])
    assert len(full.to_bytes()) - len(small.to_bytes()) == 62
    shapes = []
    for ceas, value in ((small, "7" * 92), (full, "7" * 30)):
        cred = Credential((Claim("h", "age", value),) + tuple(Claim("h", "p", "v") for _ in range(5)))
        (_, _), wit = hash_to_curve_witness(0, cred[0], 6, ceas, BN254)
        res = build_statement(cred, ceas, {0: wit}, (0,))
        assert res.layout.claims[0].msg_len == 130
        assert res.cs.satisfied(res.values)
        shapes.append((len(res.cs), res.cs.num_vars, res.cs.num_public))
    assert shapes[0] == shapes[1]


def test_statement_multiblock_prehash():
    """A long value pushes the message over one block; the suffix circuit
    with the carried state must still be satisfiable."""
    long_claim = Claim("h", "bio", "x" * 80)
    res, _ = toy_statement(claim=long_claim)
    assert res.layout.claims[0].prehash_state is not None
    assert res.cs.satisfied(res.values)


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


def old_packing(values):
    return b"".join(v.to_bytes(32, "big") for v in values)


def old_parse(packed):
    return [int.from_bytes(packed[k: k + 32], "big") for k in range(0, len(packed), 32)]


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
def test_prove_packs_values_as_to_bytes(n, seed, edges):
    """prove's windowed packing is byte for byte the per-value to_bytes
    join, for bit witnesses of up to three windows with edge values
    anywhere in them; a negative value still raises OverflowError."""
    r = random.Random(seed)
    values = [r.getrandbits(1) for _ in range(n)]
    for k, v in edges.items():
        if k < n:
            values[k] = v
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), replace(TOY_RES, values=values))
    assert proof.data == TOY_HEADER + b"\n" + zlib.compress(old_packing(values), 6)
    if values:
        values[seed % n] = -1 - seed
        with pytest.raises(OverflowError):
            TRANSPARENT_BACKEND.prove(BackendParams(), replace(TOY_RES, values=values))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2000), seed=st.integers(0, 1 << 32), sparse=st.sets(st.integers(0, 1999), max_size=8))
def test_parse_decodes_as_from_bytes(n, seed, sparse):
    """parse returns the per-slice int.from_bytes list for blobs whose
    high bytes are nonzero in a few chunks, the first and last always
    among them, and each other one followed by a neighbour, across
    several scan windows; a chunk may have one nonzero high byte, at
    either end of its high bytes or between, or random high bytes."""
    r = random.Random(seed)
    packed = bytearray(32 * n)
    packed[31::32] = r.randbytes(n)
    for k in {0, n - 1} | {j for k in sparse for j in (k, k + 1) if j < n}:
        if r.random() < 0.75:
            packed[32 * k + r.choice((0, 30, r.randrange(31)))] = r.randrange(1, 256)
        else:
            packed[32 * k: 32 * k + 31] = r.randbytes(31)
    layout, values = TRANSPARENT_BACKEND.parse(Proof(TOY_HEADER + b"\n" + zlib.compress(bytes(packed))))
    assert layout == TOY_RES.layout
    assert values == old_parse(packed)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=300)
    | st.builds(lambda blob: TOY_HEADER + b"\n" + blob, st.binary(max_size=300))
    | st.builds(lambda blob: TOY_HEADER + b"\n" + zlib.compress(blob), st.binary(max_size=300))
    | st.builds(
        lambda meta, blob: json.dumps(meta).encode() + b"\n" + zlib.compress(blob),
        st.fixed_dictionaries({"backend": st.just("transparent") | JSON, "layout": JSON}) | JSON,
        st.binary(max_size=64),
    )
)
def test_parse_any_bytes_ends_in_encoding_error_or_a_parse(data):
    try:
        layout, values = TRANSPARENT_BACKEND.parse(Proof(data))
    except EncodingError:
        return
    assert len(values) == len(zlib.decompressobj().decompress(data.split(b"\n", 1)[1])) // 32


def test_backend_witness_cap_boundary(monkeypatch):
    """A witness of exactly the cap parses; one byte more is too large; a
    truncated stream under the cap is malformed, not too large."""
    monkeypatch.setattr(backend, "MAX_WITNESS_BYTES", 64)
    res, _ = toy_statement("27")
    header = TRANSPARENT_BACKEND.prove(BackendParams(), res).data.split(b"\n", 1)[0]

    def parse(blob):
        return TRANSPARENT_BACKEND.parse(Proof(header + b"\n" + blob))

    assert parse(zlib.compress(bytes(64)))[1] == [0, 0]
    with pytest.raises(ProofTooLargeError):
        parse(zlib.compress(bytes(65)))
    with pytest.raises(EncodingError) as exc:
        parse(zlib.compress(bytes(32))[:-4])
    assert not isinstance(exc.value, ProofTooLargeError)


def test_backend_refuses_bomb_near_the_cap(monkeypatch):
    """Refusing a stream that inflates to twice the cap holds little more
    than the cap: the witness is inflated in chunks into one buffer."""
    cap = 8 << 20
    monkeypatch.setattr(backend, "MAX_WITNESS_BYTES", cap)
    res, _ = toy_statement("27")
    header = TRANSPARENT_BACKEND.prove(BackendParams(), res).data.split(b"\n", 1)[0]
    deflater = zlib.compressobj(9)
    blob = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(16)) + deflater.flush()
    bomb = Proof(header + b"\n" + blob)
    tracemalloc.start()
    try:
        with pytest.raises(ProofTooLargeError):
            TRANSPARENT_BACKEND.parse(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * cap


def test_backend_memory_ignores_declared_lengths():
    """A header may declare any component length.  The verifier builds
    only the in-circuit suffix of the message, so a 50 MB value length,
    alone or with message lengths to match, costs no more memory than an
    honest proof and is rejected."""
    res, wit = toy_statement("27")
    proof = TRANSPARENT_BACKEND.prove(BackendParams(), res)
    inputs = PublicInputs((wit.x,), (wit.sign_bit,), TOY_CEAS.to_bytes(), (0,))
    claim = res.layout.to_json()["claims"][0]
    big = 50_000_000
    msg_len = claim["msg_len"] + big - claim["len_value"]
    padded_len = 64 * ((msg_len + 8) // 64 + 1)
    for fields, code in (
        ({"len_value": big}, "statement_rebuild_failed"),
        ({"len_value": big, "msg_len": msg_len, "padded_len": padded_len}, None),
    ):
        tampered = with_layout(proof, claims=[dict(claim, **fields)])
        tracemalloc.start()
        try:
            verdict = TRANSPARENT_BACKEND.verify(BackendParams(), tampered, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict and verdict.code == (code or verdict.code), fields
        assert peak < 5 << 20, (fields, peak)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prover_stores_no_constraints(monkeypatch):
    """A two-claim BN254 proof with a range predicate is made without
    holding its ~60,000 constraints, and parsing it in windows peaks no
    higher than decoding every value on its own."""
    cred = Credential((Claim("holder", "age", "19"), Claim("holder", "country", "CH"), Claim("holder", "tier", "3")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 1, 2]])
    args = (BackendParams(), cred, ceas, ExtractionSet(frozenset({0, 1})), RangePredicate(0, 18, 65))
    prove_extraction(*args)  # fill the hash caches outside the measurement
    (proof, inputs), prove_peak = traced_peak(prove_extraction, *args)
    verdict, verify_peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), proof, inputs)
    monkeypatch.setattr(backend, "_unpack", old_parse)
    reference, reference_peak = traced_peak(TRANSPARENT_BACKEND.verify, BackendParams(), proof, inputs)
    assert verdict and reference
    assert prove_peak < 8 << 20, prove_peak
    assert verify_peak <= 1.1 * reference_peak, (verify_peak, reference_peak)


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

    # proof-only failure: corrupt a witness value deep in the blob
    header, blob = proof.data.split(b"\n", 1)
    packed = bytearray(zlib.decompress(blob))
    packed[-1] ^= 1
    broken = Proof(header + b"\n" + zlib.compress(bytes(packed)))
    r = zk_verify(setup.backend_params, pk, pres.sigma, broken, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code.startswith("proof_rejected") and not r.accept


def test_zk_verify_rejects_oversized_witness(zk_env):
    """A ~130 KB blob that inflates to 128 MiB of zeros, twice the cap, is
    refused with its own code before the witness is allocated."""
    setup, _, _, _, pres, proof, inputs = zk_env
    header = proof.data.split(b"\n", 1)[0]
    deflater = zlib.compressobj(9)
    mib = bytes(1 << 20)
    blob = b"".join(deflater.compress(mib) for _ in range(128)) + deflater.flush()
    assert len(blob) < 200_000
    bomb = Proof(header + b"\n" + blob)
    with pytest.raises(ProofTooLargeError):
        TRANSPARENT_BACKEND.parse(bomb)
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, bomb, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok) == (True, True, False)
    assert r.code == "proof_rejected:proof_too_large" and not r.accept


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
