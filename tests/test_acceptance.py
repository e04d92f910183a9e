"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when it completes (visible with -s); a
failure anywhere is a failed criterion.  Tolerances and counts are fixed
here, not configurable.
"""

import itertools
import json
import pathlib
import random
import time
from dataclasses import replace

from conftest import random_credential
from naive_pairing import naive_pairing
from blsces import bls
from blsces.ces import ces_extract, ces_sign, ces_verify
from blsces.credential import (
    CEAS,
    Claim,
    Credential,
    ExtractionSet,
    encode_claim_message,
)
from blsces.errors import EncodingError
from blsces.groups import G2_GEN, decompress_x, g1_add, g1_compress, g1_decompress, g2_to_bytes
from blsces.groups.params import P, TOY
from blsces.zk import (
    Proof,
    build_statement,
    hash_to_curve_witness,
    prove_extraction,
    zk_setup,
    zk_verify,
)

VECTORS = json.loads((pathlib.Path(__file__).parent / "vectors" / "golden.json").read_text())


def xset(idxs):
    return ExtractionSet(frozenset(idxs))


def nonempty_subsets(n):
    return [frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]


def test_criterion_1_end_to_end_completeness(issuer):
    """Sign -> extract -> verify accepts for every policy family and every
    allowed extraction; exhaustive for N <= 3, >= 500 sampled cases at
    N = 4; all within 60 seconds."""
    started = time.monotonic()
    rng = random.Random(0xACCE551)
    checks = 0
    for n in (1, 2, 3):
        subsets = nonempty_subsets(n)
        cred = random_credential(rng, n)
        for family_mask in range(1, 1 << len(subsets)):
            family = [subsets[i] for i in range(len(subsets)) if family_mask >> i & 1]
            ceas = CEAS.from_index_sets(n, family)
            sc = ces_sign(issuer.sk, cred, ceas)
            for x in family:
                pres = ces_extract(sc, xset(x))
                assert ces_verify(issuer.pk, pres), (n, family, x)
                checks += 1
    # N = 4, sampled
    n = 4
    subsets4 = nonempty_subsets(n)
    sampled = 0
    while sampled < 500:
        cred = random_credential(rng, n)
        family = rng.sample(subsets4, rng.randint(1, 5))
        ceas = CEAS.from_index_sets(n, family)
        sc = ces_sign(issuer.sk, cred, ceas)
        for x in family:
            pres = ces_extract(sc, xset(x))
            assert ces_verify(issuer.pk, pres), (family, x)
            sampled += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"completeness sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {checks} exhaustive + {sampled} sampled verifications in {elapsed:.1f}s")


def test_criterion_2_privacy_determinism(issuer):
    """1000 random credential pairs equal on x and arbitrary elsewhere
    give byte-identical extracted signatures and identical transcripts."""
    rng = random.Random(0xACCE552)
    ceas = CEAS.from_index_sets(3, [[0], [0, 2]])
    exceptions = 0
    for trial in range(1000):
        x = rng.choice([frozenset({0}), frozenset({0, 2})])
        base = random_credential(rng, 3)
        variant_claims = list(base.claims)
        for i in range(3):
            if i not in x:
                variant_claims[i] = Claim(
                    "holder",
                    rng.choice(["secret", "other", "at"]),
                    "".join(rng.choice("zyxw0") for _ in range(rng.randint(1, 8))),
                )
        variant = Credential(tuple(variant_claims))
        p1 = ces_extract(ces_sign(issuer.sk, base, ceas), xset(x))
        p2 = ces_extract(ces_sign(issuer.sk, variant, ceas), xset(x))
        if p1.ext_sig_bytes() != p2.ext_sig_bytes():
            exceptions += 1
            continue
        r1 = ces_verify(issuer.pk, p1)
        r2 = ces_verify(issuer.pk, p2)
        if (r1.accept, r1.code) != (r2.accept, r2.code):
            exceptions += 1
    assert exceptions == 0
    print("\nACCEPTANCE 2 PASS: 1000 pairs, zero ext_sig or transcript divergences")


def test_criterion_3_unforgeability_negative_suite(issuer):
    """Every mutation across the seven classes is rejected; at least 200
    mutations total, zero false accepts."""
    rng = random.Random(0xACCE553)
    cred = Credential(
        (
            Claim("holder", "age", "19"),
            Claim("holder", "country", "CH"),
            Claim("holder", "degree", "MSc"),
            Claim("holder", "license", "B"),
        )
    )
    ceas = CEAS.from_index_sets(4, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]])
    other_ceas = CEAS.from_index_sets(4, [[0], [1], [0, 1], [0, 1, 2, 3]])
    sc = ces_sign(issuer.sk, cred, ceas)
    foreign = bls.keygen(random.Random(0xF0E))
    foreign_sc = ces_sign(foreign.sk, cred, ceas)

    total = 0
    false_accepts = []

    def expect_reject(tag, pres, pk=issuer.pk):
        nonlocal total
        total += 1
        if ces_verify(pk, pres):
            false_accepts.append(tag)

    allowed = [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})]

    for trial in range(45):
        x = rng.choice(allowed)
        pres = ces_extract(sc, xset(x))
        # class 1: value edit on a visible claim
        i = rng.choice(sorted(x))
        claims = list(pres.sub_cred.claims)
        claims[i] = Claim("holder", claims[i].property, claims[i].value + "!")
        expect_reject("value_edit", replace(pres, sub_cred=Credential(tuple(claims))))

    pres_all = ces_extract(sc, xset({0, 1, 2, 3}))
    for i, j in itertools.combinations(range(4), 2):
        # class 2: claim transposition with counters moved along
        claims = list(pres_all.sub_cred.claims)
        claims[i], claims[j] = claims[j], claims[i]
        counters = dict(pres_all.counters)
        counters[i], counters[j] = counters[j], counters[i]
        expect_reject(
            "transposition",
            replace(pres_all, sub_cred=Credential(tuple(claims)), counters=counters),
        )

    for trial in range(40):
        x = rng.choice(allowed)
        # class 3: substitute the policy after signing
        expect_reject("ceas_swap", replace(ces_extract(sc, xset(x)), ceas=other_ceas))

    for trial in range(35):
        x = rng.choice(allowed)
        # class 4: signatures from a different key presented under issuer's
        expect_reject("foreign_key", ces_extract(foreign_sc, xset(x)))

    for x in (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1, 2, 3})):
        pres = ces_extract(sc, xset(x))
        for drop in sorted(x):
            # class 5: leave one signature out of the aggregate
            partial = bls.aggregate([sc.sigs[i] for i in sorted(x) if i != drop])
            expect_reject("leave_one_out", replace(pres, sigma=partial))

    for trial in range(45):
        x = rng.choice([frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})])
        pres = ces_extract(sc, xset(x))
        # class 6: add a foreign signature into the aggregate
        extra = rng.choice([i for i in range(4) if i not in x] + [rng.randrange(4)])
        padded = bls.aggregate([sc.sigs[i] for i in sorted(x)] + [sc.sigs[extra]])
        expect_reject("add_one", replace(pres, sigma=padded))

    off_policy = [frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({0, 2}),
                  frozenset({1, 3}), frozenset({2, 3}), frozenset({0, 3}), frozenset({1, 2, 3}),
                  frozenset({0, 1, 3}), frozenset({0, 2, 3})]
    for x in off_policy * 3:
        # class 7: extraction set outside the policy
        expect_reject("off_policy", ces_extract(sc, xset(x)))

    assert total >= 200, f"only {total} mutations exercised"
    assert not false_accepts, f"false accepts: {false_accepts}"
    print(f"\nACCEPTANCE 3 PASS: {total} mutations across 7 classes, zero false accepts")


def test_criterion_4_aggregation_law(issuer):
    """verify_aggregate equals the conjunction of individual verifications
    with the aggregate recomputed by point summation; 500 trials, k <= 8."""
    rng = random.Random(0xACCE554)
    keys = [issuer] + [bls.keygen(random.Random(1000 + i)) for i in range(3)]
    for trial in range(500):
        k = rng.randint(1, 8)
        msgs = []
        while len(msgs) < k:
            m = rng.randbytes(rng.randint(1, 12))
            if m not in msgs:
                msgs.append(m)
        signers = [keys[rng.randrange(len(keys))] for _ in range(k)]
        sigs = [bls.sign(s.sk, m) for s, m in zip(signers, msgs)]
        if rng.random() < 0.4:
            # corrupt one component so the conjunction goes false
            bad = rng.randrange(k)
            sigs[bad] = bls.sign(signers[bad].sk, msgs[bad] + b"?")
        # recombine via explicit point summation
        total = g1_decompress(sigs[0].data)
        for s in sigs[1:]:
            total = g1_add(total, g1_decompress(s.data))
        agg = bls.Signature(g1_compress(total))
        conjunction = all(
            bls.verify(s.pk, m, sig) for s, m, sig in zip(signers, msgs, sigs)
        )
        assert bls.verify_aggregate([s.pk for s in signers], msgs, agg) == conjunction, trial
    print("\nACCEPTANCE 4 PASS: 500 trials, aggregate == conjunction via point sums")


def test_criterion_5_toy_field_oracle_equivalence():
    """Hash paths agree with exhaustive residue/square tables on every
    reachable x; over x in 0..15 the verifier's decompression accepts
    exactly the x for which direct modexp says x^3 + 3 is a square."""
    squares = {(y * y) % 11 for y in range(11)}
    residue_table = {x: ((x**3 + 3) % 11) for x in range(11)}
    signing = {x for x in range(16) if x < 11 and residue_table[x] != 0 and residue_table[x] in squares}
    assert signing == {0, 1, 4, 7, 8}

    ceas = CEAS.from_index_sets(1, [[0]])
    seen = set()
    for tag in range(400):
        claim = Claim("h", "p", f"v{tag}")
        msg = encode_claim_message(ceas, 1, 0, claim)
        h = bls.hash_to_g1(msg, TOY)
        wit = hash_to_curve_witness(0, claim, 1, ceas, TOY)
        x = wit.x
        assert wit == h
        assert x in signing
        assert h.point.y * h.point.y % 11 == residue_table[x]
        for c in range(h.counter):
            cand, _, _ = bls.hash_candidate(msg, c, TOY)
            assert cand not in signing
        seen.add(x)
        if seen == signing and tag > 50:
            break
    assert seen == signing, f"unreached signing x values: {signing - seen}"

    # zk_verify decompresses each public x; the proof does not show it is
    # on the curve.  The accepted set differs from the signing set only at
    # x = 2, where rhs = 0; on BN254 rhs is never 0, as -3 is not a cube.
    accepted = set()
    for base_x in range(16):
        try:
            decompress_x(base_x, 0, TOY)
            accepted.add(base_x)
        except EncodingError:
            pass
    assert accepted == {x for x in range(11) if residue_table[x] in squares}
    assert accepted == {x for x in range(11) if pow(residue_table[x], 5, 11) in (0, 1)}
    assert accepted ^ signing == {2} and residue_table[2] == 0
    assert pow(-3 % P, (P - 1) // 3, P) != 1
    print("\nACCEPTANCE 5 PASS: toy hash and decompression match exhaustive tables and modexp")


def test_criterion_6_constraint_soundness_sweep():
    """At toy scale: completeness over 200 honest instances; every single
    witness-variable mutation in a satisfied statement falsifies it
    (full sweep, >= 10^4 mutations)."""
    rng = random.Random(0xACCE556)
    ceas = CEAS.from_index_sets(1, [[0]])

    # completeness
    for trial in range(200):
        claim = Claim(
            "h",
            rng.choice(["age", "tier"]),
            "".join(rng.choice("0123456789ab") for _ in range(rng.randint(1, 12))),
        )
        wit = hash_to_curve_witness(0, claim, 1, ceas, TOY)
        res = build_statement(Credential((claim,)), ceas, {0: wit}, (0,), profile_name="toy11")
        assert res.cs.satisfied(res.values), f"honest instance {trial} unsatisfied"

    # soundness sweep on one satisfied instance
    claim = Claim("h", "age", "29")
    wit = hash_to_curve_witness(0, claim, 1, ceas, TOY)
    res = build_statement(Credential((claim,)), ceas, {0: wit}, (0,), profile_name="toy11")
    cs, values = res.cs, res.values
    assert cs.satisfied(values)
    index = cs.var_index()
    mutations = 0
    survivors = []
    for var in range(1, cs.num_vars):
        touching = index.get(var, [])
        assert touching, f"variable {var} appears in no constraint"
        for delta in (1, cs.field - 1):
            mutated = values[var] + delta
            values[var], original = mutated % cs.field, values[var]
            # a single-variable change can only affect constraints that
            # mention the variable, so checking those is a full check
            if all(cs.eval_constraint(idx, values) for idx in touching):
                survivors.append((var, delta))
            values[var] = original
            mutations += 1
        if mutations >= 70000 and var > cs.num_public:
            break
    assert mutations >= 10_000
    assert not survivors, f"mutations kept the system satisfied: {survivors[:5]}"
    print(f"\nACCEPTANCE 6 PASS: 200 honest instances; {mutations} mutations all falsify")


def test_criterion_7_zk_conjunction_and_real_field_runtime(issuer):
    """Instances failing exactly one conjunct are rejected with matching
    diagnostics; an honest 3-claim real-field prove+verify completes in
    under five minutes."""
    started = time.monotonic()
    setup = zk_setup(rng=random.Random(0xACCE557))
    cred = Credential(
        (Claim("holder", "age", "19"), Claim("holder", "country", "CH"), Claim("holder", "tier", "3"))
    )
    ceas = CEAS.from_index_sets(3, [[0, 1, 2], [0, 1]])
    sc = ces_sign(setup.keypair.sk, cred, ceas)
    x = xset({0, 1, 2})
    pres = ces_extract(sc, x)
    proof, inputs = prove_extraction(setup.backend_params, cred, ceas, x)

    honest = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, proof, inputs)
    assert honest.accept and honest.code == "ok"

    # policy failure: a policy excluding X.  The proof binds the policy it
    # was built under and proves X allowed by it, so no valid proof fails
    # this conjunct alone; the proof conjunct fails with it.
    r = zk_verify(
        setup.backend_params,
        setup.keypair.pk,
        pres.sigma,
        proof,
        replace(inputs, ceas_bytes=CEAS.from_index_sets(3, [[0]]).to_bytes()),
    )
    assert (r.policy_ok, r.pairing_ok, r.proof_ok, r.code) == (False, True, False, "policy_rejected")

    # pairing-only failure
    other_sigma = ces_extract(sc, xset({0, 1})).sigma
    r = zk_verify(setup.backend_params, setup.keypair.pk, other_sigma, proof, inputs)
    assert (r.policy_ok, r.pairing_ok, r.proof_ok, r.code) == (True, False, True, "pairing_failed")

    # proof-only failure: a changed secret byte, claim 2's last value byte
    broken = Proof(proof.data[:-2] + bytes([proof.data[-2] ^ 1]) + proof.data[-1:])
    r = zk_verify(setup.backend_params, setup.keypair.pk, pres.sigma, broken, inputs)
    assert (r.policy_ok, r.pairing_ok) == (True, True) and not r.proof_ok
    assert r.code.startswith("proof_rejected")

    # every single sign-bit flip negates a point and breaks the pairing
    for k in range(3):
        flipped = tuple(b ^ 1 if i == k else b for i, b in enumerate(inputs.sign_bits))
        r = zk_verify(
            setup.backend_params, setup.keypair.pk, pres.sigma, proof,
            replace(inputs, sign_bits=flipped),
        )
        assert not r.pairing_ok and not r.accept

    elapsed = time.monotonic() - started
    assert elapsed <= 300.0, f"3-claim real-field flow took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 PASS: conjunct isolation exact; 3-claim flow in {elapsed:.1f}s")


def test_criterion_8_golden_vectors(issuer):
    """Fixed-seed keygen/sign/issue outputs are byte-stable against the
    recorded vectors, which were cross-checked at recording time against
    an independently written scalar multiplication and pairing; the
    pairing cross-check is re-run here."""
    assert f"{issuer.sk:064x}" == VECTORS["sk"]
    assert g2_to_bytes(issuer.pk).hex() == VECTORS["pk"]

    for entry in VECTORS["signatures"]:
        msg = entry["msg"].encode()
        assert bls.sign(issuer.sk, msg).data.hex() == entry["sig"]
        assert bls.hash_to_g1(msg).counter == entry["counter"]

    issue = VECTORS["issue"]
    cred = Credential(tuple(Claim(*c) for c in issue["claims"]))
    ceas = CEAS.from_index_sets(len(cred), issue["ceas"])
    sc = ces_sign(issuer.sk, cred, ceas)
    assert [s.data.hex() for s in sc.sigs] == issue["per_claim_sigs"]
    assert list(sc.counters) == issue["counters"]

    pres = ces_extract(sc, xset({0}))
    assert pres.sigma.data.hex() == VECTORS["extract_0"]["sigma"]
    assert pres.ext_sig_bytes().hex() == VECTORS["extract_0"]["ext_sig_bytes"]

    # independent-implementation confidence: the recorded signature
    # satisfies the pairing equation under the from-scratch naive pairing
    msg = VECTORS["signatures"][0]["msg"].encode()
    h = bls.hash_to_g1(msg).point
    sig_pt = g1_decompress(bytes.fromhex(VECTORS["signatures"][0]["sig"]))
    lhs = naive_pairing((h.x, h.y), (issuer.pk.x, issuer.pk.y))
    rhs = naive_pairing((sig_pt.x, sig_pt.y), (G2_GEN.x, G2_GEN.y))
    assert lhs == rhs
    print("\nACCEPTANCE 8 PASS: golden vectors byte-stable; independent pairing agrees")
