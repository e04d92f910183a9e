"""The benchmark's workloads: generated inputs, op schedule, and ops.

Every input comes from the seed.  Static inputs (keys, credentials,
presentations) are made when the workload is built, which is the timed
set-up.  The op schedule is made one cycle at a time from a generator
seeded by (workload, seed, cycle), so it is the same on every run with
that seed and never runs out.  A cycle is the smallest block of ops
whose mix is fixed (disclosure sizes, forgery share), and runs stop
only at cycle boundaries, so every run measures the same mix.

Each op carries its expected verdict, fixed when it is generated:
honest ops must accept with code ``ok`` and forgeries must reject.

The library is called through module attributes (``ces.ces_verify``,
``protocol.prove_extraction``) so that the traced run's wrappers are
the functions called.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import random
from dataclasses import dataclass, replace

from blsces import bls, ces, formats
from blsces.credential import CEAS, Claim, Credential, ExtractionSet, encode_claim_message
from blsces.groups import g2_to_bytes
from blsces.zk import protocol
from blsces.zk.predicates import RangePredicate

_pairing = importlib.import_module("blsces.groups.pairing")

# The library's two caches, held before any wrapper replaces a binding.
CACHES = {
    "hash_to_g1": bls._hash_to_g1_cached,
    "precompute_g2": _pairing.precompute_g2,
}


def reset_caches():
    for cache in CACHES.values():
        cache.cache_clear()


def cache_stats():
    return {name: cache.cache_info() for name, cache in CACHES.items()}


def hit_ratios(before, after):
    """Hit ratio of each cache between two ``cache_stats`` snapshots,
    with the lookup counts it rests on."""
    out = {}
    for name in CACHES:
        hits = after[name].hits - before[name].hits
        misses = after[name].misses - before[name].misses
        out[name] = {"hits": hits, "misses": misses, "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}
    return out


@dataclass(frozen=True)
class Op:
    index: int
    expect_accept: bool
    forgery: str | None
    detail: tuple


@dataclass
class Outcome:
    accept: bool
    code: str
    proof_bytes: int = 0


def _hex(rng: random.Random, chars: int) -> str:
    return f"{rng.getrandbits(4 * chars):0{chars}x}"


class Workload:
    name = ""
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._cycles: dict[int, list[Op]] = {}

    def op(self, k: int) -> Op:
        c = k // self.cycle
        if c not in self._cycles:
            rng = random.Random(f"{self.name}/{self.seed}/cycle/{c}")
            self._cycles[c] = self._make_cycle(rng, c)
        return self._cycles[c][k % self.cycle]

    def digest(self, n_ops: int) -> str:
        """Digest of the static inputs and the first ``n_ops`` ops."""
        h = hashlib.sha256(self._static_bytes())
        for k in range(n_ops):
            h.update(repr(self.op(k)).encode())
        return h.hexdigest()

    def warm(self):
        """Fill what a long-running verifier would already hold."""

    def _make_cycle(self, rng: random.Random, c: int) -> list[Op]:
        raise NotImplementedError

    def _static_bytes(self) -> bytes:
        raise NotImplementedError

    def run_op(self, op: Op, lap) -> Outcome:
        """Run one op, calling ``lap(stage)`` as each timed stage ends."""
        raise NotImplementedError


class VerifyOneIssuer(Workload):
    """One issuer key; ``ces_verify`` of pre-extracted presentations of
    16-claim credentials, disclosing 1, 2, 4, 8 or 16 claims."""

    name = "verify-one-issuer"
    SIZES = (1, 2, 4, 8, 16)
    PER_SIZE = 8  # ops of each size per cycle, one of them a forgery
    cycle = len(SIZES) * PER_SIZE
    N_CLAIMS = 16
    POOL = 8
    FORGERIES = ("altered_value", "swapped_aggregate")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        self.keypair = bls.keygen(rng)
        subsets = []
        for size in self.SIZES:
            picks = set()
            while len(picks) < min(2, math.comb(self.N_CLAIMS, size)):
                picks.add(tuple(sorted(rng.sample(range(self.N_CLAIMS), size))))
            subsets.extend(sorted(picks))
        self.ceas = CEAS.from_index_sets(self.N_CLAIMS, subsets)
        self.subsets_by_size = {size: [s for s in subsets if len(s) == size] for size in self.SIZES}
        self.pres = {}
        for c in range(self.POOL):
            cred = Credential(
                tuple(Claim(f"holder{c}", f"attr{i:02d}", _hex(rng, 12)) for i in range(self.N_CLAIMS))
            )
            signed = ces.ces_sign(self.keypair.sk, cred, self.ceas)
            for s in subsets:
                self.pres[c, s] = ces.ces_extract(signed, ExtractionSet(s))
        self.forged = {}
        for (c, s), pres in self.pres.items():
            self.forged[c, s, "altered_value"] = self._alter_value(rng, pres, s)
            other = self.pres[(c + 1) % self.POOL, s]
            self.forged[c, s, "swapped_aggregate"] = replace(pres, sigma=other.sigma)

    def _alter_value(self, rng, pres, subset):
        # A changed value whose message still lands on the curve at the
        # presented counter, so the verifier runs the whole pairing check.
        i = rng.choice(subset)
        claims = list(pres.sub_cred.claims)
        while True:
            claim = replace(claims[i], value=_hex(rng, 12))
            msg = encode_claim_message(self.ceas, self.N_CLAIMS, i, claim)
            if claim != claims[i] and bls.hash_to_g1_at(msg, pres.counters[i]) is not None:
                claims[i] = claim
                return replace(pres, sub_cred=Credential(tuple(claims)))

    def _make_cycle(self, rng, c):
        slots = [size for size in self.SIZES for _ in range(self.PER_SIZE)]
        rng.shuffle(slots)
        forged_slot = {}
        for n, size in enumerate(self.SIZES):
            where = [k for k, s in enumerate(slots) if s == size]
            forged_slot[rng.choice(where)] = self.FORGERIES[(n + c) % 2]
        ops = []
        for k, size in enumerate(slots):
            cred = rng.randrange(self.POOL)
            subset = rng.choice(self.subsets_by_size[size])
            forgery = forged_slot.get(k)
            ops.append(Op(c * self.cycle + k, forgery is None, forgery, (cred, subset)))
        return ops

    def _static_bytes(self):
        parts = [g2_to_bytes(self.keypair.pk), self.ceas.to_bytes()]
        for key in sorted(self.pres):
            parts.append(self.pres[key].ext_sig_bytes())
            parts.append(repr(self.pres[key].sub_cred).encode())
        for key in sorted(self.forged):
            parts.append(repr(self.forged[key]).encode())
        return b"".join(parts)

    def warm(self):
        ces.ces_verify(self.keypair.pk, self.pres[0, self.subsets_by_size[1][0]])

    def run_op(self, op, lap):
        cred, subset = op.detail
        pres = self.pres[cred, subset] if op.forgery is None else self.forged[cred, subset, op.forgery]
        result = ces.ces_verify(self.keypair.pk, pres)
        lap("verify")
        return Outcome(result.accept, result.code)


class WalletManyIssuers(Workload):
    """Issue, hold and verify one fresh 4-claim credential per op over
    the JSON wire formats, with issuers drawn from a skewed popularity
    over more keys than the verifier's key-precompute cache holds."""

    name = "wallet-many-issuers"
    ISSUERS = 256
    ZIPF_S = 1.2  # about four key lookups in five hit the 32-entry precompute cache
    cycle = 8  # the last op of each cycle is a forgery
    PROPERTIES = ("name", "birthdate", "city", "licence")
    SUBSETS = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 1, 2, 3))
    DISCLOSE = tuple(s for s in SUBSETS if len(s) == 2)
    FORGERIES = ("altered_value", "swapped_aggregate")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        self.keys = [bls.keygen(rng) for _ in range(self.ISSUERS)]
        self.pk_wire = [formats.dumps(formats.public_key_to_json(kp.pk)) for kp in self.keys]
        rank = list(range(self.ISSUERS))
        rng.shuffle(rank)
        weights = [1.0 / (rank[i] + 1) ** self.ZIPF_S for i in range(self.ISSUERS)]
        self.cum_weights = list(itertools.accumulate(weights))
        self.ceas = CEAS.from_index_sets(len(self.PROPERTIES), self.SUBSETS)

    def _value(self, rng, k):
        # The op index makes every value new to the process.
        return f"{k:08d}-{_hex(rng, 16)}"

    def _make_cycle(self, rng, c):
        ops = []
        for j in range(self.cycle):
            k = c * self.cycle + j
            issuer = rng.choices(range(self.ISSUERS), cum_weights=self.cum_weights)[0]
            values = tuple(self._value(rng, k) for _ in self.PROPERTIES)
            disclose = rng.choice(self.DISCLOSE)
            forgery = self.FORGERIES[c % 2] if j == self.cycle - 1 else None
            forged_value = self._value(rng, k) if forgery == "altered_value" else None
            ops.append(Op(k, forgery is None, forgery, (issuer, values, disclose, forged_value)))
        return ops

    def _static_bytes(self):
        return "".join(self.pk_wire).encode() + b"".join(str(kp.sk).encode() for kp in self.keys)

    def run_op(self, op, lap):
        issuer, values, disclose, forged_value = op.detail
        cred = Credential(tuple(Claim(f"user{op.index}", p, v) for p, v in zip(self.PROPERTIES, values)))
        signed = ces.ces_sign(self.keys[issuer].sk, cred, self.ceas)
        signed_wire = formats.dumps(formats.signed_to_json(signed))
        lap("issue")
        held = formats.signed_from_json(formats.loads(signed_wire))
        pres = ces.ces_extract(held, ExtractionSet(disclose))
        doc = formats.presentation_to_json(pres)
        if op.forgery == "altered_value":
            doc["claims"][disclose[0]]["value"] = forged_value
        elif op.forgery == "swapped_aggregate":
            others = [held.sigs[i] for i in range(len(values)) if i not in disclose]
            doc["aggregate_signature"] = bls.aggregate(others).data.hex()
        pres_wire = formats.dumps(doc)
        lap("hold")
        pk = formats.public_key_from_json(formats.loads(self.pk_wire[issuer]))
        result = ces.ces_verify(pk, formats.presentation_from_json(formats.loads(pres_wire)))
        lap("verify")
        return Outcome(result.accept, result.code)


class ZkRange(Workload):
    """Prove and verify disclosures of a 3-claim credential, alternating
    one and two disclosed claims, with a range predicate on claim 0."""

    name = "zk-range"
    cycle = 2  # one op disclosing {0}, one disclosing {0, 1}
    TAMPERED = 8  # op k with k % 8 == 6, a one-claim op, is tampered
    LOW, HIGH = 18, 65

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{self.name}/{seed}")
        self.setup = protocol.zk_setup(rng=rng)
        country = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(2))
        self.cred = Credential(
            (
                Claim("holder", "age", str(rng.randint(self.LOW, self.HIGH))),
                Claim("holder", "country", country),
                Claim("holder", "member", _hex(rng, 8)),
            )
        )
        self.ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
        signed = ces.ces_sign(self.setup.keypair.sk, self.cred, self.ceas)
        self.disclosures = (ExtractionSet({0}), ExtractionSet({0, 1}))
        self.pres = [ces.ces_extract(signed, x) for x in self.disclosures]
        self.predicate = RangePredicate(0, self.LOW, self.HIGH)

    def _make_cycle(self, rng, c):
        ops = []
        for j in range(self.cycle):
            k = c * self.cycle + j
            tamper = rng.choice(("tampered_x", "tampered_sign")) if k % self.TAMPERED == 6 else None
            ops.append(Op(k, tamper is None, tamper, (j,)))
        return ops

    def _static_bytes(self):
        return b"".join(
            [g2_to_bytes(self.setup.keypair.pk), repr(self.cred).encode(), self.ceas.to_bytes()]
            + [p.sigma.data for p in self.pres]
        )

    def warm(self):
        ces.ces_verify(self.setup.keypair.pk, self.pres[0])

    def run_op(self, op, lap):
        (j,) = op.detail
        params = self.setup.backend_params
        proof, inputs = protocol.prove_extraction(params, self.cred, self.ceas, self.disclosures[j], predicate=self.predicate)
        lap("prove")
        if op.forgery == "tampered_x":
            inputs = replace(inputs, x_coords=(inputs.x_coords[0] ^ 1,) + inputs.x_coords[1:])
        elif op.forgery == "tampered_sign":
            inputs = replace(inputs, sign_bits=(inputs.sign_bits[0] ^ 1,) + inputs.sign_bits[1:])
        result = protocol.zk_verify(params, self.setup.keypair.pk, self.pres[j].sigma, proof, inputs)
        lap("verify")
        return Outcome(result.accept, result.code, len(proof.data))


WORKLOADS = {w.name: w for w in (VerifyOneIssuer, WalletManyIssuers, ZkRange)}
