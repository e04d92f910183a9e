import importlib
import random

import pytest

from blsces import bls
from blsces.credential import CEAS, Claim, Credential


@pytest.fixture
def pairs_seen(monkeypatch):
    """Records, per pairing product computed during the test, how many of
    its pairs have both sides non-identity: the Miller loops it runs."""
    module = importlib.import_module("blsces.groups.pairing")
    original = module.pairing_product
    seen = []

    def counting(pairs):
        pairs = list(pairs)
        seen.append(sum(1 for pt, q in pairs if not pt.infinity and not q.infinity))
        return original(pairs)

    monkeypatch.setattr(module, "pairing_product", counting)
    return seen


@pytest.fixture(scope="session")
def issuer():
    """One fixed-seed issuer keypair shared across the suite; pairing
    line precomputation for its key is cached after first use."""
    return bls.keygen(random.Random(0xB15CE5))


def random_claim(rng: random.Random, subject: str = "holder") -> Claim:
    prop = rng.choice(["age", "country", "degree", "license", "score", "tier"])
    value = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(rng.randint(1, 10)))
    return Claim(subject, prop, value)


def random_credential(rng: random.Random, n: int) -> Credential:
    return Credential(tuple(random_claim(rng) for _ in range(n)))


def random_ceas(rng: random.Random, n: int, max_subsets: int = 4) -> CEAS:
    all_masks = list(range(1, 1 << n))
    rng.shuffle(all_masks)
    return CEAS(n=n, subsets=frozenset(all_masks[: rng.randint(1, min(max_subsets, len(all_masks)))]))


def assert_keeps_recorded(checked, recorded) -> None:
    """``checked`` (the verifier's builder or its synthesis) allocated as
    many variables as ``recorded`` (the recording builder's), and every
    value it keeps is the recorded value at its index: the verifier
    regenerates the witness wherever a constraint reads it."""
    assert checked.cs.num_vars == recorded.cs.num_vars == len(recorded.values)
    assert all(recorded.values[var] == value for var, value in checked.values.items())
