"""The key cache's policy: ``pairing.KeyCache``, which holds the Miller
lines of ``pairing.precompute_g2``.

The policy runs on cheap stand-in keys, a cache over a check and a build
that only record their calls; the cases that need the library's own
check and walk use real keys.
"""

import functools
import importlib
import random
import sys
import threading
from collections import Counter

import pytest

from blsces import bls, formats
from blsces.errors import OffCurveError
from blsces.groups import G2_GEN

pairing = importlib.import_module("blsces.groups.pairing")

KEYS = 256
ZIPF = [1 / (rank + 1) ** 1.2 for rank in range(KEYS)]


def recording_cache(bad=(), unbuildable=()):
    """A KeyCache over a check that refuses the keys ``bad`` and a build
    that raises on the keys ``unbuildable``; ``calls`` records both."""
    calls = {"checked": [], "built": []}

    def check(key):
        calls["checked"].append(key)
        if key in bad:
            raise OffCurveError(f"bad key {key!r}")

    def build(key):
        calls["built"].append(key)
        if key in unbuildable:
            raise OffCurveError(f"no lines for {key!r}")
        return ("lines", key)

    return pairing.KeyCache(check, build), calls


def test_a_much_used_key_survives_one_off_keys():
    """A key with 20 uses outlives 64 keys used once each, where a 32-entry
    LRU drops it after 32; as its count halves away it is evicted, and
    once it has also left the ghost record it is checked again."""
    cache, calls = recording_cache()
    for _ in range(20):
        assert cache("hot") == ("lines", "hot")
    for key in range(64):
        cache(key)
    cache("hot")
    assert calls["built"].count("hot") == 1
    for key in range(64, 1064):
        cache(key)
    cache("hot")
    assert calls["built"].count("hot") == 2
    assert calls["checked"].count("hot") == 2
    assert cache.cache_info().currsize == pairing.KeyCache.MAXSIZE


def test_an_evicted_key_is_walked_but_not_checked_again(monkeypatch):
    """A key pushed out by 32 others is in the ghost record: on its return
    its lines are walked again and check_g2 does not run.  cache_clear
    forgets the ghosts too."""
    rng = random.Random(30)
    first, *others = [bls.keygen(rng).pk for _ in range(33)]
    pairing.precompute_g2.cache_clear()
    checked, walked = [], []
    check_g2, walk = pairing.check_g2, pairing.G2Precomp
    monkeypatch.setattr(pairing, "check_g2", lambda q: checked.append(q) or check_g2(q))
    monkeypatch.setattr(pairing, "G2Precomp", lambda q: walked.append(q) or walk(q))
    for q in [first, *others]:
        pairing.precompute_g2(q)
    assert checked == walked == [first, *others]
    lines = pairing.precompute_g2(first)
    assert walked[-1] == first and checked == [first, *others]
    assert lines.steps == walk(first).steps and lines.tail == walk(first).tail
    # first's return evicted others[0], the oldest of the least used
    assert others[0] in pairing.precompute_g2._ghosts
    pairing.precompute_g2.cache_clear()
    pairing.precompute_g2(others[0])
    assert checked[-1] == others[0]
    pairing.precompute_g2.cache_clear()


def test_fresh_keys_verified_together_are_checked_and_walked_once(monkeypatch):
    """16 keys parsed from their files and then verified together: each
    is checked once and walked once, by the parse, and the generator is
    walked once and never checked."""
    rng = random.Random(16)
    keys = [bls.keygen(rng) for _ in range(16)]
    msgs = [f"fresh key {i}".encode() for i in range(16)]
    agg = bls.aggregate([bls.sign(kp.sk, m) for kp, m in zip(keys, msgs)])
    docs = [formats.public_key_to_json(kp.pk) for kp in keys]
    pairing.precompute_g2.cache_clear()
    checked, walked = [], []
    check_g2, walk = pairing.check_g2, pairing.G2Precomp
    monkeypatch.setattr(pairing, "check_g2", lambda q: checked.append(q) or check_g2(q))
    monkeypatch.setattr(pairing, "G2Precomp", lambda q: walked.append(q) or walk(q))
    pks = [formats.public_key_from_json(doc) for doc in docs]
    assert bls.verify_aggregate(pks, msgs, agg)
    assert Counter(checked) == Counter(kp.pk for kp in keys)
    assert Counter(walked) == Counter([G2_GEN, *(kp.pk for kp in keys)])


def test_a_zipf_replay_misses_less_than_an_lru():
    """Over a Zipf(1.2) sequence on 256 keys, the shape of the
    wallet-many-issuers benchmark, the cache walks less than a 32-entry
    LRU, and checks less still: a returning key is walked, not checked."""
    seq = random.Random(12).choices(range(KEYS), weights=ZIPF, k=4000)
    lru = functools.lru_cache(maxsize=pairing.KeyCache.MAXSIZE)(lambda key: key)
    cache, calls = recording_cache()
    for key in seq:
        lru(key)
        cache(key)
    lru_misses = lru.cache_info().misses
    assert cache.cache_info().misses == len(calls["built"]) < 0.9 * lru_misses
    assert len(calls["checked"]) < 0.5 * lru_misses
    assert cache.cache_info().hits + cache.cache_info().misses == len(seq)


def test_a_failed_check_or_walk_is_neither_cached_nor_remembered():
    cache, calls = recording_cache(bad={"bad"}, unbuildable={"unwalkable"})
    for _ in range(2):
        for key in ("bad", "unwalkable"):
            with pytest.raises(OffCurveError):
                cache(key)
    assert calls["checked"] == ["bad", "unwalkable"] * 2
    assert calls["built"] == ["unwalkable"] * 2
    # a full cache evicting into the ghost record does not let them in
    for key in range(100):
        cache(key)
    with pytest.raises(OffCurveError):
        cache("unwalkable")
    assert calls["checked"].count("unwalkable") == 3
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 100, pairing.KeyCache.MAXSIZE)


def test_threads_sharing_the_cache_keep_its_bounds():
    """Four threads drive one cache with a switch interval of 1 us: none
    raises, every value is its key's, no key is built without having
    passed its check, and the cache ends with at most 32 values and 128
    ghosts, which an insertion or eviction without the lock would
    overrun."""
    checked = set()

    def build(key):
        if key not in checked:
            raise AssertionError(f"{key} built unchecked")
        return ("lines", key)

    cache = pairing.KeyCache(checked.add, build)
    errors = []

    def drive(seed):
        try:
            for key in random.Random(seed).choices(range(KEYS), weights=ZIPF, k=3000):
                assert cache(key) == ("lines", key)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache.cache_info().currsize <= pairing.KeyCache.MAXSIZE
    assert len(cache._ghosts) <= pairing.KeyCache.GHOSTS
