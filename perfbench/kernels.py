"""Kernel probe: the pairing-group and hashing kernels on fixed inputs.

The inputs come from a fixed seed, not the workload seed, so the probe
measures the same work in every run.  Each figure is the median of
several repetitions, each scaled by the speed reference.  The Miller
loop and final exponentiation are not public functions, so they are
derived from the public
``pairing_product`` over 1 and over 9 pairs against a key whose line
precomputation is already cached: t(9) - t(1) is 8 Miller loops, and
t(1) less one Miller loop is the final exponentiation.
"""

from __future__ import annotations

import importlib
import random
import statistics

from blsces import bls
from blsces.groups import points
from blsces.groups.params import P, R
from blsces.groups.tower import fp12_mul, fp12_sqr

_pairing = importlib.import_module("blsces.groups.pairing")

PROBE_SEED = "perfbench-kernel-probe"


def _median_seconds(reference, fn, reps: int, inner: int = 1) -> float:
    """Median scaled seconds per call over ``reps`` timed blocks."""
    times = []
    for _ in range(reps):
        mark = reference.block()
        for _ in range(inner):
            fn()
        seconds, factor, _ = reference.finish(mark)
        times.append(seconds * factor / inner)
    return statistics.median(times)


def _fp12(rng):
    return tuple(tuple((rng.randrange(P), rng.randrange(P)) for _ in range(3)) for _ in range(2))


def probe(reference) -> dict:
    """Per-kernel timings as ``{metric: (value, unit)}``, timed with a
    ``speed.Reference``."""
    rng = random.Random(PROBE_SEED)
    a, b = _fp12(rng), _fp12(rng)
    keypair = bls.keygen(rng)
    hashed = [bls.hash_to_g1(f"probe message {i}".encode()).point for i in range(9)]
    _pairing.precompute_g2(keypair.pk)
    one = [(hashed[0], keypair.pk)]
    nine = [(pt, keypair.pk) for pt in hashed]
    t1 = _median_seconds(reference, lambda: _pairing.pairing_product(one), reps=7)
    t9 = _median_seconds(reference, lambda: _pairing.pairing_product(nine), reps=5)
    miller = (t9 - t1) / 8
    scalars = iter([rng.randrange(1, R) for _ in range(9)])
    messages = iter([f"probe hash {i} {rng.getrandbits(64)}".encode() for i in range(21)])
    return {
        "groups.fp12_mul_us": (_median_seconds(reference, lambda: fp12_mul(a, b), reps=5, inner=200) * 1e6, "us"),
        "groups.fp12_sqr_us": (_median_seconds(reference, lambda: fp12_sqr(a), reps=5, inner=200) * 1e6, "us"),
        "groups.miller_loop_ms": (miller * 1e3, "ms"),
        "groups.final_exp_ms": ((t1 - miller) * 1e3, "ms"),
        "groups.g1_mul_ms": (_median_seconds(reference, lambda: points.g1_mul(hashed[0], next(scalars)), reps=9) * 1e3, "ms"),
        "groups.g2_subgroup_check_ms": (_median_seconds(reference, lambda: points.check_g2(keypair.pk), reps=5) * 1e3, "ms"),
        # Every message is new, so each call runs the full counter search.
        "bls.hash_to_g1_ms": (_median_seconds(reference, lambda: bls.hash_to_g1(next(messages)), reps=21) * 1e3, "ms"),
    }
