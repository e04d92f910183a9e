"""Machine-speed reference: every time the benchmark reports is scaled by it.

On a shared machine the speed of a CPU can change by a half within
seconds, and both wall and CPU time follow it.  The benchmark therefore
runs a short fixed kernel next to the work it times: between timed
blocks, and every ``SAMPLE_INTERVAL_S`` inside a block from a timer
signal, so long blocks are sampled evenly in time.  Each block's time
is scaled by the mean speed of the samples on either side of it and
inside it, and the time spent in samples inside a block is taken out
of the block's time.  Reported times read as times on a machine where
one reference step takes ``NOMINAL_STEP_S``.

The kernel is a Karatsuba multiplication in a quadratic extension of a
254-bit prime field, on int tuples through a function call: the same
mix of big-integer arithmetic, tuple building and calls that dominates
blsces, so it slows down with the machine the way blsces does.  It is
the benchmark's own code and does not touch blsces, so no change to
the library can move it.
"""

from __future__ import annotations

import signal
import time

CHUNK_STEPS = 1500
SAMPLE_STEPS = 300
SAMPLE_INTERVAL_S = 0.05
NOMINAL_STEP_S = 1.2e-6
MODULUS = 21888242871839275222246405745257510585808583131406758224131470583
MULTIPLIER = (
    0x2D5B2A0F91C7E4E35B7D2C9A0F1E6D4B8C3A2F1E0D9C8B7A6F5E4D3C2B1A0F9E,
    0x07A6F5E4D3C2B1A0F9E3D5B2A0F91C7E4E35B7D2C9A0F1E6D4B8C3A2F1E0D9C8,
)
REFERENCE_SHARE = 0.03  # reference time after an op, as a share of the op's time


def _mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return ((t0 - t1) % MODULUS, ((a0 + a1) * (b0 + b1) - t0 - t1) % MODULUS)


def step_seconds(min_seconds: float = 0.0, chunk: int = CHUNK_STEPS) -> float:
    """Seconds per reference step, over whole chunks lasting at least
    ``min_seconds`` (one chunk at least)."""
    steps = 0
    t0 = time.perf_counter()
    while True:
        x = (3, 5)
        for _ in range(chunk):
            x = _mul(x, MULTIPLIER)
        steps += chunk
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / steps


class Reference:
    """Times blocks of work and scales them by the reference.

    Use as a context manager around all timing, which installs the
    sampling signal handler.  ``now()`` is ``perf_counter`` less the time
    spent in samples.  ``block()`` starts a block and returns a mark;
    ``lap(name)`` ends a named stage inside the block; ``finish(mark)``
    returns the block's seconds, its speed factor, and each stage's
    scaled seconds.  A stage is scaled by the samples taken inside it,
    or by the block's factor when it was too short to hold any.
    """

    def __init__(self):
        self._inside: list[float] = []
        self._spent = 0.0
        self._before = None
        self._previous_handler = None
        self._laps: list[tuple[str, float, list[float]]] = []
        self._lap_start = (0, 0.0)

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._before = step_seconds()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(step_seconds(chunk=SAMPLE_STEPS))
        self._spent += time.perf_counter() - t0

    def now(self) -> float:
        return time.perf_counter() - self._spent

    def block(self):
        mark = (len(self._inside), self.now())
        self._laps = []
        self._lap_start = mark
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return mark

    def lap(self, name: str):
        first, start = self._lap_start
        now = self.now()
        self._laps.append((name, now - start, self._inside[first:]))
        self._lap_start = (len(self._inside), now)

    def finish(self, mark) -> tuple[float, float, dict[str, float]]:
        seconds = self.now() - mark[1]
        signal.setitimer(signal.ITIMER_REAL, 0)
        after = step_seconds(REFERENCE_SHARE * seconds)
        samples = self._inside[mark[0]:] + [self._before, after]
        self._before = after
        factor = _factor(samples)
        stages = {name: lap_s * (_factor(inside) if inside else factor) for name, lap_s, inside in self._laps}
        return seconds, factor, stages


def _factor(samples):
    return NOMINAL_STEP_S * len(samples) / sum(samples)

