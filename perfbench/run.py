#!/usr/bin/env python3
"""Benchmark of blsces: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload verify-one-issuer --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the run record: interpreter, CPU count, load, seed, commit, and
for every figure its sample count and percentile.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it measures the ops untraced for a third of the
time, replays the same ops with every traced function wrapped and then
untraced again, checks that a second build from the same seed gives the
same exact counts, and runs the kernel probe.  Spans are written under
``.bench_build/perfbench``.

See perfbench/README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3
DETERMINISM_CYCLES = 1
DIGEST_CYCLES = 4
MAX_REPORTED_ERRORS = 3


def _git_commit():
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _p50(values):
    return statistics.median(values) if values else 0.0


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def _figure(value, unit, samples, percentile, over):
    return {"value": value, "unit": unit, "samples": samples, "percentile": percentile, "over": over}


class Result:
    """One op: its wall time, the speed factor that scales it, and its
    stages' scaled times."""

    __slots__ = ("index", "seconds", "factor", "stages", "outcome", "ok", "error")

    def __init__(self, index, seconds, factor, stages, outcome, ok, error):
        self.index, self.seconds, self.factor, self.stages = index, seconds, factor, stages
        self.outcome, self.ok, self.error = outcome, ok, error

    @property
    def scaled(self):
        return self.seconds * self.factor


def run_ops(wl, reference, *, deadline=None, indices=None, tracer=None):
    """Closed loop with one client.  With ``deadline`` it runs whole
    cycles from op 0 until the deadline has passed; with ``indices`` it
    runs exactly those ops."""
    results = []
    clock = time.perf_counter
    k = 0
    while True:
        if indices is not None:
            if k == len(indices):
                break
            index = indices[k]
        else:
            if k and k % wl.cycle == 0 and clock() >= deadline:
                break
            index = k
        op = wl.op(index)
        if tracer is not None:
            tracer.op = index
        error = None
        outcome = None
        mark = reference.block()
        try:
            outcome = wl.run_op(op, reference.lap)
        except Exception:  # a failed op is counted, and the run goes on
            error = traceback.format_exc()
        seconds, factor, stages = reference.finish(mark)
        ok = (
            outcome is not None
            and outcome.accept == op.expect_accept
            and (outcome.code == "ok" or not op.expect_accept)
        )
        results.append(Result(index, seconds, factor, stages, outcome, ok, error))
        k += 1
    return results


def build(workloads, reference, name, seed):
    """Build the workload ``SETUP_REPS`` times from cold caches; return
    the builds, their set-up times and the speed factors scaling them."""
    builds, times, factors = [], [], []
    for _ in range(SETUP_REPS):
        workloads.reset_caches()
        mark = reference.block()
        wl = workloads.WORKLOADS[name](seed)
        wl.warm()
        seconds, factor, _ = reference.finish(mark)
        times.append(seconds)
        factors.append(factor)
        builds.append(wl)
    return builds, times, factors


def measure(workloads, wl, reference, tracer=None, **loop):
    """Run ops from cold caches plus the workload's warm-up; return the
    results and the caches' hit ratios over the ops."""
    workloads.reset_caches()
    wl.warm()
    before = workloads.cache_stats()
    if tracer is None:
        results = run_ops(wl, reference, **loop)
    else:
        with tracer:
            results = run_ops(wl, reference, tracer=tracer, **loop)
    return results, workloads.hit_ratios(before, workloads.cache_stats())


def summarize(results, wl):
    """Run-record figures over the ops of one phase, in scaled time.
    Throughput and ``verify_ms`` are over every op; percentiles are over
    honest ops that accepted."""
    n = len(results)
    honest = [r for r in results if r.ok and wl.op(r.index).expect_accept]
    stages = {}
    for r in honest:
        for stage, seconds in r.stages.items():
            stages.setdefault(stage, []).append(seconds)
    busy = sum(r.scaled for r in results)
    failed = sum(1 for r in results if not r.ok)
    figures = {
        "ops": n,
        "ops_per_s": _figure(n / busy, "1/s", n, "mean", "all ops"),
        "unscaled_ops_per_s": _figure(n / sum(r.seconds for r in results), "1/s", n, "mean", "all ops"),
        "speed_factor": _figure(_p50([r.factor for r in results]), "ratio", n, "p50", "all ops"),
        "op_p50_ms": _figure(_p50([r.scaled for r in honest]) * 1e3, "ms", len(honest), "p50", "honest ops"),
        "fail_ratio": _figure(failed / n, "ratio", n, "mean", "all ops"),
    }
    # A cycle's ops have a fixed mix, so cycle means are like samples.
    # Their median is steady where the per-op distribution has one mode
    # per disclosure size and its median sits at the edge of one.
    cycles = {}
    for r in results:
        if "verify" in r.stages:
            cycles.setdefault(r.index // wl.cycle, []).append(r.stages["verify"])
    cycle_means = [statistics.fmean(v) for v in cycles.values()]
    figures["verify_ms"] = _figure(
        _p50(cycle_means) * 1e3, "ms", len(cycle_means), "p50 of cycle means", "cycles of all ops"
    )
    for stage, values in sorted(stages.items()):
        figures[f"{stage}_p50_ms"] = _figure(_p50(values) * 1e3, "ms", len(values), "p50", "honest ops")
        if len(values) >= 200:
            figures[f"{stage}_p95_ms"] = _figure(
                _nearest_rank(values, 0.95) * 1e3, "ms", len(values), "p95 (nearest rank)", "honest ops"
            )
    proof_bytes = [r.outcome.proof_bytes for r in honest if r.outcome.proof_bytes]
    if proof_bytes:
        figures["proof_bytes"] = _figure(_p50(proof_bytes), "bytes", len(proof_bytes), "p50", "honest ops")
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blsces" / "__init__.py").is_file():
        print(f"perfbench: no blsces sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blsces

    if Path(blsces.__file__).resolve().parent != (SRC / "blsces").resolve():
        print(f"perfbench: imported blsces from {blsces.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "clients": 1,
        "loop": "closed",
    }
    with speed.Reference() as reference:
        return measured_run(workloads, reference, args, record)


def measured_run(workloads, reference, args, record):
    builds, setup_times, setup_factors = build(workloads, reference, args.workload, args.seed)
    wl = builds[-1]
    digest_ops = DIGEST_CYCLES * wl.cycle
    digests = {b.digest(digest_ops) for b in builds}
    checks = {"setup_digests_equal": len(digests) == 1}
    setup_scaled = [t * f for t, f in zip(setup_times, setup_factors)]
    record["setup_s"] = _figure(statistics.median(setup_scaled), "s", len(setup_scaled), "p50", "set-ups")
    record["setup_s_unscaled"] = setup_times
    record["setup_speed_factors"] = setup_factors

    if args.trace:
        metrics, results, checks_t = traced_run(workloads, reference, builds, args, record)
        checks.update(checks_t)
    else:
        deadline = time.perf_counter() + args.seconds
        results, record["caches"] = measure(workloads, wl, reference, deadline=deadline)
        figures = summarize(results, wl)
        record.update(figures)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["peak_rss_mb"] = _figure(peak_rss_mb, "MB", 1, "max", "process lifetime")
        metrics = {
            "setup_s": (record["setup_s"]["value"], "s"),
            "ops_per_s": (figures["ops_per_s"]["value"], "1/s"),
            "verify_ms": (figures["verify_ms"]["value"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    h = hashlib.sha256()
    for index in sorted({r.index for r in results}):
        h.update(repr(wl.op(index)).encode())
    record["schedule_digest"] = h.hexdigest()
    record["setup_digest"] = digests.pop() if len(digests) == 1 else None
    record["checks"] = checks
    record["loadavg_end"] = os.getloadavg()

    failed = sum(1 for r in results if not r.ok)
    for r in [r for r in results if not r.ok][:MAX_REPORTED_ERRORS]:
        op = wl.op(r.index)
        got = r.error or f"accept={r.outcome.accept} code={r.outcome.code}"
        print(f"perfbench: op {r.index} ({op.forgery or 'honest'}) failed: {got}", file=sys.stderr)
    for name, ok in checks.items():
        if not ok:
            print(f"perfbench: check {name} failed", file=sys.stderr)
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def traced_run(workloads, reference, builds, args, record):
    import kernels
    import tracing

    wl = builds[-1]

    # The traced replay sits between two untraced runs of the same ops,
    # so drift over the run does not read as tracing overhead.
    untraced, _ = measure(workloads, wl, reference, deadline=time.perf_counter() + args.seconds / 3)
    indices = [r.index for r in untraced]
    tracer = tracing.Tracer(reference.now)
    traced, caches = measure(workloads, wl, reference, tracer, indices=indices)
    untraced_again, _ = measure(workloads, wl, reference, indices=indices)

    # A second build from the same seed must repeat the exact counts.
    again = indices[: DETERMINISM_CYCLES * wl.cycle]
    tracer_again = tracing.Tracer(reference.now)
    repeat, _ = measure(workloads, builds[0], reference, tracer_again, indices=again)
    first = tracing.exact_counts(tracer.spans)
    second = tracing.exact_counts(tracer_again.spans)
    same_counts = all(first.get(i) == second.get(i) for i in again)
    record["exact_counts"] = {str(i): first.get(i) for i in again}

    probe = kernels.probe(reference)

    n = len(traced)
    metrics = tracing.layer_metrics(tracer.spans, n, {r.index: r.factor for r in traced})
    metrics["groups.precompute_g2.misses"] = (caches["precompute_g2"]["misses"] / n, "count/op")
    metrics["groups.precompute_g2.hit_ratio"] = (caches["precompute_g2"]["hit_ratio"], "ratio")
    metrics["bls.hash_to_g1.hit_ratio"] = (caches["hash_to_g1"]["hit_ratio"], "ratio")
    untraced_s = sum(r.scaled for r in untraced + untraced_again) / 2
    traced_s = sum(r.scaled for r in traced)
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    metrics.update(probe)

    record["untraced"] = summarize(untraced, wl)
    record["traced"] = summarize(traced, wl)
    record["caches"] = caches

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op", "attrs"], "spans": tracer.spans})
    )
    record["spans_file"] = str(spans_path.relative_to(ROOT))

    checks = {
        "traced_verdicts_match_untraced": [r.ok for r in traced] == [r.ok for r in untraced]
        == [r.ok for r in untraced_again],
        "exact_counts_repeat": same_counts and [r.ok for r in repeat] == [r.ok for r in traced[: len(again)]],
    }
    return metrics, untraced + traced + untraced_again + repeat, checks


if __name__ == "__main__":
    sys.exit(main())
