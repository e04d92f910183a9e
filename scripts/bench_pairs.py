"""Run the benchmark on two checkouts in alternating pairs, and summarize.

    python scripts/bench_pairs.py run --parent DIR --change DIR \\
        --workload NAME --pairs N [--first-seed S] [--seconds T] --out runs.jsonl
    python scripts/bench_pairs.py summarize runs.jsonl ... --write BENCH_<n>.json

``run`` runs ``perfbench/run.py --trace 0`` of each checkout once per
seed, alternating which of the two goes first, and appends one JSON line
per run: the label, workload, seed, exit status, and perfbench's run
record and result line.  ``summarize`` reads such files and writes, per
workload and metric, the parent and change medians over the pairs in
which both runs printed a result, the parent's quartiles, the change's
share of pairs it won, the relative change, the metric's bound from
``BENCHMARK.json`` with whether the change is worse than that, and
whether a gain would hold (9 of 10 pairs won, and a median gap wider
than the parent's quartile spread).  It also writes the pair count, the
seeds, any run that failed (label, seed and exit status), and the run
length and machine line read from the run records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

LABELS = ("parent", "change")


def run(args) -> int:
    dirs = {"parent": Path(args.parent), "change": Path(args.change)}
    with open(args.out, "a") as out:
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = LABELS if k % 2 == 0 else LABELS[::-1]
            for label in order:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=dirs[label], capture_output=True, text=True,
                )
                lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
                record = next((x["run_record"] for x in lines if "run_record" in x), None)
                result = next((x for x in lines if "metrics" in x), None)
                out.write(json.dumps({"label": label, "workload": args.workload, "seed": seed,
                                      "exit": proc.returncode, "record": record, "result": result}) + "\n")
                out.flush()
                ops = result["metrics"]["ops_per_s"]["value"] if result else None
                print(f"{args.workload} seed {seed} {label}: exit {proc.returncode}, ops_per_s {ops}", flush=True)
    return 0


def _quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4)
    return [q[0], q[2]]


def _run_ok(run) -> bool:
    return run["exit"] == 0 and bool(run["result"]) and run["result"]["correct"]


def _metric(name, decl, pairs):
    """Medians, quartiles and verdicts of one end-to-end metric over the
    complete pairs: whether the change is worse than the parent by more
    than the metric's bound, and whether a gain would hold (the change
    wins at least 9 of 10 pairs, and its median beats the parent's by more
    than the parent's quartile spread)."""
    vals = {label: [p[label]["result"]["metrics"][name]["value"] for p in pairs] for label in LABELS}
    sign = 1 if decl["better"] == "higher" else -1
    wins = sum(1 for a, b in zip(vals["parent"], vals["change"]) if sign * (b - a) > 0)
    med = {label: statistics.median(vals[label]) for label in LABELS}
    quartiles = _quartiles(vals["parent"])
    relative = (med["change"] / med["parent"] - 1) if med["parent"] else None
    return {
        "unit": pairs[0]["parent"]["result"]["metrics"][name]["unit"],
        "better": decl["better"],
        "bound": decl["bound"],
        "parent_median": med["parent"],
        "change_median": med["change"],
        "parent_quartiles": quartiles,
        "relative_change": relative,
        "change_wins": f"{wins}/{len(pairs)}",
        "worse_than_bound": relative is not None and -sign * relative > decl["bound"],
        "gain_holds": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
        and sign * (med["change"] - med["parent"]) > quartiles[1] - quartiles[0],
    }


def summarize(args) -> int:
    runs = [json.loads(line) for path in args.files for line in open(path) if line.strip()]
    by = defaultdict(dict)  # (workload, seed) -> label -> run
    for r in runs:
        by[(r["workload"], r["seed"])][r["label"]] = r
    bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    decls = {m["name"]: m for m in json.loads(bench.read_text())["end_to_end"]}
    records = [r["record"] for r in runs if r["record"]]
    machines = sorted({f"{rec.get('nproc')} CPUs, Python {rec.get('python')}" for rec in records})
    seconds = sorted({rec["seconds"] for rec in records})
    workloads = {}
    for workload in sorted({w for w, _ in by}):
        keyed = [by[key] for key in sorted(by) if key[0] == workload and set(by[key]) == set(LABELS)]
        failed = [
            {"label": label, "seed": p[label]["seed"], "exit": p[label]["exit"]}
            for p in keyed for label in LABELS if not _run_ok(p[label])
        ]
        pairs = [p for p in keyed if all(p[label]["result"] for label in LABELS)]
        entry = {
            "pairs": len(pairs),
            "seeds": [p["parent"]["seed"] for p in pairs],
            "correct": not failed,
            "metrics": {name: _metric(name, decl, pairs) for name, decl in decls.items()} if pairs else {},
        }
        if failed:
            entry["failed_runs"] = failed
        workloads[workload] = entry
    doc = {
        "command": "perfbench/run.py --trace 0, alternating parent/change pairs",
        "seconds": seconds[0] if len(seconds) == 1 else seconds,
        "machine": machines,
        "workloads": workloads,
    }
    Path(args.write).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, required=True)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=30)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("files", nargs="+")
    s.add_argument("--write", required=True)
    args = parser.parse_args()
    return run(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    sys.exit(main())
