"""``scripts/bench_pairs.py summarize`` on made-up run records."""

import argparse
import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(label, seed, ops, verify_ms, exit_code=0):
    record = {"seconds": 12, "nproc": 2, "python": "3.11.7"}
    metrics = {"setup_s": 1.0, "ops_per_s": ops, "verify_ms": verify_ms, "peak_rss_mb": 20.0}
    result = {"correct": True, "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return {"label": label, "workload": "w", "seed": seed, "exit": exit_code, "record": record, "result": result}


def test_summarize_reports_failed_pair_and_verdicts(tmp_path):
    runs = []
    for seed in range(1, 11):
        # the change wins ops_per_s in 9 of 10 pairs and is 30% slower to verify
        runs.append(_run("parent", seed, 100.0 + seed % 3, 10.0))
        runs.append(_run("change", seed, 99.0 if seed == 1 else 120.0, 13.0))
    runs.append(_run("parent", 11, 100.0, 10.0))
    runs.append({"label": "change", "workload": "w", "seed": 11, "exit": 1, "record": None, "result": None})
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in runs))
    out = tmp_path / "bench.json"
    assert _load().summarize(argparse.Namespace(files=[str(path)], write=str(out))) == 0
    doc = json.loads(out.read_text())
    assert doc["seconds"] == 12
    entry = doc["workloads"]["w"]
    assert entry["correct"] is False
    assert entry["failed_runs"] == [{"label": "change", "seed": 11, "exit": 1}]
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(1, 11))
    ops = entry["metrics"]["ops_per_s"]
    assert ops["change_wins"] == "9/10" and ops["gain_holds"] and not ops["worse_than_bound"]
    verify = entry["metrics"]["verify_ms"]
    assert verify["bound"] == 0.2 and verify["worse_than_bound"] and not verify["gain_holds"]
    assert not entry["metrics"]["setup_s"]["gain_holds"]
