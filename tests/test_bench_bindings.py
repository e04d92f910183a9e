"""The benchmark's traced run wraps library functions by name.

``perfbench/tracing.py`` patches the bindings listed in ``TRACED`` and
``perfbench/workloads.py`` reads the library's caches through
``cache_info()``.  A rename in the library would otherwise only show up
as a failed ``perfbench/run.py --trace 1``, and a binding the library
stops calling through only as a per-layer metric that reads 0.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_binding_resolves(perfbench):
    tracing, _ = perfbench
    for module_name, attr, name, _hook in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} (span {name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_bench_cache_reports_cache_info(perfbench):
    _, workloads = perfbench
    assert workloads.CACHES
    for name, cache in workloads.CACHES.items():
        assert callable(getattr(cache, "cache_info", None)), f"cache {name} has no cache_info"


# The spans each workload's ops fire, seed 1, over two cycles.
FIRED = {
    "verify-one-issuer": {
        "bls.hash_to_g1_at", "bls.verify_aggregate_points", "ces.ces_verify", "credential.ceas_contains",
        "credential.encode_claim_message", "groups.decompress_x", "groups.pairing_product", "groups.precompute_g2",
    },
    "wallet-many-issuers": {
        "bls.aggregate", "bls.hash_to_g1", "bls.hash_to_g1_at", "bls.verify_aggregate_points", "ces.ces_extract",
        "ces.ces_sign", "ces.ces_verify", "credential.ceas_contains", "credential.encode_claim_message",
        "formats.presentation_from_json", "formats.public_key_from_json", "formats.signed_from_json",
        "groups.check_g2", "groups.decompress_x", "groups.pairing_product", "groups.precompute_g2",
    },
    "zk-range": {
        "bls.hash_to_g1", "bls.verify_aggregate_points", "credential.ceas_contains",
        "credential.encode_claim_message", "groups.decompress_x", "groups.pairing_product", "groups.precompute_g2",
        "zk.backend.parse", "zk.backend.prove", "zk.backend.verify", "zk.hash_to_curve_witness",
        "zk.prove_extraction", "zk.synthesize.shape", "zk.zk_verify",
    },
}


@pytest.mark.parametrize("name", sorted(FIRED))
def test_every_traced_span_still_fires(perfbench, name):
    """Two cycles of each workload under the tracer, from cold caches as
    the benchmark runs them, fire every span they fired before: a span
    whose binding the library no longer calls through is caught here."""
    tracing, workloads = perfbench
    workloads.reset_caches()
    wl = workloads.WORKLOADS[name](1)
    wl.warm()
    tracer = tracing.Tracer()
    with tracer:
        for k in range(2 * wl.cycle):
            op = wl.op(k)
            tracer.op = k
            assert wl.run_op(op, lambda stage: None).accept == op.expect_accept
    fired = {span[tracing.NAME] for span in tracer.spans}
    assert FIRED[name] <= fired, f"spans no longer fired: {sorted(FIRED[name] - fired)}"
