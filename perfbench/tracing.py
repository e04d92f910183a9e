"""Span tracing of blsces from outside the library.

The library has no tracing of its own yet, so this module wraps the
public functions of each ``src/blsces`` module at the binding the
caller looks up.  Modules import names directly (``from blsces.credential
import encode_claim_message``), so one function can have several
bindings, and each one is wrapped under the same span name.  Methods are
wrapped on their class.

A span records its name, start, end, parent span, the op it belongs to,
and optional attributes taken from the call's arguments or result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _pairs(args, result):
    # Miller loops run: pairs whose G1 and G2 sides are both non-identity.
    return {"pairs": sum(1 for pt, q in args[0] if not pt.infinity and not getattr(q, "infinity", False))}


def _cs_shape(args, result):
    cs = result.cs
    return {
        "claims": len(result.layout.extraction),
        "constraints": len(cs),
        "bools": len(cs.bools),
        "vars": cs.num_vars,
    }


def _proof_bytes(args, result):
    return {"bytes": len(result.data)}


# (module, attribute or Class.method, span name, attribute hook)
TRACED = [
    ("blsces.groups.pairing", "pairing_product", "groups.pairing_product", _pairs),
    ("blsces.groups.pairing", "precompute_g2", "groups.precompute_g2", None),
    ("blsces.groups.pairing", "check_g2", "groups.check_g2", None),
    ("blsces.groups.encoding", "check_g2", "groups.check_g2", None),
    ("blsces.groups.points", "g1_mul", "groups.g1_mul", None),
    ("blsces.groups.encoding", "decompress_x", "groups.decompress_x", None),
    ("blsces.zk.protocol", "decompress_x", "groups.decompress_x", None),
    ("blsces.bls", "hash_to_g1", "bls.hash_to_g1", None),
    ("blsces.bls", "hash_to_g1_at", "bls.hash_to_g1_at", None),
    ("blsces.bls", "verify_aggregate_points", "bls.verify_aggregate_points", None),
    ("blsces.bls", "aggregate", "bls.aggregate", None),
    ("blsces.ces", "encode_claim_message", "credential.encode_claim_message", None),
    ("blsces.zk.witness", "encode_claim_message", "credential.encode_claim_message", None),
    ("blsces.zk.statement", "encode_claim_message", "credential.encode_claim_message", None),
    ("blsces.ces", "ceas_contains", "credential.ceas_contains", None),
    ("blsces.zk.protocol", "ceas_contains", "credential.ceas_contains", None),
    ("blsces.ces", "ces_sign", "ces.ces_sign", None),
    ("blsces.ces", "ces_extract", "ces.ces_extract", None),
    ("blsces.ces", "ces_verify", "ces.ces_verify", None),
    ("blsces.formats", "public_key_from_json", "formats.public_key_from_json", None),
    ("blsces.formats", "signed_from_json", "formats.signed_from_json", None),
    ("blsces.formats", "presentation_from_json", "formats.presentation_from_json", None),
    ("blsces.zk.protocol", "prove_extraction", "zk.prove_extraction", None),
    ("blsces.zk.protocol", "zk_verify", "zk.zk_verify", None),
    ("blsces.zk.protocol", "hash_to_curve_witness", "zk.hash_to_curve_witness", None),
    ("blsces.zk.protocol", "build_statement", "zk.build_statement", None),
    ("blsces.zk.statement", "synthesize", "zk.synthesize.full", _cs_shape),
    ("blsces.zk.backend", "synthesize", "zk.synthesize.shape", _cs_shape),
    ("blsces.zk.backend", "TransparentBackend.prove", "zk.backend.prove", _proof_bytes),
    ("blsces.zk.backend", "TransparentBackend.parse", "zk.backend.parse", None),
    ("blsces.zk.backend", "TransparentBackend.verify", "zk.backend.verify", None),
    ("blsces.zk.r1cs", "ConstraintSystem.satisfied", "zk.satisfied", None),
]

HOOKED = {name for _, _, name, hook in TRACED if hook is not None}

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Records spans while installed; ``op`` tags each span with the op
    that caused it, and ``clock()`` gives start and end in seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[ATTRS] = hook(args, result)
                return result
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self):
        for module_name, attr, name, hook in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _parent_name(spans, span):
    return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None


def _ancestor(spans, idx, name):
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return -1


def span_totals(spans, factors):
    """Per span name: calls, total and self seconds, each span
    scaled by its op's speed factor.  Self time is duration minus the
    direct children's durations (one thread, so children never
    overlap)."""
    child_s = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, span in enumerate(spans):
        factor = factors[span[OP]]
        dur = span[END] - span[START]
        t = totals[span[NAME]]
        t["calls"] += 1
        t["s"] += dur * factor
        t["self_s"] += (dur - child_s[idx]) * factor
    return totals


def exact_counts(spans):
    """Counts per op that must repeat exactly for a fixed seed: Miller
    loops, hash counter steps, constraints per claim and proof bytes."""
    per_op = defaultdict(lambda: {"miller_loops": 0, "counter_steps": 0, "constraints_per_claim": [], "proof_bytes": 0})
    for span in spans:
        name, op, attrs = span[NAME], span[OP], span[ATTRS]
        counts = per_op[op]
        if attrs is None and name in HOOKED:
            continue  # the call raised before its attributes were taken
        if name == "groups.pairing_product":
            counts["miller_loops"] += attrs["pairs"]
        elif name == "bls.hash_to_g1_at" and _parent_name(spans, span) == "bls.hash_to_g1":
            counts["counter_steps"] += 1
        elif name == "zk.synthesize.full":
            counts["constraints_per_claim"].append(attrs["constraints"] / attrs["claims"])
        elif name == "zk.backend.prove":
            counts["proof_bytes"] += attrs["bytes"]
    return dict(per_op)


def layer_metrics(spans, n_ops, factors):
    """Per-layer metrics from the spans of ``n_ops`` traced ops, with
    ``factors`` mapping each op to its speed factor.  Times and counts
    are per op; constraint counts are per statement size."""
    totals = span_totals(spans, factors)

    def calls(name):
        return totals[name]["calls"] / n_ops

    def ms(name, key="s"):
        return totals[name][key] * 1e3 / n_ops

    spans_with = [s for s in spans if s[ATTRS] is not None]
    pairs = sum(s[ATTRS]["pairs"] for s in spans_with if s[NAME] == "groups.pairing_product")

    # Hash attempts made by try-and-increment searches (cache misses)
    # versus verifier-side single evaluations at a presented counter.
    steps = direct_at = 0
    direct_at_s = 0.0
    searched = set()
    for s in spans:
        if s[NAME] != "bls.hash_to_g1_at":
            continue
        if _parent_name(spans, s) == "bls.hash_to_g1":
            steps += 1
            searched.add(s[PARENT])
        else:
            direct_at += 1
            direct_at_s += (s[END] - s[START]) * factors[s[OP]]

    # Miller loops beyond the disclosed claims, per ces_verify that
    # reached the pairing check.
    disclosed = defaultdict(int)
    verify_pairs = defaultdict(int)
    for idx, s in enumerate(spans):
        if s[NAME] == "credential.encode_claim_message" and _parent_name(spans, s) == "ces.ces_verify":
            disclosed[s[PARENT]] += 1
        elif s[NAME] == "groups.pairing_product" and s[ATTRS] is not None:
            v = _ancestor(spans, idx, "ces.ces_verify")
            if v >= 0:
                verify_pairs[v] += s[ATTRS]["pairs"]
    extra = [verify_pairs[v] - disclosed[v] for v in verify_pairs]

    shapes = {}
    for s in spans_with:
        if s[NAME] in ("zk.synthesize.full", "zk.synthesize.shape"):
            shapes.setdefault(s[ATTRS]["claims"], s[ATTRS])

    def shape(k, key):
        return shapes[k][key] if k in shapes else 0

    return {
        "groups.pairing_product.calls": (calls("groups.pairing_product"), "count/op"),
        "groups.pairing_product.pairs": (pairs / n_ops, "count/op"),
        "groups.pairing_product.self_ms": (ms("groups.pairing_product", "self_s"), "ms/op"),
        "groups.precompute_g2.ms": (ms("groups.precompute_g2"), "ms/op"),
        "groups.check_g2.calls": (calls("groups.check_g2"), "count/op"),
        "groups.check_g2.ms": (ms("groups.check_g2"), "ms/op"),
        "groups.g1_mul.calls": (calls("groups.g1_mul"), "count/op"),
        "groups.g1_mul.ms": (ms("groups.g1_mul"), "ms/op"),
        "groups.decompress_x.calls": (calls("groups.decompress_x"), "count/op"),
        "groups.decompress_x.ms": (ms("groups.decompress_x"), "ms/op"),
        "bls.hash_to_g1.calls": (calls("bls.hash_to_g1"), "count/op"),
        "bls.hash_to_g1.ms": (ms("bls.hash_to_g1"), "ms/op"),
        "bls.hash_to_g1.counter_steps": (steps / n_ops, "count/op"),
        "bls.hash_to_g1.steps_per_point": (steps / len(searched) if searched else 0.0, "ratio"),
        "bls.hash_to_g1_at.calls": (direct_at / n_ops, "count/op"),
        "bls.hash_to_g1_at.ms": (direct_at_s * 1e3 / n_ops, "ms/op"),
        "bls.verify_aggregate_points.calls": (calls("bls.verify_aggregate_points"), "count/op"),
        "bls.verify_aggregate_points.ms": (ms("bls.verify_aggregate_points"), "ms/op"),
        "bls.aggregate.ms": (ms("bls.aggregate"), "ms/op"),
        "credential.encode_claim_message.calls": (calls("credential.encode_claim_message"), "count/op"),
        "credential.encode_claim_message.ms": (ms("credential.encode_claim_message"), "ms/op"),
        "credential.ceas_contains.ms": (ms("credential.ceas_contains"), "ms/op"),
        "ces.ces_sign.ms": (ms("ces.ces_sign"), "ms/op"),
        "ces.ces_extract.ms": (ms("ces.ces_extract"), "ms/op"),
        "ces.ces_verify.ms": (ms("ces.ces_verify"), "ms/op"),
        "ces.ces_verify.self_ms": (ms("ces.ces_verify", "self_s"), "ms/op"),
        "ces.ces_verify.pairs_minus_disclosed": (sum(extra) / len(extra) if extra else 0.0, "count"),
        "formats.public_key_from_json.ms": (ms("formats.public_key_from_json"), "ms/op"),
        "formats.signed_from_json.ms": (ms("formats.signed_from_json"), "ms/op"),
        "formats.presentation_from_json.ms": (ms("formats.presentation_from_json"), "ms/op"),
        "zk.hash_to_curve_witness.ms": (ms("zk.hash_to_curve_witness"), "ms/op"),
        "zk.build_statement.ms": (ms("zk.build_statement"), "ms/op"),
        "zk.backend.prove.ms": (ms("zk.backend.prove"), "ms/op"),
        "zk.backend.parse.ms": (ms("zk.backend.parse"), "ms/op"),
        "zk.synthesize.shape_ms": (ms("zk.synthesize.shape"), "ms/op"),
        "zk.satisfied.ms": (ms("zk.satisfied"), "ms/op"),
        "zk.constraints.k1": (shape(1, "constraints"), "count"),
        "zk.constraints.k2": (shape(2, "constraints"), "count"),
        "zk.constraints_bool.k1": (shape(1, "bools"), "count"),
        "zk.constraints_bool.k2": (shape(2, "bools"), "count"),
        "zk.num_vars.k1": (shape(1, "vars"), "count"),
        "zk.num_vars.k2": (shape(2, "vars"), "count"),
        "trace.spans_per_op": (len(spans) / n_ops, "count/op"),
    }
