"""Hypothesis fuzzing of the parsers of untrusted documents.

Every JSON file format, the JSON and canonical byte forms of a policy
(CEAS) and the statement layout a proof carries in its header must end
any input in a parse or an ``EncodingError``: never another exception,
and never an allocation the input's size does not pay for.  Inputs are
arbitrary nested JSON-like values, and valid documents with a few of
their fields deleted, replaced or retyped.
"""

import base64
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blsces import bls, formats
from blsces.ces import ces_extract, ces_sign
from blsces.credential import CEAS, Claim, Credential, ExtractionSet
from blsces.errors import EncodingError
from blsces.zk.backend import Proof
from blsces.zk.predicates import RangePredicate
from blsces.zk.statement import PublicInputs, StatementLayout, prover_layout
from blsces.zk.witness import hash_to_curve_witness


@lru_cache(maxsize=None)
def valid_documents():
    """One valid document per parser, keyed by the parser."""
    keys = bls.keygen(random.Random(7))
    cred = Credential((Claim("h", "age", "19"), Claim("h", "country", "fr"), Claim("h", "tier", "gold")))
    ceas = CEAS.from_index_sets(3, [[0], [0, 1], [0, 1, 2]])
    sc = ces_sign(keys.sk, cred, ceas)
    pres = ces_extract(sc, ExtractionSet(frozenset({0, 1})), reextractable=True)
    (x, sign), wit = hash_to_curve_witness(0, cred[0], 3, ceas)
    layout, _ = prover_layout(cred, ceas, {0: wit}, (0,), RangePredicate(0, 10, 99))
    inputs = PublicInputs(x_coords=(x,), sign_bits=(sign,), ceas_bytes=ceas.to_bytes(), extraction=(0,))
    return {
        formats.secret_key_from_json: formats.secret_key_to_json(keys.sk),
        formats.public_key_from_json: formats.public_key_to_json(keys.pk),
        formats.credential_from_json: formats.credential_to_json(cred, ceas),
        formats.signed_from_json: formats.signed_to_json(sc),
        formats.presentation_from_json: formats.presentation_to_json(pres),
        formats.proof_bundle_from_json: formats.proof_bundle_to_json(Proof(b"\x00" * 40), inputs, pres.sigma),
        formats.ceas_from_json: {"n": 3, "subsets": ceas.index_sets()},
        StatementLayout.from_json: layout.to_json(),
    }


PARSERS = [
    formats.secret_key_from_json,
    formats.public_key_from_json,
    formats.credential_from_json,
    formats.signed_from_json,
    formats.presentation_from_json,
    formats.proof_bundle_from_json,
    formats.ceas_from_json,
    StatementLayout.from_json,
]

FORMATS = [
    formats.FORMAT_SECRET_KEY,
    formats.FORMAT_PUBLIC_KEY,
    formats.FORMAT_CREDENTIAL,
    formats.FORMAT_SIGNED,
    formats.FORMAT_PRESENTATION,
    formats.FORMAT_PROOF,
]

FIELD_NAMES = sorted(
    {
        "format", "version", "curve", "secret_key", "public_key", "subject", "claims",
        "property", "value", "hidden", "ceas", "n", "subsets", "signatures", "counters",
        "aggregate_signature", "kept_signatures", "backend", "public_inputs", "x",
        "sign_bits", "extraction", "proof", "profile", "index", "len_subject",
        "len_property", "len_value", "msg_len", "padded_len",
        "predicate", "kind", "claim_index", "low", "high", "expected",
    }
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 255, 256, 1 << 32, 10**30, 1 << 1000])
    | st.floats()
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5, -0.0])
    | st.text(max_size=12)
    | st.sampled_from(["", "00", "zz", "ff" * 32, "ff" * 64, "0" * 128, base64.b64encode(b"x").decode()])
    | st.sampled_from(FIELD_NAMES + FORMATS)
)

JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), children, max_size=6),
    max_leaves=25,
)


def parses_or_encoding_error(parser, doc):
    try:
        parser(doc)
    except EncodingError:
        pass


@given(st.sampled_from(PARSERS), JSON)
@settings(max_examples=400, deadline=None)
def test_parsers_take_any_json_value(parser, doc):
    parses_or_encoding_error(parser, doc)


@given(
    st.sampled_from(PARSERS),
    st.sampled_from(FORMATS),
    st.dictionaries(st.sampled_from(FIELD_NAMES), JSON, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_parsers_take_any_fields_under_a_valid_header(parser, fmt, fields):
    parses_or_encoding_error(parser, dict(fields, format=fmt, version=formats.VERSION, backend="transparent"))


HOSTILE = [None, True, -1, 1 << 64, 10**1000, 0.5, float("inf"), float("nan"), "", "zz", [], {}, [[]], {"": None}]


def _paths(doc, prefix=()):
    """The path of every field and element of doc, containers included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield prefix + (i,)
            yield from _paths(value, prefix + (i,))


def _edit(doc, path, value=None, delete=False):
    """A copy of doc with the field at path replaced by value, or deleted."""
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    head, rest = path[0], path[1:]
    if rest:
        out[head] = _edit(doc[head], rest, value, delete)
    elif delete:
        del out[head]
    else:
        out[head] = value
    return out


def test_parsers_take_every_single_field_substitution():
    for parser, doc in valid_documents().items():
        for path in _paths(doc):
            parses_or_encoding_error(parser, _edit(doc, path, delete=True))
            for value in HOSTILE:
                parses_or_encoding_error(parser, _edit(doc, path, value))


@pytest.mark.parametrize("parser", PARSERS, ids=lambda parser: parser.__qualname__)
@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parsers_take_mutated_valid_documents(parser, data):
    doc = valid_documents()[parser]
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        if data.draw(st.booleans()):
            doc = _edit(doc, path, data.draw(JSON | st.sampled_from(HOSTILE)))
        else:
            doc = _edit(doc, path, delete=True)
    parses_or_encoding_error(parser, doc)


def test_valid_documents_parse():
    for parser, doc in valid_documents().items():
        parser(doc)


@pytest.mark.parametrize("junk", ["!", " ", "\n", "*", "\u00e9", "-", "_"])
@pytest.mark.parametrize("at", [0, 7, -1])
def test_proof_bundle_refuses_junk_in_the_proof(junk, at):
    """A bundle's proof is strict base64: a character outside the
    alphabet anywhere in it is an error, not silently dropped, so one
    proof has one bundle encoding."""
    bundle = valid_documents()[formats.proof_bundle_from_json]
    proof = bundle["proof"]
    k = at % (len(proof) + 1)
    with pytest.raises(EncodingError):
        formats.proof_bundle_from_json(dict(bundle, proof=proof[:k] + junk + proof[k:]))
    assert formats.proof_bundle_from_json(bundle)[0] == Proof(base64.b64decode(proof))


@given(st.binary(max_size=64))
@settings(max_examples=400, deadline=None)
def test_ceas_from_bytes_takes_any_bytes(raw):
    try:
        CEAS.from_bytes(raw)
    except EncodingError:
        pass


@given(
    st.integers(0, (1 << 32) - 1) | st.integers(0, 20),
    st.integers(0, (1 << 32) - 1) | st.integers(0, 6),
    st.binary(max_size=48),
)
@settings(max_examples=400, deadline=None)
def test_ceas_from_bytes_takes_any_header(n, count, body):
    raw = n.to_bytes(4, "big") + count.to_bytes(4, "big") + body
    try:
        ceas = CEAS.from_bytes(raw)
    except EncodingError:
        return
    assert ceas.to_bytes() == raw


@pytest.mark.parametrize("width", [10**8, 1 << 40, 1 << 100])
def test_a_huge_policy_width_is_refused_without_allocating(width):
    """A width the document does not pay for is refused before anything
    of that size is built: the mask bound, the canonical bytes or the
    index lists."""
    docs = [
        {"n": width, "subsets": [[0]]},
        dict(valid_documents()[formats.credential_from_json], ceas={"n": width, "subsets": [[0]]}),
    ]
    bundle = valid_documents()[formats.proof_bundle_from_json]
    docs.append(dict(bundle, public_inputs=dict(bundle["public_inputs"], ceas={"n": width, "subsets": [[0]]})))
    parsers = [formats.ceas_from_json, formats.credential_from_json, formats.proof_bundle_from_json]
    tracemalloc.start()
    try:
        for parser, doc in zip(parsers, docs):
            with pytest.raises(EncodingError):
                parser(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
