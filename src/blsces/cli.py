"""Command-line workflows for issuer, holder, and verifier roles.

Exit codes: 0 success/accept, 1 cryptographic reject, 2 malformed
input, 3 I/O error.  Every command prints one JSON diagnostic object on
stdout; an input file longer than ``formats.MAX_FILE_BYTES`` is
refused before it is parsed, with exit 2 and kind ``too_large``.
Outputs contain no timestamps or hidden randomness, so runs with the
same inputs (and, for keygen, the same seed) are byte-stable.

Proofs use the transparent prover backend, the only one there is;
zk-verify rejects a bundle that names another as malformed.  prove
writes the aggregate signature of the disclosed claims into the bundle,
so zk-verify reads only the issuer key and the bundle.  Every command
works on BN254.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from blsces import bls, formats
from blsces.ces import ces_extract, ces_sign, ces_verify
from blsces.credential import CEAS, Claim, Credential, ExtractionSet
from blsces.errors import BlscesError, EncodingError, FileTooLargeError, StatementError, ValidationError
from blsces.groups.params import BN254
from blsces.zk import (
    BackendParams,
    EqualsPredicate,
    RangePredicate,
    prove_extraction,
    zk_verify,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2
EXIT_IO = 3


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _read_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            # one byte over the cap is enough for loads to refuse it
            text = fh.read(formats.MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise _IoError(f"cannot read {path}: {exc}") from exc
    return formats.loads(text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoError(f"cannot write {path}: {exc}") from exc


class _IoError(BlscesError):
    pass


def _parse_indices(spec: str, n: int) -> ExtractionSet:
    try:
        idxs = sorted({int(part) for part in spec.split(",") if part.strip() != ""})
    except ValueError as exc:
        raise EncodingError(f"bad index list {spec!r}") from exc
    if not idxs:
        raise EncodingError("empty index list")
    for i in idxs:
        if not 0 <= i < n:
            raise EncodingError(f"index {i} out of range for a {n}-claim credential")
    return ExtractionSet(frozenset(idxs))


def _parse_predicate(spec: str | None):
    if spec is None:
        return None
    parts = spec.split(":")
    try:
        if parts[0] == "range" and len(parts) == 4:
            return RangePredicate(claim_index=int(parts[1]), low=int(parts[2]), high=int(parts[3]))
        if parts[0] == "equals" and len(parts) >= 3:
            return EqualsPredicate(claim_index=int(parts[1]), expected=":".join(parts[2:]))
    except (ValueError, StatementError) as exc:
        raise EncodingError(f"bad predicate {spec!r}: {exc}") from exc
    raise EncodingError(f"bad predicate {spec!r}; use range:IDX:LO:HI or equals:IDX:VALUE")


# -- commands ------------------------------------------------------------------

def cmd_keygen(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    kp = bls.keygen(rng)
    _write_text(args.secret_out, formats.dumps(formats.secret_key_to_json(kp.sk)))
    _write_text(args.public_out, formats.dumps(formats.public_key_to_json(kp.pk)))
    _emit({"ok": True, "secret_key": args.secret_out, "public_key": args.public_out})
    return EXIT_OK


def cmd_issue(args) -> int:
    sk = formats.secret_key_from_json(_read_json(args.key))
    cred, ceas = formats.credential_from_json(_read_json(args.credential))
    if args.ceas is not None:
        data = _read_json(args.ceas)
        ceas = formats.ceas_from_json(data.get("ceas", data) if isinstance(data, dict) else data)
    if ceas is None:
        raise EncodingError("no extraction policy: provide it in the credential file or via --ceas")
    sc = ces_sign(sk, cred, ceas)
    _write_text(args.out, formats.dumps(formats.signed_to_json(sc)))
    _emit({"ok": True, "signed_credential": args.out, "claims": len(cred)})
    return EXIT_OK


def cmd_extract(args) -> int:
    sc = formats.signed_from_json(_read_json(args.signed))
    x = _parse_indices(args.indices, len(sc.cred))
    pres = ces_extract(
        sc, x, reextractable=args.reextractable, blind_properties=args.both_blinded
    )
    _write_text(args.out, formats.dumps(formats.presentation_to_json(pres)))
    _emit({"ok": True, "presentation": args.out, "disclosed": x.sorted()})
    return EXIT_OK


def cmd_verify(args) -> int:
    pk = formats.public_key_from_json(_read_json(args.pubkey))
    pres = formats.presentation_from_json(_read_json(args.presentation))
    result = ces_verify(pk, pres)
    _emit({"ok": bool(result), "code": result.code})
    return EXIT_OK if result else EXIT_REJECT


def cmd_prove(args) -> int:
    sc = formats.signed_from_json(_read_json(args.signed))
    x = _parse_indices(args.indices, len(sc.cred))
    predicate = _parse_predicate(args.predicate)
    proof, inputs = prove_extraction(BackendParams(), sc.cred, sc.ceas, x, predicate=predicate)
    sigma = ces_extract(sc, x).sigma
    _write_text(args.out, formats.dumps(formats.proof_bundle_to_json(proof, inputs, sigma)))
    _emit({"ok": True, "bundle": args.out, "disclosed": x.sorted()})
    return EXIT_OK


def cmd_zk_verify(args) -> int:
    pk = formats.public_key_from_json(_read_json(args.pubkey))
    proof, inputs, sigma = formats.proof_bundle_from_json(_read_json(args.bundle))
    predicate = _parse_predicate(args.predicate)
    result = zk_verify(BackendParams(), pk, sigma, proof, inputs, predicate=predicate)
    _emit(
        {
            "ok": result.accept,
            "code": result.code,
            "policy_ok": result.policy_ok,
            "pairing_ok": result.pairing_ok,
            "proof_ok": result.proof_ok,
            "detail": result.detail,
            "predicate": result.predicate,
        }
    )
    return EXIT_OK if result.accept else EXIT_REJECT


def _demo_credential():
    cred = Credential(
        (
            Claim("holder", "age", "19"),
            Claim("holder", "country", "CH"),
        )
    )
    ceas = CEAS.from_index_sets(2, [[0], [1], [0, 1]])
    return cred, ceas


def cmd_gen_vectors(args) -> int:
    rng = random.Random(args.seed)
    out: dict = {"profile": BN254.name, "seed": args.seed}
    cred, ceas = _demo_credential()
    msgs = [b"", b"abc", b"vector-message"]
    out["hash_to_g1"] = [
        {
            "msg": m.hex(),
            "x": f"{h.x:x}",
            "y": f"{h.point.y:x}",
            "counter": h.counter,
            "sign_bit": h.sign_bit,
        }
        for m in msgs
        for h in [bls.hash_to_g1(m)]
    ]
    kp = bls.keygen(rng)
    out["keypair"] = {"sk": f"{kp.sk:064x}", "pk": formats.public_key_to_json(kp.pk)["public_key"]}
    out["signatures"] = [
        {"msg": m.hex(), "sig": bls.sign(kp.sk, m).data.hex()} for m in msgs
    ]
    sc = ces_sign(kp.sk, cred, ceas)
    out["signed_credential"] = formats.signed_to_json(sc)
    pres = ces_extract(sc, ExtractionSet(frozenset({0})))
    out["presentation"] = formats.presentation_to_json(pres)
    _write_text(args.out, formats.dumps(out))
    _emit({"ok": True, "vectors": args.out, "profile": BN254.name})
    return EXIT_OK


def cmd_self_test(args) -> int:
    checks = {}
    h = bls.hash_to_g1(b"self-test")
    checks["hash_on_curve"] = (h.point.y * h.point.y - BN254.rhs(h.point.x)) % BN254.p == 0
    kp = bls.keygen(random.Random(0xC0FFEE))
    sig = bls.sign(kp.sk, b"self-test")
    checks["sign_verify"] = bls.verify(kp.pk, b"self-test", sig)
    cred, ceas = _demo_credential()
    sc = ces_sign(kp.sk, cred, ceas)
    pres = ces_extract(sc, ExtractionSet(frozenset({0})))
    checks["ces_round_trip"] = bool(ces_verify(kp.pk, pres))
    ok = all(checks.values())
    _emit({"ok": ok, "checks": checks, "profile": BN254.name})
    return EXIT_OK if ok else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blsces",
        description="Selective-disclosure credentials from aggregatable BLS signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate an issuer keypair")
    p.add_argument("--secret-out", required=True)
    p.add_argument("--public-out", required=True)
    p.add_argument("--seed", type=int, default=None, help="deterministic key for test vectors")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("issue", help="sign a credential claim by claim")
    p.add_argument("--key", required=True)
    p.add_argument("--credential", required=True)
    p.add_argument("--ceas", default=None, help="extraction policy file, if not in the credential")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("extract", help="derive a presentation disclosing selected claims")
    p.add_argument("--signed", required=True)
    p.add_argument("--indices", required=True, help="comma-separated claim indices")
    p.add_argument("--reextractable", action="store_true")
    p.add_argument("--both-blinded", action="store_true", help="blind properties of hidden claims too")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="verify a presentation")
    p.add_argument("--pubkey", required=True)
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prove", help="prove hashing and predicate for a disclosure")
    p.add_argument("--signed", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--predicate", default=None, help="range:IDX:LO:HI or equals:IDX:VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("zk-verify", help="verify a proof bundle under an issuer key")
    p.add_argument("--pubkey", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--predicate", default=None, help="accept only a proof of this predicate, as for prove")
    p.set_defaults(func=cmd_zk_verify)

    p = sub.add_parser("gen-vectors", help="write golden test vectors")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=20240001)
    p.set_defaults(func=cmd_gen_vectors)

    sub.add_parser("self-test", help="run a built-in sanity flow").set_defaults(func=cmd_self_test)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IoError as exc:
        _emit({"ok": False, "error": str(exc), "kind": "io"})
        return EXIT_IO
    except FileTooLargeError as exc:
        _emit({"ok": False, "error": str(exc), "kind": "too_large"})
        return EXIT_MALFORMED
    except (EncodingError, StatementError, ValidationError) as exc:
        _emit({"ok": False, "error": str(exc), "kind": "malformed"})
        return EXIT_MALFORMED
    except BlscesError as exc:
        _emit({"ok": False, "error": str(exc), "kind": "error"})
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
