"""Batch front door: certify, synthesize, verify, unroll, decompose.

Exit codes: 0 the property holds or every requested check passed, 1 a
property failed (a witness is in the output), 2 undetermined at this window,
3 malformed input or shape mismatch, 4 scale limit (``WindowScaleError``,
which only ``WindowSubgroup.elements`` raises; no command lists elements, so
it is kept for library callers).  Outputs are canonical JSON, so identical
inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .control import FAILS, HOLDS, UNDETERMINED, PROPERTIES, certify
from .errors import InputError, UndeterminedAtWindowError, WindowScaleError
from .synthesis import (
    check_implicit_direct_product,
    synthesize,
    verify_block_properties,
    verify_isomorphic_encoder,
)
from .templates import closure_window, unroll_template
from .torsion import primary_decompose
from .window import span

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 3
EXIT_SCALE_LIMIT = 4

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, UNDETERMINED: EXIT_UNDETERMINED}


def _load_input(path: str):
    payload = fileio.load_json(path)
    kind = fileio.detect_input_kind(payload)
    if kind == "template":
        return "template", fileio.parse_template(payload, where=path), payload
    return "group", fileio.parse_group(payload, where=path), payload


def _emit(out, payload):
    """Write ``payload`` to the ``--out`` path, or print its canonical JSON."""
    if out:
        fileio.write_json(out, payload)
    else:
        sys.stdout.write(fileio.canonical_json_bytes(payload).decode())


def _check_window(group, window):
    if window is not None and window != group.window.length:
        raise InputError(
            f"--window {window} does not match the group file's window {group.window.length}"
        )


def _materialize(kind, obj, window, closure):
    """Turn a parsed input into the group the command should operate on."""
    if kind == "group":
        if closure:
            raise InputError("--closure only applies to template inputs")
        _check_window(obj, window)
        return obj, ()
    if window is None:
        raise InputError("template inputs need --window")
    result = closure_window(obj, window) if closure else unroll_template(obj, window)
    return result.group, result.skipped


def cmd_check(args) -> int:
    kind, obj, payload = _load_input(args.input)
    if kind == "group":
        _check_window(obj, args.window)
    cert = certify(obj, args.property, window=args.window, max_index=args.max_index)
    _emit(args.out, fileio.certificate_to_json(cert, input_sha256=fileio.sha256_of(payload)))
    print(f"{args.property}: {cert.status}", file=sys.stderr)
    return _STATUS_EXIT[cert.status]


def cmd_unroll(args) -> int:
    kind, obj, _payload = _load_input(args.input)
    if kind != "template":
        raise InputError("unroll expects a template file")
    if args.window is None:
        raise InputError("unroll needs --window")
    result = closure_window(obj, args.window) if args.closure else unroll_template(obj, args.window)
    _emit(args.out, fileio.group_to_json(result.group, skipped=result.skipped))
    if result.skipped:
        print(f"skipped {len(result.skipped)} pattern instance(s)", file=sys.stderr)
    return EXIT_HOLDS


def cmd_decompose(args) -> int:
    kind, obj, payload = _load_input(args.input)
    group, _ = _materialize(kind, obj, args.window, args.closure)
    dec = primary_decompose(group)
    parts = {}
    for part in dec.parts:
        parts[str(part.prime)] = {
            "coordinates": list(part.coordinates),
            "components": [list(c.factor_orders) for c in part.window.components],
            "generators": [fileio.element_to_json(x) for x in part.subgroup.generators],
            "order": part.subgroup.order(),
        }
    out = {
        "input_sha256": fileio.sha256_of(payload),
        "order": group.order(),
        "primes": list(dec.primes),
        "parts": parts,
    }
    _emit(args.out, out)
    return EXIT_HOLDS


def cmd_synthesize(args) -> int:
    kind, obj, payload = _load_input(args.input)
    group, _skipped = _materialize(kind, obj, args.window, args.closure)
    if kind == "template" and not args.closure:
        cert = certify(obj, "order-controllable", window=args.window)
    else:
        cert = certify(group, "order-controllable")
    if cert.status == FAILS and not args.override_undetermined:
        out = fileio.certificate_to_json(cert, input_sha256=fileio.sha256_of(payload))
        if args.out:
            fileio.write_json(args.out, out)
        print("order-controllable: fails; no encoder emitted", file=sys.stderr)
        return EXIT_FAILS
    if cert.status == UNDETERMINED and not args.override_undetermined:
        print(
            "order-controllable: undetermined at this window; "
            "pass --override-undetermined to proceed",
            file=sys.stderr,
        )
        return EXIT_UNDETERMINED

    result = synthesize(group, certificate=cert, accept_undetermined=True)
    input_hash = fileio.sha256_of(payload)
    out_path = Path(args.out) if args.out else Path("encoder.json")
    files = {}
    for p, gs in sorted(result.generating_sets.items()):
        part = result.decomposition.part(p)
        enc_payload = fileio.encoder_to_json(
            gs, part.subgroup, coordinates=part.coordinates, input_sha256=input_hash
        )
        enc_path = out_path.with_name(f"{out_path.stem}.p{p}{out_path.suffix or '.json'}")
        fileio.write_json(str(enc_path), enc_payload)
        files[str(p)] = enc_path.name
    manifest = {
        "input_sha256": input_hash,
        "window": group.window.length,
        "order": group.order(),
        "primes": list(result.decomposition.primes),
        "files": files,
        "certificate": fileio.certificate_to_json(result.certificate),
        "verdicts": {
            "isomorphic_encoder": result.verdicts["isomorphic_encoder"],
            "implicit_direct_product": result.verdicts["implicit_direct_product"],
            "determined": result.verdicts["determined"],
        },
    }
    fileio.write_json(str(out_path), manifest)
    print(
        f"synthesized {sum(len(gs.generators) for gs in result.generating_sets.values())} "
        f"generator(s) over primes {list(result.decomposition.primes)}",
        file=sys.stderr,
    )
    if not result.verdicts["determined"]:
        print("result carries undetermined stamps", file=sys.stderr)
        return EXIT_UNDETERMINED if not args.override_undetermined else EXIT_HOLDS
    return EXIT_HOLDS


def cmd_verify(args) -> int:
    group = fileio.load_group_file(args.input)
    payload = fileio.load_json(args.encoder)
    dec = primary_decompose(group)
    entries = []
    if isinstance(payload, dict) and "files" in payload:
        base = Path(args.encoder).parent
        for p_str, name in sorted(payload["files"].items()):
            entries.append(fileio.load_encoder_file(str(base / name)))
    else:
        entries.append(fileio.parse_encoder(payload, where=args.encoder))

    report: dict = {"parts": {}, "combined": {}}
    all_ok = True
    embedded = []
    for gs, enc_window, coords in entries:
        try:
            part = dec.part(gs.prime)
        except InputError:
            raise InputError(
                f"encoder prime {gs.prime} has no part in the group's decomposition"
            )
        if part.window != enc_window:
            raise InputError(
                f"encoder window shape for prime {gs.prime} does not match the "
                f"group's {gs.prime}-part"
            )
        if coords is not None and list(coords) != list(part.coordinates):
            raise InputError(
                f"encoder coordinates for prime {gs.prime} do not match the group"
            )
        block_report = verify_block_properties(gs, part.subgroup)
        iso = verify_isomorphic_encoder(gs, part.subgroup)
        idp = check_implicit_direct_product(gs, part.subgroup)
        part_out = {
            name: {"pass": ok, "detail": detail}
            for name, (ok, detail) in sorted(block_report.checks.items())
        }
        part_out["isomorphic_encoder"] = {"pass": iso, "detail": ""}
        part_out["implicit_direct_product"] = {
            "pass": bool(idp),
            "detail": f"socle span observability: {idp.observability.status}",
        }
        ok = block_report.passed() and iso and bool(idp)
        all_ok = all_ok and ok
        report["parts"][str(gs.prime)] = part_out
        for y in gs.generators:
            embedded.append(part.embed(y, group.window))

    spanning = span(group.window, embedded) == group
    sizes = 1
    for gs, _w, _c in entries:
        for o in gs.orders:
            sizes *= o
    combined_ok = spanning and sizes == group.order()
    report["combined"] = {
        "spanning": spanning,
        "coefficient_space": sizes,
        "group_order": group.order(),
        "bijective": combined_ok,
    }
    all_ok = all_ok and combined_ok
    report["pass"] = all_ok
    _emit(args.out, report)
    print(f"verify: {'pass' if all_ok else 'fail'}", file=sys.stderr)
    return EXIT_HOLDS if all_ok else EXIT_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupwindows",
        description=(
            "certify controllability properties of subgroups of windows of "
            "products of finite abelian groups, and synthesize finite-support "
            "generating sets with homomorphic encoders"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=True):
        p.add_argument("--input", required=True, help="group or template JSON file")
        if window:
            p.add_argument("--window", type=int, default=None, help="window length N")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    p_check = sub.add_parser("check", help="certify a property and emit a certificate")
    common(p_check)
    p_check.add_argument("--property", required=True, choices=PROPERTIES)
    p_check.add_argument("--max-index", type=int, default=None, dest="max_index")
    p_check.set_defaults(func=cmd_check)

    p_unroll = sub.add_parser("unroll", help="materialize a template at a window")
    common(p_unroll)
    p_unroll.add_argument(
        "--closure",
        action="store_true",
        help="emit the window closure (projection from a longer window)",
    )
    p_unroll.set_defaults(func=cmd_unroll)

    p_syn = sub.add_parser("synthesize", help="build per-prime encoders and a manifest")
    common(p_syn)
    p_syn.add_argument("--closure", action="store_true")
    p_syn.add_argument(
        "--override-undetermined",
        action="store_true",
        dest="override_undetermined",
        help="proceed on undetermined or failing certificates; stamps verdicts",
    )
    p_syn.set_defaults(func=cmd_synthesize)

    p_ver = sub.add_parser("verify", help="re-check an encoder file against its group")
    common(p_ver, window=False)
    p_ver.add_argument("--encoder", required=True, help="encoder file or manifest")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="split a group into its primary parts")
    common(p_dec)
    p_dec.add_argument("--closure", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    return parser


_parser: argparse.ArgumentParser | None = None  # built on the first call of main


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except WindowScaleError as exc:
        print(f"scale limit: {exc}", file=sys.stderr)
        return EXIT_SCALE_LIMIT
    except UndeterminedAtWindowError as exc:
        print(f"undetermined at window: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED


if __name__ == "__main__":
    sys.exit(main())
