"""Batch front door: certify, synthesize, verify, unroll, decompose.

Exit codes: 0 the property holds or every requested check passed, 1 a
property failed (a witness is in the output), 2 undetermined at this window,
3 malformed input or shape mismatch.  Outputs are canonical JSON, so
identical inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .control import FAILS, HOLDS, UNDETERMINED, PROPERTIES, certify
from .errors import InputError, UndeterminedAtWindowError
from .synthesis import CombinedEncoder, Encoder, GeneratingSet, synthesize, verify_block_properties
from .templates import closure_window, unroll_template
from .torsion import primary_decompose
from .window import Element

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 3

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


def _on_window(gs: GeneratingSet, window) -> GeneratingSet:
    """``gs`` with its elements moved onto ``window``, a window equal to theirs.

    Each later window check between them and the part is then an identity test.
    """

    def move(xs):
        return tuple(Element(window, x.flat) for x in xs)

    return GeneratingSet(
        gs.prime, gs.blocks, move(gs.socle_elements), move(gs.generators), gs.heights, gs.n_sequence, gs.determined
    )


def cmd_verify(args) -> int:
    """Re-check encoder files against their group and report every verdict.

    A manifest's ``files`` keys name their files' primes, so each part has at
    most one encoder.  Each part gets the clauses of
    ``verify_block_properties``; the spanning and order verdicts, per part
    and combined, come from ``CombinedEncoder.check``, one echelon of each
    part's generators.  The part's ``implicit_direct_product`` detail is
    always "socle span observability: holds": on a single window a listed
    subgroup equals its window closure, so the weak observability of the
    socle span cannot fail there.
    """
    group = fileio.load_group_file(args.input)
    payload = fileio.load_json(args.encoder)
    dec = primary_decompose(group)
    entries = []
    if isinstance(payload, dict) and "files" in payload:
        files = payload["files"]
        if not isinstance(files, dict) or not all(isinstance(n, str) for n in files.values()):
            raise InputError(f"{args.encoder}.files: expected an object of file names")
        base = Path(args.encoder).parent
        for p_str, name in sorted(files.items()):
            entry = fileio.load_encoder_file(str(base / name))
            if p_str != str(entry[0].prime):
                raise InputError(
                    f"{args.encoder}.files[{p_str!r}]: {name} encodes prime {entry[0].prime}"
                )
            entries.append(entry)
    else:
        entries.append(fileio.parse_encoder(payload, where=args.encoder))

    parts = {}
    encoders = []
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
        gs = _on_window(gs, part.window)
        block_report = verify_block_properties(gs, part.subgroup)
        parts[str(gs.prime)] = {
            name: {"pass": ok, "detail": detail}
            for name, (ok, detail) in block_report.checks.items()
        }
        encoders.append((gs.prime, Encoder(group=part.subgroup, generating_set=gs)))

    encoders.sort(key=lambda entry: entry[0])
    verdicts, combined = CombinedEncoder(group, dec, tuple(encoders)).check()
    for p, verdict in verdicts.items():
        parts[str(p)]["isomorphic_encoder"] = {"pass": verdict["isomorphic_encoder"], "detail": ""}
        parts[str(p)]["implicit_direct_product"] = {
            "pass": verdict["implicit_direct_product"],
            "detail": "socle span observability: holds",
        }
    all_ok = combined["bijective"] and all(
        check["pass"] for part_out in parts.values() for check in part_out.values()
    )
    report = {"parts": parts, "combined": combined, "pass": all_ok}
    _emit(args.out, report)
    print(f"verify: {'pass' if all_ok else 'fail'}", file=sys.stderr)
    return EXIT_HOLDS if all_ok else EXIT_FAILS


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: usage on stderr, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="proceed on an undetermined certificate, or on a failing one where every primary part "
        "certifies afresh and holds; stamps verdicts",
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
    except UndeterminedAtWindowError as exc:
        print(f"undetermined at window: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED


if __name__ == "__main__":
    sys.exit(main())
