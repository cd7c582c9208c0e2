"""JSON file formats: groups, templates, certificates, encoders, manifests.

All files are UTF-8 JSON.  Coordinate indices in files are 1-based, matching
the interval notation used throughout.  Serialization is canonical (sorted
keys, fixed separators), so identical inputs produce byte-identical outputs.
Parse errors name the offending key and position.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .control import Certificate
from .errors import InputError
from .synthesis import Block, GeneratingSet
from .templates import FixedGenerator, ShiftedGenerator, TemplateSpec
from .window import ComponentGroup, Element, ProductWindow, WindowSubgroup


def canonical_json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256_of(payload) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, non-UTF-8 bytes, an overlong integer, or too deep nesting
        raise InputError(f"{path}: cannot read as JSON: {exc}")


def write_json(path: str, payload):
    try:
        with open(path, "wb") as fh:
            fh.write(canonical_json_bytes(payload))
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}")


def _at(where: str, index) -> str:
    """An error's location: ``where`` followed by ``[k]`` for each k of ``index``."""
    return where + "".join(f"[{k}]" for k in index)


def _expect_list(value, where: str, *index) -> list:
    """``value`` when it is a list; the location ``_at(where, index)`` is built only to raise."""
    if not isinstance(value, list):
        raise InputError(f"{_at(where, index)}: expected a list, got {type(value).__name__}")
    return value


def _expect_int(value, where: str, *index) -> int:
    """``value`` when it is an integer; the location is built only to raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{_at(where, index)}: expected an integer, got {value!r}")
    return value


def _int_list(raw, where: str) -> list[int]:
    """A list of integers; errors name ``where`` for the list, ``where[k]`` for an entry."""
    return [_expect_int(v, where, k) for k, v in enumerate(_expect_list(raw, where))]


def _parse_components(raw, where: str) -> ProductWindow:
    comps = []
    for i, comp in enumerate(_expect_list(raw, where), start=1):
        orders = []
        for j, m in enumerate(_expect_list(comp, where, i - 1)):
            m = _expect_int(m, where, i - 1, j)
            if m < 2:
                raise InputError(f"{where}[{i - 1}][{j}]: factor order {m} must be >= 2")
            orders.append(m)
        try:
            comps.append(ComponentGroup(tuple(orders)))
        except InputError as exc:
            raise InputError(f"{where}[{i - 1}]: {exc}")
    if not comps:
        raise InputError(f"{where}: a window needs at least one coordinate")
    return ProductWindow(tuple(comps))


def _parse_element(raw, window: ProductWindow, where: str) -> Element:
    rows = _expect_list(raw, where)
    if len(rows) != window.length:
        raise InputError(
            f"{where}: expected residues for {window.length} coordinates, got {len(rows)}"
        )
    flat = []
    for i, coord in enumerate(rows, start=1):
        coord = _expect_list(coord, where, i - 1)
        orders = window.components[i - 1].factor_orders
        if len(coord) != len(orders):
            raise InputError(
                f"{where}[{i - 1}]: coordinate {i} has {len(orders)} "
                f"factors, got {len(coord)} residues"
            )
        for j, (r, m) in enumerate(zip(coord, orders)):
            r = _expect_int(r, where, i - 1, j)
            if not (0 <= r < m):
                raise InputError(
                    f"{where}[{i - 1}][{j}]: residue {r} outside [0, {m}) "
                    f"for the order-{m} factor at coordinate {i}"
                )
            flat.append(r)
    # every residue is checked in range, so the element is built as is
    return Element(window, tuple(flat))


def element_to_json(x: Element) -> list:
    return [list(coord) for coord in x.residues]


def group_to_json(g: WindowSubgroup, skipped=None) -> dict:
    payload: dict[str, Any] = {
        "components": [list(c.factor_orders) for c in g.window.components],
        "generators": [element_to_json(x) for x in g.generators],
    }
    if skipped:
        payload["meta"] = {"skipped": [{"pattern": k, "start": s} for k, s in skipped]}
    return payload


def parse_group(payload, where: str = "group") -> WindowSubgroup:
    if not isinstance(payload, dict):
        raise InputError(f"{where}: expected an object")
    if "components" not in payload:
        raise InputError(f"{where}: missing key 'components'")
    if "generators" not in payload:
        raise InputError(f"{where}: missing key 'generators'")
    window = _parse_components(payload["components"], f"{where}.components")
    gens = []
    for k, raw in enumerate(_expect_list(payload["generators"], f"{where}.generators")):
        gens.append(_parse_element(raw, window, f"{where}.generators[{k}]"))
    return WindowSubgroup(window, gens)


def load_group_file(path: str) -> WindowSubgroup:
    return parse_group(load_json(path), where=path)


def _parse_index(key: str, where: str) -> int:
    if not (key.isascii() and key.isdigit()):
        raise InputError(f"{where}: key {key!r} is not a decimal index")
    return int(key)


def _parse_support_map(raw, where: str, *, key_base: int):
    if not isinstance(raw, dict):
        raise InputError(f"{where}: expected an object mapping indices to residue lists")
    items = []
    for key, val in raw.items():
        idx = _parse_index(key, where)
        if idx < key_base:
            raise InputError(f"{where}: index {idx} below {key_base}")
        items.append((idx, tuple(_int_list(val, f"{where}[{key!r}]"))))
    items.sort()
    return tuple(items)


def parse_template(payload, where: str = "template") -> TemplateSpec:
    if not isinstance(payload, dict):
        raise InputError(f"{where}: expected an object")
    if "component_template" not in payload:
        raise InputError(f"{where}: missing key 'component_template'")
    ct = payload["component_template"]
    if not isinstance(ct, dict):
        raise InputError(f"{where}.component_template: expected an object")
    period = _expect_int(ct.get("period", 0), f"{where}.component_template.period")
    orders_raw = _expect_list(ct.get("orders", None), f"{where}.component_template.orders")
    orders = [
        tuple(_int_list(comp, f"{where}.component_template.orders[{i}]"))
        for i, comp in enumerate(orders_raw)
    ]
    fixed = []
    fixed_raw = _expect_list(payload.get("fixed_generators", []), f"{where}.fixed_generators")
    for k, raw in enumerate(fixed_raw):
        if not isinstance(raw, dict) or "support" not in raw:
            raise InputError(f"{where}.fixed_generators[{k}]: missing key 'support'")
        fixed.append(
            FixedGenerator(_parse_support_map(raw["support"], f"{where}.fixed_generators[{k}].support", key_base=1))
        )
    shifted = []
    shifted_raw = _expect_list(payload.get("shifted_generators", []), f"{where}.shifted_generators")
    for k, raw in enumerate(shifted_raw):
        if not isinstance(raw, dict):
            raise InputError(f"{where}.shifted_generators[{k}]: expected an object")
        for need in ("start", "stride", "pattern"):
            if need not in raw:
                raise InputError(f"{where}.shifted_generators[{k}]: missing key {need!r}")
        shifted.append(
            ShiftedGenerator(
                start=_expect_int(raw["start"], f"{where}.shifted_generators[{k}].start"),
                stride=_expect_int(raw["stride"], f"{where}.shifted_generators[{k}].stride"),
                pattern=_parse_support_map(
                    raw["pattern"], f"{where}.shifted_generators[{k}].pattern", key_base=0
                ),
            )
        )
    try:
        return TemplateSpec(
            period=period,
            component_orders=tuple(orders),
            fixed_generators=tuple(fixed),
            shifted_generators=tuple(shifted),
        )
    except InputError as exc:
        raise InputError(f"{where}: {exc}")


def load_template_file(path: str) -> TemplateSpec:
    return parse_template(load_json(path), where=path)


def detect_input_kind(payload) -> str:
    if isinstance(payload, dict) and "component_template" in payload:
        return "template"
    if isinstance(payload, dict) and "components" in payload:
        return "group"
    raise InputError(
        "input is neither a group file (components/generators) nor a "
        "template file (component_template)"
    )


def certificate_to_json(cert: Certificate, *, input_sha256: str | None = None) -> dict:
    payload: dict[str, Any] = {
        "property": cert.property,
        "window": cert.window,
        "status": cert.status,
        "indices": {str(i): n for i, n in sorted(cert.indices.items())},
        "stabilization": {str(i): bool(v) for i, v in sorted(cert.stabilization.items())},
        "notes": {k: cert.notes[k] for k in sorted(cert.notes)},
    }
    if cert.witness is not None:
        payload["witness"] = element_to_json(cert.witness)
        if cert.witness_context:
            payload["witness_context"] = {
                k: cert.witness_context[k] for k in sorted(cert.witness_context)
            }
    if input_sha256 is not None:
        payload["input_sha256"] = input_sha256
    return payload


def encoder_to_json(
    gs: GeneratingSet,
    group: WindowSubgroup,
    *,
    coordinates=None,
    input_sha256: str | None = None,
) -> dict:
    payload: dict[str, Any] = {
        "prime": gs.prime,
        "orders": list(gs.orders),
        "generators": [element_to_json(y) for y in gs.generators],
        "socle_elements": [element_to_json(x) for x in gs.socle_elements],
        "blocks": [{"d": b.d, "m": m} for b, m in zip(gs.blocks, gs.block_counts()[1:])],
        "heights": list(gs.heights),
        "n_sequence": {str(i): n for i, n in sorted(gs.n_sequence.items())},
        "components": [list(c.factor_orders) for c in group.window.components],
        "determined": bool(gs.determined),
    }
    if coordinates is not None:
        payload["coordinates"] = list(coordinates)
    if input_sha256 is not None:
        payload["input_sha256"] = input_sha256
    return payload


def parse_encoder(payload, where: str = "encoder") -> tuple[GeneratingSet, ProductWindow, list]:
    if not isinstance(payload, dict):
        raise InputError(f"{where}: expected an object")
    for need in ("prime", "orders", "generators", "blocks", "heights", "n_sequence", "components"):
        if need not in payload:
            raise InputError(f"{where}: missing key {need!r}")
    window = _parse_components(payload["components"], f"{where}.components")
    prime = _expect_int(payload["prime"], f"{where}.prime")
    gens = [
        _parse_element(raw, window, f"{where}.generators[{k}]")
        for k, raw in enumerate(_expect_list(payload["generators"], f"{where}.generators"))
    ]
    socle_raw = payload.get("socle_elements")
    heights = _int_list(payload["heights"], f"{where}.heights")
    for k, h in enumerate(heights):
        if h < 0:
            raise InputError(f"{where}.heights[{k}]: height {h} is negative")
    if socle_raw is not None:
        xs = [
            _parse_element(raw, window, f"{where}.socle_elements[{k}]")
            for k, raw in enumerate(_expect_list(socle_raw, f"{where}.socle_elements"))
        ]
    else:
        xs = [y.scale(prime**h) for y, h in zip(gens, heights)]
    blocks = []
    prev = 0
    n_window = window.length
    for k, raw in enumerate(_expect_list(payload["blocks"], f"{where}.blocks")):
        if not isinstance(raw, dict) or "d" not in raw or "m" not in raw:
            raise InputError(f"{where}.blocks[{k}]: expected an object with keys 'd' and 'm'")
        m = _expect_int(raw["m"], f"{where}.blocks[{k}].m")
        d = _expect_int(raw["d"], f"{where}.blocks[{k}].d")
        if not 1 <= d <= n_window:
            raise InputError(f"{where}.blocks[{k}].d: depth {d} outside [1, {n_window}]")
        if blocks and d <= blocks[-1].d:
            raise InputError(f"{where}.blocks[{k}].d: depth {d} not above the previous block's {blocks[-1].d}")
        blocks.append(Block(d=d, size=m - prev))
        prev = m
    n_seq = {}
    if not isinstance(payload["n_sequence"], dict):
        raise InputError(f"{where}.n_sequence: expected an object")
    for key, val in payload["n_sequence"].items():
        i = _parse_index(key, f"{where}.n_sequence")
        if not 1 <= i <= n_window:
            raise InputError(f"{where}.n_sequence: key {key!r} outside [1, {n_window}]")
        n = _expect_int(val, f"{where}.n_sequence[{key!r}]")
        if not 1 <= n <= n_window:
            raise InputError(f"{where}.n_sequence[{key!r}]: index {n} outside [1, {n_window}]")
        n_seq[i] = n
    orders = _int_list(payload["orders"], f"{where}.orders")
    gs = GeneratingSet(
        prime=prime,
        blocks=tuple(blocks),
        socle_elements=tuple(xs),
        generators=tuple(gens),
        heights=tuple(heights),
        n_sequence=n_seq,
        determined=bool(payload.get("determined", True)),
    )
    if list(gs.orders) != orders:
        raise InputError(
            f"{where}.orders: expected {list(gs.orders)} from the heights, got {orders}"
        )
    coords = payload.get("coordinates")
    if coords is not None:
        coords = _int_list(coords, f"{where}.coordinates")
    return gs, window, coords


def load_encoder_file(path: str):
    return parse_encoder(load_json(path), where=path)
