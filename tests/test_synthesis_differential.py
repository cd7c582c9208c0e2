"""Synthesis and verify from the height filtration against the listing reference.

Each generating set and verify report is computed twice: as the library
decides it, from the layers G[p] ∩ p^h G, and inside
``oracles.listing_reference()``, where every arena is listed and every
candidate's height computed.  Encoder bytes and report checks must agree,
and so must the errors raised.  The spanning verdicts of
``synthesize`` and ``verify`` are checked against ``oracles.Lattice``.
"""

import json
import random
from itertools import product
from math import prod

import pytest

from groupwindows import (
    GeneratingSet,
    WindowSubgroup,
    certify,
    cli,
    closure_window,
    fileio,
    primary_decompose,
    synthesis,
    window,
)
from groupwindows.control import HOLDS
from groupwindows.errors import InputError, UndeterminedAtWindowError
from groupwindows.torsion import HeightLayers

from conftest import random_mixed_group, random_staggered_group, window_of
import oracles


def _outcome(fn, *args, **kwargs):
    """The value of the call, or ("raised", message) for the InputError it raised."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return ("raised", str(exc))


def _twice(fn, *args, **kwargs):
    """The outcomes of ``fn`` as the library decides it and inside the listing reference."""
    got = _outcome(fn, *args, **kwargs)
    with oracles.listing_reference():
        want = _outcome(fn, *args, **kwargs)
    return got, want


# Each reads the library function from its module at call time, so that
# inside the listing reference it calls the listing version.


def _encoder_bytes(g):
    result = synthesis.synthesize(g, accept_undetermined=True)
    out = []
    for p, gs in sorted(result.generating_sets.items()):
        part = result.decomposition.part(p)
        payload = fileio.encoder_to_json(gs, part.subgroup, coordinates=part.coordinates)
        out.append((fileio.canonical_json_bytes(payload), gs, part.subgroup))
    return out


def _checks(gs, g):
    return synthesis.verify_block_properties(gs, g).checks


def _synthesize_p(g, p, certificate):
    return synthesis.synthesize_p(g, p, certificate)


def _tampered(gs):
    """Reversed order, heights zeroed, and the first socle element replaced by the sum of the first two."""
    xs = gs.socle_elements
    out = [
        oracles.rebuilt(gs, socle_elements=xs[::-1], generators=gs.generators[::-1], heights=gs.heights[::-1]),
        oracles.rebuilt(gs, heights=(0,) * len(xs)),
    ]
    if len(xs) >= 2:
        out.append(oracles.rebuilt(gs, socle_elements=(xs[0] + xs[1],) + xs[1:]))
    return out


def _same_synthesis_and_reports(g):
    """Compare encoder bytes, then the verify reports of each set and its tampered variants."""
    got, want = _twice(_encoder_bytes, g)
    if got and got[0] == "raised":
        assert got == want
        return 0
    assert [b for b, _, _ in got] == [b for b, _, _ in want]
    reports = 0
    for _, gs, part in got:
        for variant in [gs] + _tampered(gs):
            checks, ref = _twice(_checks, variant, part)
            assert checks == ref
            reports += 1
    return reports


@pytest.mark.parametrize("n", range(2, 11))
def test_closures_match_listing(shift_template, n):
    closure = closure_window(shift_template, n).group
    assert _same_synthesis_and_reports(closure) > 0


def _random_groups(seed, count):
    rng = random.Random(seed)
    made = 0
    while made < count:
        if made % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is not None:
            made += 1
            yield g


def test_random_groups_and_parts_match_listing():
    reports = 0
    for g in _random_groups(314, 200):
        for h in [g] + [part.subgroup for part in primary_decompose(g).parts]:
            reports += _same_synthesis_and_reports(h)
    assert reports >= 400


def test_verify_builds_no_lattice_span_or_projection(shift_template, monkeypatch):
    # every span clause is read off socle rows: with the lattice span and
    # the projections of subgroups and of elements refusing, the reports
    # are unchanged; the only sub-windows built are the arenas, where the
    # height layers of clause (d) live as local sections
    cases = []
    groups = [closure_window(shift_template, n).group for n in range(2, 13)]
    for g in _random_groups(314, 200):
        groups += [g] + [part.subgroup for part in primary_decompose(g).parts]
    for g in groups:
        result = _outcome(synthesis.synthesize, g, accept_undetermined=True)
        if isinstance(result, tuple):
            continue
        for p, gs in result.generating_sets.items():
            part = result.decomposition.part(p).subgroup
            for variant in [gs] + _tampered(gs):
                cases.append((variant, part, _outcome(_checks, variant, part)))

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice span or projection was built")

    monkeypatch.setattr(synthesis, "WindowSubgroup", refuse)
    monkeypatch.setattr(window, "project", refuse)
    monkeypatch.setattr(window.Element, "restrict", refuse)
    real_subwindow, built = window.ProductWindow.subwindow, []
    monkeypatch.setattr(
        window.ProductWindow, "subwindow", lambda w, interval: built.append(interval) or real_subwindow(w, interval)
    )
    assert len(cases) >= 400
    local = 0
    for variant, part, want in cases:
        built.clear()
        assert _outcome(_checks, variant, part) == want
        n_window, d_prev, arenas = part.window.length, 0, set()
        for block in variant.blocks:
            arenas.add((d_prev + 1, variant.n_sequence.get(block.d, n_window)))
            d_prev = block.d
        assert set(built) <= arenas
        local += bool(built)
    assert local >= 400


def test_synthesize_p_under_arbitrary_index_maps(monkeypatch):
    # arbitrary index maps reach every branch of the pick: a candidate that
    # divides inside the lift section is looked for past the least one, none
    # is found (the lift is taken in G), and no candidate is left
    paths = {"lift-layer": 0, "lift-in-g": 0, "no-candidate": 0}
    real_layer, real_highest, real_solve = (
        synthesis.height_layer, HeightLayers.highest, synthesis.solve_in_subgroup
    )
    groups = {}  # id -> group, held so that no id is reused

    def lift_layer(*args):
        paths["lift-layer"] += 1
        return real_layer(*args)

    def highest(layers, find):
        h, z = real_highest(layers, find)
        paths["no-candidate"] += h < 0
        return h, z

    def solve(sub, z, scale=1):
        paths["lift-in-g"] += id(sub) in groups
        return real_solve(sub, z, scale=scale)

    monkeypatch.setattr(synthesis, "height_layer", lift_layer)
    monkeypatch.setattr(HeightLayers, "highest", highest)
    monkeypatch.setattr(synthesis, "solve_in_subgroup", solve)
    rng = random.Random(1618)
    runs = 0
    for g in _random_groups(1618, 160):
        for part in primary_decompose(g).parts:
            h = part.subgroup
            groups[id(h)] = h
            cert = certify(h, "order-controllable")
            n = h.window.length
            for _ in range(4):
                indices = {
                    i: rng.randint(max(1, i - 1), n) for i in range(1, n + 1) if rng.random() < 0.8
                }
                arbitrary = oracles.rebuilt(cert, status=HOLDS, indices=indices)
                got, want = _twice(_synthesize_p, h, part.prime, arbitrary)
                if isinstance(got, tuple):
                    assert got == want
                    continue
                runs += 1
                assert _encoder_json(got, h) == _encoder_json(want, h)
    assert runs >= 400
    assert all(paths.values()), paths


def _encoder_json(gs, g):
    return fileio.canonical_json_bytes(fileio.encoder_to_json(gs, g))


def test_clause_d_on_the_trivial_group(shift_template):
    # a generating set checked against the trivial group of its window
    g = closure_window(shift_template, 5).group
    gs = synthesis.synthesize(g).generating_sets[2]
    trivial = g.window.trivial_subgroup()
    got, want = _twice(_checks, gs, trivial)
    assert got == want and not got["d"][0]
    empty = GeneratingSet(prime=2, blocks=(), socle_elements=(), generators=(), heights=(), n_sequence={})
    got, want = _twice(_checks, empty, trivial)
    assert got == want and all(ok for ok, _ in got.values())


def test_clause_d_on_a_mixed_prime_group():
    # a generating set of the 2-part, checked against the whole group
    g = window_of([4, 3], [2, 3]).full_subgroup()
    part = primary_decompose(g).part(2)
    gs = synthesis.synthesize(part.subgroup).generating_sets[2]
    embedded = oracles.rebuilt(
        gs,
        socle_elements=tuple(part.embed(x, g.window) for x in gs.socle_elements),
        generators=tuple(part.embed(y, g.window) for y in gs.generators),
    )
    got, want = _twice(_checks, embedded, g)
    assert got == want == ("raised", "heights are defined inside p-groups")


def _lattice_verdicts(group_payload, encoder_payloads):
    """``combined.spanning``, ``bijective`` and the group order, from ``oracles.Lattice``.

    Each generator is placed in G's window at the flats its prime owns on
    its encoder's coordinates, read off the file formats alone.
    """
    comps = group_payload["components"]
    mods = [m for comp in comps for m in comp]
    starts = [sum(len(c) for c in comps[:i]) for i in range(len(comps))]
    gens = [[r for coord in gen for r in coord] for gen in group_payload["generators"]]
    embedded, size = [], 1
    for enc in encoder_payloads:
        p = enc["prime"]
        flats = [
            starts[c - 1] + k for c in enc["coordinates"] for k, m in enumerate(comps[c - 1]) if m % p == 0
        ]
        for y in enc["generators"]:
            row = [0] * len(mods)
            for f, r in zip(flats, (r for coord in y for r in coord)):
                row[f] = r
            embedded.append(row)
        for o in enc["orders"]:
            size *= o
    group = oracles.Lattice(mods, gens)
    order = prod(mods) // prod(row[f] for f, row in enumerate(group.rows))
    spanning = all(group.contains(y) for y in embedded) and all(
        oracles.Lattice(mods, embedded).contains(x) for x in gens
    )
    return spanning, spanning and size == order, order


def test_spanning_verdicts_match_the_lattice_oracle(shift_template, tmp_path):
    # synthesize and verify read their spanning verdicts per part; G is the
    # direct sum of its parts, so they must agree with one lattice check over
    # G's window, and a mixed manifest missing one prime's file spans no longer
    groups = [closure_window(shift_template, n).group for n in range(2, 9)]
    groups += [h for g in _random_groups(314, 200) for h in [g] + [part.subgroup for part in primary_decompose(g).parts]]
    verified = dropped = 0
    for k, g in enumerate(groups):
        group_payload = fileio.group_to_json(g)
        group = tmp_path / f"g{k}.json"
        group.write_text(json.dumps(group_payload))
        out = tmp_path / f"enc{k}.json"
        if cli.main(["synthesize", "--input", str(group), "--override-undetermined", "--out", str(out)]) == 3:
            continue
        manifest = json.loads(out.read_text())
        encoders = {p: json.loads((tmp_path / name).read_text()) for p, name in manifest["files"].items()}
        spanning, bijective, order = _lattice_verdicts(group_payload, encoders.values())
        verdicts = manifest["verdicts"]
        assert (verdicts["implicit_direct_product"], verdicts["isomorphic_encoder"]) == (spanning, bijective), g
        report = tmp_path / f"report{k}.json"
        code = cli.main(["verify", "--input", str(group), "--encoder", str(out), "--out", str(report)])
        combined = json.loads(report.read_text())["combined"]
        assert (combined["spanning"], combined["bijective"], combined["group_order"]) == (spanning, bijective, order), g
        assert code == (0 if json.loads(report.read_text())["pass"] else 1)
        verified += 1
        if len(encoders) > 1 and spanning:
            drop = min(encoders)
            del manifest["files"][drop]
            out.write_text(json.dumps(manifest))
            assert cli.main(["verify", "--input", str(group), "--encoder", str(out), "--out", str(report)]) == 1
            combined = json.loads(report.read_text())["combined"]
            assert combined["spanning"] is False
            assert _lattice_verdicts(group_payload, [e for p, e in encoders.items() if p != drop])[0] is False
            dropped += 1
    assert verified >= 400 and dropped >= 40


def _inverse_table(enc):
    """Each image of ``encode`` mapped to the least coefficients giving it, by listing them all."""
    table = {}
    for coeffs in product(*(range(o) for o in enc.orders)):
        table.setdefault(synthesis.encode(enc, coeffs).flat, list(coeffs))
    return table


def test_represent_matches_a_listed_inverse(shift_template):
    # every encoder of the pool and of the closures at N <= 8 with at most 2^10
    # coefficient vectors, its rotated generators where that is still a map,
    # and its first generator times p, which neither spans nor is injective:
    # represent gives the least listed preimage of each member, and refuses
    # exactly the members no coefficients reach
    groups = [closure_window(shift_template, n).group for n in range(2, 9)]
    groups += list(_random_groups(314, 200))
    members = encoders = refused = 0
    for g in groups:
        result = _outcome(synthesis.synthesize, g, accept_undetermined=True)
        if isinstance(result, tuple):
            continue
        for _, enc in result.combined.encoders:
            gs = enc.generating_set
            if prod(gs.orders) > 1 << 10:
                continue
            ys = gs.generators
            rotated = oracles.rebuilt(gs, generators=ys[1:] + ys[:1])
            shrunk = oracles.rebuilt(gs, generators=(ys[0].scale(gs.prime),) + ys[1:])
            for variant in (gs, rotated, shrunk):
                e = synthesis.Encoder(group=enc.group, generating_set=variant)
                if any(o % y.order() for y, o in zip(variant.generators, variant.orders)):
                    with pytest.raises(InputError):
                        synthesis.represent(e.group.window.zero(), e)
                    continue
                table = _inverse_table(e)
                encoders += 1
                for z in e.group.elements():
                    want = table.get(z.flat)
                    if want is None:
                        with pytest.raises(UndeterminedAtWindowError):
                            synthesis.represent(z, e)
                        refused += 1
                    else:
                        assert synthesis.represent(z, e) == want
                        members += 1
    assert encoders >= 500 and members >= 20000 and refused >= 5000
