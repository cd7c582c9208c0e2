"""Synthesis and verify from the height filtration against the listing reference.

Each generating set, verify report and prefix witness is computed twice: as
the library decides it, from the layers G[p] ∩ p^h G, and inside
``oracles.listing_reference()``, where every arena is listed and every
candidate's height computed.  Encoder bytes, report checks and witnesses
must agree, and so must the errors raised.
"""

import random
from dataclasses import replace

import pytest

from groupwindows import (
    GeneratingSet,
    WindowSubgroup,
    certify,
    closure_window,
    fileio,
    primary_decompose,
    section,
    synthesis,
    torsion,
)
from groupwindows.control import HOLDS
from groupwindows.errors import InputError
from groupwindows.torsion import HeightLayers, socle_subgroup

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


def _witness(*args, **kwargs):
    return torsion.max_height_prefix_witness(*args, **kwargs)


def _synthesize_p(g, p, certificate):
    return synthesis.synthesize_p(g, p, certificate)


def _tampered(gs):
    """Reversed order, heights zeroed, and the first socle element replaced by the sum of the first two."""
    xs = gs.socle_elements
    out = [
        replace(gs, socle_elements=xs[::-1], generators=gs.generators[::-1], heights=gs.heights[::-1]),
        replace(gs, heights=(0,) * len(xs)),
    ]
    if len(xs) >= 2:
        out.append(replace(gs, socle_elements=(xs[0] + xs[1],) + xs[1:]))
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
                arbitrary = replace(cert, status=HOLDS, indices=indices)
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


def _dense_p_groups(seed, count):
    """Subgroups spanned by up to three random members of windows of p-power factors.

    Unlike the staggered groups, the generators spread over every coordinate,
    so a socle element often shares its prefix with members of greater height.
    """
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3))
        coords = [[p ** rng.randint(1, 3) for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(2, 3))]
        w = window_of(*coords)
        gens = [w.from_flat([rng.randrange(m) for m in w.flat_orders]) for _ in range(rng.randint(1, 3))]
        g = WindowSubgroup(w, gens)
        if 1 < g.order() <= 1 << 9:
            yield g


def _prefix_witness_cases(g):
    """(x, i, n_i) for every n_i >= i and socle element of G_[1,n_i] with a nonzero [1,i]-prefix."""
    n = g.window.length
    for i in range(1, n + 1):
        for n_i in range(i, n + 1):
            for p in g.window.primes():
                for x in socle_subgroup(section(g, (1, n_i)), p).elements():
                    if x.order() == p and not x.restrict((1, i)).is_zero():
                        yield x, i, n_i


def test_prefix_witness_matches_listing(shift_template):
    groups = [closure_window(shift_template, n).group for n in range(2, 6)]
    groups += [part.subgroup for g in _random_groups(2718, 24) for part in primary_decompose(g).parts]
    groups += list(_dense_p_groups(2718, 40))
    calls = moved = 0
    for g in groups:
        n = g.window.length
        # no sequence, the certificate's, n_j = j, which asks for the deep section
        # at every i, and n_j = 1 for 1 < j < n, whose deep section starts past i
        maps = (
            None,
            certify(g, "order-controllable").indices,
            {j: j for j in range(1, n + 1)},
            {j: 1 for j in range(2, n)},
        )
        for x, i, n_i in _prefix_witness_cases(g):
            for n_sequence in maps:
                got, want = _twice(_witness, x, i, g, n_i, n_sequence=n_sequence)
                assert got == want, (x.flat, i, n_i, n_sequence)
                calls += 1
                moved += got != x
    assert calls >= 2000 and moved >= 500


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
    embedded = replace(
        gs,
        socle_elements=tuple(part.embed(x, g.window) for x in gs.socle_elements),
        generators=tuple(part.embed(y, g.window) for y in gs.generators),
    )
    got, want = _twice(_checks, embedded, g)
    assert got == want == ("raised", "heights are defined inside p-groups")


def test_implicit_direct_product_is_the_per_part_conjunction(shift_template):
    # G is the direct sum of its p-parts, so the one spanning check of the
    # embedded generators decides what the per-part checks decided
    groups = [closure_window(shift_template, n).group for n in range(2, 9)]
    groups += [h for g in _random_groups(314, 200) for h in [g] + [part.subgroup for part in primary_decompose(g).parts]]
    synthesized = 0
    for g in groups:
        try:
            result = synthesis.synthesize(g, accept_undetermined=True)
        except InputError:
            continue
        parts = all(
            synthesis.check_implicit_direct_product(enc.generating_set, enc.group)
            for _, enc in result.combined.encoders
        )
        assert result.verdicts["implicit_direct_product"] == parts, g
        synthesized += 1
    assert synthesized >= 300
