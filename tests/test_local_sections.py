"""Local sections, height layers and roots against their full-window forms.

A section on an interval is a subgroup of the interval's sub-window
(``window.local_section``), and synthesis and verify take their height
layers, least members and p^h-th roots there.  Zero-padded back into G's
window (``oracles.embedded``), each must equal, basis row for basis row, the
full-window one of ``tests/oracles.py``, which is how they were computed
before; a root and a least member, once embedded, must be the same element.
"""

import random

from groupwindows import certify, closure_window, primary_decompose, synthesis, torsion, window
from groupwindows.control import HOLDS
from groupwindows.errors import InputError, UndeterminedAtWindowError
from groupwindows.torsion import height_layer
from groupwindows.window import WindowSubgroup, local_section, section, solve_in_subgroup

from conftest import random_mixed_group, random_staggered_group, subgroup, window_of
import oracles


def _pool(shift_template):
    """200 seeded staggered and mixed groups, windows with Z8, Z27, mixed and
    empty components, and the running example's closures at N = 2..16."""
    rng = random.Random(2113)
    pool = []
    while len(pool) < 200:
        if len(pool) % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is not None:
            pool.append(g)
    shapes = [(), (8,), (27,), (2, 4), (3, 9), (2, 3), (8, 27), (5,)]
    while len(pool) < 260:
        w = window_of(*[rng.choice(shapes) for _ in range(rng.randint(2, 5))])
        if w.flat_length:
            gens = [[rng.randrange(m) * (rng.random() < 0.5) for m in w.flat_orders] for _ in range(3)]
            pool.append(subgroup(w, *gens))
    return pool + [closure_window(shift_template, n).group for n in range(2, 17)]


def _intervals(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def test_local_sections_and_layers_embed_to_the_full_window_ones(shift_template):
    checked = 0
    for g in _pool(shift_template):
        w = g.window
        for interval in _intervals(w.length):
            local = local_section(g, interval)
            assert local.window == w.subwindow(interval)
            want = oracles.full_window_section(g, interval)
            assert oracles.embedded(local, w, interval).basis == want.basis, (g, interval)
            assert section(g, interval).basis == want.basis, (g, interval)
            for p in w.primes():
                for h in range(3):
                    layer = height_layer(g, p, h, interval)
                    want = oracles.full_window_height_layer(g, p, h, interval)
                    assert oracles.embedded(layer, w, interval).basis == want.basis, (g, p, h, interval)
                    checked += 1
    assert checked >= 5000


def test_local_roots_embed_to_the_full_window_roots(shift_template):
    # targets: members scale*y of the section, random vectors supported in
    # the interval, and random vectors of the whole window
    rng = random.Random(2114)
    solved = unsolved = 0
    for g in _pool(shift_template):
        w = g.window
        for interval in _intervals(w.length):
            local, full = local_section(g, interval), oracles.full_window_section(g, interval)
            s, e = w.flat_slice(interval)
            for scale in (1, 2, 3, 4):
                y = [sum(rng.randrange(3) * row[f] for row in local.basis) for f in range(e - s)]
                inside = [rng.randrange(m) if s <= f < e else 0 for f, m in enumerate(w.flat_orders)]
                anywhere = [rng.randrange(m) for m in w.flat_orders]
                for flat in ([0] * s + [scale * a for a in y] + [0] * (w.flat_length - e), inside, anywhere):
                    z = w.from_flat(flat)
                    got = synthesis._root(local, interval, z, scale)
                    assert got == solve_in_subgroup(full, z, scale=scale), (g, interval, z, scale)
                    solved += got is not None
                    unsolved += got is None
    assert solved >= 5000 and unsolved >= 5000


def test_synthesis_and_verify_read_local_sections_equal_to_the_full_window_ones(shift_template, monkeypatch):
    # every local section that synthesize and verify take, and every least
    # member and root they read off one, is checked as they take it against
    # its full-window form; no subgroup is compared with one of another
    # window, and no membership or prefix test is handed a row of another
    # width.  Arbitrary index maps reach the layers of the lift section.
    kept, placed = [], {}  # the local sections, alive; id of a section's window -> its placement
    seen = dict.fromkeys(("section", "least", "lift-layer", "root"), 0)
    real_local, real_prefix = window.local_section, synthesis._prefix_in_span
    real_least, real_root = synthesis.least_in_difference, synthesis._root
    real_eq, real_contains = WindowSubgroup.__eq__, WindowSubgroup.contains_flat

    def recorded(g, interval):
        local = real_local(g, interval)
        assert local.placement == (g.window, interval)
        assert oracles.embedded(local, g.window, interval).basis == oracles.full_window_section(g, interval).basis
        kept.append(local)
        placed[id(local.window)] = local.placement
        seen["section"] += 1
        return local

    def prefix(echelon, coords, w, flats):
        test = real_prefix(echelon, coords, w, flats)

        def inside(row):
            assert len(row) == flats[1] - flats[0], "a prefix test was handed a row of another width"
            return test(row)

        inside.full = oracles.full_window_prefix_in_span(echelon, coords, w)
        return inside

    def least(layer, inside):
        got = real_least(layer, inside)
        window, interval = layer.placement
        if id(window) in placed:  # a layer of the lift section: place it in G's window
            window, (lo, _) = placed[id(window)]
            interval = (lo + interval[0] - 1, lo + interval[1] - 1)
            seen["lift-layer"] += 1
        want = real_least(oracles.embedded(layer, window, interval), inside.full)
        assert (got and got.embed(window, interval)) == want
        seen["least"] += 1
        return got

    def root(sec, interval, z, scale):
        got = real_root(sec, interval, z, scale)
        assert sec.placement == (z.window, interval)
        assert got == solve_in_subgroup(oracles.embedded(sec, z.window, interval), z, scale=scale)
        seen["root"] += 1
        return got

    def eq(a, b):
        if isinstance(b, WindowSubgroup):
            assert a.window == b.window, "subgroups of different windows were compared"
        return real_eq(a, b)

    def contains_flat(sub, vec):
        vec = list(vec)
        assert len(vec) == sub.window.flat_length, "a membership test was handed a row of another width"
        return real_contains(sub, vec)

    monkeypatch.setattr(synthesis, "local_section", recorded)
    monkeypatch.setattr(torsion, "local_section", recorded)
    monkeypatch.setattr(synthesis, "_prefix_in_span", prefix)
    monkeypatch.setattr(synthesis, "least_in_difference", least)
    monkeypatch.setattr(synthesis, "_root", root)
    monkeypatch.setattr(WindowSubgroup, "__eq__", eq)
    monkeypatch.setattr(WindowSubgroup, "contains_flat", contains_flat)
    reports = 0
    for g in _pool(shift_template):
        try:
            result = synthesis.synthesize(g, accept_undetermined=True)
        except (InputError, UndeterminedAtWindowError):
            continue
        for p, gs in result.generating_sets.items():
            part = result.decomposition.part(p).subgroup
            xs = gs.socle_elements
            variants = [gs, oracles.rebuilt(gs, heights=(0,) * len(xs))]
            if len(xs) >= 2:
                variants.append(oracles.rebuilt(gs, socle_elements=(xs[0] + xs[1],) + xs[1:]))
            for variant in variants:
                synthesis.verify_block_properties(variant, part)
                reports += 1
        kept.clear()
        placed.clear()
    rng = random.Random(2115)
    for g in _pool(shift_template)[:200]:
        for part in primary_decompose(g).parts:
            h, n = part.subgroup, part.window.length
            cert = certify(h, "order-controllable")
            for _ in range(4):
                indices = {i: rng.randint(max(1, i - 1), n) for i in range(1, n + 1) if rng.random() < 0.8}
                try:
                    synthesis.synthesize_p(h, part.prime, oracles.rebuilt(cert, status=HOLDS, indices=indices))
                except InputError:
                    pass
                kept.clear()
                placed.clear()
    assert reports >= 400
    assert seen["section"] >= 2000 and seen["least"] >= 2000 and seen["root"] >= 500, seen
    assert seen["lift-layer"] >= 20, seen
