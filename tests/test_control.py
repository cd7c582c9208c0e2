import random
from math import gcd

import pytest

from groupwindows import (
    WindowSubgroup,
    control,
    certify,
    closure_window,
    controllability_certificate,
    fileio,
    is_rectangular,
    is_weakly_controllable,
    is_weakly_observable,
    order_controllability_certificate,
    primary_decompose,
    project,
    section,
    unroll_template,
)
from groupwindows.control import FAILS, HOLDS, PROPERTIES, UNDETERMINED
from groupwindows.errors import InputError
from groupwindows.window import kernel_subgroup, torsion_subgroup

from conftest import random_mixed_group, random_staggered_group, subgroup, window_of
import oracles


# ---------------------------------------------------------------- indices


def test_controllability_index_rectangular_is_i():
    w = window_of([4], [2], [4])
    full = w.full_subgroup()
    for i in range(1, 4):
        assert oracles.index_or_failure(full, i, 3)[0] == i


def test_controllability_index_trivial_group():
    w = window_of([4], [4])
    triv = w.trivial_subgroup()
    assert oracles.index_or_failure(triv, 1, 2)[0] == 1
    assert oracles.index_or_failure(triv, 2, 2)[0] == 2


def test_controllability_index_running_example(shift_template):
    g6 = unroll_template(shift_template, 6).group
    # verified against enumeration: sections at n = 1 miss the (2) prefix
    span_set = oracles.naive_span([g.flat for g in g6.generators], [4] * 6)
    slices = oracles.coord_slices([[4]] * 6)
    assert not oracles.naive_controllability_ok(span_set, slices, [4] * 6, 1, 1)
    assert oracles.naive_controllability_ok(span_set, slices, [4] * 6, 1, 2)
    assert oracles.index_or_failure(g6, 1, 4)[0] == 2


def test_certificates_reject_max_index_below_one():
    full = window_of([4], [4]).full_subgroup()
    for fn in (
        is_weakly_controllable,
        controllability_certificate,
        order_controllability_certificate,
        is_rectangular,
    ):
        for bad in (0, -1):
            with pytest.raises(InputError):
                fn(full, max_index=bad)
    for prop in ("weakly-observable", "controllable"):
        with pytest.raises(InputError):
            certify(full, prop, max_index=0)


def test_order_controllability_index_rectangular():
    w = window_of([4], [2], [4])
    full = w.full_subgroup()
    for i in range(1, 4):
        n, witness, _ = oracles.index_or_failure(full, i, 3, order=True)
        assert n == i and witness is None


def test_order_controllability_index_running_example_absent(shift_template):
    g8 = unroll_template(shift_template, 8).group
    n, witness, ctx = oracles.index_or_failure(g8, 1, 6, order=True)
    assert n is None
    assert witness is not None and g8.contains(witness)
    assert ctx["projection_order"] == 2
    # the obstruction: the projection has order 2, every prefix-matching
    # companion supported in [1, 6] has order 4
    proj = witness.restrict((1, 6))
    assert proj.order() == 2
    companions = project(section(g8, (1, 6)), (1, 6)).elements()
    prefix = proj.flat[:1]
    matched = [z for z in companions if z.flat[:1] == prefix]
    assert matched and all(z.order() == 4 for z in matched)


def test_order_controllability_index_staggered_present():
    rng = random.Random(404)
    found = 0
    while found < 5:
        g = random_staggered_group(rng, 2)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        span_set = oracles.naive_span(
            [x.flat for x in g.canonical_generators], list(g.window.flat_orders)
        )
        slices = oracles.coord_slices(
            [list(c.factor_orders) for c in g.window.components]
        )
        for i, n in cert.indices.items():
            assert oracles.naive_order_controllability_ok(
                span_set, slices, list(g.window.flat_orders), i, n
            )
            if n > i:
                assert not oracles.naive_order_controllability_ok(
                    span_set, slices, list(g.window.flat_orders), i, n - 1
                )
        found += 1


def test_index_scans_start_at_the_previous_index(monkeypatch):
    # width-3 generators e_k + e_(k+1) + e_(k+2) make n_i = i + 2, so a scan
    # that starts at n_(i-1) = i + 1 tests two support bounds per depth, not three
    n = 12
    gens = [[int(k <= j < k + 3) for j in range(n)] for k in range(n - 2)]
    g = subgroup(window_of(*[[2]] * n), *gens)
    scanned = []
    real = control._matched

    def matched(g, i, m):
        scanned.append((i, m))
        return real(g, i, m)

    monkeypatch.setattr(control, "_matched", matched)
    for certify_with in (controllability_certificate, order_controllability_certificate):
        scanned.clear()
        cert = certify_with(g, max_index=7)
        assert cert.holds() and cert.indices == {i: i + 2 for i in range(1, 8)}
        starts = [1] + [cert.indices[i] for i in range(1, 7)]
        expected = [(i, m) for i, lo in zip(range(1, 8), starts) for m in range(max(i, lo), i + 3)]
        assert scanned == expected
        assert len(scanned) == 15 < sum(n_i - i + 1 for i, n_i in cert.indices.items())


def _section_order_pool(shift_template):
    """The seeded staggered/mixed pool, windows with empty and multi-factor
    components, and the running example's closures at N = 2..10."""
    rng = random.Random(2718)
    pool = []
    while len(pool) < 200:
        if len(pool) % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is not None:
            pool.append(g)
    shapes = [(), (2,), (4,), (2, 4), (3, 9), (2, 3)]
    while len(pool) < 260:
        w = window_of(*[rng.choice(shapes) for _ in range(rng.randint(2, 5))])
        if w.flat_length:
            gens = [[rng.randrange(m) * (rng.random() < 0.5) for m in w.flat_orders] for _ in range(3)]
            pool.append(subgroup(w, *gens))
    return pool + [closure_window(shift_template, n).group for n in range(2, 11)]


def test_presentation_margin_is_the_widest_generator_support(shift_template):
    # read off flat rows, it equals the definition on generator elements
    pool = _section_order_pool(shift_template)[:200]
    pool += [closure_window(shift_template, n).group for n in range(2, 17)]
    # given generators narrower (margin 2) than the canonical ones (margin 3)
    w = window_of([2], [2], [2], [2], [4])
    pool.insert(0, subgroup(w, (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2)))
    # rows given unreduced: a residue of m_f is zero at flat f
    mods = [g.window.flat_orders for g in pool[:50]]
    pool += [
        WindowSubgroup.from_rows(g.window, [[a + m for a, m in zip(x.flat, ms)] for x in g.generators])
        for g, ms in zip(pool, mods)
    ]
    for g in pool:
        assert g.presentation_margin() == oracles.element_presentation_margin(g), g


def test_section_order_is_the_section_order(shift_template):
    for g in _section_order_pool(shift_template):
        n = g.window.length
        for a in range(1, n + 1):
            assert g.section_order(a, a - 1) == 1
            for b in range(a, n + 1):
                assert g.section_order(a, b) == section(g, (a, b)).order(), (g, a, b)


def test_suffix_sections_are_the_listed_members_supported_in_them(shift_template):
    # a section reaching the last coordinate is read off G's basis rows
    # without an echelon; it lists as the members vanishing before it
    checked = 0
    for g in _section_order_pool(shift_template):
        if g.order() > 1 << 12:
            continue
        span, slices, mods = oracles._listed(g)
        n = g.window.length
        for a in range(1, n + 1):
            got = {x.flat for x in section(g, (a, n)).elements()}
            assert got == oracles.naive_section(span, slices, (a, n)), (g, a)
            checked += 1
    assert checked >= 600


def test_sections_and_interval_torsion_are_their_kernels(shift_template):
    # G_[a,b] is the kernel of t_f = 1 inside [a, b] and m_f outside, and the
    # members of G_[a,b] killed by q the kernel of t_f = m_f / gcd(m_f, q) inside
    for g in _section_order_pool(shift_template):
        w, e = g.window, g.exponent()
        powers = [p**k for p in w.primes() for k in range(1, e.bit_length()) if e % p**k == 0]
        for a in range(1, w.length + 1):
            for b in range(a, w.length + 1):
                s, t = w.flat_slice((a, b))

                def masked(inside):
                    return kernel_subgroup(
                        g, [inside(m) if s <= f < t else m for f, m in enumerate(w.flat_orders)]
                    )

                assert section(g, (a, b)) == masked(lambda m: 1), (g, a, b)
                for q in powers:
                    expected = masked(lambda m: m // gcd(m, q))
                    assert torsion_subgroup(g, q, (a, b)) == expected, (g, a, b, q)


def test_matching_identity_is_prefix_equality(shift_template):
    # |G_[1,n]| |G_[i+1,N]| == |G| |G_[i+1,n]| exactly when the members
    # supported in [1, n] reach every [1, i]-prefix of G
    for g in _section_order_pool(shift_template):
        for n in range(1, g.window.length + 1):
            reach = section(g, (1, n))
            for i in range(1, n + 1):
                equal = project(reach, (1, i)) == project(g, (1, i))
                assert control._matched(g, i, n) == equal, (g, i, n)


def test_order_condition_matches_listing_at_every_matched_pair(shift_template):
    # the two section-order identities against listing P_n and S_n, wherever
    # the first test of order-controllable passes
    for g in _section_order_pool(shift_template):
        if g.window.length > 8:
            continue
        for n in range(1, g.window.length + 1):
            for i in range(1, n + 1):
                if control._matched(g, i, n):
                    expected = oracles._enum_order_condition_holds(g, i, n)
                    assert control._order_condition_holds(g, i, n) == expected, (g, i, n)


def _count_lattice_bases(monkeypatch):
    """Patch ``row_lattice_basis`` where ``window`` calls it; returns the call list."""
    from groupwindows import window as window_module

    calls = []
    real = window_module.row_lattice_basis

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(window_module, "row_lattice_basis", counted)
    return calls


def test_controllability_certificate_builds_few_lattice_bases(monkeypatch):
    # the width-3 group below at N = 24: one table per start coordinate, not
    # one echelon per (i, n) pair
    n = 24
    gens = [[int(k <= j < k + 3) for j in range(n)] for k in range(n - 2)]
    g = subgroup(window_of(*[[2]] * n), *gens)
    calls = _count_lattice_bases(monkeypatch)
    cert = controllability_certificate(g)
    # the last trusted depth, 20, would need support up to 22 > cap = 21
    assert cert.status == FAILS and cert.indices == {i: i + 2 for i in range(1, 20)}
    assert len(calls) <= n + 2


def test_order_controllability_certificate_builds_few_lattice_bases(shift_template, monkeypatch):
    # the closure at N = 24 holds with n_i = i: one basis of 2 G_[i+1,N] per
    # depth, not the offer and demand echelons of each (i, n) with a table
    n = 24
    g = closure_window(shift_template, n).group
    calls = _count_lattice_bases(monkeypatch)
    cert = order_controllability_certificate(g)
    assert cert.holds() and cert.indices == {i: i for i in cert.indices} and len(cert.indices) > 16
    assert len(calls) <= 36


# ---------------------------------------------------------------- certificates


def test_weakly_controllable_examples(shift_template):
    # any window subgroup with narrow generators holds
    w = window_of([4], [2], [4])
    assert is_weakly_controllable(w.full_subgroup()).status == HOLDS
    # the running example holds at N = 8
    cert = is_weakly_controllable(shift_template, window=8)
    assert cert.status == HOLDS
    assert cert.indices == {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7}
    # a full-window generator consumes the margin
    from groupwindows import FixedGenerator, TemplateSpec

    wide = TemplateSpec(
        period=1,
        component_orders=((2,),),
        fixed_generators=(FixedGenerator(((1, (1,)), (4, (1,)))),),
    )
    assert is_weakly_controllable(wide, window=4).status == UNDETERMINED


def test_order_controllability_cert_running_example(shift_template):
    for n in (4, 6, 8):
        cert = certify(shift_template, "order-controllable", window=n)
        assert cert.status == FAILS
        g = unroll_template(shift_template, n).group
        assert oracles.revalidate_witness(cert, g)
        assert cert.stabilization[cert.witness_context["i"]] is True


def test_controllable_cert_running_example_boundary_is_undetermined(shift_template):
    cert = certify(shift_template, "controllable", window=6)
    assert cert.status == UNDETERMINED
    assert cert.indices == {1: 2, 2: 3, 3: 4}
    assert cert.notes["unstable_failure_index"] == 4


def test_certificates_monotone_and_ordered():
    rng = random.Random(808)
    checked = 0
    while checked < 10:
        g = random_staggered_group(rng, 2)
        if g is None:
            continue
        n = g.window.length
        ctrl = [oracles.index_or_failure(g, i, n)[0] for i in range(1, n + 1)]
        octl = [oracles.index_or_failure(g, i, n, order=True)[0] for i in range(1, n + 1)]
        assert all(x is not None for x in ctrl)
        for a, b in zip(ctrl, ctrl[1:]):
            assert a <= b
        for c, o in zip(ctrl, octl):
            if o is not None:
                assert c <= o
        checked += 1


def test_remark_i_window_analog():
    # fully finite window subgroups: weak controllability holds and the
    # matching index exists for every depth once the support bound may reach N
    rng = random.Random(515)
    checked = 0
    while checked < 10:
        g = random_staggered_group(rng, rng.choice([2, 3]))
        if g is None:
            continue
        assert is_weakly_controllable(g).status in (HOLDS, UNDETERMINED)
        n = g.window.length
        for i in range(1, n + 1):
            assert oracles.index_or_failure(g, i, n)[0] is not None
        checked += 1


def test_remark_ii_density_transfer(shift_template):
    # a dense window family transfers its matching indices to its closure
    from groupwindows import FixedGenerator, ShiftedGenerator, TemplateSpec

    rect = TemplateSpec(
        period=1,
        component_orders=((4,),),
        shifted_generators=(ShiftedGenerator(start=1, stride=1, pattern=((0, (1,)),)),),
    )
    for template, window in ((rect, 5), (shift_template, 6)):
        dense = unroll_template(template, window).group
        cert = order_controllability_certificate(dense)
        closure = closure_window(template, window).group
        if not cert.holds():
            continue
        span_set = oracles.naive_span(
            [x.flat for x in closure.canonical_generators],
            list(closure.window.flat_orders),
        )
        slices = oracles.coord_slices(
            [list(c.factor_orders) for c in closure.window.components]
        )
        for i, n in cert.indices.items():
            assert oracles.naive_order_controllability_ok(
                span_set, slices, list(closure.window.flat_orders), i, n
            )


def test_rectangular_examples():
    w = window_of([4], [2])
    cert = is_rectangular(w.full_subgroup())
    assert cert.status == HOLDS
    assert cert.indices == {1: 1, 2: 2}

    w22 = window_of([2], [2])
    diag = subgroup(w22, (1, 1))
    cert = is_rectangular(diag)
    assert cert.status == FAILS
    assert cert.witness.flat in {(1, 0), (0, 1)}
    assert oracles.revalidate_witness(cert, diag)


def test_rectangular_implies_order_controllable_identity_indices():
    rng = random.Random(272)
    for _ in range(10):
        n = rng.randint(2, 4)
        comps = [[rng.choice([2, 4, 3])] for _ in range(n)]
        w = window_of(*comps)
        # random rectangular subgroup: a random subgroup of each coordinate
        gens = []
        for i in range(1, n + 1):
            m = w.flat_orders[i - 1]
            d = rng.choice([k for k in range(1, m + 1) if m % k == 0])
            if d != m:
                flat = [0] * n
                flat[i - 1] = d
                gens.append(w.from_flat(flat))
        g = WindowSubgroup(w, gens)
        assert is_rectangular(g).status == HOLDS
        cert = order_controllability_certificate(g)
        assert cert.status == HOLDS
        assert all(n_i == i for i, n_i in cert.indices.items())


def test_distinct_prime_coordinates_always_rectangular():
    # coordinate groups over pairwise distinct primes: every subgroup of the
    # window is rectangular, confirmed by an exhaustive span scan
    w = window_of([2], [3], [5])
    full = w.full_subgroup()
    elements = full.elements()
    seen = {}
    for a in elements:
        for b in elements:
            sub = WindowSubgroup(w, [a, b])
            seen[sub.basis] = sub
    assert len(seen) == 8
    for sub in seen.values():
        assert is_rectangular(sub).status == HOLDS


# ---------------------------------------------------------------- observability


def test_weak_observability_literal_mode():
    w = window_of([4], [2])
    full = w.full_subgroup()
    cert = is_weakly_observable(full)
    assert cert.status == HOLDS
    assert cert.notes["mode"] == "literal-at-window"


def test_weak_observability_rectangular_socle_span():
    w = window_of([4], [4])
    full = w.full_subgroup()
    socle_span = subgroup(w, (2, 0), (0, 2))
    assert is_weakly_observable(socle_span).status == HOLDS


def test_weak_observability_growth_mode_running_example(shift_template):
    small = unroll_template(shift_template, 6).group
    big = unroll_template(shift_template, 8).group
    cert = is_weakly_observable(small, h_big=big)
    assert cert.status == FAILS
    assert cert.witness is not None
    assert oracles.revalidate_witness(cert, big)
    # the closure's socle span is observable across the same windows
    c_small = closure_window(shift_template, 6).group
    c_big = closure_window(shift_template, 8).group
    soc_small = WindowSubgroup(c_small.window, [x.scale(2) for x in c_small.canonical_generators])
    soc_big = WindowSubgroup(c_big.window, [x.scale(2) for x in c_big.canonical_generators])
    cert2 = is_weakly_observable(soc_small, h_big=soc_big)
    assert cert2.status == HOLDS
    assert cert2.stabilization == {6: True}


def test_weak_observability_template_dispatch(shift_template):
    cert = certify(shift_template, "weakly-observable", window=6)
    assert cert.status == FAILS


# ---------------------------------------------------------------- witnesses


def test_every_failure_witness_revalidates(shift_template):
    rng = random.Random(33)
    certs = []
    for n in (4, 6):
        certs.append(
            (certify(shift_template, "order-controllable", window=n),
             unroll_template(shift_template, n).group)
        )
    w22 = window_of([2], [2])
    diag = subgroup(w22, (1, 1))
    certs.append((is_rectangular(diag), diag))
    for cert, g in certs:
        if cert.status == FAILS:
            assert oracles.revalidate_witness(cert, g)


def _differential_pool(shift_template):
    """The 200 seeded groups of the certificate differential test, with their primary parts."""
    pool = _section_order_pool(shift_template)[:200]
    return [h for g in pool for h in [g] + [part.subgroup for part in primary_decompose(g).parts]]


def test_no_certificate_computes_the_smith_form(shift_template, monkeypatch):
    # a failure witness is lifted off G's echelon rows, so every certificate
    # answers with the Smith normal form unavailable
    import groupwindows
    from groupwindows import intlinalg

    def refuse(*args):
        raise AssertionError("the Smith normal form was computed")

    for module in (intlinalg, groupwindows):
        monkeypatch.setattr(module, "smith_normal_form", refuse)
    sources = [(shift_template, n) for n in range(2, 13)]
    sources += [(g, None) for g in [closure_window(shift_template, n).group for n in range(2, 13)]]
    sources += [(h, None) for h in _differential_pool(shift_template)]
    witnesses = 0
    for source, window in sources:
        for prop in PROPERTIES:
            witnesses += certify(source, prop, window=window).witness is not None
    assert witnesses >= 150


def _count_failures(monkeypatch):
    """Patch ``control._failure``; returns the list of its calls' depths."""
    calls = []
    real = control._failure

    def counted(g, i, cap, order):
        calls.append(i)
        return real(g, i, cap, order)

    monkeypatch.setattr(control, "_failure", counted)
    return calls


def test_a_certificate_builds_one_witness_for_the_failure_it_reports(shift_template, monkeypatch):
    # the grown window of a template gives its indices and failing depth
    # only: a failing certificate builds its witness once, an undetermined
    # or holding one none
    lifting = ("weakly-controllable", "controllable", "order-controllable")
    calls = _count_failures(monkeypatch)
    statuses = set()
    for n in range(2, 17):
        for prop in PROPERTIES:
            calls.clear()
            cert = certify(shift_template, prop, window=n)
            statuses.add((prop, cert.status))
            failed = prop in lifting and cert.status == FAILS
            assert calls == ([cert.witness_context["i"]] if failed else []), (prop, n, cert.status)
    assert {("order-controllable", FAILS), ("controllable", UNDETERMINED), ("weakly-controllable", HOLDS)} <= statuses
    failing = 0
    for g in _differential_pool(shift_template):
        for prop in lifting:
            calls.clear()
            cert = certify(g, prop)
            assert len(calls) == (cert.status == FAILS), (g, prop)
            failing += cert.status == FAILS
    assert failing >= 50


# the least lift differs from the Smith solve's: [[0],[2],[0,2],[0]] has the
# same [1, 2]-prefix and is larger at the third coordinate
LEAST_LIFT = (
    {"components": [[3], [4], [2, 4], [2]],
     "generators": [[[0], [3], [0, 3], [0]], [[0], [0], [0, 2], [1]], [[2], [0], [0, 0], [0]]]},
    [[0], [2], [0, 0], [1]],
)


def _assert_least_lift(cert, g):
    """The witness is the least listed member of G with its failing projection."""
    mods = list(g.window.flat_orders)
    ctx = cert.witness_context
    length = ctx["n"] if cert.property == "order-controllable" else ctx["i"]
    e = g.window.flat_slice((1, length))[1]
    prefix = cert.witness.flat[:e]
    lifts = [v for v in oracles.naive_span([x.flat for x in g.generators], mods) if v[:e] == prefix]
    assert cert.witness.flat == min(lifts), (cert.property, g)


def test_failure_witnesses_are_least_lifts(shift_template):
    lifting = ("controllable", "weakly-controllable", "order-controllable")
    sources = [(shift_template, n, unroll_template(shift_template, n).group) for n in range(2, 9)]
    sources += [(g, None, g) for g in [closure_window(shift_template, n).group for n in range(2, 9)]]
    sources += [(h, None, h) for h in _differential_pool(shift_template)]
    checked = 0
    for source, window, g in sources:
        for prop in lifting:
            cert = certify(source, prop, window=window)
            if cert.witness is not None:
                _assert_least_lift(cert, g)
                checked += 1
    assert checked >= 60

    payload, witness = LEAST_LIFT
    g = fileio.parse_group(payload)
    for prop in ("controllable", "order-controllable"):
        cert = certify(g, prop)
        assert cert.status == FAILS and fileio.element_to_json(cert.witness) == witness
        assert cert.witness_context["i"] == 2
        _assert_least_lift(cert, g)
