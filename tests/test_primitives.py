"""Differential tests of the shared primitives against brute force.

``kernel_subgroup``, ``torsion_subgroup`` over an interval and
``height_layer`` are checked against filtering the exhaustive span,
``least_outside`` and ``least_in_difference`` against the least listed
member outside, ``least_with_prefix`` against the least listed member with
the prefix, ``FpEchelon`` against exhaustive F_p spans, and ``represent``
by round trips through encoders of socle elements (heights 0), and
``solve_in_subgroup`` against the Smith solve it replaces where a root's
coefficients are unique.
The bases that ``project``, ``section``, ``kernel_subgroup`` and
``primary_decompose`` take without a new echelon of their generators are
checked against a fresh one.
"""

from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from groupwindows import GeneratingSet, WindowSubgroup, primary_decompose, project, section, window
from groupwindows.intlinalg import IntMatrix, solve_mixed_modulus
from groupwindows.errors import UndeterminedAtWindowError
from groupwindows.synthesis import Block, Encoder, represent
from groupwindows.torsion import FpEchelon
from groupwindows.torsion import height_layer
from groupwindows.window import (
    kernel_subgroup,
    least_in_difference,
    least_outside,
    least_with_prefix,
    solve_in_subgroup,
    torsion_subgroup,
)

from conftest import window_of
import oracles

ORDERS = (2, 3, 4, 5, 8, 9)
SETTINGS = settings(max_examples=60, deadline=None)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def small_groups(draw):
    """A window of at most three coordinates and a subgroup of at most 2^10 elements."""
    comps = draw(
        st.lists(st.lists(st.sampled_from(ORDERS), min_size=1, max_size=2), min_size=1, max_size=3)
    )
    w = window_of(*comps)
    mods = w.flat_orders
    flats = draw(
        st.lists(st.tuples(*[st.integers(0, m - 1) for m in mods]), max_size=3)
    )
    g = WindowSubgroup(w, [w.from_flat(f) for f in flats])
    if g.order() > 1 << 10:
        g = WindowSubgroup(w, [w.from_flat(f) for f in flats[:1]])
    return g


def _brute_kernel(g, t):
    mods = g.window.flat_orders
    members = oracles.naive_span([x.flat for x in g.generators], mods)
    return {v for v in members if all(r % tf == 0 for r, tf in zip(v, t))}


def _flats(g):
    return {x.flat for x in g.elements()}


def _fresh_basis(g):
    """The basis recomputed from the subgroup's generators."""
    return WindowSubgroup(g.window, g.generators).basis


@SETTINGS
@given(small_groups())
def test_project_takes_the_basis_of_its_restricted_canonical_generators(g):
    # every prefix [1, i] cuts G's basis; the interior intervals take a fresh one
    n = g.window.length
    for iv in [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]:
        proj = project(g, iv)
        assert proj.generators == tuple(x.restrict(iv) for x in g.canonical_generators)
        assert proj.basis == _fresh_basis(proj)


@SETTINGS
@given(small_groups(), st.data())
def test_section_takes_the_basis_of_its_generators(g, data):
    n = g.window.length
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo, n))
    sect = section(g, (lo, hi))
    assert sect.basis == _fresh_basis(sect)


@SETTINGS
@given(small_groups(), st.data())
def test_kernel_subgroup_takes_the_basis_of_its_generators(g, data):
    t = [data.draw(st.sampled_from(_divisors(m))) for m in g.window.flat_orders]
    kernel = kernel_subgroup(g, t)
    assert kernel.basis == _fresh_basis(kernel)


@SETTINGS
@given(small_groups())
def test_primary_parts_take_the_basis_of_their_generators(g):
    for part in primary_decompose(g).parts:
        assert part.subgroup.basis == _fresh_basis(part.subgroup)


@SETTINGS
@given(small_groups(), st.data())
def test_element_from_residues_equals_element_from_flat(g, data):
    w = g.window
    x = w.from_flat(data.draw(st.tuples(*[st.integers(-20, 20) for _ in w.flat_orders])))
    y = w.element(x.residues)
    assert y == x and hash(y) == hash(x)
    assert all(0 <= r < m for r, m in zip(x.flat, w.flat_orders))


@SETTINGS
@given(small_groups(), st.data())
def test_kernel_subgroup_any_divisor_moduli(g, data):
    t = [data.draw(st.sampled_from(_divisors(m))) for m in g.window.flat_orders]
    assert _flats(kernel_subgroup(g, t)) == _brute_kernel(g, t)


@SETTINGS
@given(small_groups(), st.data())
def test_kernel_subgroup_section_masks(g, data):
    n = g.window.length
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo, n))
    s, e = g.window.flat_slice((lo, hi))
    t = [1 if s <= f < e else m for f, m in enumerate(g.window.flat_orders)]
    members = oracles.naive_span([x.flat for x in g.generators], g.window.flat_orders)
    expected = oracles.naive_section(members, g.window.coord_slices, (lo, hi))
    assert _brute_kernel(g, t) == expected
    assert _flats(kernel_subgroup(g, t)) == expected


@SETTINGS
@given(small_groups())
def test_kernel_subgroup_d_torsion(g):
    # G[d] = { x : d*x == 0 } for every d dividing the exponent
    mods = g.window.flat_orders
    members = oracles.naive_span([x.flat for x in g.generators], mods)
    for d in _divisors(g.exponent()):
        t = [m // gcd(m, d) for m in mods]
        expected = {v for v in members if all((d * r) % m == 0 for r, m in zip(v, mods))}
        assert _flats(kernel_subgroup(g, t)) == expected


@SETTINGS
@given(small_groups(), st.data())
def test_torsion_subgroup_over_an_interval(g, data):
    n = g.window.length
    lo = data.draw(st.integers(1, n))
    hi = data.draw(st.integers(lo, n))
    mods = g.window.flat_orders
    members = oracles.naive_span([x.flat for x in g.generators], mods)
    inside = oracles.naive_section(members, g.window.coord_slices, (lo, hi))
    for q in _divisors(g.exponent()):
        expected = {v for v in inside if all((q * r) % m == 0 for r, m in zip(v, mods))}
        assert _flats(section(torsion_subgroup(g, q), (lo, hi))) == expected


@SETTINGS
@given(small_groups())
def test_height_layers_are_socle_elements_of_height_at_least_h(g):
    mods = g.window.flat_orders
    members = oracles.naive_span([x.flat for x in g.generators], mods)
    for p in g.window.primes():
        e = oracles.naive_exponent(members, mods)
        while e % p == 0:
            e //= p
        if e != 1:  # heights are defined inside p-groups
            continue
        socle = oracles.naive_socle(members, mods, p)
        for h in range(3):
            expected = {v for v in socle if not any(v) or oracles.naive_height(v, members, mods, p) >= h}
            assert _flats(height_layer(g, p, h)) == expected


@st.composite
def subgroup_pairs(draw):
    """Two or three subgroups of one window: a, b, and c for a q-dependent b."""
    a = draw(small_groups())
    w = a.window
    others = []
    for _ in range(2):
        flats = draw(st.lists(st.tuples(*[st.integers(0, m - 1) for m in w.flat_orders]), max_size=2))
        others.append(WindowSubgroup(w, [w.from_flat(f) for f in flats]))
    return a, others[0], others[1]


@SETTINGS
@given(subgroup_pairs())
def test_least_outside_matches_listing(groups):
    a, b, c = groups
    mods = a.window.flat_orders
    a_set = oracles.naive_span([x.flat for x in a.generators], mods)
    b_set = oracles.naive_span([x.flat for x in b.generators], mods)
    outside = a_set - b_set
    got = least_outside(a, b)
    if not outside:
        assert got is None
    else:
        key = lambda v: (oracles.naive_order(v, mods), v)  # noqa: E731
        assert got is not None and got.flat == min(outside, key=key)

    # b growing with q: b(q) = b + c[q]
    c_set = oracles.naive_span([x.flat for x in c.generators], mods)

    def b_of(q):
        return WindowSubgroup(a.window, b.generators + torsion_subgroup(c, q).generators)

    def b_set_of(q):
        # b + c[q] of two listed subgroups is their sumset
        killed = [v for v in c_set if all((q * r) % m == 0 for r, m in zip(v, mods))]
        return {tuple((u + v) % m for u, v, m in zip(x, y, mods)) for x in b_set for y in killed}

    want = oracles.naive_least_outside(a_set, b_set_of, mods)
    got = least_outside(a, b_of)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.flat == want


@SETTINGS
@given(subgroup_pairs())
def test_least_in_difference_is_none_exactly_when_inside(groups):
    a, b, _ = groups
    mods = a.window.flat_orders
    a_set = oracles.naive_span([x.flat for x in a.generators], mods)
    b_set = oracles.naive_span([x.flat for x in b.generators], mods)
    got = least_in_difference(a, b.contains_flat)
    if a_set <= b_set:
        assert got is None
    else:
        assert got is not None and got.flat == min(a_set - b_set)


@SETTINGS
@given(small_groups(), st.data())
def test_least_with_prefix_is_the_least_listed_member_with_it(g, data):
    # a prefix of any flat width, half the time a member's and otherwise any residues
    mods = g.window.flat_orders
    members = _flats(g)
    e = data.draw(st.integers(0, len(mods)))
    if data.draw(st.booleans()):
        prefix = data.draw(st.sampled_from(sorted(members)))[:e]
    else:
        prefix = tuple(data.draw(st.integers(0, m - 1)) for m in mods[:e])
    with_prefix = [v for v in members if v[:e] == prefix]
    got = least_with_prefix(g, prefix)
    if not with_prefix:
        assert got is None
    else:
        assert got is not None and got.flat == min(with_prefix)


@SETTINGS
@given(st.sampled_from([2, 3, 5]), st.data())
def test_fp_echelon_matches_brute_force_span(p, data):
    width = data.draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2 * p, 2 * p), min_size=width, max_size=width)
    vecs = data.draw(st.lists(entries, min_size=1, max_size=6))
    ech = FpEchelon(p)
    span_set = {(0,) * width}
    for v in vecs:
        w = tuple(a % p for a in v)
        independent = w not in span_set
        assert any(ech.reduce(v)) == independent
        assert ech.add(v) == independent
        span_set = {
            tuple((a + c * b) % p for a, b in zip(s, w)) for s in span_set for c in range(p)
        }
    basis = ech.basis
    assert all(len(row) == width for row in basis)
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    assert pivots == sorted(pivots)
    for row, piv in zip(basis, pivots):
        assert row[piv] == 1
        assert all(other[piv] == 0 for other in basis if other is not row)
    assert oracles.naive_span(basis, [p] * width) == span_set
    # the pivots below w count the dimension of the span cut to its first w entries
    for cut in range(width + 1):
        assert p ** ech.rank_below(cut) == len({s[:cut] for s in span_set})
    # the basis is canonical: another insertion order, or the vectors given at once, gives the same rows
    assert FpEchelon(p, reversed(vecs)).basis == basis


@st.composite
def socle_families(draw):
    """Order-p elements of a window of cyclic p-power factors, possibly dependent."""
    p = draw(st.sampled_from([2, 3]))
    exps = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    w = window_of(*[[p**k] for k in exps])
    halves = [m // p for m in w.flat_orders]
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, p - 1) for _ in halves]), min_size=1, max_size=4)
    )
    xs = tuple(w.from_flat([a * h for a, h in zip(v, halves)]) for v in vectors)
    gs = GeneratingSet(
        prime=p,
        blocks=(Block(d=1, size=len(xs)),),
        socle_elements=xs,
        generators=xs,
        heights=(0,) * len(xs),
        n_sequence={},
    )
    return gs, w, halves


@SETTINGS
@given(socle_families(), st.data())
def test_socle_solve_round_trips(family, data):
    # with heights 0 the coefficient order p kills each x_m, so the encoder
    # is a map of the whole window's group; it is bijective onto its image
    # exactly when the x_m are independent
    gs, w, halves = family
    p = gs.prime
    enc = Encoder(group=w.full_subgroup(), generating_set=gs)
    members = oracles.naive_span([x.flat for x in gs.socle_elements], w.flat_orders)
    size = len(gs.socle_elements)
    alpha = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    target = w.zero()
    for a, x in zip(alpha, gs.socle_elements):
        target = target + x.scale(a)
    got = represent(target, enc)
    assert all(0 <= a < p for a in got)
    back = w.zero()
    for a, x in zip(got, gs.socle_elements):
        back = back + x.scale(a)
    assert back.flat == target.flat
    if len(members) == p**size:
        assert got == alpha
    # an arbitrary socle element of the window is solvable iff it is in the span
    v = data.draw(st.tuples(*[st.integers(0, p - 1) for _ in halves]))
    z = w.from_flat([a * h for a, h in zip(v, halves)])
    if z.flat in members:
        represent(z, enc)
    else:
        with pytest.raises(UndeterminedAtWindowError):
            represent(z, enc)


@st.composite
def p_groups_with_roots(draw):
    """A p-group over Z(p), Z(p^2), Z(p^3) factors, a scale p^h and a target.

    The target is p^h times a member, a member, or any element of the window,
    so targets with and without roots occur.
    """
    p = draw(st.sampled_from([2, 3]))
    comps = draw(st.lists(st.lists(st.sampled_from([p, p**2, p**3]), min_size=1, max_size=2), min_size=1, max_size=3))
    w = window_of(*comps)
    mods = w.flat_orders
    flats = draw(st.lists(st.tuples(*[st.integers(0, m - 1) for m in mods]), min_size=1, max_size=4))
    g = WindowSubgroup(w, [w.from_flat(f) for f in flats])
    scale = p ** draw(st.integers(0, 2))
    pick = draw(st.sampled_from(["root", "member", "any"]))
    if pick == "any":
        return g, scale, w.from_flat(draw(st.tuples(*[st.integers(0, m - 1) for m in mods])))
    ks = draw(st.lists(st.integers(0, p**3 - 1), min_size=len(flats), max_size=len(flats)))
    x = w.from_flat([sum(k * f[i] for k, f in zip(ks, flats)) for i in range(len(mods))])
    return g, scale, x.scale(scale) if pick == "root" else x


def _smith_root(g, z, scale):
    """The root the Smith solve gives: its coefficients over the canonical rows, summed."""
    rows, mods = g.canonical_rows, g.window.flat_orders
    A = IntMatrix.from_rows([[scale * row[f] for row in rows] for f in range(len(mods))])
    ks = solve_mixed_modulus(A, z.flat, mods)
    if ks is None:
        return None
    return g.window.from_flat([sum(k * row[f] for k, row in zip(ks, rows)) for f in range(len(mods))])


def _solve_counting_smith(g, z, scale):
    """``solve_in_subgroup``'s answer and the number of Smith solves it made."""
    with mock.patch.object(window, "solve_mixed_modulus", wraps=solve_mixed_modulus) as smith:
        return solve_in_subgroup(g, z, scale=scale), smith.call_count


@settings(max_examples=150, deadline=None)
@given(p_groups_with_roots())
def test_root_solve_gives_the_smith_root(case):
    # the map k -> sum k_j scale r_j on prod Z(o_j), o_j the order of
    # scale r_j, is injective exactly when the scaled group has prod o_j
    # members; there the root's coefficients are unique and no Smith solve runs
    g, scale, z = case
    want = _smith_root(g, z, scale)
    got, smith_calls = _solve_counting_smith(g, z, scale)
    assert (got is None) == (want is None)
    if want is None:
        assert smith_calls == 0
        return
    assert got.flat == want.flat and got.scale(scale) == z and g.contains(got)
    orders = [x.scale(scale).order() for x in g.canonical_generators]
    assert smith_calls == (g.scaled(scale).order() != prod(orders))


def test_root_with_non_unique_coefficients_takes_the_smith_solve():
    # in Z4 x Z8 the rows (1, 1), (0, 2) double to (2, 2) and (0, 4), of
    # orders 4 and 2, but span only 4 elements: 2 (2, 2) == 2 (0, 4)
    w = window_of([4], [8])
    g = WindowSubgroup(w, [w.from_flat((1, 1)), w.from_flat((0, 2))])
    assert g.canonical_rows == ((1, 1), (0, 2))
    roots = {(0, 0): (0, 0), (0, 4): (0, 2), (2, 2): (1, 1), (2, 6): (1, 3)}  # the Smith solve's
    for z, root in roots.items():
        got, smith_calls = _solve_counting_smith(g, w.from_flat(z), 2)
        assert got.flat == root and smith_calls == 1
    assert _solve_counting_smith(g, w.from_flat((0, 2)), 2) == (None, 0)

