import random

import pytest

from groupwindows import (
    ComponentGroup,
    ProductWindow,
    WindowSubgroup,
    project,
    section,
)
from groupwindows.errors import InputError
from groupwindows.window import prime_power, solve_in_subgroup

from conftest import subgroup, window_of
import oracles


def test_element_order_examples():
    w = window_of([4], [4])
    assert w.element([[2], [1]]).order() == 4
    assert w.zero().order() == 1
    w2 = window_of([4], [9])
    assert w2.element([[2], [3]]).order() == 6


def test_negative_residues_reduce_on_ingestion():
    w = window_of([4], [9])
    x = w.element([[-1], [-2]])
    assert x.flat == (3, 7)


def test_exponent_examples():
    assert window_of([4], [2]).full_subgroup().exponent() == 4
    assert window_of([4], [2]).trivial_subgroup().exponent() == 1
    w = window_of([8], [4])
    g = subgroup(w, (2, 1))
    # oracle: enumerate the cyclic subgroup
    span = oracles.naive_span([(2, 1)], [8, 4])
    assert g.exponent() == oracles.naive_exponent(span, [8, 4]) == 4


def test_project_examples():
    w = window_of([4], [2])
    full = w.full_subgroup()
    p = project(full, (1, 1))
    assert p.order() == 4

    w44 = window_of([4], [4])
    g = subgroup(w44, (2, 1))
    assert project(g, (2, 2)).order() == 4

    # closure unroll of the running example at N = 3: the 32-element group
    w3 = window_of([4], [4], [4])
    c3 = subgroup(w3, (2, 1, 0), (0, 1, 1), (0, 0, 1))
    span = oracles.naive_span([(2, 1, 0), (0, 1, 1), (0, 0, 1)], [4, 4, 4])
    assert len(span) == 32
    proj = project(c3, (1, 3))
    assert {e.flat for e in proj.elements()} == span


def test_prefix_projection_computes_no_echelon(monkeypatch):
    from groupwindows import window as window_module

    calls = []
    real = window_module.row_lattice_basis

    def counted(rows, width, mods=()):
        calls.append(width)
        return real(rows, width, mods)

    monkeypatch.setattr(window_module, "row_lattice_basis", counted)
    w = window_of([4], [2, 3], [9], [8])
    g = subgroup(w, (1, 1, 2, 3, 0), (0, 0, 1, 6, 4), (2, 0, 0, 0, 2))
    g.canonical_generators
    calls.clear()
    prefixes = [project(g, (1, i)) for i in range(1, w.length + 1)]
    assert [p.order() for p in prefixes] == [4, 12, 12, 48]  # listed by the oracle
    assert calls == []
    # an interior interval takes a fresh echelon of its flat width
    project(g, (2, 3)).basis
    assert calls == [3]


def test_a_section_is_one_echelon_from_its_start(monkeypatch):
    # the section on [a, b], flats [s, e), takes G's basis rows from e on as
    # an echelon as they stand and inserts only the e - s rows of the
    # interval into it, with no lattice basis call; when b = N G's rows from
    # s on already are the section's basis, and nothing is inserted
    from groupwindows import window as window_module
    from groupwindows.intlinalg import SparseEchelon

    inserted, bases = [], []
    real_insert, real_basis = SparseEchelon.insert, window_module.row_lattice_basis

    def counted(ech, vec):
        inserted.append(dict(vec))
        return real_insert(ech, vec)

    def basis(*args, **kwargs):
        bases.append(args)
        return real_basis(*args, **kwargs)

    w = window_of([4], [2, 3], [9], [8])
    g = subgroup(w, (1, 1, 2, 3, 0), (0, 0, 1, 6, 4), (2, 0, 0, 0, 2))
    g.basis
    monkeypatch.setattr(SparseEchelon, "insert", counted)
    monkeypatch.setattr(window_module, "row_lattice_basis", basis)
    F = w.flat_length
    for interval in ((1, 4), (1, 2), (2, 3), (3, 3), (4, 4), (1, 1)):
        inserted.clear()
        s, e = w.flat_slice(interval)
        section(g, interval)
        # the interval's rows, their flats [s, e) moved to F + (f - s)
        want = [] if e == F else [{f if f >= e else f + F - s: x for f, x in enumerate(row) if x} for row in g.basis[s:e]]
        assert inserted == want, interval
    assert bases == []


def test_project_out_of_range():
    w = window_of([4], [2])
    with pytest.raises(InputError):
        project(w.full_subgroup(), (1, 3))
    with pytest.raises(InputError):
        project(w.full_subgroup(), (0, 1))


def test_section_examples():
    w = window_of([4], [2], [4])
    full = w.full_subgroup()
    s = section(full, (2, 3))
    assert {e.flat for e in s.elements()} == {
        (0, b, c) for b in range(2) for c in range(4)
    }

    w22 = window_of([2], [2])
    diag = subgroup(w22, (1, 1))
    assert section(diag, (1, 1)).is_trivial()

    # plain unroll of the running example at N = 4, members supported in [1, 2];
    # frozen from the enumeration oracle
    w4 = window_of([4], [4], [4], [4])
    g4 = subgroup(w4, (2, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
    span = oracles.naive_span([g.flat for g in g4.generators], [4] * 4)
    slices = oracles.coord_slices([[4]] * 4)
    naive = oracles.naive_section(span, slices, (1, 2))
    got = section(g4, (1, 2))
    assert {e.flat for e in got.elements()} == naive
    assert naive == {(0, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (2, 3, 0, 0)}


def test_intersect_with_sum_alias():
    # the intersection with the direct sum over an interval is the section
    w = window_of([4], [4])
    g = subgroup(w, (2, 1))
    assert section(g, (1, 2)) == g
    assert section(w.trivial_subgroup(), (1, 2)).is_trivial()
    # closure window of the running example: equals the span of its generators
    w3 = window_of([4], [4], [4])
    c3 = subgroup(w3, (2, 1, 0), (0, 1, 1), (0, 0, 1))
    assert section(c3, (1, 3)) == c3


def test_membership_examples():
    w22 = window_of([2], [2])
    diag = subgroup(w22, (1, 1))
    assert diag.contains(w22.zero())
    assert not diag.contains(w22.element([[1], [0]]))
    with pytest.raises(InputError):
        diag.contains(window_of([2], [2], [2]).zero())


def test_membership_matches_enumeration_randomized():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        comps = [[rng.choice([2, 3, 4])] for _ in range(n)]
        w = window_of(*comps)
        mods = list(w.flat_orders)
        gens = [tuple(rng.randrange(m) for m in mods) for _ in range(rng.randint(1, 2))]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        if g.order() > 1 << 12:
            continue
        span = oracles.naive_span(gens, mods)
        for _ in range(10):
            x = tuple(rng.randrange(m) for m in mods)
            assert g.contains(w.from_flat(list(x))) == (x in span)
        # random combinations are members
        coeffs = [rng.randrange(8) for _ in gens]
        acc = w.zero()
        for c, v in zip(coeffs, gens):
            acc = acc + w.from_flat(list(v)).scale(c)
        assert g.contains(acc)


def test_projection_nesting_invariant():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 4)
        comps = [[rng.choice([2, 4, 3])] for _ in range(n)]
        w = window_of(*comps)
        gens = [
            tuple(rng.randrange(m) for m in w.flat_orders)
            for _ in range(rng.randint(1, 3))
        ]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        hi = rng.randint(1, n)
        mid = rng.randint(1, hi)
        # project(project(G, [1, hi]), [1, mid]) == project(G, [1, mid])
        assert project(project(g, (1, hi)), (1, mid)) == project(g, (1, mid))


def test_section_contained_in_group_invariant():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        comps = [[rng.choice([2, 4])] for _ in range(n)]
        w = window_of(*comps)
        gens = [
            tuple(rng.randrange(m) for m in w.flat_orders)
            for _ in range(rng.randint(1, 3))
        ]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        if g.order() > 1 << 10:
            continue
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        s = section(g, (lo, hi))
        span = oracles.naive_span(gens, list(w.flat_orders))
        slices = oracles.coord_slices(comps)
        naive = oracles.naive_section(span, slices, (lo, hi))
        assert {e.flat for e in s.elements()} == naive
        for e in s.elements():
            assert g.contains(e)
        # projections of the section stay inside projections of the group
        ps = project(s, (lo, hi))
        pg = project(g, (lo, hi))
        for e in ps.elements():
            assert pg.contains(e)


def test_canonical_form_idempotent_bytes():
    w = window_of([4], [4], [2, 2])
    g = subgroup(w, (2, 1, 0, 1), (0, 1, 1, 0))
    again = WindowSubgroup(w, g.canonical_generators)
    assert g.basis == again.basis
    assert g == again


def test_canonical_form_presentation_independent():
    w = window_of([4], [4])
    a = subgroup(w, (2, 1), (2, 3))
    b = subgroup(w, (2, 3), (0, 2), (2, 1))
    assert a == b
    assert hash(a) == hash(b)


def test_coset_representative_roundtrip_preserves_order():
    # members reconstruct exactly from the solve over their canonical rows,
    # and a doubled member has a root in G that doubles back to it
    w = window_of([4], [4], [4])
    g = subgroup(w, (2, 1, 0), (0, 1, 1))
    for x in g.elements():
        y = solve_in_subgroup(g, x)
        assert y is not None
        assert y.flat == x.flat
        assert y.order() == x.order()
        root = solve_in_subgroup(g, x.scale(2), scale=2)
        assert g.contains(root) and root.scale(2).flat == x.scale(2).flat
    outside = w.element([[1], [0], [0]])
    assert solve_in_subgroup(g, outside) is None


# ---------------------------------------------------------------- prime powers

MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, (2, 1)),
        (4, (2, 2)),
        (97, (97, 1)),
        (3**7, (3, 7)),
        (MERSENNE_61, (MERSENNE_61, 1)),
        (MERSENNE_61**2, (MERSENNE_61, 2)),
        (2**100, (2, 100)),
        (999_983**3, (999_983, 3)),
    ],
)
def test_prime_power_roots(n, expected):
    assert prime_power(n) == expected
    assert ComponentGroup((n,)).primes() == {expected[0]}


@pytest.mark.parametrize(
    "n",
    [
        0, 1, 6, 12, 36,
        2047,  # 23 * 89, a strong pseudoprime to base 2
        MERSENNE_61 + 2,  # 3 * 768614336404564651, next to a prime
        MERSENNE_61 * 2,
        (2**31 - 1) * MERSENNE_61,
        999_983**2 * 1_000_003,
    ],
)
def test_prime_power_rejects_composites(n):
    assert prime_power(n) is None
    with pytest.raises(InputError, match=f"factor order {n} is not a prime power"):
        ComponentGroup((n,))


def test_prime_power_refuses_roots_beyond_the_proven_range():
    # the least strong pseudoprime to the bases 2..41: it must not pass as prime
    psi_13 = 3_317_044_064_679_887_385_961_981
    for n in (psi_13, 2**89 - 1, (2**89 - 1) ** 2):
        with pytest.raises(InputError, match="cannot decide whether"):
            prime_power(n)
