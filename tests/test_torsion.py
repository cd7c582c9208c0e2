import random
from math import prod

import pytest

from groupwindows import (
    WindowSubgroup,
    closure_window,
    height,
    order_controllability_certificate,
    primary_decompose,
    socle_subgroup,
)
from groupwindows.errors import InputError
from groupwindows.torsion import socle_echelon, socle_vector

from conftest import subgroup, window_of
import oracles


def test_socle_examples():
    w = window_of([4], [2])
    assert socle_echelon(w.full_subgroup(), 2).basis == [[1, 0], [0, 1]]
    assert all(x.order() == 2 for x in socle_subgroup(w.full_subgroup(), 2).canonical_generators)
    assert socle_echelon(w.trivial_subgroup(), 2).basis == []


def test_socle_requires_prime():
    w = window_of([4], [2])
    for n in (0, 1, 4, 6, 9, 15, 49):
        with pytest.raises(InputError, match="is not prime"):
            socle_echelon(w.full_subgroup(), n)
    for p in (3, 5, 7, 97):
        assert socle_echelon(w.full_subgroup(), p).basis == []


def test_socle_running_example_closure_n3(shift_template):
    c3 = closure_window(shift_template, 3).group
    dim = len(socle_echelon(c3, 2).rows)
    # oracle: order <= 2 elements of the 32-element group
    span = oracles.naive_span([g.flat for g in c3.canonical_generators], [4, 4, 4])
    small = oracles.naive_socle(span, [4, 4, 4], 2)
    assert len(small) == 2**dim
    assert dim == 3


def test_socle_dimension_matches_enumeration_randomized():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        comps = [[rng.choice([2, 4, 8, 3, 9])] for _ in range(n)]
        w = window_of(*comps)
        mods = list(w.flat_orders)
        gens = [tuple(rng.randrange(m) for m in mods) for _ in range(rng.randint(1, 3))]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        if g.order() > 1 << 12:
            continue
        span = oracles.naive_span(gens, mods)
        for p in (2, 3):
            naive = oracles.naive_socle(span, mods, p)
            echelon = socle_echelon(g, p)
            assert p ** len(echelon.rows) == len(naive)
            # the echelon rows span the socle vectors of the listed socle
            width = len(socle_vector(w.zero(), p))
            got_span = oracles.naive_span(echelon.basis, [p] * width)
            assert got_span == {socle_vector(w.from_flat(list(v)), p) for v in naive}


def test_height_examples():
    w = window_of([4])
    full = w.full_subgroup()
    two = w.element([[2]])
    assert height(two, full, 2) == 1
    assert height(two, subgroup(w, (2,)), 2) == 0


def test_height_rejects_zero_and_nonmembers():
    w = window_of([4])
    full = w.full_subgroup()
    with pytest.raises(InputError):
        height(w.zero(), full, 2)
    with pytest.raises(InputError):
        height(w.element([[1]]), subgroup(w, (2,)), 2)


def test_height_matches_enumeration_randomized():
    rng = random.Random(77)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3])
        comps = [[p ** rng.randint(1, 3)] for _ in range(n)]
        w = window_of(*comps)
        mods = list(w.flat_orders)
        gens = [tuple(rng.randrange(m) for m in mods) for _ in range(rng.randint(1, 2))]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        if g.order() > 1 << 10 or g.is_trivial():
            continue
        span = oracles.naive_span(gens, mods)
        for x in list(g.elements())[:40]:
            if x.is_zero():
                continue
            assert height(x, g, p) == oracles.naive_height(x.flat, span, mods, p)
            checked += 1
        # scaled elements gain at least the scaling in height
        for x in list(g.elements())[:20]:
            y = x.scale(p)
            if not y.is_zero():
                assert height(y, g, p) >= height(x, g, p) + 1
    assert checked > 50


def test_primary_decompose_crt_example():
    w = window_of([2, 3])
    dec = primary_decompose(w.full_subgroup())
    assert dec.primes == (2, 3)
    assert [p.subgroup.order() for p in dec.parts] == [2, 3]


def test_primary_decompose_p_group_is_identity():
    w = window_of([4], [2])
    g = w.full_subgroup()
    dec = primary_decompose(g)
    assert dec.primes == (2,)
    part = dec.part(2)
    assert part.subgroup.order() == g.order()
    assert part.coordinates == (1, 2)


def test_primary_decompose_random_split():
    rng = random.Random(99)
    for _ in range(15):
        w = window_of([2, 9], [2, 9], [2, 9])
        mods = list(w.flat_orders)
        gens = [tuple(rng.randrange(m) for m in mods) for _ in range(2)]
        g = WindowSubgroup(w, [w.from_flat(list(v)) for v in gens])
        dec = primary_decompose(g)
        assert prod(part.subgroup.order() for part in dec.parts) == g.order()
        if g.order() > 1 << 12:
            continue
        # every member splits uniquely into its embedded p-parts
        for x in g.elements():
            total = w.zero()
            for part in dec.parts:
                piece = part.embed(part.restrict(x), w)
                assert g.contains(piece)
                total = total + piece
            assert total.flat == x.flat


def test_order_controllability_passes_to_parts():
    rng = random.Random(2024)
    checked = 0
    from conftest import random_mixed_group

    while checked < 8:
        g = random_mixed_group(rng)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        dec = primary_decompose(g)
        for part in dec.parts:
            assert order_controllability_certificate(part.subgroup).holds()
        checked += 1
