import random
from math import prod

import pytest

from groupwindows import (
    WindowSubgroup,
    closure_window,
    height,
    max_height_prefix_witness,
    order_controllability_certificate,
    primary_decompose,
    section,
    socle,
    socle_subgroup,
)
from groupwindows.errors import InputError
from groupwindows.torsion import socle_dimension

from conftest import random_staggered_group, subgroup, window_of
import oracles


def test_socle_examples():
    w = window_of([4], [2])
    sb = socle(w.full_subgroup(), 2)
    assert sb.dimension == 2
    assert all(x.order() == 2 for x in sb.basis)
    assert socle(w.trivial_subgroup(), 2).dimension == 0


def test_socle_requires_prime():
    w = window_of([4], [2])
    for n in (0, 1, 4, 6, 9, 15, 49):
        with pytest.raises(InputError, match="is not prime"):
            socle(w.full_subgroup(), n)
    for p in (3, 5, 7, 97):
        assert socle(w.full_subgroup(), p).dimension == 0


def test_socle_running_example_closure_n3(shift_template):
    c3 = closure_window(shift_template, 3).group
    sb = socle(c3, 2)
    # oracle: order <= 2 elements of the 32-element group
    span = oracles.naive_span([g.flat for g in c3.canonical_generators], [4, 4, 4])
    small = oracles.naive_socle(span, [4, 4, 4], 2)
    assert len(small) == 2 ** sb.dimension
    assert sb.dimension == 3


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
            d = socle_dimension(g, p)
            assert p**d == len(naive)
            sb = socle(g, p)
            assert sb.dimension == d
            got_span = oracles.naive_span([x.flat for x in sb.basis], mods)
            assert got_span == naive


def _dim(n, p):
    d = 0
    while n > 1:
        n //= p
        d += 1
    return d


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


def test_max_height_prefix_witness_trivial_cases():
    # an element already of maximal height is returned unchanged
    w = window_of([4], [2])
    full = w.full_subgroup()
    x = w.element([[2], [0]])
    wtn = max_height_prefix_witness(x, 1, full, 1)
    assert wtn.flat == (2, 0)
    # rectangular group: truncation preserves the height
    w3 = window_of([4], [4], [4])
    box = w3.full_subgroup()
    x = w3.element([[2], [2], [0]])
    wtn = max_height_prefix_witness(x, 1, box, 2)
    assert wtn.restrict((1, 1)).flat == (2,)
    assert height(wtn, section(box, (1, 2)), 2) == height(x, box, 2) == 1


def test_max_height_prefix_witness_validates_inputs():
    w = window_of([4], [4])
    full = w.full_subgroup()
    with pytest.raises(InputError):
        max_height_prefix_witness(w.element([[0], [2]]), 1, full, 2)  # zero prefix
    with pytest.raises(InputError):
        max_height_prefix_witness(w.element([[1], [0]]), 1, full, 2)  # order 4, not prime


def test_max_height_prefix_witness_computes_no_smith_form(shift_template, monkeypatch):
    # the witness is read off the layers' echelon rows, so it answers with
    # the Smith normal form unavailable, for every support bound n_i
    import groupwindows
    from groupwindows import intlinalg

    g = closure_window(shift_template, 8).group
    cert = order_controllability_certificate(g)

    def refuse(*args):
        raise AssertionError("the Smith normal form was computed")

    for module in (intlinalg, groupwindows):
        monkeypatch.setattr(module, "smith_normal_form", refuse)
    answered = 0
    for n_i in range(1, g.window.length + 1):
        soc = socle_subgroup(section(g, (1, n_i)), 2)
        for i in range(1, n_i + 1):
            for x in soc.elements():
                if x.restrict((1, i)).is_zero():
                    continue
                wtn = max_height_prefix_witness(x, i, g, n_i, n_sequence=cert.indices)
                assert soc.contains(wtn) and wtn.restrict((1, i)) == x.restrict((1, i))
                answered += 1
    assert answered > 3000


def test_max_height_prefix_witness_matches_exhaustive_scan():
    rng = random.Random(123)
    tried = 0
    for _ in range(40):
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p, max_order=1 << 9)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        n = g.window.length
        for i, n_i in cert.indices.items():
            sec = section(g, (1, n_i))
            soc = socle_subgroup(sec, p)
            for x in soc.elements():
                if x.is_zero() or x.restrict((1, i)).is_zero():
                    continue
                wtn = max_height_prefix_witness(x, i, g, n_i, n_sequence=cert.indices)
                # exhaustive scan over the candidate coset
                inner = section(g, (1, n_i))
                best = -1
                for cand in soc.elements():
                    if cand.restrict((1, i)).flat != x.restrict((1, i)).flat:
                        continue
                    if cand.is_zero():
                        continue
                    best = max(best, height(cand, inner, p))
                assert wtn.restrict((1, i)).flat == x.restrict((1, i)).flat
                assert height(wtn, inner, p) == best
                tried += 1
                break
            break
    assert tried >= 5


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
