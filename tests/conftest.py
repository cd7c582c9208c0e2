import random

import pytest

from groupwindows import (
    ComponentGroup,
    FixedGenerator,
    ProductWindow,
    ShiftedGenerator,
    TemplateSpec,
    WindowSubgroup,
)

import oracles


@pytest.fixture
def shift_template():
    """The running counterexample family: Z(4) components, one width-2 fixed
    generator (2 then 1), and a (1, 1) pattern shifted along the axis."""
    return TemplateSpec(
        period=1,
        component_orders=((4,),),
        fixed_generators=(FixedGenerator(((1, (2,)), (2, (1,)))),),
        shifted_generators=(ShiftedGenerator(start=2, stride=1, pattern=((0, (1,)), (1, (1,)))),),
    )


def window_of(*factor_lists):
    return ProductWindow(tuple(ComponentGroup(tuple(f)) for f in factor_lists))


def subgroup(window, *flat_gens):
    return WindowSubgroup(window, [window.from_flat(list(g)) for g in flat_gens])


def random_staggered_group(rng: random.Random, p: int, max_order=1 << 10):
    """A window group generated by interval-supported elements, one per start.

    The staggered supports make most instances order controllable; callers
    filter by certificate.
    """
    n = rng.randint(3, 5)
    comps = [(p ** rng.randint(1, 2),) for _ in range(n)]
    window = window_of(*comps)
    mods = window.flat_orders
    slices = window.coord_slices
    gens = []
    for start in range(1, n + 1):
        if rng.random() < 0.25 and start > 1:
            continue
        width = 1 if start == n else rng.randint(1, 2)
        end = min(start + width - 1, n)
        flat = [0] * window.flat_length
        for c in range(start, end + 1):
            s, e = slices[c - 1]
            for f in range(s, e):
                flat[f] = rng.randrange(mods[f])
        s, e = slices[start - 1]
        if not any(flat[s:e]):
            flat[s] = max(1, mods[s] // p)
        gens.append(window.from_flat(flat))
    g = WindowSubgroup(window, gens)
    if g.order() > max_order or g.is_trivial():
        return None
    return g


def random_mixed_group(rng: random.Random, max_order=1 << 12):
    """Random subgroup over components drawn from small mixed-prime shapes."""
    shapes = [(2,), (4,), (3,), (9,), (2, 3)]
    n = rng.randint(2, 4)
    comps = [rng.choice(shapes) for _ in range(n)]
    window = window_of(*comps)
    mods = window.flat_orders
    slices = window.coord_slices
    gens = []
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(1, n)
        width = rng.randint(1, 2)
        flat = [0] * window.flat_length
        for c in range(start, min(start + width - 1, n) + 1):
            s, e = slices[c - 1]
            for f in range(s, e):
                flat[f] = rng.randrange(mods[f])
        gens.append(window.from_flat(flat))
    g = WindowSubgroup(window, gens)
    if g.order() > max_order or g.is_trivial():
        return None
    return g


def oracle_isomorphic_encoder(gs, g):
    """The exhaustive oracle's verdict on a generating set's coefficient map."""
    return oracles.naive_isomorphic_encoder(
        [y.flat for y in gs.generators],
        gs.orders,
        [x.flat for x in g.generators],
        list(g.window.flat_orders),
    )
