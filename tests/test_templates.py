import pytest

from groupwindows import (
    FixedGenerator,
    ShiftedGenerator,
    TemplateSpec,
    closure_window,
    fileio,
    unroll_template,
)
from groupwindows.errors import InputError

import oracles


def test_unroll_running_example_n3(shift_template):
    result = unroll_template(shift_template, 3)
    assert [g.flat for g in result.group.generators] == [(2, 1, 0), (0, 1, 1)]
    assert result.skipped == (("shifted[0]", 3),)


def test_unroll_running_example_n4(shift_template):
    result = unroll_template(shift_template, 4)
    assert [g.flat for g in result.group.generators] == [
        (2, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
    ]


def test_unroll_empty_template():
    t = TemplateSpec(period=1, component_orders=((4,),))
    result = unroll_template(t, 5)
    assert result.group.is_trivial()
    assert result.group.window.length == 5


def test_unroll_window_below_fixed_support():
    t = TemplateSpec(
        period=1,
        component_orders=((2,),),
        fixed_generators=(FixedGenerator(((1, (1,)), (3, (1,)))),),
    )
    with pytest.raises(InputError):
        unroll_template(t, 2)


def test_width_two_pattern_skipped_at_n1():
    t = TemplateSpec(
        period=1,
        component_orders=((4,),),
        shifted_generators=(ShiftedGenerator(start=1, stride=1, pattern=((0, (1,)), (1, (1,)))),),
    )
    result = unroll_template(t, 1)
    assert result.group.is_trivial()
    assert result.skipped == (("shifted[0]", 1),)


def test_periodic_components_and_stride():
    t = TemplateSpec(
        period=2,
        component_orders=((2,), (9,)),
        shifted_generators=(ShiftedGenerator(start=1, stride=2, pattern=((0, (1,)),)),),
    )
    result = unroll_template(t, 4)
    assert result.group.window.flat_orders == (2, 9, 2, 9)
    assert [g.flat for g in result.group.generators] == [(1, 0, 0, 0), (0, 0, 1, 0)]


def test_template_margin():
    t = TemplateSpec(
        period=1,
        component_orders=((4,),),
        fixed_generators=(FixedGenerator(((2, (1,)), (5, (3,)))),),
        shifted_generators=(ShiftedGenerator(start=1, stride=1, pattern=((0, (1,)), (1, (1,)))),),
    )
    assert t.margin() == 4


def test_closure_window_gains_boundary_prefixes(shift_template):
    c3 = closure_window(shift_template, 3)
    assert [g.flat for g in c3.group.canonical_generators] == [
        (2, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    assert c3.group.order() == 32
    # the closure strictly contains the plain unroll
    g3 = unroll_template(shift_template, 3).group
    for e in g3.elements():
        assert c3.group.contains(e)
    assert c3.group != g3


def test_closure_window_stabilizes_under_longer_lookahead(shift_template):
    a = closure_window(shift_template, 6)
    b = closure_window(shift_template, 6, lookahead=5)
    assert a.group == b.group


def test_closure_equals_projection_oracle(shift_template):
    # closure = projection of a longer unroll, checked against brute force
    n = 4
    big = unroll_template(shift_template, n + 2)
    span = oracles.naive_span([g.flat for g in big.group.generators], [4] * (n + 2))
    truncated = {v[:n] for v in span}
    got = closure_window(shift_template, n).group
    assert {e.flat for e in got.elements()} == truncated


# -- the flat unroll against the reference unroll --------------------------


def _unroll_templates():
    """Period 2 and 3, components Z2 x Z4, Z3, Z9 and an empty one, residues
    outside [0, m) and negative, fixed and shifted generators, and shifted
    instances skipped at the window's end."""
    mixed = TemplateSpec(
        period=2,
        component_orders=((2, 4), (3,)),
        fixed_generators=(FixedGenerator(((1, (-1, 9)), (2, (7,)))),),
        shifted_generators=(
            ShiftedGenerator(start=1, stride=2, pattern=((0, (3, -5)), (1, (-4,)), (2, (1, 2)))),
            ShiftedGenerator(start=2, stride=2, pattern=((0, (5,)), (1, (0, -6)))),
        ),
    )
    with_empty = TemplateSpec(
        period=3,
        component_orders=((9,), (), (2, 4)),
        fixed_generators=(FixedGenerator(((1, (40,)), (3, (1, -1)))), FixedGenerator(())),
        shifted_generators=(
            ShiftedGenerator(start=1, stride=3, pattern=((0, (-10,)), (1, ()), (2, (3, -1)))),
            ShiftedGenerator(start=2, stride=3, pattern=((0, ()), (1, (1, 5)), (2, (-2,)))),
            ShiftedGenerator(start=5, stride=3, pattern=((2, (11,)),)),
        ),
    )
    return mixed, with_empty


def _unrolled_or_error(unroll, template, n):
    try:
        return unroll(template, n)
    except InputError as exc:
        return str(exc)


def test_flat_unroll_matches_the_reference_unroll():
    for template in _unroll_templates():
        for n in range(1, 13):
            got = _unrolled_or_error(unroll_template, template, n)
            want = _unrolled_or_error(oracles.reference_unroll, template, n)
            if isinstance(want, str):
                assert got == want, (template, n)
                continue
            assert got.window == want.window
            assert [x.flat for x in got.group.generators] == [x.flat for x in want.group.generators]
            assert got.group.basis == want.group.basis
            assert got.skipped == want.skipped
            got_bytes = fileio.canonical_json_bytes(fileio.group_to_json(got.group, skipped=got.skipped))
            want_bytes = fileio.canonical_json_bytes(fileio.group_to_json(want.group, skipped=want.skipped))
            assert got_bytes == want_bytes, (template, n)
    # the fixed generators reach coordinate 2 and 3, and instances are skipped
    assert isinstance(_unrolled_or_error(unroll_template, _unroll_templates()[0], 1), str)
    assert all(unroll_template(t, 12).skipped for t in _unroll_templates())


def test_a_pattern_that_does_not_fit_its_coordinate_keeps_its_message():
    t = TemplateSpec(
        period=2,
        component_orders=((2, 4), (3,)),
        shifted_generators=(ShiftedGenerator(start=2, stride=1, pattern=((0, (1,)),)),),
    )
    with pytest.raises(InputError) as info:
        unroll_template(t, 4)
    assert str(info.value) == "coordinate 3: expected 2 residues, got 1"
