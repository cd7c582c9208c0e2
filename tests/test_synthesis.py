import random
from itertools import product as iproduct
from math import prod

import pytest

from groupwindows import (
    Block,
    Encoder,
    GeneratingSet,
    WindowSubgroup,
    check_implicit_direct_product,
    closure_window,
    encode,
    fileio,
    height,
    order_controllability_certificate,
    represent,
    synthesis,
    synthesize,
    synthesize_p,
    torsion,
    unroll_template,
    verify_block_properties,
    verify_isomorphic_encoder,
    window,
)
from groupwindows.errors import InputError, UndeterminedAtWindowError

from conftest import (
    oracle_isomorphic_encoder,
    random_mixed_group,
    random_staggered_group,
    subgroup,
    window_of,
)
import oracles


def _synth(g, p):
    cert = order_controllability_certificate(g)
    return synthesize_p(g, p, cert), cert


def test_synthesize_rectangular_z4_z2():
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    assert [(b.d, b.size) for b in gs.blocks] == [(1, 1), (2, 1)]
    assert [y.flat for y in gs.generators] == [(1, 0), (0, 1)]
    assert gs.heights == (1, 0)
    assert gs.determined
    assert verify_block_properties(gs, full).passed()
    assert verify_isomorphic_encoder(gs, full)
    assert bool(check_implicit_direct_product(gs, full))


def test_synthesize_requires_matching_certificate():
    w = window_of([4], [2])
    full = w.full_subgroup()
    cert = order_controllability_certificate(full)
    with pytest.raises(InputError):
        synthesize_p(full, 3, cert)  # not a 3-group
    from groupwindows import is_rectangular

    with pytest.raises(InputError):
        synthesize_p(full, 2, is_rectangular(full))  # wrong property


def test_synthesize_running_example_closure(shift_template):
    c8 = closure_window(shift_template, 8).group
    gs, cert = _synth(c8, 2)
    assert cert.holds()
    assert gs.determined
    assert [(b.d, b.size) for b in gs.blocks] == [(i, 1) for i in range(1, 9)]
    assert gs.heights == (0, 1, 1, 1, 1, 1, 1, 1)
    report = verify_block_properties(gs, c8)
    assert report.passed(), report.failures()
    assert verify_isomorphic_encoder(gs, c8)
    assert bool(check_implicit_direct_product(gs, c8))


def test_raw_template_family_fails_on_the_closure(shift_template):
    # the plain unroll generators do not encode the closure: the choice of
    # generating set matters
    c8 = closure_window(shift_template, 8).group
    g8 = unroll_template(shift_template, 8).group
    raw_x = [y.scale(2) for y in g8.generators]
    raw_h = [height(y.scale(2), c8, 2) for y in g8.generators]
    raw = GeneratingSet(
        prime=2,
        blocks=(Block(d=1, size=len(raw_x)),),
        socle_elements=tuple(raw_x),
        generators=tuple(g8.generators),
        heights=tuple(raw_h),
        n_sequence={i: min(i + 1, 8) for i in range(1, 9)},
    )
    assert not verify_isomorphic_encoder(raw, c8)
    assert not oracle_isomorphic_encoder(raw, c8)
    assert not bool(check_implicit_direct_product(raw, c8))


def test_synthesize_random_staggered_spans_the_group():
    rng = random.Random(9090)
    done = 0
    while done < 8:
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        assert WindowSubgroup(g.window, gs.generators) == g
        done += 1


def test_verify_block_properties_flags_tampered_height():
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    # lower the first socle element to a shorter lift: (d) must fail
    tampered = GeneratingSet(
        prime=2,
        blocks=gs.blocks,
        socle_elements=gs.socle_elements,
        generators=gs.generators,
        heights=(0,) + gs.heights[1:],
        n_sequence=gs.n_sequence,
    )
    report = verify_block_properties(tampered, full)
    assert not report.passed()
    assert "d" in report.failures() or "e" in report.failures()


def test_verify_block_properties_hand_built_generating_set():
    # hand-build the canonical factor generating set of Z4 x Z2 and cross-check
    # the socle by enumeration
    w = window_of([4], [2])
    full = w.full_subgroup()
    x1, x2 = w.element([[2], [0]]), w.element([[0], [1]])
    y1, y2 = w.element([[1], [0]]), w.element([[0], [1]])
    gs = GeneratingSet(
        prime=2,
        blocks=(Block(d=1, size=1), Block(d=2, size=1)),
        socle_elements=(x1, x2),
        generators=(y1, y2),
        heights=(1, 0),
        n_sequence={1: 1, 2: 2},
    )
    report = verify_block_properties(gs, full)
    assert report.passed(), report.failures()
    socle_span = oracles.naive_span([(2, 0), (0, 1)], [4, 2])
    full_span = oracles.naive_span([(1, 0), (0, 1)], [4, 2])
    assert socle_span == oracles.naive_socle(full_span, [4, 2], 2)


def test_encode_examples():
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    enc = Encoder(group=full, generating_set=gs)
    assert encode(enc, [0, 0]).is_zero()
    assert encode(enc, [1, 0]).flat == gs.generators[0].flat
    with pytest.raises(InputError):
        encode(enc, [4, 0])
    with pytest.raises(InputError):
        encode(enc, [1])
    # random coefficients match an independent summation
    rng = random.Random(1)
    mods = list(w.flat_orders)
    for _ in range(20):
        coeffs = [rng.randrange(o) for o in gs.orders]
        got = encode(enc, coeffs)
        flat = [0] * len(mods)
        for k, y in zip(coeffs, gs.generators):
            flat = [(a + k * b) % m for a, b, m in zip(flat, y.flat, mods)]
        assert got.flat == tuple(flat)


def test_represent_examples():
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    enc = Encoder(group=full, generating_set=gs)
    assert represent(w.zero(), enc) == [0, 0]
    z = gs.generators[0] + gs.generators[1].scale(1)
    assert represent(z, enc) == [1, 1]
    with pytest.raises(InputError):
        represent(window_of([4], [2], [2]).zero(), enc)
    for z in full.elements():
        coeffs = represent(z, enc)
        assert encode(enc, coeffs).flat == z.flat


def test_represent_refuses_an_ill_defined_encoder():
    # heights zeroed: the coefficient order 2 does not kill the generator of order 4
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    zeroed = oracles.rebuilt(gs, heights=(0,) * len(gs.heights))
    with pytest.raises(InputError, match="does not kill"):
        represent(w.zero(), Encoder(group=full, generating_set=zeroed))


def test_represent_refuses_a_member_outside_the_image():
    # the encoder of one socle generator misses the other socle direction of the group
    w = window_of([2], [2])
    e1 = w.from_flat([1, 0])
    gs = GeneratingSet(
        prime=2, blocks=(Block(d=1, size=1),), socle_elements=(e1,), generators=(e1,), heights=(0,), n_sequence={}
    )
    enc = Encoder(group=w.full_subgroup(), generating_set=gs)
    assert represent(e1, enc) == [1]
    with pytest.raises(UndeterminedAtWindowError):
        represent(w.from_flat([0, 1]), enc)


def test_combined_represent_refuses_a_part_without_encoder():
    # G = <(1, 1)> in Z2 x Z3 with the 3-encoder dropped, as a manifest with a file dropped gives
    w = window_of([2], [3])
    z = w.from_flat([1, 1])
    res = synthesize(WindowSubgroup(w, [z]))
    dropped = oracles.rebuilt(res.combined, encoders=tuple((p, e) for p, e in res.combined.encoders if p != 3))
    with pytest.raises(UndeterminedAtWindowError):
        dropped.represent(z)
    # an element with a zero 3-part still has its coefficients
    assert dropped.represent(z.scale(3)) == {2: [1]}
    assert dropped.encode({2: [1]}).flat == (1, 0)


def test_verify_isomorphic_encoder_dependent_generator_appended():
    w = window_of([4], [2])
    full = w.full_subgroup()
    gs, _ = _synth(full, 2)
    y_extra = gs.generators[0].scale(2)
    padded = GeneratingSet(
        prime=2,
        blocks=gs.blocks + (Block(d=2, size=1),),
        socle_elements=gs.socle_elements + (y_extra,),
        generators=gs.generators + (y_extra,),
        heights=gs.heights + (0,),
        n_sequence=gs.n_sequence,
    )
    assert not verify_isomorphic_encoder(padded, full)
    assert not oracle_isomorphic_encoder(padded, full)


def test_verify_isomorphic_encoder_rejects_ill_defined_map():
    # y = 1 and y = 2 span Z(4) and the coefficient space Z(2) x Z(2) has 4
    # elements, but 2 * 1 != 0: the coefficient map is not a homomorphism
    w = window_of([4])
    full = w.full_subgroup()
    ys = (w.element([[1]]), w.element([[2]]))
    ill = GeneratingSet(
        prime=2,
        blocks=(Block(d=1, size=2),),
        socle_elements=tuple(y.scale(2) for y in ys),
        generators=ys,
        heights=(0, 0),
        n_sequence={1: 1},
    )
    assert ill.orders == (2, 2)
    assert not verify_isomorphic_encoder(ill, full)
    assert not oracle_isomorphic_encoder(ill, full)


def test_block_minimum_height_law():
    # inside one block, the height of a combination is the least height among
    # the touched generators; checked by enumeration of coefficient patterns
    rng = random.Random(606)
    done = 0
    while done < 6:
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p, max_order=1 << 9)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        if not gs.determined:
            continue
        counts = gs.block_counts()
        for k, block in enumerate(gs.blocks, start=1):
            lo, hi = counts[k - 1], counts[k]
            xs = gs.socle_elements[lo:hi]
            hs = gs.heights[lo:hi]
            for coeffs in iproduct(*[range(p) for _ in xs]):
                if not any(coeffs):
                    continue
                z = g.window.zero()
                for c, x in zip(coeffs, xs):
                    if c:
                        z = z + x.scale(c)
                if z.is_zero():
                    continue
                expect = min(h for c, h in zip(coeffs, hs) if c)
                assert height(z, g, p) == expect
        done += 1


def test_height_preserved_in_generated_subgroup():
    # heights inside the span of the lifted generators agree with heights in
    # the whole group, on the span of the socle elements
    rng = random.Random(707)
    done = 0
    while done < 6:
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p, max_order=1 << 9)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        if not gs.determined:
            continue
        y_span = WindowSubgroup(g.window, gs.generators)
        x_span = WindowSubgroup(g.window, gs.socle_elements)
        for z in x_span.elements():
            if z.is_zero():
                continue
            assert height(z, g, p) == height(z, y_span, p)
        done += 1


def test_kernel_triviality_digit_scan():
    rng = random.Random(11011)
    done = 0
    while done < 5:
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p, max_order=1 << 8)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        if not gs.determined or prod(gs.orders) > 1 << 10:
            continue
        zero = g.window.zero().flat
        for combo in iproduct(*[range(o) for o in gs.orders]):
            if not any(combo):
                continue
            acc = g.window.zero()
            for k, y in zip(combo, gs.generators):
                if k:
                    acc = acc + y.scale(k)
            assert acc.flat != zero
        done += 1


def test_finite_support_members_lie_in_generator_span():
    rng = random.Random(31337)
    done = 0
    while done < 8:
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        y_span = WindowSubgroup(g.window, gs.generators)
        assert y_span == g
        done += 1


def test_generating_set_determinism():
    rng = random.Random(500)
    g = None
    while g is None:
        g = random_staggered_group(rng, 2)
        if g is not None and not order_controllability_certificate(g).holds():
            g = None
    cert = order_controllability_certificate(g)
    a = synthesize_p(g, 2, cert)
    b = synthesize_p(
        WindowSubgroup(g.window, g.generators), 2, order_controllability_certificate(g)
    )
    assert [x.flat for x in a.socle_elements] == [x.flat for x in b.socle_elements]
    assert [y.flat for y in a.generators] == [y.flat for y in b.generators]
    assert a.heights == b.heights
    assert [(bl.d, bl.size) for bl in a.blocks] == [(bl.d, bl.size) for bl in b.blocks]


def test_multi_prime_synthesize_crt_window():
    w = window_of([2, 3])
    res = synthesize(w.full_subgroup())
    assert res.verdicts["isomorphic_encoder"]
    assert res.verdicts["implicit_direct_product"]
    assert {p: gs.orders for p, gs in res.generating_sets.items()} == {2: (2,), 3: (3,)}
    for z in w.full_subgroup().elements():
        cmap = res.combined.represent(z)
        assert res.combined.encode(cmap).flat == z.flat


def test_multi_prime_synthesize_distinct_prime_window():
    w = window_of([2], [3], [5])
    full = w.full_subgroup()
    seen = {}
    for a in full.elements():
        for b in full.elements():
            sub = WindowSubgroup(w, [a, b])
            seen[sub.basis] = sub
    for sub in seen.values():
        res = synthesize(sub)
        assert res.verdicts["isomorphic_encoder"]
        assert res.verdicts["implicit_direct_product"]


def test_multi_prime_synthesize_mixed_staggered():
    w = window_of([4, 3], [4, 3], [4, 3])
    g = WindowSubgroup(
        w,
        [
            w.from_flat([2, 1, 1, 0, 0, 0]),
            w.from_flat([0, 0, 1, 1, 0, 0]),
            w.from_flat([0, 0, 0, 0, 2, 2]),
        ],
    )
    cert = order_controllability_certificate(g)
    assert cert.holds()
    res = synthesize(g, certificate=cert)
    assert res.verdicts["isomorphic_encoder"]
    total = 1
    for gs in res.generating_sets.values():
        total *= prod(gs.orders) if gs.orders else 1
    assert total == g.order()
    for z in g.elements():
        cmap = res.combined.represent(z)
        assert res.combined.encode(cmap).flat == z.flat


def test_synthesize_refuses_failing_certificate(shift_template):
    g6 = unroll_template(shift_template, 6).group
    from groupwindows import certify

    cert = certify(shift_template, "order-controllable", window=6)
    with pytest.raises(InputError):
        synthesize(g6, certificate=cert)


# ---------------------------------------------------------------- repeated work


def _cert_bytes(cert):
    return fileio.canonical_json_bytes(fileio.certificate_to_json(cert))


def _reused_part_certificates(g, certificate=None):
    """How many parts took G's certificate; every part's must equal a fresh one.

    None when the synthesis is refused.
    """
    try:
        result = synthesize(g, certificate=certificate, accept_undetermined=True)
    except InputError:
        return None
    reused = 0
    for part in result.decomposition.parts:
        got = result.part_certificates[part.prime]
        assert _cert_bytes(got) == _cert_bytes(order_controllability_certificate(part.subgroup))
        reused += got is result.certificate
    return reused


def _pool(seed, count):
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


def test_part_certificates_equal_fresh_ones_on_a_pool():
    outcomes = [_reused_part_certificates(g) for g in _pool(314, 200)]
    done = [r for r in outcomes if r is not None]
    assert len(done) >= 150
    assert sum(r == 1 for r in done) >= 50  # a part certified by G's certificate
    assert sum(r == 0 for r in done) >= 50  # parts certified afresh


def test_part_certificates_equal_fresh_ones_on_closures(shift_template):
    for n in range(2, 11):
        assert _reused_part_certificates(closure_window(shift_template, n).group) == 1, n


def test_part_certificates_with_max_index_are_fresh(shift_template):
    groups = [closure_window(shift_template, 8).group] + list(_pool(99, 20))
    reused = fresh = 0
    for g in groups:
        for k in range(1, g.window.length + 1):
            cert = order_controllability_certificate(g, max_index=k)
            r = _reused_part_certificates(g, cert)
            if r is not None:
                reused += r > 0
                # a certificate cut short by max_index certifies no part
                fresh += r == 0 and cert.notes["max_index"] < cert.notes["cap"]
    assert reused >= 20 and fresh >= 20


def _count_certifications(monkeypatch):
    calls = []
    real = synthesis.order_controllability_certificate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "order_controllability_certificate", counted)
    return calls


def test_one_certification_per_synthesize_of_a_p_group(shift_template, monkeypatch):
    calls = _count_certifications(monkeypatch)
    synthesize(closure_window(shift_template, 8).group)
    assert len(calls) == 1


def test_a_wider_part_margin_certifies_the_part_again(monkeypatch):
    # the given presentation is narrower (margin 2) than the canonical one
    # (margin 3) the part carries, so the part's certificate differs and fails
    w = window_of([2], [2], [2], [2], [4])
    g = subgroup(w, (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2))
    calls = _count_certifications(monkeypatch)
    with pytest.raises(InputError, match="2-part fails"):
        synthesize(g)
    assert len(calls) == 2


def test_height_layers_are_built_on_demand(shift_template, monkeypatch):
    # the closure at N = 8 has eight blocks of two layers; seven blocks stop
    # at the top layer, so each command builds at least one layer per block
    # and at most 8 + 1 of the 16
    g = closure_window(shift_template, 8).group
    built = []
    real = torsion.height_layer
    monkeypatch.setattr(torsion, "height_layer", lambda *a: built.append(a[2:]) or real(*a))
    gs = synthesize(g).generating_sets[2]
    assert 8 <= len(built) <= 9
    built.clear()
    assert verify_block_properties(gs, g).passed()
    assert 8 <= len(built) <= 9


def test_verify_echelons_each_socle_element_a_bounded_number_of_times(shift_template, monkeypatch):
    # the closure has one block per generator; every span clause reads the
    # running echelons, so each x_j and each socle row is added a bounded
    # number of times, where a fresh echelon of all earlier x_j per block
    # grows like the square of the generator count
    g = closure_window(shift_template, 32).group
    gs = synthesize(g).generating_sets[2]
    m, dim = len(gs.socle_elements), len(torsion.socle_echelon(g, 2).rows)
    assert len(gs.blocks) == m == 32
    adds = 0
    real_add = torsion.FpEchelon.add

    def counted(self, vec):
        nonlocal adds
        adds += 1
        return real_add(self, vec)

    monkeypatch.setattr(torsion.FpEchelon, "add", counted)
    assert verify_block_properties(gs, g).passed()
    assert adds <= 3 * (m + dim)


def test_closure_roots_make_no_smith_solve(shift_template, monkeypatch):
    # every p^h-th root of the closure at N = 32 has unique coefficients,
    # so each is read off its coefficient graph's echelon
    calls = []
    real = window.solve_mixed_modulus
    monkeypatch.setattr(window, "solve_mixed_modulus", lambda *a: calls.append(a) or real(*a))
    gs = synthesize(closure_window(shift_template, 32).group).generating_sets[2]
    assert len(gs.generators) == 32
    assert calls == []
