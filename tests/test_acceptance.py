"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact; tolerances are not used anywhere.
"""

import json
import random
from itertools import product as iproduct
from math import prod

import pytest

from groupwindows import (
    Encoder,
    IntMatrix,
    WindowSubgroup,
    closure_window,
    encode,
    height,
    is_rectangular,
    order_controllability_certificate,
    primary_decompose,
    project,
    represent,
    section,
    smith_normal_form,
    solve_mixed_modulus,
    synthesize,
    synthesize_p,
    unroll_template,
    verify_block_properties,
    verify_isomorphic_encoder,
)
from groupwindows.cli import main

from conftest import (
    oracle_isomorphic_encoder,
    random_mixed_group,
    random_staggered_group,
    window_of,
)
import oracles
from test_intlinalg import brute_force_solve, column_order, snf_diagonal_from_divisors

SHIFT_TEMPLATE = {
    "component_template": {"period": 1, "orders": [[4]]},
    "fixed_generators": [{"support": {"1": [2], "2": [1]}}],
    "shifted_generators": [{"start": 2, "stride": 1, "pattern": {"0": [1], "1": [1]}}],
}


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_counterexample_template(tmp_path, shift_template):
    """The example family fails order controllability at N = 4, 6, 8 with a
    re-validating witness: prefix of order 2, every completion of order 4."""
    template_path = tmp_path / "template.json"
    template_path.write_text(json.dumps(SHIFT_TEMPLATE))
    for n in (4, 6, 8):
        cert_path = tmp_path / f"cert{n}.json"
        code = main(
            [
                "check",
                "--input", str(template_path),
                "--property", "order-controllable",
                "--window", str(n),
                "--out", str(cert_path),
            ]
        )
        assert code == 1, f"window {n}: expected exit 1, got {code}"
        cert = json.loads(cert_path.read_text())
        assert cert["status"] == "fails"
        g = unroll_template(shift_template, n).group
        witness = g.window.element(cert["witness"])
        assert g.contains(witness)
        i = cert["witness_context"]["i"]
        bound = cert["witness_context"]["n"]
        proj = witness.restrict((1, bound))
        assert proj.order() == 2
        # every companion with the same [1, i]-prefix supported in [1, bound]
        # has order 4: the obstruction is order 2 versus forced order 4
        plen = g.window.subwindow((1, bound)).flat_slice((1, i))[1]
        companions = [
            z
            for z in project(section(g, (1, bound)), (1, bound)).elements()
            if z.flat[:plen] == proj.flat[:plen]
        ]
        assert companions, "witness prefix must be reachable"
        assert all(z.order() == 4 for z in companions)
        assert all(proj.order() % z.order() for z in companions)
    _ok(1, "counterexample template")


@pytest.mark.parametrize("n", (16, 32))
def test_criterion_1_counterexample_template_large_windows(tmp_path, n):
    """Criterion 1 at windows too large to list: the check fails with a
    witness in the group (independent lattice membership) whose projection
    onto [1, n_i] has order 2."""
    template_path = tmp_path / "template.json"
    template_path.write_text(json.dumps(SHIFT_TEMPLATE))
    cert_path = tmp_path / "cert.json"
    argv = ["check", "--input", str(template_path), "--property", "order-controllable"]
    assert main(argv + ["--window", str(n), "--out", str(cert_path)]) == 1
    cert = json.loads(cert_path.read_text())
    assert cert["status"] == "fails"
    # the unrolled template: (2, 1, 0, ...) and e_s + e_{s+1} for 2 <= s < n
    gens = [[2, 1] + [0] * (n - 2)]
    gens += [[1 if k in (s, s + 1) else 0 for k in range(n)] for s in range(1, n - 1)]
    witness = [r[0] for r in cert["witness"]]
    assert oracles.Lattice([4] * n, gens).contains(witness)
    bound = cert["witness_context"]["n"]
    assert oracles.naive_order(witness[:bound], [4] * bound) == 2
    assert cert["witness_context"]["projection_order"] == 2
    _ok(1, f"counterexample template at N = {n}")


def test_criterion_2_closure_encoder(tmp_path, shift_template):
    """At N = 8 the closure admits an isomorphic encoder and satisfies the
    implicit-direct-product identity, both sides enumerated exhaustively."""
    template_path = tmp_path / "template.json"
    template_path.write_text(json.dumps(SHIFT_TEMPLATE))
    group_path = tmp_path / "c8.json"
    assert main(
        ["unroll", "--input", str(template_path), "--window", "8", "--closure",
         "--out", str(group_path)]
    ) == 0
    manifest_path = tmp_path / "enc.json"
    assert main(
        ["synthesize", "--input", str(group_path), "--out", str(manifest_path)]
    ) == 0
    report_path = tmp_path / "report.json"
    assert main(
        ["verify", "--input", str(group_path), "--encoder", str(manifest_path),
         "--out", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert report["parts"]["2"]["isomorphic_encoder"]["pass"] is True
    assert report["parts"]["2"]["implicit_direct_product"]["pass"] is True

    # exhaustive comparison of both sides of the identity
    c8 = closure_window(shift_template, 8).group
    assert c8.order() <= 1 << 16
    gs = synthesize_p(c8, 2, order_controllability_certificate(c8))
    mods = list(c8.window.flat_orders)
    tables = [
        [y.scale(k).flat for k in range(o)]
        for y, o in zip(gs.generators, gs.orders)
    ]
    image = set()
    for combo in iproduct(*[range(o) for o in gs.orders]):
        acc = [0] * len(mods)
        for k, table in zip(combo, tables):
            if k:
                acc = [(a + b) % m for a, b, m in zip(acc, table[k], mods)]
        image.add(tuple(acc))
    members = {e.flat for e in c8.elements()}
    assert image == members
    assert len(image) == c8.order() == prod(gs.orders)
    assert verify_isomorphic_encoder(gs, c8) is oracle_isomorphic_encoder(gs, c8) is True
    _ok(2, "closure encoder claim")


def test_criterion_3_distinct_prime_rectangularity():
    """Every subgroup of the window with coordinate orders 2, 3, 5 is
    rectangular and an implicit direct product; the scan is exhaustive."""
    w = window_of([2], [3], [5])
    full = w.full_subgroup()
    elements = full.elements()
    subgroups = {}
    for a in elements:
        for b in elements:
            sub = WindowSubgroup(w, [a, b])
            subgroups[sub.basis] = sub
    assert len(subgroups) == 8  # the divisor lattice of 30
    for sub in subgroups.values():
        assert is_rectangular(sub).holds()
        res = synthesize(sub)
        assert res.verdicts["isomorphic_encoder"]
        assert res.verdicts["implicit_direct_product"]
        # spans of three elements add nothing new: the scan above was complete
    for a in elements:
        for b in elements:
            c = a + b
            sub = WindowSubgroup(w, [a, b, c])
            assert sub.basis in subgroups
    _ok(3, "distinct-prime rectangularity")


def test_criterion_4_generating_set_property_suite():
    """At least 100 random staggered order-controllable p-groups pass the
    whole construction property suite exactly."""
    rng = random.Random(0xC0FFEE)
    passed = 0
    attempts = 0
    while passed < 100 and attempts < 3000:
        attempts += 1
        p = rng.choice([2, 3])
        g = random_staggered_group(rng, p, max_order=1 << 12)
        if g is None:
            continue
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        gs = synthesize_p(g, p, cert)
        assert gs.determined

        report = verify_block_properties(gs, g)
        assert report.passed(), (report.failures(), [x.flat for x in g.generators])
        assert verify_isomorphic_encoder(gs, g) is oracle_isomorphic_encoder(gs, g) is True

        # block-minimum height law, per block, all coefficient patterns
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
                assert height(z, g, p) == min(h for c, h in zip(coeffs, hs) if c)

        # height preservation in the generated subgroup
        y_span = WindowSubgroup(g.window, gs.generators)
        assert y_span == g  # finite-support members lie in the span
        x_span = WindowSubgroup(g.window, gs.socle_elements)
        for z in x_span.elements():
            if not z.is_zero():
                assert height(z, g, p) == height(z, y_span, p)

        # kernel triviality: exact by bijectivity, plus a digit scan when small
        assert prod(gs.orders) == g.order()
        if g.order() <= 1 << 9:
            zero = g.window.zero().flat
            for combo in iproduct(*[range(o) for o in gs.orders]):
                if not any(combo):
                    continue
                acc = g.window.zero()
                for k, y in zip(combo, gs.generators):
                    if k:
                        acc = acc + y.scale(k)
                assert acc.flat != zero

        # encode and represent round trips
        enc = Encoder(group=g, generating_set=gs)
        members = list(g.elements())
        sample = members if len(members) <= 64 else rng.sample(members, 64)
        for z in sample:
            coeffs = represent(z, enc)
            assert encode(enc, coeffs).flat == z.flat
        passed += 1
    assert passed >= 100, f"only {passed} instances passed within {attempts} attempts"
    _ok(4, "generating-set property suite")


def test_criterion_5_primary_decomposition_pipeline():
    """At least 50 random mixed-prime groups: exact order factorization,
    per-prime certificates implied by the global one, bijective combined
    encoder with exact round trips."""
    rng = random.Random(0xBEEF)
    passed = 0
    attempts = 0
    while passed < 50 and attempts < 3000:
        attempts += 1
        g = random_mixed_group(rng)
        if g is None:
            continue
        dec = primary_decompose(g)
        assert prod(part.subgroup.order() for part in dec.parts) == g.order()
        cert = order_controllability_certificate(g)
        if not cert.holds():
            continue
        # the global certificate passes to every part with translated indices
        for part in dec.parts:
            part_cert = order_controllability_certificate(part.subgroup)
            assert part_cert.status != "fails"
            span_set = oracles.naive_span(
                [x.flat for x in part.subgroup.canonical_generators],
                list(part.window.flat_orders),
            )
            slices = oracles.coord_slices(
                [list(c.factor_orders) for c in part.window.components]
            )
            for i, n_i in cert.indices.items():
                i_p = sum(1 for c in part.coordinates if c <= i)
                n_p = sum(1 for c in part.coordinates if c <= n_i)
                if i_p >= 1 and n_p >= i_p:
                    assert oracles.naive_order_controllability_ok(
                        span_set, slices, list(part.window.flat_orders), i_p, n_p
                    )
        res = synthesize(g, certificate=cert)
        assert res.verdicts["isomorphic_encoder"]
        assert res.combined.total_order() == g.order()
        members = list(g.elements())
        sample = members if len(members) <= 32 else rng.sample(members, 32)
        for z in sample:
            cmap = res.combined.represent(z)
            assert res.combined.encode(cmap).flat == z.flat
        passed += 1
    assert passed >= 50, f"only {passed} instances passed within {attempts} attempts"
    _ok(5, "primary decomposition pipeline")


def test_criterion_6_linear_core_oracle_equivalence():
    """500 random instances: SNF recomposition plus divisor-chain uniqueness,
    and mixed-modulus solver verdicts against brute-force enumeration."""
    rng = random.Random(0xACE)
    snf_checked = 0
    while snf_checked < 250:
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        s = smith_normal_form(m)
        assert (s.U @ m @ s.V).data == s.D.data
        diag = s.D.diagonal()
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
        if rows <= 3 and cols <= 3:
            expect = snf_diagonal_from_divisors(m)
            for e, got in zip(expect, diag):
                if e == 0:
                    assert got == 0
                    break
                assert e == got
        snf_checked += 1

    solve_checked = 0
    while solve_checked < 250:
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        mods = [rng.choice([2, 3, 4, 5, 8, 9]) for _ in range(rows)]
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        if prod(column_order(a.column(j), mods) for j in range(cols)) > 1 << 12:
            continue
        b = [rng.randint(-9, 9) for _ in range(rows)]
        assert solve_mixed_modulus(a, b, mods) == brute_force_solve(a, b, mods)
        solve_checked += 1
    _ok(6, "linear-core oracle equivalence")
