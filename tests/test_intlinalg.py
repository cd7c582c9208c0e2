import random
from itertools import combinations, product as iproduct
from math import gcd, lcm, prod

import pytest

from groupwindows import IntMatrix, smith_normal_form, solve_mixed_modulus
from groupwindows.intlinalg import left_kernel_basis, row_lattice_basis
from groupwindows.errors import InputError


def det(m):
    if m.rows != m.cols:
        raise ValueError
    if m.rows == 0:
        return 1
    total = 0
    for j in range(m.cols):
        minor = IntMatrix.from_rows(
            [row[:j] + row[j + 1 :] for row in (m.data[i] for i in range(1, m.rows))]
        )
        total += (-1) ** j * m.data[0][j] * det(minor)
    return total


def determinantal_divisors(m):
    """d_k = gcd of all k x k minors; the oracle for the diagonal of the SNF."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        minors = []
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m.data[i][j] for j in cols] for i in rows])
                minors.append(det(sub))
        g = 0
        for v in minors:
            g = gcd(g, v)
        out.append(g)
    return out


def snf_diagonal_from_divisors(m):
    divs = determinantal_divisors(m)
    diag = []
    prev = 1
    for d in divs:
        if d == 0:
            diag.append(0)
            prev = 0
        else:
            diag.append(d // prev)
            prev = d
    return diag


def test_snf_identity():
    s = smith_normal_form(IntMatrix.identity(2))
    assert s.D.data == IntMatrix.identity(2).data


def test_snf_diag_2_3_gives_1_6():
    # determinantal-divisor oracle: d1 = gcd of entries = 1, d1*d2 = |det| = 6
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert snf_diagonal_from_divisors(m) == [1, 6]
    s = smith_normal_form(m)
    assert s.D.diagonal() == [1, 6]


def test_snf_zero_matrix():
    m = IntMatrix.zeros(2, 3)
    s = smith_normal_form(m)
    assert s.D.data == m.data


def test_snf_recomposition_and_chain_200_random():
    rng = random.Random(20240901)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        s = smith_normal_form(m)
        assert (s.U @ m @ s.V).data == s.D.data
        diag = s.D.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
            if a == 0:
                assert b == 0
        # off-diagonal zero
        for i in range(s.D.rows):
            for j in range(s.D.cols):
                if i != j:
                    assert s.D.data[i][j] == 0
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1


def test_snf_matches_determinantal_divisor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        expect = snf_diagonal_from_divisors(m)
        # past the first zero the chain is zeros in both conventions
        got = smith_normal_form(m).D.diagonal()
        for e, g in zip(expect, got):
            if e == 0:
                assert g == 0
                break
            assert e == g


def test_left_kernel_basis_against_brute_force():
    # every small integer v with v*M == 0 is a combination of the basis, and
    # the basis is a saturated lattice of rank rows - rank(M): the whole kernel
    rng = random.Random(5)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = left_kernel_basis(m)
        rank = sum(1 for d in determinantal_divisors(m) if d)
        assert len(basis) == rows - rank
        for v in basis:
            assert all(sum(a * b for a, b in zip(v, m.column(j))) == 0 for j in range(cols))
        if not basis:
            continue
        assert determinantal_divisors(IntMatrix.from_rows(basis))[-1] == 1
        canon = row_lattice_basis(basis, rows)
        for v in iproduct(range(-2, 3), repeat=rows):
            if all(sum(a * b for a, b in zip(v, m.column(j))) == 0 for j in range(cols)):
                assert row_lattice_basis([*basis, v], rows) == canon


def test_solve_trivial_and_obstructed():
    a = IntMatrix.from_rows([[2]])
    assert solve_mixed_modulus(a, [0], [4]) == [0]
    assert solve_mixed_modulus(a, [1], [4]) is None


def test_solve_dimension_mismatch():
    a = IntMatrix.from_rows([[2]])
    with pytest.raises(InputError):
        solve_mixed_modulus(a, [1, 2], [4])
    with pytest.raises(InputError):
        solve_mixed_modulus(a, [1], [4, 2])


def column_order(col, mods):
    orders = [m // gcd(m, v % m) for v, m in zip(col, mods) if v % m]
    return lcm(*orders) if orders else 1


def brute_force_solve(a, b, mods):
    orders = [column_order(a.column(j), mods) for j in range(a.cols)]
    for cand in iproduct(*[range(o) for o in orders]):
        if all(
            (sum(a.data[i][j] * cand[j] for j in range(a.cols)) - b[i]) % mods[i] == 0
            for i in range(a.rows)
        ):
            return list(cand)
    return None


def test_solve_matches_enumeration_sweep():
    # shapes up to 4 x 3, coefficient spaces bounded by 2**12
    rng = random.Random(42)
    solvable = 0
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        mods = [rng.choice([2, 3, 4, 5, 7, 8, 9]) for _ in range(rows)]
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        if prod(column_order(a.column(j), mods) for j in range(cols)) > 1 << 12:
            continue
        b = [rng.randint(-9, 9) for _ in range(rows)]
        got = solve_mixed_modulus(a, b, mods)
        want = brute_force_solve(a, b, mods)
        assert (got is None) == (want is None)
        if got is not None:
            solvable += 1
            assert all(
                (sum(a.data[i][j] * got[j] for j in range(cols)) - b[i]) % mods[i] == 0
                for i in range(rows)
            )
            orders = [column_order(a.column(j), mods) for j in range(cols)]
            assert all(0 <= x < o for x, o in zip(got, orders))
    assert solvable > 50


def test_solve_solution_in_image_is_found():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 3)
        mods = [rng.choice([2, 3, 4, 8, 9]) for _ in range(rows)]
        a = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        x = [rng.randint(0, 8) for _ in range(cols)]
        b = [sum(a.data[i][j] * x[j] for j in range(cols)) % mods[i] for i in range(rows)]
        got = solve_mixed_modulus(a, b, mods)
        assert got is not None
        assert all(
            (sum(a.data[i][j] * got[j] for j in range(cols)) - b[i]) % mods[i] == 0
            for i in range(rows)
        )
