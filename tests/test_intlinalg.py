import random
from itertools import combinations, product as iproduct
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from groupwindows import IntMatrix, smith_normal_form, solve_mixed_modulus
from groupwindows.intlinalg import left_kernel_basis, row_lattice_basis
from groupwindows.errors import InputError

from conftest import random_mixed_group, random_staggered_group
import oracles


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


BIG_PRIMES = (10007, 10009, 65537, 104729, 524287, 999983)


@st.composite
def lattices_with_moduli(draw):
    """(rows, width, mods): small or mixed moduli, primes from 10^4 to 10^6,
    zero moduli (columns without a relation), zero rows, and width 0."""
    width = draw(st.integers(0, 5))
    moduli = draw(st.sampled_from(["small", "big-primes", "mixed"]))
    pool = {"small": (0, 2, 3, 4, 6, 8, 9, 12), "big-primes": (0, *BIG_PRIMES)}
    pool["mixed"] = pool["small"] + BIG_PRIMES
    mods = draw(st.lists(st.sampled_from(pool[moduli]), min_size=width, max_size=width))
    bound = max(mods, default=0) or 12
    entry = st.integers(-2 * bound, 2 * bound)
    row = st.one_of(st.just([0] * width), st.lists(entry, min_size=width, max_size=width))
    return draw(st.lists(row, max_size=5)), width, mods


def _in_echelon(basis, vec):
    """Membership of an integer vector in the lattice of echelon rows, by reduction."""
    vec = list(vec)
    for row in basis:
        f = next(f for f, a in enumerate(row) if a)
        q, r = divmod(vec[f], row[f])
        if r:
            return False
        vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


@settings(max_examples=300, deadline=None)
@given(lattices_with_moduli(), st.data())
def test_row_lattice_basis_with_moduli(case, data):
    # the relations m_f e_f from the moduli give the echelon of the rows
    # followed by those relations written out, and the lattice of the rows
    # and relations: every row and relation and every combination of them
    # is a member, and a vector is a member exactly when the oracle says so
    rows, width, mods = case
    got = row_lattice_basis(rows, width, mods)
    relations = [[m if k == f else 0 for k in range(width)] for f, m in enumerate(mods) if m]
    assert got == row_lattice_basis([*rows, *relations], width)
    for row in got:
        f = next(f for f, a in enumerate(row) if a)
        assert row[f] > 0 and all(0 <= upper[f] < row[f] for upper in got[: got.index(row)])
    spanning = [*rows, *relations]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(spanning), max_size=len(spanning)))
    member = [sum(c * v[f] for c, v in zip(coeffs, spanning)) for f in range(width)]
    nudge = data.draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
    probes = [*spanning, member, [a + b for a, b in zip(member, nudge)]]
    assert all(_in_echelon(got, v) for v in probes[:-1])
    if all(mods):
        assert len(got) == width
        lattice = oracles.Lattice(mods, rows)
        for v in probes:
            assert _in_echelon(got, v) == lattice.contains(v), v


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


def _canonical_row_systems(seed, count):
    """(A, b, mods) of the shape a root's coefficients pose.

    A holds a seeded group's canonical rows, times a scale and cut to an
    interval, as columns; b is the cut of a scaled member or of a random
    vector, so both solvable and unsolvable systems occur.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        if made % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is None:
            continue
        made += 1
        lo = rng.randint(1, g.window.length)
        s, e = g.window.flat_slice((lo, rng.randint(lo, g.window.length)))
        scale = rng.choice((1, 2, 3, 4, 9))
        gens = g.canonical_rows
        mods = list(g.window.flat_orders[s:e])
        a = IntMatrix.from_rows([[scale * gen[f] for gen in gens] for f in range(s, e)])
        if rng.random() < 0.5:
            x = [rng.randrange(9) for _ in gens]
            b = [sum(c * v for c, v in zip(x, row)) for row in a.data]
        else:
            b = [rng.randrange(m) for m in mods]
        yield a, b, mods


def test_snf_of_canonical_row_systems_recomposes():
    # the matrices solve_mixed_modulus diagonalizes: (A | diag(mods))
    for a, _, mods in _canonical_row_systems(1729, 150):
        relations = [[m if j == i else 0 for j, m in enumerate(mods)] for i in range(len(mods))]
        stacked = IntMatrix.from_rows([list(row) + rel for row, rel in zip(a.data, relations)])
        s = smith_normal_form(stacked)
        assert (s.U @ stacked @ s.V).data == s.D.data


def test_solve_matches_the_matrix_reference_on_canonical_rows():
    solved = unsolved = 0
    for a, b, mods in _canonical_row_systems(2024, 400):
        got = solve_mixed_modulus(a, b, mods)
        assert got == oracles.matrix_solve_mixed_modulus(a, b, mods)
        if got is None:
            unsolved += 1
        else:
            solved += 1
            residues = [sum(c * x for c, x in zip(row, got)) - v for row, v in zip(a.data, b)]
            assert all(r % m == 0 for r, m in zip(residues, mods))
    assert solved >= 200 and unsolved >= 50


@st.composite
def echelon_inputs(draw):
    """(rows, width, mods) for the sparse echelon: widths 0 to 12; no moduli,
    moduli shorter than the width (as kernels and root graphs pass them) or
    one per column; zero moduli; small moduli, primes from 10^4 to 10^6 and
    their squares; zero, duplicate and negated rows and sums of rows, which
    with few rows or zero moduli leave the lattice rank-deficient."""
    width = draw(st.integers(0, 12))
    pool = draw(st.sampled_from([(0, 2, 3, 4, 6, 8, 9, 12), (0, *BIG_PRIMES, *(p * p for p in BIG_PRIMES))]))
    count = draw(st.sampled_from([0, draw(st.integers(0, width)), width]))
    mods = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    bound = max(mods, default=0) or 12
    entry = st.one_of(st.just(0), st.integers(-2 * bound, 2 * bound))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "negated", "sum"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * width)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "negated":
            rows.append([-a for a in draw(st.sampled_from(rows))])
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a + b for a, b in zip(u, v)])
    return draw(st.permutations(rows)), width, mods


@settings(max_examples=600, deadline=None)
@given(echelon_inputs())
def test_sparse_echelon_is_the_dense_echelon(case):
    # the Hermite form is unique, so eliminating sparse rows reduced modulo
    # the moduli, with the relations kept implicit, gives the dense bytes;
    # back-substituting only the rows that pivot at k or later gives those
    # rows of it, for every k
    rows, width, mods = case
    dense = oracles.dense_row_lattice_basis(rows, width, mods)
    assert row_lattice_basis(rows, width, mods) == dense
    pivots = [next(j for j, x in enumerate(row) if x) for row in dense]
    for k in range(width + 1):
        kept = [row for row, j in zip(dense, pivots) if j >= k]
        assert row_lattice_basis(rows, width, mods, first=k) == kept, k


def test_sparse_echelon_refuses_a_row_of_another_width():
    with pytest.raises(InputError):
        row_lattice_basis([[1, 2], [3]], 2, (4, 4))
