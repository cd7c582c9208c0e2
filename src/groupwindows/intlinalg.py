"""Exact integer linear algebra over arbitrary-precision integers.

Everything here works on dense matrices of Python ints, so all results are
exact at any magnitude.  Matrices stay small at desk scale (well under a few
hundred rows/columns), which keeps the classical elimination algorithms fast
enough.

The three workhorses are

* ``smith_normal_form``: U * M * V = D with U, V unimodular and D diagonal
  with a divisibility chain,
* ``row_lattice_basis``: the canonical echelon basis of an integer row
  lattice (used for subgroup canonical forms, membership and every kernel
  subgroup, see ``window.kernel_rows``),
* ``solve_mixed_modulus``: solve A x = b componentwise modulo a vector of
  moduli, the lattice form of "is this element a combination of these
  generators".

Inside the library the Smith normal form serves only ``solve_mixed_modulus``.
``left_kernel_basis`` stays a public function of this module (the
benchmark's tracer wraps it by name), but no library code calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InputError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix; ``data`` is a tuple of row tuples."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows:
            raise InputError(f"expected {self.rows} rows, got {len(self.data)}")
        for i, row in enumerate(self.data):
            if len(row) != self.cols:
                raise InputError(f"row {i}: expected {self.cols} entries, got {len(row)}")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        data = tuple(tuple(int(v) for v in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in product")
        cols = other.transpose().data
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.data
        )
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, vec) -> list[int]:
        if len(vec) != self.cols:
            raise InputError("vector length mismatch in matrix-vector product")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.data]

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


@dataclass(frozen=True)
class SnfResult:
    """U * M * V = D with U, V unimodular and D the Smith normal form of M."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.D.diagonal() if d != 0)


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _negate_row(a, i):
    a[i] = [-v for v in a[i]]


def _add_row(a, dst, src, q):
    if q:
        row_s = a[src]
        a[dst] = [v - q * w for v, w in zip(a[dst], row_s)]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a, dst, src, q):
    if q:
        for row in a:
            row[dst] -= q * row[src]


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Diagonalize M by unimodular row and column operations.

    Pivots on the smallest nonzero absolute value, which keeps intermediate
    entries tame at desk scale.  The returned diagonal is nonnegative with
    d_1 | d_2 | ... and trailing zeros.
    """
    m, n = M.rows, M.cols
    a = [list(row) for row in M.data]
    u = [list(row) for row in IntMatrix.identity(m).data]
    v = [list(row) for row in IntMatrix.identity(n).data]

    s = 0
    while s < min(m, n):
        # smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(s, m):
            for j in range(s, n):
                val = abs(a[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != s:
            _swap_rows(a, s, bi)
            _swap_rows(u, s, bi)
        if bj != s:
            _swap_cols(a, s, bj)
            _swap_cols(v, s, bj)
        if a[s][s] < 0:
            _negate_row(a, s)
            _negate_row(u, s)

        while True:
            # clear the pivot row and column; a nonzero remainder becomes the
            # new (smaller) pivot, so this loop terminates
            dirty = False
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    _add_row(a, i, s, q)
                    _add_row(u, i, s, q)
                    if a[i][s]:
                        _swap_rows(a, s, i)
                        _swap_rows(u, s, i)
                        dirty = True
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    _add_col(a, j, s, q)
                    _add_col(v, j, s, q)
                    if a[s][j]:
                        _swap_cols(a, s, j)
                        _swap_cols(v, s, j)
                        dirty = True
            if dirty:
                if a[s][s] < 0:
                    _negate_row(a, s)
                    _negate_row(u, s)
                continue
            # divisibility fix-up: fold a bad entry into the pivot row
            bad = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % a[s][s]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _add_row(a, s, bad, -1)
            _add_row(u, s, bad, -1)
        s += 1

    U = IntMatrix.from_rows(u)
    D = IntMatrix.from_rows(a)
    V = IntMatrix.from_rows(v)
    return SnfResult(U=U, D=D, V=V)


def row_lattice_basis(rows, width: int) -> list[list[int]]:
    """Canonical echelon basis of the integer lattice spanned by ``rows``.

    Returns pivot rows ordered by pivot column.  Pivots are positive and every
    entry above a pivot is reduced into [0, pivot), so two generating sets of
    the same lattice produce identical output.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        vec = list(row)
        if len(vec) != width:
            raise InputError("row width mismatch in lattice basis")
        j = 0
        while j < width:
            if not vec[j]:
                j += 1
                continue
            if j not in basis:
                basis[j] = vec
                break
            pivot_row = basis[j]
            p, b = pivot_row[j], vec[j]
            if b % p == 0:
                q = b // p
                vec = [x - q * y for x, y in zip(vec, pivot_row)]
            else:
                x, y, g = xgcd(p, b)
                pg, bg = p // g, b // g
                new_pivot = [x * r + y * w for r, w in zip(pivot_row, vec)]
                vec = [-bg * r + pg * w for r, w in zip(pivot_row, vec)]
                basis[j] = new_pivot
            # vec[j] is now zero; continue reducing the remainder
    # normalize: positive pivots, entries above pivots reduced
    out = []
    for j in sorted(basis):
        row = basis[j]
        if row[j] < 0:
            row = [-v for v in row]
        out.append((j, row))
    for idx in range(len(out)):
        j, row = out[idx]
        for upper in range(idx):
            uj, urow = out[upper]
            q = urow[j] // row[j]
            if q:
                out[upper] = (uj, [x - q * y for x, y in zip(urow, row)])
    return [row for _, row in out]


def left_kernel_basis(M: IntMatrix) -> list[list[int]]:
    """Basis of { v : v * M == 0 } as integer row vectors."""
    snf = smith_normal_form(M)
    r = snf.rank
    return [list(snf.U.row(i)) for i in range(r, M.rows)]


def _column_order(column, mods) -> int:
    """Order of a column as an element of the product of cyclic groups."""
    orders = [m // gcd(m, a % m if m else a) if m else 1 for a, m in zip(column, mods)]
    return lcm(*orders) if orders else 1


def solve_mixed_modulus(A: IntMatrix, b, mods) -> list[int] | None:
    """Find integer x with A x = b componentwise modulo ``mods``.

    ``A`` has one row per flattened ambient factor and ``mods`` lists that
    factor's cyclic order.  Returns a solution with each coordinate reduced
    into [0, order of the corresponding column), or None when no solution
    exists.
    """
    mods = [int(m) for m in mods]
    b = [int(v) for v in b]
    if len(mods) != A.rows:
        raise InputError(f"expected {A.rows} moduli, got {len(mods)}")
    if len(b) != A.rows:
        raise InputError(f"expected right-hand side of length {A.rows}, got {len(b)}")
    if any(m < 1 for m in mods):
        raise InputError("moduli must be positive")

    F, c = A.rows, A.cols
    rows = [list(A.row(i)) + [mods[i] if j == i else 0 for j in range(F)] for i in range(F)]
    stacked = IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, c)
    snf = smith_normal_form(stacked)
    rhs = snf.U.apply(b)
    r = snf.rank
    diag = snf.D.diagonal()
    z = [0] * (c + F)
    for i in range(F):
        if i < r:
            if rhs[i] % diag[i]:
                return None
            z[i] = rhs[i] // diag[i]
        elif rhs[i]:
            return None
    y = snf.V.apply(z)
    x = y[:c]
    return [x[j] % _column_order(A.column(j), mods) for j in range(c)]
