"""Exact integer linear algebra over arbitrary-precision integers.

Everything here works on dense matrices of Python ints, so all results are
exact at any magnitude.  Matrices stay small at desk scale (well under a few
hundred rows/columns), which keeps the classical elimination algorithms fast
enough.

The three workhorses are

* ``smith_normal_form``: U * M * V = D with U, V unimodular and D diagonal
  with a divisibility chain, U and V kept as logs of operations until read,
* ``row_lattice_basis``: the canonical echelon basis of an integer row
  lattice and relations m_f e_f (used for subgroup canonical forms,
  membership, sections and section orders, torsion subgroups and roots, see
  ``window.local_section``, ``WindowSubgroup.section_order``,
  ``window.kernel_subgroup`` and ``window.solve_in_subgroup``),
* ``solve_mixed_modulus``: solve A x = b componentwise modulo a vector of
  moduli, the lattice form of "is this element a combination of these
  generators".

No library code calls the Smith normal form family (``smith_normal_form``,
``solve_mixed_modulus``, ``left_kernel_basis``): every subgroup question,
root and failure witness is read off echelon rows.  The family stays public
API, which demo 01 shows and the benchmark's tracer wraps by name.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm

from .errors import InputError
from .record import Frozen, store


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


class IntMatrix(Frozen, fields=("rows", "cols", "data")):
    """Dense integer matrix; ``data`` is a tuple of row tuples."""

    def __init__(self, rows: int, cols: int, data: tuple[tuple[int, ...], ...]):
        store(self, "rows", rows)
        store(self, "cols", cols)
        store(self, "data", data)
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise InputError(f"expected {rows} rows, got {len(data)}")
        for i, row in enumerate(data):
            if len(row) != cols:
                raise InputError(f"row {i}: expected {cols} entries, got {len(row)}")

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

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


class SnfResult(Frozen, fields=("D", "row_ops", "col_ops")):
    """U * M * V = D, the Smith normal form; U and V are built from the operation logs when read."""

    def __init__(self, D: IntMatrix, row_ops: tuple[tuple, ...], col_ops: tuple[tuple, ...]):
        store(self, "D", D)
        store(self, "row_ops", row_ops)
        store(self, "col_ops", col_ops)

    @cached_property
    def U(self) -> IntMatrix:
        return _replayed_identity(self.D.rows, self.row_ops).transpose()

    @cached_property
    def V(self) -> IntMatrix:
        return _replayed_identity(self.D.cols, self.col_ops)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.D.diagonal() if d != 0)


def _replayed_identity(n: int, ops) -> IntMatrix:
    """Row k is e_k with ``ops`` replayed: column operations give V, row operations U^T."""
    return IntMatrix.from_rows(_replay(list(e), ops) for e in IntMatrix.identity(n).data)


def _replay(vec: list[int], ops) -> list[int]:
    """Apply operations (i, j, q) to ``vec`` in order and in place: (i, j, None)
    swaps entries i and j, else entry i loses q times entry j ((i, i, 2) negates it).
    """
    for i, j, q in ops:
        if q is None:
            vec[i], vec[j] = vec[j], vec[i]
        else:
            vec[i] -= q * vec[j]
    return vec


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Diagonalize M by unimodular row and column operations.

    Pivots on the smallest nonzero absolute value, which keeps intermediate
    entries tame at desk scale.  The returned diagonal is nonnegative with
    d_1 | d_2 | ... and trailing zeros.
    """
    m, n = M.rows, M.cols
    a = [list(row) for row in M.data]
    row_ops, col_ops = [], []  # operations (i, j, q) as ``_replay`` reads them

    def row_op(i, j, q=None):
        row_ops.append((i, j, q))
        if q is None:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [v - q * w for v, w in zip(a[i], a[j])]

    def col_op(i, j, q=None):
        col_ops.append((i, j, q))
        for row in a:
            _replay(row, ((i, j, q),))

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
            row_op(s, bi)
        if bj != s:
            col_op(s, bj)
        if a[s][s] < 0:
            row_op(s, s, 2)

        while True:
            # clear the pivot row and column; a nonzero remainder becomes the
            # new (smaller) pivot, so this loop terminates
            dirty = False
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    if q:
                        row_op(i, s, q)
                    if a[i][s]:
                        row_op(s, i)
                        dirty = True
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    if q:
                        col_op(j, s, q)
                    if a[s][j]:
                        col_op(s, j)
                        dirty = True
            if dirty:
                if a[s][s] < 0:
                    row_op(s, s, 2)
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
            row_op(s, bad, -1)
        s += 1

    return SnfResult(D=IntMatrix.from_rows(a), row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def row_lattice_basis(rows, width: int, mods=()) -> list[list[int]]:
    """Canonical echelon basis of the integer lattice spanned by ``rows`` and
    the relations m_f e_f, one for each nonzero ``mods[f]``.

    The relations come after the rows, each reduced from its own column f.
    Returns pivot rows ordered by pivot column.  Pivots are positive and every
    entry above a pivot is reduced into [0, pivot), so two generating sets of
    the same lattice produce identical output.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    relations = []  # (m_f e_f, f)
    for f, m in enumerate(mods):
        if m:
            vec = [0] * width
            vec[f] = m
            relations.append((vec, f))
    for vec, j in chain(zip(map(list, rows), repeat(0)), relations):
        if len(vec) != width:
            raise InputError("row width mismatch in lattice basis")
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


def vector_order(vec, mods) -> int:
    """The order of an integer vector in the product of the Z(m_f): the lcm of its residues' orders."""
    return lcm(*(m // gcd(m, a) for a, m in zip(vec, mods) if a))


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
    rhs = _replay(b, snf.row_ops)
    z = [0] * (c + F)
    for i, d in enumerate(snf.D.diagonal()):  # one entry per row; zero past the rank
        z[i], rest = divmod(rhs[i], d) if d else (0, rhs[i])
        if rest:
            return None
    # V z: the column operations act on a column vector in reverse, transposed
    x = _replay(z, [(j, i, q) for i, j, q in reversed(snf.col_ops)])[:c]
    return [x[j] % vector_order(A.column(j), mods) for j in range(c)]
