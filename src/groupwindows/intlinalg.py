"""Exact integer linear algebra over arbitrary-precision integers.

Everything here works on Python ints, so all results are exact at any
magnitude: the Smith normal form family on dense matrices, the echelon on
sparse rows, as a window's subgroups have rows with few nonzero entries.

The three workhorses are

* ``smith_normal_form``: U * M * V = D with U, V unimodular and D diagonal
  with a divisibility chain, U and V kept as logs of operations until read,
* ``row_lattice_basis``: the canonical echelon basis of an integer row
  lattice and relations m_f e_f, on ``SparseEchelon`` (used for subgroup
  canonical forms, membership, torsion subgroups and roots, see
  ``window.kernel_subgroup`` and ``window.solve_in_subgroup``); a section
  inserts its rows into G's own on one ``SparseEchelon``
  (``window.local_section``), and the section and suffix orders of
  ``WindowSubgroup`` read the diagonal of one ``SparseEchelon`` sweep each,
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
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm

from .errors import InputError
from .record import Frozen, store


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


class SparseEchelon:
    """An integer echelon: ``rows`` maps each pivot column to its sparse row {column: value}.

    A nonzero ``mods[f]`` says that m_f e_f lies in the lattice, so entries
    in column f are kept inside (-m_f, m_f) as elimination goes: the "HNF
    modulo D" device of Domich, Kannan and Trotter (Math. of OR, 1987) and
    Cohen 2.4, which bounds entry growth.  The diagonal is a lattice
    invariant up to sign, which the order tables of ``window`` read as is.
    """

    def __init__(self, mods):
        self.mods = mods
        self.rows: dict[int, dict[int, int]] = {}
        self.changed: list[int] = []  # the columns whose pivot was set, in order

    def insert(self, vec: dict[int, int]) -> None:
        """Add a lattice vector, which it may change, pivoting at its first nonzero column."""
        rows, mods = self.rows, self.mods
        while vec:
            j = min(vec)
            row = rows.get(j)
            if row is None:
                rows[j] = vec
                self.changed.append(j)
                return
            b, p = vec[j], row[j]
            if abs(b) >= abs(p):
                c = -(b // p)
                for k, x in row.items():  # vec += c * row, reduced
                    y = vec.get(k, 0) + c * x
                    m = mods[k]
                    if m and not -m < y < m:
                        y %= m
                    if y:
                        vec[k] = y
                    elif k in vec:
                        del vec[k]
            if j in vec:  # Euclid: the smaller remainder takes the pivot, and the old row goes on
                rows[j], vec = vec, dict(row)
                self.changed.append(j)

    def hermite(self, width: int, first: int = 0) -> list[list[int]]:
        """The canonical basis rows with a pivot at ``first`` or later, dense:
        pivots made positive, then each row, bottom-up, has its entries at
        later pivots reduced into [0, pivot).  Those rows read no earlier
        row, and only they are changed."""
        rows, out = self.rows, []
        for j in sorted((j for j in rows if j >= first), reverse=True):
            row = rows[j]
            if row[j] < 0:
                row = rows[j] = {k: -x for k, x in row.items()}
            todo = [k for k in row if k > j] if len(row) > 1 else []  # a heap of the columns after k
            heapify(todo)
            while todo:
                k = heappop(todo)
                pivot = rows.get(k)
                if pivot is not None and (q := row[k] // pivot[k]):
                    for c, x in pivot.items():
                        if c in row:
                            row[c] -= q * x
                        else:
                            row[c] = -q * x
                            heappush(todo, c)
            dense = [0] * width
            for k, x in row.items():
                dense[k] = x
            out.append(dense)
        return out[::-1]


def row_lattice_basis(rows, width: int, mods=(), first: int = 0) -> list[list[int]]:
    """Canonical echelon basis of the integer lattice spanned by ``rows`` and
    the relations m_f e_f, one for each nonzero ``mods[f]``.

    The rows are eliminated sparse (``SparseEchelon``).  The relations stay
    implicit: after the rows, m_f e_f is reduced from column f unless a lone
    pivot there divides it.  Returns pivot rows ordered by pivot column,
    those with a pivot at ``first`` or later, which alone are back-substituted.
    Pivots are positive and every entry above a pivot is reduced into
    [0, pivot): the Hermite normal form, which is unique (Cohen 2.4.3), so
    two generating sets of the same lattice produce identical output.
    """
    ech = SparseEchelon([*mods, *[0] * (width - len(mods))])
    for row in rows:
        if len(row) != width:
            raise InputError("row width mismatch in lattice basis")
        if any(row):
            ech.insert(dict(compress(enumerate(row), row)))
    for f, m in enumerate(mods):
        pivot = ech.rows.get(f)
        if m and (pivot is None or len(pivot) > 1 or m % pivot[f]):
            ech.insert({f: m})
    return ech.hermite(width, first)


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
