"""Exact integer linear algebra over arbitrary-precision integers.

Everything here works on Python ints, so all results are exact at any
magnitude.  There is one elimination core, ``SparseEchelon``: an integer
echelon on sparse rows, as a window's subgroups have rows with few nonzero
entries, with the relations m_f e_f of the moduli kept implicit.  On it sit

* ``row_lattice_basis``: the canonical echelon (Hermite) basis of an integer
  row lattice and relations m_f e_f (used for subgroup canonical forms,
  membership, torsion subgroups and roots, see ``window.kernel_subgroup``
  and ``window.solve_in_subgroup``); a section inserts its rows into G's
  own on one ``SparseEchelon`` (``window.local_section``), and the section
  and suffix orders of ``WindowSubgroup`` read the diagonal of one
  ``SparseEchelon`` sweep each,
* ``prefix_lift``: the least lattice vector with a given prefix, read off
  echelon rows, and ``least_coefficients``: the lexicographically least
  coefficients of a target in the span of generators modulo the moduli,
  the same walk on the graph rows (gens[j] | e_j),
* the Smith normal form family, built on those: ``smith_normal_form``
  alternates row and column Hermite forms, ``left_kernel_basis`` is the
  kernel half of one Hermite form, and ``solve_mixed_modulus`` solves
  A x = b componentwise modulo a vector of moduli with
  ``least_coefficients``.

No library code calls the Smith normal form family: every subgroup
question, root and failure witness is read off echelon rows.  The family
stays public API, which demo 01 shows and the benchmark's tracer wraps by
name.
"""

from __future__ import annotations

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


def vector_order(vec, mods) -> int:
    """The order of an integer vector in the product of the Z(m_f): the lcm of its residues' orders."""
    return lcm(*(m // gcd(m, a) for a, m in zip(vec, mods) if a))


def prefix_lift(rows, prefix) -> list[int] | None:
    """The least vector of the lattice of echelon ``rows`` that starts with ``prefix``, or None.

    Echelon row f has its pivot d_f at column f.  Inside the prefix the value
    there is forced, so d_f must divide what is missing; after it, the
    members take r, r + d_f, ... there, and the least r is kept.  This is
    the canonical representative of any such member modulo the members with
    a zero prefix, whose echelon rows are m_f e_f on the prefix and the
    lattice's own rows after it.
    """
    vec = [0] * len(rows)
    for f, row in enumerate(rows):
        k, r = divmod(vec[f] - (prefix[f] if f < len(prefix) else 0), row[f])
        if r and f < len(prefix):
            return None
        if k:
            vec = [x - k * y for x, y in zip(vec, row)]
    return vec


def least_coefficients(gens, target, mods) -> list[int] | None:
    """The lexicographically least k >= 0 with sum(k_j * gens[j]) == target
    modulo the positive ``mods``, or None when there is none.

    k is read off the graph of k -> sum(k_j * gens[j]), the span of the rows
    (gens[j] | e_j) and (m_f e_f | 0), as its least member with prefix
    ``target`` (``prefix_lift``).  The members with a zero prefix are (0 | k)
    for k in the map's kernel, which holds o_j e_j, o_j the order of
    gens[j]; their echelon rows keep each k_j in [0, d_j) with d_j | o_j,
    and so k is the least solution.
    """
    F, n = len(mods), len(gens)
    graph = [[*gen, *[0] * j, 1, *[0] * (n - j - 1)] for j, gen in enumerate(gens)]
    lift = prefix_lift(row_lattice_basis(graph, F + n, mods), target)
    return None if lift is None else lift[F:]


class SnfResult(Frozen, fields=("D", "U", "V")):
    """U * M * V = D, the Smith normal form, with U and V unimodular."""

    def __init__(self, D: IntMatrix, U: IntMatrix, V: IntMatrix):
        store(self, "D", D)
        store(self, "U", U)
        store(self, "V", V)


def smith_normal_form(M: IntMatrix) -> SnfResult:
    """Diagonalize M by unimodular row and column operations.

    Alternates the Hermite forms of (A | U) and of (A^T | V^T), starting
    from A = M and identities, which keep U * M * V = A, until A is
    diagonal.  Where d_i does not divide d_{i+1}, column i+1 is added to
    column i, so that the next row form puts gcd(d_i, d_{i+1}) at (i, i);
    a row fold would be undone by the next row form.  The returned diagonal
    is nonnegative with d_1 | d_2 | ... and trailing zeros.
    """
    m, n = M.rows, M.cols
    a, u = M.data, IntMatrix.identity(m).data
    vt = [list(row) for row in IntMatrix.identity(n).data]
    while True:
        au = row_lattice_basis([[*x, *y] for x, y in zip(a, u)], n + m)
        u = [row[n:] for row in au]
        atvt = row_lattice_basis([[row[j] for row in au] + v for j, v in enumerate(vt)], m + n)
        vt = [row[m:] for row in atvt]
        a = [[row[i] for row in atvt] for i in range(m)]
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(m, n))]
        k = next((k for k in range(len(d) - 1) if d[k] and d[k + 1] % d[k]), None)
        if k is None:
            D = IntMatrix(m, n, tuple(map(tuple, a)))
            return SnfResult(D, IntMatrix.from_rows(u), IntMatrix.from_rows(vt).transpose())
        a[k + 1][k] = d[k + 1]
        vt[k] = [x + y for x, y in zip(vt[k], vt[k + 1])]


def left_kernel_basis(M: IntMatrix) -> list[list[int]]:
    """The canonical basis of { v : v * M == 0 }, as integer row vectors.

    The rows of the Hermite form of (M | I) that pivot at column M.cols or
    later have a zero first half, and their second halves are the kernel's
    Hermite basis: the kernel half of ``window.kernel_subgroup``.
    """
    n = M.cols
    rows = [[*row, *e] for row, e in zip(M.data, IntMatrix.identity(M.rows).data)]
    return [row[n:] for row in row_lattice_basis(rows, n + M.rows, first=n)]


def solve_mixed_modulus(A: IntMatrix, b, mods) -> list[int] | None:
    """Find integer x with A x = b componentwise modulo ``mods``.

    ``A`` has one row per flattened ambient factor and ``mods`` lists that
    factor's cyclic order.  Returns the lexicographically least solution
    with each coordinate in [0, order of the corresponding column)
    (``least_coefficients`` on A's columns), or None when no solution exists.
    """
    mods = [int(m) for m in mods]
    b = [int(v) for v in b]
    if len(mods) != A.rows:
        raise InputError(f"expected {A.rows} moduli, got {len(mods)}")
    if len(b) != A.rows:
        raise InputError(f"expected right-hand side of length {A.rows}, got {len(b)}")
    if any(m < 1 for m in mods):
        raise InputError("moduli must be positive")
    return least_coefficients([A.column(j) for j in range(A.cols)], b, mods)
