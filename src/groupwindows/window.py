"""Finite windows of products of finite abelian groups.

A window is the truncation of a product of finite abelian groups to
coordinates 1..N.  Every coordinate group is given by its cyclic
decomposition into prime-power factors, so the whole window flattens to a
product of cyclic groups Z(m_1) x ... x Z(m_F).

The core works on flat integer rows of width F.  An ``Element`` is one flat
tuple reduced into [0, m_f); its residues per coordinate and its support are
read off it.  Subgroups are identified by a canonical lattice basis: the
generator rows plus the relations m_f e_f, which the echelon adds from the
moduli, span an integer lattice of full rank F, and its canonical echelon
(Hermite) basis is the subgroup's identity card.  A section G_[a,b], the
members supported in [a, b], is the kernel of the projection onto the other
coordinates, so it is one echelon of G's basis rows from a on, and none when
b = N.  It is kept local: a subgroup of the sub-window [a, b]
(``local_section``), so that whatever is read off it runs at the interval's
width; ``section`` zero-pads it back.  The torsion subgroup G[q] is one
echelon of pairs (``kernel_subgroup``), built once per q and kept on G;
every torsion subgroup inside an interval is a section of it.  Each subgroup
also keeps its section orders and the suffix orders of its multiples, each
read off one echelon sweep over all start coordinates.  Least members
are read off echelon rows (``least_in_difference``, ``least_with_prefix``),
and so are the failure witnesses lifted from a prefix and the least
coefficients of the p^h-th roots of synthesis (``solve_in_subgroup``); no
path reaches the Smith normal form.  Elements are built only at the edges:
file I/O, witnesses, and generators written out.

``WindowSubgroup.from_rows`` trusts its rows, and the canonical basis when
one is known: ``local_section``, ``section`` and ``kernel_subgroup`` pass
the rows of their echelons, ``project`` onto a prefix of flat width e passes
G's first e basis rows cut to width e, and ``primary_decompose`` G's rows
with a pivot at a p-power factor, cut to those factors.  By the uniqueness
of the Hermite normal form (Cohen, A Course in Computational Algebraic
Number Theory, 2.4.3) these are exact: the rows keep a pivot in every column
and every entry above a pivot reduced.  So a local section's basis is the
full section's cut to the interval.  ``ProductWindow.element`` and
``from_flat`` reduce; the ``Element`` constructor trusts its tuple.

All coordinate indices in the public interface are 1-based and intervals are
inclusive, matching the certificate and file formats.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, compress
from math import gcd, lcm, prod
from operator import mul

from .errors import InputError, WindowScaleError
from .intlinalg import SparseEchelon, row_lattice_basis, vector_order
from .record import Frozen, store

# Exact element scans refuse beyond this many elements.
ENUM_LIMIT = 1 << 20


# Miller-Rabin with the first thirteen primes as bases decides primality of
# every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.

    A base that witnesses compositeness is proof at any size; passing every
    base proves primality below _MR_LIMIT only, so beyond it InputError.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise InputError(f"cannot decide whether {n} is prime: beyond {_MR_LIMIT}")
    return True


@lru_cache(maxsize=1024)
def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n == p**k and p prime, or None when n is no prime power.

    The largest k with an exact k-th root leaves a root that is no perfect
    power itself, so n is a prime power exactly when that root is prime.
    """
    if n < 2:
        return None
    for k in range(n.bit_length() - 1, 1, -1):
        r = _iroot(n, k)
        if r**k == n:
            return (r, k) if _is_prime(r) else None
    return (n, 1) if _is_prime(n) else None


def _prime_factor(n: int) -> tuple[int, int]:
    """Return (p, k) with n == p**k, or raise InputError."""
    pk = prime_power(n)
    if pk is None:
        raise InputError(f"factor order {n} is not a prime power")
    return pk


class ComponentGroup(Frozen, fields=("factor_orders",)):
    """One coordinate group, a direct sum of cyclic prime-power factors."""

    def __init__(self, factor_orders: tuple[int, ...]):
        store(self, "factor_orders", factor_orders)
        self.__post_init__()

    def __post_init__(self):  # a method of its own: perfbench/tracing.py times it by name
        store(self, "factor_orders", tuple(int(m) for m in self.factor_orders))
        for m in self.factor_orders:
            _prime_factor(m)

    @property
    def order(self) -> int:
        return prod(self.factor_orders) if self.factor_orders else 1

    def primes(self) -> set[int]:
        return {_prime_factor(m)[0] for m in self.factor_orders}


class ProductWindow(Frozen, fields=("components",)):
    """Coordinates 1..N, each carrying a ComponentGroup; sub-windows are kept per interval."""

    def __init__(self, components: tuple[ComponentGroup, ...]):
        comps = tuple(
            c if isinstance(c, ComponentGroup) else ComponentGroup(tuple(c)) for c in components
        )
        if len(comps) < 1:
            raise InputError("a window needs at least one coordinate")
        bounds = list(accumulate((len(c.factor_orders) for c in comps), initial=0))
        # derived once; the frozen class takes them through its instance dict
        self.__dict__.update(
            components=comps,
            flat_orders=tuple(m for c in comps for m in c.factor_orders),
            coord_slices=tuple(zip(bounds, bounds[1:])),  # half-open flat slice per coordinate
            coord_starts=tuple(bounds),  # first flat of each coordinate, then F
            flat_coords=tuple(i for i, c in enumerate(comps) for _ in c.factor_orders),
            _hash=hash(comps),
            _subwindows={},
        )

    def __hash__(self):  # the hash of the components, taken once
        return self._hash

    @property
    def length(self) -> int:
        return len(self.components)

    @property
    def flat_length(self) -> int:
        return len(self.flat_orders)

    def check_interval(self, interval) -> tuple[int, int]:
        lo, hi = interval
        if not (1 <= lo <= hi <= self.length):
            raise InputError(f"interval [{lo}, {hi}] not inside [1, {self.length}]")
        return lo, hi

    def flat_slice(self, interval) -> tuple[int, int]:
        lo, hi = self.check_interval(interval)
        return self.coord_slices[lo - 1][0], self.coord_slices[hi - 1][1]

    def subwindow(self, interval) -> "ProductWindow":
        key = self.check_interval(interval)
        sub = self._subwindows.get(key)
        if sub is None:
            sub = self._subwindows[key] = ProductWindow(self.components[key[0] - 1 : key[1]])
        return sub

    def element(self, residues) -> "Element":
        """Build an element from per-coordinate residue sequences.

        Residues are reduced into the canonical range [0, m).
        """
        if len(residues) != self.length:
            raise InputError(
                f"expected residues for {self.length} coordinates, got {len(residues)}"
            )
        flat = []
        for i, (coord, comp) in enumerate(zip(residues, self.components), start=1):
            if len(coord) != len(comp.factor_orders):
                raise InputError(
                    f"coordinate {i}: expected {len(comp.factor_orders)} residues, "
                    f"got {len(coord)}"
                )
            flat += (int(r) % m for r, m in zip(coord, comp.factor_orders))
        return Element(self, tuple(flat))

    def from_flat(self, flat) -> "Element":
        """The element with these flat residues, reduced modulo the factor orders."""
        if len(flat) != self.flat_length:
            raise InputError("flat residue vector has wrong length")
        return Element(self, tuple(int(r) % m for r, m in zip(flat, self.flat_orders)))

    def zero(self) -> "Element":
        return Element(self, (0,) * self.flat_length)

    def full_subgroup(self) -> "WindowSubgroup":
        F = self.flat_length
        return WindowSubgroup.from_rows(self, [[int(k == f) for k in range(F)] for f in range(F)])

    def trivial_subgroup(self) -> "WindowSubgroup":
        return WindowSubgroup(self, ())

    def primes(self) -> tuple[int, ...]:
        return self._primes

    @cached_property
    def _primes(self) -> tuple[int, ...]:
        """The primes of the factor orders, found on first use and kept."""
        return tuple(sorted(set().union(*(c.primes() for c in self.components))))


class Element(Frozen, fields=("window", "flat")):
    """A point of a window: one residue in [0, m_f) per flat factor f, trusted."""

    def __init__(self, window: ProductWindow, flat: tuple[int, ...]):
        store(self, "window", window)
        store(self, "flat", flat)

    @property
    def residues(self) -> tuple[tuple[int, ...], ...]:
        """The flat residues grouped by coordinate."""
        return tuple(self.flat[s:e] for s, e in self.window.coord_slices)

    def is_zero(self) -> bool:
        return not any(self.flat)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based coordinates where the element is nonzero."""
        return tuple(
            i for i, (s, e) in enumerate(self.window.coord_slices, start=1) if any(self.flat[s:e])
        )

    def order(self) -> int:
        return vector_order(self.flat, self.window.flat_orders)

    def __add__(self, other: "Element") -> "Element":
        if other.window != self.window:
            raise InputError("cannot add elements of different windows")
        return self.window.from_flat([a + b for a, b in zip(self.flat, other.flat)])

    def __neg__(self) -> "Element":
        return self.window.from_flat([-a for a in self.flat])

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, k: int) -> "Element":
        return self.window.from_flat([k * a for a in self.flat])

    def __rmul__(self, k: int) -> "Element":
        return self.scale(k)

    def restrict(self, interval) -> "Element":
        """The projection of the element onto a coordinate interval."""
        s, e = self.window.flat_slice(interval)
        return Element(self.window.subwindow(interval), self.flat[s:e])

    def embed(self, window: ProductWindow, interval) -> "Element":
        """Zero-pad a subwindow element back into ``window`` at ``interval``."""
        if window.subwindow(interval) != self.window:
            raise InputError("element does not match the target interval shape")
        s, e = window.flat_slice(interval)
        return Element(window, (0,) * s + self.flat + (0,) * (window.flat_length - e))


class WindowSubgroup:
    """A subgroup of a window, identified by its canonical lattice basis.

    Two subgroups are equal exactly when their canonical bases agree, so the
    class is usable as a decidable stand-in for abstract subgroup equality.
    Instances are immutable; derived data (basis, generators, element lists,
    scaled and torsion subgroups, section orders) is cached on first use.
    """

    def __init__(self, window: ProductWindow, generators=()):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Element) or g.window != window:
                raise InputError("generators must be elements of the subgroup's window")
        self._setup(window, [g.flat for g in gens])
        self.generators = gens

    @classmethod
    def from_rows(cls, window: ProductWindow, rows, basis=None) -> "WindowSubgroup":
        """The subgroup spanned by flat integer rows of the window's width, unchecked.

        A given ``basis`` is trusted as the rows' canonical basis, so no echelon
        is computed.  The generators, the rows reduced, are built on first use.
        """
        g = cls.__new__(cls)
        g._setup(window, rows)
        if basis is not None:
            g.__dict__["basis"] = basis
        return g

    def _setup(self, window: ProductWindow, rows):
        self.window = window
        self._rows = rows
        self._scaled_cache: dict[int, "WindowSubgroup"] = {}
        self._torsion_cache: dict[int, "WindowSubgroup"] = {}
        self._suffix_tables: dict[int, dict[int, list[int]]] = {}  # q -> start flat -> suffix orders
        self._elements_cache: tuple[Element, ...] | None = None

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        return tuple(self.window.from_flat(r) for r in self._rows)

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Canonical full-rank basis of the generator lattice plus relations."""
        window = self.window
        return tuple(map(tuple, row_lattice_basis(self._rows, window.flat_length, window.flat_orders)))

    @cached_property
    def canonical_rows(self) -> tuple[tuple[int, ...], ...]:
        """Basis rows reduced modulo the factor orders, zero rows dropped."""
        mods = self.window.flat_orders
        reduced = (tuple(a % m for a, m in zip(row, mods)) for row in self.basis)
        return tuple(row for row in reduced if any(row))

    @cached_property
    def canonical_generators(self) -> tuple[Element, ...]:
        """The canonical rows as elements."""
        return tuple(Element(self.window, row) for row in self.canonical_rows)

    def __eq__(self, other):
        if not isinstance(other, WindowSubgroup):
            return NotImplemented
        return self.window == other.window and self.basis == other.basis

    def __hash__(self):
        return hash((self.window, self.basis))

    def __repr__(self):
        return f"WindowSubgroup(order={self.order()}, window={self.window.flat_orders})"

    def order(self) -> int:
        covolume = prod(row[i] for i, row in enumerate(self.basis))
        q, r = divmod(prod(self.window.flat_orders), covolume)
        assert r == 0
        return q

    def is_trivial(self) -> bool:
        return self.order() == 1

    def exponent(self) -> int:
        """Least n with n*g == 0 for every g in the subgroup, computed once."""
        return self._exponent

    @cached_property
    def _exponent(self) -> int:
        mods = self.window.flat_orders
        return lcm(*(vector_order(row, mods) for row in self.canonical_rows))

    def contains(self, x: Element) -> bool:
        if x.window != self.window:
            raise InputError("element and subgroup live in different windows")
        return self.contains_flat(x.flat)

    def contains_flat(self, vec) -> bool:
        """Membership of a flat integer row of the window's width."""
        vec = list(vec)
        for idx, row in enumerate(self.basis):
            q, r = divmod(vec[idx], row[idx])
            if r:
                return False
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
        return True

    def scaled(self, k: int) -> "WindowSubgroup":
        """The subgroup k*G = { k*g : g in G }; 1*G is G, whose basis is known."""
        k = abs(k)
        if k == 1:
            return self
        got = self._scaled_cache.get(k)
        if got is None:
            rows = [[k * a for a in row] for row in self.canonical_rows]
            got = self._scaled_cache[k] = WindowSubgroup.from_rows(self.window, rows)
        return got

    def section_order(self, a: int, b: int) -> int:
        """|G_[a,b]|, the order of the section on [a, b], and 1 when b < a.

        G's basis rows from the first flat s of coordinate a on span the
        members vanishing before a.  In their echelon by last nonzero entry
        the rows ending inside [a, b] span G_[a,b]; its order is the running
        product of m_f / d_f over its flats, d_f that echelon's diagonal,
        read off one sweep for every start (``_order_tables``).
        """
        if b < a:
            return 1
        starts = self.window.coord_starts
        s = starts[a - 1]
        return self._section_tables[s][starts[b] - s]

    @cached_property
    def _section_tables(self) -> dict[int, list[int]]:
        return self._order_tables(1, last=True)

    def suffix_order(self, b: int, q: int = 1, a: int = 1) -> int:
        """|(q G_[a,N])_[b,N]|, and 1 when b or a is N + 1.

        A subgroup's basis rows from a flat on span its members vanishing
        before it, so the order is the product of m_f / d_f over the flats
        of [b, N], d_f the diagonal entry.  q G_[a,N] is spanned by q times
        G's basis rows from a's first flat s on, so d_f = m_f before s.  One
        sweep per q gives the tables of every a (``_order_tables``).
        """
        tables = self._suffix_tables.get(q)
        if tables is None:
            tables = self._suffix_tables[q] = self._order_tables(q)
        starts = self.window.coord_starts
        return tables[starts[a - 1]][starts[b - 1]]

    def _order_tables(self, q: int, last: bool = False) -> dict[int, list[int]]:
        """Coordinate start flat s -> the products of m_f / d_f from s on
        (``last``: sections, d_f by last nonzero entry, of G's rows from s on,
        which span its members vanishing before s), or from each flat on (q
        times those rows and the relations, which q G lacks).  The rows from
        s on are those from s + 1 on and row s, so one echelon takes the rows
        from the last up, and its diagonal is read at each start."""
        mods = self.window.flat_orders
        F = len(mods)
        col = range(F - 1, -1, -1) if last else range(F)  # flat f -> its column, and back
        ech = SparseEchelon([0] * F if last else mods)
        if not last:
            ech.rows.update((f, {f: m}) for f, m in enumerate(mods))
        rows, basis, starts, tables = ech.rows, self.basis, set(self.window.coord_starts), {}
        ratio = [1] * F  # m_f / d_f at flat f
        for s in range(F, -1, -1):
            if s < F:
                ech.insert({col[f]: q * x for f, x in compress(enumerate(basis[s]), basis[s])})
                for k in ech.changed:
                    ratio[col[k]] = mods[col[k]] // abs(rows[k][k])
                ech.changed.clear()
            if s in starts:
                if last:
                    tables[s] = list(accumulate(ratio[s:], mul, initial=1))
                else:  # the ratio is 1 before s
                    tables[s] = list(accumulate(reversed(ratio), mul, initial=1))[::-1]
        return tables

    def elements(self) -> tuple[Element, ...]:
        """All elements, sorted by flat residue vector.  Exact and cached."""
        if self._elements_cache is not None:
            return self._elements_cache
        n = self.order()
        if n > ENUM_LIMIT:
            raise WindowScaleError(
                f"subgroup has {n} elements, beyond the exact-scan limit {ENUM_LIMIT}"
            )
        mods = self.window.flat_orders
        gens = self.canonical_rows
        seen = {(0,) * len(mods)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = tuple((a + b) % m for a, b, m in zip(v, g, mods))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert len(seen) == n
        elems = tuple(self.window.from_flat(v) for v in sorted(seen))
        self._elements_cache = elems
        return elems

    def presentation_margin(self) -> int:
        """Max support width over the given and the canonical generators, minimized.

        This is the width of the narrowest generator presentation at hand; it
        bounds how far window-boundary effects can reach.
        """
        # a row's width runs from the coordinate of its first nonzero residue
        # to that of its last; a nonzero generator exists exactly when a
        # canonical one does
        coords, mods = self.window.flat_coords, self.window.flat_orders

        def width(row):
            nonzero = [f for f, a in enumerate(row) if a % mods[f]]
            return coords[nonzero[-1]] - coords[nonzero[0]] + 1 if nonzero else 0

        return min(max(map(width, rows), default=0) for rows in (self._rows, self.canonical_rows))


def project(g: WindowSubgroup, interval) -> WindowSubgroup:
    """The image of the subgroup under projection onto a coordinate interval.

    The generators are the canonical generators restricted to the interval.
    Onto a prefix of flat width e the canonical basis is G's first e basis
    rows cut to width e: the later rows vanish there, and the first e keep
    their pivots and reduced entries.  Other intervals take a fresh echelon.
    """
    lo, _ = g.window.check_interval(interval)
    s, e = g.window.flat_slice(interval)
    rows = [row[s:e] for row in g.canonical_rows]
    basis = tuple(row[:e] for row in g.basis[:e]) if lo == 1 else None
    return WindowSubgroup.from_rows(g.window.subwindow(interval), rows, basis)


def kernel_subgroup(g: WindowSubgroup, t) -> WindowSubgroup:
    """The subgroup { x in G : t_f divides x_f at every flat factor f }.

    In the canonical echelon basis of the pairs (x mod t, x), x in G, over
    the rows (b | b) for G's basis and (t_f e_f | 0), the last F rows have a
    zero first half and the kernel's canonical basis as second half.  The
    library builds G[q] with it (``torsion_subgroup``).
    """
    F = g.window.flat_length
    kernel = [r[F:] for r in row_lattice_basis([list(b) * 2 for b in g.basis], 2 * F, t)[F:]]
    return WindowSubgroup.from_rows(g.window, kernel, tuple(map(tuple, kernel)))


def local_section(g: WindowSubgroup, interval) -> WindowSubgroup:
    """Members of the subgroup supported inside ``interval``, in the interval's sub-window.

    With [s, e) the interval's flats, the section is the kernel of the
    projection onto the flats outside it.  G's basis rows from s on span the
    members vanishing before s.  With the flats from e on moved to the
    front, their echelon ends in e - s rows that vanish from e on: these
    span the members vanishing outside [s, e), and cut to [s, e) they are
    the section's canonical basis in ``g.window.subwindow(interval)``.  When
    e = F nothing moves: G's rows from s on, cut, are that basis, with no
    echelon.  It and its members are placed back in G's window (``section``,
    ``Element.embed``) before they meet subgroups of that window.
    """
    F = g.window.flat_length
    s, e = g.window.flat_slice(interval)
    if e < F:
        moved = row_lattice_basis([row[e:] + row[s:e] for row in g.basis[s:]], F - s)
        basis = tuple(tuple(row[F - e :]) for row in moved[F - e :])
    else:
        basis = tuple(row[s:] for row in g.basis[s:])
    return WindowSubgroup.from_rows(g.window.subwindow(interval), basis, basis)


def section(g: WindowSubgroup, interval) -> WindowSubgroup:
    """Members of the subgroup supported inside ``interval``, in the full window.

    The local section zero-padded: its basis rows at the interval's flats
    [s, e), and the relations m_f e_f at the flats outside.
    """
    mods = g.window.flat_orders
    F = len(mods)
    s, e = g.window.flat_slice(interval)
    inner = [(0,) * s + row + (0,) * (F - e) for row in local_section(g, interval).basis]
    basis = tuple(
        inner[f - s] if s <= f < e else (0,) * f + (m,) + (0,) * (F - f - 1) for f, m in enumerate(mods)
    )
    return WindowSubgroup.from_rows(g.window, basis, basis)


def torsion_subgroup(g: WindowSubgroup, q: int) -> WindowSubgroup:
    """G[q] = { x in G : q*x == 0 }, one kernel, built once per q and kept on G."""
    tor = g._torsion_cache.get(q)
    if tor is None:
        # q*x vanishes iff every flat residue is divisible by m_f / gcd(m_f, q)
        t = [m // gcd(m, q) for m in g.window.flat_orders]
        tor = g._torsion_cache[q] = kernel_subgroup(g, t)
    return tor


def least_outside(a: WindowSubgroup, b) -> Element | None:
    """The member of ``a`` outside ``b`` of least order, then least flat vector.

    ``b`` is a subgroup of a's window, or a map from a prime power q to the
    subgroup the members of order q must avoid, growing along divisibility.
    Returns None when no member is outside.

    A least-order member outside has prime-power order: its primary
    components are multiples of it and one of them is already outside.  So
    the search takes the least prime power q with a[q] not inside b(q); every
    member of a[q] outside b(q) then has order exactly q, and the least of
    them comes from a[q]'s echelon basis.
    """
    b_of = b if callable(b) else (lambda q: b)
    e = a.exponent()
    powers = []
    for p in a.window.primes():
        q = p
        while e % q == 0:
            powers.append(q)
            q *= p
    for q in sorted(powers):
        x = least_in_difference(torsion_subgroup(a, q), b_of(q).contains_flat)
        if x is not None:
            return x
    return None


def least_in_difference(a: WindowSubgroup, inside) -> Element | None:
    """The lexicographically least member of ``a`` for which ``inside`` is false.

    ``inside`` is the membership test of a subgroup on flat rows; None when
    all of ``a`` passes it.  Echelon row f has its pivot d_f at flat f, so the members
    agreeing before f take the values r, r + d_f, ... there, with r the
    least.  Before the last row outside, every choice still leaves members
    outside, so r is taken.  At that row the later rows lie inside: r is kept
    unless the member so far is inside, and then r + d_f gives one outside.
    After it, r again.
    """
    rows = a.basis
    last = next((f for f in reversed(range(len(rows))) if not inside(rows[f])), None)
    if last is None:
        return None
    vec = [0] * len(rows)
    for f, row in enumerate(rows):
        k = vec[f] // row[f]
        if k:
            vec = [x - k * y for x, y in zip(vec, row)]
        if f == last and inside(vec):
            vec = [x + y for x, y in zip(vec, row)]
    return a.window.from_flat(vec)


def least_with_prefix(a: WindowSubgroup, prefix) -> Element | None:
    """The lexicographically least member of ``a`` whose flat vector starts with ``prefix``.

    ``prefix`` is a sequence of flat residues; None when no member has it
    (``_prefix_lift`` on a's echelon rows).
    """
    vec = _prefix_lift(a.basis, prefix)
    return None if vec is None else a.window.from_flat(vec)


def _prefix_lift(rows, prefix) -> list[int] | None:
    """The least vector of the lattice of echelon ``rows`` that starts with ``prefix``, or None.

    Echelon row f has its pivot d_f at flat f.  Inside the prefix the value
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


def solve_in_subgroup(g: WindowSubgroup, target: Element, scale: int = 1) -> Element | None:
    """A y in the subgroup with scale*y == target, or None.

    The library's one caller is the p^h-th root of ``synthesize_p``.  With
    r_j the canonical rows, y is sum(k_j * r_j) for coefficients k with
    sum(k_j * scale * r_j) == target.  They are read off the graph of that
    map, the span of the rows (scale*r_j | e_j) and (m_f e_f | 0), as its
    least member with prefix target (``_prefix_lift``): k is the
    lexicographically least choice, unique where the map is injective.
    Any root serves synthesis, as x = p^h y is all the paper asks of y.
    """
    if target.window != g.window:
        raise InputError("element and subgroup live in different windows")
    rows = g.canonical_rows
    if not rows:
        return None if any(target.flat) else target
    mods = g.window.flat_orders
    F = len(mods)
    graph = [[scale * a for a in row] + [0] * len(rows) for row in rows]
    for j, row in enumerate(graph):
        row[F + j] = 1
    lift = _prefix_lift(row_lattice_basis(graph, F + len(rows), mods), target.flat)
    if lift is None:
        return None
    flat = [0] * F
    for k, row in zip(lift[F:], rows):
        if k:
            flat = [a + k * b for a, b in zip(flat, row)]
    return g.window.from_flat(flat)
