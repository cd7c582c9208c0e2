"""Finite windows of products of finite abelian groups.

A window is the truncation of a product of finite abelian groups to
coordinates 1..N.  Every coordinate group is given by its cyclic
decomposition into prime-power factors, so the whole window flattens to a
product of cyclic groups Z(m_1) x ... x Z(m_F).  Subgroups are presented by
generators and identified by a canonical lattice basis: the generators plus
the modulus relations span an integer lattice of full rank F, and the
canonical echelon basis of that lattice is the subgroup's identity card.

All coordinate indices in the public interface are 1-based and intervals are
inclusive, matching the certificate and file formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

from .errors import InputError, WindowScaleError
from .intlinalg import IntMatrix, left_kernel_basis, row_lattice_basis, solve_mixed_modulus

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


@dataclass(frozen=True)
class ComponentGroup:
    """One coordinate group, a direct sum of cyclic prime-power factors."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factor_orders", tuple(int(m) for m in self.factor_orders))
        for m in self.factor_orders:
            _prime_factor(m)

    @property
    def order(self) -> int:
        return prod(self.factor_orders) if self.factor_orders else 1

    def primes(self) -> set[int]:
        return {_prime_factor(m)[0] for m in self.factor_orders}


@dataclass(frozen=True)
class ProductWindow:
    """Coordinates 1..N, each carrying a ComponentGroup."""

    components: tuple[ComponentGroup, ...]

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, ComponentGroup) else ComponentGroup(tuple(c))
            for c in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise InputError("a window needs at least one coordinate")

    @property
    def length(self) -> int:
        return len(self.components)

    @cached_property
    def flat_orders(self) -> tuple[int, ...]:
        return tuple(m for c in self.components for m in c.factor_orders)

    @cached_property
    def coord_slices(self) -> tuple[tuple[int, int], ...]:
        """Per-coordinate (start, end) half-open slices into the flat vector."""
        slices = []
        pos = 0
        for c in self.components:
            slices.append((pos, pos + len(c.factor_orders)))
            pos += len(c.factor_orders)
        return tuple(slices)

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
        lo, hi = self.check_interval(interval)
        return ProductWindow(self.components[lo - 1 : hi])

    def element(self, residues) -> "Element":
        """Build an element from per-coordinate residue sequences.

        Residues are reduced into the canonical range [0, m).
        """
        if len(residues) != self.length:
            raise InputError(
                f"expected residues for {self.length} coordinates, got {len(residues)}"
            )
        rows = []
        for i, (coord, comp) in enumerate(zip(residues, self.components), start=1):
            if len(coord) != len(comp.factor_orders):
                raise InputError(
                    f"coordinate {i}: expected {len(comp.factor_orders)} residues, "
                    f"got {len(coord)}"
                )
            rows.append(tuple(int(r) % m for r, m in zip(coord, comp.factor_orders)))
        return Element(self, tuple(rows))

    def from_flat(self, flat) -> "Element":
        if len(flat) != self.flat_length:
            raise InputError("flat residue vector has wrong length")
        rows = []
        for start, end in self.coord_slices:
            rows.append(tuple(int(r) % m for r, m in zip(flat[start:end], self.flat_orders[start:end])))
        return Element(self, tuple(rows))

    def zero(self) -> "Element":
        return Element(self, tuple((0,) * len(c.factor_orders) for c in self.components))

    def full_subgroup(self) -> "WindowSubgroup":
        gens = []
        for i, (start, end) in enumerate(self.coord_slices):
            for f in range(start, end):
                flat = [0] * self.flat_length
                flat[f] = 1
                gens.append(self.from_flat(flat))
        return WindowSubgroup(self, gens)

    def trivial_subgroup(self) -> "WindowSubgroup":
        return WindowSubgroup(self, ())

    def primes(self) -> tuple[int, ...]:
        ps = set()
        for c in self.components:
            ps |= c.primes()
        return tuple(sorted(ps))


@dataclass(frozen=True)
class Element:
    """A point of a window: one residue per cyclic factor, grouped by coordinate."""

    window: ProductWindow
    residues: tuple[tuple[int, ...], ...]

    @cached_property
    def flat(self) -> tuple[int, ...]:
        return tuple(r for coord in self.residues for r in coord)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.flat)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """1-based coordinates where the element is nonzero."""
        return tuple(
            i for i, coord in enumerate(self.residues, start=1) if any(coord)
        )

    def support_width(self) -> int:
        s = self.support
        return (s[-1] - s[0] + 1) if s else 0

    def order(self) -> int:
        orders = [
            m // gcd(m, r)
            for r, m in zip(self.flat, self.window.flat_orders)
            if r
        ]
        return lcm(*orders) if orders else 1

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
        lo, hi = self.window.check_interval(interval)
        sub = self.window.subwindow(interval)
        return Element(sub, self.residues[lo - 1 : hi])

    def embed(self, window: ProductWindow, interval) -> "Element":
        """Zero-pad a subwindow element back into ``window`` at ``interval``."""
        lo, hi = window.check_interval(interval)
        if window.subwindow(interval) != self.window:
            raise InputError("element does not match the target interval shape")
        rows = [tuple((0,) * len(c.factor_orders)) for c in window.components]
        rows[lo - 1 : hi] = list(self.residues)
        return Element(window, tuple(rows))


def element_order(g: Element) -> int:
    """Least n >= 1 with n*g == 0, the lcm of the coordinate residue orders."""
    return g.order()


class WindowSubgroup:
    """A subgroup of a window, identified by its canonical lattice basis.

    Two subgroups are equal exactly when their canonical bases agree, so the
    class is usable as a decidable stand-in for abstract subgroup equality.
    Instances are immutable; derived data (basis, element lists, scaled
    subgroups) is cached on first use.
    """

    def __init__(self, window: ProductWindow, generators=()):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Element) or g.window != window:
                raise InputError("generators must be elements of the subgroup's window")
        self.window = window
        self.generators = gens
        self._scaled_cache: dict[int, "WindowSubgroup"] = {}
        self._elements_cache: tuple[Element, ...] | None = None

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Canonical full-rank basis of the generator lattice plus relations."""
        F = self.window.flat_length
        mods = self.window.flat_orders
        rows = [list(g.flat) for g in self.generators]
        for f in range(F):
            row = [0] * F
            row[f] = mods[f]
            rows.append(row)
        return tuple(tuple(r) for r in row_lattice_basis(rows, F))

    @cached_property
    def canonical_generators(self) -> tuple[Element, ...]:
        """Basis rows reduced modulo the factor orders, zero rows dropped."""
        out = []
        for row in self.basis:
            g = self.window.from_flat(row)
            if not g.is_zero():
                out.append(g)
        return tuple(out)

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
        total = prod(self.window.flat_orders) if self.window.flat_orders else 1
        q, r = divmod(total, covolume)
        assert r == 0
        return q

    def is_trivial(self) -> bool:
        return self.order() == 1

    def exponent(self) -> int:
        """Least n with n*g == 0 for every g in the subgroup."""
        orders = [g.order() for g in self.canonical_generators]
        return lcm(*orders) if orders else 1

    def contains(self, x: Element) -> bool:
        if x.window != self.window:
            raise InputError("element and subgroup live in different windows")
        vec = list(x.flat)
        for idx, row in enumerate(self.basis):
            pivot = row[idx]
            if vec[idx] % pivot:
                return False
            q = vec[idx] // pivot
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
        return not any(vec)

    def coset_representative(self, x: Element) -> Element:
        """Canonical representative of x modulo this subgroup."""
        if x.window != self.window:
            raise InputError("element and subgroup live in different windows")
        vec = list(x.flat)
        for idx, row in enumerate(self.basis):
            q = vec[idx] // row[idx]
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
        return self.window.from_flat(vec)

    def scaled(self, k: int) -> "WindowSubgroup":
        """The subgroup k*G = { k*g : g in G }."""
        if k < 0:
            k = -k
        got = self._scaled_cache.get(k)
        if got is None:
            got = WindowSubgroup(self.window, [g.scale(k) for g in self.canonical_generators])
            self._scaled_cache[k] = got
        return got

    def elements(self, limit: int = ENUM_LIMIT) -> tuple[Element, ...]:
        """All elements, sorted by flat residue vector.  Exact and cached."""
        if self._elements_cache is not None:
            return self._elements_cache
        n = self.order()
        if n > limit:
            raise WindowScaleError(
                f"subgroup has {n} elements, beyond the exact-scan limit {limit}"
            )
        mods = self.window.flat_orders
        gens = [g.flat for g in self.canonical_generators]
        seen = {tuple(0 for _ in mods)}
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
        widths_given = [g.support_width() for g in self.generators if not g.is_zero()]
        widths_canon = [g.support_width() for g in self.canonical_generators]
        candidates = []
        if widths_given:
            candidates.append(max(widths_given))
        if widths_canon:
            candidates.append(max(widths_canon))
        return min(candidates) if candidates else 0


def project(g: WindowSubgroup, interval) -> WindowSubgroup:
    """The image of the subgroup under projection onto a coordinate interval."""
    g.window.check_interval(interval)
    sub = g.window.subwindow(interval)
    gens = [x.restrict(interval) for x in g.canonical_generators]
    return WindowSubgroup(sub, gens)


def kernel_subgroup(g: WindowSubgroup, t) -> WindowSubgroup:
    """The subgroup { x in G : t_f divides x_f at every flat factor f }.

    One SNF left kernel of the canonical basis against the moduli t_f, taken
    over the columns with t_f != 1; each kernel vector combines basis rows
    into a member.
    """
    F = g.window.flat_length
    cols = [f for f in range(F) if t[f] != 1]
    if not cols:
        return WindowSubgroup(g.window, g.canonical_generators)
    basis = g.basis
    rows = [[basis[i][f] for f in cols] for i in range(F)]
    for j, f in enumerate(cols):
        row = [0] * len(cols)
        row[j] = t[f]
        rows.append(row)
    gens = []
    for v in left_kernel_basis(IntMatrix.from_rows(rows)):
        flat = [0] * F
        for i in range(F):
            c = v[i]
            if c:
                flat = [a + c * b for a, b in zip(flat, basis[i])]
        gens.append(g.window.from_flat(flat))
    return WindowSubgroup(g.window, gens)


def section(g: WindowSubgroup, interval) -> WindowSubgroup:
    """Members of the subgroup supported inside ``interval``, in the full window.

    The window's exponent kills every member, so this is the torsion
    subgroup for it: the kernel of the projection onto the other coordinates.
    """
    return torsion_subgroup(g, lcm(*g.window.flat_orders), interval)


def torsion_subgroup(g: WindowSubgroup, q: int, interval=None) -> WindowSubgroup:
    """The members of G killed by q and supported inside ``interval``, in one kernel.

    Without an interval this is G[q] = { x in G : q*x == 0 }.
    """
    s, e = (0, g.window.flat_length) if interval is None else g.window.flat_slice(interval)
    # q*x vanishes iff every flat residue is divisible by m_f / gcd(m_f, q)
    return kernel_subgroup(
        g, [m // gcd(m, q) if s <= f < e else m for f, m in enumerate(g.window.flat_orders)]
    )


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
        x = least_in_difference(torsion_subgroup(a, q), b_of(q).contains)
        if x is not None:
            return x
    return None


def least_in_difference(a: WindowSubgroup, inside) -> Element | None:
    """The lexicographically least member of ``a`` for which ``inside`` is false.

    ``inside`` is the membership test of a subgroup; None when all of ``a``
    passes it.  Echelon row f has its pivot d_f at flat f, so the members
    agreeing before f take the values r, r + d_f, ... there, with r the
    least.  Before the last row outside, every choice still leaves members
    outside, so r is taken.  At that row the later rows lie inside: r is kept
    unless the member so far is inside, and then r + d_f gives one outside.
    After it, r again.
    """
    window = a.window
    rows = a.basis
    last = next(
        (f for f in reversed(range(len(rows))) if not inside(window.from_flat(rows[f]))), None
    )
    if last is None:
        return None
    vec = [0] * len(rows)
    for f, row in enumerate(rows):
        k = vec[f] // row[f]
        if k:
            vec = [x - k * y for x, y in zip(vec, row)]
        if f == last and inside(window.from_flat(vec)):
            vec = [x + y for x, y in zip(vec, row)]
    return window.from_flat(vec)


def membership(x: Element, g: WindowSubgroup) -> bool:
    """True when x is an integer combination of the generators modulo the moduli."""
    return g.contains(x)


def intersect_with_sum(g: WindowSubgroup, interval) -> WindowSubgroup:
    """The members of the subgroup supported inside ``interval``.

    Same computation as ``section``; callers use this name when they mean the
    intersection with the direct sum over the interval.
    """
    return section(g, interval)


def membership_coefficients(
    x: Element, g: WindowSubgroup, *, scale: int = 1, interval=None
) -> list[int] | None:
    """Coefficients c with sum(c_j * scale * generator_j) == x, or None.

    The sum runs over the canonical generators.  With ``interval``, x lives on
    that sub-window and only the projection of the sum onto it must match.
    """
    window = g.window if interval is None else g.window.subwindow(interval)
    if x.window != window:
        raise InputError("element and subgroup live in different windows")
    gens = g.canonical_generators
    if not gens:
        return [] if x.is_zero() else None
    s, e = (0, window.flat_length) if interval is None else g.window.flat_slice(interval)
    A = IntMatrix.from_rows([[scale * gen.flat[f] for gen in gens] for f in range(s, e)])
    return solve_mixed_modulus(A, list(x.flat), list(window.flat_orders))


def combine(g: WindowSubgroup, coefficients) -> Element:
    """The combination sum(c_j * generator_j) over the canonical generators."""
    gens = g.canonical_generators
    if len(coefficients) != len(gens):
        raise InputError("one coefficient per canonical generator required")
    acc = g.window.zero()
    for c, gen in zip(coefficients, gens):
        if c:
            acc = acc + gen.scale(c)
    return acc


def span(window: ProductWindow, elements) -> WindowSubgroup:
    return WindowSubgroup(window, tuple(elements))


def solve_in_subgroup(g: WindowSubgroup, target: Element, scale: int = 1) -> Element | None:
    """Find y in the subgroup with scale*y == target, canonically chosen."""
    coeffs = membership_coefficients(target, g, scale=scale)
    return None if coeffs is None else combine(g, coeffs)
