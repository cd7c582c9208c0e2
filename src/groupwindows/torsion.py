"""p-primary structure of window subgroups.

Socles as F_p row spaces, heights and their layers, and the decomposition of
a mixed-order subgroup into its p-parts.  The socle G[p] is the subgroup of
elements killed by p, a vector space over the p-element field; the height of
a nonzero x in a p-group counts how often x can be divided by p inside the
group.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

from .errors import InputError
from .record import Frozen, store
from .window import Element, ProductWindow, WindowSubgroup, local_section, prime_power, torsion_subgroup


def _check_prime(p: int):
    if prime_power(p) != (p, 1):
        raise InputError(f"{p} is not prime")


def p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_p_group(g: WindowSubgroup, p: int) -> bool:
    e = g.exponent()
    return e == p ** p_valuation(e, p)


def socle_subgroup(g: WindowSubgroup, p: int) -> WindowSubgroup:
    """The subgroup { x in G : p*x == 0 }."""
    _check_prime(p)
    return torsion_subgroup(g, p)


def _socle_coordinates(window: ProductWindow, p: int):
    """Flat factor positions with p dividing the modulus, and their half-moduli."""
    return [(f, m // p) for f, m in enumerate(window.flat_orders) if m % p == 0]


def socle_vector(x: Element, p: int) -> tuple[int, ...]:
    """Coordinates of an order-dividing-p element over the p-element field."""
    if any(p * r % m for r, m in zip(x.flat, x.window.flat_orders)):
        raise InputError("element is not killed by p")
    return tuple(x.flat[f] // half for f, half in _socle_coordinates(x.window, p))


class FpEchelon:
    """A row space over the p-element field, kept in reduced row echelon form.

    Vectors all have one length.  Each row's pivot is its first nonzero
    entry, 1, and every other row is 0 there; so the rows with a pivot below
    w, cut to their first w entries, are a basis of the span cut to them
    (``rank_below``).
    """

    def __init__(self, p: int, vectors=()):
        self.p = p
        self.rows: dict[int, list[int]] = {}  # pivot column -> row, 1 there
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec) -> list[int]:
        """The residue of ``vec`` modulo the span, zero at every pivot column."""
        p = self.p
        v = [a % p for a in vec]
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Add ``vec`` to the span; return whether it was independent."""
        v = self.reduce(vec)
        piv = next((j for j, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        v = [(a * inv) % self.p for a in v]
        for j, row in self.rows.items():
            c = row[piv]
            if c:
                self.rows[j] = [(a - c * b) % self.p for a, b in zip(row, v)]
        self.rows[piv] = v
        return True

    def rank_below(self, w: int) -> int:
        """The dimension of the span cut to its first w entries: the pivots below w."""
        return sum(piv < w for piv in self.rows)

    @property
    def basis(self) -> list[list[int]]:
        """The canonical reduced row echelon basis, rows ordered by pivot."""
        return [self.rows[j] for j in sorted(self.rows)]


def socle_echelon(g: WindowSubgroup, p: int) -> FpEchelon:
    """The socle G[p] as the span of its socle vectors."""
    return FpEchelon(p, (socle_vector(x, p) for x in socle_subgroup(g, p).canonical_generators))


def height(x: Element, g: WindowSubgroup, p: int) -> int:
    """Largest n such that p**n * y == x is solvable with y in the group.

    Defined for nonzero members of a p-group; zero is rejected because no
    finite value is faithful for it.
    """
    _check_prime(p)
    if x.is_zero():
        raise InputError("height of the zero element is undefined")
    if not g.contains(x):
        raise InputError("element does not belong to the subgroup")
    if not is_p_group(g, p):
        raise InputError("heights are defined inside p-groups")
    h = 0
    while g.scaled(p ** (h + 1)).contains(x):
        h += 1
    return h


def height_layer(g: WindowSubgroup, p: int, h: int, interval=None) -> WindowSubgroup:
    """L_h = G[p] ∩ p^h G: the socle elements of height at least h; with
    ``interval``, those supported there, in its sub-window (``local_section``)."""
    layer = torsion_subgroup(g.scaled(p**h), p)
    return layer if interval is None else local_section(layer, interval)


class HeightLayers(Sequence):
    """The layers L_0 ⊇ L_1 ⊇ ... inside ``interval``, for h < v where exp(G) = p^v.

    No socle element has height v or more; layer 0, the socle, is always there.
    Each layer is a subgroup of the interval's sub-window, built on first
    read; a bad interval raises at once.
    """

    def __init__(self, g: WindowSubgroup, p: int, interval):
        g.window.check_interval(interval)
        self._range = range(max(p_valuation(g.exponent(), p), 1))
        self._build = cache(lambda h: height_layer(g, p, h, interval))

    def __len__(self):
        return len(self._range)

    def __getitem__(self, h: int) -> WindowSubgroup:
        return self._build(self._range[h])

    def highest(self, find):
        """(h, find(self[h])) for the largest h where ``find`` gives a value, else (-1, None).

        ``find`` reads a wanted member off a layer, or None; the layers are
        nested, so the first layer from the top with one holds the members
        of maximal height.
        """
        for h in reversed(self._range):
            found = find(self[h])
            if found is not None:
                return h, found
        return -1, None


class PrimaryPart(Frozen, fields=("prime", "coordinates", "window", "subgroup", "flat_positions")):
    """One p-part: the coordinates kept, the sub-window, and the image group."""

    def __init__(
        self,
        prime: int,
        coordinates: tuple[int, ...],  # 1-based coordinates with a p-power factor
        window: ProductWindow,
        subgroup: WindowSubgroup,
        # flat positions in the parent window, one per flat factor of the part
        flat_positions: tuple[int, ...],
    ):
        store(self, "prime", prime)
        store(self, "coordinates", coordinates)
        store(self, "window", window)
        store(self, "subgroup", subgroup)
        store(self, "flat_positions", flat_positions)

    def embed(self, x: Element, parent: ProductWindow) -> Element:
        """Zero-pad a part element back into the parent window."""
        if x.window != self.window:
            raise InputError("element does not belong to this primary part")
        flat = [0] * parent.flat_length
        for pos, r in zip(self.flat_positions, x.flat):
            flat[pos] = r
        return parent.from_flat(flat)

    def restrict(self, x: Element) -> Element:
        """Project a parent-window element onto this part."""
        return self.window.from_flat([x.flat[pos] for pos in self.flat_positions])


class PrimaryDecomposition(Frozen, fields=("window", "primes", "parts")):
    def __init__(self, window: ProductWindow, primes: tuple[int, ...], parts: tuple[PrimaryPart, ...]):
        store(self, "window", window)
        store(self, "primes", primes)
        store(self, "parts", parts)

    def part(self, p: int) -> PrimaryPart:
        for part in self.parts:
            if part.prime == p:
                return part
        raise InputError(f"no primary part for prime {p}")


def primary_decompose(g: WindowSubgroup) -> PrimaryDecomposition:
    """Split the subgroup into its p-parts along the prime-power factors.

    Every flat factor has prime-power order, so the p-part of an element is
    its restriction to the p-power factors.  The part groups multiply back to
    the original order.  G's lattice is the product of the parts' lattices
    over disjoint factors, so its canonical basis is theirs interleaved: a
    part's basis is G's rows with a pivot at a p-power factor, cut to those.
    A part is given by its canonical rows.  When p owns every flat of every
    coordinate, the part is G so given, in G's own window and with G's
    lattice caches (``WindowSubgroup.canonically_presented``): no echelon
    runs for it again.
    """
    window = g.window
    order = g.order()
    primes = tuple(p for p in window.primes() if order % p == 0)
    parts = []
    for p in primes:
        shapes = [tuple(m for m in comp.factor_orders if m % p == 0) for comp in window.components]
        coords = tuple(i for i, shape in enumerate(shapes, start=1) if shape)
        flats = tuple(f for f, m in enumerate(window.flat_orders) if m % p == 0)
        if len(coords) == window.length and len(flats) == window.flat_length:
            parts.append(PrimaryPart(p, coords, window, g.canonically_presented(), flats))
            continue
        sub_window = ProductWindow(tuple(shapes[i - 1] for i in coords))
        rows = [tuple(row[f] for f in flats) for row in g.canonical_rows]
        basis = tuple(tuple(g.basis[f][k] for k in flats) for f in flats)
        parts.append(
            PrimaryPart(
                prime=p,
                coordinates=coords,
                window=sub_window,
                subgroup=WindowSubgroup.from_rows(sub_window, rows, basis),
                flat_positions=flats,
            )
        )
    return PrimaryDecomposition(window=window, primes=primes, parts=tuple(parts))
