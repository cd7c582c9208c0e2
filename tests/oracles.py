"""Independent brute-force oracles for the test suite.

Everything here works on flat residue tuples and plain loops, sharing no code
with the library's lattice machinery, so oracle agreement is meaningful.
``enumeration_reference`` hands the library's certificate decisions to these
loops, so a certificate can be recomputed by listing elements.
"""

from contextlib import contextmanager
from functools import lru_cache
from math import lcm, prod


def flat_mods(components):
    return [m for comp in components for m in comp]


def coord_slices(components):
    out = []
    pos = 0
    for comp in components:
        out.append((pos, pos + len(comp)))
        pos += len(comp)
    return out


def naive_order(flat, mods):
    k = 1
    while any((k * r) % m for r, m in zip(flat, mods)):
        k += 1
    return k


def naive_span(gens, mods):
    """All elements generated by the given flat vectors, as a set of tuples."""
    zero = tuple(0 for _ in mods)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % m for a, b, m in zip(v, g, mods))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def support(flat, slices):
    out = []
    for i, (s, e) in enumerate(slices, start=1):
        if any(flat[s:e]):
            out.append(i)
    return out


def naive_section(span_set, slices, interval):
    lo, hi = interval
    return {
        v for v in span_set if all(lo <= c <= hi for c in support(v, slices))
    }


def naive_project(span_set, slices, interval):
    lo, hi = interval
    s, e = slices[lo - 1][0], slices[hi - 1][1]
    return {v[s:e] for v in span_set}


def naive_socle(span_set, mods, p):
    return {v for v in span_set if all((p * r) % m == 0 for r, m in zip(v, mods))}


def naive_height(x, span_set, mods, p):
    h = 0
    while True:
        target = p ** (h + 1)
        if any(tuple((target * r) % m for r, m in zip(y, mods)) == tuple(x) for y in span_set):
            h += 1
        else:
            return h


def naive_membership(x, gens, mods):
    return tuple(x) in naive_span(gens, mods)


def naive_controllability_ok(span_set, slices, mods, i, n):
    """Direct quantifier: every [1,i]-prefix is matched inside support [1,n]."""
    s, e = slices[0][0], slices[i - 1][1]
    prefixes = {v[s:e] for v in span_set}
    sect = naive_section(span_set, slices, (1, n))
    reachable = {v[s:e] for v in sect}
    return prefixes <= reachable


def naive_order_controllability_ok(span_set, slices, mods, i, n):
    """Direct quantifier with the order-divisibility requirement."""
    pe = slices[i - 1][1]
    ne = slices[n - 1][1]
    sub_mods = mods[:ne]
    sect = naive_section(span_set, slices, (1, n))
    for c in span_set:
        w = c[:ne]
        ok = False
        for z in sect:
            if z[:pe] == c[:pe] and naive_order(w, sub_mods) % naive_order(z, sub_mods) == 0:
                ok = True
                break
        if not ok:
            return False
    return True


def naive_exponent(span_set, mods):
    return lcm(*[naive_order(v, mods) for v in span_set]) if span_set else 1


def naive_isomorphic_encoder(gens, orders, group_gens, mods):
    """Is k -> sum(k_m * y_m) a bijective homomorphism from prod Z(o_m) onto the group?

    Exhaustive: the map is well defined when o_m * y_m, added up term by
    term, vanishes; it is bijective when every coefficient vector has its own
    image and the images are exactly the group's elements.
    """
    for y, o in zip(gens, orders):
        acc = tuple(0 for _ in mods)
        for _ in range(o):
            acc = tuple((a + b) % m for a, b, m in zip(acc, y, mods))
        if any(acc):
            return False
    group = naive_span(group_gens, mods)
    size = prod(orders)
    if size != len(group):
        return False
    images = {tuple(0 for _ in mods)}
    for y, o in zip(gens, orders):
        multiples = [tuple((k * r) % m for r, m in zip(y, mods)) for k in range(o)]
        images = {
            tuple((a + b) % m for a, b, m in zip(v, w, mods))
            for v in images
            for w in multiples
        }
    return len(images) == size and images == group


def naive_least_outside(a_set, b_of, mods):
    """The (order, flat)-least v of a_set outside b_of(order of v), or None."""
    avoid = {}
    outside = []
    for v in a_set:
        o = naive_order(v, mods)
        if o not in avoid:
            avoid[o] = b_of(o)
        if v not in avoid[o]:
            outside.append((o, v))
    return min(outside)[1] if outside else None


def naive_order_failures(proj, sect, plen):
    """(order, flat) of each projection with no companion, sorted.

    ``proj`` and ``sect`` list (flat, order) for the projections onto [1, n]
    of all members and of the members supported in [1, n].  A companion of a
    projection is one of the latter sharing its first ``plen`` flats, with an
    order dividing the projection's.
    """
    offers = {}
    for z, d in sect:
        offers.setdefault(z[:plen], set()).add(d)
    failing = [
        (o, w) for w, o in proj if not any(o % d == 0 for d in offers.get(w[:plen], ()))
    ]
    return sorted(failing)


# -- the enumeration reference for certificates ---------------------------


@lru_cache(maxsize=16)
def _order_profiles(g, n):
    """(flat, order) over P_n and S_n, listed from the library's projections."""
    from groupwindows import project, section

    mods = list(g.window.subwindow((1, n)).flat_orders)
    listed = []
    for h in (project(g, (1, n)), project(section(g, (1, n)), (1, n))):
        members = naive_span([x.flat for x in h.generators], mods)
        listed.append([(v, naive_order(v, mods)) for v in members])
    return listed


def _order_failures(scans, i, n):
    plen = scans.g.window.flat_slice((1, i))[1]
    return naive_order_failures(*_order_profiles(scans.g, n), plen)


def _enum_order_condition_holds(scans, i, n):
    return not _order_failures(scans, i, n)


def _enum_order_witness(scans, i, cap):
    flat = _order_failures(scans, i, cap)[0][1]
    return scans.g.window.subwindow((1, cap)).from_flat(flat)


def _enum_least_outside(a, b):
    mods = list(a.window.flat_orders)
    b_set = naive_span([x.flat for x in b.generators], mods)
    a_set = naive_span([x.flat for x in a.generators], mods)
    flat = naive_least_outside(a_set, lambda o: b_set, mods)
    return None if flat is None else a.window.from_flat(flat)


@contextmanager
def enumeration_reference():
    """Certify with every order condition and witness found by listing elements.

    Inside the block, ``groupwindows.control`` decides the order condition
    and picks the order-controllability, controllability, rectangularity and
    weak-observability witnesses by listing elements, as it did before it
    decided them by lattice inclusions.  The subgroups listed (projections
    and sections) and the margins, windows and stabilization stay the
    library's.
    """
    from groupwindows import control

    swaps = {
        "_order_condition_holds": _enum_order_condition_holds,
        "_order_witness": _enum_order_witness,
        "least_outside": _enum_least_outside,
    }
    saved = {name: getattr(control, name) for name in swaps}
    for name, fn in swaps.items():
        setattr(control, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(control, name, fn)


class Lattice:
    """Echelon basis of the span of ``gens`` and every m_f * e_f, for membership.

    An integer-lattice check independent of the library: it decides
    membership in subgroups too large to list.
    """

    def __init__(self, mods, gens):
        self.mods = list(mods)
        width = len(self.mods)
        self.rows = [[m if k == f else 0 for k in range(width)] for f, m in enumerate(self.mods)]
        for v in gens:
            self._insert([x % m for x, m in zip(v, self.mods)])

    def _insert(self, v):
        for f in range(len(self.mods)):
            if v[f] == 0:
                continue
            piv = self.rows[f]
            x, y, g = _xgcd(piv[f], v[f])
            a, b = piv[f] // g, v[f] // g
            self.rows[f] = [(x * p + y * q) % m for p, q, m in zip(piv, v, self.mods)]
            v = [(a * q - b * p) % m for p, q, m in zip(piv, v, self.mods)]

    def contains(self, w):
        w = [x % m for x, m in zip(w, self.mods)]
        for f, row in enumerate(self.rows):
            k, r = divmod(w[f], row[f])
            if r:
                return False
            w = [(a - k * b) % m for a, b, m in zip(w, row, self.mods)]
        return True


def _xgcd(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        k, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return x0, y0, a
