"""Independent brute-force oracles for the test suite.

Everything here works on flat residue tuples and plain loops, sharing no code
with the library's lattice machinery, so oracle agreement is meaningful.
``enumeration_reference`` hands the library's certificate decisions to these
loops, so a certificate can be recomputed by listing elements, and
``listing_reference`` does the same for the synthesis and verify decisions,
which it takes by listing socle elements and their heights.  The library's
own decisions are reached through ``index_or_failure``, and certificate
witnesses re-checked by ``revalidate_witness``.  ``rebuilt`` copies a
library record with some fields changed.  The full-window sections, height
layers and prefix tests are the library's own as they were before sections
became local; a local one zero-padded (``embedded``) must equal them.
``least_coefficient_roots`` finds the roots of a subgroup's canonical rows
with the least coefficients by search.  ``dense_row_lattice_basis`` is the
library's echelon as it was on dense rows, and ``per_start_section_orders``
and ``per_pair_suffix_orders`` read the section and suffix orders off one
fresh dense echelon per start, as the library did before its sweeps.
``full_pair_kernel`` reads a kernel off the whole dense pair echelon, and
``separate_primary_decompose`` builds every primary part in its own
sub-window, as the library did before a one-prime part kept G's window.
"""

import inspect
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import lcm, prod
from operator import mul


def rebuilt(record, **changes):
    """A copy of ``record`` with ``changes``, made through its constructor so its checks run again."""
    fields = {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}
    return type(record)(**{**fields, **changes})


def element_presentation_margin(g):
    """The max support width over G's given and canonical generators as elements, minimized."""

    def width(x):
        support = x.support
        return support[-1] - support[0] + 1 if support else 0

    return min(
        max((width(x) for x in gens if not x.is_zero()), default=0)
        for gens in (g.generators, g.canonical_generators)
    )


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


def naive_section(span_set, slices, interval):
    """The members supported inside ``interval``: zero at every flat outside it."""
    lo, hi = interval
    s, e = slices[lo - 1][0], slices[hi - 1][1]
    return {v for v in span_set if not any(v[:s]) and not any(v[e:])}


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


def least_coefficient_roots(rows, mods, scale):
    """Each target of scale * <rows> mapped to its root with the least coefficients.

    The root of t is sum(k_j * r_j), reduced, for the lexicographically least
    k in prod [0, o_j), o_j the order of scale * r_j, with
    sum(k_j * scale * r_j) == t.  Built from the last row back: for each
    target, the least first coefficient that leaves a target the later rows
    reach, then their least coefficients for it.
    """
    zero = (0,) * len(mods)
    roots = {zero: zero}  # target -> root, over the rows taken so far
    for r in reversed(rows):
        step = [scale * a for a in r]
        wider = {}
        for k in range(naive_order(step, mods)):
            for t, y in roots.items():
                key = tuple((a + k * b) % m for a, b, m in zip(t, step, mods))
                wider.setdefault(key, tuple((a + k * b) % m for a, b, m in zip(y, r, mods)))
        roots = wider
    return roots


def unique_root_coefficients(g, scale):
    """Whether k -> sum(k_j * scale * r_j) over g's canonical rows r_j is
    injective on prod Z(o_j), o_j the order of scale * r_j: then every root's
    coefficients are unique there."""
    mods = g.window.flat_orders
    orders = [naive_order([scale * a for a in row], mods) for row in g.canonical_rows]
    return g.scaled(scale).order() == prod(orders)


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


@lru_cache(maxsize=16)
def _listed(g):
    """G's members as flat tuples, with its window's coordinate slices and moduli."""
    mods = list(g.window.flat_orders)
    slices = coord_slices([c.factor_orders for c in g.window.components])
    return naive_span([x.flat for x in g.generators], mods), slices, mods


@lru_cache(maxsize=1024)
def _listed_matched(g, i, n):
    return naive_controllability_ok(*_listed(g), i, n)


def _enum_matched(g, i, n):
    return _listed_matched(g, i, n)


def _order_failures(g, i, n):
    plen = g.window.flat_slice((1, i))[1]
    return naive_order_failures(*_order_profiles(g, n), plen)


def _enum_order_condition_holds(g, i, n):
    return not _order_failures(g, i, n)


def _enum_order_witness(g, i, cap):
    flat = _order_failures(g, i, cap)[0][1]
    return g.window.subwindow((1, cap)).from_flat(flat)


def _enum_least_outside(a, b):
    mods = list(a.window.flat_orders)
    b_set = naive_span([x.flat for x in b.generators], mods)
    a_set = naive_span([x.flat for x in a.generators], mods)
    flat = naive_least_outside(a_set, lambda o: b_set, mods)
    return None if flat is None else a.window.from_flat(flat)


@contextmanager
def enumeration_reference():
    """Certify with every matching decision and witness found by listing elements.

    Inside the block, ``groupwindows.control`` decides whether a prefix
    depth is matched at a support bound (the controllability and
    weak-observability decisions), decides the order condition, and picks
    the order-controllability, controllability, rectangularity and
    weak-observability witnesses by listing elements, as it did before it
    decided them by section orders and lattice inclusions.  The subgroups
    listed (G, its projections and sections) and the margins, windows and
    stabilization stay the library's.
    """
    from groupwindows import control

    swaps = {
        "_matched": _enum_matched,
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


# -- the listing reference for synthesis and verify -----------------------
#
# The block construction, clause (d) of the verify report and the prefix
# witness as they were decided before the height filtration: by listing
# every socle element of the arena and computing the height of each.


def _socle_dimension(g, p):
    """The dimension of G[p] over the p-element field, read off its order."""
    from groupwindows.torsion import p_valuation, socle_subgroup

    return p_valuation(socle_subgroup(g, p).order(), p)


def _listing_max_height_pick(candidates, g, inner_section, lift_section, p):
    """First lex candidate of maximal ambient height with a realizable lift."""
    from groupwindows.errors import InputError
    from groupwindows.torsion import height
    from groupwindows.window import solve_in_subgroup

    scored = [(height(z, g, p), z) for z in candidates]
    best = max(h for h, _ in scored)
    pool = [z for h, z in scored if h == best]
    for z in pool:
        if height(z, inner_section, p) != best:
            continue
        y = solve_in_subgroup(lift_section, z, scale=p**best)
        if y is not None:
            return z, best, y, True
    z = pool[0]
    y = solve_in_subgroup(lift_section, z, scale=p**best)
    if y is None:
        y = solve_in_subgroup(g, z, scale=p**best)
    if y is None:
        raise InputError("height bookkeeping is inconsistent; no lift exists")
    return z, best, y, False


def listing_synthesize_p(g, p, certificate):
    """``synthesis.synthesize_p``, picking each generator from the listed arena."""
    from groupwindows.control import HOLDS, UNDETERMINED
    from groupwindows.errors import InputError
    from groupwindows.synthesis import Block, GeneratingSet
    from groupwindows.torsion import (
        FpEchelon, is_p_group, p_valuation, socle_subgroup, socle_vector,
    )
    from groupwindows.window import project, section

    if not is_p_group(g, p):
        raise InputError("synthesis runs on p-groups; decompose mixed groups first")
    if certificate.property != "order-controllable":
        raise InputError("synthesis needs an order-controllability certificate")
    if certificate.status not in (HOLDS, UNDETERMINED):
        raise InputError("synthesis refused: the certificate reports failure")
    n_window = g.window.length
    determined = certificate.status == HOLDS
    n_sequence = {i: certificate.indices.get(i, n_window) for i in range(1, n_window + 1)}
    soc = socle_subgroup(g, p)
    total_dim = _socle_dimension(g, p)
    if total_dim == 0:
        return GeneratingSet(
            prime=p, blocks=(), socle_elements=(), generators=(), heights=(),
            n_sequence=n_sequence, determined=determined,
        )

    def projected_dim(d):
        return p_valuation(project(soc, (1, d)).order(), p)

    width = len(socle_vector(g.window.zero(), p))

    def prefix_vector(z, d):
        """The socle vector of z's [1, d]-prefix, zero-padded to the full socle width."""
        v = socle_vector(z.restrict((1, d)), p)
        return v + (0,) * (width - len(v))

    echelon = FpEchelon(p)
    xs, ys, heights, blocks = [], [], [], []
    d_prev = 0
    while len(xs) < total_dim:
        d_k = next((d for d in range(d_prev + 1, n_window + 1) if projected_dim(d) > len(xs)), None)
        if d_k is None:
            determined = False
            break
        target = projected_dim(d_k)
        n_dk = n_sequence[d_k]
        arena = socle_subgroup(section(g, (d_prev + 1, n_dk)), p)
        inner = section(g, (1, n_dk))
        below = [i for i, n in n_sequence.items() if n < d_k]
        lift_lo = (max(below) + 1) if below else 1
        lift_section = section(g, (lift_lo, n_dk)) if lift_lo > 1 else inner
        added = 0
        pool = [z for z in arena.elements() if not z.is_zero()]
        while len(xs) < target:
            candidates = [z for z in pool if any(echelon.reduce(prefix_vector(z, d_k)))]
            if not candidates:
                determined = False
                break
            z, h, y, clean = _listing_max_height_pick(candidates, g, inner, lift_section, p)
            if not clean:
                determined = False
            echelon.add(prefix_vector(z, d_k))
            xs.append(z)
            ys.append(y)
            heights.append(h)
            added += 1
        if added:
            blocks.append(Block(d=d_k, size=added))
        if len(xs) < target:
            break
        d_prev = d_k
    return GeneratingSet(
        prime=p, blocks=tuple(blocks), socle_elements=tuple(xs), generators=tuple(ys),
        heights=tuple(heights), n_sequence=n_sequence, determined=determined,
    )


def listing_verify_block_properties(gs, g):
    """``synthesis.verify_block_properties``, with clause (d) decided over the listed arena."""
    from groupwindows.synthesis import BlockReport
    from groupwindows.torsion import FpEchelon, height, socle_subgroup, socle_vector
    from groupwindows.window import WindowSubgroup, project, section

    p = gs.prime
    checks = {name: (True, "") for name in ("a", "b", "c", "d", "e", "f", "eq1")}
    soc = socle_subgroup(g, p)
    counts = gs.block_counts()
    n_window = g.window.length

    def put(name, ok, detail=""):
        if not ok:
            old_ok, old_detail = checks[name]
            checks[name] = (False, detail if old_ok else old_detail)

    d_prev = 0
    for k, block in enumerate(gs.blocks, start=1):
        d_k = block.d
        lo, hi = counts[k - 1], counts[k]
        bk = gs.socle_elements[lo:hi]
        n_dk = gs.n_sequence.get(d_k, n_window)

        ech = FpEchelon(p)
        ok_a = all(ech.add(socle_vector(x.restrict((d_prev + 1, d_k)), p)) for x in bk)
        put("a", ok_a, f"block {k}: projections on ({d_prev}, {d_k}] dependent")

        seen = [x.restrict((d_prev + 1, d_k)) for x in gs.socle_elements[:hi]]
        sub = g.window.subwindow((d_prev + 1, d_k))
        ok_b = WindowSubgroup(sub, seen) == project(soc, (d_prev + 1, d_k))
        put("b", ok_b, f"block {k}: projected socle not covered")

        pref = [x.restrict((1, d_k)) for x in gs.socle_elements[:hi]]
        subw = g.window.subwindow((1, d_k))
        spans = WindowSubgroup(subw, pref) == project(soc, (1, d_k))
        ech = FpEchelon(p)
        indep = all(ech.add(socle_vector(x, p)) for x in pref)
        put("c", spans and indep, f"block {k}: prefix projections not a basis")
        put("eq1", spans, f"block {k}: projected socle differs from projected span")

        arena = socle_subgroup(section(g, (d_prev + 1, n_dk)), p)
        ech = FpEchelon(p)
        for x in gs.socle_elements[:lo]:
            ech.add(socle_vector(x.restrict((1, d_k)), p))
        heights = {}
        prev_h = None
        for j in range(lo, hi):
            x = gs.socle_elements[j]
            ok_member = arena.contains(x) and x.order() == p
            h = height(x, g, p) if ok_member else -1
            candidates = [
                z for z in arena.elements()
                if not z.is_zero() and any(ech.reduce(socle_vector(z.restrict((1, d_k)), p)))
            ]
            for z in candidates:
                if z.flat not in heights:
                    heights[z.flat] = height(z, g, p)
            best = max((heights[z.flat] for z in candidates), default=-1)
            ok_mono = prev_h is None or h <= prev_h
            prev_h = h
            ech.add(socle_vector(x.restrict((1, d_k)), p))
            ok_d = ok_member and h == gs.heights[j] and h == best and ok_mono
            put("d", ok_d, f"generator {j + 1}: membership/height/maximality violated")

        inner = section(g, (1, n_dk))
        for j in range(lo, hi):
            x, y, h = gs.socle_elements[j], gs.generators[j], gs.heights[j]
            ok_e = (
                y.scale(p**h).flat == x.flat
                and inner.contains(y)
                and all(gs.n_sequence.get(i, n_window) >= d_k for i in y.support)
            )
            put("e", ok_e, f"generator {j + 1}: lift clause violated")
        d_prev = d_k

    if gs.blocks:
        d_last = gs.blocks[-1].d
        ech = FpEchelon(p)
        indep_all = all(ech.add(socle_vector(x, p)) for x in gs.socle_elements)
        if d_last < n_window:
            tail = socle_subgroup(section(g, (d_last + 1, n_window)), p)
        else:
            tail = g.window.trivial_subgroup()
        covers = WindowSubgroup(g.window, list(gs.socle_elements) + list(tail.canonical_generators)) == soc
        tail_dim = _socle_dimension(tail, p) if not tail.is_trivial() else 0
        split = len(gs.socle_elements) + tail_dim == _socle_dimension(g, p)
        put("f", indep_all and covers and split, "socle does not split as blocks plus tail")
    return BlockReport(checks=checks)


@contextmanager
def listing_reference():
    """Synthesize and verify by listing socle elements.

    Inside the block, ``synthesis.synthesize_p`` and ``verify_block_properties``
    (in ``synthesis`` and in ``cli``) are the listing versions above, as they
    were before the height filtration.
    """
    from groupwindows import cli, synthesis

    swaps = [
        (synthesis, "synthesize_p", listing_synthesize_p),
        (synthesis, "verify_block_properties", listing_verify_block_properties),
        (cli, "verify_block_properties", listing_verify_block_properties),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    for module, name, fn in swaps:
        setattr(module, name, fn)
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


# -- the dense echelon and the per-start order tables ---------------------
#
# ``row_lattice_basis`` as it was before it eliminated sparse rows, and the
# section and suffix orders as they were read before the sweeps: one fresh
# echelon per start coordinate, and one per (q, start) pair.


def _dense_xgcd(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
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


def dense_row_lattice_basis(rows, width, mods=()):
    """Canonical echelon basis of the lattice of ``rows`` and the relations
    m_f e_f, on dense rows: the relations come after the rows, each reduced
    from its own column f, then every entry above a pivot is reduced."""
    from groupwindows.errors import InputError

    basis = {}  # pivot column -> row
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
                x, y, g = _dense_xgcd(p, b)
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


def per_start_section_orders(g, a):
    """|G_[a,b]| for b = a - 1, ..., N, from a fresh echelon, by last
    nonzero entry, of G's basis rows from the first flat s of coordinate a
    on: the running products of m_f / d_f."""
    starts = g.window.coord_starts
    s = starts[a - 1]
    mods = g.window.flat_orders[s:]
    ends = dense_row_lattice_basis([row[s:][::-1] for row in g.basis[s:]], len(mods))
    # reversed, row k of the echelon ends at flat s + k
    ratios = (m // row[-1 - k] for k, (m, row) in enumerate(zip(mods, reversed(ends))))
    table = list(accumulate(ratios, mul, initial=1))
    return [1] + [table[starts[b] - s] for b in range(a, g.window.length + 1)]


def per_pair_suffix_orders(g, q, a):
    """|(q G_[a,N])_[b,N]| for b = 1, ..., N + 1, from a fresh echelon of q
    times G's basis rows from a's first flat on, with the relations: the
    products of m_f / d_f over the flats of [b, N]."""
    starts = g.window.coord_starts
    mods = g.window.flat_orders
    rows = [[q * x for x in row] for row in g.basis[starts[a - 1] :]]
    basis = dense_row_lattice_basis(rows, len(mods), mods)
    ratios = [m // row[f] for f, (m, row) in enumerate(zip(mods, basis))]
    return [prod(ratios[starts[b - 1] :]) for b in range(1, g.window.length + 2)]


def full_pair_kernel(g, t):
    """``kernel_subgroup``'s canonical basis as it was read before its echelon
    kept only the kernel's half: the last F rows of the whole dense echelon of
    width 2F over the pairs (b | b) and (t_f e_f | 0), cut to their second half."""
    F = g.window.flat_length
    pairs = dense_row_lattice_basis([list(b) * 2 for b in g.basis], 2 * F, t)
    return tuple(tuple(row[F:]) for row in pairs[F:])


def separate_primary_decompose(g):
    """``primary_decompose`` as it was before a one-prime group's part kept
    G's window: every part in a fresh sub-window, given by G's canonical rows
    cut to its factors, with G's basis rows at those factors as its basis."""
    from groupwindows.torsion import PrimaryDecomposition, PrimaryPart
    from groupwindows.window import ProductWindow, WindowSubgroup

    window, order = g.window, g.order()
    primes = tuple(p for p in window.primes() if order % p == 0)
    parts = []
    for p in primes:
        shapes = [tuple(m for m in comp.factor_orders if m % p == 0) for comp in window.components]
        coords = tuple(i for i, shape in enumerate(shapes, start=1) if shape)
        flats = tuple(f for f, m in enumerate(window.flat_orders) if m % p == 0)
        sub_window = ProductWindow(tuple(shapes[i - 1] for i in coords))
        rows = [tuple(row[f] for f in flats) for row in g.canonical_rows]
        basis = tuple(tuple(g.basis[f][k] for k in flats) for f in flats)
        parts.append(PrimaryPart(p, coords, sub_window, WindowSubgroup.from_rows(sub_window, rows, basis), flats))
    return PrimaryDecomposition(window, primes, tuple(parts))


# -- the full-window reference for local sections ------------------------
#
# A section, a height layer and the prefix test of synthesis as they were
# computed before they became local: in G's full window, one relation row
# m_f e_f per flat outside the interval.  These use the library's echelon,
# because what they check is where the rows go, not the echelon itself.


def full_window_section(g, interval):
    """The members of G supported inside ``interval``, in G's full window."""
    from groupwindows.intlinalg import row_lattice_basis
    from groupwindows.window import WindowSubgroup

    F = g.window.flat_length
    s, e = g.window.flat_slice(interval)
    inner = g.basis[s:]
    if e < F:
        moved = row_lattice_basis([row[e:] + row[s:e] for row in g.basis[s:]], F - s)
        inner = [(0,) * s + tuple(row[F - e :]) + (0,) * (F - e) for row in moved[F - e :]]
    basis = tuple(
        inner[f - s] if s <= f < e else tuple(m if k == f else 0 for k in range(F))
        for f, m in enumerate(g.window.flat_orders)
    )
    return WindowSubgroup.from_rows(g.window, basis, basis)


def full_window_height_layer(g, p, h, interval):
    """G[p] ∩ p^h G, its members supported inside ``interval``, in G's full window."""
    from groupwindows.window import torsion_subgroup

    return full_window_section(torsion_subgroup(g.scaled(p**h), p), interval)


def full_window_prefix_in_span(echelon, coords, w):
    """Synthesis's prefix test on a full-window socle row."""
    return lambda row: not any(echelon.reduce([row[f] // half for f, half in coords])[:w])


def embedded(local, window, interval):
    """A subgroup of ``window.subwindow(interval)`` zero-padded into ``window``, its rows kept as they are."""
    from groupwindows.window import WindowSubgroup

    if local.window != window.subwindow(interval):
        raise ValueError("the subgroup does not live on the interval's sub-window")
    F = window.flat_length
    s, e = window.flat_slice(interval)
    rows = [tuple(m if k == f else 0 for k in range(F)) for f, m in enumerate(window.flat_orders)]
    rows[s:e] = [(0,) * s + tuple(row) + (0,) * (F - e) for row in local.basis]
    return WindowSubgroup.from_rows(window, rows, tuple(rows))


def _reference_place(window, placements):
    from groupwindows.errors import InputError

    rows = [list((0,) * len(c.factor_orders)) for c in window.components]
    for coord, residues in placements:
        comp = window.components[coord - 1]
        if len(residues) != len(comp.factor_orders):
            raise InputError(
                f"coordinate {coord}: expected {len(comp.factor_orders)} residues, "
                f"got {len(residues)}"
            )
        rows[coord - 1] = [int(r) for r in residues]
    return window.element(rows)


def reference_unroll(template, n):
    """``templates.unroll_template`` as it was before it wrote flat rows.

    Every generator is built coordinate by coordinate through
    ``ProductWindow.element``, which reduces the residues, and the group is
    ``WindowSubgroup(window, gens)``; the order of the generators and the
    skipped instances are the library's contract.
    """
    from groupwindows import WindowSubgroup
    from groupwindows.errors import InputError
    from groupwindows.templates import UnrollResult

    window = template.window(n)
    for fg in template.fixed_generators:
        if fg.max_coordinate() > n:
            raise InputError(
                f"window length {n} is smaller than a fixed generator support "
                f"reaching coordinate {fg.max_coordinate()}"
            )
    gens = [_reference_place(window, fg.support) for fg in template.fixed_generators]
    skipped, instances = [], []
    for idx, sg in enumerate(template.shifted_generators):
        for start in range(sg.start, n + 1, sg.stride):
            if start + sg.max_offset() > n:
                skipped.append((f"shifted[{idx}]", start))
            else:
                instances.append((start, idx, sg))
    instances.sort(key=lambda t: (t[0], t[1]))
    for start, _idx, sg in instances:
        gens.append(_reference_place(window, [(start + off, res) for off, res in sg.pattern]))
    return UnrollResult(window=window, group=WindowSubgroup(window, gens), skipped=tuple(skipped))


def index_or_failure(g, i, cap, order=False):
    """``control``'s least support bound n in [i, cap] for prefix depth i.

    Returns (n, None, None), or (None, witness, context) from ``control._failure``
    when no bound up to cap serves; with ``order`` the bound must also pass the
    order condition of order controllability.
    """
    from groupwindows import control

    n = control._index(g, i, cap, order=order)
    if n is not None:
        return n, None, None
    return (None, *control._failure(g, i, cap, order))


def revalidate_witness(cert, g):
    """Re-run the defining check of the certificate's property on its witness alone."""
    from groupwindows.errors import InputError
    from groupwindows.window import project, section, torsion_subgroup

    if cert.witness is None:
        return False
    w = cert.witness
    if cert.property == "rectangular":
        if g.contains(w):
            return False
        for i in range(1, g.window.length + 1):
            if not project(g, (i, i)).contains(w.restrict((i, i))):
                return False
        return True
    if cert.property == "weakly-observable":
        depth = cert.witness_context["depth"]
        inner = w.restrict((1, depth))
        return project(g, (1, depth)).contains(inner) and not project(
            section(g, (1, depth)), (1, depth)
        ).contains(inner)
    if cert.property in ("controllable", "weakly-controllable"):
        i, n = cert.witness_context["i"], cert.witness_context["n"]
        if not g.contains(w):
            return False
        prefix = w.restrict((1, i))
        return not project(section(g, (1, n)), (1, i)).contains(prefix)
    if cert.property == "order-controllable":
        i, n = cert.witness_context["i"], cert.witness_context["n"]
        if not g.contains(w):
            return False
        # valid iff no member supported in [1, n] of order dividing that of
        # w|[1,n] shares its [1, i]-prefix
        proj = w.restrict((1, n))
        offers = torsion_subgroup(project(section(g, (1, n)), (1, n)), proj.order())
        return not project(offers, (1, i)).contains(proj.restrict((1, i)))
    raise InputError(f"unknown certificate property {cert.property!r}")
