"""Independent brute-force oracles for the test suite.

Everything here works on flat residue tuples and plain loops, sharing no code
with the library's lattice machinery, so oracle agreement is meaningful.
"""

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
