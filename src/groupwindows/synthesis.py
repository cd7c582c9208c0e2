"""Block-structured generating sets and homomorphic encoders.

For an order-controllable p-group on a window the construction walks the
coordinate axis, collecting at each stage a block of socle elements whose
prefix projections extend the part already built to a basis, each taken of
maximal height and each divided down from a finite-support generator:

* block boundaries d_1 < d_2 < ... are the depths where the projected socle
  gains dimension,
* block k consists of socle elements x_j supported in (d_{k-1}, n_{d_k}],
  prefix-independent from their predecessors, of maximal height h_j,
* every x_j lifts as x_j = p^{h_j} y_j with y_j supported in [1, n_{d_k}]
  and vanishing on every coordinate i whose matching index n_i is below the
  block boundary.

The y_j form a generating set with finite support; summing coefficient
sequences against them is a homomorphism from a product of cyclic groups of
orders p^{h_j + 1} onto the group, and at window scale the cardinality and
spanning checks decide exactly whether it is an isomorphism.
"""

from __future__ import annotations

from math import prod
from typing import Mapping, Optional

from .control import (
    Certificate,
    HOLDS,
    UNDETERMINED,
    _resolve_margin,
    order_controllability_certificate,
)
from .errors import InputError, UndeterminedAtWindowError
from .record import Frozen, store
from .torsion import (
    FpEchelon,
    HeightLayers,
    PrimaryDecomposition,
    _socle_coordinates,
    height,
    height_layer,
    is_p_group,
    primary_decompose,
    socle_echelon,
    socle_vector,
)
from .window import (
    ComponentGroup,
    Element,
    ProductWindow,
    WindowSubgroup,
    least_in_difference,
    least_with_prefix,
    local_section,
    solve_in_subgroup,
)


class Block(Frozen, fields=("d", "size")):
    """One synthesis stage: boundary depth d and how many generators it added."""

    def __init__(self, d: int, size: int):
        store(self, "d", d)
        store(self, "size", size)


class GeneratingSet(Frozen):
    """The synthesis output for one prime."""

    def __init__(
        self,
        prime: int,
        blocks: tuple[Block, ...],
        socle_elements: tuple[Element, ...],  # x_m, order p, finite support
        generators: tuple[Element, ...],  # y_m with x_m == p^h_m * y_m
        heights: tuple[int, ...],
        n_sequence: dict,
        determined: bool = True,
    ):
        store(self, "prime", prime)
        store(self, "blocks", blocks)
        store(self, "socle_elements", socle_elements)
        store(self, "generators", generators)
        store(self, "heights", heights)
        store(self, "n_sequence", n_sequence)
        store(self, "determined", determined)
        if not (len(socle_elements) == len(generators) == len(heights)):
            raise InputError("generating set fields disagree on the generator count")
        if any(b.size < 1 for b in blocks) or sum(b.size for b in blocks) != len(generators):
            raise InputError("blocks must each add a generator and together list them all")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.prime ** (h + 1) for h in self.heights)

    def block_counts(self) -> list[int]:
        """Cumulative generator counts m(k), with m(0) == 0."""
        counts = [0]
        for b in self.blocks:
            counts.append(counts[-1] + b.size)
        return counts


def _socle_widths(window, p: int):
    """The socle coordinates, and w(d) for d = 0..N: how many of them lie on [1, d]."""
    coords = _socle_coordinates(window, p)
    return coords, [sum(f < end for f, _ in coords) for end in window.coord_starts]


def _prefix_in_span(echelon: FpEchelon, coords, w: int, flats):
    """The test whether a socle row's first w socle coordinates lie in the echelon's span cut there.

    The row is a member of a local section on the flats [s, e): its socle
    coordinates outside are 0, and so are taken those from w on, which
    leave the echelon's residue before w as it is.
    """
    s, e = flats
    head = sum(f < s for f, _ in coords)
    cut = [(f - s, half) for f, half in coords[head:w] if f < e]
    zeros, tail = [0] * head, [0] * (len(coords) - head - len(cut))
    return lambda row: not any(echelon.reduce(zeros + [row[f] // half for f, half in cut] + tail)[:w])


def _root(sec: WindowSubgroup, interval, z: Element, scale: int) -> Optional[Element]:
    """A y in the local section ``sec`` on ``interval`` with scale*y == z, in z's window; else None.

    scale*y vanishes outside the interval, so z must too; the root is solved
    at the interval's width and zero-padded back.
    """
    s, e = z.window.flat_slice(interval)
    if any(z.flat[:s]) or any(z.flat[e:]):
        return None
    y = solve_in_subgroup(sec, z.restrict(interval), scale=scale)
    return None if y is None else y.embed(z.window, interval)


def synthesize_p(
    g: WindowSubgroup, p: int, certificate: Certificate
) -> GeneratingSet:
    """Run the block construction for a p-group window subgroup.

    Needs an order-controllability certificate; a holding certificate with
    indices covering the block boundaries gives a fully determined result.
    Indices past the certified range fall back to the window length and mark
    the result undetermined, as does any block the window cannot complete.
    """
    if not is_p_group(g, p):
        raise InputError("synthesis runs on p-groups; decompose mixed groups first")
    if certificate.property != "order-controllable":
        raise InputError("synthesis needs an order-controllability certificate")
    if certificate.status not in (HOLDS, UNDETERMINED):
        raise InputError("synthesis refused: the certificate reports failure")

    n_window = g.window.length
    determined = certificate.status == HOLDS
    n_sequence: dict[int, int] = {}
    for i in range(1, n_window + 1):
        # beyond the certified range the window length itself is a valid
        # support bound; the certificate's stabilization flags carry the
        # family-level caveat
        n_sequence[i] = certificate.indices.get(i, n_window)

    soc = socle_echelon(g, p)
    if not soc.rows:
        return GeneratingSet(
            prime=p, blocks=(), socle_elements=(), generators=(), heights=(),
            n_sequence=n_sequence, determined=determined,
        )

    coords, widths = _socle_widths(g.window, p)
    echelon = FpEchelon(p)
    xs: list[Element] = []
    ys: list[Element] = []
    heights: list[int] = []
    blocks: list[Block] = []
    d_prev = 0
    while len(xs) < len(soc.rows):
        d_k = None
        for d in range(d_prev + 1, n_window + 1):
            target = soc.rank_below(widths[d])
            if target > len(xs):
                d_k = d
                break
        if d_k is None:
            determined = False
            break
        n_dk = n_sequence[d_k]
        arena = (d_prev + 1, n_dk)  # where the block's socle elements are supported
        layers = HeightLayers(g, p, arena)
        below = [i for i, n in n_sequence.items() if n < d_k]
        lift = ((max(below) + 1) if below else 1, n_dk)  # where their lifts are supported
        lift_section = local_section(g, lift)
        inside = _prefix_in_span(echelon, coords, widths[d_k], g.window.flat_slice(arena))
        added = 0
        while len(xs) < target:
            # the candidates are the arena members with a prefix outside the
            # span; take the least of maximal height, preferring one that
            # divides by p^h inside the lift section
            h, z = layers.highest(lambda layer: least_in_difference(layer, inside))
            if h < 0:
                determined = False
                break
            scale = p**h
            z = z.embed(g.window, arena)
            y = _root(lift_section, lift, z, scale)
            if y is None:
                # the arena's part inside the lift section, in its coordinates
                inner = (max(arena[0], lift[0]), n_dk)
                layer = height_layer(lift_section, p, h, (inner[0] - lift[0] + 1, n_dk - lift[0] + 1))
                z_lift = least_in_difference(
                    layer, _prefix_in_span(echelon, coords, widths[d_k], g.window.flat_slice(inner))
                )
                if z_lift is not None:
                    z = z_lift.embed(g.window, inner)
                    y = _root(lift_section, lift, z, scale)
                else:
                    y = solve_in_subgroup(g, z, scale=scale)
                    determined = False
            echelon.add(socle_vector(z, p))
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
        prime=p,
        blocks=tuple(blocks),
        socle_elements=tuple(xs),
        generators=tuple(ys),
        heights=tuple(heights),
        n_sequence=n_sequence,
        determined=determined,
    )


class BlockReport(Frozen):
    """Re-checked construction properties, one verdict per clause."""

    def __init__(self, checks: dict):
        store(self, "checks", checks)

    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, (ok, _) in self.checks.items() if not ok]


def verify_block_properties(gs: GeneratingSet, g: WindowSubgroup) -> BlockReport:
    """Re-check every structural clause of a generating set against its group.

    The span clauses compare subspaces of the socle G[p], on which
    ``socle_vector`` is injective, as row spaces over the p-element field: a
    projection onto [1, d] keeps the first w(d) socle coordinates, where an
    echelon's pivots count its span's dimension (``FpEchelon.rank_below``).
    Echelons of the socle, of the x_j so far and of both answer (c), eq1,
    (d) and (f); (b) is eq1 projected onto (d_{k-1}, d_k], read off sliced
    rows only where eq1 fails.  Every clause reading the socle vector of an
    element that p does not kill fails.
    """
    p = gs.prime
    checks = dict.fromkeys(("a", "b", "c", "d", "e", "f", "eq1"), (True, ""))
    soc = socle_echelon(g, p)
    coords, widths = _socle_widths(g.window, p)
    vecs = [socle_vector(x, p) if p % x.order() == 0 else None for x in gs.socle_elements]
    xs = FpEchelon(p)  # the x_j checked so far
    joint = FpEchelon(p, soc.basis)  # the socle and the x_j checked so far
    counts = gs.block_counts()
    n_window = g.window.length

    def put(name: str, ok: bool, detail: str = ""):
        if not ok and checks[name][0]:  # a clause keeps its first failure's detail
            checks[name] = (False, detail)

    def sliced(rows, lo: int, hi: int) -> FpEchelon:
        return FpEchelon(p, (row[lo:hi] for row in rows))

    d_prev = 0
    for k, block in enumerate(gs.blocks, start=1):
        d_k = block.d
        g.window.check_interval((d_prev + 1, d_k))
        lo, hi = counts[k - 1], counts[k]
        n_dk = gs.n_sequence.get(d_k, n_window)
        w_prev, w = widths[d_prev], widths[d_k]
        killed = None not in vecs[:hi]

        # (a) block projections independent on (d_{k-1}, d_k]
        ok_a = None not in vecs[lo:hi] and len(sliced(vecs[lo:hi], w_prev, w).rows) == hi - lo
        put("a", ok_a, f"block {k}: projections on ({d_prev}, {d_k}] dependent")

        # (d) membership, maximal height, nonincreasing heights
        layers = HeightLayers(g, p, (d_prev + 1, n_dk))
        inside = _prefix_in_span(xs, coords, w, g.window.flat_slice((d_prev + 1, n_dk)))
        prev_h = None
        for j in range(lo, hi):
            x = gs.socle_elements[j]
            in_arena = all(d_prev < i <= n_dk for i in x.support)
            ok_member = g.contains(x) and in_arena and x.order() == p
            best, _ = layers.highest(lambda layer: least_in_difference(layer, inside))
            if (ok_member or best >= 0) and not is_p_group(g, p):
                raise InputError("heights are defined inside p-groups")
            h = height(x, g, p) if ok_member else -1
            ok_height = h == gs.heights[j]
            ok_max = h == best
            ok_mono = prev_h is None or h <= prev_h
            prev_h = h
            if vecs[j] is not None:
                xs.add(vecs[j])
                joint.add(vecs[j])
            ok_d = ok_member and ok_height and ok_max and ok_mono
            put("d", ok_d, f"generator {j + 1}: membership/height/maximality violated")

        # (c) prefix projections form a basis of the projected socle on [1, d_k]
        rank = xs.rank_below(w)
        spans = killed and rank == soc.rank_below(w) == joint.rank_below(w)
        put("c", spans and rank == hi, f"block {k}: prefix projections not a basis")
        put("eq1", spans, f"block {k}: projected socle differs from projected span")

        # (b) blocks so far generate the projected socle on (d_{k-1}, d_k]
        ok_b = spans or killed and sliced(vecs[:hi], w_prev, w).basis == sliced(soc.basis, w_prev, w).basis
        put("b", ok_b, f"block {k}: projected socle not covered")

        # (e) lifts: x = p^h y, y supported in [1, n_{d_k}], vanishing conditions
        for j in range(lo, hi):
            x, y, h = gs.socle_elements[j], gs.generators[j], gs.heights[j]
            ok_divide = y.scale(p**h).flat == x.flat
            ok_support = g.contains(y) and all(i <= n_dk for i in y.support)
            ok_vanish = all(
                gs.n_sequence.get(i, n_window) >= d_k for i in y.support
            )
            ok_e = ok_divide and ok_support and ok_vanish
            put("e", ok_e, f"generator {j + 1}: lift clause violated")

        d_prev = d_k

    # (f) the blocks split the socle against the deep tail, its members zero on [1, d_last]:
    # exactly when the x_j lie in the socle and their prefixes there are a basis of its prefixes
    if gs.blocks:
        w = widths[gs.blocks[-1].d]
        ok_f = None not in vecs and len(joint.rows) == len(soc.rows)
        ok_f = ok_f and xs.rank_below(w) == len(vecs) == soc.rank_below(w)
        put("f", ok_f, "socle does not split as blocks plus tail")
    return BlockReport(checks=checks)


class Encoder(Frozen):
    """Coefficient sequences against the generators, as a concrete map."""

    def __init__(self, group: WindowSubgroup, generating_set: GeneratingSet):
        store(self, "group", group)
        store(self, "generating_set", generating_set)

    @property
    def prime(self) -> int:
        return self.generating_set.prime

    @property
    def orders(self) -> tuple[int, ...]:
        return self.generating_set.orders


def encode(enc: Encoder, coeffs) -> Element:
    """The combination sum(k_m * y_m); coefficients must sit below the orders."""
    gens = enc.generating_set.generators
    orders = enc.orders
    if len(coeffs) != len(gens):
        raise InputError(f"expected {len(gens)} coefficients, got {len(coeffs)}")
    acc = enc.group.window.zero()
    for k, o, y in zip(coeffs, orders, gens):
        k = int(k)
        if not (0 <= k < o):
            raise InputError(f"coefficient {k} outside [0, {o})")
        if k:
            acc = acc + y.scale(k)
    return acc


def represent(z: Element, enc: Encoder) -> list[int]:
    """The least coefficients k, lexicographically, with encode(enc, k) == z.

    The encoder's graph is the subgroup of the window times prod Z(o_m)
    spanned by the rows (y_m | e_m).  When every o_m kills its y_m, it holds
    exactly the pairs (encode(k) | k), so its least member with prefix z
    carries the least k (``least_with_prefix``); a bijective encoder has no
    other.
    """
    gs = enc.generating_set
    if not enc.group.contains(z):
        raise InputError("element does not belong to the encoder's group")
    if any(o % y.order() for y, o in zip(gs.generators, gs.orders)):
        raise InputError("a coefficient order does not kill its generator: the encoder is no map")
    size = len(gs.generators)
    graph = ProductWindow(enc.group.window.components + tuple(ComponentGroup((o,)) for o in gs.orders))
    rows = [list(y.flat) + [int(k == m) for k in range(size)] for m, y in enumerate(gs.generators)]
    lift = least_with_prefix(WindowSubgroup.from_rows(graph, rows), z.flat)
    if lift is None:
        raise UndeterminedAtWindowError("no representation within the window: the encoder misses the element")
    return list(lift.flat[len(z.flat) :])


def verify_isomorphic_encoder(gs: GeneratingSet, g: WindowSubgroup, spans: Optional[bool] = None) -> bool:
    """Exact window test: the coefficient map is a bijection onto the group.

    The map sum(k_m * y_m) is well defined on prod Z(o_m) exactly when the
    order of every y_m divides o_m.  A well-defined homomorphism onto the
    group from a domain of the same cardinality is a bijection.  ``spans``
    is ``check_implicit_direct_product(gs, g)`` when the caller has it.
    """
    if any(o % y.order() for y, o in zip(gs.generators, gs.orders)):
        return False
    if spans is None:
        spans = check_implicit_direct_product(gs, g)
    return spans and prod(gs.orders) == g.order()


def check_implicit_direct_product(gs: GeneratingSet, g: WindowSubgroup) -> bool:
    """Does the finite-support coefficient image equal the finite-support part?

    At window scale the image of the finitely supported coefficient
    sequences is the span of the generators, and the finite-support part of
    the group is the group itself, so the identity is one spanning check:
    one echelon of the generators.  Whether the socle elements lie in G is
    clause (d) of ``verify_block_properties``, not a check here.
    """
    return WindowSubgroup(g.window, gs.generators) == g


class CombinedEncoder(Frozen):
    """Per-prime encoders stitched along the primary decomposition.

    At most one encoder per prime; each encoder's group is its prime's part.
    ``check`` gives the verdicts that ``synthesize`` and ``verify`` report.
    """

    def __init__(
        self,
        group: WindowSubgroup,
        decomposition: PrimaryDecomposition,
        encoders: tuple[tuple[int, Encoder], ...],  # ascending primes
    ):
        store(self, "group", group)
        store(self, "decomposition", decomposition)
        store(self, "encoders", encoders)

    def encode(self, coeff_map: Mapping[int, list]) -> Element:
        acc = self.group.window.zero()
        for p, enc in self.encoders:
            coeffs = coeff_map.get(p)
            if coeffs is None:
                continue
            part = self.decomposition.part(p)
            acc = acc + part.embed(encode(enc, coeffs), self.group.window)
        return acc

    def represent(self, z: Element) -> dict[int, list[int]]:
        """Per-prime coefficients whose ``encode`` is z; a nonzero p-part needs a p-encoder."""
        if not self.group.contains(z):
            raise InputError("element does not belong to the group")
        primes = {p for p, _ in self.encoders}
        for part in self.decomposition.parts:
            if part.prime not in primes and not part.restrict(z).is_zero():
                raise UndeterminedAtWindowError(
                    f"no representation within the window: the {part.prime}-part has no encoder"
                )
        return {p: represent(self.decomposition.part(p).restrict(z), enc) for p, enc in self.encoders}

    def total_order(self) -> int:
        return prod(prod(enc.generating_set.orders) for _, enc in self.encoders)

    def check(self) -> tuple[dict, dict]:
        """The encoder verdicts per part and for the combined map onto G.

        Each part's generators are echeloned once, by
        ``check_implicit_direct_product``, and that verdict also serves
        ``verify_isomorphic_encoder``.  G is the direct sum of its p-parts
        over disjoint flats, so the embedded generators span G exactly when
        every part is spanned by its own prime's generators; a part is
        nontrivial, so one without an encoder is not spanned.
        """
        parts = {}
        for p, enc in self.encoders:
            gs, part = enc.generating_set, enc.group
            spans = check_implicit_direct_product(gs, part)
            parts[p] = {
                "isomorphic_encoder": verify_isomorphic_encoder(gs, part, spans),
                "implicit_direct_product": spans,
            }
        spanning = all(p in parts and parts[p]["implicit_direct_product"] for p in self.decomposition.primes)
        size, order = self.total_order(), self.group.order()
        combined = {
            "spanning": spanning,
            "coefficient_space": size,
            "group_order": order,
            "bijective": spanning and size == order,
        }
        return parts, combined


class SynthesisResult(Frozen):
    def __init__(
        self,
        group: WindowSubgroup,
        certificate: Certificate,
        decomposition: PrimaryDecomposition,
        part_certificates: dict,
        generating_sets: dict,
        combined: CombinedEncoder,
        verdicts: dict,
    ):
        store(self, "group", group)
        store(self, "certificate", certificate)
        store(self, "decomposition", decomposition)
        store(self, "part_certificates", part_certificates)
        store(self, "generating_sets", generating_sets)
        store(self, "combined", combined)
        store(self, "verdicts", verdicts)


def _certifies_part(cert: Certificate, g: WindowSubgroup, part: WindowSubgroup) -> bool:
    """Would certifying the part give G's certificate back?  That depends only
    on the window, the canonical basis, the margin and the depth tested; a
    p-group's part has G's window and basis, but its margin can be wider.
    """
    notes = cert.notes
    return (
        cert.property == "order-controllable"
        and notes.get("source") == "group"
        and (cert.window, part.window, part.basis) == (g.window.length, g.window, g.basis)
        and notes["margin"] == _resolve_margin(g, None) == _resolve_margin(part, None)
        # every depth up to the cap is tested unless max_index stopped short
        and notes["max_index"] == notes["cap"]
    )


def synthesize(
    g: WindowSubgroup,
    *,
    certificate: Optional[Certificate] = None,
    accept_undetermined: bool = False,
) -> SynthesisResult:
    """Full multi-prime synthesis: decompose, build per-prime, recombine.

    Requires a holding order-controllability certificate unless
    ``accept_undetermined`` allows proceeding on a partial one, in which case
    every downstream verdict is stamped undetermined.  A given certificate is
    taken to be G's, and a part that G's certificate certifies reuses it.
    """
    cert = certificate or order_controllability_certificate(g)
    if cert.status == "fails" and not accept_undetermined:
        raise InputError("synthesis refused: the group fails order controllability")
    if cert.status == UNDETERMINED and not accept_undetermined:
        raise UndeterminedAtWindowError(
            "order controllability is undetermined at this window"
        )

    decomposition = primary_decompose(g)
    part_certs: dict[int, Certificate] = {}
    gsets: dict[int, GeneratingSet] = {}
    encs: list[tuple[int, Encoder]] = []
    determined = cert.status == HOLDS
    for part in decomposition.parts:
        p = part.prime
        reuse = _certifies_part(cert, g, part.subgroup)
        c_p = cert if reuse else order_controllability_certificate(part.subgroup)
        if c_p.status == "fails" and not accept_undetermined:
            raise InputError(
                f"synthesis refused: the {p}-part fails order controllability"
            )
        part_certs[p] = c_p
        gs = synthesize_p(part.subgroup, p, c_p)
        gsets[p] = gs
        encs.append((p, Encoder(group=part.subgroup, generating_set=gs)))
        determined = determined and gs.determined and c_p.status == HOLDS

    combined = CombinedEncoder(
        group=g, decomposition=decomposition, encoders=tuple(encs)
    )

    _, check = combined.check()
    verdicts = {
        "isomorphic_encoder": check["bijective"],
        "implicit_direct_product": check["spanning"],
        "determined": determined,
    }
    return SynthesisResult(
        group=g,
        certificate=cert,
        decomposition=decomposition,
        part_certificates=part_certs,
        generating_sets=gsets,
        combined=combined,
        verdicts=verdicts,
    )
