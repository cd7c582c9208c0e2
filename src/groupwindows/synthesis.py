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

from dataclasses import dataclass
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
from .torsion import (
    FpEchelon,
    HeightLayers,
    PrimaryDecomposition,
    _socle_coordinates,
    height,
    height_layer,
    is_p_group,
    p_valuation,
    primary_decompose,
    socle_subgroup,
    socle_vector,
)
from .window import (
    Element,
    WindowSubgroup,
    least_in_difference,
    membership,
    project,
    section,
    solve_in_subgroup,
    span,
    torsion_subgroup,
)


@dataclass(frozen=True)
class Block:
    """One synthesis stage: boundary depth d and how many generators it added."""

    d: int
    size: int


@dataclass(frozen=True, eq=False)
class GeneratingSet:
    """The synthesis output for one prime."""

    prime: int
    blocks: tuple[Block, ...]
    socle_elements: tuple[Element, ...]  # x_m, order p, finite support
    generators: tuple[Element, ...]  # y_m with x_m == p^h_m * y_m
    heights: tuple[int, ...]
    n_sequence: dict
    determined: bool = True

    def __post_init__(self):
        if not (len(self.socle_elements) == len(self.generators) == len(self.heights)):
            raise InputError("generating set fields disagree on the generator count")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.prime ** (h + 1) for h in self.heights)

    def block_counts(self) -> list[int]:
        """Cumulative generator counts m(k), with m(0) == 0."""
        counts = [0]
        for b in self.blocks:
            counts.append(counts[-1] + b.size)
        return counts


def _prefix_socle_vector(x: Element, d: int, p: int):
    return socle_vector(x.restrict((1, d)), p)


def _prefix_in_span(echelon: FpEchelon, window, d: int, p: int):
    """The test whether a socle row's [1, d]-prefix lies in the echelon's span."""
    width = window.flat_slice((1, d))[1]
    halves = [(f, half) for f, half in _socle_coordinates(window, p) if f < width]
    return lambda row: not any(echelon.reduce([row[f] // half for f, half in halves]))


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

    soc = socle_subgroup(g, p)
    total_dim = p_valuation(soc.order(), p)
    if total_dim == 0:
        return GeneratingSet(
            prime=p, blocks=(), socle_elements=(), generators=(), heights=(),
            n_sequence=n_sequence, determined=determined,
        )

    def projected_dim(d: int) -> int:
        return p_valuation(project(soc, (1, d)).order(), p)

    echelon = FpEchelon(p)
    xs: list[Element] = []
    ys: list[Element] = []
    heights: list[int] = []
    blocks: list[Block] = []
    d_prev = 0
    while len(xs) < total_dim:
        d_k = None
        for d in range(d_prev + 1, n_window + 1):
            target = projected_dim(d)
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
        lift_section = section(g, ((max(below) + 1) if below else 1, n_dk))
        inside = _prefix_in_span(echelon, g.window, d_k, p)
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
            y = solve_in_subgroup(lift_section, z, scale=scale)
            if y is None:
                z_lift = least_in_difference(height_layer(lift_section, p, h, arena), inside)
                if z_lift is not None:
                    z, y = z_lift, solve_in_subgroup(lift_section, z_lift, scale=scale)
                else:
                    y = solve_in_subgroup(g, z, scale=scale)
                    determined = False
            echelon.add(_prefix_socle_vector(z, d_k, p))
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


@dataclass(frozen=True, eq=False)
class BlockReport:
    """Re-checked construction properties, one verdict per clause."""

    checks: dict

    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, (ok, _) in self.checks.items() if not ok]


def verify_block_properties(gs: GeneratingSet, g: WindowSubgroup) -> BlockReport:
    """Re-check every structural clause of a generating set against its group."""
    p = gs.prime
    checks = dict.fromkeys(("a", "b", "c", "d", "e", "f", "eq1"), (True, ""))
    soc = socle_subgroup(g, p)
    counts = gs.block_counts()
    n_window = g.window.length
    # an element p does not kill has no socle vector: clauses (a), (c), (d) and (f) fail on it
    killed = [p % x.order() == 0 for x in gs.socle_elements]

    def put(name: str, ok: bool, detail: str = ""):
        if not ok and checks[name][0]:  # a clause keeps its first failure's detail
            checks[name] = (False, detail)

    d_prev = 0
    for k, block in enumerate(gs.blocks, start=1):
        d_k = block.d
        lo, hi = counts[k - 1], counts[k]
        bk = gs.socle_elements[lo:hi]
        n_dk = gs.n_sequence.get(d_k, n_window)

        # (a) block projections independent on (d_{k-1}, d_k]
        ech = FpEchelon(p)
        ok_a = all(killed[lo:hi]) and all(ech.add(socle_vector(x.restrict((d_prev + 1, d_k)), p)) for x in bk)
        put("a", ok_a, f"block {k}: projections on ({d_prev}, {d_k}] dependent" if not ok_a else "")

        # (b) blocks so far generate the projected socle on (d_{k-1}, d_k]
        seen = [x.restrict((d_prev + 1, d_k)) for x in gs.socle_elements[: hi]]
        sub = g.window.subwindow((d_prev + 1, d_k))
        ok_b = span(sub, seen) == project(soc, (d_prev + 1, d_k))
        put("b", ok_b, f"block {k}: projected socle not covered" if not ok_b else "")

        # (c) prefix projections form a basis of the projected socle on [1, d_k]
        pref = [x.restrict((1, d_k)) for x in gs.socle_elements[: hi]]
        subw = g.window.subwindow((1, d_k))
        spans = span(subw, pref) == project(soc, (1, d_k))
        ech = FpEchelon(p)
        indep = all(killed[:hi]) and all(ech.add(socle_vector(x, p)) for x in pref)
        put("c", spans and indep, f"block {k}: prefix projections not a basis" if not (spans and indep) else "")
        put("eq1", spans, f"block {k}: projected socle differs from projected span" if not spans else "")

        # (d) membership, maximal height, nonincreasing heights
        layers = HeightLayers(g, p, (d_prev + 1, n_dk))
        ech = FpEchelon(p)
        for x, ok in zip(gs.socle_elements[:lo], killed):
            if ok:
                ech.add(_prefix_socle_vector(x, d_k, p))
        inside = _prefix_in_span(ech, g.window, d_k, p)
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
            if killed[j]:
                ech.add(_prefix_socle_vector(x, d_k, p))
            ok_d = ok_member and ok_height and ok_max and ok_mono
            put("d", ok_d, f"generator {j + 1}: membership/height/maximality violated" if not ok_d else "")

        # (e) lifts: x = p^h y, y supported in [1, n_{d_k}], vanishing conditions
        for j in range(lo, hi):
            x, y, h = gs.socle_elements[j], gs.generators[j], gs.heights[j]
            ok_divide = y.scale(p**h).flat == x.flat
            ok_support = g.contains(y) and all(i <= n_dk for i in y.support)
            ok_vanish = all(
                gs.n_sequence.get(i, n_window) >= d_k for i in y.support
            )
            ok_e = ok_divide and ok_support and ok_vanish
            put("e", ok_e, f"generator {j + 1}: lift clause violated" if not ok_e else "")

        d_prev = d_k

    # (f) the blocks split the socle against the deep tail
    if gs.blocks:
        d_last = gs.blocks[-1].d
        ech = FpEchelon(p)
        indep_all = all(killed) and all(ech.add(socle_vector(x, p)) for x in gs.socle_elements)
        if d_last < n_window:
            tail = torsion_subgroup(g, p, (d_last + 1, n_window))
        else:
            tail = g.window.trivial_subgroup()
        total = span(g.window, list(gs.socle_elements) + list(tail.canonical_generators))
        covers = total == soc
        split = len(gs.socle_elements) + p_valuation(tail.order(), p) == p_valuation(soc.order(), p)
        ok_f = indep_all and covers and split
        put("f", ok_f, "socle does not split as blocks plus tail" if not ok_f else "")
    return BlockReport(checks=checks)


@dataclass(frozen=True, eq=False)
class Encoder:
    """Coefficient sequences against the generators, as a concrete map."""

    group: WindowSubgroup
    generating_set: GeneratingSet

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


def _socle_solve(gs: GeneratingSet, w: Element) -> Optional[list[int]]:
    """Coefficients over the p-element field with w == sum(alpha_m x_m).

    Reduces socle_vector(w) | 0 against the rows socle_vector(x_m) | e_m: a
    zero socle part leaves -alpha in the unit part.  The unit vectors run
    backwards, so an x_m dependent on earlier ones gets alpha_m = 0.
    """
    p = gs.prime
    size = len(gs.socle_elements)
    ech = FpEchelon(p)
    for m, x in enumerate(gs.socle_elements):
        unit = [0] * size
        unit[size - 1 - m] = 1
        ech.add(list(socle_vector(x, p)) + unit)
    target = socle_vector(w, p)
    rest = ech.reduce(list(target) + [0] * size)
    if any(rest[: len(target)]):
        return None
    return [-rest[len(target) + size - 1 - m] % p for m in range(size)]


def represent(z: Element, enc: Encoder) -> list[int]:
    """Coefficients with encode(enc, coeffs) == z, by descending the order.

    Walks down the order of the remainder one power of p at a time: the
    top p-torsion layer is matched in the socle span of the x_m, divided
    down through the lifts, and subtracted.
    """
    gs = enc.generating_set
    p = gs.prime
    if not membership(z, enc.group):
        raise InputError("element does not belong to the encoder's group")
    coeffs = [0] * len(gs.generators)
    rem = z
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 64:
            raise UndeterminedAtWindowError("order descent failed to terminate")
        order = rem.order()
        s = p_valuation(order, p) - 1
        w = rem.scale(p**s)
        alpha = _socle_solve(gs, w)
        if alpha is None:
            raise UndeterminedAtWindowError(
                "no representation within the window: the socle span misses a layer"
            )
        step = enc.group.window.zero()
        for m, a in enumerate(alpha):
            if a:
                if gs.heights[m] < s:
                    raise UndeterminedAtWindowError(
                        "height profile too shallow to divide the representation"
                    )
                c = a * p ** (gs.heights[m] - s)
                coeffs[m] = (coeffs[m] + c) % gs.orders[m]
                step = step + gs.generators[m].scale(c)
        rem = rem - step
        if rem.order() >= order and not rem.is_zero():
            raise UndeterminedAtWindowError("order descent stalled")
    return coeffs


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
    return span(g.window, gs.generators) == g


@dataclass(frozen=True, eq=False)
class CombinedEncoder:
    """Per-prime encoders stitched along the primary decomposition.

    At most one encoder per prime; each encoder's group is its prime's part.
    ``check`` gives the verdicts that ``synthesize`` and ``verify`` report.
    """

    group: WindowSubgroup
    decomposition: PrimaryDecomposition
    encoders: tuple[tuple[int, Encoder], ...]  # ascending primes

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
        if not membership(z, self.group):
            raise InputError("element does not belong to the group")
        out = {}
        for p, enc in self.encoders:
            part = self.decomposition.part(p)
            out[p] = represent(part.restrict(z), enc)
        return out

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


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    group: WindowSubgroup
    certificate: Certificate
    decomposition: PrimaryDecomposition
    part_certificates: dict
    generating_sets: dict
    combined: CombinedEncoder
    verdicts: dict


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
