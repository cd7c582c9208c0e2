"""Controllability, observability, and rectangularity certificates.

A certificate records, for one property and one window length, a verdict
(holds, fails, or undetermined-at-window), the least matching-support index
n_i per prefix depth i where the property asks for one, a machine-checkable
witness on failure, and per-index stabilization flags.

Window policy.  The properties are statements about infinite products, so a
finite window can only answer honestly inside a safety strip: with margin w
(the widest generator in the narrowest presentation at hand), prefixes and
support bounds are only trusted up to cap = N - w.  Checks that would need
more than that report undetermined-at-window instead of guessing.  For
template inputs the certificate is recomputed on a grown window and each
index gets a flag recording whether it survived the growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Union

from .errors import InputError
from .intlinalg import row_lattice_basis
from .templates import TemplateSpec, unroll_template
from .window import (
    Element,
    WindowSubgroup,
    combine,
    kernel_rows,
    least_outside,
    membership_coefficients,
    project,
    section,
    torsion_subgroup,
)

HOLDS = "holds"
FAILS = "fails"
UNDETERMINED = "undetermined-at-window"

PROPERTIES = (
    "weakly-controllable",
    "controllable",
    "order-controllable",
    "weakly-observable",
    "rectangular",
)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Machine-readable verdict for one property at one window length."""

    property: str
    window: int
    status: str
    indices: dict
    witness: Optional[Element]
    witness_context: Optional[dict]
    stabilization: dict
    notes: dict

    def holds(self) -> bool:
        return self.status == HOLDS


class _Scans:
    """Subgroups shared by the index searches of one certificate computation.

    P_n is the projection of G onto [1, n] and S_n the projection of its
    members supported in [1, n]; X[q] is the subgroup of X killed by q.
    """

    def __init__(self, g: WindowSubgroup):
        self.g = g
        self._proj_of_g: dict[int, WindowSubgroup] = {}
        self._proj_of_section: dict[tuple[int, int], WindowSubgroup] = {}
        self._torsion: dict[int, tuple[list, list]] = {}

    @cached_property
    def _section_rows(self) -> list:
        """An echelon basis of G whose row f has its last nonzero entry at flat f."""
        return _ending_rows(self.g.basis)

    def proj_g(self, i: int) -> WindowSubgroup:
        if i not in self._proj_of_g:
            self._proj_of_g[i] = project(self.g, (1, i))
        return self._proj_of_g[i]

    def proj_sect(self, i: int, n: int) -> WindowSubgroup:
        """The projection onto [1, i] of the members of G supported in [1, n]."""
        key = (i, n)
        if key not in self._proj_of_section:
            self._proj_of_section[key] = self._prefix_span(self._section_rows, i, n)
        return self._proj_of_section[key]

    def _prefix_span(self, rows, i: int, n: int, extra=()) -> WindowSubgroup:
        """The span on [1, i] of ``extra`` and of the rows ending inside [1, n]."""
        window = self.g.window
        width = window.flat_slice((1, i))[1]
        sub = window.subwindow((1, i))
        ending = rows[: window.flat_slice((1, n))[1]]
        return WindowSubgroup(sub, [sub.from_flat(r[:width]) for r in [*ending, *extra]])

    def torsion_rows(self, q: int) -> tuple[list, list]:
        """Echelon rows of G[q] by last nonzero flat, and lifts by first one.

        q*x vanishes at flat f exactly when t_f = m_f / gcd(m_f, q) divides
        x_f, so the kernel rows for these t span G[q], and with the lifts
        from flat e on they generate the members of G that q sends to
        elements vanishing before flat e.
        """
        if q not in self._torsion:
            kernel, lifts = kernel_rows(self.g, [m // gcd(m, q) for m in self.g.window.flat_orders])
            self._torsion[q] = (_ending_rows(kernel), lifts)
        return self._torsion[q]

    def order_demand(self, i: int, n: int, q: int) -> WindowSubgroup:
        """pi_[1,i](P_n[q]): the [1, i]-prefixes of the x in G with q*x zero on [1, n]."""
        kernel, lifts = self.torsion_rows(q)
        width = self.g.window.flat_slice((1, n))[1]
        return self._prefix_span(kernel, i, self.g.window.length, lifts[width:])

    def order_offer(self, i: int, n: int, q: int, extra=()) -> WindowSubgroup:
        """pi_[1,i](S_n[q]), spanned together with ``extra``."""
        return self._prefix_span(self.torsion_rows(q)[0], i, n, extra)


def _ending_rows(basis) -> list:
    """An echelon basis of a full-rank lattice whose row f ends at entry f.

    The rows ending before a position span the lattice vectors vanishing
    from there on, so every prefix section reads its generators off here.
    """
    rows = row_lattice_basis([row[::-1] for row in basis], len(basis))
    return [row[::-1] for row in reversed(rows)]


def controllability_index(g: WindowSubgroup, i: int, cap: int) -> Optional[int]:
    """Least n in [i, cap] with every [1,i]-prefix of G matched inside [1, n].

    Decided by the subgroup identity: the projection of G onto [1, i] equals
    the projection of the members supported in [1, n].  Returns None when no
    n up to cap works.
    """
    _check_index_args(g, i, cap)
    scans = _Scans(g)
    return _ctrl_index(scans, i, cap)


def _check_index_args(g: WindowSubgroup, i: int, cap: int):
    if not (1 <= i <= cap <= g.window.length):
        raise InputError(
            f"need 1 <= i <= cap <= N, got i={i}, cap={cap}, N={g.window.length}"
        )


def _ctrl_index(scans: _Scans, i: int, cap: int) -> Optional[int]:
    target = scans.proj_g(i)
    for n in range(i, cap + 1):
        if scans.proj_sect(i, n) == target:
            return n
    return None


def _order_condition_holds(scans: _Scans, i: int, n: int) -> bool:
    """Every w in P_n has a z in S_n with w's [1, i]-prefix and order dividing w's.

    The members of order dividing q that are matched form a subgroup, so the
    condition reads pi_[1,i](P_n[q]) inside pi_[1,i](S_n[q]) for every prime
    power q, an equality since S_n lies in P_n.  Both sides split by primes,
    and at a power of p that kills the p-part of G the test is that part of
    the controllability identity, checked first; smaller powers follow.
    """
    if scans.proj_sect(i, n) != scans.proj_g(i):
        return False
    e = scans.g.exponent()
    for p in scans.g.window.primes():
        q = p
        while e % (q * p) == 0:
            if scans.order_offer(i, n, q) != scans.order_demand(i, n, q):
                return False
            q *= p
    return True


def _order_witness(scans: _Scans, i: int, cap: int) -> Element:
    """The (order, flat)-least w in P_cap with no companion of dividing order.

    A companion of w of order dividing q exists exactly when w lies in
    S_cap[q] plus the members of [1, cap] vanishing on [1, i].
    """
    window = scans.proj_g(cap).window
    free = []
    for f in range(window.flat_slice((1, i))[1], window.flat_length):
        free.append([1 if k == f else 0 for k in range(window.flat_length)])
    return least_outside(
        scans.proj_g(cap), lambda q: scans.order_offer(cap, cap, q, free)
    )


def _lift_prefix(g: WindowSubgroup, prefix_elem: Element, n: int) -> Element:
    """A canonical member of G whose [1, n]-projection equals the given element."""
    coeffs = membership_coefficients(prefix_elem, g, interval=(1, n))
    if coeffs is None:
        raise InputError("prefix is not a projection of the subgroup")
    return combine(g, coeffs)


def order_controllability_index(
    g: WindowSubgroup, i: int, cap: int
) -> tuple[Optional[int], Optional[Element], Optional[dict]]:
    """Least n in [i, cap] matching every prefix with an order-compatible member.

    For each projection w of G onto [1, n] there must be a member supported in
    [1, n] agreeing with w on [1, i] whose order divides the order of w.  When
    no n up to cap works, returns (None, witness, context): the witness is a
    member of G whose [1, cap]-projection has minimal order (ties broken by
    least residue vector) among those whose every prefix-matching companion
    fails the divisibility, and the context names the failing prefix depth and
    support bound.
    """
    _check_index_args(g, i, cap)
    scans = _Scans(g)
    return _order_index(scans, i, cap)


def _order_index(scans: _Scans, i: int, cap: int):
    for n in range(i, cap + 1):
        if _order_condition_holds(scans, i, n):
            return n, None, None
    proj = _order_witness(scans, i, cap)
    witness = _lift_prefix(scans.g, proj, cap)
    context = {
        "i": i,
        "n": cap,
        "projection_order": proj.order(),
        "reason": "order-obstruction",
    }
    return None, witness, context


def _controllability_witness(scans: _Scans, i: int, cap: int):
    """An element of G whose [1, i]-prefix no member supported in [1, cap] matches."""
    prefix = least_outside(scans.proj_g(i), scans.proj_sect(i, cap))
    lift = _lift_prefix(scans.g, prefix, i)
    return lift, {"i": i, "n": cap, "projection_order": prefix.order()}


def _check_max_index(max_index: Optional[int]):
    if max_index is not None and max_index < 1:
        raise InputError(f"max_index must be at least 1, got {max_index}")


def _resolve_margin(g: WindowSubgroup, template: Optional[TemplateSpec]) -> int:
    margins = [g.presentation_margin()]
    if template is not None:
        margins.append(template.margin())
    margins = [m for m in margins if m > 0]
    return min(margins) if margins else 0


def _engine(
    g: WindowSubgroup,
    *,
    order: bool,
    max_index: int,
    cap: int,
):
    """Run the index scan; returns (indices, failure or None)."""
    scans = _Scans(g)
    indices: dict[int, int] = {}
    for i in range(1, max_index + 1):
        if order:
            n, witness, context = _order_index(scans, i, cap)
        else:
            n = _ctrl_index(scans, i, cap)
            witness = context = None
            if n is None:
                witness, context = _controllability_witness(scans, i, cap)
        if n is None:
            return indices, (i, witness, context)
        indices[i] = n
    return indices, None


def _plan(prop: str, n_window: int, margin: int, max_index: Optional[int]):
    """Index range and support-bound cap for one certification run.

    Matching-support bounds are only trusted up to N - margin.  The density
    reading behind weak controllability searches the whole interior [1, N-1]
    but only vouches for prefix depths inside the trusted strip.
    """
    if margin == 0:
        # the trivial group (only it presents zero-width generators), or a
        # group certified as its own universe
        trusted = n_window if max_index is None else min(max_index, n_window)
        return trusted, n_window
    trusted = n_window - margin
    if trusted < 1:
        return 0, 0
    if max_index is not None:
        trusted = min(max_index, trusted)
    cap = n_window - 1 if prop == "weakly-controllable" else n_window - margin
    return trusted, cap


def _certify_on_group(
    g: WindowSubgroup,
    prop: str,
    *,
    order: bool,
    margin: int,
    max_index: Optional[int],
) -> tuple[dict, Optional[tuple], int, int, str]:
    testable, cap = _plan(prop, g.window.length, margin, max_index)
    if testable < 1 or cap < 1:
        return {}, None, cap, testable, UNDETERMINED
    indices, failure = _engine(g, order=order, max_index=testable, cap=cap)
    if failure is not None:
        return indices, failure, cap, testable, FAILS
    return indices, None, cap, testable, HOLDS


def _controllability_certificate(
    source: Union[WindowSubgroup, TemplateSpec],
    prop: str,
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    _check_max_index(max_index)
    order = prop == "order-controllable"
    template = source if isinstance(source, TemplateSpec) else None
    if template is not None:
        if window is None:
            raise InputError("template certification needs a window length")
        g = unroll_template(template, window).group
    else:
        g = source
        if window is not None and window != g.window.length:
            raise InputError(
                f"window {window} does not match the group's window {g.window.length}"
            )
        window = g.window.length

    margin = _resolve_margin(g, template)
    # when the narrowest presentation spans the whole window there is no
    # family to extrapolate to; certify the group as its own universe
    universe_mode = (
        template is None
        and prop in ("controllable", "order-controllable")
        and 0 < margin >= g.window.length
    )
    indices, failure, cap, testable, status = _certify_on_group(
        g, prop, order=order, margin=0 if universe_mode else margin, max_index=max_index
    )

    stabilization: dict[int, bool] = {}
    notes_extra: dict = {}
    if universe_mode:
        notes_extra["mode"] = "window-as-universe (margin consumed the window)"
        stabilization = {i: False for i in indices}
    if template is not None and status != UNDETERMINED:
        growth = max(margin, 1)
        g2 = unroll_template(template, window + growth).group
        margin2 = _resolve_margin(g2, template)
        indices2, failure2, *_ = _certify_on_group(
            g2, prop, order=order, margin=margin2, max_index=testable
        )
        for i, n in indices.items():
            stabilization[i] = indices2.get(i) == n
        if failure is not None:
            i = failure[0]
            if i in indices2:
                # the grown window finds an index: the failure was a window
                # artifact at the boundary, not a property of the family
                status = UNDETERMINED
                notes_extra["unstable_failure_index"] = i
                failure = None
            else:
                stabilization[i] = failure2 is not None and failure2[0] == i
    elif status == HOLDS and not universe_mode:
        trusted = g.window.length - margin if margin else g.window.length
        for i, n in indices.items():
            stabilization[i] = n <= trusted

    witness = failure[1] if failure else None
    context = failure[2] if failure else None
    notes = {
        "margin": margin,
        "cap": cap,
        "max_index": testable,
        "source": "template" if template is not None else "group",
    }
    notes.update(notes_extra)
    if prop == "weakly-controllable":
        notes["convention"] = (
            "window reading: holds when every trusted prefix depth is matched "
            "by members supported strictly inside the window, the window "
            "analog of density of the finite-support members"
        )
    return Certificate(
        property=prop,
        window=window,
        status=status,
        indices=indices,
        witness=witness,
        witness_context=context,
        stabilization=stabilization,
        notes=notes,
    )


def is_weakly_controllable(
    source: Union[WindowSubgroup, TemplateSpec],
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    """Window verdict for density of the finite-support members.

    Window groups are generated by finite-support elements, so the verdict is
    decided through the matching-index machinery: holds when every tested
    prefix depth admits a matching index inside the trusted strip, and
    undetermined when the generator margin consumes the window.
    """
    return _controllability_certificate(source, "weakly-controllable", window=window, max_index=max_index)


def controllability_certificate(
    source: Union[WindowSubgroup, TemplateSpec],
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    return _controllability_certificate(source, "controllable", window=window, max_index=max_index)


def order_controllability_certificate(
    source: Union[WindowSubgroup, TemplateSpec],
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    return _controllability_certificate(source, "order-controllable", window=window, max_index=max_index)


def is_rectangular(g: WindowSubgroup, *, max_index: Optional[int] = None) -> Certificate:
    """Holds when the subgroup is the full product of its coordinate projections."""
    _check_max_index(max_index)
    n = g.window.length
    embedded = []
    for i in range(1, n + 1):
        for gen in project(g, (i, i)).canonical_generators:
            embedded.append(gen.embed(g.window, (i, i)))
    box = WindowSubgroup(g.window, embedded)
    if box == g:
        idx_range = n if max_index is None else min(max_index, n)
        return Certificate(
            property="rectangular",
            window=n,
            status=HOLDS,
            indices={i: i for i in range(1, idx_range + 1)},
            witness=None,
            witness_context=None,
            stabilization={i: True for i in range(1, idx_range + 1)},
            notes={"box_order": box.order()},
        )
    return Certificate(
        property="rectangular",
        window=n,
        status=FAILS,
        indices={},
        witness=least_outside(box, g),
        witness_context={"reason": "product-of-projections-exceeds-subgroup"},
        stabilization={},
        notes={"box_order": box.order(), "group_order": g.order()},
    )


def is_weakly_observable(
    h: WindowSubgroup,
    ambient: Optional[WindowSubgroup] = None,
    *,
    h_big: Optional[WindowSubgroup] = None,
) -> Certificate:
    """Window verdict for: the finite-support members of the closure all lie in H.

    With only one window available the closure of a listed subgroup is the
    subgroup itself and the verdict trivially holds.  Given a second snapshot
    of the same family on a longer window (``h_big``), the closure side
    becomes the set of prefixes the long window can match on the short
    window's range, and the member side the elements actually supported
    there; the verdict compares the two, with stabilization flags reporting
    whether the short snapshot already agreed.
    """
    if ambient is not None:
        if ambient.window != h.window:
            raise InputError("H and its ambient group live in different windows")
        for gen in h.canonical_generators:
            if not ambient.contains(gen):
                raise InputError("H is not contained in the ambient subgroup")
    n_small = h.window.length
    if h_big is None:
        return Certificate(
            property="weakly-observable",
            window=n_small,
            status=HOLDS,
            indices={},
            witness=None,
            witness_context=None,
            stabilization={},
            notes={
                "mode": "literal-at-window",
                "convention": "a subgroup listed on a single window equals its window closure",
            },
        )
    if h_big.window.length <= n_small:
        raise InputError("the second snapshot must live on a longer window")
    if h_big.window.subwindow((1, n_small)) != h.window:
        raise InputError("snapshots disagree on the shared coordinate range")

    def verdict(depth: int):
        matchable = project(h_big, (1, depth))
        actual = project(section(h_big, (1, depth)), (1, depth))
        return matchable, actual, matchable == actual

    matchable, actual, ok = verdict(n_small)
    witness = None
    context = None
    if not ok:
        witness = least_outside(matchable, actual).embed(h_big.window, (1, n_small))
        context = {
            "depth": n_small,
            "reason": "prefix-matchable element with no finite-support member",
        }
    section_stable = actual == project(h, (1, n_small))
    flags = {n_small: section_stable}
    if n_small > 1:
        _, _, ok_prev = verdict(n_small - 1)
        flags[n_small] = section_stable and (ok_prev == ok)
    return Certificate(
        property="weakly-observable",
        window=h_big.window.length,
        status=HOLDS if ok else FAILS,
        indices={},
        witness=witness,
        witness_context=context,
        stabilization=flags,
        notes={"mode": "two-window", "depth": n_small},
    )


def revalidate_witness(cert: Certificate, g: WindowSubgroup) -> bool:
    """Re-run the defining check on the certificate's witness alone."""
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


def certify(
    source: Union[WindowSubgroup, TemplateSpec],
    prop: str,
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    """Dispatch a property name to its certification routine."""
    if prop not in PROPERTIES:
        raise InputError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    _check_max_index(max_index)
    if prop == "rectangular":
        if isinstance(source, TemplateSpec):
            if window is None:
                raise InputError("template certification needs a window length")
            source = unroll_template(source, window).group
        return is_rectangular(source, max_index=max_index)
    if prop == "weakly-observable":
        if isinstance(source, TemplateSpec):
            if window is None:
                raise InputError("template certification needs a window length")
            small = unroll_template(source, window).group
            growth = max(source.margin(), 1)
            big = unroll_template(source, window + growth).group
            return is_weakly_observable(small, h_big=big)
        return is_weakly_observable(source)
    if prop == "weakly-controllable":
        return is_weakly_controllable(source, window=window, max_index=max_index)
    if prop == "controllable":
        return controllability_certificate(source, window=window, max_index=max_index)
    return order_controllability_certificate(source, window=window, max_index=max_index)
