"""Controllability, observability, and rectangularity certificates.

A certificate records, for one property and one window length, a verdict
(holds, fails, or undetermined-at-window), the least matching-support index
n_i per prefix depth i where the property asks for one, a machine-checkable
witness on failure, and per-index stabilization flags.

Matching.  Depth i is matched at support bound n when the members supported
in [1, n] reach every [1, i]-prefix of G; the prefix projections are nested,
so this reads |G_[1,n]| * |G_[i+1,N]| == |G| * |G_[i+1,n]|.  G keeps its
section orders (``WindowSubgroup.section_order``).  The order condition is
this identity on G[q] plus one identity of suffix sections of qG, per prime
power q; only a failure builds the subgroups its witness is read from.
G_[a,b] is the section of G on [a, b], P_n the projection of G onto [1, n]
and S_n the projection of G_[1,n]; X[q] is the subgroup of X killed by q.

Window policy.  The properties are statements about infinite products, so a
finite window can only answer honestly inside a safety strip: with margin w
(the widest generator in the narrowest presentation at hand), prefixes and
support bounds are only trusted up to cap = N - w.  Checks that would need
more than that report undetermined-at-window instead of guessing.  For
template inputs the index scan reruns on a grown window for its indices and
failing depth only; each index gets a flag recording whether it survived
the growth, and the witness is built once, for the failure reported.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import InputError
from .record import Frozen, store
from .templates import TemplateSpec, unroll_template
from .window import (
    Element,
    WindowSubgroup,
    least_outside,
    least_with_prefix,
    local_section,
    project,
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


class Certificate(Frozen):
    """Machine-readable verdict for one property at one window length."""

    def __init__(
        self,
        property: str,
        window: int,
        status: str,
        indices: dict,
        witness: Optional[Element],
        witness_context: Optional[dict],
        stabilization: dict,
        notes: dict,
    ):
        store(self, "property", property)
        store(self, "window", window)
        store(self, "status", status)
        store(self, "indices", indices)
        store(self, "witness", witness)
        store(self, "witness_context", witness_context)
        store(self, "stabilization", stabilization)
        store(self, "notes", notes)

    def holds(self) -> bool:
        return self.status == HOLDS


def _matched(g: WindowSubgroup, i: int, n: int) -> bool:
    """pi_[1,i](G_[1,n]) == pi_[1,i](G), for i <= n, by section orders.

    The left side lies in the right, and the two projections have kernels
    G_[i+1,n] and G_[i+1,N], so they are equal exactly when
    |G_[1,n]| * |G_[i+1,N]| == |G| * |G_[i+1,n]|.
    """
    order = g.section_order
    N = g.window.length
    return order(1, n) * order(i + 1, N) == order(1, N) * order(i + 1, n)


def _index(
    g: WindowSubgroup, i: int, cap: int, *, order: bool = False, start: int = 1
) -> Optional[int]:
    """Least n in [max(i, start), cap] that is matched, and with ``order``
    passes the order condition too; None when no such n exists."""
    for n in range(max(i, start), cap + 1):
        if _matched(g, i, n) and (not order or _order_condition_holds(g, i, n)):
            return n
    return None


def _order_condition_holds(g: WindowSubgroup, i: int, n: int) -> bool:
    """Every w in P_n has a z in S_n with w's [1, i]-prefix and order dividing w's.

    Called on a matched pair (i, n).  The matched members of order dividing
    q form a subgroup, so per prime power q the offer pi_[1,i](S_n[q]) must
    equal the demand pi_[1,i](P_n[q]) containing it; matching covers a power
    of p killing G's p-part.  Below it, equality is both bounds being tight:
    (a) S_n[q] is G[q]_[1,n], so |offer| = |G[q]_[1,n]| / |G[q]_[i+1,n]|
        <= |pi_[1,i](G[q])|, equal exactly when G[q] is matched at (i, n);
    (b) |A[q]| = |A| / |qA| for P_n and for pi_[1,n](G_[i+1,N]), the kernel
        of pi_[1,i] on P_n, gives |demand| = |pi_[1,i](G[q])| times the ratio
        |(qG)_[n+1,N]| / |(q G_[i+1,N])_[n+1,N]| >= 1 of suffix orders (1 at n = N).
    """
    e, suffix = g.exponent(), g.suffix_order
    for p in g.window.primes():
        q = p
        while e % (q * p) == 0:
            if suffix(n + 1, q) != suffix(n + 1, q, i + 1) or not _matched(torsion_subgroup(g, q), i, n):
                return False
            q *= p
    return True


def _order_witness(g: WindowSubgroup, i: int, cap: int) -> Element:
    """The (order, flat)-least w in P_cap with no companion of dividing order.

    A companion of w of order dividing q exists exactly when w lies in
    S_cap[q], the projection of the section of G[q] on [1, cap], plus the
    members of [1, cap] vanishing on [1, i].
    """
    proj = project(g, (1, cap))
    F = proj.window.flat_length
    free = [[int(k == f) for k in range(F)] for f in range(g.window.flat_slice((1, i))[1], F)]

    def offer(q: int) -> WindowSubgroup:
        reach = local_section(torsion_subgroup(g, q), (1, cap))
        return WindowSubgroup.from_rows(proj.window, [*reach.basis, *free])

    return least_outside(proj, offer)


def _failure(g: WindowSubgroup, i: int, cap: int, order: bool) -> tuple[Element, dict]:
    """The witness and context of a depth i that no support bound up to cap serves.

    Without ``order`` the witness is a member of G whose [1, i]-prefix no
    member supported in [1, cap] matches; with it, one whose [1, cap]-projection
    has no companion of dividing order (``_order_witness``).  The failing
    projection is lifted to the lexicographically least member of G that has
    it, read off G's echelon rows (``least_with_prefix``).  A certificate
    builds one, for the failure it reports, after any grown-window scan.
    """
    context = {"i": i, "n": cap}
    if order:
        proj = _order_witness(g, i, cap)
        context["reason"] = "order-obstruction"
    else:
        proj = least_outside(project(g, (1, i)), project(local_section(g, (1, cap)), (1, i)))
    context["projection_order"] = proj.order()
    witness = least_with_prefix(g, proj.flat)
    if witness is None:
        raise InputError("prefix is not a projection of the subgroup")
    return witness, context


def _check_max_index(max_index: Optional[int]):
    if max_index is not None and max_index < 1:
        raise InputError(f"max_index must be at least 1, got {max_index}")


def _resolve_margin(g: WindowSubgroup, template: Optional[TemplateSpec]) -> int:
    margins = (g.presentation_margin(), template.margin() if template is not None else 0)
    return min((m for m in margins if m > 0), default=0)


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


def _engine(
    g: WindowSubgroup, prop: str, *, margin: int, max_index: Optional[int]
) -> tuple[dict, Optional[int], int, int, str]:
    """Plan and run the index scan: (indices, failing depth or None, cap, testable, status)."""
    testable, cap = _plan(prop, g.window.length, margin, max_index)
    if testable < 1 or cap < 1:
        return {}, None, cap, testable, UNDETERMINED
    order = prop == "order-controllable"
    indices: dict[int, int] = {}
    for i in range(1, testable + 1):
        # n_i never decreases in i: a pair (i + 1, n) that holds implies (i, n)
        n = _index(g, i, cap, order=order, start=indices.get(i - 1, 1))
        if n is None:
            return indices, i, cap, testable, FAILS
        indices[i] = n
    return indices, None, cap, testable, HOLDS


def _unrolled(template: TemplateSpec, window: Optional[int]) -> WindowSubgroup:
    """The template's group at the window; certifying a template needs one."""
    if window is None:
        raise InputError("template certification needs a window length")
    return unroll_template(template, window).group


def _controllability_certificate(
    source: Union[WindowSubgroup, TemplateSpec],
    prop: str,
    *,
    window: Optional[int] = None,
    max_index: Optional[int] = None,
) -> Certificate:
    _check_max_index(max_index)
    template = source if isinstance(source, TemplateSpec) else None
    if template is not None:
        g = _unrolled(template, window)
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
    indices, failed, cap, testable, status = _engine(
        g, prop, margin=0 if universe_mode else margin, max_index=max_index
    )

    stabilization: dict[int, bool] = {}
    notes_extra: dict = {}
    if universe_mode:
        notes_extra["mode"] = "window-as-universe (margin consumed the window)"
        stabilization = {i: False for i in indices}
    if template is not None and status != UNDETERMINED:
        growth = max(margin, 1)
        g2 = _unrolled(template, window + growth)
        margin2 = _resolve_margin(g2, template)
        indices2, failed2, *_ = _engine(g2, prop, margin=margin2, max_index=testable)
        for i, n in indices.items():
            stabilization[i] = indices2.get(i) == n
        if failed is not None:
            if failed in indices2:
                # the grown window finds an index: the failure was a window
                # artifact at the boundary, not a property of the family
                status = UNDETERMINED
                notes_extra["unstable_failure_index"] = failed
                failed = None
            else:
                stabilization[failed] = failed2 == failed
    elif status == HOLDS and not universe_mode:
        trusted = g.window.length - margin if margin else g.window.length
        for i, n in indices.items():
            stabilization[i] = n <= trusted

    witness, context = _failure(g, failed, cap, prop == "order-controllable") if failed else (None, None)
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


def is_weakly_observable(h: WindowSubgroup, *, h_big: Optional[WindowSubgroup] = None) -> Certificate:
    """Window verdict for: the finite-support members of the closure all lie in H.

    With only one window available the closure of a listed subgroup is the
    subgroup itself and the verdict trivially holds, whatever group H sits
    in.  Given a second snapshot of the same family on a longer window
    (``h_big``), the closure side becomes the set of prefixes the long
    window can match on the short window's range, and the member side the
    elements actually supported there; the verdict compares the two, with
    stabilization flags reporting whether the short snapshot already agreed.
    """
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

    ok = _matched(h_big, n_small, n_small)
    actual = local_section(h_big, (1, n_small))
    witness = None
    context = None
    if not ok:
        witness = least_outside(project(h_big, (1, n_small)), actual).embed(h_big.window, (1, n_small))
        context = {
            "depth": n_small,
            "reason": "prefix-matchable element with no finite-support member",
        }
    section_stable = actual == project(h, (1, n_small))
    flags = {n_small: section_stable}
    if n_small > 1:
        ok_prev = _matched(h_big, n_small - 1, n_small - 1)
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
            source = _unrolled(source, window)
        return is_rectangular(source, max_index=max_index)
    if prop == "weakly-observable":
        if isinstance(source, TemplateSpec):
            small = _unrolled(source, window)
            big = _unrolled(source, window + max(source.margin(), 1))
            return is_weakly_observable(small, h_big=big)
        return is_weakly_observable(source)
    if prop == "weakly-controllable":
        return is_weakly_controllable(source, window=window, max_index=max_index)
    if prop == "controllable":
        return controllability_certificate(source, window=window, max_index=max_index)
    return order_controllability_certificate(source, window=window, max_index=max_index)
