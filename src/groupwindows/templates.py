"""Shift-style template descriptions of window groups.

A template describes a family of groups, one per window length: a periodic
component layout, a list of fixed generators with explicit finite support,
and shifted generator patterns that are stamped out at start, start+stride,
start+2*stride, ... as long as they fit inside the window.

Unrolling a template at window length N gives a concrete WindowSubgroup.
The window closure of a template at N is the projection onto [1, N] of the
unroll at a slightly longer window; it captures every prefix the family can
match, including those that need generators reaching past N.
"""

from __future__ import annotations

from .errors import InputError
from .record import Frozen, store
from .window import ComponentGroup, ProductWindow, WindowSubgroup, project


class FixedGenerator(Frozen, fields=("support",)):
    """A generator with explicit support: sorted (coordinate, residues) pairs."""

    def __init__(self, support: tuple[tuple[int, tuple[int, ...]], ...]):
        store(self, "support", support)

    def max_coordinate(self) -> int:
        return max(c for c, _ in self.support) if self.support else 0

    def width(self) -> int:
        if not self.support:
            return 0
        coords = [c for c, _ in self.support]
        return max(coords) - min(coords) + 1


class ShiftedGenerator(Frozen, fields=("start", "stride", "pattern")):
    """A pattern stamped at start, start+stride, ...; offsets are 0-based."""

    def __init__(self, start: int, stride: int, pattern: tuple[tuple[int, tuple[int, ...]], ...]):
        store(self, "start", start)
        store(self, "stride", stride)
        store(self, "pattern", pattern)
        if stride < 1:
            raise InputError("shifted generator stride must be >= 1")
        if start < 1:
            raise InputError("shifted generator start must be >= 1")
        for off, _ in pattern:
            if off < 0:
                raise InputError("pattern offsets must be >= 0")

    def width(self) -> int:
        if not self.pattern:
            return 0
        offs = [o for o, _ in self.pattern]
        return max(offs) - min(offs) + 1

    def max_offset(self) -> int:
        return max((o for o, _ in self.pattern), default=0)


class TemplateSpec(
    Frozen, fields=("period", "component_orders", "fixed_generators", "shifted_generators")
):
    """Periodic components plus fixed and shifted generator families."""

    def __init__(
        self,
        period: int,
        component_orders: tuple[tuple[int, ...], ...],
        fixed_generators: tuple[FixedGenerator, ...] = (),
        shifted_generators: tuple[ShiftedGenerator, ...] = (),
    ):
        store(self, "period", period)
        store(self, "component_orders", component_orders)
        store(self, "fixed_generators", fixed_generators)
        store(self, "shifted_generators", shifted_generators)
        if period < 1:
            raise InputError("component template period must be >= 1")
        if len(component_orders) != period:
            raise InputError(
                f"component template lists {len(component_orders)} coordinate "
                f"shapes but declares period {period}"
            )

    def component_at(self, coordinate: int) -> tuple[int, ...]:
        return self.component_orders[(coordinate - 1) % self.period]

    def window(self, n: int) -> ProductWindow:
        if n < 1:
            raise InputError("window length must be >= 1")
        return ProductWindow(tuple(ComponentGroup(self.component_at(i)) for i in range(1, n + 1)))

    def margin(self) -> int:
        """Maximal generator support width; how far boundary effects reach."""
        widths = [g.width() for g in self.fixed_generators]
        widths += [s.width() for s in self.shifted_generators]
        return max(widths, default=0)


class UnrollResult(Frozen, fields=("window", "group", "skipped")):
    def __init__(
        self,
        window: ProductWindow,
        group: WindowSubgroup,
        skipped: tuple[tuple[str, int], ...] = (),  # (kind or pattern index, start coord)
    ):
        store(self, "window", window)
        store(self, "group", group)
        store(self, "skipped", skipped)


def _place(window: ProductWindow, placements) -> list[int]:
    """A flat row with each coordinate's residues, reduced, at its slice."""
    row = [0] * window.flat_length
    for coord, residues in placements:
        s, e = window.coord_slices[coord - 1]
        if len(residues) != e - s:
            raise InputError(f"coordinate {coord}: expected {e - s} residues, got {len(residues)}")
        row[s:e] = (int(r) % m for r, m in zip(residues, window.flat_orders[s:e]))
    return row


def unroll_template(template: TemplateSpec, n: int) -> UnrollResult:
    """Materialize the template at window length n.

    Fixed generators come first, then shifted instances ordered by start
    coordinate and pattern index.  Instances whose support does not fit in
    [1, n] are skipped and recorded.  Each generator is written straight
    into a flat row, residues reduced into [0, m_f), and the rows span the
    group (``WindowSubgroup.from_rows``).
    """
    window = template.window(n)
    for fg in template.fixed_generators:
        if fg.max_coordinate() > n:
            raise InputError(
                f"window length {n} is smaller than a fixed generator support "
                f"reaching coordinate {fg.max_coordinate()}"
            )
    rows = [_place(window, fg.support) for fg in template.fixed_generators]
    skipped = []
    instances = []
    for idx, sg in enumerate(template.shifted_generators):
        start = sg.start
        while start <= n:
            top = start + sg.max_offset()
            if top > n:
                skipped.append((f"shifted[{idx}]", start))
            else:
                instances.append((start, idx, sg))
            start += sg.stride
    instances.sort(key=lambda t: (t[0], t[1]))
    for start, _idx, sg in instances:
        rows.append(_place(window, [(start + off, res) for off, res in sg.pattern]))
    return UnrollResult(window=window, group=WindowSubgroup.from_rows(window, rows), skipped=tuple(skipped))


def closure_window(template: TemplateSpec, n: int, lookahead: int | None = None) -> UnrollResult:
    """The window closure of the template at length n.

    Computed as the projection onto [1, n] of the unroll at n + lookahead,
    where the default lookahead is the template margin.  Generators beyond
    the window can then still contribute their visible prefixes.
    """
    if lookahead is None:
        lookahead = max(template.margin(), 1)
    big = unroll_template(template, n + lookahead)
    projected = project(big.group, (1, n))
    return UnrollResult(window=projected.window, group=projected, skipped=big.skipped)
