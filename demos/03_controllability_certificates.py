"""Controllability certificates on a shift-style template family.

The family below lives over Z(4) coordinates: one fixed generator placing
(2, 1) at coordinates 1, 2 and a (1, 1) pattern stamped at every later
position.  The family is weakly controllable and controllable, but not order
controllable: an element whose visible prefix has order 2 can only be
completed inside the window by elements of order 4.
"""

from groupwindows import (
    FixedGenerator,
    ShiftedGenerator,
    TemplateSpec,
    certify,
    section,
    project,
    unroll_template,
)

template = TemplateSpec(
    period=1,
    component_orders=((4,),),
    fixed_generators=(FixedGenerator(((1, (2,)), (2, (1,)))),),
    shifted_generators=(ShiftedGenerator(start=2, stride=1, pattern=((0, (1,)), (1, (1,)))),),
)

for n in (4, 6, 8):
    group = unroll_template(template, n).group
    print(f"window N = {n}: |G| = {group.order()}")
    for prop in ("weakly-controllable", "controllable", "order-controllable"):
        cert = certify(template, prop, window=n)
        line = f"  {prop:>20}: {cert.status}"
        if cert.indices:
            line += f"  indices {cert.indices}"
        print(line)
    cert = certify(template, "order-controllable", window=n)
    witness = cert.witness
    print("  witness:", witness.flat)
    i, bound = cert.witness_context["i"], cert.witness_context["n"]
    proj = witness.restrict((1, bound))
    companions = [
        z
        for z in project(section(group, (1, bound)), (1, bound)).elements()
        if z.flat[: 1] == proj.flat[: 1]
    ]
    orders = sorted({z.order() for z in companions})
    print(
        f"  obstruction at i = {i}: prefix order {proj.order()}, "
        f"companion orders {orders}"
    )
    print()

# rectangular groups have matching index n_i = i at every depth
from groupwindows import ComponentGroup, ProductWindow

box = ProductWindow((ComponentGroup((4,)), ComponentGroup((2,)), ComponentGroup((4,)))).full_subgroup()
cert = certify(box, "order-controllable")
print("full product:", cert.status, " indices:", cert.indices)
print("rectangular:", certify(box, "rectangular").status)
