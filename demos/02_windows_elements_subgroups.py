"""Windows, elements, subgroups, and the projection and section operators.

A window truncates a product of finite abelian groups to coordinates 1..N.
Subgroups carry a canonical lattice basis, so equality is decidable and all
derived objects are deterministic.
"""

from groupwindows import (
    ComponentGroup,
    ProductWindow,
    WindowSubgroup,
    project,
    section,
)

# a window with three coordinates: Z(4), Z(4), Z(2)+Z(2)
window = ProductWindow(
    (ComponentGroup((4,)), ComponentGroup((4,)), ComponentGroup((2, 2)))
)
print("flat factor orders:", window.flat_orders)

x = window.element([[2], [1], [0, 1]])
print("x =", x.residues, " support:", x.support, " order:", x.order())

# the subgroup generated by two elements
g = WindowSubgroup(
    window,
    [window.element([[2], [1], [0, 0]]), window.element([[0], [1], [1, 0]])],
)
print("\n|G| =", g.order(), " exponent:", g.exponent())
print("canonical generators:")
for gen in g.canonical_generators:
    print("  ", gen.flat)

# membership is a lattice question
probe = window.element([[2], [2], [1, 0]])
print("\n(2, 2, [1,0]) in G:", g.contains(probe))
print("(1, 0, [0,0]) in G:", g.contains(window.element([[1], [0], [0, 0]])))

# projections restrict to a coordinate interval; sections keep the members
# supported inside it
print("\nprojection onto [1, 2]:", [e.flat for e in project(g, (1, 2)).canonical_generators])
sec = section(g, (1, 2))
print("members supported in [1, 2]:", sorted(e.flat for e in sec.elements()))

# two presentations of one subgroup share the canonical form
h = WindowSubgroup(window, list(g.canonical_generators))
print("\nsame canonical basis from a different presentation:", g == h)
