"""Generating-set synthesis and the homomorphic encoder, on a window closure.

The shift family of demo 03 is not order controllable, but its window
closure is: the closure adds every prefix the family can match, which here
makes the group rectangular in disguise.  The synthesis walks the coordinate
axis, collects socle elements of maximal height block by block, and divides
each one down to a finite-support generator.  Coefficient sequences against
those generators then encode the group.
"""

from groupwindows import (
    Encoder,
    FixedGenerator,
    ShiftedGenerator,
    TemplateSpec,
    WindowSubgroup,
    check_implicit_direct_product,
    closure_window,
    encode,
    order_controllability_certificate,
    represent,
    synthesize_p,
    unroll_template,
    verify_block_properties,
    verify_isomorphic_encoder,
)

template = TemplateSpec(
    period=1,
    component_orders=((4,),),
    fixed_generators=(FixedGenerator(((1, (2,)), (2, (1,)))),),
    shifted_generators=(ShiftedGenerator(start=2, stride=1, pattern=((0, (1,)), (1, (1,)))),),
)

closure = closure_window(template, 8).group
print("|closure at N = 8| =", closure.order())

cert = order_controllability_certificate(closure)
print("order controllability:", cert.status, " indices:", cert.indices)

gs = synthesize_p(closure, 2, cert)
print("\nblocks (boundary, generators added):", [(b.d, b.size) for b in gs.blocks])
print("heights:", gs.heights)
print("cyclic orders of the encoder domain:", gs.orders)
for x, y, h in zip(gs.socle_elements, gs.generators, gs.heights):
    print(f"  x = {x.flat}  =  2^{h} * y,  y = {y.flat}")

report = verify_block_properties(gs, closure)
print("\nstructural re-check passes:", report.passed())
print("isomorphic encoder:", verify_isomorphic_encoder(gs, closure))
idp = check_implicit_direct_product(gs, closure)
print("implicit direct product:", bool(idp))

enc = Encoder(group=closure, generating_set=gs)
coeffs = [1, 3, 0, 2, 0, 0, 1, 0]
z = encode(enc, coeffs)
print("\nencode", coeffs, "->", z.flat)
print("represent back:", represent(z, enc))

# the same family handed over in its raw arrangement does not encode the
# closure: the span is too small, so the choice of generating set matters
raw = unroll_template(template, 8).group
print("\nraw family span == closure:", WindowSubgroup(closure.window, raw.generators) == closure)
