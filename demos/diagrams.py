"""
From a braid word to a finite quandle
=====================================

Closes a braid into a link diagram, reads off the crossing
presentation, compares it with the presentation read off the braid
itself, and enumerates at a few small orders.
"""

from nquandles import (
    augment_n,
    braid_presentation,
    closed_braid_diagram,
    enumerate_quandle,
    is_isomorphic,
    print_diagram,
    print_presentation,
    wirtinger,
)

# the closed 3-crossing braid on two strands
d = closed_braid_diagram([1, 1, 1], 2)
print("diagram, one JSON object per line:")
print(print_diagram(d))

# one generator per arc, one relation per crossing
p = wirtinger(d)
print("crossing presentation:")
print(print_presentation(p))

# one generator per strand, one relation per strand closing the braid
b = braid_presentation([1, 1, 1], 2)
print("braid presentation:")
print(print_presentation(b))

# the quandle is finite exactly for orders 3, 4, 5, and both
# presentations give the same one
for n in (3, 4, 5):
    out = enumerate_quandle(augment_n(b, (n,)))
    same = is_isomorphic(out.quandle, enumerate_quandle(augment_n(p, (n,))).quandle)
    print(f"order {n}: {out.vertices} elements, isomorphic to the crossing "
          f"presentation's: {same}")

# order 6 diverges; a vertex cap turns that into a reported outcome
from nquandles import EnumerationLimits

out = enumerate_quandle(augment_n(b, (6,)),
                        EnumerationLimits(max_vertices=20_000))
print(f"order 6: exceeded the {out.cap_kind} cap "
      f"after {out.vertices} vertices")

# a three-strand example: the (3,4) torus knot at order 2
p3 = braid_presentation([1, 2] * 4, 3)
out = enumerate_quandle(augment_n(p3, (2,)))
print(f"\nclosed (s1 s2)^4 braid at order 2: {out.vertices} elements")
