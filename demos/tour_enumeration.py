"""
A first enumeration, inspected step by step
===========================================

Builds the order-(3,3) quandle of the simplest two-bridge torus link
presentation, then pokes at everything the result object carries.
"""

from nquandles import (
    augment_n,
    builtin_family,
    enumerate_quandle,
    full_op,
    orbits,
    print_presentation,
    verify_all,
)

# the presentation: two generators, one relation each, orders 3 and 3
p = augment_n(builtin_family("T24"), (3, 3))
print(print_presentation(p))

# run the tracing-and-collapsing procedure
outcome = enumerate_quandle(p)
assert outcome.finite
q = outcome.quandle
print(f"{q.size} elements")

# every element remembers the expression that first named it
for x in range(q.size):
    print(f"  {x}: {q.element_name(x)}")

# the quandle stores one permutation per generator; the full binary
# operation reads the operation table built from them
a, b = q.generator_element
print(f"\na > b        = element {full_op(q, a, b)}")
print(f"(a > b) >' b = element {full_op(q, full_op(q, a, b), b, -1)}")

# orbits of the point-symmetry action, one per link component
part = orbits(q)
print(f"\norbits: {part.orbit_count}")
for orbit in range(part.orbit_count):
    members = ", ".join(q.element_name(x) for x in part.members(orbit))
    print(f"  {members}")

# the verifier re-checks the axioms, the power relations, and the
# orbit/component correspondence from the finished tables
report = verify_all(q)
print(f"\nverified: {report.ok}")
