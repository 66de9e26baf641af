"""
Parameterized families against their closed forms
=================================================

The two builtin families with a free integer parameter both have known
cardinality formulas.  This sweeps a window of parameters, enumerates
each member, and prints the match.
"""

from nquandles import (
    augment_n,
    builtin_family,
    enumerate_quandle,
    expected_cardinality,
    is_isomorphic,
    orbits,
)

# torus link plus axis: n|k| + 2 elements, axis orbit of size 2
print("axis-augmented torus links, orders (2, n) resp. (2, 2, n)")
print(f"{'k':>3} {'n':>3} {'formula':>8} {'found':>6}  orbit sizes")
for k in (1, 2, 3, 4, 5, -5):
    for n in (2, 3):
        ns = (2, n) if k % 2 else (2, 2, n)
        q = enumerate_quandle(augment_n(builtin_family("Lk", k=k), ns)).quandle
        sizes = sorted(orbits(q).sizes(), reverse=True)
        print(f"{k:>3} {n:>3} {expected_cardinality('Lk', ns, k=k):>8} {q.size:>6}  {sizes}")

# twist knot plus axis at orders (2, 3): 18|2k-1| + 8 elements
print("\naxis-augmented twist knots, orders (2, 3)")
print(f"{'k':>3} {'formula':>8} {'found':>6}  orbit sizes")
for k in range(-2, 4):
    q = enumerate_quandle(builtin_family("Mk", k=k)).quandle
    sizes = sorted(orbits(q).sizes(), reverse=True)
    print(f"{k:>3} {expected_cardinality('Mk', (2, 3), k=k):>8} {q.size:>6}  {sizes}")

# mirror images carry isomorphic quandles, k <= 0 twists fold onto k >= 1
lk3 = enumerate_quandle(augment_n(builtin_family("Lk", k=3), (2, 3))).quandle
lk3m = enumerate_quandle(augment_n(builtin_family("Lk", k=-3), (2, 3))).quandle
print(f"\nk=3 vs k=-3 isomorphic: {is_isomorphic(lk3, lk3m)}")

m0 = enumerate_quandle(builtin_family("Mk", k=0)).quandle
m1 = enumerate_quandle(builtin_family("Mk", k=1)).quandle
print(f"twist k=0 vs k=1 isomorphic: {is_isomorphic(m0, m1)}")
