"""The enumerator-free arithmetic the tests judge the enumerator by,
each law written once: the orbifold rules and sizes of torus and pretzel
links, three determinants, rotation classes of words and free reduction.
It imports only the standard library, as ``test_oracles`` checks, so it
shares no code with ``nquandles``; pytest collects no test from it."""

from fractions import Fraction
from itertools import product
from math import gcd, prod


def chi(cones):
    """The Euler characteristic of S² with these cone points."""
    return 2 - sum(1 - Fraction(1, a) for a in cones)


def torus_cones(p, q, ns, axis=False):
    """p/d, (q/d)·n_A and n_1 ... n_d for T(p, |q|), plus its braid axis
    labeled n_A = ns[-1] when ``axis``, else n_A = 1; d = gcd(p, q)."""
    q = abs(q)
    d = gcd(p, q)
    *strands, n_axis = ns if axis else (*ns, 1)
    return (p // d, q // d * n_axis, *strands)


def torus_finite(p, q, ns, axis=False):
    """The paper's prediction: finite exactly when chi > 0."""
    return chi(torus_cones(p, q, ns, axis)) > 0


def orbit_sizes(p, q, ns, axis=False):
    """The size of each component's orbit, in the order of ``ns``, for a
    predicted-finite T(p, q), plus its axis when ``axis``.  D is the von
    Dyck group of the cone points a > 1: of order 2/chi with three, cyclic
    of order gcd(a, b) with two, trivial with fewer.  A component's orbit
    has |D|/o elements, o the order in D of its cone point's generator:
    1 for a cone point of order 1, else the cone point itself with three,
    and gcd(a, b) with two."""
    cones = torus_cones(p, q, ns, axis)
    own = cones[2:] + (cones[1],) * axis  # the strands' n_i, then (q/d)·n_A
    big = [a for a in cones if a > 1]
    if len(big) == 3:
        group = 2 / chi(big)
        return tuple(int(group / a) for a in own)
    group = gcd(*big) if len(big) == 2 else 1
    return tuple(group if a == 1 else 1 for a in own)


def classes(n, pairs):
    """The class of each of n items when each pair is joined, classes
    numbered from 0 in the order of their least items."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            x = rep[x]
        return x

    for x, y in pairs:
        x, y = find(x), find(y)
        rep[max(x, y)] = min(x, y)
    roots = sorted({find(x) for x in range(n)})
    return [roots.index(find(x)) for x in range(n)]


def pretzel(a):
    """Crossings (over, under_in, under_out) of P(a_1, ..., a_r) and its
    arc count.  The diagram is a plat on 2r strands at positions 0 to
    2r-1: column j twists positions 2j and 2j+1 a_j times, the left strand
    crossing over when a_j > 0, and caps pair positions (2j+1, 2j+2) and
    (0, 2r-1) at the bottom and at the top.  The crossings' signs are left
    out: at N = 2 every generator is an involution, so orientation cannot
    matter."""
    width = 2 * len(a)
    caps = [(2 * j + 1, (2 * j + 2) % width) for j in range(len(a))]
    top = [0] * width
    for arc, pair in enumerate(caps):
        for position in pair:
            top[position] = arc
    arcs, crossings = len(caps), []
    for j, twists in enumerate(a):
        i = 2 * j
        for _ in range(abs(twists)):
            over, under = (top[i], top[i + 1]) if twists > 0 else (top[i + 1], top[i])
            crossings.append((over, under, arcs))
            top[i], top[i + 1] = (arcs, over) if twists > 0 else (over, arcs)
            arcs += 1
    arc = classes(arcs, [(top[p], top[q]) for p, q in caps])
    return [tuple(arc[x] for x in c) for c in crossings], max(arc) + 1


def determinant(a):
    """|sum over i of the product of the a_j with j != i|."""
    return abs(sum(prod(a[:i] + a[i + 1:]) for i in range(len(a))))


def coloring_determinant(crossings, arcs):
    """The order of the reduced Fox coloring module of a diagram with
    ``arcs`` arcs numbered from 0 and ``crossings`` given as (over,
    under_in, under_out), 0 if infinite: one row 2·over - under_in -
    under_out per crossing, the last arc's column deleted, reduced to
    echelon form by exact integer elimination."""
    rows = []
    for over, under_in, under_out in crossings:
        row = [0] * arcs
        row[over] += 2
        row[under_in] -= 1
        row[under_out] -= 1
        rows.append(row[:-1])
    order = 1
    for col in range(arcs - 1):
        live = [row for row in rows if row[col]]
        if not live:
            return 0
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not pivot:
                    factor = row[col] // pivot[col]
                    row[:] = [x - factor * y for x, y in zip(row, pivot)]
            live = [row for row in live if row[col]]
        order *= abs(live[0][col])
        rows = [row for row in rows if row is not live[0]]
    return order


def cone_points(a):
    return sorted(abs(x) for x in a if abs(x) >= 2)


def pretzel_finite(a):
    """Hoste–Shanahan's prediction at N = 2: chi > 0 over the cone points
    and, with at most two cone points, e = sum(1/a_j) is nonzero."""
    cones = cone_points(a)
    return chi(cones) > 0 and (len(cones) > 2 or sum(Fraction(1, x) for x in a) != 0)


def size_factor(a):
    """c of the size law, by base orbifold; only for a predicted-finite a."""
    cones = cone_points(a)
    if len(cones) <= 2:
        return 1
    if cones[:2] == [2, 2]:
        return Fraction(cones[2] + 1, 2)
    return {(2, 3, 3): 4, (2, 3, 4): 9, (2, 3, 5): 30}[tuple(cones)]


# the reduced Burau matrices of s_1, s_2 and their inverses at t = -1
BURAU = {1: ((1, 1), (0, 1)), 2: ((1, 0), (-1, 1)),
         -1: ((1, -1), (0, 1)), -2: ((1, 0), (1, 1))}


def burau_determinant(word):
    """|det(I - B)| for B the reduced Burau matrix of a 3-strand word at
    t = -1: the Alexander polynomial at -1 times 1 + t + t², which is 1
    there, so the determinant of the closed braid."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for letter in word:
        (e, f), (g, h) = BURAU[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return abs((1 - a) * (1 - d) - b * c)


def rotation_classes(m, lengths):
    """Words in the letters ±1 .. ±m, the least of each class of cyclic
    rotations, for each length in ``lengths`` in turn."""
    letters = [x for x in range(-m, m + 1) if x]
    for n in lengths:
        for word in product(letters, repeat=n):
            if word == min(word[i:] + word[:i] for i in range(n)):
                yield word


def naive_reduce(*words):
    """Free reduction of the joined words by quadratic fixpoint deletion,
    the obviously correct spelling: no stack loop, unlike the package's."""
    out = [c for word in words for c in word]
    while cancelling := [i for i in range(len(out) - 1) if out[i] == out[i + 1] ^ 1]:
        del out[cancelling[0]:cancelling[0] + 2]
    return tuple(out)
