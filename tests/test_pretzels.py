"""Hoste–Shanahan's finite list at N = 2, tested on pretzel links.

At N all 2 the N-quandle of a link is finite exactly when the double
branched cover has finite fundamental group.  For the pretzel link
P(a_1, ..., a_r) that cover is Seifert-fibred over S² with a cone point
|a_j| for each |a_j| >= 2 and Euler number e = sum of 1/a_j, so the
prediction is arithmetic: finite exactly when the base has χ > 0 and,
with at most two cone points, e != 0 (e = 0 there is S² × S¹).  A
finite N-quandle then has c·det elements, det the link's determinant and
c set by the base orbifold: 1 with at most two cone points, (m+1)/2 for
S²(2,2,m), and 4, 9 and 30 for S²(2,3,3), S²(2,3,4) and S²(2,3,5).

The diagram is built here as a plat, and the determinant is computed
twice, from the a_j and from the Fox coloring matrix, with no enumerator
code.  ``grid`` is the whole check; the CI workflow imports it, with
``tests`` on the path, to run a larger grid than the test here.
"""

from fractions import Fraction
from itertools import product
from math import prod

from nquandles import (
    EnumerationLimits,
    Presentation,
    PrimaryRelation,
    augment_n,
    builtin_family,
    enumerate_quandle,
    is_isomorphic,
    verify_all,
)

# the cap every run predicted infinite must reach; a run predicted
# finite closes under the default cap
CAP = EnumerationLimits(max_vertices=3_000)


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


def presentation(a):
    """The pretzel's N = (2, ..., 2) presentation, one generator per arc:
    under_in^over = under_out at each crossing, components the classes
    of arcs joined through a crossing's under strand."""
    crossings, arcs = pretzel(a)
    component = classes(arcs, [(under_in, under_out) for _, under_in, under_out in crossings])
    relations = tuple(PrimaryRelation(under_in, (2 * over,), under_out)
                      for over, under_in, under_out in crossings)
    p = Presentation(tuple(f"x{x}" for x in range(arcs)),
                     tuple(c + 1 for c in component), None, relations)
    return augment_n(p, (2,) * (max(component) + 1))


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


def predicted_finite(a):
    """χ = 2 - sum(1 - 1/m) over the cone points is positive and, with at
    most two cone points, e = sum(1/a_j) is nonzero."""
    cones = cone_points(a)
    chi = 2 - sum(1 - Fraction(1, m) for m in cones)
    return chi > 0 and (len(cones) > 2 or sum(Fraction(1, x) for x in a) != 0)


def size_factor(a):
    """c of the size law, by base orbifold; only for a predicted-finite a."""
    cones = cone_points(a)
    if len(cones) <= 2:
        return 1
    if cones[:2] == [2, 2]:
        return Fraction(cones[2] + 1, 2)
    return {(2, 3, 3): 4, (2, 3, 4): 9, (2, 3, 5): 30}[tuple(cones)]


def necklaces(r, a_max):
    """One word a_1 ... a_r per rotation class, 0 < |a_j| <= a_max."""
    values = [x for x in range(-a_max, a_max + 1) if x]
    for a in product(values, repeat=r):
        if a == min(a[i:] + a[:i] for i in range(r)):
            yield a


def grid(rs, a_max):
    """Enumerate P(a_1, ..., a_r) at N all 2 for r in ``rs``, 0 < |a_j| <=
    ``a_max``, one word per rotation class.  A predicted-finite run must
    close under the default cap, pass ``verify_all`` and have c·det
    elements; any other run must stop at the 3,000-vertex cap.  The two
    determinants must agree everywhere.  Returns (finite, capped, over the
    cap): the last counts the finite runs that created more vertices than
    the cap of the capped ones."""
    finite = capped = over = 0
    for r in rs:
        for a in necklaces(r, a_max):
            det = determinant(a)
            assert coloring_determinant(*pretzel(a)) == det, a
            p = presentation(a)
            if predicted_finite(a):
                out = enumerate_quandle(p)
                assert out.finite, (a, out.cap_kind)
                assert verify_all(out.quandle), a
                assert out.quandle.size == size_factor(a) * det, (a, out.quandle.size, det)
                finite += 1
                over += out.stats.created > CAP.max_vertices
            else:
                out = enumerate_quandle(p, CAP)
                assert out.cap_kind == "vertices", (a, out.stats)
                capped += 1
    return finite, capped, over


def test_pretzel_links_are_finite_exactly_where_predicted():
    assert grid((2, 3), 4) == (174, 38, 0)


def test_pretzels_that_are_torus_knots_match_their_braids():
    # P(-2,3,3) is T(3,4) and P(-2,3,5) is T(3,5), up to mirror image,
    # which an involutory quandle cannot tell apart
    for a, family, size in [((-2, 3, 3), "T34", 12), ((-2, 3, 5), "T35", 30)]:
        q = enumerate_quandle(presentation(a)).quandle
        r = enumerate_quandle(builtin_family(family, n_values=(2,))).quandle
        assert q.size == r.size == size, a
        assert is_isomorphic(q, r) and is_isomorphic(r, q), a


def test_pretzels_p22q_have_twice_q_plus_one_squared_elements():
    for q in range(2, 6):
        out = enumerate_quandle(presentation((2, 2, q)))
        assert out.quandle.size == 2 * (q + 1) ** 2, q
