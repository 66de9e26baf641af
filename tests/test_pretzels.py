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

The rule, the size law, the plat diagram and both determinants, from
the a_j and from the Fox coloring matrix, are arithmetic in ``oracles``
with no enumerator code; only the presentation is built here.  ``grid``
is the whole check; the CI workflow imports it, with ``tests`` on the
path, to run a larger grid than the test here.
"""

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
from oracles import (classes, coloring_determinant, determinant, pretzel, pretzel_finite,
                     rotation_classes, size_factor)

# the cap every run predicted infinite must reach; a run predicted
# finite closes under the default cap
CAP = EnumerationLimits(max_vertices=3_000)


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


def grid(rs, a_max):
    """Enumerate P(a_1, ..., a_r) at N all 2 for r in ``rs``, 0 < |a_j| <=
    ``a_max``, one word per rotation class.  A predicted-finite run must
    close under the default cap, pass ``verify_all`` and have c·det
    elements; any other run must stop at the 3,000-vertex cap.  The two
    determinants must agree everywhere.  Returns (finite, capped, over the
    cap): the last counts the finite runs that created more vertices than
    the cap of the capped ones."""
    finite = capped = over = 0
    for a in rotation_classes(a_max, rs):
        det = determinant(a)
        assert coloring_determinant(*pretzel(a)) == det, a
        p = presentation(a)
        if pretzel_finite(a):
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
