"""The paper's finiteness prediction, tested on torus links.

T(p,q) is the closure of (s_1 ... s_(p-1))^q on p strands and has
d = gcd(p,q) components.  Its N-quandle is predicted finite exactly when
the orbifold with cone points p/d, q/d and n_1 ... n_d has positive
Euler characteristic.  With its braid axis added as a last component,
labeled n_A, the cone point q/d becomes (q/d)·n_A.  Every prediction on
the grids below is checked against the enumerator, and every run the
catalog holds a value for against that value.

``grid`` is the whole check; the CI workflow imports it, with ``tests``
on the path, to run larger grids than the two tests here.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from nquandles import (
    EnumerationLimits,
    augment_n,
    braid_presentation,
    enumerate_quandle,
    expected_cardinality,
    verify_all,
)
from nquandles.catalog import CatalogError
from nquandles.presentations import _with_axis

LIMITS = EnumerationLimits(max_vertices=2_000)

# the tabulated catalog row of T(p, q); T(2, q) is also row T2k at k = q
ROWS = {(2, 3): "T23", (3, 2): "T23", (2, 4): "T24", (2, 5): "T25",
        (2, 6): "T26", (2, 8): "T28", (3, 3): "T33", (3, 4): "T34", (3, 5): "T35"}
# the same with the braid axis; T(2, q) plus axis is also row Lk at k = q.
# T23B is the trefoil as T(3, 2) with its 3-braid axis: T(2, 3) with its
# 2-braid axis is another link, with 8 elements at N = (2, 2), not 18.
AXIS_ROWS = {(2, 4): "T24C", (3, 2): "T23B"}


def predicted_finite(p, q, ns, axis=False):
    """chi = 2 - sum(1 - 1/a) over the cone points p/d, (q/d)·n_A and
    n_1 ... n_d, where n_A = 1 without the axis and a cone point of
    order 1 adds nothing; finite when chi > 0."""
    d = gcd(p, q)
    *strands, n_axis = ns if axis else (*ns, 1)
    chi = 2 - sum(1 - Fraction(1, a) for a in (p // d, q // d * n_axis, *strands))
    return chi > 0


def catalog_values(p, q, ns, axis=False):
    table = AXIS_ROWS if axis else ROWS
    rows = [(table[p, q], {})] if (p, q) in table else []
    if p == 2:
        rows.append(("Lk" if axis else "T2k", {"k": q}))
    for row_id, params in rows:
        try:
            yield expected_cardinality(row_id, ns, **params)
        except CatalogError:
            pass


def grid(ps, qs, n_max, axis=False):
    """Enumerate T(p,q), plus its braid axis when ``axis``, for p in
    ``ps`` and q in ``qs`` at every N in {1..n_max}^components under a
    2,000-vertex cap.  A predicted-finite run must close, pass
    ``verify_all`` and equal every catalog value it has; any other run
    must stop at the vertex cap.  Returns (finite, capped, matched)."""
    finite = capped = matched = 0
    for p, q in product(ps, qs):
        word = (*range(1, p),) * q
        presentation = braid_presentation(*(_with_axis(word, p) if axis else (word, p)))
        components = gcd(p, q) + axis
        assert len(set(presentation.component_of)) == components
        for ns in product(range(1, n_max + 1), repeat=components):
            out = enumerate_quandle(augment_n(presentation, ns), LIMITS)
            if predicted_finite(p, q, ns, axis):
                assert out.finite, (p, q, ns, out.cap_kind)
                assert verify_all(out.quandle), (p, q, ns)
                finite += 1
                for value in catalog_values(p, q, ns, axis):
                    assert out.quandle.size == value, (p, q, ns, value)
                    matched += 1
            else:
                assert out.cap_kind == "vertices", (p, q, ns, out.vertices)
                capped += 1
    return finite, capped, matched


def test_torus_links_are_finite_exactly_where_predicted():
    assert grid((2, 3), range(2, 8), 5) == (217, 143, 25)


def test_torus_links_with_their_braid_axis_are_finite_exactly_where_predicted():
    assert grid((2, 3), range(1, 8), 4, axis=True) == (416, 432, 30)
