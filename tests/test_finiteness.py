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

from collections import defaultdict
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
from nquandles.catalog import CatalogError, catalog
from nquandles.presentations import FAMILIES, torus_braid

LIMITS = EnumerationLimits(max_vertices=2_000)


def torus_rows():
    """(p, q, axis) -> the catalog rows of T(p, q), plus its braid axis
    when ``axis``, read from each row's builtin family.  Without the axis
    T(p, q) is T(q, p).  A family that takes k is keyed by q = None: its
    rows hold T(p, q) at k = q, and of a row's N shapes only the one with
    T(p, q)'s component count answers.  T23B is the trefoil as T(3, 2)
    with its 3-braid axis; T(2, 3) with its 2-braid axis is another link,
    Lk at k = 3."""
    rows = defaultdict(list)
    for entry in catalog():
        if FAMILIES.get(entry.family):
            p, q, *axis = FAMILIES[entry.family]
            rows[p, q, bool(axis)].append(entry.row_id)
            if q is not None and not axis and q != p:
                rows[q, p, False].append(entry.row_id)
    return dict(rows)


ROWS = torus_rows()


def predicted_finite(p, q, ns, axis=False):
    """chi = 2 - sum(1 - 1/a) over the cone points p/d, (q/d)·n_A and
    n_1 ... n_d, where n_A = 1 without the axis and a cone point of
    order 1 adds nothing; finite when chi > 0."""
    d = gcd(p, q)
    *strands, n_axis = ns if axis else (*ns, 1)
    chi = 2 - sum(1 - Fraction(1, a) for a in (p // d, q // d * n_axis, *strands))
    return chi > 0


def catalog_values(p, q, ns, axis=False):
    rows = [(row_id, {}) for row_id in ROWS.get((p, q, axis), [])]
    rows += [(row_id, {"k": q}) for row_id in ROWS.get((p, None, axis), [])]
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
        presentation = braid_presentation(*torus_braid(p, q, axis))
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
