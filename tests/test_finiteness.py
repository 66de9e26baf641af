"""The paper's finiteness prediction, tested on torus links.

T(p,q) is the closure of (s_1 ... s_(p-1))^q on p strands and has
d = gcd(p,q) components.  Its N-quandle is predicted finite exactly when
the orbifold with cone points p/d, q/d and n_1 ... n_d has positive
Euler characteristic.  Every prediction on the grid below is checked
against the enumerator, and every run the catalog holds a value for
against that value."""

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

LIMITS = EnumerationLimits(max_vertices=2_000)

# the tabulated catalog row of T(p, q); T(2, q) is also row T2k at k = q
ROWS = {(2, 3): "T23", (3, 2): "T23", (2, 4): "T24", (2, 5): "T25",
        (2, 6): "T26", (3, 3): "T33", (3, 4): "T34", (3, 5): "T35"}


def predicted_finite(p, q, ns):
    """chi = 2 - sum(1 - 1/a) over the cone points p/d, q/d and ns,
    where a cone point of order 1 adds nothing; finite when chi > 0."""
    d = gcd(p, q)
    chi = 2 - sum(1 - Fraction(1, a) for a in (p // d, q // d, *ns))
    return chi > 0


def catalog_values(p, q, ns):
    rows = [(ROWS[p, q], {})] if (p, q) in ROWS else []
    if p == 2:
        rows.append(("T2k", {"k": q}))
    for row_id, params in rows:
        try:
            yield expected_cardinality(row_id, ns, **params)
        except CatalogError:
            pass


def test_torus_links_are_finite_exactly_where_predicted():
    finite = capped = matched = 0
    for p, q in product((2, 3), range(2, 8)):
        presentation = braid_presentation((*range(1, p),) * q, p)
        d = gcd(p, q)
        assert len(set(presentation.component_of)) == d
        for ns in product(range(1, 6), repeat=d):
            out = enumerate_quandle(augment_n(presentation, ns), LIMITS)
            if predicted_finite(p, q, ns):
                assert out.finite, (p, q, ns, out.cap_kind)
                assert verify_all(out.quandle), (p, q, ns)
                finite += 1
                for value in catalog_values(p, q, ns):
                    assert out.quandle.size == value, (p, q, ns, value)
                    matched += 1
            else:
                assert out.cap_kind == "vertices", (p, q, ns, out.vertices)
                capped += 1
    assert (finite, capped, matched) == (217, 143, 25)
