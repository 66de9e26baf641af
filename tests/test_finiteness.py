"""The paper's finiteness prediction, tested on torus links.

T(p,q) is the closure of (s_1 ... s_(p-1))^q on p strands and has
d = gcd(p,q) components; with its braid axis added it has one more, the
last.  The prediction and the size of each component's orbit are
``torus_finite`` and ``orbit_sizes`` of ``oracles``, arithmetic on the
orbifold's cone points.  Every prediction on the grids below is checked
against the enumerator, every run the catalog holds a value for against
that value, and every torus row of the catalog against the orbit law.

``grid`` is the whole check; the CI workflow imports it, with ``tests``
on the path, to run larger grids than the two tests here.
"""

from collections import defaultdict
from itertools import product
from math import gcd

from nquandles import (
    EnumerationLimits,
    augment_n,
    braid_presentation,
    enumerate_quandle,
    expected_cardinality,
    orbits,
    verify_all,
)
from nquandles.catalog import CatalogError, catalog
from nquandles.presentations import FAMILIES, torus_braid
from oracles import orbit_sizes, torus_finite

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
    ``verify_all``, put each component's generators in one orbit of its
    ``orbit_sizes`` and equal every catalog value it has; any other run
    must stop at the vertex cap.  Returns (finite, capped, matched)."""
    finite = capped = matched = 0
    for p, q in product(ps, qs):
        presentation = braid_presentation(*torus_braid(p, q, axis))
        components = gcd(p, q) + axis
        assert len(set(presentation.component_of)) == components
        for ns in product(range(1, n_max + 1), repeat=components):
            out = enumerate_quandle(augment_n(presentation, ns), LIMITS)
            if torus_finite(p, q, ns, axis):
                assert out.finite, (p, q, ns, out.cap_kind)
                assert verify_all(out.quandle), (p, q, ns)
                part = orbits(out.quandle)
                sizes = part.sizes()
                for c, size in enumerate(orbit_sizes(p, q, ns, axis), 1):
                    orbit = {part.orbit_of[x] for x, comp in
                             zip(out.quandle.generator_element, presentation.component_of)
                             if comp == c}
                    assert [sizes[o] for o in orbit] == [size], (p, q, ns, c)
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


def test_the_orbit_law_derives_every_torus_row_of_the_catalog():
    # with no enumeration: each exact row at its N, and the two k rows at
    # |k| up to 10^6 with every n of the default sweep
    assert orbit_sizes(3, 3, (2, 3, 5)) == (30, 20, 12)
    assert orbit_sizes(2, 4, (2, 3, 2), axis=True) == (12, 8, 6)
    assert orbit_sizes(3, 2, (2, 2), axis=True) == (12, 6)
    ks = [*range(1, 101), 999, 1000, 99_999, 100_000, 999_999, 10**6]
    ks += [-k for k in ks]
    exact = swept = 0
    for entry in catalog():
        if not FAMILIES.get(entry.family):
            continue
        p, q, *axis = FAMILIES[entry.family]
        axis = bool(axis)
        if entry.exact_values is not None:
            for ns, value in entry.exact_values.items():
                assert torus_finite(p, q, ns, axis), (entry.row_id, ns)
                assert sum(orbit_sizes(p, q, ns, axis)) == value, (entry.row_id, ns)
                exact += 1
            continue
        for k, n in product(ks, (2, 3, 4, 5)):
            ns = (2,) * gcd(p, k) + (n,) * axis
            assert torus_finite(p, k, ns, axis), (entry.row_id, k, ns)
            value = expected_cardinality(entry.row_id, ns, k=k)
            assert sum(orbit_sizes(p, k, ns, axis)) == value, (entry.row_id, k, ns)
            swept += 1
    assert (exact, swept) == (20, 1696)
