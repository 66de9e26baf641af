"""Tracing, collapsing, caps, and determinism of the enumerator."""

import pytest

from nquandles.enumerator import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VERTICES,
    EnumerationInternalError,
    EnumerationLimits,
    TraceGraph,
    _seal,
    enumerate_quandle,
    run_schedule,
)
from nquandles.presentations import (
    PresentationError,
    augment_n,
    builtin_family,
    parse_presentation,
    parse_word,
)
from nquandles.words import Expression


def family(name, ns=None, k=None):
    p = builtin_family(name, k=k)
    return augment_n(p, ns) if ns is not None else p


# --- whole-run behaviour ------------------------------------------------------

def test_unknot_is_a_point():
    p = parse_presentation("gens a\ncomp a:1\nN 5\n")
    out = enumerate_quandle(p)
    assert out.finite
    q = out.quandle
    assert q.size == 1
    assert q.element_name(0) == "a"
    assert q.action == ((0,),)


def test_needs_n_values():
    with pytest.raises(PresentationError):
        enumerate_quandle(builtin_family("T24"))


def test_known_sizes():
    assert enumerate_quandle(family("trefoil", (3,))).vertices == 4
    assert enumerate_quandle(family("hopf", (2, 2))).vertices == 2
    assert enumerate_quandle(family("T24", (3, 4))).vertices == 14
    assert enumerate_quandle(family("T24C")).vertices == 26


def test_determinism_same_object():
    a = enumerate_quandle(family("T26", (2, 3))).quandle
    b = enumerate_quandle(family("T26", (2, 3))).quandle
    assert a == b  # full dataclass equality: tables, witnesses, everything


def test_cap_does_not_change_the_answer():
    # creation for this run peaks at 62 vertices; any cap above that
    # must give the identical quandle
    p = family("trefoil", (5,))
    tight = enumerate_quandle(p, EnumerationLimits(max_vertices=100))
    loose = enumerate_quandle(p, EnumerationLimits(max_vertices=100_000))
    assert tight.finite and loose.finite
    assert tight.quandle == loose.quandle
    assert tight.vertices == 12


def test_vertex_cap_trips():
    p = family("trefoil", (6,))
    out = enumerate_quandle(p, EnumerationLimits(max_vertices=10_000))
    assert not out.finite
    assert out.quandle is None
    assert out.cap_kind == "vertices"
    assert out.vertices == 10_001  # the allocation that broke the cap


def test_step_cap_trips():
    p = family("trefoil", (6,))
    out = enumerate_quandle(p, EnumerationLimits(max_steps=5_000))
    assert not out.finite
    assert out.cap_kind == "steps"


def test_tiny_vertex_cap_trips_during_setup():
    p = family("T24", (3, 3))
    out = enumerate_quandle(p, EnumerationLimits(max_vertices=1))
    assert not out.finite
    assert out.cap_kind == "vertices"


# Counters at the stop, measured before the edge tables became per-letter
# rows: the layout of the tables must not change which vertex is created,
# merged or kept, nor where a cap stops the run.
@pytest.mark.parametrize("p, limits, counters, cap_kind", [
    (family("Mk", k=6), {}, (4583, 4377, 69891, 206), None),
    (family("T24", (3, 4)), {}, (41, 27, 355, 14), None),
    (family("Mk", k=30), {}, (51455, 50385, 2141331, 1070), None),
    (family("trefoil", (6,)), {"max_vertices": 2000}, (2001, 1632, 13477, 369), "vertices"),
    (family("Mk", k=6), {"max_steps": 20000}, (2549, 1744, 20001, 805), "steps"),
], ids=["Mk6", "T24", "Mk30", "trefoil-vertex-cap", "Mk6-step-cap"])
def test_trajectory_is_pinned(p, limits, counters, cap_kind):
    out = enumerate_quandle(p, EnumerationLimits(**limits))
    assert out.stats == counters
    assert out.cap_kind == cap_kind
    assert out.vertices == (out.stats.live if cap_kind is None else out.stats.created)


def test_default_limits():
    limits = EnumerationLimits()
    assert limits.max_vertices == DEFAULT_MAX_VERTICES
    assert limits.max_steps == DEFAULT_MAX_STEPS


# --- graph-level hand checks ---------------------------------------------------

def test_trace_and_collapse_by_hand():
    # first primary relation of T24: a^[b a b] = a
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    assert g.live_count == 2  # the generator vertices
    names = p.generator_names
    a, b = 0, 1

    g.trace(a, parse_word("b a b", names), end=a)
    # three fresh vertices a^b, a^ba, a^bab; the last is pending = a
    assert g.created == 5
    assert len(g.pending) == 1

    g.collapse()
    assert g.live_count == 4
    assert g.find(4) == a  # a^bab folded into a
    # the relation path is now closed: walking it again creates nothing
    assert g.trace(a, parse_word("b a b", names)) == a
    assert g.created == 5


def test_idempotence_loops_preinstalled():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    for v in (0, 1):
        assert g.rows[2 * v][v] == v
        assert g.rows[2 * v + 1][v] == v
        # a generator vertex is defined by no edge, only by its letter
        assert (g.def_parent[v], g.def_code[v]) == (-1, 2 * v)
    assert g.witnesses([0, 1]) == [Expression(0, ()), Expression(1, ())]


def test_step_is_none_until_forced():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    a, b = 0, 1
    assert g.rows[2 * b][a] == -1
    v = g.trace(a, ((b, 1),))
    assert g.rows[2 * b][a] == v
    assert g.rows[2 * b + 1][v] == a  # the reverse edge lands with it
    # the new vertex is defined by the edge a --b--> v, so named a^b
    assert (g.def_parent[v], g.def_code[v]) == (a, 2 * b)
    assert g.witnesses([v]) == [Expression(a, ((b, 1),))]
    # an inverse letter is defined by the odd code and spelled back as one
    u = g.trace(a, ((b, -1),))
    assert (g.def_parent[u], g.def_code[u]) == (a, 2 * b + 1)
    assert g.witnesses([u]) == [Expression(a, ((b, -1),))]


def test_live_accounting_after_schedule():
    p = family("T26", (2, 3))
    g = TraceGraph(p, EnumerationLimits())
    for rel in p.relations:
        g.trace(rel.base, rel.word, end=rel.target)
    g.collapse()
    run_schedule(g, p)
    live = [v for v in range(g.created) if g.parent[v] == v]
    assert g.live_count == len(live) == 10
    assert all(g.find(v) == v for v in live)
    # every created label kept its definition, pointing to an older
    # label, and every live vertex's witness spelled from the
    # definitions walks back to it without creating anything
    assert len(g.def_parent) == len(g.def_code) == g.created
    assert all(0 <= c < 2 * len(p.generator_names) for c in g.def_code)
    assert all(g.def_parent[v] < v for v in range(len(p.generator_names), g.created))
    created = g.created
    for v, w in zip(live, g.witnesses(live)):
        assert g.trace(w.base, w.word) == v
    assert g.created == created


def test_outcome_reports_final_size():
    out = enumerate_quandle(family("T28", (2, 3)))
    assert out.finite
    assert out.vertices == out.quandle.size == 20


# --- sealing postconditions ------------------------------------------------------

def finished_t24():
    """A closed T24 N=(3,3) graph, its live labels in label order."""
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    for rel in p.relations:
        g.trace(rel.base, rel.word, end=rel.target)
        g.collapse()
    run_schedule(g, p)
    live = [v for v in range(g.created) if g.find(v) == v]
    assert len(live) == 8
    return p, g, live


def swap_edges(g, code, x, y):
    """Exchange the far ends of x's and y's edges with letter ``code``,
    re-entering the inverse edges so that the letter stays a bijection."""
    fwd, bwd = g.rows[code], g.rows[code ^ 1]
    fx, fy = g.find(fwd[x]), g.find(fwd[y])
    fwd[x], fwd[y] = fy, fx
    bwd[fy], bwd[fx] = x, y


def test_seal_accepts_the_finished_graph():
    p, g, live = finished_t24()
    q = _seal(g, p)
    assert q.size == 8
    assert q == enumerate_quandle(p).quandle


@pytest.mark.parametrize("code", [0, 3])
def test_seal_rejects_an_undefined_edge(code):
    p, g, live = finished_t24()
    g.rows[code][live[2]] = -1
    with pytest.raises(EnumerationInternalError,
                       match=f"generator {code >> 1} undefined at vertex {live[2]}"):
        _seal(g, p)


def test_seal_rejects_a_non_bijection():
    p, g, live = finished_t24()
    g.rows[0][live[1]] = g.rows[0][live[2]]  # two vertices, one image
    with pytest.raises(EnumerationInternalError, match="generator 0 is not a bijection"):
        _seal(g, p)


def test_seal_rejects_inverse_edges_that_disagree():
    p, g, live = finished_t24()
    g.rows[3][live[4]], g.rows[3][live[5]] = g.rows[3][live[5]], g.rows[3][live[4]]
    with pytest.raises(EnumerationInternalError, match="generator 1 is not a bijection"):
        _seal(g, p)


def test_seal_rejects_an_open_primary_relation():
    p, g, live = finished_t24()
    swap_edges(g, 0, live[0], live[1])
    with pytest.raises(EnumerationInternalError, match="primary relation"):
        _seal(g, p)


def test_seal_rejects_an_open_universal_relation():
    # this swap of a's edges keeps both primary relations closed (they
    # are checked first), so only a universal relation can catch it
    p, g, live = finished_t24()
    swap_edges(g, 0, live[0], live[3])
    with pytest.raises(EnumerationInternalError, match="universal relation"):
        _seal(g, p)
