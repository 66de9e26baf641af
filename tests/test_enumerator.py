"""Tracing, collapsing, caps, and determinism of the enumerator."""

import pytest

from nquandles.enumerator import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VERTICES,
    EnumerationLimits,
    TraceGraph,
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
        assert g.step(v, v, 1) == v
        assert g.step(v, v, -1) == v


def test_step_is_none_until_forced():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    a, b = 0, 1
    assert g.step(a, b, 1) is None
    v = g.trace(a, ((b, 1),))
    assert g.step(a, b, 1) == v
    assert g.step(v, b, -1) == a  # the reverse edge lands with it
    # the new vertex is defined by the edge a --b--> v, so named a^b
    assert (g.def_parent[v], g.def_gen[v], g.def_sign[v]) == (a, b, 1)
    assert g.witnesses([v]) == [Expression(a, ((b, 1),))]


def test_live_accounting_after_schedule():
    p = family("T26", (2, 3))
    g = TraceGraph(p, EnumerationLimits())
    for rel in p.relations:
        g.trace(rel.base, rel.word, end=rel.target)
    g.collapse()
    run_schedule(g, p)
    live = g.live_vertices()
    assert g.live_count == len(live) == 10
    assert all(g.find(v) == v for v in live)
    # every created label kept its definition, pointing to an older
    # label, and every live vertex's witness spelled from the
    # definitions walks back to it without creating anything
    assert len(g.def_parent) == len(g.def_gen) == len(g.def_sign) == g.created
    assert all(g.def_parent[v] < v for v in range(len(p.generator_names), g.created))
    created = g.created
    for v, w in zip(live, g.witnesses(live)):
        assert g.trace(w.base, w.word) == v
    assert g.created == created


def test_outcome_reports_final_size():
    out = enumerate_quandle(family("T28", (2, 3)))
    assert out.finite
    assert out.vertices == out.quandle.size == 20
