"""Scanning, collapsing, caps, and determinism of the enumerator."""

import copy
import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import random
import sys
import tracemalloc
import weakref
from collections import deque
from functools import lru_cache
from pathlib import Path

import pytest

from nquandles import enumerator
from nquandles.catalog import iter_checks
from nquandles.enumerator import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VERTICES,
    EnumerationInternalError,
    EnumerationLimits,
    Relators,
    TraceGraph,
    _CapExceeded,
    _seal,
    compile_relators,
    enumerate_quandle,
    run_schedule,
)
from nquandles.presentations import (
    PresentationError,
    augment_n,
    braid_presentation,
    builtin_family,
    conjugate_relations,
    parse_presentation,
    parse_word,
    print_presentation,
    secondary_relations,
)
from nquandles.quandle import (
    FiniteQuandle,
    _table_dtype,
    export_dot,
    export_json,
    orbits,
    verify_all,
    verify_axioms,
)
from nquandles.quandle import Expression, expression_str
from nquandles.words import concat
from oracles import rotation_classes


def family(name, ns=None, k=None):
    p = builtin_family(name, k=k)
    return augment_n(p, ns) if ns is not None else p


@lru_cache(maxsize=None)
def mk(k):
    """Mk under the default limits, run once per k for this module."""
    return enumerate_quandle(family("Mk", k=k), EnumerationLimits())


def _codes(word):
    """Letter codes of a word of (generator, sign) pairs, as secondary
    relations and witnesses spell them, letter for letter: 2*gen for
    gen, 2*gen + 1 for its inverse, whatever the generator's n."""
    return [2 * gen + (sign < 0) for gen, sign in word]


def trace(g, start, word, end):
    """Scan the letter codes ``word`` from start's class to end's (step 3)."""
    g.scan(g.find(start), g.bind(word), g.find(end))


def follow(g, v, word):
    """The end of the path labeled by the letter codes ``word`` from v's
    class, or None where an edge is missing; reads the rows and changes
    nothing."""
    v = g.find(v)
    for code in word:
        v = g.rows[code][v]
        if v < 0:
            return None
        v = g.find(v)
    return v


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
    assert a == b  # full dataclass equality: tables, generator elements, everything


def test_cap_does_not_change_the_answer():
    # this run creates 13 vertices in all; a cap of 13 or more must give
    # the identical quandle, and one of 12 stops it
    p = family("trefoil", (5,))
    tight = enumerate_quandle(p, EnumerationLimits(max_vertices=13))
    loose = enumerate_quandle(p, EnumerationLimits(max_vertices=100_000))
    assert tight.finite and loose.finite
    assert tight.quandle == loose.quandle
    assert tight.vertices == 12
    assert loose.stats.created == 13
    assert enumerate_quandle(p, EnumerationLimits(max_vertices=12)).cap_kind == "vertices"


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


# Counters at the stop of the two-ended scan, which reads each relation
# forwards and backwards along the edges already there and makes vertices
# only for the gap between, in a sweep that processes each vertex label
# once: they pin which vertex is created, merged or kept, and where a cap
# stops the run.  The trefoil is the closed braid on its two strands, and
# its N=6 quandle merges nothing before the cap, so its mirror pins a
# vertex cap after merges.  Mk k=6 closes in 10,045 steps, so its step
# cap sits below that, after its last vertex is made (by step 5,122) but
# before its last merge (after step 7,878).  Mk's knot generators are
# involutions (n = 2), each scanned through one shared row, and its long
# relator lags: it is swept on the second cursor.  Mk k=30, 60 and 100
# end with the seal's audit after a quiet window, at 12-37 % of the
# steps that take both cursors past the last label (159,050, 576,727
# and 1,536,688).  A power relation is skipped at a vertex whose
# neighbour along its letter the sweep has passed, so only steps moved
# when that rule came in: every other counter here is the one of the
# sweep that scanned every power at every vertex.
@pytest.mark.parametrize("p, limits, counters, cap_kind", [
    (family("Mk", k=6), {}, (707, 501, 10045, 206), None),
    (family("T24", (3, 4)), {}, (16, 2, 270, 14), None),
    (family("Mk", k=30), {}, (2463, 1393, 58114, 1070), None),
    (family("Mk", k=60), {}, (4400, 2250, 114591, 2150), None),
    (family("trefoil", (6,)), {"max_vertices": 2000}, (2001, 0, 26037, 2001), "vertices"),
    (family("T2k", (6,), k=-3), {"max_vertices": 2000}, (2001, 260, 22769, 1741), "vertices"),
    (family("Mk", k=6), {"max_steps": 6500}, (707, 488, 6501, 219), "steps"),
    (family("Mk", k=100), {}, (6842, 3252, 189752, 3590), None),
    (family("T2k", (4,), k=5), {}, (100001, 6181, 573705, 93820), "vertices"),
    (family("T2k", (7,), k=-3), {}, (100001, 4179, 586383, 95822), "vertices"),
], ids=["Mk6", "T24", "Mk30", "Mk60", "trefoil-vertex-cap", "mirror-trefoil-vertex-cap",
        "Mk6-step-cap", "Mk100", "T25-N4-vertex-cap", "mirror-trefoil-N7-vertex-cap"])
def test_trajectory_is_pinned(p, limits, counters, cap_kind):
    out = enumerate_quandle(p, EnumerationLimits(**limits))
    assert out.stats == counters
    assert out.cap_kind == cap_kind
    assert out.vertices == (out.stats.live if cap_kind is None else out.stats.created)


# sha256 of export_dot + export_json.  Re-pinned when sealing numbered
# the elements along the generator tree instead of by vertex label: the
# exports before were these relabeled, each element keeping its name.
MK_EXPORT_DIGESTS = {
    60: "720f7061067bc5fb17e300966792a8bb107840a9b8ac3c5b2aa272d03d6d3c87",
    -59: "aa27934f5586ae6924aa756e3a9da941b7feedf8a13e8b8fc2e48c58ea35af63",
}


@pytest.mark.parametrize("k", sorted(MK_EXPORT_DIGESTS))
def test_mk_closes_under_the_default_limits_with_the_same_quandle(k):
    out = mk(k)
    assert out.finite
    assert out.quandle.size == 2150
    q = out.quandle
    digest = hashlib.sha256((export_dot(q) + export_json(q)).encode()).hexdigest()
    assert digest == MK_EXPORT_DIGESTS[k]


def test_created_per_live_is_at_most_six_on_the_ladder():
    outs = [enumerate_quandle(c.presentation) for c in iter_checks()]
    outs += [enumerate_quandle(family("T33", (2, 3, 5)))] + [mk(k) for k in (6, 30, 60)]
    assert len(outs) == 97
    for out in outs:
        assert out.finite
        assert out.stats.created <= 6 * out.stats.live, out.stats


def test_vertex_cap_stops_on_the_vertex_that_breaks_it():
    p = family("trefoil", (6,))
    for cap in range(1, 61):
        out = enumerate_quandle(p, EnumerationLimits(max_vertices=cap))
        assert out.cap_kind == "vertices"
        assert out.vertices == out.stats.created == cap + 1
        steps, unions = out.stats.steps, out.stats.unions
        if steps:
            # a step cap one below stops on the same letter, counted but
            # its vertex not yet made
            early = enumerate_quandle(p, EnumerationLimits(max_steps=steps - 1))
            assert early.cap_kind == "steps"
            assert early.stats == (cap, unions, steps, cap - unions)


def test_step_cap_stops_on_the_exact_step():
    p = family("trefoil", (6,))
    previous = None
    for cap in range(1, 61):
        out = enumerate_quandle(p, EnumerationLimits(max_steps=cap))
        assert out.cap_kind == "steps"
        assert out.stats.steps == cap + 1
        if previous is not None:
            assert out.stats.created >= previous.created
            assert out.stats.unions >= previous.unions
        previous = out.stats


@pytest.mark.parametrize("limits, counters", [
    ({"max_vertices": 4}, (5, 0, 3, 5)),
    ({"max_steps": 2}, (4, 0, 3, 4)),
], ids=["vertex-cap", "step-cap"])
def test_cap_inside_a_gap(limits, counters):
    # a^[b a b a b] = a has no edge at either end, so its five letters
    # are a gap of four new vertices; both caps break on its third letter
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits(**limits))
    with pytest.raises(_CapExceeded) as exc:
        trace(g, 0, parse_word("b a b a b", p.generator_names), end=0)
    assert exc.value.stats == counters


def spelled(relators):
    """The universal relators of ``relators`` in sweep order, each run
    (code, n) spelled as the list of its n codes."""
    return ([[code] * n for code, n in relators.powers] + relators.conjugates
            + [[code] * n for code, n in relators.squares])


# A power relation past the step cap is never spelled: the run stops at
# its first scan, on the sweep's first vertex, with the counters that
# scanning it in full would give.  The trefoil's vertex 0 lies on its own
# a-loop, so the scan goes round it; in T24, vertex 0 has no b-cycle, so
# both scans end at a missing edge, before the step or the vertex cap.
@pytest.mark.parametrize("p, limits", [
    (family("trefoil", (6,)), {"max_steps": 5}),
    (family("T24", (3, 60)), {"max_steps": 40}),
    (family("T24", (3, 60)), {"max_steps": 50, "max_vertices": 12}),
], ids=["cycle", "path-step-cap", "path-vertex-cap"])
def test_a_power_past_the_step_cap_stops_where_its_scan_would(p, limits):
    limits = EnumerationLimits(**limits)
    out = enumerate_quandle(p, limits)
    assert max(n for _, n in compile_relators(p).powers) > limits.max_steps
    # oracle: the same run with every power spelled out and scanned
    relators = Relators([(r.base, list(r.word), r.target) for r in p.relations],
                        [], [_codes(u.word) for u in secondary_relations(p)], [])
    g = TraceGraph(p, limits)
    g.relators = relators
    with pytest.raises(_CapExceeded) as exc:
        for base, codes, target in relators.primary:
            g.scan(g.find(base), g.bind(codes), g.find(target))
            g.collapse()
        run_schedule(g)
    assert (out.cap_kind, out.stats) == (exc.value.kind, exc.value.stats)


def test_a_huge_power_is_never_spelled():
    # 10^20 letters could not be allocated; the run stops on the first
    # scan of a^(10^20), round vertex 0's a-loop
    out = enumerate_quandle(family("trefoil", (10**20,)))
    assert out.cap_kind == "steps"
    assert out.stats == (4, 0, DEFAULT_MAX_STEPS + 1, 4)
    relators = compile_relators(family("T24", (3, 10**20)))
    assert relators.powers == [(0, 3), (2, 10**20)]
    # no compiled relator spells a power as a list of its n codes: the
    # powers and squares are runs, and the words of N = 3 * 10^6 are
    # those of N = 6
    free = parse_presentation("gens a b\ncomp a:1 b:2\nN 2 3000000\n")
    for p, small in [(family("trefoil", (3_000_000,)), family("trefoil", (6,))),
                     (family("T2k", (2, 3_000_000), k=2), family("T2k", (2, 6), k=2)),
                     (free, parse_presentation("gens a b\ncomp a:1 b:2\nN 2 6\n"))]:
        relators = compile_relators(p)
        words = [codes for _, codes, _ in relators.primary] + relators.conjugates
        runs = relators.powers + relators.squares
        assert runs and all(isinstance(run, tuple) and len(run) == 2 for run in runs)
        for code, n in runs:
            assert not any(len(codes) == n and set(codes) == {code} for codes in words)
        small = compile_relators(small)
        assert (relators.primary, relators.conjugates) == (small.primary, small.conjugates)


def test_compiled_relators_fold_involutions():
    # an involution's inverse letter is written as the letter itself,
    # no compiled word has a letter beside one that undoes it, and an
    # involution's power relation a^2 is gone; the universal relators
    # are the other powers as runs, then each folded conjugate relator as
    # it is, in relation order, then the free involutions' squares as
    # runs; words without involutions compile letter for letter
    ps = [c.presentation for c in iter_checks()] + [family("Mk", k=k) for k in (6, -5)]
    ps += [family("T2k", (6,), k=3), family("T24", (3, 2))]
    folded = 0
    for p in ps:
        relators = compile_relators(p)
        assert_rows_shared(TraceGraph(p))
        ns = [p.n_of_generator(j) for j in range(len(p.generator_names))]
        undo = [c if ns[c >> 1] == 2 else c ^ 1 for c in range(2 * len(ns))]

        def fold(word):
            out = []
            for c in (c & -2 if ns[c >> 1] == 2 else c for c in word):
                if out and undo[out[-1]] == c:
                    out.pop()
                else:
                    out.append(c)
            return out

        words = [codes for _, codes, _ in relators.primary] + relators.conjugates
        for codes in words:
            assert all(ns[c >> 1] != 2 or c % 2 == 0 for c in codes), codes
            assert all(undo[c] != d for c, d in zip(codes, codes[1:])), codes
        assert relators.primary == [(r.base, fold(r.word), r.target) for r in p.relations]
        conjugates = [codes for codes in map(fold, conjugate_relations(p)) if codes]
        read = {c for codes in conjugates for c in codes}
        assert relators.powers == [(2 * j, n) for j, n in enumerate(ns) if n != 2]
        assert relators.conjugates == conjugates and all(conjugates)
        assert relators.squares == [(2 * j, 2) for j, n in enumerate(ns)
                                    if n == 2 and 2 * j not in read]
        if 2 not in ns:
            assert relators.primary == [(r.base, list(r.word), r.target) for r in p.relations]
            assert spelled(relators) == [_codes(u.word) for u in secondary_relations(p)]
        folded += 2 in ns
    assert 2 < folded < len(ps)


# sha256 over the 462 presentations of the wide sweep and of Mk at
# k = -60..60: each one's text and its compiled relators, hashed as
# plain lists of ints.  Pinned before relation words became letter
# codes, so a change of spelling that moved a relator would show here.
# Re-pinned when T23B joined the sweep; the other 461 still give 7c31ce41.
# Re-pinned to 84cad908 when a relator came to start at its twist, then
# back to 9b73d735 when that rotation was retired, and re-pinned when
# the powers became runs (code, n), hashed as the four lists of
# ``Relators`` in place of the spelled universal relators.
GOLDEN_RELATORS_DIGEST = "5f1c8a946208c1790516dc1a8dc285c35e004151105582938141746000248c0e"


def test_text_and_compiled_relators_match_the_golden_digest():
    checks = list(iter_checks(k_values=range(-20, 21), n_values=range(2, 8)))
    checks += [c for c in iter_checks(k_values=range(-60, 61)) if c.row_id == "Mk"]
    assert len(checks) == 462
    digest = hashlib.sha256()
    for check in checks:
        r = compile_relators(check.presentation)
        digest.update(print_presentation(check.presentation).encode())
        digest.update(json.dumps([r.primary, r.powers, r.conjugates, r.squares]).encode())
    assert digest.hexdigest() == GOLDEN_RELATORS_DIGEST


def test_an_involution_power_is_never_scanned():
    # T24 at N=(3,2): b's power b^2 is no relator, and a^3 is a run
    p = family("T24", (3, 2))
    relators = compile_relators(p)
    assert (relators.powers, relators.squares) == ([(0, 3)], [])
    assert [2, 2] not in relators.conjugates
    # a^(b a a b') = a folds to a = a, and so does its conjugate
    # relator b a' a' b' a b a a b' a', which is dropped; the quandle
    # has the 11 elements that the run without folding finds.  The
    # conjugate relator of b^[a b a] = b folds to a b a b a b' a b'
    p = parse_presentation("gens a b\ncomp a:1 b:2\nN 2 3\n"
                           "rel a^[b a a b'] = a\nrel b^[a b a] = b\n")
    relators = compile_relators(p)
    assert relators.primary == [(0, [], 0), (1, [0, 2, 0], 1)]
    assert relators == Relators(relators.primary, [(2, 3)], [[0, 3, 0, 2, 0, 2, 0, 3]], [], 0)
    q = enumerate_quandle(p).quandle
    assert q.size == 11 and verify_all(q)


def test_a_free_involution_scans_its_power():
    # an involution whose letter no folded relator reads would get no
    # edge in the sweep, so its power a a is scanned after all: the
    # 2-component unlink and a closed braid with a free strand
    unlink = "gens a b\ncomp a:1 b:2\nN {} 2\n"
    p = parse_presentation(unlink.format(2))
    assert compile_relators(p) == Relators([], [], [], [(0, 2), (2, 2)])
    free_strand = augment_n(braid_presentation((1,), 3), (2, 2))
    assert compile_relators(free_strand).squares == [(4, 2)]
    for p in (p, free_strand):
        assert enumerate_quandle(p, EnumerationLimits(max_vertices=1000)).cap_kind == "vertices"
    q = enumerate_quandle(parse_presentation(unlink.format(1))).quandle
    assert q.size == 3 and orbits(q).sizes() == (2, 1) and verify_all(q)


def test_only_a_conjugate_relator_longer_than_all_the_others_lags():
    # Mk's conjugate relator grows with |k|: from k = 6 and k = -4 on it
    # is longer than the powers and the other conjugate relators together
    for k in range(-20, 21):
        relators = compile_relators(family("Mk", k=k))
        lengths = list(map(len, spelled(relators)))
        if k >= 6 or k <= -4:
            assert relators.lag == len(relators.conjugates) - 1
            assert len(relators.conjugates[-1]) == max(lengths)
            assert 2 * max(lengths) > sum(lengths)
        else:
            assert relators.lag is None, k
    checks = list(iter_checks(k_values=range(-20, 21), n_values=range(2, 8)))
    lagging = {c.row_id for c in checks if compile_relators(c.presentation).lag is not None}
    assert lagging == {"Mk"}
    # nor does a conjugate relator shorter than a power's run, two equal
    # longest relators or a lone relator, which would leave the lead
    # cursor nothing to scan
    lone = parse_presentation("gens a b\ncomp a:1 b:2\nN 2 2\nrel a^[b] = a\n")
    for p in [family("trefoil", (6,)), family("T2k", (4,), k=5), family("T2k", (6,), k=-3),
              family("Mk", k=30, ns=(2, 1000)), lone]:
        assert compile_relators(p).lag is None
    assert compile_relators(lone) == Relators([(0, [2], 0)], [], [[2, 0, 2, 0]], [])


# sha256 over the counters of the 398 default and wide sweep checks with
# no lagging relator, pinned before the lagging cursor was added: their
# sweeps scan in the same order, step for step.  Re-pinned when relators
# stopped being rotated to start at a twist: 32 of the 398 runs, all Lk,
# T26 or Mk, moved their counters, and every size stayed.  Re-pinned when
# a power relation came to be skipped at a vertex whose neighbour along
# its letter the sweep has passed: 286 of the 398 runs moved their steps,
# and no other counter moved
UNLAGGED_STATS_DIGEST = "e51a4edeb9e2af1c968a9ae05c47883bdface5c62fbab707355786f2dfcdca64"


def test_runs_with_no_lagging_relator_keep_their_counters():
    checks = list(iter_checks()) + list(iter_checks(k_values=range(-20, 21), n_values=range(2, 8)))
    unlagged = [c.presentation for c in checks if compile_relators(c.presentation).lag is None]
    assert (len(checks), len(unlagged)) == (434, 398)
    digest = hashlib.sha256()
    for p in unlagged:
        digest.update(json.dumps(list(enumerate_quandle(p).stats)).encode())
    assert digest.hexdigest() == UNLAGGED_STATS_DIGEST


def test_default_limits():
    limits = EnumerationLimits()
    assert limits.max_vertices == DEFAULT_MAX_VERTICES
    assert limits.max_steps == DEFAULT_MAX_STEPS


# --- the bound scan against the letter-code scan --------------------------------

def reference_scan(g, v, codes, e):
    """Oracle: ``TraceGraph.scan`` as it was before relators were bound,
    reading ``rows[code]`` letter by letter with a position counter and
    always running the backward read."""
    rows = g.rows
    i = 0
    for c in codes:
        t = rows[c][v]
        if t < 0:
            break
        v = t
        i += 1
    j = n = len(codes)
    while j > i:
        t = rows[codes[j - 1] ^ 1][e]
        if t < 0:
            break
        e = t
        j -= 1
    gap = j - i
    limits = g.limits
    if (g.steps + n > limits.max_steps
            or gap > 1 and g.created + gap > limits.max_vertices + 1):
        g._stop(n - gap, gap)
    g.steps += n
    if not gap:
        if v != e:
            g.pending.append((v, e))
        return
    if gap > 1:
        y = g._allocate(gap - 1)
        for c in codes[i:j - 1]:
            rows[c][v] = y
            rows[c ^ 1][y] = v
            v = y
            y += 1
    c = codes[j - 1]
    w = rows[c ^ 1][e]
    if w < 0:
        rows[c][v] = e
        rows[c ^ 1][e] = v
    else:
        g.pending.append((w, v))


def reads_round(g, v, codes):
    """Whether the forward read of ``codes`` from v finds every edge."""
    for c in codes:
        v = g.rows[c][v]
        if v < 0:
            return False
    return True


def copy_rows(g, source):
    """Enter in g copies of the rows of graph ``source``, one per
    distinct row, so that an involution's two codes keep sharing one."""
    copies = {}
    g.rows = [copies.setdefault(id(row), list(row)) for row in source.rows]
    g.pairs = [(copies[id(row)], copies[id(inverse)]) for row, inverse in source.pairs]


def assert_rows_shared(g):
    """An involution's codes name one row, every other code a row of its
    own, and ``pairs`` holds each distinct row once, beside its inverse."""
    for j in range(g.ngens):
        involution = g.presentation.n_of_generator(j) == 2
        assert (g.rows[2 * j + 1] is g.rows[2 * j]) == involution
    first = {}
    for c, row in enumerate(g.rows):
        first.setdefault(id(row), c)
    assert [id(row) for row, _ in g.pairs] == list(first)
    assert all(inverse is g.rows[first[id(row)] ^ 1] for row, inverse in g.pairs)


def clone(g):
    """A copy of g that shares nothing mutable with it."""
    c = copy.copy(g)
    copy_rows(c, g)
    c.parent = dict(g.parent)
    c.pending = deque(g.pending)
    assert_rows_shared(c)
    return c


def sweep_snapshots(p, limits):
    """Copies of p's graph at sweep cursor 0, at each power of four
    and after the sweep, the sweep run with ``reference_scan`` on every
    universal relator spelled, at every vertex, and p's relators.  A
    sweep stopped by a cap ends the snapshots."""
    g = TraceGraph(p, limits)
    relators = g.relators
    universal = spelled(relators)
    snapshots = []
    try:
        for base, codes, target in relators.primary:
            reference_scan(g, g.find(base), codes, g.find(target))
            g.collapse()
        cursor = 0
        while cursor < g.created:
            if cursor in (0, 1, 4, 16, 64, 256, 1024):
                snapshots.append(clone(g))
            v, cursor = cursor, cursor + 1
            if v in g.parent:
                continue
            for codes in universal:
                reference_scan(g, v, codes, v)
                if g.pending:
                    g.collapse()
                    v = g.find(v)
        snapshots.append(clone(g))
    except _CapExceeded:
        pass
    return snapshots, relators


def graph_state(g):
    return (g.rows, list(g.pending), g.parent, g.created, g.steps)


def attempt(scan, *args):
    """None, or the kind and stats of the cap that ``scan`` raised."""
    try:
        scan(*args)
    except _CapExceeded as exc:
        return exc.kind, exc.stats
    return None


def assert_bound_to(g, words, bound):
    """Every bound row is the very row of g that its letter names, and
    every bound inverse row the row of the letter's inverse."""
    for codes, (forward, backward) in zip(words, bound, strict=True):
        assert all(row is g.rows[c] for c, row in zip(codes, forward, strict=True))
        assert all(row is g.rows[c ^ 1] for c, row in zip(codes, backward, strict=True))


def scan_both(snapshot, universal, limits=None):
    """Scan every universal relator at every live vertex of two copies of
    ``snapshot``, with no collapse, one copy by ``reference_scan`` and
    one by the bound scan; assert that both make the same graph and the
    same counters after every scan, and that the bound rows stay the
    graph's rows.  Returns None, or the cap's kind and whether the
    forward read that raised it went all the way round or left a gap."""
    ref, new = clone(snapshot), clone(snapshot)
    if limits is not None:
        ref.limits = new.limits = limits
    bound = [new.bind(codes) for codes in universal]
    live = [v for v in range(snapshot.created) if v not in snapshot.parent]
    stop = None
    for v in live:
        for codes, rel in zip(universal, bound):
            errors = [attempt(reference_scan, ref, v, codes, v), attempt(new.scan, v, rel, v)]
            assert errors[0] == errors[1], (v, codes)
            assert (ref.created, ref.steps, len(ref.pending)) == (
                new.created, new.steps, len(new.pending)), (v, codes)
            if errors[0] is not None:
                # a scan that raises has changed no edge
                stop = (errors[0][0], "round" if reads_round(new, v, codes) else "gap")
                break
        if stop:
            break
    assert graph_state(ref) == graph_state(new)
    assert_bound_to(new, universal, bound)
    assert_rows_shared(new)
    return stop, new.steps - snapshot.steps, new.created - snapshot.created


def runs_both(snapshot, runs, limits=None):
    """Scan every run (code, n) of ``runs`` at every live vertex of two
    copies of ``snapshot``, with no collapse and no vertex skipped, one
    copy by ``reference_scan`` on the spelled [code] * n and one by
    ``TraceGraph.scan_run``; assert that both raise the same cap or
    none, with the same pending list, created and steps after every
    scan, and that both make the same rows.  A scan that raises has
    changed no edge, so both copies take back the counters it moved and
    go on.  Returns the set of stops, each None or the cap's kind and
    whether the spelled read went all the way round, and the steps and
    vertices that the scans added."""
    ref, new = clone(snapshot), clone(snapshot)
    if limits is not None:
        ref.limits = new.limits = limits
    live = [v for v in range(snapshot.created) if v not in snapshot.parent]
    stops = set()
    for v in live:
        for code, n in runs:
            counters = ref.created, ref.steps
            errors = [attempt(reference_scan, ref, v, [code] * n, v),
                      attempt(new.scan_run, v, n, new.rows[code], new.rows[code ^ 1])]
            assert errors[0] == errors[1], (v, code, n)
            assert (ref.created, ref.steps, ref.pending) == (
                new.created, new.steps, new.pending), (v, code, n)
            if errors[0] is None:
                stops.add(None)
            else:
                stops.add((errors[0][0], "round" if reads_round(new, v, [code] * n) else "gap"))
                ref.created, ref.steps = new.created, new.steps = counters
    assert graph_state(ref) == graph_state(new)
    assert_rows_shared(new)
    return stops, new.steps - snapshot.steps, new.created - snapshot.created


# graphs snapshotted mid-sweep, on every default-sweep check, Mk k=6
# and a capped infinite run
SNAPSHOT_CASES = [(c.presentation, EnumerationLimits()) for c in iter_checks()] + [
    (family("Mk", k=6), EnumerationLimits()),
    (family("T2k", (6,), k=3), EnumerationLimits(max_vertices=2000))]


def test_the_bound_scan_matches_the_letter_code_scan():
    # each snapshot scanned with no cap, with a step cap half way through
    # the scans and with a vertex cap half way through the vertices they
    # make; every universal relator, the powers spelled
    stops = set()
    snapshots = 0
    for p, limits in SNAPSHOT_CASES:
        shots, relators = sweep_snapshots(p, limits)
        universal = spelled(relators)
        snapshots += len(shots)
        for snapshot in shots:
            stop, steps, created = scan_both(snapshot, universal)
            stops.add(stop)
            if steps > 1:
                stops.add(scan_both(snapshot, universal, dataclasses.replace(
                    limits, max_steps=snapshot.steps + steps // 2))[0])
            if created > 1:
                stops.add(scan_both(snapshot, universal, dataclasses.replace(
                    limits, max_vertices=snapshot.created + created // 2))[0])
    assert snapshots > 3 * len(SNAPSHOT_CASES)
    # most of the cases scan an involution through its one row
    assert sum(2 in p.n_values for p, _ in SNAPSHOT_CASES) > len(SNAPSHOT_CASES) // 2
    # a cap was raised after a read all the way round and after one
    # that left a gap
    assert {("steps", "round"), ("steps", "gap"), ("vertices", "gap"), None} <= stops


def test_the_run_scan_matches_the_spelled_scan():
    # the same snapshots, each run scanned at every live vertex, skipped
    # or not: the relators' own runs, and a^5 and a^7 for every
    # generator a that is no involution, so that a read goes round
    # cycles whose length does not divide n; with no cap, with the
    # step and the vertex cap half way, and with an n past the step cap
    stops = set()
    for p, limits in SNAPSHOT_CASES:
        shots, relators = sweep_snapshots(p, limits)
        runs = relators.powers + relators.squares + [
            (2 * j, n) for j in range(len(p.generator_names)) if p.n_of_generator(j) != 2
            for n in (5, 7)]
        for snapshot in shots:
            found, steps, created = runs_both(snapshot, runs)
            stops |= found
            stops |= runs_both(snapshot, runs, dataclasses.replace(
                limits, max_steps=snapshot.steps + steps // 2))[0]
            stops |= runs_both(snapshot, runs, dataclasses.replace(
                limits, max_vertices=snapshot.created + created // 2))[0]
            # every scan of a power of 9 letters under a cap of 8 steps,
            # the steps counted from zero, stops at that cap or, with
            # 3 vertices to go, at the vertex cap
            past = clone(snapshot)
            past.steps = 0
            codes = dict.fromkeys(code for code, _ in runs)
            stops |= runs_both(past, [(code, 9) for code in codes], EnumerationLimits(
                max_vertices=snapshot.created + 3, max_steps=8))[0]
    assert {("steps", "round"), ("steps", "gap"), ("vertices", "gap"), None} <= stops


def test_bound_rows_stay_the_graph_rows():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    a = 0
    words = [parse_word("b b", p.generator_names)]
    bb = g.bind(words[0])
    assert_bound_to(g, words, [bb])
    # a^[b b] = a makes v = a^b after the binding
    g.scan(a, bb, a)
    v = 2
    assert g.created == 3
    # read from v through the bound rows: v --b--> a --b--> v goes round
    steps = g.steps
    g.scan(v, bb, v)
    assert (g.created, g.steps, len(g.pending)) == (3, steps + 2, 0)
    # a whole run, with allocations and collapses, keeps the rows bound
    # and an involution's two codes on one row
    for p in (p, family("T24", (2, 3)), family("Mk", k=6)):
        g = TraceGraph(p, EnumerationLimits())
        relators = g.relators
        words = [codes for _, codes, _ in relators.primary] + relators.conjugates
        bound = [g.bind(codes) for codes in words]
        for (base, _, target), rel in zip(relators.primary, bound):
            g.scan(g.find(base), rel, g.find(target))
            g.collapse()
        run_schedule(g)
        assert g.unions > 0 and g.created > 3
        assert_bound_to(g, words, bound)
        assert_rows_shared(g)
        assert _seal(g) == enumerate_quandle(p).quandle


def skipped_runs(p, limits):
    """Run p under ``limits`` and, at each (vertex, run) pair that the
    sweep skips, at the moment it skips it, read the spelled run from the
    vertex; the list of those reads' verdicts, each whether the read went
    round to the vertex itself.  A line tracer on ``run_schedule`` sees
    the skip's ``continue`` and reads the sweep's locals there."""
    lines, first = inspect.getsourcelines(run_schedule)
    test = next(i for i, line in enumerate(lines) if "row[v]" in line and "back[v]" in line)
    assert lines[test + 1].strip() == "continue"
    skip = first + test + 1
    verdicts = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == skip:
            names = frame.f_locals
            g, v, n, row = names["graph"], names["v"], names["n"], names["row"]
            code = next(c for c, r in enumerate(g.rows) if r is row)
            verdicts.append(follow(g, v, [code] * n) == v)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is run_schedule.__code__ else None

    sys.settrace(calls)
    try:
        enumerate_quandle(p, limits)
    finally:
        sys.settrace(None)
    return verdicts


def test_a_skipped_run_reads_round_where_it_is_skipped():
    # every check of the default sweep, and the closed braids of the
    # three-strand census: words of one to four letters at every N in
    # {2, 3}^m, under its 2,000-vertex cap
    cases = [(c.presentation, EnumerationLimits()) for c in iter_checks()]
    for word in rotation_classes(2, range(1, 5)):
        p = braid_presentation(word, 3)
        for ns in itertools.product((2, 3), repeat=len(set(p.component_of))):
            cases.append((augment_n(p, ns), EnumerationLimits(max_vertices=2000)))
    assert len(cases) == 93 + 476
    skipped = []
    for p, limits in cases:
        verdicts = skipped_runs(p, limits)
        assert all(verdicts), p
        skipped.append(len(verdicts))
    # 223,677 skips in 415 of the runs, 1,831 of them in 65 default-sweep checks
    assert (sum(skipped), sum(map(bool, skipped))) == (223_677, 415)
    assert (sum(skipped[:93]), sum(map(bool, skipped[:93]))) == (1_831, 65)


def assert_sentinel(g):
    """Every distinct row runs past ``created``, every row entry past it
    is -1 and no label past it is merged, so each row ends in the -1
    that a read past a missing edge stays at."""
    length = len(g.rows[0])
    assert length > g.created
    assert all(v < g.created for v in g.parent)
    for row, _ in g.pairs:
        assert len(row) == length
        assert row[g.created:] == [-1] * (length - g.created)
        assert row[-1] == -1


def test_every_row_ends_in_a_minus_one_past_created(monkeypatch):
    # allocations that each end exactly at the rows' length: the rows
    # double, then stop one past the vertex cap
    cap = 40
    g = TraceGraph(family("T24", (3, 3)), EnumerationLimits(max_vertices=cap))
    assert_sentinel(g)
    lengths = []
    while g.created < cap:
        g._allocate(min(len(g.rows[0]), cap) - g.created)
        assert_sentinel(g)
        lengths.append(len(g.rows[0]))
    assert lengths == [6, 12, 24, cap + 1, cap + 1]
    # an allocation past twice the length grows the rows to one past its end
    g = TraceGraph(family("T24", (2, 3)), EnumerationLimits(max_vertices=1000))
    g._allocate(100)
    assert_sentinel(g)
    assert len(g.rows[0]) == 103
    # whole runs under small vertex caps, closing and stopped at the cap,
    # checked after every allocation
    allocate = TraceGraph._allocate
    calls = []

    def checked(self, m):
        base = allocate(self, m)
        assert_sentinel(self)
        calls.append(m)
        return base

    monkeypatch.setattr(TraceGraph, "_allocate", checked)
    for p, max_vertices, cap_kind in [(family("trefoil", (5,)), 13, None),
                                      (family("trefoil", (5,)), 12, "vertices"),
                                      (family("T24", (2, 3)), 6, None),
                                      (family("Mk", k=6), 958, None),
                                      (family("Mk", k=6), 500, "vertices"),
                                      (family("trefoil", (6,)), 50, "vertices")]:
        out = enumerate_quandle(p, EnumerationLimits(max_vertices=max_vertices))
        assert out.cap_kind == cap_kind
    assert len(calls) > 50


def swept(p, limits):
    """p's graph swept under ``limits`` (steps 1 to 5), stopped by a cap
    or sealed, and the cap's kind or None."""
    g = TraceGraph(p, limits)
    try:
        for base, codes, target in g.relators.primary:
            g.scan(g.find(base), g.bind(codes), g.find(target))
            g.collapse()
        run_schedule(g)
    except _CapExceeded as exc:
        return g, exc.kind
    return g, None


@pytest.mark.parametrize("p, max_vertices, cap_kind", [
    (family("Mk", k=30), DEFAULT_MAX_VERTICES, None),
    (family("Mk", k=30), 2000, "vertices"),
    (family("trefoil", (6,)), 5000, "vertices"),
], ids=["Mk30", "Mk30-capped", "trefoil6-capped"])
def test_the_union_find_holds_exactly_the_merged_labels(p, max_vertices, cap_kind):
    g, kind = swept(p, EnumerationLimits(max_vertices=max_vertices))
    assert kind == cap_kind
    merged = {v for v in range(g.created) if g.find(v) != v}
    assert set(g.parent) == merged
    assert len(g.parent) == g.unions
    # each entry points at a smaller label, the survivor of its union
    assert all(a < b for b, a in g.parent.items())


def test_the_graph_holds_at_most_80_traced_bytes_per_created_label():
    # an infinite N-quandle run to the vertex cap, where the graph is at
    # its largest: the rows and the union-find of merged labels only
    p = family("trefoil", (6,))
    limits = EnumerationLimits(max_vertices=20_000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = enumerate_quandle(p, limits)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (out.cap_kind, out.stats.created) == ("vertices", 20_001)
    assert peak / out.stats.created <= 80, peak / out.stats.created


# --- graph-level hand checks ---------------------------------------------------

def test_trace_and_collapse_by_hand():
    # first primary relation of T24: a^[b a b] = a
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    assert g.live_count == 2  # the generator vertices
    word = parse_word("b a b", p.generator_names)
    a, b = 0, 1

    trace(g, a, word, end=a)
    # neither end has an edge to read, so the gap is all three letters:
    # fresh vertices a^b and a^ba, and the last letter joins a^ba to a
    assert g.created == 4
    assert not g.pending
    assert g.rows[2 * b][a] == 2 and g.rows[2 * b + 1][2] == a
    assert g.rows[2 * a][2] == 3 and g.rows[2 * a + 1][3] == 2
    assert g.rows[2 * b][3] == a and g.rows[2 * b + 1][a] == 3

    g.collapse()
    assert g.live_count == 4
    # the relation path is now closed; scanning it again reads every
    # letter forwards and changes nothing
    assert follow(g, a, word) == a
    steps = g.steps
    trace(g, a, word, end=a)
    assert (g.created, g.unions, len(g.pending)) == (4, 0, 0)
    assert g.steps == steps + 3


def test_one_letter_gap_is_a_deduced_edge():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    names = p.generator_names
    a, b = 0, 1
    trace(g, a, parse_word("b a", names), end=b)  # makes v = a^b, v --a--> b
    v = 2
    assert g.created == 3
    # from v, b leads nowhere yet, and backwards from a neither does b^-1:
    # the gap is the one letter b, entered in both rows
    trace(g, v, parse_word("b", names), end=a)
    assert g.rows[2 * b][v] == a
    assert g.rows[2 * b + 1][a] == v
    assert g.created == 3
    assert not g.pending
    assert follow(g, v, parse_word("b", names)) == a


def test_scans_that_meet_schedule_one_identification():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    names = p.generator_names
    a, b = 0, 1
    trace(g, a, parse_word("b a", names), end=b)  # makes v = a^b, v --a--> b
    v = 2
    # v^a is read to b, which is not the end a: b and a must be identified
    trace(g, v, parse_word("a", names), end=a)
    assert g.created == 3
    assert list(g.pending) == [(b, a)]
    g.collapse()
    assert g.find(b) == a
    # b's loop b --b--> b now sits at a beside a --b--> v, so v follows
    assert g.find(v) == a
    assert g.live_count == 1


def test_step_cap_inside_collapse():
    # the two scans take three steps and schedule (b, a); the cap lets
    # collapse drain that pair, but not the pair (v, a) it schedules
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits(max_steps=4))
    names = p.generator_names
    trace(g, 0, parse_word("b a", names), end=1)
    trace(g, 2, parse_word("a", names), end=0)
    assert (g.steps, list(g.pending)) == (3, [(1, 0)])
    with pytest.raises(_CapExceeded) as exc:
        g.collapse()
    assert (exc.value.kind, exc.value.stats) == ("steps", (3, 1, 5, 2))


def test_collapse_moves_a_loop_onto_an_inverse_edge():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    a, b = 0, 1
    trace(g, a, parse_word("b' a", p.generator_names), end=b)  # a --b'--> v --a--> b
    v = 2
    assert g.rows[2 * b][a] == -1 and g.rows[2 * b + 1][a] == v
    # merging b into a brings b's loop b --b--> b to a, which has no
    # b-edge but meets the loop's reverse at its edge a --b'--> v: v is
    # identified with a, and the loop survives in both rows
    g.pending.append((a, b))
    g.collapse()
    assert g.live_count == 1
    assert g.find(v) == a
    assert [row[a] for row in g.rows] == [a, a, a, a]


def test_a_loop_moved_onto_the_end_of_vertex_0s_edge_identifies_vertex_0():
    # 0 --c--> 1, and 1 has no c-edge of its own; merging c's generator
    # vertex 2 into 1 brings 2's loop 2 --c--> 2 to 1, whose c'-edge
    # already leads to 0, the least label: 0 and 1 are identified, and
    # then all three vertices are one
    p = parse_presentation("gens a b c\ncomp a:1 b:1 c:1\nN 3\n")
    g = TraceGraph(p, EnumerationLimits())
    c = 4
    g.rows[c][0], g.rows[c ^ 1][1] = 1, 0
    g.pending.append((1, 2))
    g.collapse()
    assert (g.unions, g.live_count) == (2, 1)
    assert [g.find(v) for v in range(3)] == [0, 0, 0]
    assert [row[0] for row in g.rows] == [0] * 6


def test_an_involution_edge_is_entered_at_both_ends_of_one_row():
    # in T24 at N=(2,3), a has n = 2, so a' is a and one row holds both
    p = family("T24", (2, 3))
    g = TraceGraph(p, EnumerationLimits())
    a, b = 0, 1
    assert g.rows[1] is g.rows[0] and g.rows[3] is not g.rows[2]
    assert [id(row) for row, _ in g.pairs] == [id(g.rows[c]) for c in (0, 2, 3)]
    # a^[b b] = a: the gap b, b makes v = a^b; then b --a--> v deduced
    trace(g, a, (2 * b, 2 * b), end=a)
    v = 2
    trace(g, b, (2 * a + 1,), end=v)
    assert g.rows[0][b] == v and g.rows[0][v] == b
    assert g.created == 3
    assert len(g.rows[0]) == len(g.rows[2]) >= g.created
    assert g.parent == {}


def test_collapse_moves_an_involution_edge_once():
    # the loser's entry in the shared row is never cleared, so a second
    # visit of that row would take the edge it just moved out again
    p = family("T24", (2, 3))
    g = TraceGraph(p, EnumerationLimits())
    x = g._allocate(3)
    row = g.rows[0]
    row[x + 1], row[x + 2] = x + 2, x + 1  # x+1 --a--> x+2 and back
    g.pending.append((x, x + 1))
    g.collapse()
    assert (g.find(x + 1), g.unions) == (x, 1)
    assert row[x] == x + 2 and row[x + 2] == x
    assert g.rows[1][x + 2] == x


def test_idempotence_loops_preinstalled():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    for v in (0, 1):
        assert g.rows[2 * v][v] == v
        assert g.rows[2 * v + 1][v] == v
    # a generator element is named by its generator alone
    q = enumerate_quandle(p).quandle
    assert [q.witnesses[e] for e in q.generator_element] == [Expression(0, ()),
                                                             Expression(1, ())]


def test_step_is_none_until_forced():
    p = family("T24", (3, 3))
    g = TraceGraph(p, EnumerationLimits())
    a, b = 0, 1
    assert g.rows[2 * b][a] == -1
    assert follow(g, a, (2 * b,)) is None
    # a^[b b] = a: a two-letter gap, so one new vertex v between
    trace(g, a, (2 * b, 2 * b), end=a)
    v = 2
    assert g.created == 3
    assert g.rows[2 * b][a] == v
    assert g.rows[2 * b + 1][v] == a  # the reverse edge lands with it
    assert follow(g, a, (2 * b,)) == v
    # an inverse letter is entered under the odd code, its reverse under
    # the even one
    trace(g, b, (2 * a + 1, 2 * a + 1), end=b)
    u = 3
    assert g.rows[2 * a + 1][b] == u and g.rows[2 * a][u] == b
    assert follow(g, b, (2 * a + 1,)) == u


def walk_order(g):
    """Oracle for the sealed numbering: the live labels met breadth
    first from the generator vertices along forward edges, each vertex's
    edges in generator order."""
    order = list(dict.fromkeys(g.find(j) for j in range(g.ngens)))
    queue = deque(order)
    seen = set(order)
    while queue:
        v = queue.popleft()
        for gen in range(g.ngens):
            t = g.find(g.rows[2 * gen][v])
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def test_live_accounting_after_schedule():
    p = family("T26", (2, 3))
    g = TraceGraph(p, EnumerationLimits())
    for base, codes, target in g.relators.primary:
        g.scan(g.find(base), g.bind(codes), g.find(target))
    g.collapse()
    run_schedule(g)
    live = [v for v in range(g.created) if v not in g.parent]
    assert g.live_count == len(live) == 10
    assert all(g.find(v) == v for v in live)
    # the witnesses of the sealed quandle follow edges that are all
    # there, each to its own live vertex, in the order the walk met them
    ends = [follow(g, w.base, _codes(w.word)) for w in _seal(g).witnesses]
    assert sorted(ends) == live
    assert ends == walk_order(g)



# --- the sweep ended by the seal's audit -------------------------------------------

def full_sweep(p):
    """Reference: p's graph swept by the same schedule with every audit
    declined, so that both cursors pass its last label, then sealed; the
    quandle and the counters."""
    graphs = []

    def declined(g):
        graphs.append(g)
        raise EnumerationInternalError("declined")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_seal", declined)
        with pytest.raises(EnumerationInternalError, match="declined"):
            enumerate_quandle(p)
    g = graphs[-1]
    return _seal(g), g.stats()


@pytest.mark.parametrize("window", [enumerator._QUIET_WINDOW, 1])
def test_the_early_seal_gives_the_full_sweeps_quandle(monkeypatch, window):
    # a window of 1 audits after every vertex that changed nothing, so
    # audits are declined on graphs not yet closed and the sweep goes on
    monkeypatch.setattr(enumerator, "_QUIET_WINDOW", window)
    declined = []
    seal = enumerator._seal

    def counted(g):
        try:
            return seal(g)
        except EnumerationInternalError:
            declined.append(g.created)
            raise

    monkeypatch.setattr(enumerator, "_seal", counted)
    ps = [c.presentation for c in iter_checks()]
    ps += [family("Mk", k=k) for k in (6, 12, -11, 30)] + [family("T33", (2, 3, 5))]
    shorter = 0
    for p in ps:
        out = enumerate_quandle(p)
        q, stats = full_sweep(p)
        assert out.quandle == q
        assert (out.stats.created, out.stats.unions, out.stats.live) == \
            (stats.created, stats.unions, stats.live)
        assert out.stats.steps <= stats.steps
        shorter += out.stats.steps < stats.steps
    assert shorter > 0
    assert (len(declined) > 0) == (window == 1)


def test_a_closed_graph_is_finite_under_a_step_cap_its_full_sweep_breaks():
    # all 1070 elements of Mk k=30 are live and closed well before
    # 150,000 steps; swept to its last label the run read past the cap
    # and was reported as a steps stop at 150,001
    out = enumerate_quandle(family("Mk", k=30), EnumerationLimits(max_steps=150_000))
    assert out.finite and out.quandle.size == 1070
    assert (out.quandle, out.stats) == (mk(30).quandle, mk(30).stats)
    assert full_sweep(family("Mk", k=30))[1].steps > 150_000


def test_a_seal_that_fails_at_the_last_label_is_raised(monkeypatch):
    # every audit is declined: the sweep goes on to its last label, and
    # the seal's error there leaves the run
    audits = []

    def failing(g):
        audits.append(g.steps)
        raise EnumerationInternalError("audit")

    monkeypatch.setattr(enumerator, "_seal", failing)
    with pytest.raises(EnumerationInternalError, match="audit"):
        enumerate_quandle(family("Mk", k=30))
    assert len(audits) > 1
    assert audits[-1] == full_sweep(family("Mk", k=30))[1].steps


# --- witness spelling -------------------------------------------------------------

def closed(p):
    """The finished graph of p under the default limits (steps 1 to 5),
    and its live labels in label order."""
    g, cap_kind = swept(p, EnumerationLimits())
    assert cap_kind is None
    return g, [v for v in range(g.created) if g.find(v) == v]


def concat_witnesses(q):
    """Oracle: each element's word spelled breadth first from the
    generator elements along the forward generator edges, each child's
    word its parent's plus the generator's letter code with
    ``words.concat``, then decoded into (generator, sign) pairs, a fresh
    pair per letter."""
    words = {}
    for g, e in enumerate(q.generator_element):
        words.setdefault(e, (g, ()))
    queue = list(words)
    for y in queue:
        for g, act in enumerate(q.action):
            if act[y] not in words:
                base, word = words[y]
                words[act[y]] = (base, concat(word, (2 * g,)))
                queue.append(act[y])
    return tuple(Expression(base, tuple((c >> 1, -1 if c & 1 else 1) for c in word))
                 for base, word in (words[x] for x in range(q.size)))


def tree_depths(q):
    """Each element's distance from the generator elements along forward
    generator edges, found without any word."""
    depth = dict.fromkeys(q.generator_element, 0)
    queue = list(depth)
    for y in queue:
        for act in q.action:
            if act[y] not in depth:
                depth[act[y]] = depth[y] + 1
                queue.append(act[y])
    return [depth[x] for x in range(q.size)]


@pytest.fixture(scope="module")
def sealed_graphs():
    """(presentation, finished graph, live labels) for every check of the
    default sweep and for Mk at k = 30 and -29."""
    ps = [c.presentation for c in iter_checks()] + [family("Mk", k=k) for k in (30, -29)]
    return [(p, *closed(p)) for p in ps]


def test_witnesses_equal_the_concat_spelling(sealed_graphs):
    assert len(sealed_graphs) == 95
    for p, g, live in sealed_graphs:
        q = _seal(g)
        assert q.witnesses == concat_witnesses(q)


def test_witness_words_are_freely_reduced(sealed_graphs):
    for p, g, live in sealed_graphs:
        for w in _seal(g).witnesses:
            assert all(x != (gen, -sign) for x, (gen, sign) in zip(w.word, w.word[1:])), w


def test_witnesses_are_positive_and_as_long_as_their_tree_depth(sealed_graphs):
    for p, g, live in sealed_graphs:
        q = _seal(g)
        assert all(sign == 1 for w in q.witnesses for _, sign in w.word)
        assert [len(w.word) for w in q.witnesses] == tree_depths(q)
    # Mk k=30's words run to 34 letters; spelled along the edges that
    # made each vertex they averaged 61 and ran to 128
    p, g, live = sealed_graphs[-2]
    q = _seal(g)
    assert q.size == 1070 and max(len(w.word) for w in q.witnesses) == 34


def test_element_names_spell_the_witnesses(sealed_graphs):
    # names are spelled from their tree parent's name, not from the
    # witnesses; renaming all but the first generator to two characters
    # switches the letter separator to a space, the first name included
    for p, g, live in sealed_graphs:
        q = _seal(g)
        long = dataclasses.replace(q, generator_names=tuple(
            name + str(i) if i else name for i, name in enumerate(q.generator_names)))
        for named in (q, long):
            assert named.element_names == tuple(
                expression_str(w, named.generator_names) for w in named.witnesses)
    assert long.element_names[:5] == ("a", "b1", "c2", "a^b1", "a^c2")
    # Mk k=-29's last element, a word of 34 letters
    assert long.element_names[-1] == "a^" + "b1 a " * 13 + "b1 c2 c2 a c2 c2 b1 c2"


def test_witnesses_share_one_letter_object_per_letter(sealed_graphs):
    for p, g, live in sealed_graphs:
        q = _seal(g)
        letters = {id(x) for w in q.witnesses for x in w.word}
        assert len(letters) <= len(p.generator_names)


def test_sealing_numbers_elements_along_the_generator_tree():
    # the tree reads its roots as elements 0, 1, ... and meets every
    # other element in index order, so the numbering is the canonical one
    qs = [enumerate_quandle(c.presentation).quandle for c in iter_checks()]
    qs += [mk(k).quandle for k in (6, -5, 30)]
    assert len(qs) == 96
    for q in qs:
        roots, via = q.tree
        assert [e for _, e in roots] == list(range(len(roots)))
        assert list(via) == list(range(len(roots), q.size))


def test_a_sealed_quandle_spells_no_witness_until_one_is_read():
    q = enumerate_quandle(family("Mk", k=6)).quandle
    assert "tree" not in vars(q) and "witnesses" not in vars(q)
    assert q.element_name(0) == "a"
    assert len(q.witnesses) == q.size == 206
    tree, witnesses = q.tree, q.witnesses
    export_dot(q)
    export_json(q)
    assert q.tree is tree and q.witnesses is witnesses


UNFOLDED_TABLES = Path(__file__).parent / "data" / "unfolded_tables.json"


def along_the_tree(q):
    """q with its elements renumbered in the order its generator tree
    meets them."""
    roots, via = q.tree
    order = [e for _, e in roots] + list(via)
    new = {x: i for i, x in enumerate(order)}
    return dataclasses.replace(
        q, action=tuple(tuple(new[act[x]] for x in order) for act in q.action),
        generator_element=tuple(new[e] for e in q.generator_element))


@pytest.mark.parametrize("name, p", [
    ("Mk k=6", family("Mk", k=6)),
    ("Mk k=-5", family("Mk", k=-5)),
    ("T24 N=(2,2)", family("T24", (2, 2))),
    ("T24C", family("T24C")),
    ("hopf N=(2,2)", family("hopf", (2, 2))),
    ("T33 N=(2,3,5)", family("T33", (2, 3, 5))),
])
def test_folded_runs_are_isomorphic_to_the_unfolded_tables(name, p):
    # action tables enumerated with a' kept apart from a for n = 2 and
    # the elements numbered along definitions; renumbered along their
    # generator tree, as sealing numbers them, they are the same tables
    saved = json.loads(UNFOLDED_TABLES.read_text())[name]
    q = enumerate_quandle(p).quandle
    unfolded = FiniteQuandle(
        size=saved["size"], generator_names=p.generator_names,
        action=tuple(map(tuple, saved["action"])),
        generator_element=tuple(saved["generator_element"]),
        component_of_generator=p.component_of, n_values=p.n_values,
        relations=p.relations)
    assert along_the_tree(unfolded) == q


def test_the_trace_graph_is_freed_when_the_run_returns(monkeypatch):
    refs = []

    class Watched(TraceGraph):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(enumerator, "TraceGraph", Watched)
    gc.disable()
    try:
        q = enumerate_quandle(family("Mk", k=6)).quandle
        assert len(refs) == 1
        # freed by reference counting alone: nothing the quandle keeps,
        # its witnesses included, reaches the graph
        assert refs[0]() is None
        assert q.element_name(10) == "a^ca" and q.element_name(45) == "a^cacc"
    finally:
        gc.enable()


def test_repr_hash_and_equality_spell_no_name():
    p = family("Mk", k=6)
    q, other = enumerate_quandle(p).quandle, enumerate_quandle(p).quandle
    assert "witnesses" not in {f.name for f in dataclasses.fields(q)}
    assert q == other and hash(q) == hash(other)
    assert "witnesses" not in repr(q) and "Expression" not in repr(q)
    assert "witnesses" not in vars(q) and "witnesses" not in vars(other)
    # names are a function of the fields, so spelling them on one side
    # changes neither equality nor hash
    assert q.witnesses == other.witnesses
    assert q == other and hash(q) == hash(other)
    assert q.witnesses is q.witnesses


def test_outcome_reports_final_size():
    out = enumerate_quandle(family("T28", (2, 3)))
    assert out.finite
    assert out.vertices == out.quandle.size == 20
    # vertices is read from the stats, not passed in
    assert "vertices" not in {f.name for f in dataclasses.fields(out)}


# --- sealing postconditions ------------------------------------------------------

def finished_t24():
    """A closed T24 N=(3,3) graph, its live labels in label order."""
    p = family("T24", (3, 3))
    g, live = closed(p)
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
    q = _seal(g)
    assert q.size == 8
    assert q == enumerate_quandle(p).quandle


@pytest.mark.parametrize("code", [0, 3])
def test_seal_rejects_an_undefined_edge(code):
    p, g, live = finished_t24()
    g.rows[code][live[2]] = -1
    with pytest.raises(EnumerationInternalError,
                       match=f"generator {code >> 1} undefined at vertex {live[2]}"):
        _seal(g)


def test_seal_rejects_an_edge_to_a_merged_label():
    p, g, live = finished_t24()
    merged = next(v for v in range(g.created) if v in g.parent)
    g.rows[0][live[2]] = merged
    with pytest.raises(EnumerationInternalError,
                       match=f"generator 0 at vertex {live[2]} points at merged label {merged}"):
        _seal(g)


def test_seal_rejects_a_non_bijection():
    p, g, live = finished_t24()
    g.rows[0][live[1]] = g.rows[0][live[2]]  # two vertices, one image
    with pytest.raises(EnumerationInternalError, match="generator 0 is not a bijection"):
        _seal(g)


def test_seal_rejects_inverse_edges_that_disagree():
    p, g, live = finished_t24()
    g.rows[3][live[4]], g.rows[3][live[5]] = g.rows[3][live[5]], g.rows[3][live[4]]
    with pytest.raises(EnumerationInternalError, match="generator 1 is not a bijection"):
        _seal(g)


@pytest.mark.parametrize("k, spots", [(6, (50, 100, 150)), (30, (500, 600, 900))])
def test_seal_rejects_an_involution_row_that_is_not_its_own_inverse(k, spots):
    # a is an involution on Mk, so its one row serves both its letters: a
    # 3-cycle of three far ends leaves a bijection that is not its own
    # inverse, which only the comparison of the scattered inverse with
    # that same table can tell (k=30 has 1070 elements, in int16 arrays)
    g, live = closed(family("Mk", k=k))
    row = g.rows[0]
    assert g.rows[1] is row
    x, y, z = (live[i] for i in spots)
    fx, fy, fz = (g.find(row[v]) for v in (x, y, z))
    assert fy not in (x, y, z)  # so the new a sends x to fy, and fy back to y
    row[x], row[y], row[z] = fy, fz, fx
    with pytest.raises(EnumerationInternalError,
                       match="^generator 0 is not a bijection with its inverse edges$"):
        _seal(g)


def test_seal_rejects_an_open_primary_relation():
    p, g, live = finished_t24()
    swap_edges(g, 0, live[0], live[1])
    with pytest.raises(EnumerationInternalError, match="primary relation"):
        _seal(g)


def test_seal_rejects_an_open_universal_relation():
    # this swap of a's edges keeps both primary relations closed (they
    # are checked first), so only a universal relation can catch it
    p, g, live = finished_t24()
    swap_edges(g, 0, live[0], live[3])
    with pytest.raises(EnumerationInternalError, match="universal relation"):
        _seal(g)


def loop_audit(g, p):
    """Reference for the sealing audit: the bijection, primary and
    universal relation checks one element at a time in Python lists, as
    they ran before the array audit, then the reach from the generators
    over the label-ordered tables; the first failure, or None."""
    live = [v for v in range(g.created) if v not in g.parent]
    index = {v: i for i, v in enumerate(live)}
    tables = [[index[row[v]] for v in live] for row in g.rows]
    for gen in range(g.ngens):
        act, inv = tables[2 * gen], tables[2 * gen + 1]
        if any(inv[y] != x for x, y in enumerate(act)):
            return f"generator {gen} is not a bijection"
    element = [index[g.find(j)] for j in range(g.ngens)]
    for rel in p.relations:
        x = element[rel.base]
        for c in rel.word:
            x = tables[c][x]
        if x != element[rel.target]:
            return "primary relation does not close"
    identity = list(range(len(live)))
    for u in secondary_relations(p):
        perm = identity
        for c in _codes(u.word):
            perm = [tables[c][x] for x in perm]
        if perm != identity:
            return "universal relation does not close"
    reached = set(element)
    queue = list(reached)
    for x in queue:
        for act in tables[0::2]:
            if act[x] not in reached:
                reached.add(act[x])
                queue.append(act[x])
    missed = [v for i, v in enumerate(live) if i not in reached]
    if missed:
        return f"the generators do not reach vertex {missed[0]}"
    return None


def test_the_array_audit_agrees_with_the_loop_audit():
    # every fourth default-sweep graph and Mk k=6, each tampered many
    # ways: a letter's edges swapped between two elements (a bijection
    # still, but relations may open) or one element's edge redirected
    # onto another's far end (no longer a bijection)
    rng = random.Random(9)
    verdicts = {}
    for p in [c.presentation for c in iter_checks()][::4] + [family("Mk", k=6)]:
        g, live = closed(p)
        finished = clone(g)
        for _ in range(12):
            copy_rows(g, finished)
            code = rng.randrange(len(g.rows))
            x, y = rng.choice(live), rng.choice(live)
            if rng.random() < 0.8:
                swap_edges(g, code, x, y)
            else:
                g.rows[code][x] = g.rows[code][y]
            want = loop_audit(g, p)
            try:
                _seal(g)
                got = None
            except EnumerationInternalError as exc:
                got = str(exc)
            assert (got or "").startswith(want or ""), (p, code, x, y, got, want)
            assert (got is None) == (want is None)
            verdicts[want] = verdicts.get(want, 0) + 1
    # each kind of verdict was reached
    assert None in verdicts and "primary relation does not close" in verdicts
    assert "universal relation does not close" in verdicts
    assert any(v and "bijection" in v for v in verdicts)
    assert any(v and "do not reach" in v for v in verdicts)


def test_seal_rejects_a_vertex_the_generators_miss():
    # a second copy of the quandle beside the first: every edge is there,
    # every letter a bijection and every relation closed, so only the
    # walk from the generators can tell
    p, g, live = finished_t24()
    base = g._allocate(len(live))
    twin = {v: base + i for i, v in enumerate(live)}
    for row in g.rows:
        for v in live:
            row[twin[v]] = twin[row[v]]
    with pytest.raises(EnumerationInternalError,
                       match=f"the generators do not reach vertex {base}$"):
        _seal(g)


@pytest.mark.parametrize("p", [next(iter_checks()).presentation, family("Mk", k=6)],
                         ids=["first catalog check", "Mk k=6"])
def test_the_sealed_quandle_carries_the_arrays_its_audit_read(p):
    # the seal audits the quandle's own numpy form of its actions, so
    # the actions are converted once, and verification reads that form
    q = enumerate_quandle(p).quandle
    assert "arrays" in vars(q)
    arrays = vars(q)["arrays"]
    act, inv = arrays
    for a in arrays:
        assert a.dtype == _table_dtype(q.size) and not a.flags.writeable
    assert act.tolist() == [list(row) for row in q.action]
    assert verify_axioms(q)
    assert q.arrays is arrays


def test_seal_rejects_an_open_universal_relation_on_mk30():
    # a's edges swapped between two elements far from the generators,
    # off every primary relation's path, on 1070 elements
    p = family("Mk", k=30)
    g, live = closed(p)
    assert len(live) == 1070
    swap_edges(g, 0, live[500], live[900])
    with pytest.raises(EnumerationInternalError, match="universal relation"):
        _seal(g)


def test_seal_rejects_a_graph_only_the_lagging_relator_leaves_open():
    # Mk k=6 swept with every relator but the lagging one closes on 246
    # labels, which that sweep's own seal accepts; with the lagging
    # relator back, the audit finds it open (the quandle has 206 elements)
    p = family("Mk", k=6)
    g = TraceGraph(p)
    relators = g.relators
    g.relators = relators._replace(
        conjugates=[u for i, u in enumerate(relators.conjugates) if i != relators.lag], lag=None)
    for base, codes, target in g.relators.primary:
        g.scan(g.find(base), g.bind(codes), g.find(target))
        g.collapse()
    assert run_schedule(g).size == g.live_count == 246
    g.relators = relators
    with pytest.raises(EnumerationInternalError, match="universal relation"):
        _seal(g)
