"""Tracing-and-collapsing enumeration of finite N-quandles.

Given a presentation with an N tuple, this module builds the Cayley
graph of the presented N-quandle by a quandle analogue of Todd-Coxeter
coset enumeration:

1.  one vertex per generator;
2.  an oriented loop at each generator vertex (idempotence);
3.  each primary relation base^w = target traced as a path labeled w
    from base, its endpoint identified with target;
4.  after every trace, collapse: while two same-labeled edges point the
    same way into or out of a shared vertex, identify their far ends,
    folding the loser's edges into the survivor (least label wins);
5.  a sweep in vertex-label order that traces every universal relation
    y^w = y (the N relations first, then the conjugates of the primary
    relations) at each live vertex, collapsing after each trace, until
    every live vertex has been processed.

The procedure halts exactly when the N-quandle is finite; vertex and
step caps make the infinite case observable as an Exceeded outcome,
and the counters of ``EnumerationStats`` say how far either kind of
run got.  As in a Todd-Coxeter coset table, the edges are kept in one
flat row per letter (a generator or its inverse) indexed by vertex
label, and a relation is compiled once to letter codes and walked in a
single loop.  Each created vertex keeps only its definition, the edge
that created it: the parent label, the generator and the sign.
Following definitions back to a generator vertex spells the vertex's
witness a^w; merges never rewrite definitions, the smaller label
simply survives, and only the survivors' witnesses are spelled out
when the graph is sealed.  All worklists are ordered, so runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple, Sequence

from .presentations import Presentation, PresentationError, secondary_relations
from .quandle import FiniteQuandle
from .words import Expression, Word, concat

DEFAULT_MAX_VERTICES = 100_000
DEFAULT_MAX_STEPS = 100_000_000


@dataclass(frozen=True)
class EnumerationLimits:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_steps: int = DEFAULT_MAX_STEPS


class EnumerationStats(NamedTuple):
    """Work done up to the stop, finite or not.

    created counts vertex labels, the one whose allocation broke the
    vertex cap included (what ``max_vertices`` caps); unions counts the
    identifications performed; steps the letters walked plus the
    identification pairs drained (what ``max_steps`` caps); live is
    created - unions.  A named tuple, not a frozen dataclass, because
    it is about ten times cheaper to define at import.
    """

    created: int
    unions: int
    steps: int
    live: int


class _CapExceeded(Exception):
    def __init__(self, kind: str, stats: EnumerationStats):
        self.kind = kind
        self.stats = stats


class EnumerationInternalError(RuntimeError):
    """The finished graph failed a postcondition; indicates a bug."""


@dataclass(frozen=True)
class EnumerationOutcome:
    """Finite (quandle set) or Exceeded (cap_kind set).

    vertices is the live count when finite, the total created when a
    cap stopped the run; stats holds the counters in either case.
    """

    quandle: FiniteQuandle | None
    cap_kind: str | None
    vertices: int
    stats: EnumerationStats

    @property
    def finite(self) -> bool:
        return self.quandle is not None


def _codes(word: Word) -> list[int]:
    """Letter codes of a word: 2*gen for gen, 2*gen + 1 for its inverse."""
    return [2 * gen + (sign < 0) for gen, sign in word]


class TraceGraph:
    """Partial Cayley graph under construction.

    Edges live in one row per letter, indexed by vertex label.  Letter
    code 2*gen stands for gen and 2*gen + 1 for its inverse, so code ^ 1
    inverts a letter; rows[code][v] is the far end of v's edge with that
    letter, -1 when v has none, and every edge is entered in both
    directions.  Vertex identities live in a union-find keyed by
    creation label; the least label represents its class.  Only
    representatives' rows are read, and their entries may be stale
    labels, resolved through ``find``.

    Label v was created by the edge def_parent[v] --(def_gen[v],
    def_sign[v])--> v, with def_parent[v] < v; a generator vertex has
    def_parent -1, its own generator as def_gen and def_sign 0.  The
    definitions are read only when witnesses are spelled, so they are
    kept as machine-integer arrays, a few bytes per label.
    """

    def __init__(self, presentation: Presentation,
                 limits: EnumerationLimits = EnumerationLimits()):
        self.presentation = presentation
        self.limits = limits
        g = len(presentation.generator_names)
        self.ngens = g
        self.rows: list[list[int]] = [[] for _ in range(2 * g)]
        self.parent: list[int] = []
        self.def_parent = array("i")
        self.def_gen = array("i")
        self.def_sign = array("b")
        self.created = 0
        self.unions = 0
        self.steps = 0
        self.pending: deque[tuple[int, int]] = deque()
        self.worklist: list[int] = []
        self.done: set[int] = set()
        for j in range(g):
            v = self.new_vertex(-1, j, 0)
            self.rows[2 * j][v] = v
            self.rows[2 * j + 1][v] = v

    def stats(self) -> EnumerationStats:
        return EnumerationStats(self.created, self.unions, self.steps, self.live_count)

    # -- vertices ----------------------------------------------------

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def new_vertex(self, parent: int, gen: int, sign: int) -> int:
        label = self.created
        self.created += 1
        if self.created > self.limits.max_vertices:
            raise _CapExceeded("vertices", self.stats())
        self.parent.append(label)
        self.def_parent.append(parent)
        self.def_gen.append(gen)
        self.def_sign.append(sign)
        for row in self.rows:
            row.append(-1)
        heappush(self.worklist, label)
        return label

    def witnesses(self, labels: list[int]) -> list[Expression]:
        """The witness a^w of each label, spelled along its definitions.

        A label's word is its parent's word followed by its defining
        letter; words of shared ancestors are built once.
        """
        memo = {j: Expression(j, ()) for j in range(self.ngens)}
        out = []
        for v in labels:
            chain = []
            while v not in memo:
                chain.append(v)
                v = self.def_parent[v]
            expr = memo[v]
            for u in reversed(chain):
                letter = ((self.def_gen[u], self.def_sign[u]),)
                expr = Expression(expr.base, concat(expr.word, letter))
                memo[u] = expr
            out.append(expr)
        return out

    def live_vertices(self) -> list[int]:
        return [v for v in range(self.created) if self.parent[v] == v]

    @property
    def live_count(self) -> int:
        return self.created - self.unions

    # -- edges ---------------------------------------------------------

    def step(self, v: int, gen: int, sign: int) -> int | None:
        """Follow an existing edge; None when absent."""
        t = self.rows[2 * gen + (sign < 0)][self.find(v)]
        return None if t < 0 else self.find(t)

    def walk(self, v: int, codes: Sequence[int]) -> int:
        """Walk letter codes from representative ``v``, giving each absent
        edge a fresh far vertex; return the endpoint.

        Every letter is one step.  Nothing merges during a walk, so each
        vertex reached is a representative.  Only a walk that might reach
        a cap counts its steps letter by letter, so that the cap stops it
        on the exact step.
        """
        limits = self.limits
        n = len(codes)
        near_cap = (self.steps + n > limits.max_steps
                    or self.created + n > limits.max_vertices)
        if not near_cap:
            self.steps += n
        rows, parent = self.rows, self.parent
        for c in codes:
            if near_cap:
                self.steps += 1
                if self.steps > limits.max_steps:
                    raise _CapExceeded("steps", self.stats())
            t = rows[c][v]
            if t < 0:
                t = self.new_vertex(v, c >> 1, -1 if c & 1 else 1)
                rows[c][v] = t
                rows[c ^ 1][t] = v
            else:
                while parent[t] != t:
                    parent[t] = parent[parent[t]]
                    t = parent[t]
            v = t
        return v

    def trace(self, start: int, word: Word, end: int | None = None) -> int:
        """Walk ``word`` from ``start``, creating edges as needed; when
        ``end`` is given, schedule its identification with the endpoint."""
        v = self.walk(self.find(start), _codes(word))
        if end is not None:
            e = self.find(end)
            if v != e:
                self.pending.append((v, e))
        return v

    def collapse(self):
        """Drain scheduled identifications to a fixpoint.

        Each drained pair is one step.  Each union keeps the smaller
        label, folds the loser's rows into it in letter-code order,
        schedules any resulting conflicts, and re-enqueues the survivor
        for the universal sweep since its edge set changed.
        """
        pending, parent, rows, find = self.pending, self.parent, self.rows, self.find
        max_steps = self.limits.max_steps
        while pending:
            self.steps += 1
            if self.steps > max_steps:
                raise _CapExceeded("steps", self.stats())
            a, b = pending.popleft()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            self.unions += 1
            for row in rows:
                t = row[b]
                if t < 0:
                    continue
                t = find(t)
                u = row[a]
                if u < 0:
                    row[a] = t
                else:
                    u = find(u)
                    if u != t:
                        pending.append((u, t))
            self.done.discard(a)
            heappush(self.worklist, a)


def run_schedule(graph: TraceGraph, presentation: Presentation) -> TraceGraph:
    """Step 5: sweep live vertices in label order, tracing every
    universal relation at each and collapsing after each trace.

    Expects the primary relations already traced (steps 1 to 4) and
    collapsed.  A vertex merged away mid-sweep continues as its
    representative; representatives whose edges changed return to the
    worklist.
    """
    universals = [_codes(u.word) for u in secondary_relations(presentation)]
    worklist, parent, done = graph.worklist, graph.parent, graph.done
    while worklist:
        v = heappop(worklist)
        if parent[v] != v or v in done:
            continue
        for codes in universals:
            e = graph.walk(v, codes)
            if e != v:
                graph.pending.append((e, v))
                graph.collapse()
                v = graph.find(v)
        done.add(v)
    return graph


def _audit(graph: TraceGraph, presentation: Presentation):
    """Postconditions: every relation closes at every vertex and every
    generator acts as a bijection on the live set."""
    live = graph.live_vertices()
    live_set = set(live)
    for gen in range(graph.ngens):
        targets = []
        for v in live:
            t = graph.step(v, gen, 1)
            if t is None:
                raise EnumerationInternalError(
                    f"generator {gen} undefined at vertex {v}"
                )
            if graph.step(t, gen, -1) != v:
                raise EnumerationInternalError(
                    f"generator {gen} edges inconsistent at vertex {v}"
                )
            targets.append(t)
        if set(targets) != live_set:
            raise EnumerationInternalError(f"generator {gen} is not a bijection")
    for rel in presentation.relations:
        v = graph.find(rel.base)
        for gen, sign in rel.word:
            v = graph.step(v, gen, sign)  # type: ignore[assignment]
        if v != graph.find(rel.target):
            raise EnumerationInternalError("primary relation does not close")
    for word in (u.word for u in secondary_relations(presentation)):
        for start in live:
            v = start
            for gen, sign in word:
                v = graph.step(v, gen, sign)  # type: ignore[assignment]
            if v != start:
                raise EnumerationInternalError(
                    "universal relation does not close at some vertex"
                )


def _seal(graph: TraceGraph, presentation: Presentation) -> FiniteQuandle:
    live = graph.live_vertices()
    index = {v: i for i, v in enumerate(live)}
    action = tuple(
        tuple(index[graph.step(v, gen, 1)] for v in live)
        for gen in range(graph.ngens)
    )
    inverse_action = tuple(
        tuple(index[graph.step(v, gen, -1)] for v in live)
        for gen in range(graph.ngens)
    )
    return FiniteQuandle(
        size=len(live),
        generator_names=presentation.generator_names,
        action=action,
        inverse_action=inverse_action,
        generator_element=tuple(index[graph.find(j)] for j in range(graph.ngens)),
        component_of_generator=presentation.component_of,
        n_values=presentation.n_values,
        witnesses=tuple(graph.witnesses(live)),
        relations=presentation.relations,
    )


def enumerate_quandle(presentation: Presentation,
                      limits: EnumerationLimits | None = None) -> EnumerationOutcome:
    """Run the full procedure; Finite outcome carries the sealed quandle.

    The presentation must carry n-values.  Caps turn a diverging run
    into an Exceeded outcome reporting the vertex total at the stop.
    """
    if presentation.n_values is None:
        raise PresentationError("enumeration needs n-values; call augment_n")
    limits = limits or EnumerationLimits()
    try:
        graph = TraceGraph(presentation, limits)
        for rel in presentation.relations:
            graph.trace(rel.base, rel.word, end=rel.target)
            graph.collapse()
        run_schedule(graph, presentation)
    except _CapExceeded as exc:
        return EnumerationOutcome(None, exc.kind, exc.stats.created, exc.stats)
    _audit(graph, presentation)
    quandle = _seal(graph, presentation)
    return EnumerationOutcome(quandle, None, quandle.size, graph.stats())
