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
    every live vertex has been processed;
6.  sealing: the live vertices, in label order, become the elements
    0..n-1 and the letter rows become integer action tables, which must
    pass every postcondition (each generator a bijection with its
    inverse edges, every primary and universal relation closed) before
    they are handed to a ``FiniteQuandle``.

The procedure halts exactly when the N-quandle is finite; vertex and
step caps make the infinite case observable as an Exceeded outcome,
and the counters of ``EnumerationStats`` say how far either kind of
run got.  As in a Todd-Coxeter coset table, the edges are kept in one
flat row per letter (a generator or its inverse) indexed by vertex
label, and a relation is compiled once to letter codes and walked in a
single loop.  Each created vertex keeps only its definition, the edge
that created it: the parent label and the letter code.  Following
definitions back to a generator vertex spells the vertex's witness
a^w; merges never rewrite definitions, the smaller label simply
survives, and only the survivors' witnesses are spelled out when the
graph is sealed.  All worklists are ordered, so runs are
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

    Label v was created by the edge def_parent[v] --def_code[v]--> v,
    with def_parent[v] < v and def_code[v] a letter code as in the rows;
    generator vertex j has def_parent -1 and def_code 2*j.  The
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
        self.def_code = array("i")
        self.created = 0
        self.unions = 0
        self.steps = 0
        self.pending: deque[tuple[int, int]] = deque()
        self.worklist: list[int] = []
        self.done: set[int] = set()
        for j in range(g):
            v = self.new_vertex(-1, 2 * j)
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

    def new_vertex(self, parent: int, code: int) -> int:
        label = self.created
        self.created += 1
        if self.created > self.limits.max_vertices:
            raise _CapExceeded("vertices", self.stats())
        self.parent.append(label)
        self.def_parent.append(parent)
        self.def_code.append(code)
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
                code = self.def_code[u]
                letter = ((code >> 1, -1 if code & 1 else 1),)
                expr = Expression(expr.base, concat(expr.word, letter))
                memo[u] = expr
            out.append(expr)
        return out

    @property
    def live_count(self) -> int:
        return self.created - self.unions

    # -- edges ---------------------------------------------------------

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
                t = self.new_vertex(v, c)
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


def _seal(graph: TraceGraph, presentation: Presentation) -> FiniteQuandle:
    """Step 6: number the live labels in label order, read each letter
    row once into an action table over them, and check the
    postconditions on those tables: every edge defined, each generator's
    inverse table undoing its action (so both are bijections and the
    inverse edges agree), and every primary and universal relation
    closing."""
    parent, find = graph.parent, graph.find
    live = [v for v in range(graph.created) if parent[v] == v]
    index = {v: i for i, v in enumerate(live)}
    tables = []
    for code, row in enumerate(graph.rows):
        ends = [row[v] for v in live]
        if -1 in ends:
            v = live[ends.index(-1)]
            raise EnumerationInternalError(f"generator {code >> 1} undefined at vertex {v}")
        tables.append(tuple([index[find(t)] for t in ends]))
    action, inverse_action = tuple(tables[0::2]), tuple(tables[1::2])
    for gen, (act, inv) in enumerate(zip(action, inverse_action)):
        if any(inv[y] != x for x, y in enumerate(act)):
            raise EnumerationInternalError(
                f"generator {gen} is not a bijection with its inverse edges")
    generator_element = tuple(index[find(j)] for j in range(graph.ngens))
    for rel in presentation.relations:
        x = generator_element[rel.base]
        for c in _codes(rel.word):
            x = tables[c][x]
        if x != generator_element[rel.target]:
            raise EnumerationInternalError("primary relation does not close")
    identity = list(range(len(live)))
    for u in secondary_relations(presentation):
        perm = identity
        for c in _codes(u.word):
            table = tables[c]
            perm = [table[x] for x in perm]
        if perm != identity:
            raise EnumerationInternalError(
                "universal relation does not close at some vertex")
    return FiniteQuandle(
        size=len(live),
        generator_names=presentation.generator_names,
        action=action,
        inverse_action=inverse_action,
        generator_element=generator_element,
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
    quandle = _seal(graph, presentation)
    return EnumerationOutcome(quandle, None, quandle.size, graph.stats())
