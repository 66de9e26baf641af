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
step caps make the infinite case observable as an Exceeded outcome.
Each created vertex keeps only its definition, the edge that created
it: the parent label, the generator and the sign, as in a Todd-Coxeter
coset table.  Following definitions back to a generator vertex spells
the vertex's witness a^w; merges never rewrite definitions, the smaller
label simply survives, and only the survivors' witnesses are spelled
out when the graph is sealed.  All worklists are ordered, so runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .presentations import Presentation, PresentationError, secondary_relations
from .quandle import FiniteQuandle
from .words import Expression, Word, concat

DEFAULT_MAX_VERTICES = 100_000
DEFAULT_MAX_STEPS = 100_000_000


@dataclass(frozen=True)
class EnumerationLimits:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_steps: int = DEFAULT_MAX_STEPS


class _CapExceeded(Exception):
    def __init__(self, kind: str, created: int):
        self.kind = kind
        self.created = created


class EnumerationInternalError(RuntimeError):
    """The finished graph failed a postcondition; indicates a bug."""


@dataclass(frozen=True)
class EnumerationOutcome:
    """Finite (quandle set) or Exceeded (cap_kind set).

    vertices is the live count when finite, the total created when a
    cap stopped the run.
    """

    quandle: FiniteQuandle | None
    cap_kind: str | None
    vertices: int

    @property
    def finite(self) -> bool:
        return self.quandle is not None


class TraceGraph:
    """Partial Cayley graph under construction.

    Per generator, fwd maps a vertex to its image and bwd to its
    preimage; entries exist in pairs.  Vertex identities live in a
    union-find keyed by creation label; the least label represents its
    class.  Map keys are always live representatives once ``collapse``
    has drained; values may be stale and are resolved through ``find``.

    Label v was created by the edge def_parent[v] --(def_gen[v],
    def_sign[v])--> v, with def_parent[v] < v; a generator vertex has
    def_parent -1, its own generator as def_gen and def_sign 0.
    """

    def __init__(self, presentation: Presentation,
                 limits: EnumerationLimits = EnumerationLimits()):
        self.presentation = presentation
        self.limits = limits
        g = len(presentation.generator_names)
        self.ngens = g
        self.fwd: list[dict[int, int]] = [{} for _ in range(g)]
        self.bwd: list[dict[int, int]] = [{} for _ in range(g)]
        self.parent: list[int] = []
        self.def_parent: list[int] = []
        self.def_gen: list[int] = []
        self.def_sign: list[int] = []
        self.created = 0
        self.unions = 0
        self.steps = 0
        self.pending: deque[tuple[int, int]] = deque()
        self.worklist: list[int] = []
        self.done: set[int] = set()
        for j in range(g):
            v = self.new_vertex(-1, j, 0)
            self.fwd[j][v] = v
            self.bwd[j][v] = v

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
            raise _CapExceeded("vertices", self.created)
        self.parent.append(label)
        self.def_parent.append(parent)
        self.def_gen.append(gen)
        self.def_sign.append(sign)
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

    def _tick(self):
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise _CapExceeded("steps", self.created)

    def step(self, v: int, gen: int, sign: int) -> int | None:
        """Follow an existing edge; None when absent."""
        v = self.find(v)
        table = self.fwd[gen] if sign > 0 else self.bwd[gen]
        t = table.get(v)
        return None if t is None else self.find(t)

    def force_step(self, v: int, gen: int, sign: int) -> int:
        """Follow an edge, creating a fresh far vertex when absent."""
        self._tick()
        v = self.find(v)
        table = self.fwd[gen] if sign > 0 else self.bwd[gen]
        t = table.get(v)
        if t is not None:
            return self.find(t)
        w = self.new_vertex(v, gen, sign)
        table[v] = w
        (self.bwd[gen] if sign > 0 else self.fwd[gen])[w] = v
        return w

    def trace(self, start: int, word: Word, end: int | None = None) -> int:
        """Walk ``word`` from ``start``, creating edges as needed; when
        ``end`` is given, schedule its identification with the endpoint."""
        v = self.find(start)
        for gen, sign in word:
            v = self.force_step(v, gen, sign)
        if end is not None:
            e = self.find(end)
            if v != e:
                self.pending.append((v, e))
        return v

    def collapse(self):
        """Drain scheduled identifications to a fixpoint.

        Each union keeps the smaller label, folds the loser's edge rows
        into it, schedules any resulting conflicts, and re-enqueues the
        survivor for the universal sweep since its edge set changed.
        """
        while self.pending:
            self._tick()
            a, b = self.pending.popleft()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.unions += 1
            for gen in range(self.ngens):
                for table in (self.fwd[gen], self.bwd[gen]):
                    t = table.pop(b, None)
                    if t is None:
                        continue
                    t = self.find(t)
                    u = table.get(a)
                    if u is None:
                        table[a] = t
                    else:
                        u = self.find(u)
                        if u != t:
                            self.pending.append((u, t))
            self.done.discard(a)
            heappush(self.worklist, a)


def run_schedule(graph: TraceGraph, presentation: Presentation) -> TraceGraph:
    """Step 5: sweep live vertices in label order, tracing every
    universal relation at each and collapsing after each trace.

    Expects the primary relations already traced (steps 1 to 4).  A
    vertex merged away mid-sweep continues as its representative;
    representatives whose edges changed return to the worklist.
    """
    universals = [u.word for u in secondary_relations(presentation)]
    while graph.worklist:
        v = heappop(graph.worklist)
        if graph.parent[v] != v or v in graph.done:
            continue
        for word in universals:
            graph.trace(v, word, end=v)
            graph.collapse()
            v = graph.find(v)
        graph.done.add(v)
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
        return EnumerationOutcome(None, exc.kind, exc.created)
    _audit(graph, presentation)
    quandle = _seal(graph, presentation)
    return EnumerationOutcome(quandle, None, quandle.size)
