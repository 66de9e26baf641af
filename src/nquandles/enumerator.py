"""Tracing-and-collapsing enumeration of finite N-quandles.

Given a presentation with an N tuple, this module builds the Cayley
graph of the presented N-quandle by a quandle analogue of Todd-Coxeter
coset enumeration:

1.  one vertex per generator;
2.  an oriented loop at each generator vertex (idempotence);
3.  each primary relation base^w = target scanned as a path labeled w
    from base to target: forwards from base and backwards from target
    along the edges already there, the gap between the two scans filled
    with fresh vertices, a one-letter gap by a deduced edge, and scans
    that meet at two vertices scheduling their identification;
4.  after every scan, collapse: while two same-labeled edges point the
    same way into or out of a shared vertex, identify their far ends,
    folding the loser's edges into the survivor (least label wins);
5.  a sweep in vertex-label order that scans every universal relation
    y^w = y (the N relations first, then the conjugates of the primary
    relations) from each live vertex back to itself in the same way,
    collapsing after each scan that schedules an identification, until
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
label, and a relation is compiled once to letter codes and scanned from
both ends, as in the HLT strategy of coset enumeration, so a vertex is
made only for a letter that neither scan could read.  Each created
vertex keeps only its definition, the edge that created it: the parent
label and the letter code.  Following definitions back to a generator
vertex spells the vertex's witness a^w; merges never rewrite
definitions, the smaller label simply survives, and only the
survivors' witnesses are spelled out when the graph is sealed, one
letter per label on top of its parent's word, all words sharing one
letter object per letter code.  All worklists are ordered, so runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .presentations import Presentation, PresentationError, secondary_relations
from .quandle import FiniteQuandle
from .words import Expression, Word

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
    identifications performed; steps the letters scanned plus the
    identification pairs drained (what ``max_steps`` caps), where a
    scanned letter is one read forwards, read backwards or filled into
    the gap between the two, so that every scan of a relation costs its
    length; live is created - unions.  A named tuple, not a frozen
    dataclass, because it is about ten times cheaper to define at
    import.
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
    representatives' rows are read, and between collapses every entry
    in them is a representative whose reverse entry points back: a
    union takes each of the loser's edges out of its far end's row and
    enters it at the survivor, so a scan follows edges without ``find``.

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
        if g > limits.max_vertices:
            self.created = limits.max_vertices + 1
            raise _CapExceeded("vertices", self.stats())
        self._allocate(g)
        for j in range(g):
            self.def_parent.append(-1)
            self.def_code.append(2 * j)
            self.rows[2 * j][j] = j
            self.rows[2 * j + 1][j] = j

    def stats(self) -> EnumerationStats:
        return EnumerationStats(self.created, self.unions, self.steps, self.live_count)

    # -- vertices ----------------------------------------------------

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def _allocate(self, m: int) -> int:
        """Append m fresh labels, each its own class with no edges yet;
        return the first.  The caller enters their definitions."""
        base = self.created
        self.created = base + m
        self.parent.extend(range(base, base + m))
        fill = [-1] * m
        for row in self.rows:
            row += fill
        return base

    def witnesses(self, labels: list[int]) -> list[Expression]:
        """The witness a^w of each label, spelled along its definitions.

        A label's word is its parent's word extended by its defining
        letter, one letter per label: the parent's word is freely
        reduced, so the letter either cancels the parent's last letter
        or is appended.  Words of shared ancestors are built once, and
        every word holds the same 2*ngens letter objects, one per code.
        """
        letters = [(c >> 1, -1 if c & 1 else 1) for c in range(2 * self.ngens)]
        def_parent, def_code = self.def_parent, self.def_code
        memo = {j: Expression(j, ()) for j in range(self.ngens)}
        out = []
        for v in labels:
            chain = []
            while v not in memo:
                chain.append(v)
                v = def_parent[v]
            expr = memo[v]
            base, word = expr.base, expr.word
            for u in reversed(chain):
                code = def_code[u]
                if word and word[-1] is letters[code ^ 1]:
                    word = word[:-1]
                else:
                    word = word + (letters[code],)
                expr = memo[u] = Expression(base, word)
            out.append(expr)
        return out

    @property
    def live_count(self) -> int:
        return self.created - self.unions

    # -- edges ---------------------------------------------------------

    def scan(self, v: int, codes: Sequence[int], e: int) -> None:
        """Close the path labeled ``codes`` from representative ``v`` to
        representative ``e``.

        The forward scan follows defined edges from v, the backward scan
        follows the inverse letters from e, each until an edge is
        missing.  Scans that meet schedule the identification of their
        ends when these differ.  Otherwise the gap between them is
        filled: one fresh vertex per gap letter but the last, defined
        along the forward side, and the last letter joins the backward
        end; a one-letter gap is thus a deduced edge and makes no
        vertex.  When the gap runs from a vertex back to itself and
        its first letter undoes its last, the join would give that
        vertex a second edge with one letter; the two far ends of that
        letter are scheduled for identification instead.

        Every letter is one step, whether read forwards, read backwards
        or filled into the gap, so a scan costs len(codes) steps.
        """
        rows = self.rows
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
        limits = self.limits
        if (self.steps + n > limits.max_steps
                or gap > 1 and self.created + gap > limits.max_vertices + 1):
            self._stop(n - gap, gap)
        self.steps += n
        if not gap:
            if v != e:
                self.pending.append((v, e))
            return
        if gap > 1:
            y = self._allocate(gap - 1)
            self.def_parent.append(v)
            self.def_parent.extend(range(y, self.created - 1))
            self.def_code.extend(codes[i:j - 1])
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
            self.pending.append((w, v))

    def _stop(self, scanned: int, gap: int) -> None:
        """Raise the cap broken by a scan that read ``scanned`` letters
        and has ``gap`` letters to fill, with the counters as they stand
        at the letter that breaks it: the step counted before the
        letter's vertex is made."""
        limits = self.limits
        step_at = limits.max_steps - self.steps - scanned + 1
        vertex_at = limits.max_vertices - self.created + 1
        if step_at <= min(gap, vertex_at):
            self.created += max(step_at - 1, 0)
            self.steps = limits.max_steps + 1
            raise _CapExceeded("steps", self.stats())
        self.steps += scanned + vertex_at
        self.created = limits.max_vertices + 1
        raise _CapExceeded("vertices", self.stats())

    def trace(self, start: int, word: Word, end: int) -> None:
        """Scan ``word`` from ``start`` to ``end`` (step 3)."""
        self.scan(self.find(start), _codes(word), self.find(end))

    def collapse(self):
        """Drain scheduled identifications to a fixpoint.

        Each drained pair is one step.  Each union keeps the smaller
        label and moves the loser's edges to it in letter-code order: an
        edge leaves its far end's reverse row and is entered at the
        survivor; where the survivor already has an edge with that
        letter, or the far end one with its inverse, the two vertices
        that would clash are scheduled for identification instead.
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
            for c, row in enumerate(rows):
                t = row[b]
                if t < 0:
                    continue
                inverse = rows[c ^ 1]
                inverse[t] = -1
                if t == b:
                    t = a
                u = row[a]
                if u >= 0:
                    if u != t:
                        pending.append((u, t))
                elif inverse[t] >= 0:
                    pending.append((inverse[t], a))
                else:
                    row[a] = t
                    inverse[t] = a


def run_schedule(graph: TraceGraph, presentation: Presentation) -> TraceGraph:
    """Step 5: sweep live vertices in label order, scanning every
    universal relation at each and collapsing after each scan that
    schedules an identification.

    Expects the primary relations already scanned (steps 1 to 4) and
    collapsed.  A cursor visits each label once, including the labels
    created during the sweep; a vertex merged away mid-sweep continues
    as its representative.  A survivor behind the cursor is not scanned
    again: a relation that closes at a vertex still closes at its class
    after any later identification.
    """
    universals = [_codes(u.word) for u in secondary_relations(presentation)]
    parent, scan, pending = graph.parent, graph.scan, graph.pending
    cursor = 0
    while cursor < graph.created:
        v, cursor = cursor, cursor + 1
        if parent[v] != v:
            continue
        for codes in universals:
            scan(v, codes, v)
            if pending:
                graph.collapse()
                v = graph.find(v)
    return graph


def _seal(graph: TraceGraph, presentation: Presentation) -> FiniteQuandle:
    """Step 6: number the live labels in label order, read each letter
    row once into an action table over them, and check the
    postconditions on those tables: every edge defined, each generator's
    inverse table undoing its action (so both are bijections and the
    inverse edges agree), and every primary and universal relation
    closing.

    After the last collapse the rows of representatives hold only
    representatives, so each entry is numbered directly; an entry that
    is a merged label is a broken postcondition, not something to
    remap."""
    parent = graph.parent
    live = [v for v in range(graph.created) if parent[v] == v]
    index = [-1] * graph.created
    for i, v in enumerate(live):
        index[v] = i
    tables = []
    for code, row in enumerate(graph.rows):
        ends = [row[v] for v in live]
        if -1 in ends:
            v = live[ends.index(-1)]
            raise EnumerationInternalError(f"generator {code >> 1} undefined at vertex {v}")
        table = [index[t] for t in ends]
        if -1 in table:
            i = table.index(-1)
            raise EnumerationInternalError(
                f"generator {code >> 1} at vertex {live[i]} points at merged label {ends[i]}")
        tables.append(tuple(table))
    action, inverse_action = tuple(tables[0::2]), tuple(tables[1::2])
    for gen, (act, inv) in enumerate(zip(action, inverse_action)):
        if any(inv[y] != x for x, y in enumerate(act)):
            raise EnumerationInternalError(
                f"generator {gen} is not a bijection with its inverse edges")
    generator_element = tuple([index[graph.find(j)] for j in range(graph.ngens)])
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
