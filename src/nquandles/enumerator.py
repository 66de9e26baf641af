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
    collapsing after each scan that schedules an identification, and
    skipping a power relation a^n at a vertex one of whose a-neighbours
    has a smaller label, since a^n closed there already, until
    every live vertex has been processed, or until the audit of step 6,
    tried after each window of live vertices that made no vertex and
    merged none, passes: it then proves that every scan left would
    close, so the graph is already the one the whole sweep would leave;
    a conjugate relator longer than all the others together, as Mk's
    is, is swept on a second cursor that lags the first in proportion
    to the lengths, so it is scanned mostly on a graph that the short
    relators have already closed;
6.  sealing: the live vertices become the elements 0..n-1 along the
    generator tree that names them, generator elements first, and the
    letter rows become integer action tables, whose forward half makes
    a ``FiniteQuandle`` that is returned only once it passes every
    postcondition (each generator a bijection with its inverse edges,
    every primary and universal relation closed, every vertex reached);
    the checks on all elements at once read the quandle's own
    ``arrays``, the numpy form that its later proofs read too: the
    inverses as Python lists against the inverse tables, and the
    actions, copied once to intp, as the rows the relators gather along.

The procedure halts exactly when the N-quandle is finite; vertex and
step caps make the infinite case observable as an Exceeded outcome,
and the counters of ``EnumerationStats`` say how far either kind of
run got.  As in a Todd-Coxeter coset table, the edges are kept in one
flat row per letter code, the codes that spell every relation word,
indexed by vertex label.  Relators are compiled once per graph
(``TraceGraph.relators``), shared by the scans and the sealing audit, and
scanned from both ends, as in the HLT strategy of coset enumeration, so
a vertex is made only for a letter that neither scan could read.  A
power relation a^n is never spelled: it is the run (code, n), scanned
round a's cycle through the vertex (``TraceGraph.scan_run``), which
reads no more than that cycle or path whatever n is, and gives what the
spelled scan would.  Each letter has one edge into and out of a vertex,
so a closed a^n at one vertex closes it on the vertex's whole a-cycle;
the sweep therefore scans a^n at a vertex only when neither of its
a-neighbours has a smaller label, which the sweep has passed, and each
cycle is read about once, not n times.  A generator a with n = 2 acts
as an involution, x^(a') = x^a, since R_a^2 = id in the N-quandle: its
two letters share one row, its letters are compiled as a and cancel in
pairs, and its power relation a^2 is scanned only when no other
universal relation reads a (a free involution, as on a component of an
unlink).  The fold is a sound deduction, and it leaves the halting
behaviour as it was only because that power is kept: the sweep defines
a letter's edges only by reading the letter, so a letter that no
relation reads would stay undefined.  Every other relation is bound
once per run to the graph's letter rows (``TraceGraph.bind``), the row
of each letter and of its inverse, so a read follows row objects, not
letter codes; the rows grow in place, so a binding stays valid for the
whole run.  The union-find keeps only merged labels, each mapped to the
label it was merged into, so a run that stops at the vertex cap holds
one entry per union, not one per label.  Every row runs at least one
entry past the last label made, and every entry there is -1, so a read
past a missing edge lands on index -1 and stays at -1: a scan first
reads its whole relator with no test per letter, and reads it again
letter by letter from both ends only when that read ends at -1.  On Mk
about two scans in three find their relator closed and stop after the
first read; a scan counts one step per letter either way.  Vertices
record nothing about how they were made, and merges keep the smaller
label; the sealed quandle derives its element names from its action
tables.  All worklists are ordered, so runs are bit-for-bit
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .presentations import Presentation, conjugate_relations
from .quandle import FiniteQuandle
from .words import Word

DEFAULT_MAX_VERTICES = 100_000
DEFAULT_MAX_STEPS = 100_000_000
# live vertices per window of the sweep, and of a lagging relator's
# cursor; a window that changes nothing is followed by the seal's audit
# (see ``run_schedule``)
_QUIET_WINDOW = 32


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
    length; live is created - unions.  Only scans that ran count: a
    power relation that the sweep skips at a vertex because it closed at
    a neighbour counts no step, a sweep ended early by the seal's audit
    counts none of the scans it skipped, and the audit itself counts no
    step.  A named tuple, not a frozen dataclass, because it is about
    ten times cheaper to define at import.
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
    """Finite (quandle set) or Exceeded (cap_kind set); stats holds the
    counters at the stop in either case."""

    quandle: FiniteQuandle | None
    cap_kind: str | None
    stats: EnumerationStats

    @property
    def finite(self) -> bool:
        return self.quandle is not None

    @property
    def vertices(self) -> int:
        """The live count when finite, the total created when a cap
        stopped the run."""
        return self.stats.live if self.finite else self.stats.created


class Relators(NamedTuple):
    """A presentation's relations as letter codes, compiled once per run.

    primary holds (base, codes, target) per primary relation.  The
    universal relations come in three lists, swept in this order at each
    vertex: powers, each non-2 power relation a^n as the run (code, n);
    conjugates, the codes of each conjugate relator; and squares, each
    free involution's a a as the run (code, 2).  A run is never spelled,
    so a power costs two ints whatever its n.  lag is None, or the index
    in conjugates of the one relator that the sweep scans on its lagging
    cursor (see ``run_schedule``): one longer than all the other
    universal relators together, a run counting its n letters, as Mk's
    long relator is.  The seal's audit reads every universal relator,
    the lagging one included.
    """

    primary: list[tuple[int, list[int], int]]
    powers: list[tuple[int, int]]
    conjugates: list[list[int]]
    squares: list[tuple[int, int]]
    lag: int | None = None


def compile_relators(presentation: Presentation) -> Relators:
    """The relators of a presentation with n-values, for one run.  Words
    are already letter codes, so only involutions change: a generator a
    with n = 2 is folded, a' written a, a a cancelling and a relator that
    folds to nothing dropped.  Its power relation a^2 is kept, as the run
    (code, 2), only when no folded conjugate relator reads a, since the
    sweep defines a letter's edges only by reading it.  The longest
    conjugate relator lags when its length is more than half of the
    summed length of all universal relators, and it is not the only one;
    a run never lags."""
    ns = [presentation.n_of_generator(j) for j in range(len(presentation.generator_names))]
    # how each code is written: an involution's inverse letter as itself
    spell = [c & -2 if ns[c >> 1] == 2 else c for c in range(2 * len(ns))]

    def fold(word: Word) -> list[int]:
        out: list[int] = []
        for c in word:
            if out and out[-1] == spell[c ^ 1]:
                out.pop()
            else:
                out.append(spell[c])
        return out

    primary = [(rel.base, fold(rel.word), rel.target) for rel in presentation.relations]
    conjugates = [codes for codes in map(fold, conjugate_relations(presentation)) if codes]
    read = {c for codes in conjugates for c in codes}
    powers = [(2 * gen, n) for gen, n in enumerate(ns) if n != 2]
    squares = [(2 * gen, 2) for gen, n in enumerate(ns) if n == 2 and 2 * gen not in read]
    longest = max(map(len, conjugates), default=0)
    # the longest conjugate relator lags when it outweighs the rest, and
    # the rest is not empty, so the lead cursor has a relator to scan
    rest = sum(n for _, n in powers) + sum(map(len, conjugates)) + 2 * len(squares) - longest
    lag = None
    if 0 < rest < longest:
        lag = [len(codes) for codes in conjugates].index(longest)
    return Relators(primary, powers, conjugates, squares, lag)


class TraceGraph:
    """Partial Cayley graph under construction.

    Edges live in one row per letter, indexed by vertex label.  Letter
    code 2*gen stands for gen and 2*gen + 1 for its inverse, so code ^ 1
    inverts a letter; rows[code][v] is the far end of v's edge with that
    letter, -1 when v has none, and every edge is entered in both
    directions.  An involution, a generator with n = 2, has one row
    under both its codes, so each of its edges is entered at both ends
    of that row; ``pairs`` lists each distinct row once beside its
    inverse row, and allocation and collapse go through it.  Vertex
    identities live in a union-find keyed by creation label; the least
    label represents its class.  ``parent`` maps each merged label to
    the label it was merged into, and a label absent from it is a
    representative, so it holds one entry per union and nothing for a
    label that was never merged.  The rows are allocated ahead,
    geometrically: past ``created`` every entry is -1.  Only
    representatives' rows are read, and between collapses every entry
    in them is a representative whose reverse entry points back: a union
    takes each of the loser's edges out of its far end's row and enters
    it at the survivor, so a scan follows edges without ``find``.
    Vertices keep no record of the edge that made them; a sealed quandle
    names its elements along its generator tree instead.

    Invariant: ``rows`` and each row in it are the same list objects
    for the graph's whole life.  ``_allocate`` grows every row in place
    and nothing rebinds ``rows`` or a row during a run, so a relator
    bound once by ``bind``, or a run's two rows, read and write the live
    rows ever after.

    Sentinel invariant: every row is longer than ``created``, so each
    row ends in -1.  Reading row[-1] after a missing edge therefore
    gives -1 again, and a read that lost its way at any letter ends at
    -1 without a test per letter.  ``_allocate`` keeps this by growing
    the rows when the new labels reach their length, not only when they
    pass it, and a scan makes no label past ``max_vertices - 1``, so the
    growth cap of ``max_vertices + 1`` keeps it too.
    """

    def __init__(self, presentation: Presentation,
                 limits: EnumerationLimits = EnumerationLimits()):
        self.presentation = presentation
        self.limits = limits
        self.relators = compile_relators(presentation)
        g = len(presentation.generator_names)
        self.ngens = g
        self.rows: list[list[int]] = []
        for j in range(g):
            row: list[int] = []
            self.rows += (row, row) if presentation.n_of_generator(j) == 2 else (row, [])
        rows = self.rows
        self.pairs = [(rows[c], rows[c ^ 1]) for c in range(2 * g)
                      if rows[c] is not rows[c ^ 1] or not c & 1]
        self.parent: dict[int, int] = {}
        self.created = 0
        self.unions = 0
        self.steps = 0
        self.pending: deque[tuple[int, int]] = deque()
        if g > limits.max_vertices:
            self.created = limits.max_vertices + 1
            raise _CapExceeded("vertices", self.stats())
        self._allocate(g)
        for j in range(g):
            rows[2 * j][j] = j
            rows[2 * j + 1][j] = j

    def stats(self) -> EnumerationStats:
        return EnumerationStats(self.created, self.unions, self.steps, self.live_count)

    # -- vertices ----------------------------------------------------

    def find(self, v: int) -> int:
        """The representative of v's class, halving the path walked."""
        parent = self.parent
        while v in parent:
            u = parent[v]
            if u not in parent:
                return u
            w = parent[u]
            parent[v] = w
            v = w
        return v

    def _allocate(self, m: int) -> int:
        """Make m fresh labels, each its own class with no edges yet;
        return the first.  A fresh label is a representative, so the
        union-find takes no entry for it.  When the labels reach the
        rows' length, read off the first row, each distinct row once
        grows to twice that length, capped one past the vertex cap, or to
        one past the new labels' end if that is further, so each row
        still ends in a -1."""
        base = self.created
        self.created = end = base + m
        size = len(self.rows[0])
        if end >= size:
            length = max(end + 1, min(2 * size, self.limits.max_vertices + 1))
            fill = [-1] * (length - size)
            for row, _ in self.pairs:
                row += fill
        return base

    @property
    def live_count(self) -> int:
        return self.created - self.unions

    # -- edges ---------------------------------------------------------

    def bind(self, codes: list[int]) -> tuple[list[list[int]], list[list[int]]]:
        """The relator ``codes`` bound to this graph's letter rows: the row
        of each letter and the row of its inverse, the very list objects
        of ``rows``.  A plain tuple, not a named one, because small runs
        bind about as often as they scan."""
        rows = self.rows
        return [rows[c] for c in codes], [rows[c ^ 1] for c in codes]

    def scan(self, v: int, bound: tuple, e: int) -> None:
        """Close the path labeled by a relator, ``bound`` to this graph
        by ``bind``, from representative ``v`` to representative ``e``.

        The forward scan follows defined edges from v through the bound
        rows, the backward scan follows the bound inverse rows from e,
        each until an edge is missing.  Scans that meet schedule the
        identification of their ends when these differ.  Otherwise the
        gap between them is filled: one fresh vertex per gap letter but
        the last, entered along the forward side, and the last letter
        joins the backward end; a one-letter gap is thus a deduced edge
        and makes no vertex.  When the gap runs from a vertex back to
        itself and its first letter undoes its last (x and x', or an
        involution a and a again), the join would give that vertex a
        second edge with one letter; the two far ends of that letter are
        scheduled for identification instead.

        The first pass reads every letter forwards with no test: by the
        sentinel invariant a read past a missing edge stays at -1, so a
        non-negative end means the whole relator was read, and the scan
        is finished once the ends are compared.  Only a read that ends
        at -1 reads again, letter by letter, from both ends.

        Every letter is one step, whether read forwards, read backwards
        or filled into the gap, so a scan costs its length in steps on
        either path, and the cap stops it at the same letter.
        """
        fwd, bwd = bound
        n = len(fwd)
        x = v
        for row in fwd:
            x = row[x]
        if x >= 0:
            if self.steps + n > self.limits.max_steps:
                self._stop(n, 0)
            self.steps += n
            if x != e:
                self.pending.append((x, e))
            return
        # the same rows from the same vertex: this read stops at the
        # letter where the first one fell to -1
        it = iter(fwd)
        for row in it:
            t = row[v]
            if t < 0:
                # the read stopped at letter i; a list iterator knows
                # how many letters it has left
                i = n - 1 - length_hint(it)
                break
            v = t
        j = n
        while j > i:
            t = bwd[j - 1][e]
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
        j -= 1
        if gap > 1:
            y = self._allocate(gap - 1)
            for k in range(i, j):
                fwd[k][v] = y
                bwd[k][y] = v
                v = y
                y += 1
        w = bwd[j][e]
        if w < 0:
            fwd[j][v] = e
            bwd[j][e] = v
        else:
            self.pending.append((w, v))

    def scan_run(self, v: int, n: int, row: list[int], back: list[int]) -> None:
        """Close the run a^n from representative ``v`` back to v, where
        ``row`` is the row of the letter a and ``back`` that of its
        inverse, exactly as ``scan`` closes the spelled relator a a ... a
        of n letters: the same steps, the same gap fill, join or
        identification, and the same cap stop.

        Each letter has at most one edge into and out of a vertex, so
        the forward read either comes back to v after d letters, and then
        goes on round v's cycle to read all n and end at v·a^(n mod d),
        or follows v's path until a missing edge or the n-th letter; the
        backward read from v follows that path the other way and never
        meets the forward one.  Either way no read goes further than v's
        path or cycle, whatever n is.
        """
        x = v
        i = 0
        while i < n:
            t = row[x]
            if t < 0:
                break
            i += 1
            x = t
            if t == v:
                # round v's cycle of i letters: the read of all n ends
                # n mod i letters on from v
                for _ in range(n % i):
                    x = row[x]
                i = n
        if i == n:
            if self.steps + n > self.limits.max_steps:
                self._stop(n, 0)
            self.steps += n
            if x != v:
                self.pending.append((x, v))
            return
        e = v
        j = n
        while j > i:
            t = back[e]
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
            # the two reads end apart: had they met, v would lie on a cycle
            self.pending.append((x, e))
            return
        if gap > 1:
            base = self._allocate(gap - 1)
            for y in range(base, base + gap - 1):
                row[x] = y
                back[y] = x
                x = y
        w = back[e]
        if w < 0:
            row[x] = e
            back[e] = x
        else:
            self.pending.append((w, x))

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

    def collapse(self):
        """Drain scheduled identifications to a fixpoint.

        Each drained pair is one step.  Each union keeps the smaller
        label, enters ``parent[loser] = survivor`` (the loser was a
        representative, so it had no entry), and moves the loser's edges
        to the survivor in letter-code order, an involution's one row
        visited once: an edge leaves its far end's reverse row and is
        entered at the survivor; where the survivor already has an edge
        with that letter, or the far end one with its inverse, the two
        vertices that would clash are scheduled for identification
        instead.  The loser's own entries are left as they are, so a
        second visit of a shared row would read the edge just moved as
        the loser's again and take it out.

        The step and union counters are kept in locals while the loop
        runs and written back to the graph before it returns or raises
        ``_CapExceeded``; ``find`` is called only on a label in
        ``parent``, since a label absent from it is its own
        representative.
        """
        pending, parent, pairs, find = self.pending, self.parent, self.pairs, self.find
        max_steps = self.limits.max_steps
        steps, unions = self.steps, self.unions
        while pending:
            steps += 1
            if steps > max_steps:
                self.steps, self.unions = steps, unions
                raise _CapExceeded("steps", self.stats())
            a, b = pending.popleft()
            if a in parent:
                a = find(a)
            if b in parent:
                b = find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            unions += 1
            for row, inverse in pairs:
                t = row[b]
                if t < 0:
                    continue
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
        self.steps, self.unions = steps, unions


def run_schedule(graph: TraceGraph) -> FiniteQuandle:
    """Step 5, ended by step 6: sweep live vertices in label order,
    scanning every universal relation at each and collapsing after each
    scan that schedules an identification, and return the sealed quandle.

    Expects the primary relations already scanned (steps 1 to 4) and
    collapsed; each universal relator of ``graph.relators`` is bound to
    the graph's rows once per call, before the sweep starts, a run to
    the row of its letter and of the letter's inverse.  A cursor visits
    each label once, including the labels created during the sweep; a
    vertex merged away mid-sweep continues as its representative.  A
    survivor behind the cursor is not scanned again: a relation that
    closes at a vertex still closes at its class after any later
    identification.

    For the same reason a run a^n is skipped at v when v's a-edge or
    a'-edge leads to a label u with 0 <= u < v.  Rows hold only
    representatives between collapses, so u is one, and the cursor has
    passed it and closed a^n there, so u lies on an a-cycle whose length
    divides n.  An a-edge is the only one into or out of its ends, so v
    lies on that cycle too, and a^n closes at v: the skipped scan would
    read round and change nothing.  It reads nothing and counts no step.

    The sweep counts the live vertices it processes in windows of
    ``_QUIET_WINDOW``.  A window that made no vertex and merged none
    (``created + unions`` did not grow; both only grow) is followed by
    the seal's audit.  An audit that passes proves that every remaining
    scan would read its relator round a defined cycle and change
    nothing, so its quandle is the full sweep's, and the sweep ends
    there; ``steps`` then counts only the letters scanned, and the audit
    itself counts no step.  An audit that fails leaves the graph as it
    was and the sweep goes on, each later window twice as long, so
    failed audits stay few.  Past the last label the seal runs once
    more, and its errors propagate.

    When ``relators.lag`` names a relator of length L, more than half of
    the summed length S of all of them, the cursor above leads over
    every other relator, and the lagging relator has a second cursor of
    its own.  The lead window is ``_QUIET_WINDOW`` * ceil(L / (S - L))
    live labels; at its end the lag cursor scans the lagging relator at
    its next ``_QUIET_WINDOW`` live labels, and only then does the quiet
    check run.  Once the lead cursor has passed the last label, the lag
    cursor goes on alone, a window at a time, each followed by the same
    check; labels it makes send the lead cursor on again, and the final
    seal runs when both have passed the last label.  Both cursors move
    in every window, so every label is still scanned with every
    relator, and the audit still reads every relator, so the quandle
    is the one of the sweep without a lag.  On Mk the short relators
    close the graph first, and the lagging one then needs scanning at
    few labels: about half the vertices and a fraction of the steps.
    """
    relators = graph.relators
    rows = graph.rows
    powers = [(n, rows[code], rows[code ^ 1]) for code, n in relators.powers]
    squares = [(n, rows[code], rows[code ^ 1]) for code, n in relators.squares]
    conjugates = [graph.bind(codes) for codes in relators.conjugates]
    lag = relators.lag
    parent, scan, scan_run, pending = graph.parent, graph.scan, graph.scan_run, graph.pending
    window = _QUIET_WINDOW
    if lag is not None:
        lagging = conjugates.pop(lag)
        length = len(lagging[0])
        total = (sum(n for n, _, _ in powers + squares)
                 + sum(map(len, relators.conjugates)))
        window *= -(-length // (total - length))
    # at each vertex the powers, then the conjugate relators, then the
    # free involutions' squares
    order = [(powers, conjugates), (squares, ())] if squares else [(powers, conjugates)]
    left = window
    mark = graph.created + graph.unions
    cursor = trail = 0
    while True:
        while cursor < graph.created:
            v, cursor = cursor, cursor + 1
            if v in parent:
                continue
            for runs, bounds in order:
                for n, row, back in runs:
                    # a neighbour u < v along the letter: a^n closed at u
                    if -1 < row[v] < v or -1 < back[v] < v:
                        continue
                    scan_run(v, n, row, back)
                    if pending:
                        graph.collapse()
                        v = graph.find(v)
                for bound in bounds:
                    scan(v, bound, v)
                    if pending:
                        graph.collapse()
                        v = graph.find(v)
            left -= 1
            if not left:
                break
        else:
            # the lead cursor has passed the last label
            if lag is None or trail >= graph.created:
                return _seal(graph)
        if lag is not None:
            count = _QUIET_WINDOW
            while count and trail < graph.created:
                v, trail = trail, trail + 1
                if v in parent:
                    continue
                scan(v, lagging, v)
                if pending:
                    graph.collapse()
                count -= 1
        if graph.created + graph.unions == mark:
            try:
                return _seal(graph)
            except EnumerationInternalError:
                window *= 2
        left = window
        mark = graph.created + graph.unions


def _seal(graph: TraceGraph) -> FiniteQuandle:
    """Step 6: number the live labels along the generator tree, read
    the row of each letter code into an action table over them, and
    check the postconditions on the quandle those tables make before
    returning it: every edge defined, each generator's inverse edges
    undoing its action (so it is a bijection, and the quandle's derived
    inverse is the graph's), every primary and universal relation
    closing, then every live label reached.  An involution's
    two codes share its one row, so the second reuses the first one's
    table, and its bijection check is the x^(a a) = x that its power a^2
    would check where it is not scanned.

    The walk is ``FiniteQuandle.tree``'s, on the forward rows, and
    canonical: a generated quandle has one isomorphism fixing each
    generator's element.  Labels it misses are numbered after it; they
    are looked for only when it reached fewer labels than the graph has
    live ones, since one label per union is merged.

    ``run_schedule`` also calls it mid-sweep, after a window that
    changed nothing: it reads the graph and changes nothing in it (bar
    ``find``'s path halving), so an audit that fails leaves the sweep
    free to go on, and one that passes ends it.

    After the last collapse the rows of representatives hold only
    representatives, so each entry is numbered directly; an entry that
    is a merged label is a broken postcondition, not something to
    remap.  ``index`` has one spare -1 past the labels, which a missing
    edge's -1 reads, so one test finds both faults and they are told
    apart only when it fails.  The forward tables then make the quandle,
    and the bijection and universal relation checks run on its own
    ``arrays``, the one numpy form of its actions: the bijection check
    compares each generator's inverse that ``arrays`` scatters, read
    back as a list, with its inverse table, equal exactly when that
    table undoes its action (a value the action misses is -1 in the
    scatter, and no table entry is).  Each letter of a conjugate
    relator is one ``take`` along an action row that moves every
    element at once, and a run a^n is a's row raised to the n-th power
    by repeated squaring, in fewer than 2 log2(n) + 2 ``take``s; the rows
    are read from one intp copy of each array, so no ``take`` casts its
    indices, and a relation closes when its permutation has the
    identity's bytes.  The quandle is returned
    with those arrays, in their own dtype, cached and no names: it
    derives them from its action tables when one is first read."""
    presentation = graph.presentation
    parent = graph.parent
    index = [-1] * (graph.created + 1)  # index[-1] is the spare -1
    live: list[int] = []
    for t in map(graph.find, range(graph.ngens)):
        if index[t] < 0:
            index[t] = len(live)
            live.append(t)
    forward = graph.rows[0::2]
    for v in live:  # the walk reads live while it grows
        for row in forward:
            t = row[v]
            if t >= 0 and index[t] < 0 and t not in parent:
                index[t] = len(live)
                live.append(t)
    reached = len(live)
    if reached < graph.live_count:
        live += [v for v in range(graph.created) if v not in parent and index[v] < 0]
        for i in range(reached, len(live)):
            index[live[i]] = i
    tables = []
    for code, row in enumerate(graph.rows):
        if code & 1 and row is graph.rows[code - 1]:
            tables.append(tables[-1])
            continue
        table = [index[row[v]] for v in live]
        if -1 in table:
            ends = [row[v] for v in live]
            if -1 in ends:
                v = live[ends.index(-1)]
                raise EnumerationInternalError(f"generator {code >> 1} undefined at vertex {v}")
            i = table.index(-1)
            raise EnumerationInternalError(
                f"generator {code >> 1} at vertex {live[i]} points at merged label {ends[i]}")
        tables.append(table)
    generator_element = tuple([index[graph.find(j)] for j in range(graph.ngens)])
    quandle = FiniteQuandle(
        size=len(live),
        generator_names=presentation.generator_names,
        action=tuple(map(tuple, tables[0::2])),
        generator_element=generator_element,
        component_of_generator=presentation.component_of,
        n_values=presentation.n_values,
        relations=presentation.relations,
    )
    act, inv = quandle.arrays
    for g, (inverse, table) in enumerate(zip(inv.tolist(), tables[1::2])):
        if inverse != table:
            raise EnumerationInternalError(
                f"generator {g} is not a bijection with its inverse edges")
    for base, codes, target in graph.relators.primary:
        x = generator_element[base]
        for c in codes:
            x = tables[c][x]
        if x != generator_element[target]:
            raise EnumerationInternalError("primary relation does not close")
    moves = [row for pair in zip(act.astype(np.intp), inv.astype(np.intp)) for row in pair]
    identity = np.arange(len(live), dtype=np.intp)
    closed = identity.tobytes()
    relators = graph.relators
    perms = []
    for codes in relators.conjugates:
        perm = identity
        for c in codes:
            perm = moves[c].take(perm)
        perms.append(perm)
    for code, n in relators.powers + relators.squares:
        # a^n by repeated squaring: about 2 log2(n) takes, never more than n
        power, perm = moves[code], identity
        while n > 1:
            if n & 1:
                perm = power.take(perm)
            power = power.take(power)
            n >>= 1
        perms.append(power.take(perm))
    for perm in perms:
        if perm.tobytes() != closed:
            raise EnumerationInternalError(
                "universal relation does not close at some vertex")
    if reached < len(live):
        raise EnumerationInternalError(f"the generators do not reach vertex {live[reached]}")
    return quandle


def enumerate_quandle(presentation: Presentation,
                      limits: EnumerationLimits | None = None) -> EnumerationOutcome:
    """Run the full procedure; Finite outcome carries the sealed quandle.

    The presentation must carry n-values.  Caps turn a diverging run
    into an Exceeded outcome reporting the vertex total at the stop.
    """
    try:
        graph = TraceGraph(presentation, limits or EnumerationLimits())
        for base, codes, target in graph.relators.primary:
            graph.scan(graph.find(base), graph.bind(codes), graph.find(target))
            graph.collapse()
        quandle = run_schedule(graph)
    except _CapExceeded as exc:
        return EnumerationOutcome(None, exc.kind, exc.stats)
    return EnumerationOutcome(quandle, None, graph.stats())
