"""Finite quandles as sealed action tables.

A sealed quandle stores, for each generator g, the permutation x -> x^g
of the element set {0, ..., size-1}, and derives its inverse on first
read.  Every element the generators reach is named by an expression
a^w derived from the tables too: a positive word along the
breadth-first generator tree, spelled when a name is first read, each
name from its tree parent's by one string append (exports and names
read them; enumeration, the size checks and verification do not).
``export_json`` writes the bytes of json.dumps(indent=2,
sort_keys=True) without running json's pure-Python encoder.  The
operation table M[x, y] = x > y is built once per quandle along that tree's forward generator edges, which
reach whole orbits since a permutation's inverse is one of its
powers: the column of a generator element is that generator's action,
and each other column y^g is the conjugate A[g] R_y A'[g] of a column
y built before it, by self-distributivity,

    M[:, y^g] = A[g][M[A'[g], y]],

with A[g] the action of g and A'[g] its inverse.  The table is one
read-only array, int16 while the size is below 2^15 and int32 above,
so a quandle of n elements holds 2n^2 bytes of it.  No inverse table
is kept: x >' y inverts column y, in O(n), where it is needed.  The
full operation reads that table.  Isomorphism testing builds neither
quandle's: it builds the second quandle's columns its search reads,
one at a time by the same rule.  Axiom verification needs only the generators: once
each action is a bijection and each R_a of a generator a is an
automorphism of M, the rule above carries that to every column.  So
do the power relations and the cycle types that prune isomorphism
searches, since every column is conjugate to a generator's action.
R_a is an automorphism exactly when the rule holds on every a-edge
y -> y^a.  The build made it hold on each tree edge, and on a cycle of
A[a] whose length is the order of A[a] it holds on the last edge once
it holds on the others, so verification compares only the remaining
edges: under a quarter of them on Mk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .presentations import PrimaryRelation
from .words import word_str

# table entries compared at a time when verify_axioms proves a
# generator's action an automorphism of the table
_BAND = 1 << 16


@dataclass(frozen=True)
class Expression:
    """Normal form a^w of an element: a base generator index and a
    reduced word of (generator, sign) pairs, sign 1 or -1."""

    base: int
    word: tuple[tuple[int, int], ...]


# roots (generator, element) and child -> (parent, generator)
_Tree = tuple[list[tuple[int, int]], dict[int, tuple[int, int]]]


def expression_str(expr: Expression, names: Sequence[str]) -> str:
    """Render a^w, a bare base when the word is empty: x' marks an
    inverse, and the letters run together when every name is one
    character."""
    if not expr.word:
        return names[expr.base]
    sep = "" if all(len(name) == 1 for name in names) else " "
    return names[expr.base] + "^" + sep.join([names[g] + "'" * (s < 0) for g, s in expr.word])


@dataclass(frozen=True)
class FiniteQuandle:
    """Immutable finite quandle with generator action tables.

    action[g][x] is x^g; ``arrays`` (the actions and their inverses as
    numpy arrays) and inverse_action[g][x] = x^(g') are derived from it
    once.  Elements are 0-based; generator_element maps a generator
    index to the element representing it.  ``tree``, the names and
    witnesses[x], the word a^w of element x's name, are derived from
    those two fields.
    relations carries the defining primary relations when the quandle
    came out of an enumeration (used to prune isomorphism searches);
    hand-built tables may leave it empty.
    """

    size: int
    generator_names: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]
    generator_element: tuple[int, ...]
    component_of_generator: tuple[int, ...]
    n_values: tuple[int, ...]
    relations: tuple[PrimaryRelation, ...] = ()

    def __post_init__(self):
        """Refuse, naming field and generator, an entry that does not fit."""
        g, n = len(self.generator_names), self.size
        for attr in ("action", "generator_element", "component_of_generator"):
            if len(getattr(self, attr)) != g:
                raise ValueError(f"{attr} has {len(getattr(self, attr))} entries for {g} generators")
        for name, row, e, c in zip(self.generator_names, self.action, self.generator_element,
                                   self.component_of_generator):
            if len(row) != n or row and not 0 <= min(row) <= max(row) < n:
                raise ValueError(f"action of generator {name} is not {n} entries in 0..{n - 1}")
            if not 0 <= e < n:
                raise ValueError(f"generator_element of generator {name} is outside 0..{n - 1}")
            if not 0 < c <= len(self.n_values):
                raise ValueError(f"component_of_generator of generator {name} has no n-value")

    def element_name(self, x: int) -> str:
        return self.element_names[x]

    @cached_property
    def element_names(self) -> tuple[str, ...]:
        """Each element's witness as ``expression_str`` spells it,
        rendered on first read in one pass over ``tree``: a root is its
        generator's name, and the edge y --g--> z names z by y's name,
        a join and g's name, the join "^" after a root and the letter
        separator deeper.  A ValueError names the first element no
        generator reaches."""
        gens = self.generator_names
        sep = "" if all(len(name) == 1 for name in gens) else " "
        after_root = ["^" + name for name in gens]
        deeper = [sep + name for name in gens]
        roots, via = self.tree
        names: list = [None] * self.size
        for g, e in roots:
            names[e] = gens[g]
        top = {e for _, e in roots}
        for z, (y, g) in via.items():
            names[z] = names[y] + (after_root if y in top else deeper)[g]
        if None in names:
            raise ValueError(f"element {names.index(None)} is not reached from the generators")
        return tuple(names)

    @cached_property
    def witnesses(self) -> tuple[Expression | None, ...]:
        """The names' words a^w along the breadth-first generator
        tree, spelled on first read: a root is named by its generator, and the tree edge
        y --g--> z names z by y's word and the letter g, so every word
        is positive, as long as its element's depth, and made of one
        letter object per generator.  None for an element no generator
        reaches."""
        roots, via = self.tree
        letters = [(g, 1) for g in range(len(self.action))]
        words: list = [None] * self.size
        for g, e in roots:
            words[e] = Expression(g, ())
        for z, (y, g) in via.items():
            words[z] = Expression(words[y].base, words[y].word + (letters[g],))
        return tuple(words)

    @cached_property
    def tree(self) -> _Tree:
        """Breadth-first spanning forest over the generators' action
        edges, walked on first use: the roots (generator, element), one
        per distinct generator element in generator order, and a map
        child -> (parent, generator), child = parent^generator, in
        discovery order.  Each element the generators reach is one of
        them."""
        seen = [False] * self.size
        roots = []
        for g, e in enumerate(self.generator_element):
            if not seen[e]:
                seen[e] = True
                roots.append((g, e))
        via = {}
        queue = [e for _, e in roots]
        for y in queue:
            for g, act in enumerate(self.action):
                z = act[y]
                if not seen[z]:
                    seen[z] = True
                    via[z] = (y, g)
                    queue.append(z)
        return roots, via

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The generator actions A[g] as one read-only array in the
        table's dtype, and their inverses A'[g], derived on first read
        by one O(size) scatter, A'[g][A[g][x]] = x; a value that an
        action misses stays -1.  This is the one numpy form of the
        actions: the enumerator's seal audits these arrays before it
        returns the quandle, so they arrive already built.  The seal
        compares the inverses, read back as lists, with its inverse
        tables, and gathers its relators along intp copies of both, so
        these stay as they are.  ``verify_axioms`` reads each action's
        bijectivity off the -1s of the same scatter."""
        act = np.asarray(self.action, dtype=_table_dtype(self.size))
        # both sides named: with no elements, -1 has nothing to infer from
        act = act.reshape(len(self.action), self.size)
        inv = np.full_like(act, -1)
        inv[np.arange(len(act))[:, None], act] = np.arange(self.size, dtype=act.dtype)
        act.flags.writeable = inv.flags.writeable = False
        return act, inv

    @cached_property
    def inverse_action(self) -> tuple[tuple[int, ...], ...]:
        """x^(g') per generator g: ``arrays``' inverses as tuples."""
        return tuple(map(tuple, self.arrays[1].tolist()))

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only table M[x, y] = x > y, built on first use; see
        ``dense_tables``."""
        return _build_table(self)

    @cached_property
    def partition(self) -> OrbitPartition:
        """Orbits under the generator actions, found on first use; see
        ``orbits``."""
        return _orbit_partition(self)


@dataclass
class VerificationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _table_dtype(size: int) -> type[np.signedinteger]:
    """int16 while every element and the -1 of an unbuilt column fit."""
    return np.int16 if size < 1 << 15 else np.int32


def _build_table(q: FiniteQuandle) -> np.ndarray:
    n = q.size
    act, inv = q.arrays
    # cols[y] is column y of M, so each step writes one contiguous row;
    # every reached column is written in full, so only the others are
    # filled with -1
    try:
        cols = np.empty((n, n), dtype=act.dtype)
    except MemoryError:
        raise MemoryError(f"the operation table of {n} elements needs {n * n * act.itemsize} "
                          "bytes, more than could be allocated") from None
    roots, via = q.tree
    if len(roots) + len(via) < n:
        unreached = np.ones(n, dtype=bool)
        unreached[[e for _, e in roots] + list(via)] = False
        cols[unreached] = -1
    for g, e in roots:
        cols[e] = act[g]
    for z, (y, g) in via.items():
        # x > z = ((x >' g) > y) > g, gathered over x
        cols[z] = act[g].take(cols[y].take(inv[g]))
    table = cols.T
    table.flags.writeable = False
    return table


def _column_builder(q: FiniteQuandle) -> Callable[[int], np.ndarray]:
    """column(e) = x > e for every x, built without the table: from the
    nearest built column up e's path in the generator tree, one gather
    per tree edge as in ``_build_table``.  Every column built is kept,
    so each is built at most once and all of them together hold no more
    than the table.  Only an element the generators reach has one."""
    act, inv = q.arrays
    roots, via = q.tree
    built = {e: act[g] for g, e in roots}

    def column(e: int) -> np.ndarray:
        # iterative: a tree can be thousands of edges deep
        path = []
        while e not in built:
            y, g = via[e]
            path.append((e, g))
            e = y
        col = built[e]
        for z, g in reversed(path):
            col = built[z] = act[g].take(col.take(inv[g]))
        return col

    return column


def _inverse_column(col: np.ndarray) -> np.ndarray:
    """x >' y for every x from col = x > y for every x: inverted in
    O(size).  All -1 for a column no generator reaches; a column that is
    not a permutation leaves -1 at the values it misses."""
    inverse = np.full(len(col), -1, dtype=col.dtype)
    if col[0] >= 0:
        inverse[col] = np.arange(len(col), dtype=col.dtype)
    return inverse


def full_op(q: FiniteQuandle, x: int, y: int, sign: int = 1) -> int:
    """x > y read from the operation table, or x >' y when sign = -1,
    which inverts column y, in O(size) per call."""
    if sign > 0:
        return int(q.table[x, y])
    return int(_inverse_column(q.table[:, y])[x])


def dense_tables(q: FiniteQuandle) -> np.ndarray:
    """The operation table M[x, y] = x > y, one read-only array cached
    on the quandle: int16 while size < 2^15, int32 from there on.

    Built in O(size^2) along the generator spanning forest.  Columns of
    elements no generator reaches hold -1.  There is no inverse table;
    ``full_op(q, x, y, -1)`` inverts column y in O(size).
    ``verify_axioms`` proves the table is that of a quandle.
    """
    return q.table


def _open_edges(q: FiniteQuandle) -> list[np.ndarray]:
    """Per generator g, in increasing order, the sources y of the edges
    y --g--> y^g whose column rule R_(y^g) = A[g] R_y A'[g] the table
    does not already satisfy, by ``verify_axioms``' argument: every
    edge but the tree's, less one edge of each cycle of A[g] whose
    length is the order of A[g].  That order is the longest cycle's
    length exactly when every other length divides it.  The actions
    must be bijections."""
    act = q.arrays[0]
    gens, n = act.shape
    _, via = q.tree
    opened = np.ones((gens, n), dtype=bool)
    # via[z] = (y, g): the g-edge from y is the tree edge into z
    opened[np.fromiter(map(itemgetter(1), via.values()), np.intp, len(via)),
           np.fromiter(map(itemgetter(0), via.values()), np.intp, len(via))] = False
    # the cycles of every action as those of one permutation of gens * n
    # points, labelled by pointer jumping: after r rounds low[p] is the
    # least of the 2^r points from p on, and once a round changes no
    # label, every label is its cycle's least point
    step = (act + n * np.arange(gens)[:, None]).ravel()
    low = np.arange(gens * n)
    while True:
        least = np.minimum(low, low.take(step))
        if np.array_equal(least, low):
            break
        low, step = least, step.take(step)
    length = np.bincount(low).take(low).reshape(gens, n)
    # initial: no maximum to take over an empty quandle's rows
    longest = length.max(axis=1, keepdims=True, initial=1)
    full = (length == longest) & ~(longest % length).any(axis=1, keepdims=True)
    # one candidate per cycle survives the scatter, whichever it is
    dropped = np.full(gens * n, -1)
    candidates = np.flatnonzero(opened & full)
    dropped[low.take(candidates)] = candidates
    opened.flat[dropped[dropped >= 0]] = False
    return [np.flatnonzero(row) for row in opened]


def _first_non_automorphism(cols: np.ndarray, a: np.ndarray,
                            sources: np.ndarray) -> tuple[int, int, int, int] | None:
    """First (x, y, (x>y)^a, (x^a)>(y^a)) with y in sources where the
    permutation a fails to be an automorphism of the table whose column
    y is cols[y], or None.  Compares _BAND table entries at a time, a
    band of whole columns, so no temporary grows with size^2."""
    n = len(a)
    rows = max(1, _BAND // n)
    for start in range(0, len(sources), rows):
        ys = sources[start:start + rows]
        lhs = a.take(cols.take(ys, axis=0))                 # (x>y)>z
        rhs = cols.take(a.take(ys), axis=0).take(a, axis=1)  # (x>z)>(y>z)
        if not np.array_equal(lhs, rhs):
            i, x = map(int, np.argwhere(lhs != rhs)[0])
            return x, int(ys[i]), int(lhs[i, x]), int(rhs[i, x])
    return None


def verify_axioms(q: FiniteQuandle) -> VerificationReport:
    """Prove the three quandle axioms for the operation table.

    Checked, with the first violated instance of each reported: each
    generator's action is a bijection, read off the -1s that the inverse
    scatter of ``arrays`` leaves at the values it misses (the arrays the
    enumerator's seal audited); idempotence; the generators reach every
    element; each generator element's column is its generator's action;
    and for each generator a, R_a is an automorphism of the table,
    (x>y)>a = (x>a)>(y>a).  Every other column is A[g] R_y A'[g] for a
    column R_y built before it, so by induction every column is a
    bijective automorphism: right invertibility and self-distributivity
    for all size^3 triples, in O(generators * size^2).  A failed
    bijection or generation check ends the proof, since every later
    check relies on it.

    R_a is an automorphism exactly when the column rule
    R_(y^a) = A[a] R_y A'[a] holds on every a-edge y -> y^a: that rule
    is the identity above for every x at one y.  Only the edges
    ``_open_edges`` leaves are compared.  The table builder made the rule
    hold on every tree edge.  On a cycle y_0 -> ... -> y_m = y_0 of
    A[a] whose length m is the order of A[a], the rule on all edges but
    y_(j-1) -> y_j walks R_(y_j) round to R_(y_(j-1)) =
    A[a]^(m-1) R_(y_j) A'[a]^(m-1), so A[a] R_(y_(j-1)) A'[a] =
    A[a]^m R_(y_j) A'[a]^m = R_(y_j): the rule holds on that last edge
    too.  So when no open edge of a generator fails, none of its edges
    does, and the first generator whose action is no automorphism is
    the one reported, with a triple that violates the identity.  The
    comparison runs over a band of columns at a time, so its memory
    stays bounded beside the table's.
    The quandle with no elements passes every check vacuously.  No
    element name is read: each is spelled along the generator tree
    from the same actions, so it names its element by construction.
    """
    idx = np.arange(q.size)
    act, inv = q.arrays
    for g, name in enumerate(q.generator_names):
        if (inv[g] < 0).any():
            return VerificationReport(
                False, [f"bijection: the action of {name} misses element {int(inv[g].argmin())}"])

    fwd = dense_tables(q)
    failures: list[str] = []
    # row 0's entries, none at all when there is no element
    reached = (fwd[:1] >= 0).all(axis=0)

    diag = fwd[idx, idx]
    bad = reached & (diag != idx)
    if bad.any():
        x = int(np.argmax(bad))
        failures.append(f"idempotence: {x} > {x} = {int(diag[x])}")

    if not reached.all():
        x = int(np.argmin(reached))
        failures.append(f"generation: element {x} is not reached from the generators")
        return VerificationReport(False, failures)

    for g, e in enumerate(q.generator_element):
        if not np.array_equal(fwd[:, e], act[g]):
            failures.append(
                f"generator column: x > {e} differs from the action of "
                f"{q.generator_names[g]}")
            break

    cols = fwd.T
    for g, (z, sources) in enumerate(zip(q.generator_element, _open_edges(q))):
        found = _first_non_automorphism(cols, act[g], sources)
        if found is not None:
            x, y, lhs, rhs = found
            failures.append(
                f"self-distributivity: ({x}>{y})>{z} = {lhs} but "
                f"({x}>{z})>({y}>{z}) = {rhs}"
            )
            break

    return VerificationReport(not failures, failures)


@dataclass(frozen=True)
class OrbitPartition:
    orbit_of: tuple[int, ...]
    orbit_count: int

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.orbit_count
        for o in self.orbit_of:
            counts[o] += 1
        return tuple(counts)

    def members(self, orbit: int) -> tuple[int, ...]:
        return tuple(x for x, o in enumerate(self.orbit_of) if o == orbit)


def orbits(q: FiniteQuandle) -> OrbitPartition:
    """Orbits of the generator actions, along forward edges only (the
    actions are permutations, which ``verify_axioms`` checks).

    Orbits are numbered by their smallest element, in order.  Found
    once per quandle and cached on it, so every caller shares one
    partition.
    """
    return q.partition


def _orbit_partition(q: FiniteQuandle) -> OrbitPartition:
    # the rows are looked up once: reached through the cached property,
    # q has a materialised __dict__, and each q.action in the loop costs more
    moves = q.action
    orbit_of = [-1] * q.size
    count = 0
    for start in range(q.size):
        if orbit_of[start] != -1:
            continue
        stack = [start]
        orbit_of[start] = count
        while stack:
            x = stack.pop()
            for act in moves:
                y = act[x]
                if orbit_of[y] == -1:
                    orbit_of[y] = count
                    stack.append(y)
        count += 1
    return OrbitPartition(tuple(orbit_of), count)


def verify_n_relations(q: FiniteQuandle) -> VerificationReport:
    """Check x^(y^n) = x where n belongs to y's orbit.

    Each orbit inherits n from the link component of any generator it
    contains; an orbit containing no generator is itself reported as a
    structural anomaly.

    Only the generators' actions are raised to their n.  Each column of
    the table is a generator's action A[g] or a conjugate A[g] R_y A'[g]
    (maps composed right to left) of a column R_y built before it in
    the same orbit, and the n-th power of that conjugate is the identity
    exactly when R_y^n is; so by induction every column has the order
    of its root generator's action, and A[g]^n = id for each generator
    g is the whole check, in O(generators * size * max n) rather than
    O(size^2 * max n).  The argument relies on bijective actions, on
    the generators reaching every element (which the orbit check above
    implies) and on each generator element's column being its
    generator's action; ``verify_axioms`` checks the first and the
    last, and ``verify_all`` runs it.
    """
    part = orbits(q)
    failures: list[str] = []
    orbit_n: dict[int, int] = {}
    for gen, el in enumerate(q.generator_element):
        n = q.n_values[q.component_of_generator[gen] - 1]
        orbit = part.orbit_of[el]
        prior = orbit_n.setdefault(orbit, n)
        if prior != n:
            failures.append(
                f"orbit {orbit} holds generators with different n ({prior}, {n})"
            )
    for orbit in range(part.orbit_count):
        if orbit not in orbit_n:
            failures.append(f"orbit {orbit} contains no generator")
    if failures:
        return VerificationReport(False, failures)

    act = q.arrays[0]
    idx = np.arange(q.size)
    for g, y in enumerate(q.generator_element):
        n = orbit_n[part.orbit_of[y]]
        power = idx
        for _ in range(n):
            power = act[g][power]
        bad = power != idx
        if bad.any():
            x = int(np.argmax(bad))
            failures.append(
                f"power relation: {x} acted on {n} times by {y} gives {int(power[x])}")
            break
    return VerificationReport(not failures, failures)


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _orbit_kinds(q: FiniteQuandle) -> list[tuple[int, tuple[int, ...]]]:
    """(size, cycle type of the point symmetries) per orbit.

    A generator element's point symmetry is its generator's action
    (``verify_axioms`` checks each generator column), and point
    symmetries in one orbit are conjugate, R_(y^g) = g' R_y g, so the
    action of any generator in an orbit gives the cycle type of all its
    members.  No table is read.
    """
    part = orbits(q)
    types = {part.orbit_of[e]: _cycle_type(act)
             for act, e in zip(q.action, q.generator_element)}
    return [(size, types.get(o, ())) for o, size in enumerate(part.sizes())]


# column(e, bit): x > e for every x when bit = 0, x >' e when 1
_Columns = Callable[[int, int], np.ndarray]


def _extends(q1: FiniteQuandle, column: _Columns, images: Sequence[int]) -> bool:
    """Extend generator images to all of q1 along its generator tree,
    phi(y^g) = phi(y) > phi(g) in the target's table; True when the
    result is a bijective homomorphism on every generator action."""
    roots, via = q1.tree
    phi = np.full(q1.size, -1, dtype=np.int64)
    for g, e in roots:
        phi[e] = images[g]
    for z, (y, g) in via.items():
        phi[z] = column(images[g], 0)[phi[y]]
    if (phi < 0).any() or len(np.unique(phi)) != q1.size:
        return False
    act1 = q1.arrays[0]
    return all(np.array_equal(phi[act1[g]], column(images[g], 0)[phi])
               for g in range(len(q1.generator_names)))


def _relation_holds(column: _Columns, rel: PrimaryRelation,
                    images: Sequence[int | None]) -> bool:
    val = images[rel.base]
    for c in rel.word:
        val = column(images[c >> 1], c & 1)[val]  # type: ignore[arg-type]
    return val == images[rel.target]


def is_isomorphic(q1: FiniteQuandle, q2: FiniteQuandle) -> bool:
    """Backtracking search for an isomorphism q1 -> q2.

    Generator images determine the whole map, so the search branches
    only over images of q1's generators, pruned by orbit size and point
    symmetry cycle type (both read from generator actions) and, when q1
    carries its defining relations, by checking each relation as soon as
    all its generators are assigned.  Generators are assigned in order
    of their number of candidate images, fewest first, ties by index.
    Neither table is built: the columns of q2 the search reads are built
    one at a time along q2's generator tree, and each is kept.
    """
    if q1.size != q2.size:
        return False
    kinds1, kinds2 = _orbit_kinds(q1), _orbit_kinds(q2)
    if sorted(kinds1) != sorted(kinds2):
        return False

    gens = list(range(len(q1.generator_names)))
    orbit_of1 = orbits(q1).orbit_of
    orbit_of2 = np.asarray(orbits(q2).orbit_of)
    candidates = {}
    for g in gens:
        kind = kinds1[orbit_of1[q1.generator_element[g]]]
        alike = [o for o, other in enumerate(kinds2) if other == kind]
        candidates[g] = np.flatnonzero(np.isin(orbit_of2, alike)).tolist()

    # each relation is checked at the depth that assigns the last
    # generator it names
    order = sorted(gens, key=lambda g: len(candidates[g]))
    depth_of = {g: d for d, g in enumerate(order)}
    checks_at: list[list[PrimaryRelation]] = [[] for _ in gens]
    for r in q1.relations:
        named = {r.base, r.target} | {c >> 1 for c in r.word}
        checks_at[max(depth_of[g] for g in named)].append(r)

    images: list[int | None] = [None] * len(gens)
    column2 = _column_builder(q2)

    @cache
    def column(e: int, bit: int) -> np.ndarray:
        # each candidate image's column is inverted once per search
        return _inverse_column(column2(e)) if bit else column2(e)

    def dfs(depth: int) -> bool:
        if depth == len(order):
            return _extends(q1, column, images)  # type: ignore[arg-type]
        g = order[depth]
        for e in candidates[g]:
            images[g] = e
            if all(_relation_holds(column, r, images) for r in checks_at[depth]):
                if dfs(depth + 1):
                    return True
        return False

    # dfs reaches itself through its closure cell; breaking that cycle
    # frees q1 and the columns built of q2 as soon as the search
    # returns, instead of at the next full garbage collection.
    try:
        return dfs(0)
    finally:
        del dfs


_EDGE_STYLES = ("solid", "dashed", "dotted", "bold")


def export_dot(q: FiniteQuandle) -> str:
    """Cayley-style graph in DOT form, deterministic byte for byte.

    One node per element labeled by its witness; per generator one
    styled edge per action pair, drawn without direction whenever the
    action and its inverse agree there (loops always, and any pair the
    generator swaps)."""
    lines = ["digraph quandle {", "  node [shape=ellipse];"]
    lines += [f'  v{x} [label="{name}"];' for x, name in enumerate(q.element_names)]
    for g, row in enumerate(q.action):
        style = _EDGE_STYLES[g % len(_EDGE_STYLES)]
        undirected = f" [style={style}, dir=none];"
        directed = f" [style={style}];"
        for x, y in enumerate(row):
            if row[y] != x:
                lines.append(f"  v{x} -> v{y}{directed}")
            elif x <= y:
                lines.append(f"  v{x} -> v{y}{undirected}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: Iterable[str], pad: str = "  ") -> str:
    """A JSON array of encoded items laid out as json.dumps(indent=2)
    lays it out on a line indented by pad."""
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    return f"[\n{inner}{body}\n{pad}]" if body else "[]"


def export_json(q: FiniteQuandle) -> str:
    """Adjacency export: element names plus per-generator action arrays,
    the bytes of json.dumps(payload, indent=2, sort_keys=True) and a
    newline.  That call runs the pure-Python encoder, since indent turns
    the C one off, so the text is joined here instead: ints written by
    str and strings by json's C escaper."""
    string = encode_basestring_ascii

    def ints(values: Iterable[int], pad: str = "  ") -> str:
        return _json_array(map(str, values), pad)

    def rows(table: Iterable[Iterable[int]]) -> str:
        return _json_array([ints(row, "    ") for row in table])

    fields = {
        "size": str(q.size),
        "generators": _json_array(map(string, q.generator_names)),
        "generator_element": ints(q.generator_element),
        "component_of_generator": ints(q.component_of_generator),
        "n_values": ints(q.n_values),
        "elements": _json_array(map(string, q.element_names)),
        "action": rows(q.action),
        "inverse_action": rows(q.inverse_action),
    }
    body = ",\n".join(f"  {string(key)}: {value}" for key, value in sorted(fields.items()))
    return "{\n" + body + "\n}\n"


def verify_all(q: FiniteQuandle) -> VerificationReport:
    """Axioms, power relations, orbit/component correspondence, and each
    primary relation base^w = target walked from base's element to
    target's, so that the presented N-quandle maps onto q."""
    report = verify_axioms(q)
    failures = list(report.failures)
    n_report = verify_n_relations(q)
    failures.extend(n_report.failures)
    part = orbits(q)
    comps = len(set(q.component_of_generator))
    if part.orbit_count != comps:
        failures.append(
            f"orbit count {part.orbit_count} != link component count {comps}"
        )
    moves = (q.action, q.inverse_action)
    names, elements = q.generator_names, q.generator_element
    for rel in q.relations:
        x = elements[rel.base]
        for c in rel.word:
            x = moves[c & 1][c >> 1][x]
        if x != elements[rel.target]:
            spelled = f"{names[rel.base]}^[{word_str(rel.word, names)}]={names[rel.target]}"
            failures.append(f"relation: {spelled} ends at {x}, not {elements[rel.target]}")
            break
    return VerificationReport(not failures, failures)
