"""Presentations of link quandles and their N-quandle quotients.

A presentation lists generators, a link-component index for each
generator, primary relations of the shape base^word = target, and
optionally an N tuple: one integer per link component.  The N tuple
imposes x^(g^n_i) = x for every element x and every generator g on
component i; quotienting a link quandle by those relations gives its
N-quandle.

Three kinds of input produce presentations: a small text format (see
``parse_presentation``), link diagrams given as crossing lists, with one
generator per arc (see ``wirtinger``), and closed braid words, with one
generator per strand (see ``braid_presentation``).  Both
``closed_braid_diagram`` and ``braid_presentation`` read the one walk
of a braid word in ``_braid_arcs``, which fixes the crossing
convention.  ``builtin_family`` builds the named links of ``FAMILIES``:
torus links T(p, q), with or without their braid axis, spelled by
``torus_braid``, and the twist knots plus axis, Mk.

Text format, one statement per line (';' also separates statements,
'#' starts a comment):

    gens a b c
    comp a:1 b:1 c:2
    N 2 3
    rel a^[b a b]=a

``gens`` declares generators in order.  ``comp`` assigns 1-based link
component indices (generators default to component 1 when no comp
statement appears).  ``N`` gives one integer per component.  ``rel``
traces word letters left to right; a trailing apostrophe marks the
inverse letter, e.g. ``c'``.

Refused input raises ``PresentationError``, or its subclass
``ParseError`` (text, at a line and column) or ``DiagramError``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from math import gcd
from typing import Mapping, Sequence

from .words import Word, concat, extend, invert, reduce, word_str


class PresentationError(ValueError):
    """Input the package refuses; the root of every other refusal."""


class ParseError(PresentationError):
    """Syntax error in presentation text, with position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class DiagramError(PresentationError):
    """Inconsistent crossing data in a diagram."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class PrimaryRelation:
    """base^word = target: generator indices base and target, and word
    a reduced tuple of letter codes (see ``words``)."""

    base: int
    word: Word
    target: int


@dataclass(frozen=True)
class UniversalRelation:
    """y^word = y imposed at every element y; word reduced, nonempty,
    spelled as (generator, sign) pairs with sign 1 or -1."""

    word: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple[str, ...]
    component_of: tuple[int, ...]
    n_values: tuple[int, ...] | None
    relations: tuple[PrimaryRelation, ...]

    def __post_init__(self):
        names = self.generator_names
        if not names:
            raise PresentationError("a presentation needs at least one generator")
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise PresentationError(f"bad generator name {name!r}")
        if len(self.component_of) != len(names):
            raise PresentationError("component_of must assign every generator")
        comps = set(self.component_of)
        m = max(comps)
        if m > len(names) or comps != set(range(1, m + 1)):
            missing = sorted(set(range(1, min(m, len(names)) + 1)) - comps)
            raise PresentationError(f"components {missing} have no generator")
        if self.n_values is not None:
            if len(self.n_values) != m:
                raise PresentationError(
                    f"expected {m} n-values, got {len(self.n_values)}"
                )
            if any(n < 1 for n in self.n_values):
                raise PresentationError("n-values must be positive")
        g = len(names)
        for rel in self.relations:
            if not (0 <= rel.base < g and 0 <= rel.target < g):
                raise PresentationError("relation references unknown generator")
            # a bool is an int to Python, but not a letter
            if not all(type(c) is int and 0 <= c < 2 * g for c in rel.word):
                raise PresentationError("bad letter in relation word")
            if reduce(rel.word) != rel.word:
                raise PresentationError("relation word is not reduced")

    def n_of_generator(self, gen: int) -> int:
        if self.n_values is None:
            raise PresentationError("presentation has no n-values")
        return self.n_values[self.component_of[gen] - 1]


def augment_n(p: Presentation, n_values: Sequence[int]) -> Presentation:
    """Attach (or replace) the N tuple; length must match components."""
    return replace(p, n_values=tuple([int(n) for n in n_values]))


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse space-separated letters like ``b a b'`` against a name list
    into a reduced word of letter codes."""
    letters: list[int] = []
    index = {name: i for i, name in enumerate(names)}
    for token in text.split():
        name = token.removesuffix("'")
        if name not in index:
            raise PresentationError(f"unknown generator {name!r} in word")
        letters.append(2 * index[name] + (name != token))
    return reduce(letters)


_REL_RE = re.compile(r"^(\w+)\s*\^\s*\[([^\]]*)\]\s*=\s*(\w+)$")
# ASCII digits only (isdigit() also takes '²'), no more of them than
# int() reads under the lowest digit limit an interpreter may set
_NUMBER_RE = re.compile(r"[0-9]{1,640}")


def parse_presentation(text: str) -> Presentation:
    """Parse the text format described in the module docstring."""
    gens: list[str] = []
    comp: dict[str, int] = {}
    comp_pos: dict[str, tuple[int, int]] = {}
    n_values: tuple[int, ...] | None = None
    n_pos = (1, 1)
    raw_rels: list[tuple[str, str, str, int, int]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        offset = 0
        for part in line.split(";"):
            stmt = part.strip()
            col = offset + len(part) - len(part.lstrip()) + 1
            offset += len(part) + 1
            if not stmt:
                continue
            keyword, _, rest = stmt.partition(" ")
            rest = rest.strip()
            if keyword == "gens":
                tokens = rest.split()
                if not tokens:
                    raise ParseError("gens needs at least one name", line_no, col)
                for token in tokens:
                    if not _NAME_RE.fullmatch(token):
                        raise ParseError(f"bad generator name {token!r}", line_no, col)
                    if token in gens:
                        raise ParseError(f"duplicate generator {token!r}", line_no, col)
                    gens.append(token)
            elif keyword == "comp":
                end = col - 1 + len(keyword)
                for token in rest.split():
                    token_col = raw_line.index(token, end) + 1
                    end = token_col - 1 + len(token)
                    name, sep, num = token.partition(":")
                    if not sep or not _NUMBER_RE.fullmatch(num):
                        raise ParseError(f"expected name:index, got {token!r}",
                                         line_no, token_col)
                    if int(num) < 1:
                        raise ParseError(f"component index must be positive, got {token!r}",
                                         line_no, token_col)
                    comp[name] = int(num)
                    comp_pos[name] = (line_no, token_col)
            elif keyword == "N":
                if n_values is not None:
                    raise ParseError("duplicate N statement", line_no, col)
                tokens = rest.split()
                if not tokens or not all(_NUMBER_RE.fullmatch(t) for t in tokens):
                    raise ParseError("N needs positive integers", line_no, col)
                n_values = tuple([int(t) for t in tokens])
                n_pos = (line_no, col)
                if 0 in n_values:
                    raise ParseError("n-values must be positive", line_no, col)
            elif keyword == "rel":
                match = _REL_RE.match(rest)
                if not match:
                    raise ParseError("expected rel name^[letters]=name", line_no, col)
                raw_rels.append((*match.group(1, 2, 3), line_no, col))
            else:
                raise ParseError(f"unknown statement {keyword!r}", line_no, col)

    if not gens:
        raise ParseError("no gens statement", 1)
    for name in comp:
        if name not in gens:
            line_no, col = comp_pos[name]
            raise ParseError(f"comp references unknown generator {name!r}", line_no, col)
    component_of = tuple([comp.get(name, 1) for name in gens])
    # the checks Presentation would make, reported where the fault lies:
    # the first comp token past a gap in the numbering, the N statement;
    # g generators with a gap in their numbering leave one at or below g
    m = max(component_of)
    missing = sorted(set(range(1, min(m, len(gens)) + 1)) - set(component_of))
    if missing:
        line_no, col = min(comp_pos[name] for name, c in comp.items() if c > missing[0])
        raise ParseError(f"components {missing} have no generator", line_no, col)
    if n_values is not None and len(n_values) != m:
        raise ParseError(f"expected {m} n-values, got {len(n_values)}", *n_pos)

    index = {name: i for i, name in enumerate(gens)}
    relations = []
    for base, word_text, target, line_no, col in raw_rels:
        for name in (base, target):
            if name not in index:
                raise ParseError(f"rel references unknown generator {name!r}",
                                 line_no, col)
        try:
            word = parse_word(word_text, gens)
        except PresentationError as exc:
            raise ParseError(str(exc), line_no, col) from None
        relations.append(PrimaryRelation(index[base], word, index[target]))

    return Presentation(tuple(gens), component_of, n_values, tuple(relations))


def print_presentation(p: Presentation) -> str:
    """Deterministic text form; parse(print(p)) == p."""
    names = p.generator_names
    lines = ["gens " + " ".join(names)]
    lines.append("comp " + " ".join(f"{n}:{c}" for n, c in zip(names, p.component_of)))
    if p.n_values is not None:
        lines.append("N " + " ".join(str(n) for n in p.n_values))
    for rel in p.relations:
        lines.append(f"rel {names[rel.base]}^[{word_str(rel.word, names)}]={names[rel.target]}")
    return "\n".join(lines) + "\n"


def secondary_relations(p: Presentation) -> list[UniversalRelation]:
    """Universal relations y^w = y implied by the presentation.

    First the N relations, one per generator g on component i:
    w = g^(n_i); short words that collapse early.  Then the
    ``conjugate_relations``, in relation order.  The enumerator scans
    another order and form: ``compile_relators`` keeps each power as the
    run (code, n), folds away the n = 2 powers and puts a free
    involution's a a last.  The words are spelled in letter codes and
    decoded into (generator, sign) pairs here.
    """
    words = [(2 * gen,) * p.n_of_generator(gen) for gen in range(len(p.generator_names))]
    return [UniversalRelation(tuple([(c >> 1, -1 if c & 1 else 1) for c in word]))
            for word in words + conjugate_relations(p)]


def conjugate_relations(p: Presentation) -> list[Word]:
    """One universal relation word per primary base^w = target: the
    conjugate w' base w target', which says every element is fixed by
    that consequence of the primary."""
    return [concat(invert(rel.word), (2 * rel.base,), rel.word, (2 * rel.target + 1,))
            for rel in p.relations]


# --- diagrams -------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    over: str
    under_in: str
    under_out: str
    sign: int


@dataclass(frozen=True)
class Diagram:
    """Crossing list plus arc -> 1-based link-component map.

    Arc names follow the component map's insertion order everywhere the
    order matters (generator numbering, printing).
    """

    crossings: tuple[Crossing, ...]
    arc_component: Mapping[str, int]


_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object from its pairs, refusing a key given twice."""
    obj: dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise DiagramError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _check_crossings(d: Diagram, where: Sequence[str]) -> None:
    """Refuse the first crossing, named where[i], that has an arc not in
    the component map, a repeated outgoing under-arc or under-arcs on
    two components."""
    seen_out: set[str] = set()
    for at, c in zip(where, d.crossings):
        for arc in (c.over, c.under_in, c.under_out):
            if arc not in d.arc_component:
                raise DiagramError(f"{at}: arc {arc!r} not in arc_components")
        if c.under_out in seen_out:
            raise DiagramError(
                f"{at}: arc {c.under_out!r} is the outgoing under-arc of two crossings")
        seen_out.add(c.under_out)
        if d.arc_component[c.under_in] != d.arc_component[c.under_out]:
            raise DiagramError(f"{at}: under-arcs {c.under_in!r} and {c.under_out!r} "
                               "lie on different components")


def parse_diagram(text: str) -> Diagram:
    """Read the JSON-lines diagram format.

    One JSON object per non-blank line, no key repeated.  Exactly one
    line carries {"arc_components": {...}}, whose arcs are named like
    generators and whose components are JSON integers numbered 1..m
    with no gap; every other line is a crossing with string arc names
    over, under_in, under_out and a sign ("+", "-", 1 or -1).  Each
    refusal names the line at fault.
    """
    crossings: list[Crossing] = []
    crossing_lines: list[int] = []
    arc_component: dict[str, int] | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line, object_pairs_hook=_unique_keys)
        except DiagramError as exc:
            raise DiagramError(f"line {line_no}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            raise DiagramError(
                f"line {line_no}: bad JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(obj, dict):
            raise DiagramError(f"line {line_no}: expected a JSON object")
        if "arc_components" in obj:
            if arc_component is not None:
                raise DiagramError(f"line {line_no}: duplicate arc_components")
            raw = obj["arc_components"]
            if not isinstance(raw, dict) or not raw:
                raise DiagramError(f"line {line_no}: arc_components must be a non-empty map")
            for arc, comp in raw.items():
                if not _NAME_RE.fullmatch(arc):
                    raise DiagramError(f"line {line_no}: bad arc name {arc!r}")
                # a bool is an int to Python, but not a component
                if type(comp) is not int or comp < 1:
                    raise DiagramError(
                        f"line {line_no}: component of arc {arc!r} must be an "
                        f"integer >= 1, not {comp!r}")
            comps = set(raw.values())
            missing = sorted(set(range(1, min(max(comps), len(raw)) + 1)) - comps)
            if missing:
                raise DiagramError(f"line {line_no}: components {missing} have no arc")
            arc_component = raw
            continue
        try:
            over, under_in, under_out, sign_raw = (
                obj[key] for key in ("over", "under_in", "under_out", "sign"))
        except KeyError as exc:
            raise DiagramError(f"line {line_no}: missing field {exc}") from None
        for key in ("over", "under_in", "under_out"):
            if not isinstance(obj[key], str):
                raise DiagramError(
                    f"line {line_no}: {key} must be an arc name string, not {obj[key]!r}")
        # a bool equals 0 or 1 and a list or map is unhashable, so test
        # the exact type before the lookup
        sign = _SIGNS.get(sign_raw) if type(sign_raw) in (str, int) else None
        if sign is None:
            raise DiagramError(f"line {line_no}: bad sign {sign_raw!r}")
        crossings.append(Crossing(over, under_in, under_out, sign))
        crossing_lines.append(line_no)
    if arc_component is None:
        raise DiagramError("no arc_components line")
    diagram = Diagram(tuple(crossings), arc_component)
    _check_crossings(diagram, [f"line {line_no}" for line_no in crossing_lines])
    return diagram


def print_diagram(d: Diagram) -> str:
    lines = [json.dumps({"arc_components": dict(d.arc_component)}, sort_keys=False)]
    for c in d.crossings:
        lines.append(
            json.dumps(
                {
                    "over": c.over,
                    "under_in": c.under_in,
                    "under_out": c.under_out,
                    "sign": "+" if c.sign > 0 else "-",
                }
            )
        )
    return "\n".join(lines) + "\n"


def wirtinger(d: Diagram) -> Presentation:
    """Presentation read off a diagram: one generator per arc, one
    relation per crossing.

    A positive crossing with over arc j, incoming under arc k, and
    outgoing under arc i contributes i = k^j; a negative crossing uses
    the inverse letter, i = k^(j').  N is left unset; attach it with
    ``augment_n``.
    """
    _check_crossings(d, [f"crossing {pos}" for pos in range(len(d.crossings))])
    arcs = list(d.arc_component.keys())
    index = {arc: i for i, arc in enumerate(arcs)}
    relations = tuple(
        PrimaryRelation(index[c.under_in], (2 * index[c.over] + (c.sign < 0),), index[c.under_out])
        for c in d.crossings
    )
    component_of = tuple(d.arc_component[arc] for arc in arcs)
    return Presentation(tuple(arcs), component_of, None, relations)


def _braid_arcs(braid_word: Sequence[int],
                strands: int) -> tuple[list, list[int], list[int], list[int]]:
    """Walk a braid once, bottom to top, and return its arcs.

    ``braid_word`` lists crossings bottom to top: +i crosses the strand
    at position i over the strand at position i+1 (1-based), -i crosses
    it under.  Arc p starts strand p at the bottom of position p, and
    each crossing starts one new arc, numbered in word order, on the
    strand passing under.  Returns the crossings as (over, under_in,
    under_out, sign) arc ids, the arc at the top of each position, the
    strand of each arc, and each strand's 1-based link component: the
    cycles of the strand permutation, numbered from their least strand.
    A bad strand count or letter raises ``PresentationError``.
    """
    if strands < 1:
        raise PresentationError("need at least one strand")
    for i, letter in enumerate(braid_word, 1):
        if letter == 0 or abs(letter) >= strands:
            raise PresentationError(f"position {i}: braid letter {letter} out of range")
    top, strand_of, crossings = list(range(strands)), list(range(strands)), []
    for letter in braid_word:
        i, out = abs(letter) - 1, len(strand_of)
        a, b = top[i], top[i + 1]
        # the two strands swap positions; the one passing under breaks
        if letter > 0:
            crossing, top[i], top[i + 1] = (a, b, out, 1), out, a
        else:
            crossing, top[i], top[i + 1] = (b, a, out, -1), b, out
        crossings.append(crossing)
        strand_of.append(strand_of[crossing[1]])

    # strand s goes on as the strand starting where s ends at the top
    goes_on = {strand_of[arc]: p for p, arc in enumerate(top)}
    component, comp = [0] * strands, 0
    for first in range(strands):
        s, comp = first, comp + (not component[first])
        while not component[s]:
            component[s] = comp
            s = goes_on[s]
    return crossings, top, strand_of, component


def closed_braid_diagram(braid_word: Sequence[int], strands: int) -> Diagram:
    """Diagram of a closed braid, its crossings and arcs as ``_braid_arcs``
    walks them.

    The closure identifies the top of each strand position with its
    bottom; the arcs it joins are named x0, x1, ... in arc order.
    """
    crossings, top, strand_of, component = _braid_arcs(braid_word, strands)
    rep = list(range(len(strand_of)))

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    # the arc ending at the top of position p goes on as arc p
    for p, arc in enumerate(top):
        a, b = find(arc), find(p)
        if a != b:
            rep[max(a, b)] = min(a, b)

    # each class is named at its least arc, which is its root
    roots = [arc for arc in range(len(rep)) if find(arc) == arc]
    name = {r: f"x{i}" for i, r in enumerate(roots)}
    arc_component = {name[r]: component[strand_of[r]] for r in roots}
    return Diagram(tuple(Crossing(name[find(o)], name[find(i)], name[find(u)], sign)
                         for o, i, u, sign in crossings), arc_component)


def braid_presentation(braid_word: Sequence[int], strands: int) -> Presentation:
    """Presentation of a closed braid with one generator per strand.

    Generators a, b, c, ... (a suffix past 26: a1, b1, ...) stand for the
    strands at the bottom.  Each arc of ``_braid_arcs`` carries the
    expression x^w of its strand x up the braid: a crossing with over
    arc y^v and sign s turns the under arc x^w into x^(w v' y^s v), so
    +i maps the pair (A, B) at positions i, i+1 to (B^A, A), and -i maps
    it to (B, A^(B')).  The closure equates the expression x^w at the
    top of position p with generator p, where a leading letter x and a
    trailing letter p are dropped (x^(x w) = x^w, and x^(w p) = p exactly
    when x^w = p) and an empty relation p = p is left out.  Words are
    letter codes (see ``words``); components are those of ``_braid_arcs``.
    """
    crossings, top, strand_of, component = _braid_arcs(braid_word, strands)
    # one reduced word of letter codes per arc; the arc passing under
    # ends there, so its word moves to the arc it becomes and grows in place
    words = {p: [] for p in range(strands)}
    for over, under_in, under_out, sign in crossings:
        v = words[over]
        word = words[under_out] = words.pop(under_in)
        extend(word, (*invert(v), 2 * strand_of[over] + (sign < 0), *v))

    relations = []
    for p, arc in enumerate(top):
        base, word = strand_of[arc], words[arc]
        start, end = 0, len(word)
        while start < end and word[start] >> 1 == base:
            start += 1
        while end > start and word[end - 1] >> 1 == p:
            end -= 1
        if start < end or base != p:
            relations.append(PrimaryRelation(base, tuple(word[start:end]), p))
    names = tuple(chr(97 + p % 26) + str(p // 26 or "") for p in range(strands))
    return Presentation(names, tuple(component), None, tuple(relations))


# --- named presentations --------------------------------------------------


def _family_mk(k: int) -> Presentation:
    """Twist knot with k full twists together with its axis circle c.

    Spelled in the text format.  The two-sided relations collapse to
    base^word = target form: a^(c a c' a) = a^(c' a c) becomes
    a^(c a c' a c' a' c) = a, and a^(c' a c) = b^((ab)^(k-1)) becomes
    a^(c' a c (b' a')^(k-1)) = b, whose tail is (a b)^(1-k) for k <= 0.
    """
    tail = "b' a' " * (k - 1) if k > 0 else "a b " * (1 - k)
    return parse_presentation(
        "gens a b c; comp a:1 b:1 c:2; N 2 3\n"
        "rel c^[b a]=c; rel a^[c a c' a c' a' c]=a\n"
        f"rel a^[c' a c {tail}]=b\n")


def torus_braid(p: int, q: int, axis: bool = False) -> tuple[tuple[int, ...], int]:
    """Braid word and strand count of the torus link T(p, q):
    (s_1 ... s_(p-1))^q on p strands, mirrored for q < 0.  The braid axis
    adds s_p ... s_1 s_1 ... s_p on one strand more."""
    sign = 1 if q > 0 else -1
    word = tuple(sign * i for i in range(1, p)) * abs(q)
    if axis:
        return word + tuple(range(p, 0, -1)) + tuple(range(1, p + 1)), p + 1
    return word, p


# every --family name: (p, q) for the torus link T(p, q), (p, q, True)
# for T(p, q) plus its braid axis, a q of None taking k, and None for Mk
FAMILIES: dict[str, tuple | None] = {
    "hopf": (2, 2), "trefoil": (2, 3), "T24": (2, 4), "T25": (2, 5), "T26": (2, 6),
    "T28": (2, 8), "T210": (2, 10), "T33": (3, 3), "T34": (3, 4), "T35": (3, 5),
    "T24C": (2, 4, True), "T23B": (3, 2, True), "T2k": (2, None), "Lk": (2, None, True),
    "Mk": None,
}


# the --family names that take k: Mk, and the torus families whose q is k
TAKES_K = tuple(name for name, torus in FAMILIES.items() if not torus or torus[1] is None)


def family_torus(family: str, k: int | None = None) -> tuple | None:
    """Arguments of ``torus_braid`` for a ``FAMILIES`` name at k, or None for Mk.

    The one rule for a family's k: T2k and Lk take it as q, nonzero, Mk
    takes any k, and every other family takes none.  An unknown name or
    a k the family does not take raises ``PresentationError``.
    """
    if family not in FAMILIES:
        raise PresentationError(f"unknown family {family!r}")
    if (family in TAKES_K) != (k is not None):
        raise PresentationError(
            f"family {family} {'needs' if k is None else 'takes no'} k")
    torus = FAMILIES[family]
    if torus is None:
        return None
    if k == 0:
        raise PresentationError(f"k must be nonzero for {family}")
    p, q, *axis = torus
    return p, q or k, *axis


def family_components(family: str, k: int | None = None) -> int:
    """Number of link components of a ``FAMILIES`` name at k, read off
    ``family_torus`` with no braid spelled: gcd(p, q) for T(p, q), one
    more for its axis, and 2 for Mk, its twist knot and axis."""
    torus = family_torus(family, k)
    return 2 if torus is None else gcd(torus[0], torus[1]) + any(torus[2:])


def builtin_family(family: str, k: int | None = None,
                   n_values: Sequence[int] | None = None) -> Presentation:
    """Presentation of a ``FAMILIES`` name at the k ``family_torus``
    accepts.

    A torus link is presented by ``braid_presentation`` from its braid,
    and Mk by ``_family_mk``.  ``n_values``, when given, is attached with
    ``augment_n``; T24C defaults to N = (2, 3, 2) and Mk to N = (2, 3).
    """
    torus = family_torus(family, k)
    p = _family_mk(k) if torus is None else braid_presentation(*torus_braid(*torus))
    if family == "T24C":
        p = augment_n(p, (2, 3, 2))
    if n_values is not None:
        p = augment_n(p, n_values)
    return p
