"""Tietze moves leave the N-quandle as it was.

A sound Tietze move changes a presentation but not the N-quandle it
presents, while the enumerator meets a different definition order and
different coincidences.  Each moved presentation keeps the original
generators first; its quandle, cut back to those generators and
renumbered along their generator tree by ``cut_back`` below (not by the
enumerator's own numbering), must equal the original quandle exactly.

Words are tuples of letter codes: 2*g for generator g, 2*g + 1 for its
inverse.  The moves, on relations b^w = t:

- append a generator t' with relation b^w = t', on b's component;
- compose b^w = t and t^v = s into the added relation b^(w v) = s;
- prefix w with b or b' (b^b = b);
- insert x^n or (x')^n anywhere in w, n the order of x's component;
- swap b^w = t into t^(w') = b.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from nquandles.enumerator import enumerate_quandle
from nquandles.presentations import (
    Presentation,
    PrimaryRelation,
    augment_n,
    braid_presentation,
    builtin_family,
    parse_presentation,
)
from nquandles.quandle import FiniteQuandle
from nquandles.words import concat, invert, reduce

FIXTURES = (
    augment_n(builtin_family("trefoil"), (5,)),
    augment_n(builtin_family("T33"), (2, 3, 5)),
    builtin_family("Mk", k=6),
    augment_n(builtin_family("Lk", k=5), (2, 4)),
    builtin_family("T24C"),
    augment_n(braid_presentation((1, -2, 1, -2), 3), (2,)),  # figure eight
    augment_n(builtin_family("hopf"), (2, 3)),
    # b is an involution that no relation reads
    parse_presentation("gens a b\ncomp a:1 b:2\nN 1 2\n"),
)
MOVES = ("append", "compose", "prefix", "insert", "swap")


@lru_cache(maxsize=None)
def quandle_of(p):
    return enumerate_quandle(p).quandle


def cut_back(q, p):
    """The quandle q as one of p, whose generators are q's first ones:
    the elements those generators reach, numbered as their generator
    tree meets them, the distinct generator elements first and then
    breadth first, each element's edges in generator order."""
    gens = range(len(p.generator_names))
    order = list(dict.fromkeys(q.generator_element[g] for g in gens))
    seen = set(order)
    for y in order:  # the list grows while it is read
        for g in gens:
            z = q.action[g][y]
            if z not in seen:
                seen.add(z)
                order.append(z)
    index = {y: i for i, y in enumerate(order)}
    return FiniteQuandle(
        size=len(order),
        generator_names=p.generator_names,
        action=tuple(tuple(index[q.action[g][y]] for y in order) for g in gens),
        generator_element=tuple(index[q.generator_element[g]] for g in gens),
        component_of_generator=p.component_of,
        n_values=p.n_values,
        relations=p.relations,
    )


@st.composite
def moved(draw):
    """A fixture and the presentation that one to four moves make of it."""
    p = draw(st.sampled_from(FIXTURES))
    comps = list(p.component_of)
    rels = [(r.base, r.word, r.target) for r in p.relations]
    for move in draw(st.lists(st.sampled_from(MOVES), min_size=1, max_size=4)):
        g = len(comps)
        if move == "append":
            b = draw(st.integers(0, g - 1))
            w = reduce(draw(st.lists(st.integers(0, 2 * g - 1), max_size=3)))
            comps.append(comps[b])
            rels.append((b, w, g))
            continue
        if not rels:
            continue
        i = draw(st.integers(0, len(rels) - 1))
        b, w, t = rels[i]
        if move == "compose":
            following = [(v, s) for base, v, s in rels if base == t]
            if following:
                v, s = draw(st.sampled_from(following))
                rels.append((b, concat(w, v), s))
        elif move == "prefix":
            rels[i] = (b, concat((2 * b + draw(st.integers(0, 1)),), w), t)
        elif move == "insert":
            x = 2 * draw(st.integers(0, g - 1)) + draw(st.integers(0, 1))
            k = draw(st.integers(0, len(w)))
            n = p.n_values[comps[x >> 1] - 1]
            rels[i] = (b, concat(w[:k], (x,) * n, w[k:]), t)
        else:
            rels[i] = (t, invert(w), b)
    names = p.generator_names + tuple(f"t{j}" for j in range(len(p.generator_names), len(comps)))
    return p, Presentation(names, tuple(comps), p.n_values,
                           tuple(PrimaryRelation(*r) for r in rels))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(moved())
def test_tietze_moves_keep_the_quandle(case):
    p, moved_p = case
    out = enumerate_quandle(moved_p)
    assert out.finite, (moved_p, out.cap_kind)
    assert cut_back(out.quandle, p) == quandle_of(p), moved_p
