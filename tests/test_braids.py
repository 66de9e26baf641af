"""Closed-braid presentations against routes of their own.

``braid_presentation`` and ``closed_braid_diagram`` share one walk of
the braid, ``_braid_arcs``: its crossing convention, arcs and component
numbering.  So the Wirtinger presentation of the closed braid's diagram
checks the expressions ``braid_presentation`` carries, not that walk.
What stays independent of it: the concat walk below, which carries
whole words re-reduced by ``oracles.naive_reduce`` and numbers the
components itself; the coset indices of the N-quandle's group; and the
catalog's sizes, which both routes must reproduce."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group

from nquandles.catalog import catalog, iter_checks
from nquandles.enumerator import enumerate_quandle
from nquandles.presentations import (
    FAMILIES,
    TAKES_K,
    Presentation,
    PrimaryRelation,
    augment_n,
    braid_presentation,
    builtin_family,
    closed_braid_diagram,
    wirtinger,
)
from nquandles.quandle import is_isomorphic, orbits
from nquandles.words import invert
from oracles import naive_reduce

# the builtin torus families with a fixed q
FIXED = [name for name in FAMILIES if name not in TAKES_K]
TWO_STRAND = {"trefoil": 3, "hopf": 2, "T24": 4, "T25": 5, "T26": 6, "T28": 8, "T210": 10}


def family_braid(name, k=None):
    """Braid word and strand count of a closed-braid family, spelled from
    the link it names: T(2,q) is s_1^q, T(3,q) is (s_1 s_2)^q, and an
    axis adds s_2 s_1 s_1 s_2 on a third strand, or s_3 s_2 s_1 s_1 s_2 s_3
    on a fourth (T23B, the trefoil as T(3,2) plus its axis)."""
    if name == "T23B":
        return [1, 2, 1, 2, 3, 2, 1, 1, 2, 3], 4
    if name in ("T2k", "Lk"):
        word = [1 if k > 0 else -1] * abs(k)
    elif name in ("T24C", *TWO_STRAND):
        word = [1] * TWO_STRAND.get(name, 4)
    else:
        return [1, 2] * int(name[2:]), 3
    if name in ("Lk", "T24C"):
        return word + [2, 1, 1, 2], 3
    return word, 2


def braid_checks():
    """(check, family name, k) for every braid-backed default-sweep check."""
    rows = {entry.row_id: entry for entry in catalog()}
    out = []
    for check in iter_checks():
        name = rows[check.row_id].family
        if name == "Mk":
            continue
        match = re.match(r"k=(-?\d+) ", check.label)
        out.append((check, name, int(match.group(1)) if match else None))
    return out


def test_every_fixed_torus_family_is_its_braid():
    assert len(FIXED) == 12
    for name in FIXED:
        p = replace(builtin_family(name), n_values=None)  # T24C has a default N
        assert p == braid_presentation(*family_braid(name)), name


def test_every_braid_family_matches_its_wirtinger_presentation():
    checks = braid_checks()
    assert len(checks) == 80
    for check, name, k in checks:
        assert check.presentation == augment_n(builtin_family(name, k=k),
                                               check.presentation.n_values)
        q = enumerate_quandle(check.presentation).quandle
        diagram = closed_braid_diagram(*family_braid(name, k))
        p = augment_n(wirtinger(diagram), check.presentation.n_values)
        r = enumerate_quandle(p).quandle
        assert q.size == r.size == check.expected, (check.row_id, check.label)
        assert is_isomorphic(q, r) and is_isomorphic(r, q), (check.row_id, check.label)


# --- coset-index oracle ------------------------------------------------------------

def coset_indices(p):
    """[G_N : P_i] for the least strand i of each component.

    G_N is the group of the braid presentation, each relation x^w = t
    read as w' x w = t, with x_j^(n_j) = 1 added.  Relation i reads
    x_i^(w_i) = x_pi(i), so the product W_i of the words around strand
    i's cycle commutes with x_i: it is the longitude times a power of the
    meridian, and P_i = <x_i, W_i> is the peripheral subgroup.  A strand
    that the closure leaves as x_i = x_i has no relation and an empty word.
    """
    names = p.generator_names
    free, *xs = free_group(", ".join(names))

    def element(word):
        out = free.identity
        for c in word:  # letter code 2*gen, or 2*gen + 1 for its inverse
            out *= xs[c >> 1] ** (-1 if c & 1 else 1)
        return out

    relators = [xs[j] ** p.n_of_generator(j) for j in range(len(names))]
    for rel in p.relations:
        w = element(rel.word)
        relators.append(w ** -1 * xs[rel.base] * w * xs[rel.target] ** -1)
    group = FpGroup(free, relators)
    by_base = {rel.base: rel for rel in p.relations}
    out = []
    for comp in range(1, max(p.component_of) + 1):
        i = p.component_of.index(comp)
        loop, j = free.identity, i
        while j in by_base:
            loop *= element(by_base[j].word)
            j = by_base[j].target
            if j == i:
                break
        out.append(group.index([xs[i], loop]))
    return out


@pytest.mark.parametrize("word, strands, ns, sizes", [
    ([1, 1, 1], 2, (3,), [4]),
    ([1, 1, 1], 2, (5,), [12]),
    ([1] * 4, 2, (3, 5), [20, 12]),
    ([1] * 6, 2, (2, 5), [30, 12]),
    ([1, 2] * 3, 3, (2, 3, 5), [30, 20, 12]),
    ([1, 2] * 5, 3, (2,), [30]),
    ([1] * 5 + [2, 1, 1, 2], 3, (2, 4), [20, 2]),
], ids=["trefoil-3", "trefoil-5", "T24", "T26", "T33", "T35", "Lk5"])
def test_orbit_sizes_are_coset_indices(word, strands, ns, sizes):
    p = augment_n(braid_presentation(word, strands), ns)
    q = enumerate_quandle(p).quandle
    part = orbits(q)
    got = []
    for comp in range(1, max(p.component_of) + 1):
        x = q.generator_element[p.component_of.index(comp)]
        got.append(len(part.members(part.orbit_of[x])))
    assert got == sizes
    assert coset_indices(p) == sizes


def concat_braid_presentation(braid_word, strands):
    """Reference: the closed braid's presentation with every crossing's
    word re-reduced whole by ``naive_reduce``, not extended in place on
    the under arc's word.  Each strand's component is numbered by the
    least strand of its cycle, ranked; at most 26 strands."""
    at = [(p, ()) for p in range(strands)]
    for letter in braid_word:
        i = abs(letter) - 1
        (a, u), (b, v) = at[i], at[i + 1]
        if letter > 0:
            at[i], at[i + 1] = (b, naive_reduce(v, invert(u), (2 * a,), u)), (a, u)
        else:
            at[i], at[i + 1] = (b, v), (a, naive_reduce(u, invert(v), (2 * b + 1,), v))
    relations = []
    for p, (base, word) in enumerate(at):
        while word and word[0] >> 1 == base:
            word = word[1:]
        while word and word[-1] >> 1 == p:
            word = word[:-1]
        if word or base != p:
            relations.append(PrimaryRelation(base, word, p))
    ends = {base: p for p, (base, _) in enumerate(at)}
    least = []
    for s in range(strands):
        t, m = ends[s], s
        while t != s:
            t, m = ends[t], min(m, t)
        least.append(m)
    number = {m: c for c, m in enumerate(sorted(set(least)), 1)}
    names = tuple(chr(97 + p) for p in range(strands))
    return Presentation(names, tuple(number[m] for m in least), None, tuple(relations))


def test_extend_joins_match_the_concat_words():
    cases = [family_braid(name) for name in FIXED]
    cases += [((1, -2, 1, -2, -1, 2), 3), ((2, 3, -1, 2, -3, -3, 1, 2), 4)]
    cases += [family_braid(name, k) for name in ("T2k", "Lk") for k in range(-40, 41) if k]
    for word, strands in cases:
        assert braid_presentation(word, strands) == concat_braid_presentation(word, strands)


BRAIDS = st.integers(2, 6).flatmap(lambda s: st.tuples(
    st.lists(st.sampled_from([e * i for i in range(1, s) for e in (1, -1)]), max_size=8),
    st.just(s)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(BRAIDS)
def test_extend_joins_match_the_concat_words_on_random_braids(braid):
    assert braid_presentation(*braid) == concat_braid_presentation(*braid)
