"""A first slice of the closed-braid census: every 3-strand braid word
of one to four letters, one per cyclic rotation, at every N in {2, 3}^m
for its m components.  No run may break a sealing postcondition, and
every finite result must pass the full verification.  At N all 2s and
all 3s, each finite result must also be isomorphic to the results of
the word rotated by one letter and of the word with sigma_1 and sigma_2
swapped, and its mirror image must give a quandle of the same size.
Each finite result must also be isomorphic to those of its Markov
stabilizations on four strands.

At N all 2 the census also checks the size law against the link's
determinant, computed twice with no enumerator code by ``oracles``, from
the diagram's Fox coloring matrix and from Burau at t = -1: a finite
result has c·det elements, and a link of determinant 0 never closes.
The words are ``oracles.rotation_classes``.  ``census`` is the whole
check; the CI workflow imports it, with ``tests`` on the path, to run
longer words and four strands than the test here."""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product

from nquandles import (
    EnumerationLimits,
    augment_n,
    braid_presentation,
    closed_braid_diagram,
    enumerate_quandle,
    is_isomorphic,
    verify_all,
)
from oracles import burau_determinant, coloring_determinant, rotation_classes

LIMITS = EnumerationLimits(max_vertices=2_000)


WORDS = list(rotation_classes(2, range(1, 5)))


# sha256 of every run's word, N tuple, cap kind and counters, one line
# each: a collapse that drops a deduced identification still closes
# these graphs but moves counters, (3, 2, 26, 1) to (6, 5, 31, 1) for
# the word (-1, -1, 2, 1) at N=(3,).  Re-pinned when a conjugate relator
# longer than all the others came to lag: 9 of the 476 runs lag, and 4
# of them, all capped, stop at another step count.  Re-pinned when
# relators stopped being rotated to start at a twist: 8 runs, all
# capped, stop at another step count.  Re-pinned when a power relation
# came to be skipped at a vertex whose neighbour along its letter the
# sweep has passed: 350 runs take fewer steps, and no other counter moved
THREE_STRAND_DIGEST = "7ad48c36b5815c5c106e1a0a2c17eda57793fbbbaf1aa5b50f71f40af08eb856"


def test_three_strand_words_of_at_most_four_letters():
    assert len(WORDS) == 108
    runs = finite = 0
    digest = hashlib.sha256()
    for word in WORDS:
        p = braid_presentation(word, 3)
        for ns in product((2, 3), repeat=len(set(p.component_of))):
            runs += 1
            out = enumerate_quandle(augment_n(p, ns), LIMITS)
            digest.update(f"{word} {ns} {out.cap_kind} {tuple(out.stats)}\n".encode())
            if out.finite:
                finite += 1
                assert verify_all(out.quandle), (word, ns)
    assert (runs, finite) == (476, 122)
    assert digest.hexdigest() == THREE_STRAND_DIGEST


def uniform(word, n, strands=3):
    """The closed braid ``word`` enumerated with n on every component."""
    p = braid_presentation(word, strands)
    return enumerate_quandle(augment_n(p, (n,) * len(set(p.component_of))), LIMITS)


def test_finite_results_are_invariant_under_rotation_flip_and_mirror():
    # with every n equal, the N tuple does not depend on how components
    # are numbered, so a braid that closes to the same link must give an
    # isomorphic quandle, and its mirror image one of the same size
    finite = 0
    for word in WORDS:
        rotated = word[1:] + word[:1]
        flipped = tuple(3 - x if x > 0 else -3 - x for x in word)
        mirrored = tuple(-x for x in word)
        for n in (2, 3):
            out = uniform(word, n)
            if not out.finite:
                continue
            finite += 1
            assert is_isomorphic(out.quandle, uniform(rotated, n).quandle), (word, n)
            assert is_isomorphic(out.quandle, uniform(flipped, n).quandle), (word, n)
            mirror = uniform(mirrored, n)
            assert mirror.finite and mirror.quandle.size == out.quandle.size, (word, n)
    assert finite == 106


def test_finite_results_are_invariant_under_markov_stabilization():
    # w s_3 and w s_3' on four strands close the same link as w on three
    pairs = 0
    for word in WORDS:
        for n in (2, 3):
            out = uniform(word, n)
            if not out.finite:
                continue
            for letter in (3, -3):
                stabilized = uniform(word + (letter,), n, strands=4)
                assert stabilized.finite, (word, letter, n)
                assert is_isomorphic(out.quandle, stabilized.quandle), (word, letter, n)
                assert is_isomorphic(stabilized.quandle, out.quandle), (word, letter, n)
                pairs += 1
    assert pairs == 212


def diagram_determinant(word, strands):
    """The Fox coloring determinant of the closed braid's diagram."""
    d = closed_braid_diagram(word, strands)
    arc = {name: i for i, name in enumerate(d.arc_component)}
    crossings = [(arc[c.over], arc[c.under_in], arc[c.under_out]) for c in d.crossings]
    return coloring_determinant(crossings, len(arc))


def census(strands, max_letters):
    """Enumerate every closed braid on ``strands`` strands of at most
    ``max_letters`` letters, one word per rotation class, with n = 2 on
    every component, under the 2,000-vertex cap.  On three strands the
    two determinants must agree (on four the Burau factor 1 + t + t² + t³
    vanishes at t = -1).  A finite run must pass ``verify_all`` and have
    c·det elements for some c, det > 0; a run of det 0 must stop at the
    vertex cap.  Returns (by c, det 0, capped): the finite runs counted by
    c, the det-0 runs, and the other runs that stopped at the cap."""
    by_c, det_zero, capped = Counter(), 0, 0
    for word in rotation_classes(strands - 1, range(1, max_letters + 1)):
        det = diagram_determinant(word, strands)
        if strands == 3:
            assert burau_determinant(word) == det, word
        out = uniform(word, 2, strands)
        if out.finite:
            assert det and verify_all(out.quandle), (word, det)
            by_c[Fraction(out.quandle.size, det)] += 1
        else:
            assert out.cap_kind == "vertices", (word, out.stats)
            det_zero += not det
            capped += bool(det)
    return dict(by_c), det_zero, capped


def test_size_law_at_n_all_2_on_three_strand_words_of_at_most_six_letters():
    assert census(3, 6) == ({1: 606, Fraction(3, 2): 16}, 304, 90)
