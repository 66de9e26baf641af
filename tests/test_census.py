"""A first slice of the closed-braid census: every 3-strand braid word
of one to four letters, one per cyclic rotation, at every N in {2, 3}^m
for its m components.  No run may break a sealing postcondition, and
every finite result must pass the full verification."""

from itertools import product

from nquandles import (
    EnumerationLimits,
    augment_n,
    braid_presentation,
    enumerate_quandle,
    verify_all,
)

LIMITS = EnumerationLimits(max_vertices=2_000)


def braid_words(strands, max_letters):
    """Words in the letters +-1 .. +-(strands - 1), the least of each
    class of cyclic rotations, by length."""
    letters = sorted(s * i for i in range(1, strands) for s in (1, -1))
    for n in range(1, max_letters + 1):
        for word in product(letters, repeat=n):
            if word == min(word[i:] + word[:i] for i in range(n)):
                yield word


def test_three_strand_words_of_at_most_four_letters():
    words = list(braid_words(3, 4))
    assert len(words) == 108
    runs = finite = 0
    for word in words:
        p = braid_presentation(word, 3)
        for ns in product((2, 3), repeat=len(set(p.component_of))):
            runs += 1
            out = enumerate_quandle(augment_n(p, ns), LIMITS)
            if out.finite:
                finite += 1
                assert verify_all(out.quandle), (word, ns)
    assert (runs, finite) == (476, 122)
