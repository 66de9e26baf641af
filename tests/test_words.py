"""Free reduction and the a^w exponent algebra.

Words are tuples of letter codes: 2*g for generator g, 2*g + 1 for its
inverse.  Below, a, b, c are the codes of generators 0, 1, 2 and A, B,
C those of their inverses.  Element names are a^w expressions over
(generator, sign) pairs.
"""

import itertools
import random

from nquandles.quandle import Expression, expression_str
from nquandles.words import (
    concat,
    invert,
    reduce,
    word_str,
)
from oracles import naive_reduce

a, A, b, B, c, C = range(6)
ALPHABET = list(range(6))


def test_reduce_matches_naive_exhaustively():
    for length in range(5):
        for letters in itertools.product(ALPHABET, repeat=length):
            assert reduce(letters) == naive_reduce(letters)


def test_reduce_matches_naive_random():
    rng = random.Random(7)
    for _ in range(500):
        letters = [rng.choice(ALPHABET) for _ in range(rng.randrange(13))]
        got = reduce(letters)
        assert got == naive_reduce(letters)
        assert reduce(got) == got


def test_reduce_examples():
    assert reduce([]) == ()
    assert reduce([a, A]) == ()
    assert reduce([a, b, B, A]) == ()
    assert reduce([a, a]) == (a, a)
    # cancellation can cascade through the stack
    assert reduce([a, b, c, C, B, a]) == (a, a)


def test_invert_is_an_involution():
    rng = random.Random(11)
    for _ in range(200):
        w = reduce(rng.choice(ALPHABET) for _ in range(rng.randrange(10)))
        assert invert(invert(w)) == w
        assert concat(w, invert(w)) == ()
        assert concat(invert(w), w) == ()


def test_invert_is_an_antihomomorphism():
    rng = random.Random(13)
    for _ in range(200):
        u = reduce(rng.choice(ALPHABET) for _ in range(rng.randrange(8)))
        v = reduce(rng.choice(ALPHABET) for _ in range(rng.randrange(8)))
        assert invert(concat(u, v)) == concat(invert(v), invert(u))


def test_concat_cancels_across_seams():
    assert concat((a,), (A,)) == ()
    assert concat((a, b), (B, c)) == (a, c)
    assert concat() == ()
    assert concat((a,), (), (b,)) == (a, b)


def test_expression_str_single_char_names_concatenate():
    # element names run one-character letters together; the file
    # format's word_str keeps them apart, as its parser needs
    names = ("a", "b", "c")
    assert expression_str(Expression(0, ((1, 1), (0, 1), (1, -1))), names) == "a^bab'"
    assert word_str((b, a, B), names) == "b a b'"
    assert word_str((), names) == ""


def test_word_str_long_names_space_join():
    names = ("x0", "x1")
    assert word_str((a, B), names) == "x0 x1'"
    assert expression_str(Expression(1, ((0, 1), (1, -1))), names) == "x1^x0 x1'"


def test_expression_str():
    names = ("a", "b", "c")
    assert expression_str(Expression(0, ()), names) == "a"
    assert expression_str(Expression(0, ((1, 1), (0, -1))), names) == "a^ba'"
