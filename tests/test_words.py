"""Free reduction and the a^w exponent algebra."""

import itertools
import random

from nquandles.words import (
    Expression,
    concat,
    expression_str,
    invert,
    power,
    reduce,
    word_str,
)

A, B, C = 0, 1, 2
ALPHABET = [(g, s) for g in range(3) for s in (1, -1)]


def naive_reduce(letters):
    # Quadratic fixpoint deletion, the obviously-correct spelling.
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == (out[i + 1][0], -out[i + 1][1]):
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


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
    assert reduce([(A, 1), (A, -1)]) == ()
    assert reduce([(A, 1), (B, 1), (B, -1), (A, -1)]) == ()
    assert reduce([(A, 1), (A, 1)]) == ((A, 1), (A, 1))
    # cancellation can cascade through the stack
    assert reduce([(A, 1), (B, 1), (C, 1), (C, -1), (B, -1), (A, 1)]) == (
        (A, 1), (A, 1))


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
    assert concat(((A, 1),), ((A, -1),)) == ()
    assert concat(((A, 1), (B, 1)), ((B, -1), (C, 1))) == ((A, 1), (C, 1))
    assert concat() == ()
    assert concat(((A, 1),), (), ((B, 1),)) == ((A, 1), (B, 1))


def test_power():
    w = ((A, 1), (B, 1))
    assert power(w, 0) == ()
    assert power(w, 1) == w
    assert power(w, 3) == concat(w, w, w)
    assert power(w, -1) == invert(w)
    assert power(w, -2) == concat(invert(w), invert(w))
    # a single generator to a negative power is the inverse letter repeated
    assert power(((B, 1),), -3) == ((B, -1),) * 3
    # self-cancelling word stays trivial at any power
    assert power(((A, 1), (A, -1)), 5) == ()


def test_word_str_single_char_names_concatenate():
    names = ("a", "b", "c")
    assert word_str(((B, 1), (A, 1), (B, -1)), names) == "bab'"
    assert word_str((), names) == ""


def test_word_str_long_names_space_join():
    names = ("x0", "x1")
    assert word_str(((0, 1), (1, -1)), names) == "x0 x1'"


def test_expression_str():
    names = ("a", "b", "c")
    assert expression_str(Expression(A, ()), names) == "a"
    assert expression_str(Expression(A, ((B, 1), (A, -1))), names) == "a^ba'"
