"""Free-group words over an indexed generator alphabet.

Quandle elements are written in exponent form: ``a^w`` pairs a base
generator ``a`` with a word ``w`` in the free group on the generators.
``x^y`` is the quandle operation x > y, ``x^(y')`` its inverse, and
exponents read left to right, so x^(uv) = (x^u)^v.  The re-association
identity

    (a^u)^(b^v) = a^(u v' b v)

flattens any nested expression back to the a^w normal form.  This
module manipulates the words w, which also spell every relation.
Generators are bare indices here.  Names exist only at the parse/print
boundary (see presentations).

A letter is an int code, as in the rows of a Todd-Coxeter coset table:
2*g is generator g and 2*g + 1 its inverse, so ``code ^ 1`` inverts a
letter and ``code >> 1`` gives its generator.  A word is a tuple of
codes, and words are kept freely reduced: no letter is ever adjacent to
its own inverse.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[int, ...]


def extend(word: list[int], codes: Iterable[int]) -> None:
    """Append letters to a reduced word in place, cancelling each one
    against the word's end: the one stack loop of free reduction."""
    for c in codes:
        if word and word[-1] == c ^ 1:
            word.pop()
        else:
            word.append(c)


def reduce(codes: Iterable[int]) -> Word:
    """The unique free reduction of a letter sequence; idempotent."""
    out: list[int] = []
    extend(out, codes)
    return tuple(out)


def invert(word: Iterable[int]) -> Word:
    """Inverse word: reversed letters, each one inverted."""
    # tuple() of a list is sized exactly; of a generator it starts from
    # a length guess, and the spare tuples pile up on CPython's free lists
    return tuple([c ^ 1 for c in reversed(tuple(word))])


def concat(*words: Iterable[int]) -> Word:
    """Concatenate words and reduce the seams."""
    joined: list[int] = []
    for word in words:
        extend(joined, word)
    return tuple(joined)


def word_str(word: Iterable[int], names: Sequence[str]) -> str:
    """Render a word with the file-format spelling: letters apart, x'
    marks an inverse."""
    return " ".join([names[c >> 1] + "'" * (c & 1) for c in word])
