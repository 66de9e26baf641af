"""Free-group words over an indexed generator alphabet.

Quandle elements are written in exponent form: ``a^w`` pairs a base
generator ``a`` with a word ``w`` in the free group on the generators.
``x^y`` is the quandle operation x > y, ``x^(y')`` its inverse, and
exponents read left to right, so x^(uv) = (x^u)^v.  The re-association
identity

    (a^u)^(b^v) = a^(u v' b v)

flattens any nested expression back to the a^w normal form; that normal
form is all this module manipulates.  Generators are bare indices here.
Names exist only at the parse/print boundary (see presentations).

A letter is a pair ``(generator_index, sign)`` with sign +1 or -1, a
word is a tuple of letters, and words are kept freely reduced: no
letter is ever adjacent to its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence by cancelling adjacent inverses.

    Single stack pass; the result is the unique reduced form of the
    word, so reduce is idempotent and order of cancellation is moot.
    """
    out: list[Letter] = []
    for gen, sign in letters:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def invert(word: Iterable[Letter]) -> Word:
    """Inverse word: reversed letters, each sign flipped."""
    # tuple() of a list is sized exactly; of a generator it starts from
    # a length guess, and the spare tuples pile up on CPython's free lists
    return tuple([(gen, -sign) for gen, sign in reversed(tuple(word))])


def concat(*words: Iterable[Letter]) -> Word:
    """Concatenate words and reduce the seams."""
    joined: list[Letter] = []
    for word in words:
        joined.extend(word)
    return reduce(joined)


def power(word: Sequence[Letter], exponent: int) -> Word:
    """w^e as a reduced word; negative exponents invert first.

    This is where the x^(y^-n) = x^((y')^n) convention gets resolved,
    so nothing downstream ever sees a negative power.
    """
    if exponent < 0:
        return power(invert(word), -exponent)
    return reduce(tuple(word) * exponent)


@dataclass(frozen=True)
class Expression:
    """Normal form a^w: a base generator index and a reduced word."""

    base: int
    word: Word


def word_str(word: Iterable[Letter], names: Sequence[str]) -> str:
    """Render a word with the file-format spelling: x' marks an inverse."""
    parts = [names[gen] + ("" if sign > 0 else "'") for gen, sign in word]
    if all(len(name) == 1 for name in names):
        return "".join(parts)
    return " ".join(parts)


def expression_str(expr: Expression, names: Sequence[str]) -> str:
    """Render a^w; a bare base when the word is empty."""
    base = names[expr.base]
    if not expr.word:
        return base
    return base + "^" + word_str(expr.word, names)
