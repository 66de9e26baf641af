"""Catalog of known finite N-quandle cardinalities.

The data file ``data/cardinalities.txt`` keeps one row per link family:
either a list of exact values keyed by N tuple, or a closed form in the
parameters k, n, p, q.  A row's family column names the
``builtin_family`` that realizes it, if any; exactly those rows are
re-enumerated and compared against their own expected values (see
``iter_checks`` and the verify-catalog CLI command).
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Collection, Iterator, Mapping, Sequence

from .presentations import (FAMILIES, Presentation, PresentationError, augment_n, builtin_family,
                            family_components, family_torus)

_DATA_PATH = Path(__file__).parent / "data" / "cardinalities.txt"


class CatalogError(PresentationError):
    """Unknown row, or an N tuple or parameter the row holds no value for."""


@dataclass(frozen=True)
class CatalogEntry:
    row_id: str
    link: str
    n_shape: str
    expected: str
    family: str
    notes: str

    @cached_property
    def exact_values(self) -> dict[tuple[int, ...], int] | None:
        """Exact-value list, parsed on first read; None for a closed-form row."""
        if "=" not in self.expected:
            return None
        out: dict[tuple[int, ...], int] = {}
        for part in self.expected.split(";"):
            tuple_text, _, value = part.strip().partition("=")
            ns = tuple(int(t) for t in re.findall(r"\d+", tuple_text))
            out[ns] = int(value)
        return out


_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
}


def _eval_formula(text: str, env: Mapping[str, int]) -> int:
    """Evaluate a closed form: ints, + - *, abs(), and row parameters."""

    def ev(node: ast.AST) -> int:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise CatalogError(f"formula parameter {node.id!r} not supplied")
            return env[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            return _ALLOWED_BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs" and len(node.args) == 1):
            return abs(ev(node.args[0]))
        raise CatalogError(f"unsupported formula syntax in {text!r}")

    return ev(_parse_formula(text))


@cache
def _parse_formula(text: str) -> ast.Expression:
    """Parsed once per formula text: a sweep evaluates each many times."""
    return ast.parse(text, mode="eval")


def load_catalog() -> list[CatalogEntry]:
    entries = []
    for line in _DATA_PATH.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = [c.strip() for c in line.split("|")]
        if len(cols) != 6:
            raise ValueError(f"catalog row needs 6 columns: {line!r}")
        entries.append(CatalogEntry(*cols))
    return entries


@cache
def catalog() -> list[CatalogEntry]:
    """The bundled rows, loaded on first call."""
    return load_catalog()


def find_row(row_id: str) -> CatalogEntry:
    for entry in catalog():
        if entry.row_id == row_id:
            return entry
    raise CatalogError(f"no catalog row {row_id!r}")


def _shapes(n_shape: str) -> list[tuple[int | str, ...]]:
    """The N shapes of an N column such as "(2,n)" or "(2) or (2,2)":
    one tuple per alternative, a name standing for a row parameter."""
    return [tuple(int(t) if t.isdigit() else t for t in re.findall(r"\w+", alt))
            for alt in n_shape.split(" or ")]


def expected_cardinality(row_id: str, n_values: Sequence[int],
                         **params: int) -> int:
    """Expected size for a catalog row at the given N and parameters.

    Raises CatalogError when the row is unknown or holds no value for the
    N tuple: an exact row lists its N tuples, a closed form takes N of the
    shapes in its N column, and a parameter of the shape (n in "(2,n)") is
    read from its position.  A row that names a family and lists several
    shapes takes only those with one entry per component of the family's
    link at k.
    """
    entry = find_row(row_id)
    shapes = _shapes(entry.n_shape)
    if len(shapes) > 1 and entry.family in FAMILIES:
        try:
            components = family_components(entry.family, k=params.get("k"))
        except PresentationError as exc:
            raise CatalogError(f"row {row_id}: {exc}") from None
        shapes = [s for s in shapes if len(s) == components]
    ns = tuple(int(n) for n in n_values)
    exact = entry.exact_values
    if exact is not None:
        if ns not in exact:
            raise CatalogError(f"row {row_id} has no value for N={ns}")
        return exact[ns]
    for shape in shapes:
        if len(shape) == len(ns) and all(
                isinstance(s, str) or s == n for s, n in zip(shape, ns)):
            bound = {s: n for s, n in zip(shape, ns) if isinstance(s, str)}
            return _eval_formula(entry.expected, {**params, **bound})
    shown = " or ".join(f"({','.join(map(str, s))})" for s in shapes)
    raise CatalogError(f"row {row_id} has N of shape {shown}, not N={ns}")


@dataclass(frozen=True)
class CatalogCheck:
    """One executable comparison: enumerate ``presentation`` and expect
    ``expected`` elements."""

    row_id: str
    label: str
    presentation: Presentation
    expected: int


def iter_checks(k_values: Sequence[int] = tuple(range(-6, 7)),
                n_values: Sequence[int] = (2, 3, 4, 5),
                rows: Collection[str] | None = None) -> Iterator[CatalogCheck]:
    """Executable checks for every row that names a ``FAMILIES`` entry,
    or for those of them in ``rows`` when given, in catalog order: its
    ``builtin_family`` enumerated at each N, expecting the row's
    ``expected_cardinality``.  A row left out builds nothing.  Exact rows
    yield one check per recorded N tuple.  Closed-form rows build their
    link once for each k of ``k_values``, except k = 0 for a torus family
    T(p, k); then, for each N shape in the order listed, they sweep the k
    whose link has one component per entry of the shape, and the n of the
    shape over ``n_values``.
    """
    for entry in catalog():
        if entry.family not in FAMILIES or (rows is not None and entry.row_id not in rows):
            continue
        exact = entry.exact_values
        if exact is not None:
            p = builtin_family(entry.family)
            for ns in sorted(exact):
                yield CatalogCheck(entry.row_id, f"N={ns}", augment_n(p, ns),
                                   expected_cardinality(entry.row_id, ns))
            continue
        links = [(k, builtin_family(entry.family, k=k), family_components(entry.family, k))
                 for k in k_values if k or family_torus(entry.family, 1) is None]
        for shape in _shapes(entry.n_shape):
            for k, p, components in links:
                if components != len(shape):
                    continue
                for n in (n_values if "n" in shape else (None,)):
                    ns = tuple(n if s == "n" else s for s in shape)
                    yield CatalogCheck(entry.row_id, f"k={k} N={ns}", augment_n(p, ns),
                                       expected_cardinality(entry.row_id, ns, k=k))
