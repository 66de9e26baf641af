"""Workload inputs and the answers each op is checked against.

An op brings one input to its verdict.  Every expected answer comes
from the bundled catalog (a closed-form row or a tabulated value) or
from a knot whose N-quandle is known to be infinite, never from the
enumerator itself.  ``build`` turns a workload name and a seed into a
list of ops; the seed only shuffles the order of ops or picks between
mirror-image inputs, so every seed does nearly the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Full-size inputs.  A rung is |2k-1| for the twist-knot family Mk,
# whose N = (2, 3) quandle has 18|2k-1| + 8 elements, at k and at its
# mirror 1-k.  verify-mk runs the CLI on the one the seed picks; close-mk
# runs both, in a seeded order, as one op each: its mirror images differ
# by 5 % to 15 % in time, and with one op per rung the seed's pick set the
# spread of its median op.  A diverge case is (T(2,k) row, k, N); the
# seed picks the mirror sign of k.
SWEEP_K = tuple(range(-6, 7))          # the verify-catalog default sweep
SWEEP_N = (2, 3, 4, 5)
VERIFY_RUNGS = (23, 39)                # 422 and 710 elements
CLOSE_RUNGS = (59, 79, 119)            # 1070, 1430 and 2150 elements
DIVERGE_CASES = (("T23", 3, 6), ("T23", 3, 7), ("T25", 5, 4))

# The smallest size of each workload, for the self-tests.
SMALLEST = {
    "catalog-sweep": dict(k_values=(1, 2), n_values=(2,)),
    "verify-mk": dict(rungs=(3,)),
    "close-mk": dict(rungs=(5,)),
    "diverge-cap": dict(max_vertices=2000),
}


@dataclass(frozen=True)
class Op:
    """One input: ``run(expected)`` returns (verdict, elements).

    The verdict is OK, FAILED when the program stopped at a cap on an
    input with a finite answer, or WRONG when its answer contradicts
    ``expected``.  ``elements`` is the size of the verified result: the
    quandle's elements, or on diverge-cap the vertices created before the
    cap stopped the run.
    """

    label: str
    expected: Any
    run: Callable[[Any], tuple[str, int]]

    def __call__(self) -> tuple[str, int]:
        return self.run(self.expected)


def _verdict(got: Any, expected: Any) -> str:
    if got == expected:
        return OK
    return FAILED if got is None else WRONG


def _mirror_k(rng: random.Random, rung: int) -> int:
    """k with |2k-1| = rung, or its mirror 1-k, by the seed."""
    k = (rung + 1) // 2
    return k if rng.random() < 0.5 else 1 - k


# -- catalog-sweep -------------------------------------------------------------

def _sweep_op(m: SimpleNamespace, text: str, expected: int) -> tuple[str, int]:
    out = m.enumerator.enumerate_quandle(m.presentations.parse_presentation(text))
    verdict = _verdict(out.quandle.size if out.finite else None, expected)
    return verdict, expected if verdict == OK else 0


def catalog_sweep(m: SimpleNamespace, rng: random.Random,
                  k_values=SWEEP_K, n_values=SWEEP_N) -> list[Op]:
    """The verify-catalog sweep, each check fed through presentation text
    as ``enumerate --file`` would read it, in a seeded order."""
    checks = list(m.catalog.iter_checks(k_values=k_values, n_values=n_values))
    rng.shuffle(checks)
    return [
        Op(f"{c.row_id} {c.label}", c.expected,
           partial(_sweep_op, m, m.presentations.print_presentation(c.presentation)))
        for c in checks
    ]


# -- verify-mk -----------------------------------------------------------------

def _verify_mk_text(k: int, size: int, dot: Path, js: Path) -> str:
    """CLI stdout for Mk at k, from the catalog's 18|2k-1| + 8: the knot's
    orbit holds the 18|2k-1| and the axis's orbit the 8."""
    knot = 18 * abs(2 * k - 1)
    axis = size - knot
    return (f"elements: {size}\nN: 2,3\norbits: 2 (sizes: {knot}, {axis})\n"
            f"  orbit 0: size {knot}, generators a b\n"
            f"  orbit 1: size {axis}, generators c\n"
            f"verify full: ok\nwrote {dot}\nwrote {js}\n")


def _verify_mk_op(m: SimpleNamespace, k: int, pair: tuple, dot: Path, js: Path,
                  expected: tuple[str, int]) -> tuple[str, int]:
    text, size = expected
    argv = ["enumerate", "--family", "Mk", "--k", str(k), "--verify", "full",
            "--dot", str(dot), "--json", str(js)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = m.cli.main(argv)
    if code == 4:
        return FAILED, 0
    if code != 0 or stdout.getvalue() != text:
        return WRONG, 0
    exported = json.loads(js.read_text())
    if (exported["size"] != size or len(exported["elements"]) != size
            or dot.read_text().count(' [label="') != size):
        return WRONG, 0
    outs = [m.enumerator.enumerate_quandle(p) for p in pair]
    if not all(o.finite for o in outs):
        return FAILED, 0
    q, mirror = (o.quandle for o in outs)
    if q.size != size or mirror.size != size or not m.quandle.is_isomorphic(q, mirror):
        return WRONG, 0
    return OK, size


def verify_mk(m: SimpleNamespace, out_dir: Path, ks) -> list[Op]:
    """``enumerate --family Mk --verify full`` with both exports, checked
    byte for byte, then Mk(k) against its mirror Mk(1-k) by is_isomorphic."""
    ops = []
    for k in ks:
        size = m.catalog.expected_cardinality("Mk", (2, 3), k=k)
        dot, js = out_dir / f"mk{k}.dot", out_dir / f"mk{k}.json"
        pair = tuple(m.presentations.builtin_family("Mk", k=j) for j in (k, 1 - k))
        ops.append(Op(f"Mk k={k} verify full + iso", (_verify_mk_text(k, size, dot, js), size),
                      partial(_verify_mk_op, m, k, pair, dot, js)))
    return ops


# -- close-mk ------------------------------------------------------------------

def _close_op(m: SimpleNamespace, p, expected: tuple[int, int]) -> tuple[str, int]:
    out = m.enumerator.enumerate_quandle(p)
    got = (out.quandle.size, m.quandle.orbits(out.quandle).orbit_count) if out.finite else None
    verdict = _verdict(got, expected)
    return verdict, expected[0] if verdict == OK else 0


def close_mk(m: SimpleNamespace, ks) -> list[Op]:
    """Mk under the default caps: catalog size, one orbit per component
    (twist knot and axis)."""
    ops = []
    for k in ks:
        size = m.catalog.expected_cardinality("Mk", (2, 3), k=k)
        ops.append(Op(f"Mk k={k}", (size, 2),
                      partial(_close_op, m, m.presentations.builtin_family("Mk", k=k))))
    return ops


# -- diverge-cap ---------------------------------------------------------------

def _diverge_op(m: SimpleNamespace, p, limits, expected: None) -> tuple[str, int]:
    out = m.enumerator.enumerate_quandle(p, limits)
    if out.finite:
        return WRONG, 0
    return OK, out.vertices


def diverge_cap(m: SimpleNamespace, cases, max_vertices: int | None = None) -> list[Op]:
    """T(2,k) knots at an N whose N-quandle is infinite; the only right
    verdict is Exceeded.  ``cases`` are (catalog row, signed k, n)."""
    limits = (None if max_vertices is None
              else m.enumerator.EnumerationLimits(max_vertices=max_vertices))
    ops = []
    for row, k, n in cases:
        try:
            value = m.catalog.expected_cardinality(row, (n,))
        except m.catalog.CatalogError:
            pass
        else:
            raise ValueError(f"catalog row {row} lists N=({n},) as finite ({value})")
        p = m.presentations.builtin_family("T2k", k=k, n_values=(n,))
        ops.append(Op(f"T2k k={k} N=({n},)", None, partial(_diverge_op, m, p, limits)))
    return ops


# -- seeds ---------------------------------------------------------------------

WORKLOADS = ("catalog-sweep", "verify-mk", "close-mk", "diverge-cap")


def build(name: str, seed: int, m: SimpleNamespace, out_dir: Path,
          smallest: bool = False) -> list[Op]:
    """The ops of workload ``name`` for ``seed``; ``m`` holds the modules."""
    rng = random.Random(seed)
    size = SMALLEST[name] if smallest else {}
    if name == "catalog-sweep":
        return catalog_sweep(m, rng, **size)
    if name == "verify-mk":
        return verify_mk(m, out_dir, [_mirror_k(rng, r) for r in size.get("rungs", VERIFY_RUNGS)])
    if name == "close-mk":
        ks = [k for r in size.get("rungs", CLOSE_RUNGS) for k in ((r + 1) // 2, (1 - r) // 2)]
        rng.shuffle(ks)
        return close_mk(m, ks)
    if name == "diverge-cap":
        cases = [(row, rng.choice((1, -1)) * k, n) for row, k, n in DIVERGE_CASES]
        return diverge_cap(m, cases, **size)
    raise ValueError(f"unknown workload {name!r}")
