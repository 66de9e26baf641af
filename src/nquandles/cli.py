"""Command line front end.

Three subcommands.  ``enumerate`` builds the finite quandle of one
presentation and reports size, orbit structure, and verification.
``verify-catalog`` sweeps the bundled cardinality table and compares
every enumerated size against its recorded value.  ``convert`` turns a
closed braid word (one generator per strand) or a diagram file (one per
arc) into a generator presentation, or either into a diagram file.

Exit codes: 0 success, 1 bad input, I/O failure or out of memory,
2 usage error, 3 verification or catalog mismatch, 4 enumeration cap
exceeded.  ``verify-catalog`` exits 3 when any check enumerates a
finite size other than its row's, and 4 when every failed check
stopped at a cap instead.  Refused input, any ``PresentationError``
or ``OSError``, is one ``error:`` line on stderr.

Output is deterministic for a fixed command line; the single exception
is the line emitted by ``--timing``, which begins with ``time:`` so it
can be filtered out when comparing runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

from .catalog import CatalogError, find_row, iter_checks
from .enumerator import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_VERTICES,
    EnumerationLimits,
    enumerate_quandle,
)
from .presentations import (
    FAMILIES,
    TAKES_K,
    Presentation,
    PresentationError,
    augment_n,
    braid_presentation,
    builtin_family,
    closed_braid_diagram,
    parse_diagram,
    parse_presentation,
    print_diagram,
    print_presentation,
    wirtinger,
)
from .quandle import export_dot, export_json, orbits, verify_all, verify_axioms


def _n_tuple(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad N list {text!r}, expected e.g. 2,3")
    if not values or any(n < 1 for n in values):
        raise argparse.ArgumentTypeError("N values must be positive integers")
    return values


def _braid_word(text: str) -> tuple[int, ...]:
    try:
        letters = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad braid word {text!r}, expected e.g. 1,1,-2")
    if not letters:
        raise argparse.ArgumentTypeError("empty braid word")
    return letters


def _int_range(text: str) -> range:
    """"a:b" as an inclusive range; a bare integer is a single value.
    b = a - 1 is the empty range, and a smaller b a reversed one, which
    is refused rather than read as empty."""
    lo, sep, hi = text.partition(":")
    try:
        first, last = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected e.g. -6:6")
    if last < first - 1:
        raise argparse.ArgumentTypeError(f"reversed range {text!r}: {first} > {last}")
    return range(first, last + 1)


def _n_range(text: str) -> range:
    """An ``_int_range`` of N values, each at least 1."""
    values = _int_range(text)
    if values and values.start < 1:
        raise argparse.ArgumentTypeError(
            f"n values must be positive integers, not {values.start} in {text!r}")
    return values


def _cap(text: str) -> int:
    """A step or vertex cap: an integer from 0 to sys.maxsize, so that
    every count it bounds stays a machine-sized integer."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cap {text!r}, expected an integer")
    if not 0 <= cap <= sys.maxsize:
        raise argparse.ArgumentTypeError(f"cap {cap} is outside 0:{sys.maxsize}")
    return cap


_SIGNED_OPTIONS = ("--k-range", "--n-range", "--braid")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join each option that takes a signed value to the argument after
    it, so that a value such as -3:3 or -1,-1,-1, which argparse would
    take for an option, stays its value."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in _SIGNED_OPTIONS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _read_text(path: str) -> str:
    """The file's text; one that is not UTF-8 is an input that cannot be
    read, reported with the offset of its first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None


def _check_k(k: int, max_steps: int) -> None:
    """Refuse a family parameter before its words are built: every
    family's relation words grow with |k|, and each universal relation
    is scanned in full, so past the step cap none could be."""
    if abs(k) > max_steps:
        raise PresentationError(
            f"k {k} exceeds the step cap {max_steps}: its relation words could not be scanned")


def _load_presentation(args: argparse.Namespace) -> Presentation:
    if args.family is not None:
        # builtin_family refuses an unknown name, or a k its family does
        # not take, before it spells a word
        if args.k is not None and args.family in TAKES_K:
            _check_k(args.k, args.max_steps)
        return builtin_family(args.family, k=args.k)
    if args.k is not None:
        raise PresentationError("--k only applies to --family")
    if args.file is not None:
        return parse_presentation(_read_text(args.file))
    return wirtinger(parse_diagram(_read_text(args.diagram)))


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        print(f"wrote {path}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    p = _load_presentation(args)
    if args.N is not None:
        p = augment_n(p, args.N)
    if p.n_values is None:
        raise PresentationError("presentation has no N values; pass --N")
    limits = EnumerationLimits(max_vertices=args.max_vertices,
                               max_steps=args.max_steps)
    outcome = enumerate_quandle(p, limits)
    if not outcome.finite:
        cap = (limits.max_vertices if outcome.cap_kind == "vertices"
               else limits.max_steps)
        stats = outcome.stats
        print(f"exceeded {outcome.cap_kind} cap ({cap}); "
              f"{stats.created} vertices created before the stop, "
              f"{stats.live} live, {stats.steps} steps")
        return 4

    q = outcome.quandle
    part = orbits(q)
    sizes = part.sizes()
    shown = ", ".join(str(s) for s in sorted(sizes, reverse=True))
    print(f"elements: {q.size}")
    print(f"N: {','.join(str(n) for n in q.n_values)}")
    print(f"orbits: {part.orbit_count} (sizes: {shown})")
    for oid in range(part.orbit_count):
        gens = [name for j, name in enumerate(q.generator_names)
                if part.orbit_of[q.generator_element[j]] == oid]
        names = " ".join(gens) if gens else "-"
        print(f"  orbit {oid}: size {sizes[oid]}, generators {names}")

    if args.verify != "none":
        try:
            report = verify_axioms(q) if args.verify == "axioms" else verify_all(q)
        except MemoryError as exc:
            print(f"error: {exc}; --verify none skips it", file=sys.stderr)
            return 1
        if report:
            print(f"verify {args.verify}: ok")
        else:
            print(f"verify {args.verify}: FAILED")
            for failure in report.failures:
                print(f"  {failure}")
            return 3

    if args.dot is not None:
        _write_or_print(export_dot(q), args.dot)
    if args.json is not None:
        _write_or_print(export_json(q), args.json)
    if args.timing:
        print(f"time: {time.monotonic() - t0:.2f}s")
    return 0


def cmd_verify_catalog(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    # an unknown row is refused by find_row
    wanted = None if args.rows is None else [
        find_row(r.strip()).row_id for r in args.rows.split(",") if r.strip()]
    for k in (args.k_range.start, args.k_range.stop - 1):
        _check_k(k, args.max_steps)
    checks = list(iter_checks(k_values=args.k_range, n_values=args.n_range, rows=wanted))
    if not checks:
        raise CatalogError("no checks selected")

    limits = EnumerationLimits(max_vertices=args.max_vertices,
                               max_steps=args.max_steps)
    failed = capped = 0
    for check in checks:
        outcome = enumerate_quandle(check.presentation, limits)
        got = str(outcome.vertices) if outcome.finite else f"exceeded {outcome.cap_kind} cap"
        if outcome.finite and outcome.vertices == check.expected:
            print(f"ok   {check.row_id} {check.label}: {got}")
        else:
            failed += 1
            capped += not outcome.finite
            print(f"FAIL {check.row_id} {check.label}: want {check.expected} got {got}")
    print(f"checks: {len(checks)} total, {len(checks) - failed} ok, {failed} failed")
    if args.timing:
        print(f"time: {time.monotonic() - t0:.2f}s")
    # a cap stop claims no size, so only a finite wrong size is a mismatch
    return 3 if failed > capped else 4 if capped else 0


def cmd_convert(args: argparse.Namespace) -> int:
    if args.braid is not None and args.strands is None:
        raise PresentationError("--braid needs --strands")
    if args.braid is not None and args.strands > DEFAULT_MAX_VERTICES:
        raise PresentationError(f"{args.strands} strands exceed the vertex cap "
                                f"{DEFAULT_MAX_VERTICES}: each strand needs a vertex")
    if args.to == "diagram":
        if args.N is not None:
            raise PresentationError("--N only applies to presentation output")
        diagram = (closed_braid_diagram(args.braid, args.strands) if args.braid is not None
                   else parse_diagram(_read_text(args.diagram)))
        _write_or_print(print_diagram(diagram), args.output)
        return 0
    p = (braid_presentation(args.braid, args.strands) if args.braid is not None
         else wirtinger(parse_diagram(_read_text(args.diagram))))
    if args.N is not None:
        p = augment_n(p, args.N)
    _write_or_print(print_presentation(p), args.output)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parse_args
    fills a new namespace each call and changes nothing in the parser."""
    parser = argparse.ArgumentParser(
        prog="nquandles",
        description="Enumerate and verify finite N-quandles of knots and links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser(
        "enumerate",
        help="build the finite quandle of one presentation",
    )
    source = enum.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help=f"builtin family: {', '.join(FAMILIES)}")
    source.add_argument("--file", help="presentation text file")
    source.add_argument("--diagram", help="diagram file (JSON lines)")
    enum.add_argument("--k", type=int, default=None,
                      help=f"parameter for {', '.join(TAKES_K)}")
    enum.add_argument("--N", type=_n_tuple, default=None, metavar="N1,N2,...",
                      help="orders, one per link component")
    enum.add_argument("--max-vertices", type=_cap, default=DEFAULT_MAX_VERTICES)
    enum.add_argument("--max-steps", type=_cap, default=DEFAULT_MAX_STEPS)
    enum.add_argument("--verify", choices=("none", "axioms", "full"),
                      default="axioms",
                      help="post-enumeration checks (default: axioms)")
    enum.add_argument("--dot", default=None, metavar="PATH",
                      help="write the Cayley graph in DOT format")
    enum.add_argument("--json", default=None, metavar="PATH",
                      help="write element names, orders and generator "
                           "action tables as JSON")
    enum.add_argument("--timing", action="store_true")
    enum.set_defaults(func=cmd_enumerate)

    vc = sub.add_parser(
        "verify-catalog",
        help="enumerate every catalog row and compare cardinalities",
    )
    vc.add_argument("--rows", default=None,
                    help="comma separated row ids (default: every row that names a family)")
    vc.add_argument("--k-range", type=_int_range, default=range(-6, 7),
                    metavar="A:B", help="k sweep for parameterized rows")
    vc.add_argument("--n-range", type=_n_range, default=range(2, 6),
                    metavar="A:B", help="n sweep for axis components")
    vc.add_argument("--max-vertices", type=_cap, default=DEFAULT_MAX_VERTICES)
    vc.add_argument("--max-steps", type=_cap, default=DEFAULT_MAX_STEPS)
    vc.add_argument("--timing", action="store_true")
    vc.set_defaults(func=cmd_verify_catalog)

    conv = sub.add_parser(
        "convert",
        help="braid word or diagram -> presentation or diagram file",
    )
    csource = conv.add_mutually_exclusive_group(required=True)
    csource.add_argument("--braid", type=_braid_word, metavar="W1,W2,...",
                         help="closed braid word, e.g. 1,1,1")
    csource.add_argument("--diagram", help="diagram file (JSON lines)")
    conv.add_argument("--strands", type=int, default=None)
    conv.add_argument("--to", choices=("presentation", "diagram"),
                      default="presentation")
    conv.add_argument("--N", type=_n_tuple, default=None, metavar="N1,N2,...",
                      help="orders to attach to the presentation")
    conv.add_argument("-o", "--output", default=None, metavar="PATH")
    conv.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_signed_values(argv))
    try:
        return args.func(args)
    except (PresentationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
