"""In-memory spans around the package's public functions.

``Tracer.install`` replaces each traced function by a wrapper under
every name that binds it in the package's modules, so calls between
modules and within one (``verify_all -> verify_axioms -> dense_tables``)
nest as spans; ``uninstall`` puts the originals back.  Nothing in the
package changes.

The words functions run once per created vertex, about 10^5 times per
enumeration: too often for a span each.  Their wrapper adds its call
count and time to the calling span instead, so a span's self time is
its duration minus its child spans and its words time.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

# Functions that get a span of their own, by layer (module).  full_op
# stays unwrapped: is_isomorphic calls it about 10^4 times per op.
SPANNED = {
    "presentations": ("parse_presentation", "print_presentation", "parse_word",
                      "builtin_family", "augment_n", "secondary_relations",
                      "wirtinger", "closed_braid_diagram", "parse_diagram",
                      "print_diagram"),
    "catalog": ("load_catalog", "catalog", "expected_cardinality", "iter_checks"),
    "enumerator": ("enumerate_quandle", "run_schedule"),
    "quandle": ("dense_tables", "verify_axioms", "verify_n_relations", "verify_all",
                "orbits", "is_isomorphic", "export_dot", "export_json"),
    "cli": ("main", "cmd_enumerate", "cmd_verify_catalog", "cmd_convert"),
}
# words functions, counted where these layers call them.
WORDS = ("concat", "reduce", "invert")
WORDS_CALLERS = ("enumerator", "quandle")

COUNTERS = ("created", "unions", "steps", "live", "exceeded")


@dataclass
class Span:
    name: str
    parent: int                  # index into Tracer.spans; -1 for a root
    start: float
    end: float = 0.0
    words_calls: int = 0
    words_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


def graph_counters(graph) -> dict[str, int]:
    """Counters of the TraceGraph that run_schedule received."""
    limits = graph.limits
    return {
        "created": graph.created,
        "unions": graph.unions,
        "steps": graph.steps,
        "live": graph.live_count,
        "exceeded": int(graph.created > limits.max_vertices
                        or graph.steps > limits.max_steps),
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter()))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = perf_counter()

    def _spanned(self, name: str, fn: Callable, on_exit: Callable | None) -> Callable:
        # A generator function is drained inside its span, so the span
        # covers the work and not just the generator's creation.
        drain = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if drain else result
            finally:
                if on_exit is not None:
                    self.spans[index].counters = on_exit(*args)
                self.close(index)

        return wrapper

    def _words(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[stack[-1]]
                span.words_calls += 1
                span.words_s += perf_counter() - start

        return wrapper

    # -- installing ----------------------------------------------------------

    def _rebind(self, fn: object, wrapper: Callable, modules: Iterable[ModuleType]) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the traced functions; ``modules`` maps layer names (and
        the package's own name) to the imported modules."""
        for layer, names in SPANNED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                on_exit = (lambda graph, *_: graph_counters(graph)) \
                    if name == "run_schedule" else None
                self._rebind(fn, self._spanned(f"{layer}.{name}", fn, on_exit),
                             modules.values())
        for name in WORDS:
            fn = getattr(modules["words"], name)
            self._rebind(fn, self._words(fn), [modules[c] for c in WORDS_CALLERS])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """All spans as JSON lines, with their index as ``id``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def layer_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer totals over spans[first:last], one traced pass.

    ``_s`` names are inclusive durations, ``self_s`` names exclude
    child spans and words time.  A layer that did not run reads 0.
    """
    part = spans[first:last]
    duration = [s.end - s.start for s in part]
    children = [0.0] * len(part)
    for i, span in enumerate(part):
        if span.parent >= first:
            children[span.parent - first] += duration[i]
    own = [duration[i] - children[i] - s.words_s for i, s in enumerate(part)]

    def total(values: list[float], match: Callable[[str], bool]) -> float:
        return sum(v for v, s in zip(values, part) if match(s.name))

    def named(*names: str) -> Callable[[str], bool]:
        return lambda n: n in names

    def layer(prefix: str) -> Callable[[str], bool]:
        return lambda n: n.startswith(prefix + ".")

    counts = {c: sum(s.counters.get(c, 0) for s in part) for c in COUNTERS}
    created = counts["created"]
    return {
        "enumerator.sweep_s": total(duration, named("enumerator.run_schedule")),
        "enumerator.self_s": total(own, named("enumerator.enumerate_quandle")),
        **{f"enumerator.{c}": counts[c] for c in COUNTERS},
        "enumerator.live_per_created": counts["live"] / created if created else 0.0,
        "words.self_s": sum(s.words_s for s in part),
        "words.calls": sum(s.words_calls for s in part),
        "quandle.dense_tables_s": total(duration, named("quandle.dense_tables")),
        "quandle.verify_axioms.self_s": total(own, named("quandle.verify_axioms")),
        "quandle.verify_n_relations_s": total(duration, named("quandle.verify_n_relations")),
        "quandle.orbits_s": total(duration, named("quandle.orbits")),
        "quandle.is_isomorphic_s": total(duration, named("quandle.is_isomorphic")),
        "quandle.export_s": total(duration, named("quandle.export_dot", "quandle.export_json")),
        "presentations.self_s": total(own, layer("presentations")),
        "catalog.self_s": total(own, layer("catalog")),
        "cli.self_s": total(own, layer("cli")),
    }
