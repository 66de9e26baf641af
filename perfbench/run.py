"""nquandles benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload close-mk --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and described in README.md.
Everything runs in this one process, against the package under
``src/``.  Set-up (fresh import of the package, catalog load and input
generation) runs several times and ``setup_s`` is its median.  The run
then measures whole cycles, each op of the workload once per cycle, and
starts another cycle only while it is expected to end within
``--seconds``; there is always at least one.  Set-up and ops are timed
at a fixed reference speed of the machine (``clock.py``); the wall-clock
figures are printed on a text line.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` times one untraced cycle, then repeats traced passes (a
fresh set-up and a cycle, with every public function of the package
wrapped in a span) and prints the per-layer metrics: times are medians
over passes, counters must repeat exactly from pass to pass.  The spans
are written to ``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object: correct (no op gave a
wrong answer and the counters repeated), attempted and failed op
counts, and the metrics with their units.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, thread_time
from types import ModuleType, SimpleNamespace
from typing import Callable

import clock
import tracing
import workloads
from workloads import OK, WRONG

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = "nquandles"
LAYERS = ("words", "presentations", "catalog", "enumerator", "quandle", "cli")
SETUP_REPEATS = 11
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "elements_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "enumerator.sweep_s": "s",
    "enumerator.self_s": "s",
    "enumerator.created": "count",
    "enumerator.unions": "count",
    "enumerator.steps": "count",
    "enumerator.live": "count",
    "enumerator.live_per_created": "ratio",
    "enumerator.exceeded": "count",
    "words.self_s": "s",
    "words.calls": "count",
    "quandle.dense_tables_s": "s",
    "quandle.verify_axioms.self_s": "s",
    "quandle.verify_n_relations_s": "s",
    "quandle.orbits_s": "s",
    "quandle.is_isomorphic_s": "s",
    "quandle.export_s": "s",
    "presentations.self_s": "s",
    "catalog.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


# -- set-up --------------------------------------------------------------------

def import_package() -> dict[str, ModuleType]:
    """Import the package afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {PACKAGE: importlib.import_module(PACKAGE)}
    if not Path(modules[PACKAGE].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"{PACKAGE} was imported from outside {SRC}")
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
    return modules


def generate(modules: dict[str, ModuleType], workload: str, seed: int,
             smallest: bool) -> list[workloads.Op]:
    """Catalog load and input generation."""
    m = SimpleNamespace(**modules)
    m.catalog.catalog()
    return workloads.build(workload, seed, m, OUT, smallest)


def setup(workload: str, seed: int, speed: clock.SpeedClock, smallest: bool = False):
    """Set up SETUP_REPEATS times; returns the times at reference speed
    and the last ops."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        modules = import_package()
        ops = generate(modules, workload, seed, smallest)
        times.append(speed.since(mark)[1])
    return times, ops


# -- measuring -----------------------------------------------------------------

@dataclass
class Measured:
    op_s: list[float] = field(default_factory=list)       # at reference speed
    op_wall_s: list[float] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    elements_at: list[int] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)    # at reference speed
    cycle_wall_s: list[float] = field(default_factory=list)

    def add(self, other: "Measured") -> None:
        for name in vars(self):
            getattr(self, name).extend(getattr(other, name))

    @property
    def failed(self) -> int:
        return sum(v != OK for v in self.verdicts)


def run_op(op: workloads.Op) -> tuple[str, int]:
    """An op that raises is a wrong answer, reported with its traceback."""
    try:
        return op()
    except Exception:
        print(f"op {op.label} raised:", file=sys.stderr)
        traceback.print_exc()
        return WRONG, 0


def measure(ops: list[workloads.Op], seconds: float, speed: clock.SpeedClock,
            tracer: tracing.Tracer | None = None) -> Measured:
    """Whole cycles over ``ops`` while the next is expected to end within
    ``seconds`` of wall time; at least one.  With a tracer, each op is a
    root span."""
    gc.collect()
    out = Measured()
    start = perf_counter()
    while True:
        cycle_start, cycle_s = perf_counter(), 0.0
        for op in ops:
            root = tracer.open(f"op {op.label}") if tracer else None
            op_start, mark = perf_counter(), speed.mark()
            verdict, elements = run_op(op)
            out.op_s.append(speed.since(mark)[1])
            out.op_wall_s.append(perf_counter() - op_start)
            cycle_s += out.op_s[-1]
            if tracer:
                tracer.close(root)
            out.verdicts.append(verdict)
            out.labels.append(op.label)
            out.elements_at.append(elements if verdict == OK else 0)
        now = perf_counter()
        out.cycle_s.append(cycle_s)
        out.cycle_wall_s.append(now - cycle_start)
        if now - start + out.cycle_wall_s[-1] > seconds:
            return out


def per_op(run: Measured) -> dict[str, tuple[float, int]]:
    """Each op's median time over the run's cycles, and its elements."""
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(run.labels):
        by_label.setdefault(label, []).append(i)
    return {label: (statistics.median(run.op_s[i] for i in idx),
                    statistics.median_low(run.elements_at[i] for i in idx))
            for label, idx in by_label.items()}


def end_to_end(setup_times: list[float], run: Measured) -> dict[str, float]:
    """Times and rates come from each op's median over the run's cycles,
    at reference speed: a cycle's worth of ops, each at its median."""
    attempted = len(run.verdicts)
    ops = per_op(run)
    cycle_s = sum(s for s, _ in ops.values())
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ops) / cycle_s,
        "op_p50_s": statistics.median(s for s, _ in ops.values()),
        "elements_per_s": sum(e for _, e in ops.values()) / cycle_s,
        "ok_ratio": (attempted - run.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail(op_s: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(op_s)
    for p in TAIL_PERCENTILES:
        beyond = len(ordered) - int(len(ordered) * p / 100)
        if beyond > 10:
            return p, ordered[len(ordered) - beyond]
    return None


# -- tracing -------------------------------------------------------------------

@dataclass
class Traced:
    run: Measured
    metrics: dict[str, float]
    op_counters: dict[str, dict[str, int]]
    repeated: bool
    tracer: tracing.Tracer


def _op_counters(spans: list[tracing.Span], first: int, last: int) -> dict[str, dict[str, int]]:
    """Enumerator counters summed under each root span of one pass."""
    root_of: dict[int, int] = {}
    out: dict[str, dict[str, int]] = {}
    for i in range(first, last):
        parent = spans[i].parent
        root_of[i] = i if parent < 0 else root_of[parent]
        if spans[i].counters:
            tally = out.setdefault(spans[root_of[i]].name, dict.fromkeys(tracing.COUNTERS, 0))
            for key, value in spans[i].counters.items():
                tally[key] += value
    return out


def traced(make_ops: Callable[[dict[str, ModuleType]], list[workloads.Op]],
           seconds: float, ops: list[workloads.Op], speed: clock.SpeedClock) -> Traced:
    """One untraced cycle of ``ops``, then traced passes while time allows
    (at least one).  A pass imports the package afresh and traces
    ``make_ops`` (the input generation) and one cycle over its ops."""
    start = perf_counter()
    untraced = measure(ops, 0, speed)
    tracer = tracing.Tracer()
    run, passes = Measured(), []
    while True:
        pass_start = perf_counter()
        modules = import_package()
        first = len(tracer.spans)
        tracer.install(modules)
        try:
            root = tracer.open("setup")
            pass_ops = make_ops(modules)
            tracer.close(root)
            run.add(measure(pass_ops, 0, speed, tracer))
        finally:
            tracer.uninstall()
        passes.append((first, len(tracer.spans)))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    per_pass = [tracing.layer_metrics(tracer.spans, a, b) for a, b in passes]
    counts = [_op_counters(tracer.spans, a, b) for a, b in passes]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(run.cycle_s) / untraced.cycle_s[0]
    run.add(untraced)
    return Traced(run, metrics, counts[0], all(c == counts[0] for c in counts), tracer)


# -- command line --------------------------------------------------------------

def result_line(correct: bool, run: Measured, metrics: dict[str, float],
                units: dict[str, str]) -> str:
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and their declaration differ: {sorted(missing)}")
    return json.dumps({
        "correct": correct,
        "attempted": len(run.verdicts),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def report(workload: str, seed: int, run: Measured) -> None:
    """Human-readable lines: each op's verdicts and median times, the
    wall-clock rate and the tail."""
    print(f"workload {workload} seed {seed}: {len(run.verdicts)} ops "
          f"in {len(run.cycle_s)} cycles, {run.failed} failed")
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(run.labels):
        by_label.setdefault(label, []).append(i)
    if len(by_label) <= 10:
        for label, idx in by_label.items():
            verdicts = sorted({run.verdicts[i] for i in idx})
            median = statistics.median(run.op_s[i] for i in idx)
            wall = statistics.median(run.op_wall_s[i] for i in idx)
            print(f"  {label}: {'/'.join(verdicts)}, median {median:.4f} s at reference "
                  f"speed, {wall:.4f} s wall, over {len(idx)}")
    print(f"wall clock: {len(run.verdicts) / sum(run.cycle_wall_s):.4f} ops/s, "
          f"{sum(run.cycle_s) / sum(run.cycle_wall_s):.3f} s at reference speed per s; "
          f"process CPU {process_time():.2f} s, main thread {thread_time():.2f} s")
    found = tail(run.op_s)
    if found is not None:
        p, value = found
        print(f"op_tail_s: p{p:g} = {value:.4f} s over {len(run.op_s)} ops")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    with clock.SpeedClock() as speed:
        setup_times, ops = setup(args.workload, args.seed, speed)
        if not args.trace:
            run = measure(ops, args.seconds, speed)
        else:
            result = traced(lambda modules: generate(modules, args.workload, args.seed, False),
                            args.seconds, ops, speed)
    if not args.trace:
        report(args.workload, args.seed, run)
        wrong = WRONG in run.verdicts
        print(result_line(not wrong, run, end_to_end(setup_times, run), END_TO_END))
        return 0

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    result.tracer.write(trace_path)
    report(args.workload, args.seed, result.run)
    for label, counters in list(result.op_counters.items())[:10]:
        print(f"  counters {label}: " + " ".join(f"{k}={v}" for k, v in counters.items()))
    if not result.repeated:
        print("counters differ between traced passes")
    print(f"spans: {len(result.tracer.spans)} written to {trace_path}")
    correct = WRONG not in result.run.verdicts and result.repeated
    print(result_line(correct, result.run, result.metrics, PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
