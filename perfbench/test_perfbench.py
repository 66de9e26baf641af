"""Self-tests of the benchmark, each workload at its smallest size.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import clock
import run
import workloads
from workloads import FAILED, OK, WRONG

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero where their layer runs.
LAYER_RUNS = {
    "catalog-sweep": ("enumerator.sweep_s", "enumerator.created", "words.calls",
                      "presentations.self_s", "catalog.self_s"),
    "verify-mk": ("quandle.dense_tables_s", "quandle.verify_axioms.self_s",
                  "quandle.verify_n_relations_s", "quandle.orbits_s",
                  "quandle.is_isomorphic_s", "quandle.export_s", "cli.self_s",
                  "words.self_s"),
    "close-mk": ("enumerator.sweep_s", "enumerator.self_s", "enumerator.steps",
                 "enumerator.live_per_created"),
    "diverge-cap": ("enumerator.exceeded", "enumerator.unions"),
}


@pytest.fixture
def speed():
    with clock.SpeedClock() as opened:
        yield opened


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def units(line: str) -> dict[str, str]:
    return {name: m["unit"] for name, m in json.loads(line)["metrics"].items()}


def test_declaration_matches_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_size_reports_every_metric(workload, speed):
    setup_times, ops = run.setup(workload, 3, speed, smallest=True)
    measured = run.measure(ops, 0, speed)
    assert measured.verdicts == [OK] * len(ops)
    line = run.result_line(True, measured, run.end_to_end(setup_times, measured),
                           run.END_TO_END)
    assert units(line) == declared("end_to_end")
    assert all(m["value"] > 0 for m in json.loads(line)["metrics"].values())

    result = run.traced(lambda modules: run.generate(modules, workload, 3, True), 0, ops, speed)
    assert result.repeated and result.run.failed == 0
    line = run.result_line(True, result.run, result.metrics, run.PER_LAYER)
    assert units(line) == declared("per_layer")
    for name in LAYER_RUNS[workload]:
        assert result.metrics[name] > 0, name


def test_same_seed_same_inputs(speed):
    labels = [[op.label for op in run.setup("catalog-sweep", 5, speed)[1]] for _ in range(2)]
    assert labels[0] == labels[1]
    assert labels[0] != [op.label for op in run.setup("catalog-sweep", 6, speed)[1]]


def test_wrong_answers_are_failed_ops(speed):
    _, ops = run.setup("catalog-sweep", 1, speed, smallest=True)
    _, (mk,) = run.setup("verify-mk", 1, speed, smallest=True)
    text, size = mk.expected

    def boom(expected):
        raise RuntimeError("boom")

    bad = [
        dataclasses.replace(ops[0], expected=ops[0].expected + 1),
        dataclasses.replace(mk, expected=(text.replace("verify full: ok", "verify full: FAILED"), size)),
        dataclasses.replace(ops[1], run=boom),
    ]
    measured = run.measure(bad + ops[2:], 0, speed)
    assert measured.verdicts == [WRONG] * 3 + [OK] * (len(ops) - 2)
    line = json.loads(run.result_line(False, measured,
                                      run.end_to_end([0.1], measured), run.END_TO_END))
    assert line["failed"] == 3 and line["attempted"] == len(ops) + 1
    assert line["metrics"]["ok_ratio"]["value"] == (len(ops) - 2) / (len(ops) + 1)


def test_cap_on_a_finite_input_is_failed_not_wrong():
    assert workloads._verdict(None, (62, 2)) == FAILED
    assert workloads._verdict((61, 2), (62, 2)) == WRONG
    assert workloads._verdict((62, 2), (62, 2)) == OK


def test_mk30_counters_repeat_and_match_the_roadmap_baseline(speed):
    """ROADMAP's measured baseline: Mk k=30 creates 51,455 vertices in
    2,141,331 steps and keeps 1070."""
    def make_ops(modules):
        return workloads.close_mk(SimpleNamespace(**modules), ks=(30,))

    runs = [run.traced(make_ops, 0, make_ops(run.import_package()), speed) for _ in range(2)]
    counters = [r.op_counters["op Mk k=30"] for r in runs]
    assert counters[0] == counters[1]
    assert counters[0]["created"] == 51_455
    assert counters[0]["steps"] == 2_141_331
    assert counters[0]["live"] == 1070
    assert counters[0]["exceeded"] == 0
    assert runs[0].metrics["enumerator.created"] == 51_455


def test_spans_nest_and_write_out(tmp_path, speed):
    def make_ops(modules):
        return run.generate(modules, "verify-mk", 1, True)

    result = run.traced(make_ops, 0, make_ops(run.import_package()), speed)
    spans = result.tracer.spans
    names = {s.name for s in spans}
    assert {"cli.main", "cli.cmd_enumerate", "quandle.verify_all",
            "quandle.verify_axioms", "quandle.dense_tables"} <= names
    parent_of = {s.name: spans[s.parent].name for s in spans if s.parent >= 0}
    assert parent_of["quandle.dense_tables"] == "quandle.verify_axioms"
    assert parent_of["quandle.verify_axioms"] == "quandle.verify_all"
    assert all(s.start <= s.end for s in spans)
    path = tmp_path / "trace.jsonl"
    result.tracer.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(spans)
    assert set(lines[0]) >= {"id", "name", "parent", "start", "end"}


def test_reference_speed_times_cpu_work(speed):
    """A busy loop is timed in CPU time less the samples taken inside it,
    scaled by the sampled speed; the timer stops when the clock closes."""
    for _ in range(20):
        clock.reference()
    mark = speed.mark()
    for _ in range(3000):
        clock.reference()
    cpu, scaled = speed.since(mark)
    assert len(speed.speeds) > mark[1]
    assert cpu > 0 and scaled > 0
    low, high = min(speed.speeds), max(speed.speeds)
    assert low * cpu <= scaled <= high * cpu
    speed.__exit__(None, None, None)
    count = len(speed.speeds)
    for _ in range(3000):
        clock.reference()
    assert len(speed.speeds) == count


def test_fails_without_the_package(tmp_path):
    """A directory holding only the benchmark exits nonzero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "close-mk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
