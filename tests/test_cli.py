"""End-to-end checks of the command line surface."""

import dataclasses
import hashlib
import re
import subprocess
import sys

import pytest

from nquandles import catalog as catalog_module
from nquandles import cli
from nquandles.catalog import CatalogError, iter_checks
from nquandles.cli import main
from nquandles.presentations import (
    FAMILIES,
    TAKES_K,
    DiagramError,
    ParseError,
    PresentationError,
    builtin_family,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- enumerate -----------------------------------------------------------------

def test_enumerate_family(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "T24", "--N", "3,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements: 14"
    assert lines[1] == "N: 3,4"
    assert lines[2].startswith("orbits: 2 (sizes: ")
    assert "verify axioms: ok" in out
    assert err == ""


def test_enumerate_orbit_generator_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "Lk", "--k", "4",
                       "--N", "2,2,3")
    assert code == 0
    assert "orbits: 3 (sizes: 6, 6, 2)" in out
    assert "generators c" in out


def test_enumerate_full_verification(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "T24C",
                       "--verify", "full")
    assert code == 0
    assert "verify full: ok" in out


def test_enumerate_no_verify(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "trefoil", "--N", "3",
                       "--verify", "none")
    assert code == 0
    assert "verify" not in out


def test_enumerate_missing_n(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "T24")
    assert code == 1
    assert "no N values" in err


@pytest.mark.parametrize("family", FAMILIES)
def test_enumerate_every_builtin_family_at_n_all_2(capsys, family):
    # the fuzz draws these names too, but reaches only a few of them
    k = 3 if family in TAKES_K else None
    components = max(builtin_family(family, k=k).component_of)
    code, out, err = run(capsys, "enumerate", "--family", family,
                         *(["--k", str(k)] if k else []), "--N", ",".join(["2"] * components))
    assert (code, err) == (0, "")
    assert "verify axioms: ok" in out


def test_enumerate_unknown_family(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "T99", "--N", "2")
    assert code == 1
    assert "unknown family" in err


def test_enumerate_cap_exceeded(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "trefoil", "--N", "6",
                       "--max-vertices", "10000")
    assert code == 4
    assert out.startswith("exceeded vertices cap (10000)")
    assert out == ("exceeded vertices cap (10000); 10001 vertices created "
                   "before the stop, 10001 live, 135621 steps\n")


def test_a_cap_equal_to_the_generator_count_stops_at_the_first_vertex_a_scan_makes(capsys):
    # the trefoil's two generator vertices fit under a 2-vertex cap, so
    # the run starts, and its first scan stops one step in, on the third vertex
    code, out, err = run(capsys, "enumerate", "--family", "trefoil", "--N", "2",
                         "--max-vertices", "2")
    assert code == 4 and err == ""
    assert out == ("exceeded vertices cap (2); 3 vertices created "
                   "before the stop, 3 live, 1 steps\n")


def test_enumerate_a_free_involution_hits_the_cap(tmp_path, capsys):
    # the 2-component unlink at N=(2,2) is infinite; no relation but its
    # own power reads either generator
    path = tmp_path / "p.txt"
    path.write_text("gens a b\ncomp a:1 b:2\nN 2 2\n")
    code, out, err = run(capsys, "enumerate", "--file", str(path), "--max-vertices", "1000")
    assert code == 4 and err == ""
    assert out == ("exceeded vertices cap (1000); 1001 vertices created "
                   "before the stop, 1001 live, 2999 steps\n")


def test_enumerate_from_file(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens a b\ncomp a:1 b:1\nN 3\n"
                    "rel a^[b a b]=a\nrel b^[a b a]=b\n")
    code, out, _ = run(capsys, "enumerate", "--file", str(path))
    assert code == 0
    assert out.startswith("elements: 8")


def test_enumerate_missing_file(capsys):
    code, _, err = run(capsys, "enumerate", "--file", "/nonexistent/p.txt")
    assert code == 1
    assert "error:" in err


def test_enumerate_parse_error_position(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens a\nrel a^b=a\n")
    code, _, err = run(capsys, "enumerate", "--file", str(path))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("text, where", [
    ("gens a b\nN 0\n", "line 2, col 1: n-values must be positive"),
    ("gens a b\ncomp a:0 b:1\nN 2\n", "line 2, col 6: component index must be positive"),
    ("gens a b\ncomp a:1 b:3\nN 2 2\n", "line 2, col 10: components [2] have no generator"),
    ("gens a b\nN 2 3\n", "line 2, col 1: expected 1 n-values, got 2"),
    ("gens a b; N 2; N 3\n", "line 1, col 16: duplicate N statement"),
    ("gens a; N \u00b2\n", "line 1, col 9: N needs positive integers"),
    ("gens a b\ncomp a:1 b:\u00b2\n", "line 2, col 10: expected name:index"),
])
def test_enumerate_bad_value_position(tmp_path, capsys, text, where):
    path = tmp_path / "p.txt"
    path.write_text(text)
    code, _, err = run(capsys, "enumerate", "--file", str(path))
    assert code == 1
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


# diagrams that only wirtinger refused, with no line or a crossing
# index for a line, or that a repeated key misreported
LINE_FAULTS = [
    ('{"arc_components": {"x0": 1, "1a": 1}}\n', "line 1", "bad arc name '1a'"),
    ('{"arc_components": {"a": 1, "a": 2}}\n', "line 1", "repeated key 'a'"),
    ('{"arc_components": {"a": 1, "b": 1, "c": 1}}\n'
     '{"over": "a", "under_in": "b", "under_out": "c", "sign": "+"}\n'
     '{"over": "b", "under_in": "a", "under_out": "c", "sign": "+"}\n',
     "line 3", "arc 'c' is the outgoing under-arc of two crossings"),
    ('{"arc_components": {"x0": 1, "x1": 2}}\n'
     '{"over": "x0", "under_in": "x0", "under_out": "x1", "sign": "+"}\n',
     "line 2", "under-arcs 'x0' and 'x1' lie on different components"),
]


@pytest.mark.parametrize("text, where", [
    ('{"arc_components": {"x0": "a"}}\n', "line 1"),
    ('{"arc_components": {"x0": 1}}\n'
     '{"over": "x0", "under_in": "x0", "under_out": "x0", "sign": [1]}\n', "line 2"),
    ('{"arc_components": {"x0": 1}}\n'
     '{"over": "x0", "under_in": "x0", "under_out": "x0", "sign": true}\n', "line 2"),
    ('{"arc_components": {"x0": 1.7}}\n', "line 1"),
    ('{"arc_components": {"x0": "2"}}\n', "line 1"),
    ('{"arc_components": {"x0": -1}}\n', "line 1"),
    ('{"arc_components": {"x0": 1, "x1": 3}}\n', "line 1"),
    ('{"arc_components": {}}\n', "line 1"),
    ('{"arc_components": {"x0": 1}}\n'
     '{"over": 0, "under_in": "x0", "under_out": "x0", "sign": "+"}\n', "line 2"),
    ('{"arc_components": {"x0": 1}}\n'
     '{"over": ["x0"], "under_in": "x0", "under_out": "x0", "sign": "+"}\n', "line 2"),
    ('{"over": "x9", "under_in": "x0", "under_out": "x0", "sign": "+"}\n'
     '{"arc_components": {"x0": 1}}\n', "line 1"),
    *[(text, where) for text, where, _ in LINE_FAULTS],
])
def test_enumerate_bad_diagram_field(tmp_path, capsys, text, where):
    path = tmp_path / "d.jsonl"
    path.write_text(text)
    code, out, err = run(capsys, "enumerate", "--diagram", str(path), "--N", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + where + ":")
    assert "Traceback" not in err


def test_enumerate_writes_dot_and_json(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run(capsys, "enumerate", "--family", "T26", "--N", "2,3",
                       "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert f"wrote {dot}" in out
    assert dot.read_text().startswith("digraph quandle {")
    assert js.read_text().startswith("{")


def test_one_parser_serves_every_call_with_its_own_options(tmp_path, monkeypatch, capsys):
    # --verify full and both exports, then the defaults: the second call
    # keeps nothing of the first
    monkeypatch.chdir(tmp_path)
    argvs = (["enumerate", "--family", "T24", "--N", "3,3", "--verify", "full",
              "--dot", "q.dot", "--json", "q.json"],
             ["enumerate", "--family", "T24", "--N", "3,3"])
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    parser = cli._build_parser()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli._build_parser() is parser
    assert fresh[0][1].endswith("verify full: ok\nwrote q.dot\nwrote q.json\n")
    assert fresh[1][1].endswith("verify axioms: ok\n")


def test_enumerate_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--family", "T24", "--N", "x,y"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--family", "trefoil", "--N", "99999999999999999999",
      "--max-steps", "999999999999999999999"],
     f"argument --max-steps: cap 999999999999999999999 is outside 0:{sys.maxsize}"),
    (["--family", "Mk", "--k", "99999999999999999999",
      "--max-steps", "999999999999999999999"],
     f"argument --max-steps: cap 999999999999999999999 is outside 0:{sys.maxsize}"),
    (["--family", "trefoil", "--N", "3", "--max-steps", "-5"],
     f"argument --max-steps: cap -5 is outside 0:{sys.maxsize}"),
    (["--family", "trefoil", "--N", "3", "--max-vertices", "-1"],
     f"argument --max-vertices: cap -1 is outside 0:{sys.maxsize}"),
    (["--family", "trefoil", "--N", "3", "--max-vertices", "1e6"],
     "argument --max-vertices: bad cap '1e6', expected an integer"),
])
def test_a_cap_outside_the_machine_range_is_a_usage_error(capsys, argv, message):
    # refused before any word is built: a cap past sys.maxsize would let
    # an oversized N or k through to be spelled
    with pytest.raises(SystemExit) as err:
        main(["enumerate", *argv])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"nquandles enumerate: error: {message}"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "trefoil", "--N", "0"],
    ["convert", "--braid", "1,1,1", "--strands", "2", "--N", "2,0"],
])
def test_an_n_value_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "argument --N: N values must be positive integers")


@pytest.mark.parametrize("argv, message", [
    (["--n-range", "0:2"], "not 0 in '0:2'"),
    # T24 takes no n, but the option is refused before any row is read
    (["--rows", "T24", "--n-range", "-3:-1"], "not -3 in '-3:-1'"),
])
def test_an_n_range_below_one_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(["verify-catalog", *argv])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"argument --n-range: n values must be positive integers, {message}")


def test_enumerate_source_required():
    with pytest.raises(SystemExit) as err:
        main(["enumerate"])
    assert err.value.code == 2


def test_timing_line_is_marked(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "hopf", "--N", "2,2",
                       "--timing")
    assert code == 0
    assert out.splitlines()[-1].startswith("time:")


@pytest.mark.parametrize("argv, code, last_line", [
    (["convert", "--braid", "1,x", "--strands", "2"], 2,
     "nquandles convert: error: argument --braid: bad braid word '1,x', expected e.g. 1,1,-2"),
    (["convert", "--braid", ",", "--strands", "2"], 2,
     "nquandles convert: error: argument --braid: empty braid word"),
    (["enumerate", "--file", "p.txt", "--k", "3", "--N", "2"], 1,
     "error: --k only applies to --family"),
    (["verify-catalog", "--rows", "T24", "--timing"], 0, re.compile(r"time: \d+\.\d\ds")),
])
def test_refusals_and_the_catalog_timing_line(capsys, argv, code, last_line):
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    captured = capsys.readouterr()
    lines = (captured.out if code == 0 else captured.err).splitlines()
    assert got == code
    if isinstance(last_line, str):
        assert lines[-1] == last_line
    else:
        assert last_line.fullmatch(lines[-1])


def test_stdout_determinism(capsys):
    argv = ["enumerate", "--family", "Mk", "--k", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_enumerate_lists_the_failures_of_full_verification(tmp_path, capsys):
    # a^b = b makes a = b, so both components' generators share one
    # element: one orbit holding two n, and one orbit for two components
    pres = tmp_path / "merged.txt"
    pres.write_text("gens a b; comp a:1 b:2; N 2 3\nrel a^[b]=b\n")
    code, out, err = run(capsys, "enumerate", "--file", str(pres), "--verify", "full",
                         "--json", str(tmp_path / "never.json"))
    assert (code, err) == (3, "")
    assert out.splitlines()[-3:] == [
        "verify full: FAILED",
        "  orbit 0 holds generators with different n (2, 3)",
        "  orbit count 1 != link component count 2",
    ]
    assert not (tmp_path / "never.json").exists()


# main() in a child process whose address space is capped at what it
# holds after its imports plus 200 MiB
CAPPED_MAIN = """
import resource, sys
from nquandles.cli import main
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = (kib << 10) + (200 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_a_table_that_does_not_fit_in_memory_is_an_error_line():
    # Mk k=300 enumerates in a few MB, but its 10,790-element int16
    # operation table needs 233 MB
    argv = [sys.executable, "-c", CAPPED_MAIN, "enumerate", "--family", "Mk", "--k", "300"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.startswith("elements: 10790\n")
    assert proc.stderr == ("error: the operation table of 10790 elements needs 232848200 "
                           "bytes, more than could be allocated; --verify none skips it\n")
    # without verification nothing builds the table
    proc = subprocess.run(argv + ["--verify", "none"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("argv", [
    # a k this large spells relation texts of hundreds of millions of
    # characters
    ["enumerate", "--family", "Lk", "--k", "99999999", "--verify", "none"],
    ["verify-catalog", "--rows", "Mk", "--k-range=99999999:99999999"],
    ["enumerate", "--family", "Mk", "--k", "99999999", "--verify", "none"],
])
def test_running_out_of_memory_is_an_error_line(argv):
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("argv, out", [
    (["enumerate", "--family", "Lk", "--k", "1", "--N", "2,99999999"],
     "exceeded vertices cap (100000); 100001 vertices created before the stop, "
     "100001 live, 100002 steps\n"),
    (["verify-catalog", "--rows", "Lk", "--k-range=1:1", "--n-range", "99999999:99999999"],
     "FAIL Lk k=1 N=(2, 99999999): want 100000001 got exceeded vertices cap\n"
     "checks: 1 total, 0 ok, 1 failed\n"),
    (["enumerate", "--family", "trefoil", "--N", "3000000"],
     "exceeded vertices cap (100000); 100001 vertices created before the stop, "
     "100001 live, 3100003 steps\n"),
], ids=["enumerate-Lk", "verify-catalog-Lk", "enumerate-trefoil"])
def test_a_huge_n_stops_at_the_vertex_cap_in_bounded_memory(argv, out):
    # a power relation is the run (code, n), never n spelled letters, so
    # an n of 10^8 runs within the same address-space cap to the vertex
    # cap
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, out, "")


# --- verify-catalog --------------------------------------------------------------

# sha256 of the default sweep's stdout: any change to a check's label,
# order, value or result shows here.
DEFAULT_SWEEP_DIGEST = "f7d8cd19b82cf507788947a54fd62d157532b1cffadbcdbe6eb13959db870ecd"


def test_verify_catalog_default_sweep_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify-catalog")
    assert code == 0
    assert out.splitlines()[-1] == "checks: 93 total, 93 ok, 0 failed"
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_SWEEP_DIGEST


def test_verify_catalog_rows(capsys):
    code, out, _ = run(capsys, "verify-catalog", "--rows", "T24")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok   T24 N=(3, 3): 8"
    assert lines[-1] == "checks: 3 total, 3 ok, 0 failed"


def test_verify_catalog_builds_only_the_rows_it_selects(capsys, monkeypatch):
    built = []

    def recording(family, k=None):
        built.append((family, k))
        return builtin_family(family, k=k)

    monkeypatch.setattr(catalog_module, "builtin_family", recording)
    code, out, _ = run(capsys, "verify-catalog", "--rows", "Mk", "--k-range=1:1")
    assert code == 0
    assert out == "ok   Mk k=1 N=(2, 3): 26\nchecks: 1 total, 1 ok, 0 failed\n"
    assert built == [("Mk", 1)]


@pytest.mark.parametrize("k_range, tampered, code, out", [
    # Mk k=3 creates 295 vertices for its 98 elements
    ("3:3", None, 4,
     "FAIL Mk k=3 N=(2, 3): want 98 got exceeded vertices cap\n"
     "checks: 1 total, 0 ok, 1 failed\n"),
    # Mk k=1 closes at 43 vertices, but its row now wants 27
    ("1:3", 1, 3,
     "FAIL Mk k=1 N=(2, 3): want 27 got 26\n"
     "FAIL Mk k=2 N=(2, 3): want 62 got exceeded vertices cap\n"
     "FAIL Mk k=3 N=(2, 3): want 98 got exceeded vertices cap\n"
     "checks: 3 total, 0 ok, 3 failed\n"),
    ("1:1", 1, 3, "FAIL Mk k=1 N=(2, 3): want 27 got 26\nchecks: 1 total, 0 ok, 1 failed\n"),
], ids=["cap-stop", "cap-stop-and-mismatch", "mismatch"])
def test_verify_catalog_exits_4_when_every_failure_is_a_cap_stop(capsys, monkeypatch, k_range,
                                                                  tampered, code, out):
    def tampering(**kwargs):
        for check in iter_checks(**kwargs):
            wrong = check.label.startswith(f"k={tampered} ")
            yield dataclasses.replace(check, expected=check.expected + 1) if wrong else check

    monkeypatch.setattr(cli, "iter_checks", tampering)
    assert run(capsys, "verify-catalog", "--rows", "Mk", f"--k-range={k_range}",
               "--max-vertices", "100") == (code, out, "")


@pytest.mark.parametrize("caps, code, line", [
    ([], 0, "ok   Mk k=30 N=(2, 3): 1070"),
    # Mk k=30 creates 2463 vertices and scans 58,114 letters for its 1070
    # elements; its last merge is done by step 49,803, so a cap of 58,000
    # stops it in the scans that follow
    (["--max-vertices", "2000"], 4, "FAIL Mk k=30 N=(2, 3): want 1070 got exceeded vertices cap"),
    (["--max-steps", "58000"], 4, "FAIL Mk k=30 N=(2, 3): want 1070 got exceeded steps cap"),
], ids=["default", "vertex-cap", "step-cap"])
def test_verify_catalog_takes_the_caps_of_enumerate(capsys, caps, code, line):
    got, out, err = run(capsys, "verify-catalog", "--rows", "Mk", "--k-range=30:30", *caps)
    assert (got, err) == (code, "")
    assert out.splitlines()[0] == line


def test_verify_catalog_refuses_a_k_past_its_own_step_cap(capsys):
    # the k check reads --max-steps, not the default step cap
    code, out, err = run(capsys, "verify-catalog", "--rows", "Mk", "--k-range=30:30",
                         "--max-steps", "20")
    assert (code, out) == (1, "")
    assert err.startswith("error: k 30 exceeds the step cap 20")


def test_verify_catalog_unknown_row(capsys):
    code, _, err = run(capsys, "verify-catalog", "--rows", "T99")
    assert code == 1
    assert "no catalog row" in err


def test_verify_catalog_k_range(capsys):
    code, out, _ = run(capsys, "verify-catalog", "--rows", "Mk",
                       "--k-range", "0:2")
    assert code == 0
    assert "checks: 3 total, 3 ok, 0 failed" in out


def test_verify_catalog_range_value_may_start_with_a_dash(capsys):
    _, joined, _ = run(capsys, "verify-catalog", "--rows", "Mk", "--k-range=-3:3")
    code, spaced, err = run(capsys, "verify-catalog", "--rows", "Mk", "--k-range", "-3:3")
    assert code == 0
    assert err == ""
    assert spaced == joined
    assert spaced.endswith("checks: 7 total, 7 ok, 0 failed\n")


@pytest.mark.parametrize("argv, message", [
    (["--k-range", "x"], "argument --k-range: bad range 'x', expected e.g. -6:6"),
    (["--k-range=x"], "argument --k-range: bad range 'x', expected e.g. -6:6"),
    (["--n-range", "-2:"], "argument --n-range: bad range '-2:', expected e.g. -6:6"),
    (["--k-range"], "argument --k-range: expected one argument"),
])
def test_verify_catalog_malformed_range(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify-catalog", "--rows", "Mk", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("argv, message", [
    (["--k-range", "3:-3"], "argument --k-range: reversed range '3:-3': 3 > -3"),
    (["--n-range", "5:2"], "argument --n-range: reversed range '5:2': 5 > 2"),
])
@pytest.mark.parametrize("rows", [[], ["--rows", "Mk"]], ids=["all-rows", "Mk"])
def test_verify_catalog_reversed_range_is_a_usage_error(capsys, rows, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify-catalog", *rows, *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("k_range", ["99999999999999999999", "-99999999999999999999:3"])
def test_verify_catalog_refuses_a_k_past_the_step_cap(capsys, k_range):
    code, out, err = run(capsys, "verify-catalog", "--rows", "Mk", f"--k-range={k_range}")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: k {k_range.split(':')[0]} exceeds the step cap 100000000")


def test_verify_catalog_empty_selection(capsys):
    code, out, err = run(capsys, "verify-catalog", "--rows", "Mk",
                         "--k-range", "1:0")
    assert (code, out, err) == (1, "", "error: no checks selected\n")


# --- oversized parameters and undecodable files --------------------------------------

@pytest.mark.parametrize("family, extra", [("Mk", []), ("T2k", ["--N", "3"])])
def test_enumerate_refuses_a_k_past_the_step_cap(capsys, family, extra):
    code, out, err = run(capsys, "enumerate", "--family", family,
                         "--k", "99999999999999999999", *extra)
    assert code == 1
    assert out == ""
    assert err == ("error: k 99999999999999999999 exceeds the step cap 100000000: "
                   "its relation words could not be scanned\n")
    code, _, err = run(capsys, "enumerate", "--family", family, "--k", "-31",
                       "--max-steps", "30", *extra)
    assert (code, err.split(":")[:2]) == (1, ["error", " k -31 exceeds the step cap 30"])


def test_enumerate_closes_below_a_step_cap_its_full_sweep_breaks(capsys):
    # the sweep ends with the seal's audit at 58,114 steps, before the
    # cap; swept to its last label it stopped at 150,001
    code, out, err = run(capsys, "enumerate", "--family", "Mk", "--k", "30",
                         "--max-steps", "150000")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "elements: 1070"


def test_enumerate_stops_on_a_power_past_the_step_cap(tmp_path, capsys):
    # the power relation is never spelled: the run stops at its first
    # scan, as it would after scanning all 10^20 letters
    code, out, err = run(capsys, "enumerate", "--family", "trefoil",
                         "--N", "99999999999999999999")
    assert (code, err) == (4, "")
    assert out == ("exceeded steps cap (100000000); 4 vertices created before "
                   "the stop, 4 live, 100000001 steps\n")
    pres = tmp_path / "big.txt"
    pres.write_text("gens a\nN 99999999999999999999\n")
    code, out, err = run(capsys, "enumerate", "--file", str(pres), "--max-steps", "1000")
    assert (code, err) == (4, "")
    assert out == ("exceeded steps cap (1000); 1 vertices created before "
                   "the stop, 1 live, 1001 steps\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--file"], ["enumerate", "--diagram"], ["convert", "--diagram"],
])
def test_a_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"gens a\n\xff\xfe")
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text at byte offset 7\n"


# --- convert ----------------------------------------------------------------------

# a braid gives one generator per strand, a diagram one per arc
TREFOIL_BRAID_PRESENTATION = """gens a b
comp a:1 b:1
N 4
rel b^[a b]=a
rel a^[b a]=b
"""

TREFOIL_PRESENTATION = """gens x0 x1 x2
comp x0:1 x1:1 x2:1
N 4
rel x1^[x0]=x2
rel x0^[x2]=x1
rel x2^[x1]=x0
"""


def test_convert_braid_to_presentation(capsys):
    code, out, _ = run(capsys, "convert", "--braid", "1,1,1", "--strands", "2",
                       "--N", "4")
    assert code == 0
    assert out == TREFOIL_BRAID_PRESENTATION


def test_convert_braid_word_may_start_with_a_dash(capsys):
    _, joined, _ = run(capsys, "convert", "--braid=-1,-1,-1", "--strands", "2")
    code, spaced, err = run(capsys, "convert", "--braid", "-1,-1,-1", "--strands", "2")
    assert (code, err) == (0, "")
    assert spaced == joined == ("gens a b\ncomp a:1 b:1\n"
                                "rel b^[a' b']=a\nrel a^[b' a']=b\n")


def test_convert_round_trip_through_diagram(tmp_path, capsys):
    diag = tmp_path / "t.diag"
    code, _, _ = run(capsys, "convert", "--braid", "1,1,1", "--strands", "2",
                     "--to", "diagram", "-o", str(diag))
    assert code == 0
    code, out, _ = run(capsys, "convert", "--diagram", str(diag), "--N", "4")
    assert code == 0
    assert out == TREFOIL_PRESENTATION


def test_convert_feeds_enumerate(tmp_path, capsys):
    pres = tmp_path / "t.txt"
    code, _, _ = run(capsys, "convert", "--braid", "1,1,1,1,1", "--strands", "2",
                     "--N", "2", "-o", str(pres))
    assert code == 0
    code, out, _ = run(capsys, "enumerate", "--file", str(pres))
    assert code == 0
    assert out.startswith("elements: 5")  # closed 5-crossing 2-braid at n=2


def test_convert_braid_needs_strands(capsys):
    code, _, err = run(capsys, "convert", "--braid", "1,1")
    assert code == 1
    assert "--strands" in err


@pytest.mark.parametrize("to", ["presentation", "diagram"])
@pytest.mark.parametrize("strands", ["100001", "100000000000"])
def test_convert_refuses_more_strands_than_the_vertex_cap(capsys, to, strands):
    # refused before a list of strand positions is built
    code, out, err = run(capsys, "convert", "--braid", "1", "--strands", strands, "--to", to)
    assert (code, out) == (1, "")
    assert err == (f"error: {strands} strands exceed the vertex cap 100000: "
                   "each strand needs a vertex\n")


def test_convert_bad_braid_letter(capsys):
    code, _, err = run(capsys, "convert", "--braid", "3", "--strands", "2")
    assert code == 1
    assert "out of range" in err


def test_convert_bad_braid_letter_to_diagram(capsys):
    code, _, err = run(capsys, "convert", "--braid", "1,-2", "--strands", "2",
                       "--to", "diagram")
    assert code == 1
    assert "braid letter -2 out of range" in err


@pytest.mark.parametrize("text, where, reason", LINE_FAULTS)
def test_convert_to_diagram_refuses_a_bad_crossing_at_its_line(tmp_path, capsys, text, where,
                                                              reason):
    path = tmp_path / "d.jsonl"
    path.write_text(text)
    code, out, err = run(capsys, "convert", "--diagram", str(path), "--to", "diagram")
    assert (code, out) == (1, "")
    assert err == f"error: {where}: {reason}\n"


def test_convert_n_only_for_presentations(capsys):
    code, _, err = run(capsys, "convert", "--braid", "1", "--strands", "2",
                       "--to", "diagram", "--N", "2")
    assert code == 1
    assert "--N" in err


# files the refused inputs below read, in the working directory
REFUSED_FILES = {
    "bad.txt": b"gens a b\nN 0\n",
    "bad.jsonl": b'{"arc_components": {"x": 1}}\n'
                 b'{"over": "y", "under_in": "x", "under_out": "x", "sign": "+"}\n',
    "latin1.txt": b"gens \xe9\n",
}


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--family", "T24"], "presentation has no N values; pass --N"),
    (["convert", "--braid", "1,1,1"], "--braid needs --strands"),
    (["convert", "--braid", "1,1,1", "--strands", "2", "--to", "diagram", "--N", "2"],
     "--N only applies to presentation output"),
    # one input per class main refuses: ParseError, DiagramError,
    # CatalogError, PresentationError, then OSError twice
    (["enumerate", "--file", "bad.txt"], "line 2, col 1: n-values must be positive"),
    (["enumerate", "--diagram", "bad.jsonl", "--N", "2"],
     "line 2: arc 'y' not in arc_components"),
    (["verify-catalog", "--rows", "Nope"], "no catalog row 'Nope'"),
    (["enumerate", "--family", "T99", "--N", "2"], "unknown family 'T99'"),
    (["enumerate", "--file", "missing.txt"],
     "[Errno 2] No such file or directory: 'missing.txt'"),
    (["enumerate", "--file", "latin1.txt"], "latin1.txt: not UTF-8 text at byte offset 5"),
    (["convert", "--braid", "1,5", "--strands", "2"], "position 2: braid letter 5 out of range"),
    (["enumerate", "--family", "T99", "--k", "3", "--N", "2"], "unknown family 'T99'"),
    # the name, and a k its family does not take, are refused before the
    # k is held against the step cap
    (["enumerate", "--family", "T99", "--k", "3", "--N", "2", "--max-steps", "2"],
     "unknown family 'T99'"),
    (["enumerate", "--family", "T24", "--k", "3", "--N", "2", "--max-steps", "2"],
     "family T24 takes no k"),
    # T2k and Lk are one row each; their parity rows are gone
    (["verify-catalog", "--rows", "T2k-odd"], "no catalog row 'T2k-odd'"),
])
def test_a_refused_option_combination_is_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    monkeypatch.chdir(tmp_path)
    for name, data in REFUSED_FILES.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("error", [ParseError, DiagramError, CatalogError])
def test_every_input_refusal_is_a_presentation_error(error):
    # main prints each as one error line, in one except clause
    assert issubclass(error, PresentationError)


# --- installed entry point ----------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nquandles.cli", "enumerate",
         "--family", "T24", "--N", "3,3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("elements: 8")


def test_console_script_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "nquandles.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
