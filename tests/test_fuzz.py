"""Property tests of the text formats and the command line: each parser
raises only its own error, printing then parsing gives back what was
printed, and the CLI exits with a documented code and no traceback.

Examples are drawn deterministically and kept small (at most 6 strands,
n at most 5, caps at most 2,000), so no run asks for a big allocation.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nquandles.cli import main
from nquandles.presentations import (
    FAMILIES,
    Crossing,
    Diagram,
    DiagramError,
    ParseError,
    Presentation,
    PrimaryRelation,
    closed_braid_diagram,
    parse_diagram,
    parse_presentation,
    print_diagram,
    print_presentation,
)
from nquandles.words import reduce

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=50)

NAMES = st.builds("{}{}".format, st.sampled_from("abxAZ"), st.sampled_from(["", "1", "_b", "N0"]))
# characters of both grammars and a few outside them
CHARS = st.text(alphabet="abcNz019²é \t\n'^[]=:;#{}\",-+_", max_size=40)
SNIPPETS = ["", " ", "'", "x", "a", "0", "9", "12", "²", ":", ";", "#", "\n", "[", "]", "=",
            "^", '"', "{", "}", ",", "-1", "true", "null", "[]", '"+"', '"1a"']


def components(draw, count):
    """Components 1..m, each used at least once, for ``count`` items."""
    m = draw(st.integers(1, count))
    extra = draw(st.lists(st.integers(1, m), min_size=count - m, max_size=count - m))
    return m, draw(st.permutations(list(range(1, m + 1)) + extra))


@st.composite
def mutants(draw, text):
    """text with a snippet of either grammar written over at most two
    of its characters, or inserted."""
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(SNIPPETS)) + text[i + draw(st.integers(0, 2)):]


# --- presentation text -------------------------------------------------------------

@st.composite
def presentations(draw):
    g = draw(st.integers(1, 5))
    names = draw(st.lists(NAMES, min_size=g, max_size=g, unique=True))
    m, comps = components(draw, g)
    n_values = draw(st.none() | st.tuples(*[st.integers(1, 5)] * m))
    letter = st.integers(0, 2 * g - 1)  # a letter code: 2*gen, or 2*gen + 1 for its inverse
    relations = draw(st.lists(st.builds(
        PrimaryRelation, st.integers(0, g - 1), st.lists(letter, max_size=6).map(reduce),
        st.integers(0, g - 1)), max_size=4))
    return Presentation(tuple(names), tuple(comps), n_values, tuple(relations))


TOKENS = st.sampled_from([
    "a", "b", "c", "x1", "N", "rel", "a'", "b'", "1a", "é", "0", "2", "3", "5", "²", "-1",
    "a:1", "b:2", "c:0", "a:", ":1", "a:1:1", "#", ";", "^", "a^[b]=a", "a^[]=b", "a^[b"])
RELATIONS = st.builds("{}^[{}]={}".format, st.sampled_from("abcz"),
                      st.lists(st.sampled_from(["a", "b'", "c", "a'", "q"]), max_size=4)
                      .map(" ".join), st.sampled_from("abcz"))
STATEMENTS = st.builds(
    " ".join, st.tuples(st.sampled_from(["gens", "comp", "N", "rel", "gen", ""]),
                        st.lists(TOKENS | RELATIONS, max_size=4).map(" ".join)))
PRESENTATION_TEXT = (CHARS | st.lists(STATEMENTS, max_size=6).map("\n".join)
                     | presentations().map(print_presentation).flatmap(mutants))


@FUZZ
@given(PRESENTATION_TEXT)
def test_parse_presentation_raises_only_parse_errors(text):
    try:
        parse_presentation(text)
    except ParseError:
        pass


@FUZZ
@given(presentations())
def test_presentation_round_trips_through_its_text(p):
    assert parse_presentation(print_presentation(p)) == p


# --- diagram text ------------------------------------------------------------------

@st.composite
def diagrams(draw):
    """Diagrams that parse: every outgoing under-arc used once, on the
    component of its incoming under-arc."""
    arcs = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    component = dict(zip(arcs, components(draw, len(arcs))[1]))
    outs = draw(st.permutations(arcs))[:draw(st.integers(0, len(arcs)))]
    return Diagram(tuple(
        Crossing(draw(st.sampled_from(arcs)),
                 draw(st.sampled_from([a for a in arcs if component[a] == component[out]])),
                 out, draw(st.sampled_from((1, -1))))
        for out in outs), component)


BRAIDS = st.integers(2, 6).flatmap(lambda s: st.tuples(
    st.lists(st.sampled_from([e * i for i in range(1, s) for e in (1, -1)]), max_size=8),
    st.just(s)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["a", "b", "+", "-", "1a"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "b", "c", "1a", "", "x0"]), inner, max_size=3),
    max_leaves=6)
KEYS = st.sampled_from(["arc_components", "over", "under_in", "under_out", "sign", "x"])
JSON_LINES = st.dictionaries(KEYS, JSON_VALUES, max_size=5).map(json.dumps) | st.sampled_from([
    '{"a": 1, "a": 2}', "[1]", "{", '"x"', "", '{"arc_components": {"a": 1, "b": 3}}',
    '{"over": "a", "under_in": "a", "under_out": "b", "sign": true}'])
DIAGRAM_TEXT = (CHARS | st.lists(JSON_LINES, max_size=5).map("\n".join)
                | diagrams().map(print_diagram).flatmap(mutants))


@FUZZ
@given(DIAGRAM_TEXT)
def test_parse_diagram_raises_only_diagram_errors(text):
    try:
        parse_diagram(text)
    except DiagramError:
        pass


@FUZZ
@given(diagrams() | BRAIDS.map(lambda b: closed_braid_diagram(*b)))
def test_diagram_round_trips_through_its_text(d):
    assert parse_diagram(print_diagram(d)) == d


# --- the command line --------------------------------------------------------------

CAP = st.integers(0, 2_000).map(str)
N_LIST = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
    lambda ns: ",".join(map(str, ns))) | st.sampled_from(["", "x", "2,,3", "0"])
JUNK = st.just([]) | st.lists(st.sampled_from([
    "--N", "2", "--k", "-1", "--bogus", "x", "--verify", "--timing", "--help", "--to",
    "--strands"]), max_size=2)
INPUT_TEXT = (PRESENTATION_TEXT | DIAGRAM_TEXT | presentations().map(print_presentation)
              | diagrams().map(print_diagram))
FAMILY_NAMES = [*FAMILIES, "T99"]
K_OPTIONS = [[], ["--k", "3"], ["--k", "-4"], ["--k", "0"]]
# T2k-odd is a retired row id, now refused like any unknown one
ROW_IDS = ["T24", "T2k", "T23B", "Mk", "T2k-odd", "nope", ""]


@st.composite
def command_lines(draw, path):
    """An argv list for ``main``, reading any file from ``path``; every
    enumeration ends with caps of at most 2,000."""
    command = draw(st.sampled_from(["enumerate", "convert", "verify-catalog", "other"]))
    if command == "enumerate":
        source = draw(st.sampled_from(["--family", "--file", "--diagram"]))
        argv = [command, source]
        if source == "--family":
            argv.append(draw(st.sampled_from(FAMILY_NAMES)))
            argv += draw(st.sampled_from(K_OPTIONS))
        else:
            argv.append(path)
        argv += draw(st.sampled_from([[], ["--N", draw(N_LIST)]]))
        argv += ["--verify", draw(st.sampled_from(["none", "axioms", "full"]))]
        argv += draw(JUNK) + ["--max-vertices", draw(CAP), "--max-steps", draw(CAP)]
    elif command == "convert":
        braid = ",".join(map(str, draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6))))
        argv = [command] + draw(st.sampled_from([
            ["--braid", braid, "--strands", str(draw(st.integers(0, 6)))],
            ["--diagram", path], ["--braid", "1,x"]]))
        argv += ["--to", draw(st.sampled_from(["presentation", "diagram"]))]
        argv += draw(st.sampled_from([[], ["--N", draw(N_LIST)]])) + draw(JUNK)
    elif command == "verify-catalog":
        argv = [command, "--rows", draw(st.sampled_from(ROW_IDS)),
                "--k-range", draw(st.sampled_from(["-2:2", "1", "3:1", "x"])),
                "--n-range", draw(st.sampled_from(["2:3", "2", "4:2"]))] + draw(JUNK)
    else:
        argv = draw(JUNK)
    return argv


def assert_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code


@settings(FUZZ, max_examples=80)
@given(st.data())
def test_main_exits_with_a_documented_code_and_no_traceback(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "input.txt"
    path.write_text(data.draw(INPUT_TEXT))
    assert_documented_exit(data.draw(command_lines(str(path))))


# the draws above reach only a few of these names, so each one runs here
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_every_family_name_exits_with_a_documented_code(family):
    for k in K_OPTIONS:
        for n in ([], ["--N", "2"], ["--N", "2,2"], ["--N", "2,3,2"]):
            assert_documented_exit(["enumerate", "--family", family, *k, *n, "--verify", "full",
                                    "--max-vertices", "2000", "--max-steps", "2000"])


@pytest.mark.parametrize("rows", ROW_IDS)
def test_every_row_id_exits_with_a_documented_code(rows):
    code = assert_documented_exit(["verify-catalog", "--rows", rows, "--k-range=-2:2",
                                   "--n-range", "2:3"])
    assert code == (0 if rows in ("T24", "T2k", "T23B", "Mk") else 1)
