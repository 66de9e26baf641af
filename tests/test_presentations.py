"""Presentation text format, diagrams, and the builtin families."""

import re

import pytest

from nquandles import presentations
from nquandles.enumerator import TraceGraph, compile_relators, enumerate_quandle
from nquandles.presentations import (
    FAMILIES,
    TAKES_K,
    Crossing,
    Diagram,
    DiagramError,
    ParseError,
    Presentation,
    PresentationError,
    PrimaryRelation,
    UniversalRelation,
    augment_n,
    braid_presentation,
    builtin_family,
    closed_braid_diagram,
    family_components,
    family_torus,
    parse_diagram,
    parse_presentation,
    parse_word,
    print_diagram,
    print_presentation,
    secondary_relations,
    wirtinger,
)

FIXED = [name for name in FAMILIES if name not in TAKES_K]


# --- words and text round trips -------------------------------------------

def test_parse_word():
    # letter codes: 2*g for generator g, 2*g + 1 for its inverse
    names = ("a", "b")
    assert parse_word("b a b", names) == (2, 0, 2)
    assert parse_word("a'", names) == (1,)
    assert parse_word("", names) == ()
    assert parse_word("a a'", names) == ()  # parsed words come back reduced
    with pytest.raises(PresentationError):
        parse_word("z", names)


@pytest.mark.parametrize("family", FIXED)
def test_print_parse_round_trip(family):
    p = builtin_family(family)
    assert parse_presentation(print_presentation(p)) == p


@pytest.mark.parametrize("family,k", [("T2k", 5), ("Lk", 3), ("Lk", -4),
                                      ("Mk", 0), ("Mk", -2)])
def test_print_parse_round_trip_parameterized(family, k):
    p = builtin_family(family, k=k)
    assert parse_presentation(print_presentation(p)) == p


def test_parse_presentation_smallest():
    p = parse_presentation("gens a\ncomp a:1\nN 4\n")
    assert p.generator_names == ("a",)
    assert p.component_of == (1,)
    assert p.n_values == (4,)
    assert p.relations == ()


def test_parse_presentation_statements():
    text = """
    # torus link plus nothing
    gens a b ; comp a:1 b:2
    N 3 4
    rel a^[b a b]=a
    rel b^[a b a]=b
    """
    p = parse_presentation(text)
    assert p.generator_names == ("a", "b")
    assert p.n_values == (3, 4)
    assert p.relations == (
        PrimaryRelation(0, (2, 0, 2), 0),
        PrimaryRelation(1, (0, 2, 0), 1),
    )


def test_comp_defaults_to_one():
    p = parse_presentation("gens a b\nN 2\n")
    assert p.component_of == (1, 1)


# --- parse errors carry positions ------------------------------------------

def test_parse_error_position_bad_relation():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens a\ncomp a:1\nrel a^b=a\n")
    assert err.value.line == 3


def test_parse_error_unknown_generator_in_comp():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens a\ncomp q:1\n")
    assert err.value.line == 2


def test_parse_error_unknown_statement():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens a\nfrob a\n")
    assert err.value.line == 2


def test_parse_error_zero_n_value_on_its_line():
    with pytest.raises(ParseError, match="n-values must be positive") as err:
        parse_presentation("gens a b\nN 0\n")
    assert err.value.line == 2


def test_parse_error_zero_component_names_its_token():
    with pytest.raises(ParseError, match="'a:0'") as err:
        parse_presentation("gens a b\n  comp b:1 a:0\n")
    assert (err.value.line, err.value.column) == (2, 12)


@pytest.mark.parametrize("text, message, position", [
    ("gens a b\ncomp a:1 b:3\nN 2 2\n", "components [2] have no generator", (2, 10)),
    ("gens a b c\ncomp c:3 a:2 b:4\n", "components [1] have no generator", (2, 6)),
    ("gens a b\n\n  N 2 3\n", "expected 1 n-values, got 2", (3, 3)),
    ("gens a b; N 2; N 3\n", "duplicate N statement", (1, 16)),
    ("gens a b;  rel a^[b q]=a\n", "unknown generator 'q' in word", (1, 12)),
    ("gens a\n  gens\n", "gens needs at least one name", (2, 3)),
    ("gens a 1b\n", "bad generator name '1b'", (1, 1)),
    ("gens a b\ncomp a:1  b\n", "expected name:index, got 'b'", (2, 11)),
    ("gens a; N two\n", "N needs positive integers", (1, 9)),
    ("gens a b\nN 2\nrel a^[b]=a\n rel c^[a]=b\n",
     "rel references unknown generator 'c'", (4, 2)),
    # digits str.isdigit() accepts but int() does not read
    ("gens a; N \u00b2\n", "N needs positive integers", (1, 9)),
    ("gens a b\ncomp a:1 b:\u00b2\n", "expected name:index, got 'b:\u00b2'", (2, 10)),
    # more digits than int() reads under the lowest limit it may be set to
    ("gens a; N 2 " + "9" * 641 + "\n", "N needs positive integers", (1, 9)),
    ("gens a\ncomp a:" + "1" * 641 + "\n", "expected name:index", (2, 6)),
    # a gap lies at or below the generator count, so no more is listed
    ("gens a b\ncomp a:1 b:99999999999\n", "components [2] have no generator", (2, 10)),
])
def test_parse_error_points_at_the_faulty_statement(text, message, position):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == position


def test_parse_error_message_mentions_position():
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_presentation("rel a^[b]=a\n")


# --- structural validation --------------------------------------------------

def test_duplicate_generators_rejected():
    with pytest.raises((ParseError, PresentationError)):
        parse_presentation("gens a a\n")


@pytest.mark.parametrize("word", [((0, 1),), (True,), (0, True), (-1,), (4,), (5,), [0, 2]])
def test_malformed_relation_words_refused(word):
    # a letter is an int code from 0 to 2g - 1: not a (generator, sign)
    # pair, not a bool, nothing out of range; the word a reduced tuple
    with pytest.raises(PresentationError):
        Presentation(("a", "b"), (1, 1), None, (PrimaryRelation(0, word, 1),))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Presentation((), (), None, ()),
                 "a presentation needs at least one generator", id="no-generators"),
    pytest.param(lambda: Presentation(("a", "a"), (1, 1), None, ()),
                 "duplicate generator names", id="duplicate-names"),
    pytest.param(lambda: Presentation(("a", "b'"), (1, 1), None, ()),
                 "bad generator name \"b'\"", id="bad-name"),
    pytest.param(lambda: Presentation(("a", "b"), (1,), None, ()),
                 "component_of must assign every generator", id="short-component-of"),
    pytest.param(lambda: Presentation(("a", "b"), (1, 1), None, (PrimaryRelation(0, (), 2),)),
                 "relation references unknown generator", id="unknown-target"),
    pytest.param(lambda: builtin_family("T24").n_of_generator(0),
                 "presentation has no n-values", id="n-of-generator-without-n"),
    # every library reader of the N tuple is refused by n_of_generator
    pytest.param(lambda: enumerate_quandle(builtin_family("T24")),
                 "presentation has no n-values", id="enumerate-without-n"),
    pytest.param(lambda: TraceGraph(builtin_family("T24")),
                 "presentation has no n-values", id="trace-graph-without-n"),
    pytest.param(lambda: compile_relators(builtin_family("T24")),
                 "presentation has no n-values", id="compile-relators-without-n"),
    pytest.param(lambda: secondary_relations(builtin_family("T24")),
                 "presentation has no n-values", id="secondary-relations-without-n"),
])
def test_hand_built_presentations_are_refused(build, message):
    # no text reaches these checks: parse_presentation refuses it
    # first, with a position
    with pytest.raises(PresentationError) as err:
        build()
    assert err.value.args == (message,)


def test_component_numbering_must_be_contiguous():
    with pytest.raises(PresentationError):
        Presentation(("a", "b"), (1, 3), None, ())
    # listed up to the generator count, not to the largest index
    with pytest.raises(PresentationError, match=re.escape("components [2] have no")):
        Presentation(("a", "b"), (1, 10**11), None, ())


def test_n_values_length_checked():
    p = builtin_family("T24")
    with pytest.raises(PresentationError):
        augment_n(p, (3,))
    with pytest.raises(PresentationError):
        augment_n(p, (3, 3, 3))


def test_augment_n():
    p = builtin_family("T24")
    assert p.n_values is None
    q = augment_n(p, (3, 4))
    assert q.n_values == (3, 4)
    assert q.relations == p.relations
    # replacing an existing N
    assert augment_n(q, (3, 5)).n_values == (3, 5)
    # n = 1 is degenerate but legal
    assert augment_n(p, (1, 1)).n_values == (1, 1)
    with pytest.raises(PresentationError):
        augment_n(p, (3, 0))


def test_n_of_generator():
    p = builtin_family("T24C")  # components (1, 2, 3), N = (2, 3, 2)
    assert [p.n_of_generator(g) for g in range(3)] == [2, 3, 2]
    assert max(p.component_of) == 3


# --- secondary relations ----------------------------------------------------

def letters(text, names):
    """The (generator, sign) pairs that secondary relations spell."""
    return tuple((c >> 1, -1 if c & 1 else 1) for c in parse_word(text, names))


def test_secondary_relations_order_and_words():
    p = augment_n(builtin_family("T24"), (3, 3))
    rels = secondary_relations(p)
    names = ("a", "b")
    # power relations first, one per generator
    assert rels[0] == UniversalRelation(letters("a a a", names))
    assert rels[1] == UniversalRelation(letters("b b b", names))
    # then w' base w target' per primary relation
    assert rels[2] == UniversalRelation(letters("b' a' b' a b a b a'", names))
    assert rels[3] == UniversalRelation(letters("a' b' a' b a b a b'", names))
    assert len(rels) == 4


def test_secondary_relations_axis_example():
    text = "gens a b c\ncomp a:1 b:2 c:3\nN 2 2 2\nrel c^[a b]=c\n"
    p = parse_presentation(text)
    rels = secondary_relations(p)
    names = ("a", "b", "c")
    assert rels[3] == UniversalRelation(letters("b' a' c a b c'", names))


def test_secondary_relations_need_n():
    with pytest.raises(PresentationError):
        secondary_relations(builtin_family("T24"))


# --- diagrams ----------------------------------------------------------------

TREFOIL_TEXT = """gens x0 x1 x2
comp x0:1 x1:1 x2:1
rel x1^[x0]=x2
rel x0^[x2]=x1
rel x2^[x1]=x0
"""

HOPF_TEXT = """gens x0 x1
comp x0:1 x1:2
rel x1^[x0]=x1
rel x0^[x1]=x0
"""


def test_trefoil_wirtinger_hand_check():
    p = wirtinger(closed_braid_diagram([1, 1, 1], 2))
    assert print_presentation(p) == TREFOIL_TEXT


def test_hopf_wirtinger_hand_check():
    p = wirtinger(closed_braid_diagram([1, 1], 2))
    assert print_presentation(p) == HOPF_TEXT


# --- closed braids, one generator per strand -----------------------------------

# By hand with +1: (A, B) -> (B^A, A) from (a, b).  Trefoil: (b^a, a),
# (a^(a' b a), b^a), (b^(b' a b a), a^(a' b a)); the closure drops the
# leading base letters and the trailing target letter a.  Hopf: (b^a, a),
# (a^(a' b a), b^a); a^(a' b a) = a loses its first and last letters.
TREFOIL_BRAID_TEXT = """gens a b
comp a:1 b:1
rel b^[a b]=a
rel a^[b a]=b
"""

HOPF_BRAID_TEXT = """gens a b
comp a:1 b:2
rel a^[b]=a
rel b^[a]=b
"""

# T(2,4) as it was typed in by hand before the torus families were derived
T24_HAND_TEXT = """gens a b
comp a:1 b:2
rel a^[b a b]=a
rel b^[a b a]=b
"""


def test_trefoil_braid_hand_check():
    assert print_presentation(braid_presentation([1, 1, 1], 2)) == TREFOIL_BRAID_TEXT
    assert builtin_family("trefoil") == parse_presentation(TREFOIL_BRAID_TEXT)


def test_hopf_braid_hand_check():
    assert print_presentation(braid_presentation([1, 1], 2)) == HOPF_BRAID_TEXT
    assert builtin_family("hopf") == parse_presentation(HOPF_BRAID_TEXT)


def test_t24_braid_equals_the_hand_table():
    assert braid_presentation([1] * 4, 2) == parse_presentation(T24_HAND_TEXT)
    assert builtin_family("T24") == parse_presentation(T24_HAND_TEXT)


def test_braid_mirror_uses_inverse_letters():
    # -1: (A, B) -> (B, A^(B')), so the mirror trefoil's words are the
    # inverses of the trefoil's
    p = braid_presentation([-1, -1, -1], 2)
    assert print_presentation(p) == "gens a b\ncomp a:1 b:1\nrel b^[a' b']=a\nrel a^[b' a']=b\n"


def test_braid_components_are_strand_cycles():
    # s_1 s_2 on three strands is one 3-cycle; s_2^2 fixes strand a
    assert braid_presentation([1, 2], 3).component_of == (1, 1, 1)
    assert braid_presentation([2, 2], 3).component_of == (1, 2, 3)
    assert braid_presentation([2], 3).component_of == (1, 2, 2)
    # an untouched strand gives no relation; one strand, no letters
    assert braid_presentation([], 1).relations == ()
    assert [r.target for r in braid_presentation([2, 2], 3).relations] == [1, 2]


def test_braid_generator_names_past_26_strands():
    names = braid_presentation([27], 30).generator_names
    assert names[:3] == ("a", "b", "c")
    assert names[25:] == ("z", "a1", "b1", "c1", "d1")


@pytest.mark.parametrize("word, strands", [([0], 2), ([2], 2), ([-2], 2), ([1], 0)])
def test_braid_presentation_rejects_bad_letters(word, strands):
    with pytest.raises(PresentationError):
        braid_presentation(word, strands)


def test_closed_braid_component_count():
    # sigma_1^k on two strands: one component for odd k, two for even
    for k in (1, 3, 5):
        d = closed_braid_diagram([1] * k, 2)
        assert set(d.arc_component.values()) == {1}
    for k in (2, 4):
        d = closed_braid_diagram([1] * k, 2)
        assert set(d.arc_component.values()) == {1, 2}
    # (sigma_1 sigma_2)^4 on three strands: full twist pattern, 3 arcs/comp mix
    d = closed_braid_diagram([1, 2] * 4, 3)
    assert len(d.crossings) == 8


def test_closed_braid_negative_letters():
    d = closed_braid_diagram([-1, -1, -1], 2)
    p = wirtinger(d)
    assert len(p.relations) == 3
    for rel in p.relations:
        assert len(rel.word) == 1
        assert rel.word[0] & 1  # mirror crossings act by the inverse


def test_closed_braid_validation():
    # the refusals of braid_presentation too: both read one walk
    for word, strands, message in (([0], 2, "position 1: braid letter 0 out of range"),
                                   ([1, 2], 2, "position 2: braid letter 2 out of range"),
                                   ([1], 0, "need at least one strand")):
        for build in (closed_braid_diagram, braid_presentation):
            with pytest.raises(PresentationError) as err:
                build(word, strands)
            assert err.value.args == (message,)


def test_diagram_print_parse_round_trip():
    d = closed_braid_diagram([1, 1, -2, 1], 3)
    d2 = parse_diagram(print_diagram(d))
    assert d2.crossings == d.crossings
    assert dict(d2.arc_component) == dict(d.arc_component)


def test_parse_diagram_errors():
    with pytest.raises(DiagramError):
        parse_diagram("")  # no arc_components line
    with pytest.raises(DiagramError):
        parse_diagram('{"arc_components": {"x0": 1}}\n'
                      '{"arc_components": {"x0": 1}}\n')
    with pytest.raises(DiagramError):
        parse_diagram('{"arc_components": {"x0": 1}}\n'
                      '{"over": "x0", "under_in": "x0", "under_out": "x9", "sign": "+"}\n')
    with pytest.raises(DiagramError):
        parse_diagram('not json\n')
    # JSON that json.loads refuses with other errors than JSONDecodeError
    with pytest.raises(DiagramError, match="line 1: bad JSON .*recursion"):
        parse_diagram("[" * 100_000 + "]" * 100_000)
    # (a number past int()'s digit limit, where the interpreter has one)
    with pytest.raises(DiagramError, match="line 2: "):
        parse_diagram('{"arc_components": {"x0": 1}}\n{"sign": ' + "1" * 5000 + "}\n")


def test_parse_diagram_rejects_bad_field_values():
    # each refusal names its line: the arc_components line for a bad
    # component or a numbering gap, the crossing's line otherwise
    arcs = '{"arc_components": {"x0": 1}}\n'

    def crossing(over='"x0"', sign='"+"', under_in='"x0"', under_out='"x0"'):
        return (f'{{"over": {over}, "under_in": {under_in}, "under_out": {under_out}, '
                f'"sign": {sign}}}\n')

    two_arcs = '{"arc_components": {"x0": 1, "x1": 2}}\n'

    cases = [
        ('{"arc_components": {"x0": "a"}}\n', r"line 1: component of arc 'x0'"),
        ('{"arc_components": {"x0": 1.7}}\n', r"line 1: component of arc 'x0' .* not 1\.7"),
        ('{"arc_components": {"x0": "2"}}\n', r"line 1: component of arc 'x0' .* not '2'"),
        ('{"arc_components": {"x0": true}}\n', r"line 1: component of arc 'x0' .* not True"),
        ('{"arc_components": {"x0": -1}}\n', r"line 1: component of arc 'x0' .* not -1"),
        ('{"arc_components": {"x0": 1, "x1": 3}}\n', r"line 1: components \[2\] have no arc"),
        ('{"arc_components": {"x0": 1, "x1": 99999999999}}\n',
         r"line 1: components \[2\] have no arc"),
        ('{"arc_components": {}}\n', r"line 1: arc_components must be a non-empty map"),
        (arcs + crossing(sign="[1]"), r"line 2: bad sign \[1\]"),
        (arcs + crossing(sign="true"), r"line 2: bad sign True"),
        (arcs + crossing(over="0"), r"line 2: over must be an arc name string, not 0"),
        (arcs + crossing(over='["x0"]'), r"line 2: over must be an arc name string"),
        (crossing(over='"x9"') + arcs, r"line 1: arc 'x9' not in arc_components"),
        ('{"arc_components": {"x0": 1, "1a": 1}}\n', r"line 1: bad arc name '1a'"),
        ('{"arc_components": {"x0": 1, "x0": 2}}\n', r"line 1: repeated key 'x0'$"),
        (arcs + '{"over": "x0", "over": "x0"}\n', r"line 2: repeated key 'over'$"),
        (two_arcs + crossing() + crossing(under_out='"x1"'),
         r"line 3: under-arcs 'x0' and 'x1' lie on different components"),
        (two_arcs + crossing(under_in='"x1"', under_out='"x1"') + "\n"
         + crossing(under_in='"x1"', under_out='"x1"'),
         r"line 4: arc 'x1' is the outgoing under-arc of two crossings"),
    ]
    for text, message in cases:
        with pytest.raises(DiagramError, match="^" + message):
            parse_diagram(text)


def test_wirtinger_rejects_duplicate_under_out():
    d = Diagram(
        crossings=(
            # x1 broken twice into the same outgoing arc
            *closed_braid_diagram([1, 1], 2).crossings,
        ),
        arc_component={"x0": 1, "x1": 2},
    )
    bad = Diagram(
        crossings=(d.crossings[0], d.crossings[0]),
        arc_component=dict(d.arc_component),
    )
    with pytest.raises(DiagramError):
        wirtinger(bad)


def test_wirtinger_refuses_a_hand_built_diagram_parse_diagram_would_reject():
    # parse_diagram checks every arc, so only a Diagram built in code
    # reaches these refusals
    unknown = Diagram(crossings=(Crossing("z", "x0", "x1", 1),),
                      arc_component={"x0": 1, "x1": 1})
    with pytest.raises(DiagramError) as err:
        wirtinger(unknown)
    assert err.value.args == ("crossing 0: arc 'z' not in arc_components",)
    split = Diagram(crossings=(Crossing("x0", "x0", "x1", 1),),
                    arc_component={"x0": 1, "x1": 2})
    with pytest.raises(DiagramError) as err:
        wirtinger(split)
    assert err.value.args == (
        "crossing 0: under-arcs 'x0' and 'x1' lie on different components",)


# --- builtin families ---------------------------------------------------------

def test_builtin_family_unknown():
    # the name is refused before its k is looked at
    for k in (None, 3):
        with pytest.raises(PresentationError) as err:
            builtin_family("T99", k=k)
        assert err.value.args == ("unknown family 'T99'",)


def test_builtin_family_k_handling():
    with pytest.raises(PresentationError):
        builtin_family("Lk")  # needs k
    with pytest.raises(PresentationError):
        builtin_family("T24", k=3)  # takes no k
    with pytest.raises(PresentationError):
        builtin_family("T2k", k=0)
    with pytest.raises(PresentationError):
        builtin_family("Lk", k=0)
    # the twist family is defined at every integer
    assert builtin_family("Mk", k=0).n_values == (2, 3)


def test_family_rule_spells_no_braid(monkeypatch):
    # the rule and the component count read the table alone, so a k far
    # past any braid that could be spelled answers at once
    def refuse(*args):
        raise AssertionError("a braid was spelled")

    monkeypatch.setattr(presentations, "torus_braid", refuse)
    monkeypatch.setattr(presentations, "braid_presentation", refuse)
    for k in (10**12, -10**12, 10**12 + 1, -10**12 - 1):
        assert family_torus("T2k", k) == (2, k)
        assert family_torus("Lk", k) == (2, k, True)
        # T(2, k) has two components for even k, one for odd
        assert family_components("T2k", k) == 2 - k % 2, k
        assert family_components("Lk", k) == 3 - k % 2, k
    assert family_torus("Mk", -10**12) is None
    assert family_components("Mk", 10**12) == 2
    assert family_torus("T23B") == (3, 2, True)
    assert family_components("T23B") == 2


def test_builtin_family_defaults():
    assert builtin_family("T24C").n_values == (2, 3, 2)
    assert builtin_family("T24").n_values is None
    assert builtin_family("Mk", k=3).n_values == (2, 3)
    assert builtin_family("T24", n_values=(3, 4)).n_values == (3, 4)


def test_lk_component_shapes():
    odd = builtin_family("Lk", k=3)
    assert max(odd.component_of) == 2
    even = builtin_family("Lk", k=4)
    assert max(even.component_of) == 3


def test_t2k_matches_torus_closures():
    assert builtin_family("T2k", k=3) == builtin_family("trefoil")
    assert builtin_family("T2k", k=2) == builtin_family("hopf")
