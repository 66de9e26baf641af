"""The bundled cardinality table and its executable checks."""

from dataclasses import fields, replace

import pytest

from nquandles import catalog as catalog_module
from nquandles import presentations
from nquandles.catalog import (
    CatalogEntry,
    CatalogError,
    catalog,
    expected_cardinality,
    iter_checks,
    load_catalog,
)
from nquandles.cli import main
from nquandles.enumerator import enumerate_quandle
from nquandles.presentations import FAMILIES, TAKES_K, builtin_family, family_components


def test_catalog_shape():
    entries = catalog()
    assert len(entries) == 17
    assert len({e.row_id for e in entries}) == 17
    assert [f.name for f in fields(CatalogEntry)] == [
        "row_id", "link", "n_shape", "expected", "family", "notes"]


def test_every_family_column_names_a_builtin_family_of_its_n_shape():
    # a row lists one N shape per component count its link takes, so the
    # built link's count picks the shape
    named = []
    for entry in catalog():
        if not entry.family:
            continue
        assert entry.family in FAMILIES, entry.row_id
        ks = [k for k in range(-6, 7) if k] if entry.family in TAKES_K else [None]
        counts = {max(builtin_family(entry.family, k=k).component_of) for k in ks}
        lengths = [len(shape) for shape in catalog_module._shapes(entry.n_shape)]
        assert set(lengths) <= counts, (entry.row_id, lengths, counts)
        assert len(set(lengths)) == len(lengths), entry.row_id
        named.append(entry.row_id)
    assert len(named) == 14 and "T23B" in named


def test_catalog_reloads_cleanly():
    assert load_catalog() == catalog()


def test_exact_value_parsing():
    by_id = {e.row_id: e for e in catalog()}
    t24 = by_id["T24"].exact_values
    assert t24 == {(3, 3): 8, (3, 4): 14, (3, 5): 32}
    assert by_id["Mk"].exact_values is None  # closed-form row


def test_expected_cardinality_exact_rows():
    assert expected_cardinality("T23", (5,)) == 12
    assert expected_cardinality("T24", (3, 4)) == 14
    assert expected_cardinality("T24C", (2, 3, 2)) == 26
    assert expected_cardinality("T33", (2, 3, 5)) == 62
    with pytest.raises(CatalogError):
        expected_cardinality("T24", (9, 9))


def test_expected_cardinality_formula_rows():
    assert expected_cardinality("Lk", (2, 2), k=1) == 4
    assert expected_cardinality("Lk", (2, 2, 3), k=4) == 14
    assert expected_cardinality("T2k", (2,), k=1) == 1
    assert expected_cardinality("T2k", (2, 2), k=-6) == 6
    assert expected_cardinality("Mk", (2, 3), k=0) == 26
    assert expected_cardinality("Mk", (2, 3), k=-3) == 134
    with pytest.raises(CatalogError):
        expected_cardinality("Lk", (2, 2))  # k missing
    with pytest.raises(CatalogError):
        expected_cardinality("T2k", (2, 2), k=0)  # T(2,0) is not built


@pytest.mark.parametrize("row_id, ns, params", [
    ("Mk", (5, 7), {"k": 1}),       # the row holds only N = (2, 3)
    ("T2k", (9,), {"k": 4}),        # even k: N = (2, 2)
    ("Lk", (7,), {"k": 3}),         # odd k: N = (2, n)
    ("Lk", (3, 5), {"k": 3}),
    ("Lpq", (2, 2, 2), {"p": 3, "q": 2}),
    # a shape the row lists, but for the other component count
    ("T2k", (2, 2), {"k": 3}),
    ("Lk", (2, 5), {"k": 2}),
    ("Lk", (2, 2, 5), {"k": 3}),
])
def test_expected_cardinality_refuses_n_outside_the_row_shape(row_id, ns, params):
    with pytest.raises(CatalogError, match="N of shape"):
        expected_cardinality(row_id, ns, **params)


def test_expected_cardinality_reads_n_from_its_shape_position():
    # n is the last entry of (2,n) and (2,2,n); Lpq's two shapes both fit
    assert expected_cardinality("Lk", (2, 5), k=3) == 17
    assert expected_cardinality("Lk", (2, 2, 5), k=-2) == 12
    assert expected_cardinality("Lpq", (2,), p=3, q=5) == 5
    assert expected_cardinality("Lpq", (2, 2), p=3, q=4) == 4


def test_expected_cardinality_out_of_scope_rows_still_answer():
    # rows that name no family are never swept but still answer
    assert expected_cardinality("Lpq", (2, 2), p=3, q=2, k=1) > 0
    assert expected_cardinality("LkpqC", (2, 2, 2), k=1, p=1, q=2) == 8
    assert expected_cardinality("T23B", (2, 2)) == 18


def test_family_components_count_the_built_link():
    for name in FAMILIES:
        for k in ((-5, -2, 1, 4) if name in TAKES_K else (None,)):
            link = builtin_family(name, k=k)
            assert family_components(name, k) == max(link.component_of), (name, k)


def test_expected_cardinality_spells_no_relation_word(monkeypatch):
    # a lookup counts components by the family rule, so a large k costs
    # no presentation
    def refuse(*args):
        raise AssertionError("braid_presentation called")

    monkeypatch.setattr(presentations, "braid_presentation", refuse)
    assert expected_cardinality("T2k", (2,), k=1001) == 1001
    assert expected_cardinality("T2k", (2, 2), k=-1000) == 1000
    assert expected_cardinality("Lk", (2, 5), k=1001) == 5007
    assert expected_cardinality("Lk", (2, 2, 5), k=-1000) == 5002
    for row_id, ns, params, message in [
            ("T2k", (2, 2), {"k": 0}, "row T2k: k must be nonzero for T2k"),
            ("Lk", (2, 2), {}, "row Lk: family Lk needs k"),
            ("T2k", (2, 2), {"k": 1001}, r"row T2k has N of shape \(2\), not N=\(2, 2\)"),
            ("Lk", (2, 2, 5), {"k": 1001},
             r"row Lk has N of shape \(2,n\), not N=\(2, 2, 5\)")]:
        with pytest.raises(CatalogError, match=f"^{message}$"):
            expected_cardinality(row_id, ns, **params)


def test_expected_cardinality_unknown_row():
    with pytest.raises(CatalogError):
        expected_cardinality("T99", (2,))


def test_iter_checks_default_count():
    checks = list(iter_checks())
    assert len(checks) == 93
    for c in checks:
        assert c.presentation.n_values is not None
        assert c.expected >= 1
    # labels identify checks within a row
    seen = {(c.row_id, c.label) for c in checks}
    assert len(seen) == len(checks)


def test_iter_checks_narrow_sweep():
    checks = list(iter_checks(k_values=(0, 1, 2), n_values=(2,)))
    labels = {}
    for c in checks:
        labels.setdefault(c.row_id, []).append(c.label)
    # a row's N shapes are swept in the order listed, each at the k
    # whose link has one component per entry
    assert labels["T2k"] == ["k=1 N=(2,)", "k=2 N=(2, 2)"]
    assert labels["Lk"] == ["k=1 N=(2, 2)", "k=2 N=(2, 2, 2)"]
    # T(2,k) needs k nonzero; Mk takes any k
    assert labels["Mk"] == ["k=0 N=(2, 3)", "k=1 N=(2, 3)", "k=2 N=(2, 3)"]
    # every row that names a family is swept, and only those
    assert labels["T23B"] == ["N=(2, 2)"]
    assert list(labels) == [e.row_id for e in catalog() if e.family]


def test_iter_checks_expected_values_hold():
    # spot-run a slice of the checks end to end
    for check in iter_checks(k_values=(1, -2), n_values=(3,)):
        if check.row_id in ("T24", "T26", "T28", "T210"):
            continue  # fixed rows are covered by the acceptance suite
        out = enumerate_quandle(check.presentation)
        assert out.finite, check.label
        assert out.vertices == check.expected, (check.row_id, check.label)


@pytest.mark.parametrize("row_id, tampered, argv, line", [
    ("Mk", "18*abs(2*k-1)+9", ["--k-range", "1:1"], "FAIL Mk k=1 N=(2, 3): want 27 got 26"),
    ("Lk", "n*abs(k)+3", ["--k-range", "1:1", "--n-range", "2:2"],
     "FAIL Lk k=1 N=(2, 2): want 5 got 4"),
    ("T2k", "abs(k)+1", ["--k-range", "2:2"], "FAIL T2k k=2 N=(2, 2): want 3 got 2"),
    # an N past the default step cap stops at its power's first scan
    ("T23", "(1000000000)=4", [], "FAIL T23 N=(1000000000,): want 4 got exceeded steps cap"),
])
def test_verify_catalog_checks_the_file_formulas(monkeypatch, capsys, row_id, tampered,
                                                 argv, line):
    # the checks expect what the data file says, not a formula restated in code
    rows = [replace(e, expected=tampered) if e.row_id == row_id else e for e in catalog()]
    monkeypatch.setattr(catalog_module, "catalog", lambda: rows)
    code = main(["verify-catalog", "--rows", row_id, *argv])
    out = capsys.readouterr().out
    # a finite wrong size is a mismatch; a cap stop alone claims no size
    assert code == (4 if line.endswith(" cap") else 3)
    assert out.splitlines()[0] == line


@pytest.mark.parametrize("tampered, message", [
    ("18*abs(2*m-1)+8", "formula parameter 'm' not supplied"),
    ("18*abs(2*k-1)//2", "unsupported formula syntax in '18*abs(2*k-1)//2'"),
])
def test_a_formula_the_evaluator_cannot_read_is_refused(monkeypatch, capsys, tampered,
                                                        message):
    rows = [replace(e, expected=tampered) if e.row_id == "Mk" else e for e in catalog()]
    monkeypatch.setattr(catalog_module, "catalog", lambda: rows)
    with pytest.raises(CatalogError) as err:
        expected_cardinality("Mk", (2, 3), k=1)
    assert err.value.args == (message,)
    assert main(["verify-catalog", "--rows", "Mk", "--k-range", "1:1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("row, value", [
    # a closed form may negate: unary minus
    ("X | link | (n) | -n+3*n | trefoil | notes", 6),
    ("X | link | (n) | n | trefoil", "catalog row needs 6 columns: "),
])
def test_data_file_rows(tmp_path, monkeypatch, row, value):
    data = tmp_path / "cardinalities.txt"
    data.write_text(f"# columns\n{row}\n")
    monkeypatch.setattr(catalog_module, "_DATA_PATH", data)
    monkeypatch.setattr(catalog_module, "catalog", load_catalog)
    if isinstance(value, str):
        with pytest.raises(ValueError) as err:
            load_catalog()
        assert err.value.args == (value + repr(row),)
    else:
        assert expected_cardinality("X", (3,)) == value
