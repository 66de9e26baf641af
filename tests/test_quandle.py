"""Operation tables, verification, orbits, isomorphism, exports."""

import dataclasses
import gc
import hashlib
import json
import random
import re
import weakref

import numpy as np
import pytest

from nquandles import quandle
from nquandles.catalog import iter_checks
from nquandles.enumerator import enumerate_quandle
from nquandles.presentations import augment_n, builtin_family
from nquandles.quandle import (
    FiniteQuandle,
    dense_tables,
    export_dot,
    export_json,
    full_op,
    is_isomorphic,
    orbits,
    verify_all,
    verify_axioms,
    verify_n_relations,
)
from nquandles.words import invert


def enum(name, ns=None, k=None):
    p = builtin_family(name, k=k)
    if ns is not None:
        p = augment_n(p, ns)
    return enumerate_quandle(p).quandle


def tiny(action, gen_elements, components, ns):
    """Hand-built quandle wrapper for verifier edge cases."""
    return FiniteQuandle(
        size=len(action[0]),
        generator_names=tuple("abcdefgh"[: len(gen_elements)]),
        action=tuple(tuple(row) for row in action),
        generator_element=tuple(gen_elements),
        component_of_generator=tuple(components),
        n_values=tuple(ns),
    )


# --- the operation ------------------------------------------------------------

def codes(word):
    """A witness word's (generator, sign) pairs as letter codes: 2*gen,
    or 2*gen + 1 for the inverse."""
    return tuple(2 * gen + (sign < 0) for gen, sign in word)


def walk(q, x, word):
    for c in word:
        x = (q.inverse_action if c & 1 else q.action)[c >> 1][x]
    return x


def test_full_op_matches_witness_walk():
    # scalar re-derivation: x > (b^w) walks w', acts by b, walks w
    q = enum("T24", (3, 4))
    for y in range(q.size):
        w = q.witnesses[y]
        for x in range(q.size):
            word = codes(w.word)
            expect = walk(q, q.action[w.base][walk(q, x, invert(word))], word)
            assert full_op(q, x, y) == expect


def test_full_op_on_generator_columns():
    q = enum("T26", (2, 3))
    for g, el in enumerate(q.generator_element):
        for x in range(q.size):
            assert full_op(q, x, el) == q.action[g][x]
            assert full_op(q, x, el, -1) == q.inverse_action[g][x]


def test_full_op_self_distributive_and_invertible():
    q = enum("T33", (2, 3, 3))
    rng = random.Random(23)
    for _ in range(300):
        x, y, z = (rng.randrange(q.size) for _ in range(3))
        lhs = full_op(q, full_op(q, x, y), z)
        rhs = full_op(q, full_op(q, x, z), full_op(q, y, z))
        assert lhs == rhs
        assert full_op(q, full_op(q, x, y), y, -1) == x
        assert full_op(q, x, x) == x


def test_dense_tables_agree_with_full_op():
    q = enum("T24", (3, 3))
    fwd = dense_tables(q)
    assert fwd.shape == (8, 8)
    # built once, shared read-only with every caller
    assert dense_tables(q) is fwd is q.table
    assert fwd.dtype == np.int16
    assert not fwd.flags.writeable
    for x in range(q.size):
        for y in range(q.size):
            assert fwd[x, y] == full_op(q, x, y)
            assert full_op(q, fwd[x, y], y, -1) == x


def inverted(rows):
    """Each row's inverse permutation, by a plain loop."""
    out = np.zeros((len(rows), len(rows[0])), dtype=np.int64)
    for g, row in enumerate(rows):
        for x, y in enumerate(row):
            out[g, y] = x
    return out


def two_tables(q):
    """Oracle: the forward table and its inverse, int64, built column by
    column along a breadth-first search over the actions' forward
    edges, x > y^g = ((x >' g) > y) > g; columns the generators do not
    reach hold -1, and so does the inverse wherever a column misses a
    value."""
    n = q.size
    act = np.array(q.action, dtype=np.int64).reshape(-1, n)
    inv = inverted(q.action)
    cols = np.full((n, n), -1, dtype=np.int64)
    queue = []
    for g, e in enumerate(q.generator_element):
        if cols[e, 0] < 0:
            cols[e] = act[g]
            queue.append(e)
    for y in queue:
        for g in range(len(q.generator_names)):
            z = act[g][y]
            if cols[z, 0] < 0:
                cols[z] = act[g][cols[y][inv[g]]]
                queue.append(z)
    inv_cols = np.full((n, n), -1, dtype=np.int64)
    for y in queue:
        inv_cols[y, cols[y]] = np.arange(n)
    return cols.T, inv_cols.T


@pytest.fixture(scope="module")
def mk30():
    """Mk k=30: 1070 elements, so the automorphism check takes several
    bands."""
    q = enum("Mk", k=30)
    assert q.size == 1070 and quandle._BAND // q.size < q.size // 10
    return q


def test_table_and_inverse_columns_match_the_two_table_oracle(catalog_quandles, mk30):
    for q in catalog_quandles:
        fwd, bwd = two_tables(q)
        assert np.array_equal(q.table, fwd)
        for x in range(q.size):
            for y in range(q.size):
                assert full_op(q, x, y, -1) == bwd[x, y]
    fwd, bwd = two_tables(mk30)
    assert np.array_equal(mk30.table, fwd)
    rng = random.Random(11)
    for y in range(mk30.size):
        x = rng.randrange(mk30.size)
        assert full_op(mk30, x, y, -1) == bwd[x, y]
        # the rest of column y, read the way full_op reads it
        assert np.array_equal(quandle._inverse_column(mk30.table[:, y]), bwd[:, y])


def test_the_column_builder_builds_each_column_of_the_table(catalog_quandles, mk30):
    # deepest elements first, so each call walks a path of untouched
    # columns before later calls find their parents built
    for q in catalog_quandles + [mk30]:
        column = quandle._column_builder(q)
        for e in reversed(range(q.size)):
            col = column(e)
            assert col.dtype == q.table.dtype
            assert np.array_equal(col, q.table[:, e]), (q.size, e)
            assert column(e) is col


def test_the_column_builder_walks_a_deep_tree():
    # dihedral R_4001, x > y = 2y - x mod 4001, generators at 0 and 1:
    # the element -1000 sits 2000 edges down the generator tree
    n = 4001
    r = tiny([[(2 * y - x) % n for x in range(n)] for y in (0, 1)], [0, 1], [1, 1], [2])
    roots, via = r.tree
    depth = {e: 0 for _, e in roots}
    for z, (y, _) in via.items():
        depth[z] = depth[y] + 1
    deepest = list(via)[-1]
    assert depth[deepest] == max(depth.values()) == (n - 1) // 2
    col = quandle._column_builder(r)(deepest)
    assert np.array_equal(col, r.table[:, deepest])
    assert np.array_equal(col, (2 * deepest - np.arange(n)) % n)


def test_a_quandle_walks_its_generator_tree_once_when_first_needed():
    q = enum("Mk", k=6)
    # enumeration, the orbits and the power relations read no tree
    assert verify_n_relations(q)
    assert "tree" not in vars(q)
    # a name, the table or a search each walks it first
    for need in (lambda q: q.element_name(0), dense_tables, lambda q: is_isomorphic(q, q)):
        fresh = dataclasses.replace(q)
        need(fresh)
        assert "tree" in vars(fresh)
    export_dot(q)
    tree = vars(q)["tree"]
    assert verify_all(q) and is_isomorphic(q, q)
    assert q.tree is tree


def test_inverse_column_of_an_unreached_element_is_unset():
    # element 1 is fixed by the only generator, which sits at 0
    q = tiny([[0, 1]], [0], [1], [2])
    assert q.table[:, 1].tolist() == [-1, -1]
    assert full_op(q, 0, 1, -1) == full_op(q, 1, 1, -1) == -1


def test_generation_reports_the_element_no_generator_reaches():
    # the unreached column is all -1, so the table's first row misses it
    report = verify_axioms(tiny([[0, 1]], [0], [1], [2]))
    assert not report.ok
    assert report.failures == ["generation: element 1 is not reached from the generators"]


def test_table_dtype_widens_from_two_to_the_fifteen():
    assert quandle._table_dtype(1) == np.int16
    assert quandle._table_dtype(2**15 - 1) == np.int16
    assert np.iinfo(np.int16).max == 2**15 - 1
    assert quandle._table_dtype(2**15) == np.int32
    assert quandle._table_dtype(10**5) == np.int32
    assert enum("Mk", k=1).table.dtype == np.int16


def test_point_symmetry_order():
    q = enum("T26", (2, 3))
    part = orbits(q)
    n_of_orbit = {part.orbit_of[el]: q.n_values[q.component_of_generator[g] - 1]
                  for g, el in enumerate(q.generator_element)}
    identity = tuple(range(q.size))
    for x in range(q.size):
        perm = q.table[:, x]  # the symmetry at x: y -> y > x
        n = n_of_orbit[part.orbit_of[x]]
        composed = identity
        for _ in range(n):
            composed = tuple(perm[v] for v in composed)
        assert composed == identity


# --- verifiers -----------------------------------------------------------------

def test_verify_axioms_pass():
    for q in (enum("T24", (3, 3)), enum("T33", (2, 3, 4)), enum("Mk", k=1)):
        report = verify_axioms(q)
        assert report
        assert report.failures == []


def test_verify_axioms_catches_idempotence_break():
    q = enum("T26", (2, 3))
    e0 = q.generator_element[0]
    other = (e0 + 1) % q.size
    row = list(q.action[0])
    row[e0], row[other] = row[other], row[e0]
    bad = dataclasses.replace(q, action=(tuple(row),) + q.action[1:])
    report = verify_axioms(bad)
    assert not report
    assert "idempotence" in report.failures[0]


def test_verify_axioms_catches_a_non_bijective_action():
    # b's action sends 3 and 4 to one element and so misses another;
    # every later check relies on bijective actions, so this failure is
    # reported alone
    q = enum("T26", (2, 3))
    row = list(q.action[1])
    missed = row[3]
    row[3] = row[4]
    bad = dataclasses.replace(q, action=(q.action[0], tuple(row)))
    assert verify_axioms(bad).failures == [
        f"bijection: the action of b misses element {missed}"]
    assert not verify_all(bad)
    # b's action sends 2 and 3, and 5 and 6, to one element each, so it
    # misses 5 and 0: the smaller is named, though 5 was the image of the
    # earlier entry
    row = list(q.action[1])
    assert (row[2], row[5]) == (5, 0)
    row[2], row[5] = row[3], row[6]
    bad = dataclasses.replace(q, action=(q.action[0], tuple(row)))
    assert sorted(set(range(q.size)) - set(row)) == [0, 5]
    assert verify_axioms(bad).failures == ["bijection: the action of b misses element 0"]


def test_inverse_action_is_derived_not_stored():
    q = enum("T26", (2, 3))
    assert "inverse_action" not in {f.name for f in dataclasses.fields(q)}
    assert q.inverse_action is q.inverse_action
    for row, inv in zip(q.action, q.inverse_action):
        assert all(inv[y] == x for x, y in enumerate(row))


def test_verify_axioms_catches_generators_that_share_an_element_but_not_an_action():
    # a and b both sit at element 0; column 0 is built from a's action
    # (the identity), so b's swap is not the column of its element
    q = tiny([(0, 1), (1, 0)], [0, 0], [1, 1], [2])
    assert verify_axioms(q).failures == [
        "generator column: x > 0 differs from the action of b"]


@pytest.fixture(scope="module")
def catalog_quandles():
    """The quandles of the default verify-catalog sweep, in its order."""
    return [enumerate_quandle(c.presentation).quandle for c in iter_checks()]


def cubic_oracle(q):
    """Reference verifier sharing no code with verify_axioms: every
    column is walked from its witness, x > a^w = x^(w' a w), then
    idempotence, bijective columns and all size^3 self-distributivity
    triples are checked.  An element without a witness is one the
    generators do not reach, so the quandle is not generated."""
    if None in q.witnesses:
        return False
    n = q.size
    idx = np.arange(n)
    act = np.array(q.action).reshape(-1, n)
    inv = inverted(q.action)

    def walk_all(vec, word):
        for c in word:
            vec = (inv if c & 1 else act)[c >> 1][vec]
        return vec

    fwd = np.empty((n, n), dtype=np.int64)
    for y, w in enumerate(q.witnesses):
        word = codes(w.word)
        fwd[:, y] = walk_all(act[w.base][walk_all(idx, invert(word))], word)
    if not np.array_equal(fwd[idx, idx], idx):
        return False
    if not (np.sort(fwd, axis=0) == idx[:, np.newaxis]).all():
        return False
    return all(np.array_equal(fwd[:, z][fwd], fwd[np.ix_(fwd[:, z], fwd[:, z])])
               for z in range(n))


def tampered(q, g, x1, x2):
    """q with entries x1, x2 of generator g's action swapped."""
    row = list(q.action[g])
    row[x1], row[x2] = row[x2], row[x1]
    return dataclasses.replace(q, action=q.action[:g] + (tuple(row),) + q.action[g + 1:])


def test_verify_axioms_agrees_with_cubic_oracle_on_catalog(catalog_quandles):
    assert len(catalog_quandles) == 93
    assert max(q.size for q in catalog_quandles) == 242
    for q in catalog_quandles:
        assert bool(verify_axioms(q)) == cubic_oracle(q) is True


def tamperings(quandles):
    """Four tampered copies of each quandle with at least three
    elements, as (q, g, x1, x2, tampered(q, g, x1, x2)), drawn from a
    stream seeded by the JSON text of the quandle's own actions."""
    for q in quandles:
        if q.size < 3:
            continue
        rng = random.Random(json.dumps(q.action))
        for _ in range(4):
            g = rng.randrange(len(q.generator_names))
            x1, x2 = rng.sample(range(q.size), 2)
            yield q, g, x1, x2, tampered(q, g, x1, x2)


def test_verify_axioms_rejects_tampered_actions(catalog_quandles):
    # swapped action entries; names are derived from the tampered tables,
    # so they stay valid and only the algebra can give it away
    rejected = 0
    for q, g, x1, x2, bad in tamperings(catalog_quandles):
        if not cubic_oracle(bad):
            rejected += 1
            assert not verify_axioms(bad), (q.generator_names, g, x1, x2)
    assert rejected >= 300


def test_verify_all_rejects_tampered_quandles_that_break_only_their_relations(
        catalog_quandles):
    # a swap can leave a quandle that passes the axioms but is not one
    # of its presentation: only the presentation's relations show that
    passed_axioms = [bad for _, _, _, _, bad in tamperings(catalog_quandles)
                     if verify_axioms(bad)]
    assert len(passed_axioms) == 9
    reports = [verify_all(bad) for bad in passed_axioms]
    assert not any(reports)
    assert all(sum(f.startswith("relation: ") for f in r.failures) == 1 for r in reports)
    # seven of them break nothing else
    assert [r.failures for r in reports if len(r.failures) == 1] == [
        ["relation: a^[b' c b a]=b ends at 4, not 1"],
        ["relation: b^[a' b' a' b' c b a]=b ends at 4, not 1"],
        ["relation: c^[b a]=c ends at 5, not 2"],
        ["relation: b^[c b a]=b ends at 4, not 1"],
        ["relation: c^[b a]=c ends at 5, not 2"],
        ["relation: b^[c b a]=b ends at 4, not 1"],
        ["relation: c^[b a]=c ends at 5, not 2"]]


def test_each_quandle_draws_its_own_tamperings(catalog_quandles):
    # dropping a quandle from the sweep moves no other quandle's swaps
    rows = [c.row_id for c in iter_checks()]
    i = rows.index("T23B")
    assert rows.count("T23B") == 1 and 0 < i < len(rows) - 1

    def swaps(quandles):
        return [(q, g, x1, x2) for q, g, x1, x2, _ in tamperings(quandles)]

    dropped = catalog_quandles[i]
    assert any(q is dropped for q, *_ in swaps(catalog_quandles))
    kept = catalog_quandles[:i] + catalog_quandles[i + 1:]
    assert [s for s in swaps(catalog_quandles) if s[0] is not dropped] == swaps(kept)


SELF_DISTRIBUTIVITY = re.compile(
    r"self-distributivity: \((\d+)>(\d+)\)>(\d+) = (\d+) but "
    r"\(\d+>\d+\)>\(\d+>\d+\) = (\d+)$")


def assert_true_violation(q, failure):
    """The self-distributivity failure names x, y, z with (x>y)>z and
    (x>z)>(y>z) as they stand in the oracle's table, and they differ."""
    x, y, z, lhs, rhs = map(int, SELF_DISTRIBUTIVITY.match(failure).groups())
    m, _ = two_tables(q)
    assert m[m[x, y], z] == lhs != rhs == m[m[x, z], m[y, z]]
    return y


def test_verify_axioms_in_small_bands_rejects_tampered_actions(catalog_quandles, monkeypatch):
    # a band of 64 entries splits every catalog quandle past 64 elements
    # into one-column bands
    monkeypatch.setattr(quandle, "_BAND", 64)
    rejected = 0
    for q, g, x1, x2, bad in tamperings(catalog_quandles):
        report = verify_axioms(bad)
        if not cubic_oracle(bad):
            rejected += 1
            assert not report, (q.generator_names, g, x1, x2)
        for failure in report.failures:
            if failure.startswith("self-distributivity"):
                assert_true_violation(bad, failure)
    assert rejected >= 300


def relabeled(q, order):
    """q with element order[i] renamed i."""
    label = [0] * q.size
    for i, x in enumerate(order):
        label[x] = i

    def moved(rows):
        out = []
        for row in rows:
            new = [0] * q.size
            for x, y in enumerate(row):
                new[label[x]] = label[y]
            out.append(tuple(new))
        return tuple(out)

    return dataclasses.replace(
        q, action=moved(q.action),
        generator_element=tuple(label[e] for e in q.generator_element))


@pytest.mark.parametrize("g, x1, x2", [(0, 106, 321), (1, 372, 797), (2, 2, 3), (2, 137, 140)])
def test_verify_axioms_finds_a_violation_past_the_first_band(mk30, g, x1, x2):
    # the first generator whose action is no automorphism is the one
    # reported; the elements whose columns it keeps intact come first,
    # so its first violation lies past the first band
    bad = tampered(mk30, g, x1, x2)
    m, _ = two_tables(bad)
    for a in np.array(bad.action):
        broken = (a[m] != m[np.ix_(a, a)]).any(axis=0)
        if broken.any():
            break
    bad = relabeled(bad, np.argsort(broken, kind="stable"))
    first_broken = int((~broken).sum())
    assert first_broken >= quandle._BAND // bad.size
    report = verify_axioms(bad)
    assert not report and cubic_oracle(bad) is False
    [failure] = [f for f in report.failures if f.startswith("self-distributivity")]
    assert assert_true_violation(bad, failure) >= first_broken


@pytest.fixture
def compared(monkeypatch):
    """The sources of the columns verify_axioms compares, one array per
    generator it checks, in the order it checks them."""
    seen = []
    real = quandle._first_non_automorphism

    def recording(cols, a, sources):
        seen.append(sources)
        return real(cols, a, sources)

    monkeypatch.setattr(quandle, "_first_non_automorphism", recording)
    return seen


def edges(quandles):
    """Generator edges y --g--> y^g of the quandles, one per generator
    and element."""
    return sum(q.size * len(q.action) for q in quandles)


def column_rule_holds(m, a, ys):
    """Whether (x>y)^a = x^a > y^a in the table m for every x and every
    y in ys: the column rule on each edge y --a--> y^a."""
    return np.array_equal(a[m[:, ys]], m[np.ix_(a, a[ys])])


def open_and_skipped(q, open_sources):
    """(action, its open sources, the sources left out) per generator."""
    for a, sources in zip(np.array(q.action).reshape(-1, q.size), open_sources, strict=True):
        yield a, sources, np.setdiff1d(np.arange(q.size), sources)


def test_verify_axioms_compares_only_the_open_columns(compared, catalog_quandles):
    # the tree edges and one edge of each full-order cycle are left out;
    # comparing every column again would raise these counts
    mk12 = enum("Mk", k=12)
    assert verify_axioms(mk12)
    assert (sum(map(len, compared)), edges([mk12])) == (287, 1266)
    compared.clear()
    assert all(verify_axioms(q) for q in catalog_quandles)
    assert (sum(map(len, compared)), edges(catalog_quandles)) == (2248, 8110)


def test_every_edge_the_proof_skips_keeps_the_column_rule(compared, catalog_quandles, mk30):
    skipped = 0
    for q in catalog_quandles + [mk30]:
        compared.clear()
        assert verify_axioms(q)
        m, _ = two_tables(q)
        for a, _, ys in open_and_skipped(q, compared):
            assert column_rule_holds(m, a, ys)
            skipped += len(ys)
    assert skipped == 8110 - 2248 + 3210 - 719


def test_the_open_edges_decide_the_column_rule_on_tampered_actions(catalog_quandles):
    # a swap leaves each action a bijection, so wherever the generators
    # still reach every element the table is built along the oracle's
    # tree, and an action's skipped edges may break the column rule
    # only when one of its open edges breaks it too
    checked = decided = 0
    for q, g, x1, x2, bad in tamperings(catalog_quandles):
        if None in bad.witnesses:
            continue
        m, _ = two_tables(bad)
        for a, sources, ys in open_and_skipped(bad, quandle._open_edges(bad)):
            if not column_rule_holds(m, a, ys):
                assert not column_rule_holds(m, a, sources), (q.generator_names, g, x1, x2)
                decided += 1
            checked += 1
    assert (checked, decided) == (982, 773)


def test_exports_golden_digest(catalog_quandles):
    # pins element names and both exports byte for byte over the sweep;
    # the closed-braid families name their elements after the strands.
    # Re-pinned when sealing numbered the elements along the generator
    # tree instead of by vertex label, which relabels them and keeps each
    # element's name.  Re-pinned when T23B joined the sweep; the other 92
    # quandles still give ba9fb758
    digest = hashlib.sha256()
    for q in catalog_quandles:
        digest.update((export_dot(q) + export_json(q)).encode())
    assert digest.hexdigest() == (
        "d34994c47866a74acd6c6ea4d48b486fdf8c6746315748d8f771b9b3e4e89ff0")


def test_verify_n_relations_pass():
    q = enum("T24", (3, 5))
    assert verify_n_relations(q)


def test_verify_n_relations_flags_orbit_without_generator():
    # identity action on two elements, one generator: element 1 is its
    # own orbit and no generator names it
    q = tiny([[0, 1]], [0], [1], [2])
    report = verify_n_relations(q)
    assert not report
    assert any("no generator" in f for f in report.failures)


def test_verify_n_relations_flags_conflicting_n():
    # both generators share the single orbit but come from components
    # with different n
    q = tiny([[1, 0], [1, 0]], [0, 1], [1, 2], [2, 3])
    report = verify_n_relations(q)
    assert not report
    assert any("different n" in f for f in report.failures)


def test_verify_n_relations_flags_wrong_order():
    # swap has order 2, the declared n is 3
    q = tiny([[1, 0]], [0], [1], [3])
    report = verify_n_relations(q)
    assert not report
    assert any("power relation" in f for f in report.failures)


def full_table_n_relations(q):
    """Oracle: x^(y^n) = x for every pair of elements, on every column
    of the full operation table, with n from y's orbit."""
    part = orbits(q)
    orbit_n = {}
    for gen, el in enumerate(q.generator_element):
        n = q.n_values[q.component_of_generator[gen] - 1]
        if orbit_n.setdefault(part.orbit_of[el], n) != n:
            return False
    if len(orbit_n) != part.orbit_count:
        return False
    fwd = q.table
    n_of = np.array([orbit_n[o] for o in part.orbit_of])
    idx = np.arange(q.size)
    # power[x, y] = x acted on by y as many times as y's orbit's n
    power = np.broadcast_to(idx[:, np.newaxis], (q.size, q.size))
    for step in range(int(n_of.max())):
        power = np.where(n_of > step, np.take_along_axis(fwd, power, axis=0), power)
    return bool((power == idx[:, np.newaxis]).all())


def test_verify_n_relations_agrees_with_full_table_on_catalog(catalog_quandles):
    assert len(catalog_quandles) == 93
    for q in catalog_quandles:
        assert bool(verify_n_relations(q)) == full_table_n_relations(q) is True


def test_verify_n_relations_agrees_with_full_table_on_tampered_actions(catalog_quandles):
    rejected = 0
    for q, g, x1, x2, bad in tamperings(catalog_quandles):
        ok = bool(verify_n_relations(bad))
        assert ok == full_table_n_relations(bad), (q.generator_names, g, x1, x2)
        rejected += not ok
    assert rejected >= 300


def test_verify_n_relations_rejects_an_n_the_actions_do_not_satisfy(catalog_quandles):
    # raising a component's n by one keeps every action's order a
    # divisor of the old n only, so the check must fail unless all of
    # the component's generators act trivially
    rejected = 0
    for q in catalog_quandles:
        for c, n in enumerate(q.n_values):
            ns = q.n_values[:c] + (n + 1,) + q.n_values[c + 1:]
            bad = dataclasses.replace(q, n_values=ns)
            trivial = all(q.action[g] == tuple(range(q.size))
                          for g, comp in enumerate(q.component_of_generator) if comp == c + 1)
            report = verify_n_relations(bad)
            assert bool(report) == trivial == full_table_n_relations(bad), (q.generator_names, c)
            if not trivial:
                rejected += 1
                assert any("power relation" in f for f in report.failures)
    assert rejected >= 190


def test_verify_all():
    assert verify_all(enum("T24C"))
    # orbit/component mismatch comes through verify_all
    assert not verify_all(tiny([[0, 1]], [0], [1], [2]))


def test_the_quandle_with_no_elements_passes_every_check_vacuously():
    empty = FiniteQuandle(size=0, generator_names=(), action=(), generator_element=(),
                          component_of_generator=(), n_values=())
    assert verify_axioms(empty).failures == []
    assert verify_all(empty).failures == []


# --- orbits ----------------------------------------------------------------------

def test_orbits_partition():
    q = enum("Lk", ns=(2, 2, 3), k=4)
    part = orbits(q)
    assert part.orbit_count == 3
    assert sorted(part.sizes()) == [2, 6, 6]
    assert part.orbit_of[0] == 0  # numbering starts at element 0
    total = []
    for orbit in range(part.orbit_count):
        members = part.members(orbit)
        assert all(part.orbit_of[x] == orbit for x in members)
        total.extend(members)
    assert sorted(total) == list(range(q.size))


def test_orbits_are_found_once_per_quandle(monkeypatch):
    q = enum("Lk", ns=(2, 2, 3), k=4)
    calls = []
    find = quandle._orbit_partition
    monkeypatch.setattr(quandle, "_orbit_partition", lambda q: calls.append(q) or find(q))
    assert verify_all(q)
    assert calls == [q]
    assert orbits(q) is orbits(q) is q.partition
    assert calls == [q]


def test_orbits_single_component_knot():
    q = enum("trefoil", (5,))
    assert orbits(q).orbit_count == 1


# --- isomorphism ------------------------------------------------------------------

def test_is_isomorphic_reflexive_symmetric():
    a = enum("Lk", ns=(2, 3), k=3)
    b = enum("Lk", ns=(2, 3), k=-3)
    assert is_isomorphic(a, a)
    assert is_isomorphic(a, b)
    assert is_isomorphic(b, a)


def test_is_isomorphic_keeps_neither_quandle_alive_without_garbage_collection():
    a = enum("Lk", ns=(2, 3), k=3)
    b = enum("Lk", ns=(2, 3), k=-3)
    gc.disable()
    try:
        assert is_isomorphic(a, b)
        refs = [weakref.ref(a), weakref.ref(b)]
        del a, b
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_is_isomorphic_rejects_size_mismatch():
    assert not is_isomorphic(enum("trefoil", (3,)), enum("trefoil", (4,)))


def test_is_isomorphic_rejects_same_size_different_structure():
    pairs = [
        # 26 elements; orbit sizes differ
        (enum("T33", (2, 3, 4)), enum("T24C")),
        # 12 elements in one orbit each, told apart only by cycle type
        (enum("trefoil", (5,)), enum("T34", (2,))),
        # 10 elements, orbit sizes 2, 4 and 4 in both
        (enum("Lk", (2, 2, 4), k=-2), enum("Lk", (2, 2, 2), k=4)),
    ]
    for a, b in pairs:
        assert a.size == b.size
        assert not is_isomorphic(a, b)
        assert not is_isomorphic(b, a)


def test_is_isomorphic_same_quandle_relabeled():
    # mirror torus link: opposite crossing signs, isomorphic result
    a = enum("T2k", (2, 2), k=4)
    b = enum("T2k", (2, 2), k=-4)
    assert is_isomorphic(a, b)
    # the search builds neither table
    assert "table" not in vars(a) and "table" not in vars(b)
    assert is_isomorphic(b, a)
    # three orbits with equal invariants, elements shuffled
    c = enum("T33", (2, 2, 2))
    order = list(range(c.size))
    random.Random(31).shuffle(order)
    d = relabeled(c, order)
    assert d.action != c.action
    assert is_isomorphic(c, d)
    assert is_isomorphic(d, c)


@pytest.mark.parametrize("n, swaps", [
    (3, [(0, 2)]),
    (4, [(0, 2), (2, 5), (4, 5)]),
    (5, [(0, 2), (2, 7), (7, 9), (9, 10), (10, 11)]),
])
def test_is_isomorphic_checks_every_action_of_the_extended_map(n, swaps):
    # a swap in a's action that keeps the generator tree and the orbit
    # kinds, with no relations to prune by: the map extended along the
    # tree is a bijection, and only its check on every generator action
    # tells the pair apart
    q = enum("trefoil", (n,))
    for x1, x2 in swaps:
        bad = dataclasses.replace(tampered(q, 0, x1, x2), relations=())
        assert bad.tree == q.tree
        assert quandle._orbit_kinds(bad) == quandle._orbit_kinds(q)
        assert not is_isomorphic(bad, q), (n, x1, x2)
    if n == 3:
        assert (q.action[0], bad.action[0]) == ((0, 3, 1, 2), (1, 3, 0, 2))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_dihedral_quandle_from_its_actions_alone(q):
    # R_q: x > y = 2y - x mod q, generators at 0 and 1, no inverse given
    actions = [[(2 * y - x) % q for x in range(q)] for y in (0, 1)]
    r = tiny(actions, [0, 1], [1, 1], [2])
    assert verify_all(r)
    t = enum("T2k", (2,), k=q)
    assert is_isomorphic(r, t)
    assert is_isomorphic(t, r)
    fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    with pytest.raises(TypeError):
        FiniteQuandle(**fields, inverse_action=r.inverse_action)


@pytest.mark.parametrize("change, message", [
    ({"action": ((0, 1),)}, "action has 1 entries for 2 generators"),
    ({"generator_element": (0,)}, "generator_element has 1 entries for 2 generators"),
    ({"component_of_generator": (1, 1, 1)},
     "component_of_generator has 3 entries for 2 generators"),
    ({"action": ((0, 1), (0,))}, "action of generator b is not 2 entries in 0..1"),
    ({"action": ((0, 2), (0, 1))}, "action of generator a is not 2 entries in 0..1"),
    ({"action": ((0, 1), (40000, 1))}, "action of generator b is not 2 entries in 0..1"),
    ({"action": ((-1, 1), (0, 1))}, "action of generator a is not 2 entries in 0..1"),
    ({"generator_element": (0, 2)}, "generator_element of generator b is outside 0..1"),
    ({"component_of_generator": (1, 2)},
     "component_of_generator of generator b has no n-value"),
    ({"component_of_generator": (0, 1)},
     "component_of_generator of generator a has no n-value"),
])
def test_a_malformed_hand_built_quandle_is_refused_when_built(change, message):
    # the readers index with these fields unchecked, so a bad entry
    # would surface later, as an IndexError in orbits or numpy's
    # OverflowError past int16
    q = tiny([[0, 1], [0, 1]], [0, 1], [1, 1], [2])
    with pytest.raises(ValueError) as err:
        dataclasses.replace(q, **change)
    assert err.value.args == (message,)


# --- exports ---------------------------------------------------------------------

def test_export_dot_shape():
    q = enum("T26", (2, 3))
    dot = export_dot(q)
    assert dot == export_dot(q)  # deterministic
    node_lines = [l for l in dot.splitlines() if "[label=" in l]
    assert len(node_lines) == 10
    assert '  v0 [label="a"];' in dot
    styles = set(re.findall(r"style=(\w+)", dot))
    assert len(styles) == len(q.generator_names)
    assert dot.startswith("digraph quandle {")
    assert dot.endswith("}\n")


def test_export_dot_n2_edges_undirected():
    # every edge of an order-2 symmetry pairs off, so the generator in
    # the n=2 component draws no directed arrows
    q = enum("hopf", (2, 2))
    dot = export_dot(q)
    arrow_lines = [l for l in dot.splitlines()
                   if "->" in l and "dir=none" not in l]
    assert arrow_lines == []


def refuses_element_1(q):
    for read in (export_json, export_dot, lambda q: q.element_name(0)):
        with pytest.raises(ValueError, match=r"^element 1 is not reached from the generators$"):
            read(q)


def test_exports_refuse_an_element_no_generator_reaches():
    # element 1 is fixed by the only generator, which sits at 0
    refuses_element_1(tiny([[0, 1]], [0], [1], [2]))


def test_exports_name_the_first_missed_element_before_one_reached():
    # the generator swaps 0 and 3: the first element missed precedes one reached
    refuses_element_1(tiny([[3, 1, 2, 0]], [0], [1], [2]))


def test_export_json_round_trip():
    q = enum("T24", (3, 3))
    payload = json.loads(export_json(q))
    assert payload["size"] == 8
    assert payload["generators"] == ["a", "b"]
    assert payload["n_values"] == [3, 3]
    assert payload["elements"][0] == "a"
    assert len(payload["action"]) == 2
    assert len(payload["action"][0]) == 8
    for row, inv_row in zip(payload["action"], payload["inverse_action"]):
        assert sorted(row) == list(range(8))
        assert all(inv_row[y] == x for x, y in enumerate(row))


def dumped(q):
    """export_json as json.dumps spells its payload."""
    payload = {
        "size": q.size,
        "generators": list(q.generator_names),
        "generator_element": list(q.generator_element),
        "component_of_generator": list(q.component_of_generator),
        "n_values": list(q.n_values),
        "elements": list(q.element_names),
        "action": [list(row) for row in q.action],
        "inverse_action": [list(row) for row in q.inverse_action],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_export_json_writes_the_bytes_of_json_dumps(catalog_quandles):
    empty = FiniteQuandle(size=0, generator_names=(), action=(), generator_element=(),
                          component_of_generator=(), n_values=())
    # the dihedral quandle of order 3, x > y = 2y - x, on generators at 0
    # and 1 whose names json escapes; element 2 is 0^b
    escaped = FiniteQuandle(size=3, generator_names=('q"', "\\\u00e9\u2603"),
                            action=((0, 2, 1), (2, 1, 0)), generator_element=(0, 1),
                            component_of_generator=(1, 1), n_values=(3,))
    assert escaped.element_names == ('q"', "\\\u00e9\u2603", 'q"^\\\u00e9\u2603')
    assert export_json(empty) == dumped(empty) == (
        '{\n  "action": [],\n  "component_of_generator": [],\n  "elements": [],\n'
        '  "generator_element": [],\n  "generators": [],\n  "inverse_action": [],\n'
        '  "n_values": [],\n  "size": 0\n}\n')
    for q in [empty, escaped, *catalog_quandles]:
        assert export_json(q) == dumped(q)
    assert '  "generators": [\n    "q\\"",\n    "\\\\\\u00e9\\u2603"\n  ],' in export_json(escaped)
