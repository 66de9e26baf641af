"""Acceptance suite.

Each criterion is one test that always prints a single [PASS]/[FAIL]
line on the real stdout, then fails with details if anything inside it
went wrong.  Criteria that reuse earlier products share module-scoped
fixtures so the whole file stays fast.
"""

import time

import pytest

from nquandles.enumerator import EnumerationLimits, enumerate_quandle
from nquandles.presentations import (
    augment_n,
    builtin_family,
    secondary_relations,
)
from nquandles.quandle import (
    dense_tables,
    export_dot,
    full_op,
    is_isomorphic,
    orbits,
    verify_axioms,
    verify_n_relations,
)

# (family, N, expected size); the fixed presentations with recorded sizes
FIXED_TABLE = [
    ("T24", (3, 3), 8),
    ("T24", (3, 4), 14),
    ("T24", (3, 5), 32),
    ("T24C", (2, 3, 2), 26),
    ("T26", (2, 3), 10),
    ("T26", (2, 4), 18),
    ("T26", (2, 5), 42),
    ("T28", (2, 3), 20),
    ("T210", (2, 3), 50),
    ("T33", (2, 3, 3), 14),
    ("T33", (2, 3, 4), 26),
    ("T33", (2, 3, 5), 62),
]

LK_KS = (1, -1, 3, -3, 5, -5, 2, -2, 4, -4, 6, -6)
LK_NS = (2, 3, 4, 5)
MK_KS = tuple(range(-3, 5))


def lk_n_values(k, n):
    return (2, n) if k % 2 else (2, 2, n)


def enum(family, ns=None, k=None):
    p = builtin_family(family, k=k)
    if ns is not None:
        p = augment_n(p, ns)
    return enumerate_quandle(p)


def report(capsys, number, description, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}:\n" + "\n".join(failures)


@pytest.fixture(scope="module")
def fixed_products():
    out = {}
    for family, ns, want in FIXED_TABLE:
        t0 = time.monotonic()
        outcome = enum(family, ns)
        out[(family, ns)] = (outcome, time.monotonic() - t0, want)
    return out


@pytest.fixture(scope="module")
def lk_sweep():
    t0 = time.monotonic()
    quandles = {}
    for k in LK_KS:
        for n in LK_NS:
            quandles[(k, n)] = enum("Lk", lk_n_values(k, n), k=k).quandle
    return quandles, time.monotonic() - t0


@pytest.fixture(scope="module")
def mk_sweep():
    t0 = time.monotonic()
    quandles = {k: enum("Mk", k=k).quandle for k in MK_KS}
    return quandles, time.monotonic() - t0


def test_criterion_1_fixed_cardinalities(capsys, fixed_products):
    failures = []
    for (family, ns), (outcome, elapsed, want) in fixed_products.items():
        if not outcome.finite:
            failures.append(f"{family} N={ns}: did not terminate")
            continue
        if outcome.vertices != want:
            failures.append(
                f"{family} N={ns}: want {want} got {outcome.vertices}")
        if elapsed >= 1.0:
            failures.append(f"{family} N={ns}: took {elapsed:.2f}s (limit 1s)")
    report(capsys, 1, "fixed presentations reproduce recorded cardinalities",
           failures)


def test_criterion_2_axis_torus_family(capsys, lk_sweep):
    quandles, elapsed = lk_sweep
    failures = []
    t0 = time.monotonic()
    for (k, n), q in quandles.items():
        want = n * abs(k) + 2
        label = f"k={k} n={n}"
        if q is None:
            failures.append(f"{label}: did not terminate")
            continue
        if q.size != want:
            failures.append(f"{label}: want {want} elements got {q.size}")
            continue
        part = orbits(q)
        sizes = sorted(part.sizes(), reverse=True)
        axis_gen = q.component_of_generator.index(max(q.component_of_generator))
        axis_orbit = part.orbit_of[q.generator_element[axis_gen]]
        if len(part.members(axis_orbit)) != 2:
            failures.append(f"{label}: axis orbit size != 2 ({sizes})")
        rest = [s for i, s in enumerate(part.sizes()) if i != axis_orbit]
        if sum(rest) != n * abs(k):
            failures.append(f"{label}: non-axis orbits total {sum(rest)}, "
                            f"want {n * abs(k)}")
        if k % 2 == 0 and (len(rest) != 2 or rest[0] != rest[1]):
            failures.append(f"{label}: even k should split the torus orbit "
                            f"into equal halves, got {rest}")
        if k % 2 == 1 and len(rest) != 1:
            failures.append(f"{label}: odd k should leave one torus orbit, "
                            f"got {rest}")
    for k in (1, 3, 5, 2, 4, 6):
        for n in LK_NS:
            if not is_isomorphic(quandles[(k, n)], quandles[(-k, n)]):
                failures.append(f"k={k} n={n}: not isomorphic to its mirror")
    total = elapsed + (time.monotonic() - t0)
    if total >= 30.0:
        failures.append(f"sweep took {total:.1f}s (limit 30s)")
    report(capsys, 2, "axis-augmented torus family: size n|k|+2, axis orbit 2, "
           "mirror symmetry", failures)


def test_criterion_3_axis_twist_family(capsys, mk_sweep):
    quandles, elapsed = mk_sweep
    failures = []
    t0 = time.monotonic()
    for k, q in quandles.items():
        want = 18 * abs(2 * k - 1) + 8
        if q is None:
            failures.append(f"k={k}: did not terminate")
            continue
        if q.size != want:
            failures.append(f"k={k}: want {want} elements got {q.size}")
            continue
        sizes = sorted(orbits(q).sizes())
        if sizes != [8, 18 * abs(2 * k - 1)]:
            failures.append(f"k={k}: orbit sizes {sizes}")
    for k in (0, -1, -2, -3):
        if not is_isomorphic(quandles[k], quandles[abs(k) + 1]):
            failures.append(f"k={k}: not isomorphic to k={abs(k) + 1}")
    total = elapsed + (time.monotonic() - t0)
    if total >= 30.0:
        failures.append(f"sweep took {total:.1f}s (limit 30s)")
    report(capsys, 3, "axis-augmented twist family: size 18|2k-1|+8, "
           "index-shift symmetry", failures)


def test_criterion_4_verification_suite(capsys, fixed_products, lk_sweep,
                                        mk_sweep):
    failures = []
    everything = (
        [(f"{fam} N={ns}", out.quandle)
         for (fam, ns), (out, _, _) in fixed_products.items()]
        + [(f"Lk k={k} n={n}", q) for (k, n), q in lk_sweep[0].items()]
        + [(f"Mk k={k}", q) for k, q in mk_sweep[0].items()]
    )
    for label, q in everything:
        ax = verify_axioms(q)
        if not ax:
            failures.append(f"{label}: {ax.failures[0]}")
        nr = verify_n_relations(q)
        if not nr:
            failures.append(f"{label}: {nr.failures[0]}")
    report(capsys, 4, "axioms and power relations hold on every product "
           f"({len(everything)} quandles, largest {max(q.size for _, q in everything)})",
           failures)


def test_criterion_5_orbit_component_correspondence(capsys, fixed_products,
                                                    lk_sweep, mk_sweep):
    failures = []
    everything = (
        [(f"{fam} N={ns}", out.quandle)
         for (fam, ns), (out, _, _) in fixed_products.items()]
        + [(f"Lk k={k} n={n}", q) for (k, n), q in lk_sweep[0].items()]
        + [(f"Mk k={k}", q) for k, q in mk_sweep[0].items()]
    )
    for label, q in everything:
        components = len(set(q.component_of_generator))
        count = orbits(q).orbit_count
        if count != components:
            failures.append(f"{label}: {count} orbits, {components} components")
        if components not in (2, 3):
            failures.append(f"{label}: unexpected component count {components}")
    report(capsys, 5, "orbit count equals link component count", failures)


def test_criterion_6_divergence_detection(capsys):
    failures = []
    outcome = enumerate_quandle(
        augment_n(builtin_family("trefoil"), (6,)),
        EnumerationLimits(max_vertices=10_000),
    )
    if outcome.finite:
        failures.append(f"order 6 terminated at {outcome.vertices}")
    elif outcome.cap_kind != "vertices":
        failures.append(f"order 6 hit the {outcome.cap_kind} cap instead")
    for n, want in ((3, 4), (4, 6), (5, 12)):
        out = enum("trefoil", (n,))
        if not out.finite or out.vertices != want:
            failures.append(f"order {n}: want {want} got "
                            f"{out.vertices if out.finite else 'divergence'}")
    report(capsys, 6, "one diverging and three terminating orders on the "
           "same knot", failures)


def test_criterion_7_independent_scalar_checker(capsys):
    failures = []
    p = augment_n(builtin_family("T24"), (3, 3))
    q = enumerate_quandle(p).quandle
    n = q.size
    if n != 8:
        failures.append(f"expected the 8-element product, got {n}")

    def scalar_walk(x, word):
        for gen, sign in word:
            x = q.action[gen][x] if sign > 0 else q.inverse_action[gen][x]
        return x

    # every universal relation fixes every element
    for rel in secondary_relations(p):
        for x in range(n):
            got = scalar_walk(x, rel.word)
            if got != x:
                failures.append(f"relation {rel.word} moves {x} to {got}")

    # re-derive the whole operation table from witnesses alone
    derived = [[None] * n for _ in range(n)]
    for y in range(n):
        wit = q.witnesses[y]
        undo = tuple((g, -s) for g, s in reversed(wit.word))
        for x in range(n):
            mid = q.action[wit.base][scalar_walk(x, undo)]
            derived[x][y] = scalar_walk(mid, wit.word)

    fwd = dense_tables(q)
    for x in range(n):
        for y in range(n):
            if derived[x][y] != fwd[x, y]:
                failures.append(f"table mismatch at ({x}, {y}): "
                                f"{derived[x][y]} vs {fwd[x, y]}")
            if derived[x][y] != full_op(q, x, y):
                failures.append(f"full_op mismatch at ({x}, {y})")
            if full_op(q, derived[x][y], y, -1) != x:
                failures.append(f"inverse mismatch at ({x}, {y})")

    # brute-force axioms on the derived table, no library code involved
    for x in range(n):
        if derived[x][x] != x:
            failures.append(f"derived table breaks idempotence at {x}")
    for y in range(n):
        if sorted(derived[x][y] for x in range(n)) != list(range(n)):
            failures.append(f"derived column {y} is not a bijection")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if derived[derived[x][y]][z] != derived[derived[x][z]][derived[y][z]]:
                    failures.append(f"derived table breaks distributivity "
                                    f"at ({x}, {y}, {z})")
    report(capsys, 7, "independent scalar checker agrees entry for entry "
           "on the 8-element product", failures)


def test_criterion_8_byte_determinism(capsys):
    def full_run():
        chunks = []
        for family, ns, _ in FIXED_TABLE:
            q = enum(family, ns).quandle
            part = orbits(q)
            chunks.append(f"{family} {ns} {q.size} {part.sizes()} "
                          f"{[q.element_name(x) for x in range(q.size)]}\n")
        for k in LK_KS:
            for n in LK_NS:
                q = enum("Lk", lk_n_values(k, n), k=k).quandle
                chunks.append(f"Lk {k} {n} {q.size} {orbits(q).sizes()}\n")
        for k in MK_KS:
            q = enum("Mk", k=k).quandle
            chunks.append(f"Mk {k} {q.size} {orbits(q).sizes()}\n")
        chunks.append(export_dot(enum("T24", (3, 3)).quandle))
        chunks.append(export_dot(enum("T26", (2, 3)).quandle))
        chunks.append(export_dot(enum("Lk", (2, 3), k=3).quandle))
        chunks.append(export_dot(enum("Mk", k=1).quandle))
        return "".join(chunks).encode()

    failures = []
    first = full_run()
    second = full_run()
    if first != second:
        failures.append("two identical runs produced different bytes")
    report(capsys, 8, "repeated runs produce byte-identical reports and "
           "graph files", failures)
