import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import sumhist as sh
from sumhist import groupoid as groupoid_module
from sumhist.groupoid import UNDEFINED, FastLoader
from sumhist.io import save_state_spec

from conftest import (disjoint_union, hom_sets_by_scan, mutated_copy, small_groupoids,
                      stray_ends_groupoid, units_only_groupoid)


def test_pair_groupoid_counts():
    g = sh.pair_groupoid(3)
    assert g.n_objects == 3
    assert g.n_morphisms == 9
    assert len(set(int(u) for u in g.unit_of)) == 3


def test_pair_composition_law():
    # (z,y)∘(y,x) = (z,x) with n=2, z=1, y=0, x=1
    g = sh.pair_groupoid(2)
    zy = 1 * 2 + 0  # (1, 0)
    yx = 0 * 2 + 1  # (0, 1)
    assert g.compose(zy, yx) == 1 * 2 + 1  # (1, 1)


def test_pair_inverse():
    g = sh.pair_groupoid(2)
    assert g.inverse(1 * 2 + 0) == 0 * 2 + 1


def test_pair_groupoid_rejects_empty():
    with pytest.raises(ValueError):
        sh.pair_groupoid(0)


def test_group_groupoid_z2_z4():
    z2 = sh.cyclic_groupoid(2)
    assert z2.n_objects == 1 and z2.n_morphisms == 2
    z4 = sh.cyclic_groupoid(4)
    for a in range(4):
        for b in range(4):
            assert z4.compose(a, b) == (a + b) % 4


def test_cyclic_builtins_match_their_checked_tables():
    # cyclic:k is built by construction; the checked group table of (a + b)
    # mod k must give the same unit, inverses and table, with the same dtypes
    for k in range(1, 9):
        a = np.arange(k)
        checked = sh.group_groupoid((a[:, None] + a[None, :]) % k, name=f"cyclic:{k}")
        built = sh.cyclic_groupoid(k)
        assert built.name == checked.name
        for field in ("src", "tgt", "unit_of", "inverse_of", "table"):
            want, got = getattr(checked, field), getattr(built, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (k, field)


def test_group_groupoid_rejects_non_associative():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    with pytest.raises(sh.InvalidGroupError):
        sh.group_groupoid(table)


def test_group_groupoid_rejects_bad_inverses():
    table = [[0, 1], [1, 1]]  # 1 has no inverse
    with pytest.raises(sh.InvalidGroupError):
        sh.group_groupoid(table)


def test_group_groupoid_rejects_entries_that_are_not_integers():
    # a cast to int would read this as the Z_2 table [[0, 1], [1, 0]]
    for table in ([[0.7, 1.9], [1.2, 0.4]], [[0.0, 1.0], [1.0, 0.0]], [[True]]):
        with pytest.raises(sh.InvalidGroupError, match="^table entries must be integers"):
            sh.group_groupoid(table)
    assert sh.group_groupoid(np.array([[0, 1], [1, 0]], dtype=np.uint8)).inverse_of.tolist() == [0, 1]


def test_product_with_group_shape():
    g = sh.product_with_group(2, sh.cyclic_groupoid(2))
    assert g.n_objects == 2
    assert g.n_morphisms == 8


def test_product_with_group_composition():
    # (1; a; 0)∘(0; b; 1) = (1; ab; 1) with a = b = the generator of Z2
    z2 = sh.cyclic_groupoid(2)
    g = sh.product_with_group(2, z2)
    k, n = 2, 2

    def mid(y, gg, x):
        return (y * k + gg) * n + x

    assert g.compose(mid(1, 1, 0), mid(0, 1, 1)) == mid(1, 0, 1)
    assert g.unit(0) == mid(0, 0, 0)


def test_product_requires_group():
    with pytest.raises(ValueError):
        sh.product_with_group(2, sh.pair_groupoid(2))


def test_validate_clean_constructors():
    for g in small_groupoids() + [sh.pair_groupoid(4)]:
        assert sh.validate_axioms(g).ok, g.name


def test_validate_detects_composition_mutation():
    import dataclasses
    g = sh.pair_groupoid(3)
    table = np.array(g.table)
    a, b = np.argwhere(table != UNDEFINED)[5]
    table[a, b] = (table[a, b] + 1) % g.n_morphisms
    bad = dataclasses.replace(g, table=table)
    report = sh.validate_axioms(bad)
    assert not report.ok
    assert report.kinds() & {"associativity", "unit", "domain", "inverse"}


def test_validate_detects_deleted_inverse():
    import dataclasses
    g = sh.pair_groupoid(3)
    inv = np.array(g.inverse_of)
    inv[1] = -1
    bad = dataclasses.replace(g, inverse_of=inv)
    report = sh.validate_axioms(bad)
    assert not report.ok
    assert "inverse" in report.kinds()


def test_validate_mutation_scan(rng):
    targets = [sh.pair_groupoid(3), sh.cyclic_groupoid(6),
               sh.product_with_group(2, sh.cyclic_groupoid(3))]
    for _ in range(60):
        g = targets[int(rng.integers(len(targets)))]
        bad = mutated_copy(g, rng)
        assert not sh.validate_axioms(bad, limit=1).ok


@pytest.mark.parametrize("field, index, value, first", [
    ("src", 0, 5, "[range] src[0] out of range"),
    ("src", 0, -1, "[range] src[0] out of range"),
    ("tgt", 1, 2, "[range] tgt[1] out of range"),
    ("unit_of", 0, 4, "[unit] unit_of[0] = 4 is not a morphism"),
    ("inverse_of", 3, -1, "[inverse] inverse_of[3] = -1 is not a morphism"),
    # pair:2 has M = 4 morphisms, so M itself is the first entry out of range
    ("table", (1, 3), 4, "[range] table[1,3] = 4 out of range"),
    ("table", (1, 3), -2, "[range] table[1,3] = -2 out of range"),
    ("table", (1, 3), 10 ** 6, "[range] table[1,3] = 1000000 out of range"),
])
def test_validate_reports_out_of_range_entries(field, index, value, first):
    import dataclasses
    g = sh.pair_groupoid(2)
    entries = np.array(getattr(g, field))
    entries[index] = value
    report = sh.validate_axioms(dataclasses.replace(g, **{field: entries}))
    assert str(report.violations[0]) == first


def test_validate_limit_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        sh.validate_axioms(sh.pair_groupoid(2), limit=0)


def dense_associativity_violations(C, defined):
    """Reference scan: (a∘b)∘c against a∘(b∘c) as dense (chunk, M, M) gathers
    over every b and c, reported in (a, b, c) order."""
    M = C.shape[0]
    chunk = max(1, min(64, (1 << 22) // max(M * M, 1)))
    Csafe = np.where(defined, C, 0)
    for a0 in range(0, M, chunk):
        A = np.arange(a0, min(a0 + chunk, M))
        AB = C[A]
        ab_def = (AB >= 0) & (AB < M)
        lhs = C[np.where(ab_def, AB, 0), :]          # lhs[i,b,c] = (a_i∘b)∘c
        rhs = C[A][:, Csafe]                         # rhs[i,b,c] = a_i∘(b∘c)
        bad = ab_def[:, :, None] & defined[None, :, :] & (lhs != rhs)
        for i, b, c in np.argwhere(bad):
            yield sh.Violation("associativity",
                               f"({int(A[i])}∘{b})∘{c} != {int(A[i])}∘({b}∘{c})")


def test_composable_triple_scan_reports_as_the_dense_scan(rng, monkeypatch):
    targets = small_groupoids() + [sh.product_with_group(2, sh.cyclic_groupoid(2))]
    bad = [mutated_copy(targets[i % len(targets)], rng) for i in range(150)]
    limits = (None, 1, 3)
    reports = [sh.validate_axioms(g, limit) for g in bad for limit in limits]
    assert all(len(r.violations) <= limit
               for r, limit in zip(reports, limits * len(bad)) if limit is not None)
    got = [r.summary() for r in reports]
    monkeypatch.setattr(groupoid_module, "_associativity_violations",
                        dense_associativity_violations)
    want = [sh.validate_axioms(g, limit).summary() for g in bad for limit in limits]
    assert got == want
    # the comparison covers long associativity reports, not only early exits
    assert sum(r.count("[associativity]") for r in want) > 500


def triple_associativity_violations(C, defined):
    """Reference scan, one triple at a time: every (a, b) with C[a, b]
    defined, then every c with C[b, c] defined, in (a, b, c) order."""
    M = C.shape[0]
    for a, b, c in itertools.product(range(M), repeat=3):
        if defined[a, b] and defined[b, c] and C[C[a, b], c] != C[a, C[b, c]]:
            yield sh.Violation("associativity", f"({a}∘{b})∘{c} != {a}∘({b}∘{c})")


def test_flat_gather_scan_reports_as_the_per_triple_scan(monkeypatch):
    rng = np.random.default_rng(2024)
    targets = [sh.resolve_groupoid(name) for name in
               ("pair:3", "pair_x_cyclic:2,2", "cyclic:4", "pair_x_cyclic:3,2")]
    bad = [mutated_copy(targets[i % len(targets)], rng) for i in range(300)]
    limits = (None, 1, 3)
    got = [sh.validate_axioms(g, limit).violations for g in bad for limit in limits]
    monkeypatch.setattr(groupoid_module, "_associativity_violations",
                        triple_associativity_violations)
    want = [sh.validate_axioms(g, limit).violations for g in bad for limit in limits]
    assert got == want
    assert sum(v.kind == "associativity" for r in want for v in r) > 300


# Light's test: validate_axioms proves associativity from the triples whose
# middle lies in a generating set, and scans every triple only when that test
# fails or when a range or domain violation came first.


def same_hom_set_swaps(g, rng, count):
    """count copies of g, each with one to three composites a∘b replaced by
    another morphism of the same hom set src(b) -> tgt(a): the domain and
    every endpoint stay exact, while associativity and the unit laws may
    fail."""
    sizes, homs = g.hom_arrays
    table = np.asarray(g.table)
    pa, pb = np.nonzero(table != UNDEFINED)
    keys = g.src[pb] * g.n_objects + g.tgt[pa]
    swappable = np.flatnonzero(sizes[keys] > 1)
    copies = []
    for _ in range(count):
        t = table.copy()
        for i in rng.choice(swappable, size=int(rng.integers(1, 4)), replace=False):
            hom = homs[keys[i], :sizes[keys[i]]]
            t[pa[i], pb[i]] = rng.choice(hom[hom != t[pa[i], pb[i]]])
        copies.append(dataclasses.replace(g, table=t))
    return copies


def hom_set_renamings(g, rng, count):
    """count copies of g whose table renames two morphisms of one hom set
    throughout: an isomorphic, so associative, table, read with the units
    and inverses of g, whose laws may then fail."""
    sizes, homs = g.hom_arrays
    table = np.asarray(g.table)
    copies = []
    for key in rng.choice(np.flatnonzero(sizes > 1), size=count):
        x, y = rng.choice(homs[key, :sizes[key]], size=2, replace=False)
        rename = np.arange(g.n_morphisms)
        rename[[x, y]] = y, x
        t = table[rename][:, rename]
        copies.append(dataclasses.replace(g, table=np.where(t == UNDEFINED, t, rename[t])))
    return copies


def full_scan_reports(monkeypatch, corpus, limits, reference):
    """validate_axioms reports with Light's test switched off, so that the
    reference scan decides associativity on every table."""
    monkeypatch.setattr(groupoid_module, "_light_associative", lambda *args: False)
    monkeypatch.setattr(groupoid_module, "_associativity_violations", reference)
    return [sh.validate_axioms(g, limit).violations for g in corpus for limit in limits]


def test_light_test_reports_as_the_full_scan(monkeypatch):
    rng = np.random.default_rng(21)
    names = ("pair_x_cyclic:2,2", "pair_x_cyclic:3,2", "pair_x_cyclic:2,3",
             "pair_x_cyclic:3,3", "cyclic:4", "cyclic:5")
    corpus = []
    for name in names:
        g = sh.resolve_groupoid(name)
        corpus += same_hom_set_swaps(g, rng, 120) + hom_set_renamings(g, rng, 40)
    # one corrupted compose, inverse or unit entry: among these, range and
    # domain violations, after which the full scan must decide
    targets = [sh.resolve_groupoid(name) for name in ("pair:3", "pair_x_cyclic:2,2", "cyclic:4")]
    corpus += [mutated_copy(targets[i % len(targets)], rng) for i in range(300)]
    limits = (None, 2)
    verdicts = []
    light = groupoid_module._light_associative
    monkeypatch.setattr(groupoid_module, "_light_associative",
                        lambda *args: verdicts.append(light(*args)) or verdicts[-1])
    got = [sh.validate_axioms(g, limit).violations for g in corpus for limit in limits]
    want = full_scan_reports(monkeypatch, corpus, limits, dense_associativity_violations)
    assert got == want
    # the corpus holds tables that the test proves and tables that it refutes
    assert verdicts.count(True) > 300 and verdicts.count(False) > 500
    assert sum(v.kind == "associativity" for r in want for v in r) > 5000


# the smallest loop that is not a group: a Latin square with identity 0 in
# which every element is its own two-sided inverse
LOOP5 = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


def test_light_test_refutes_a_loop_with_identity_and_inverses(monkeypatch):
    lhs, rhs = LOOP5[LOOP5, :], LOOP5[:, LOOP5]      # (ab)c and a(bc) over (a, b, c)
    a, b, c = np.argwhere(lhs != rhs)[0]
    with pytest.raises(sh.InvalidGroupError) as exc:
        sh.group_groupoid(LOOP5)
    assert str(exc.value) == ("table fails the group axioms: [associativity] "
                              f"({a}∘{b})∘{c} != {a}∘({b}∘{c})")
    ends = np.zeros(5, dtype=np.int64)
    loop = sh.FiniteGroupoid(1, ends, ends.copy(), np.array([0]), np.arange(5),
                             LOOP5.astype(np.int32), name="loop5")
    report = sh.validate_axioms(loop)
    assert report.kinds() == {"associativity"}
    assert report.violations == full_scan_reports(monkeypatch, [loop], (None,),
                                                  triple_associativity_violations)[0]


def test_light_test_on_a_disconnected_description_file(tmp_path, monkeypatch):
    # cyclic:3 on object 0, pair:2 on objects 1 and 2, a lone unit on object 3
    path = tmp_path / "union.yaml"
    sh.save_groupoid_file(disjoint_union([sh.cyclic_groupoid(3), sh.pair_groupoid(2),
                                          sh.pair_groupoid(1)]), path)
    g = sh.load_groupoid_file(path)
    pa, pb = np.nonzero(g.table != UNDEFINED)
    generators = groupoid_module._generators(g.src, g.tgt, pa, pb, g.table[pa, pb])
    # a generator of Z3 with its unit, the unit and both arrows of pair:2, the lone unit
    assert np.flatnonzero(generators).tolist() == [0, 1, 3, 4, 5, 7]
    assert sh.validate_axioms(g).ok
    units = units_only_groupoid()
    pa, pb = np.nonzero(units.table != UNDEFINED)
    assert groupoid_module._generators(units.src, units.tgt, pa, pb,
                                       units.table[pa, pb]).all()
    assert sh.validate_axioms(units).ok
    corpus = same_hom_set_swaps(g, np.random.default_rng(5), 40)
    got = [sh.validate_axioms(h).violations for h in corpus]
    assert got == full_scan_reports(monkeypatch, corpus, (None,),
                                    triple_associativity_violations)
    assert sum(1 for r in got for v in r if v.kind == "associativity") > 40


def latin_squares(k, reduced=False):
    """Every k×k Latin square over 0..k-1, or every reduced one (first row
    and first column 0..k-1), in lexicographic order."""
    rows = list(itertools.permutations(range(k)))

    def extend(square):
        if len(square) == k:
            yield np.array(square)
            return
        for row in rows:
            if (not reduced or row[0] == len(square)) and \
                    all(r[j] != row[j] for r in square for j in range(k)):
                yield from extend(square + [row])

    return list(extend([tuple(range(k))] if reduced else []))


def test_group_verdicts_over_every_small_table():
    # every loop of order 4 or less is a group, so only the 5×5 corpus holds
    # tables that the unit and inverse laws pass and associativity refuses
    perms = list(itertools.permutations(range(3)))
    corpora = [([np.array(t) for t in itertools.product(perms, repeat=3)], 216, 3),
               (latin_squares(4), 576, 16),
               (latin_squares(5, reduced=True), 56, 6)]
    for tables, size, groups in corpora:
        accepted = 0
        for table in tables:
            try:
                g = sh.group_groupoid(table)
            except sh.InvalidGroupError:
                continue
            assert np.array_equal(g.table, table)
            accepted += 1
        assert (len(tables), accepted) == (size, groups)


def test_group_check_needs_no_cube_of_the_order():
    # the dense (ab)c against a(bc) comparison held two k^3 arrays: 1 GiB here;
    # cyclic_groupoid runs no check, so the table goes through group_groupoid
    a = np.arange(400)
    table = (a[:, None] + a[None, :]) % 400
    tracemalloc.start()
    try:
        g = sh.group_groupoid(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_morphisms == 400 and peak < 64 * 2**20


def dense_table(g):
    """The composition table from the endpoint arithmetic of a pair or
    pair-times-group builtin, as one np.where over all M^2 pairs."""
    n = g.n_objects
    k = g.n_morphisms // (n * n)
    ids = np.arange(g.n_morphisms)
    x, gg, y = ids % n, (ids // n) % k, ids // (n * k)
    group = (gg[:, None] + gg[None, :]) % k        # the builtin groups are cyclic
    res = (y[:, None] * k + group) * n + x[None, :]
    return np.where(x[:, None] == y[None, :], res, UNDEFINED).astype(np.int32)


@pytest.mark.parametrize("name", [f"pair:{n}" for n in range(1, 8)]
                         + ["pair_x_cyclic:1,1", "pair_x_cyclic:2,3", "pair_x_cyclic:5,7"])
def test_builtin_tables_match_the_dense_reference(name):
    g = sh.resolve_groupoid(name)
    want = dense_table(g)
    assert g.table.dtype == want.dtype and np.array_equal(g.table, want)


def writer_table(n, cayley):
    """The int32 table the builtin writer stored for pair:n × G, entry by
    entry: (y; g; x)∘(x; h; w) = (y; g·h; w), UNDEFINED off the composable
    pairs."""
    k = len(cayley)

    def mid(y, gg, x):
        return (y * k + gg) * n + x

    table = np.full((n * n * k,) * 2, UNDEFINED, dtype=np.int32)
    for y, gg, x, h, w in itertools.product(range(n), range(k), range(n), range(k), range(n)):
        table[mid(y, gg, x), mid(x, h, w)] = mid(y, cayley[gg][h], w)
    return table


def s3_cayley():
    """Cayley table of the permutations of three points, a non-abelian group."""
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(1, 4))
def test_rule_built_tables_equal_the_writer_tables(n, k):
    groupoids = [sh.product_with_group(n, sh.cyclic_groupoid(k))]
    if k == 1:
        groupoids.append(sh.pair_groupoid(n))
    want = writer_table(n, [[(a + b) % k for b in range(k)] for a in range(k)])
    for g in groupoids:
        assert g.table.dtype == want.dtype and np.array_equal(g.table, want)
        assert g.table is g.table and not g.table.flags.writeable
        with pytest.raises(ValueError):
            g.table[0, 0] = 0


def assert_composition_agrees_with_the_table(g):
    ids = np.arange(g.n_morphisms)
    assert np.array_equal(g.composite(ids[:, None], ids[None, :]), g.table)
    for a, b in itertools.product(range(g.n_morphisms), repeat=2):
        if g.table[a, b] == UNDEFINED:
            with pytest.raises(sh.CompositionError):
                g.compose(a, b)
        else:
            assert g.compose(a, b) == g.table[a, b]


@pytest.mark.parametrize("name", ["pair:1", "pair:4", "cyclic:5", "pair_x_cyclic:1,3",
                                  "pair_x_cyclic:3,2", "pair_x_cyclic:2,3"])
def test_vectorized_and_scalar_composition_agree_with_the_table(name):
    assert_composition_agrees_with_the_table(sh.resolve_groupoid(name))


def test_product_with_a_non_abelian_group_keeps_the_factor_order():
    g = sh.product_with_group(3, sh.group_groupoid(s3_cayley()))
    assert np.array_equal(g.table, writer_table(3, s3_cayley()))
    assert sh.validate_axioms(g).ok
    assert_composition_agrees_with_the_table(sh.product_with_group(2, sh.group_groupoid(s3_cayley())))


def test_a_stored_table_supersedes_the_product_rule():
    g = sh.pair_groupoid(3)
    table = np.array(g.table)
    table[4, 4] = 0
    table[4, 3] = UNDEFINED
    bad = dataclasses.replace(g, table=table)
    assert bad.group_factor is None and bad.compose(4, 4) == 0
    with pytest.raises(sh.CompositionError):
        bad.compose(4, 3)
    ids = np.arange(9)
    assert np.array_equal(bad.composite(ids[:, None], ids), table)
    assert g.compose(4, 4) == 4 and g.compose(4, 3) == 3


def test_a_groupoid_needs_a_table_or_a_group_factor():
    g = sh.pair_groupoid(2)
    with pytest.raises(ValueError, match="composition table or a group factor"):
        sh.FiniteGroupoid(2, g.src, g.tgt, g.unit_of, g.inverse_of)


def test_hom_set_examples():
    g = sh.pair_groupoid(3)
    assert g.hom_set(0, 2) == (2 * 3 + 0,)
    z2 = sh.cyclic_groupoid(2)
    assert z2.hom_set(0, 0) == (0, 1)
    pg = sh.product_with_group(2, sh.cyclic_groupoid(2))
    assert len(pg.hom_set(0, 1)) == 2


@pytest.mark.parametrize("g", small_groupoids() + [stray_ends_groupoid()], ids=repr)
def test_hom_sets_and_fibers_match_a_per_morphism_scan(g):
    n, M = g.n_objects, g.n_morphisms
    scan = hom_sets_by_scan(g)
    for a, b in itertools.product(range(n), repeat=2):
        assert g.hom_set(a, b) == tuple(scan.get((a, b), ()))
    assert len(g.fibers) == n
    for y, fib in enumerate(g.fibers):
        assert fib.tolist() == [m for m in range(M) if g.tgt[m] == y]
    assert g.fibers is g.fibers


def test_hom_set_range_error():
    g = sh.pair_groupoid(2)
    with pytest.raises(IndexError):
        g.hom_set(0, 5)


def test_hom_sets_partition_morphisms():
    for g in small_groupoids():
        total = sum(len(g.hom_set(a, b))
                    for a in range(g.n_objects) for b in range(g.n_objects))
        assert total == g.n_morphisms


def test_inverse_antihomomorphism():
    for g in small_groupoids():
        defined = np.argwhere(np.array(g.table) != UNDEFINED)
        for a, b in defined[:: max(1, len(defined) // 200)]:
            ab = g.compose(int(a), int(b))
            assert g.inverse(ab) == g.compose(g.inverse(int(b)), g.inverse(int(a)))


def test_compose_raises_on_non_composable():
    g = sh.pair_groupoid(2)
    with pytest.raises(sh.CompositionError):
        g.compose(0 * 2 + 0, 1 * 2 + 0)  # src(0,0)=0 != tgt(1,0)=1


@pytest.mark.parametrize("name", ["pair:2", "pair_x_cyclic:2,3", "cyclic:3"])
@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), ("M", 0), (0, "M")])
def test_compose_refuses_ids_out_of_range(name, a, b):
    g = sh.resolve_groupoid(name)
    a, b = (g.n_morphisms if v == "M" else v for v in (a, b))
    with pytest.raises(IndexError, match="out of range"):
        g.compose(a, b)


def test_spec_file_round_trip(tmp_path):
    g = sh.product_with_group(2, sh.cyclic_groupoid(2))
    path = tmp_path / "g.yaml"
    sh.save_groupoid_file(g, path)
    g2 = sh.load_groupoid_file(path)
    assert g2.n_objects == g.n_objects
    assert np.array_equal(g2.table, g.table)
    assert np.array_equal(g2.inverse_of, g.inverse_of)
    assert sh.validate_axioms(g2).ok


def test_spec_file_inference(tmp_path):
    # a pair groupoid description with only the morphism list: everything else
    # is inferable because all hom sets are singletons
    g = sh.pair_groupoid(3)
    path = tmp_path / "pairs.yaml"
    lines = ["objects: 3", "morphisms:"]
    for m in range(9):
        lines.append(f"  - {{id: {m}, src: {g.source(m)}, tgt: {g.target(m)}}}")
    path.write_text("\n".join(lines) + "\n")
    g2 = sh.load_groupoid_file(path)
    assert np.array_equal(g2.table, g.table)
    assert np.array_equal(g2.unit_of, g.unit_of)


@pytest.mark.parametrize("n", [3, 4])
def test_compose_unit_and_inverse_less_files_load_to_the_builtin(tmp_path, n):
    g = sh.pair_groupoid(n)
    path = tmp_path / "pairs.yaml"
    path.write_text(f"objects: {n}\nmorphisms:\n" + "".join(
        f"  - {{id: {m}, src: {g.source(m)}, tgt: {g.target(m)}}}\n"
        for m in range(g.n_morphisms)))
    g2 = sh.load_groupoid_file(path)
    assert g2.table.dtype == np.int32 and np.array_equal(g2.table, g.table)
    assert np.array_equal(g2.unit_of, g.unit_of)
    assert np.array_equal(g2.inverse_of, g.inverse_of)


def test_spec_file_inference_fails_on_ambiguity(tmp_path):
    # two parallel morphisms: composition cannot be inferred
    path = tmp_path / "ambig.yaml"
    path.write_text(
        "objects: 1\n"
        "morphisms:\n"
        "  - {id: 0, src: 0, tgt: 0}\n"
        "  - {id: 1, src: 0, tgt: 0}\n")
    with pytest.raises(sh.GroupoidFormatError):
        sh.load_groupoid_file(path)


def test_spec_file_bad_syntax(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("objects: [unclosed\n")
    with pytest.raises(sh.GroupoidFormatError):
        sh.load_groupoid_file(path)


def test_builtin_names():
    assert sh.builtin_groupoid("pair:4").n_morphisms == 16
    assert sh.builtin_groupoid("cyclic:5").n_morphisms == 5
    assert sh.builtin_groupoid("pair_x_cyclic:2,3").n_morphisms == 12
    with pytest.raises(sh.GroupoidFormatError):
        sh.builtin_groupoid("moebius:7")


@pytest.mark.parametrize("name, count, what", [
    ("pair:5", 25, "morphisms"),
    ("cyclic:5", 25, "group-table entries"),
    ("pair_x_cyclic:3,2", 18, "morphisms"),
    ("pair_x_cyclic:1,5", 25, "group-table entries"),
])
def test_builtin_above_the_size_cap_is_refused_before_it_is_built(monkeypatch, name, count,
                                                                   what):
    monkeypatch.setattr(groupoid_module, "BUILTIN_CAP", 16)
    for at_cap in ("pair:4", "cyclic:4", "pair_x_cyclic:2,4"):    # 16 morphisms or entries
        sh.builtin_groupoid(at_cap)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a builtin above the cap was built")

    monkeypatch.setattr(groupoid_module, "product_with_group", unbuilt)
    monkeypatch.setattr(groupoid_module, "cyclic_groupoid", unbuilt)
    message = f"{name!r}: {count} {what}, above the cap of 16"
    with pytest.raises(sh.GroupoidFormatError, match=re.escape(message) + "$"):
        sh.builtin_groupoid(name)


def test_saving_a_builtin_above_the_table_cap_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(groupoid_module, "TABLE_CAP", 4 * 18 ** 2 - 1)
    sh.save_groupoid_file(sh.pair_groupoid(4), tmp_path / "small.yaml")   # 16 morphisms
    message = "cyclic:2-pairs:3: its composition table takes 1296 bytes, above the cap of 1295"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        sh.save_groupoid_file(sh.builtin_groupoid("pair_x_cyclic:3,2"), tmp_path / "big.yaml")
    assert not (tmp_path / "big.yaml").exists()


ONE_MORPHISM = "objects: 1\nmorphisms:\n  - {id: 0, src: 0, tgt: 0}\n"
TWO_LOOPS = ("objects: 1\nmorphisms:\n  - {id: 0, src: 0, tgt: 0}\n"
             "  - {id: 1, src: 0, tgt: 0}\n")
Z2_UNITS_INVERSE = TWO_LOOPS + "units: [[0, 0]]\ninverse: [[0, 0], [1, 1]]\n"


@pytest.mark.parametrize("text, message", [
    (ONE_MORPHISM + "units: [[0]]\n", "units row 1 [0]: expected 2 integers"),
    (ONE_MORPHISM + "inverse: [[0, x]]\n", "inverse row 1 [0, 'x']: expected 2 integers"),
    (ONE_MORPHISM + "compose: [[0, 0, 0], [0, 0, true]]\n",
     "compose row 2 [0, 0, True]: expected 3 integers"),
    (ONE_MORPHISM + "compose: 7\n", "'compose' must be a list of rows"),
    ("objects: .inf\nmorphisms: [{id: 0, src: 0, tgt: 0}]\n", "invalid 'objects'"),
    ("objects: 1\nmorphisms: [{id: .inf, src: 0, tgt: 0}]\n", "bad morphism row"),
    ("objects: 2\nmorphisms: [{id: 0, src: 0, tgt: 0}]\n",
     "2 objects need at least 2 morphisms"),
    ("objects: 1\nmorphisms:\n  - {id: 0, src: 0, tgt: 0}\n  - {id: 1, src: 0, tgt: 0}\n",
     "cannot infer unit at object 0"),
    (TWO_LOOPS + "units: [[0, 0]]\n",
     "cannot infer inverse of morphism 0: expected exactly one candidate, found 2"),
    (Z2_UNITS_INVERSE,
     "cannot infer composition 0∘0: expected exactly one candidate, found 2"),
    (TWO_LOOPS + "units: [[0, 0], [0, 1], [0, 0]]\n",
     "units row 2 [0, 1]: repeats an earlier row for 0"),
    (TWO_LOOPS + "units: [[0, 0]]\ninverse: [[0, 0], [1, 1], [1, 0]]\n",
     "inverse row 3 [1, 0]: repeats an earlier row for 1"),
    (Z2_UNITS_INVERSE + "compose: [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0]]\n",
     "compose row 5 [1, 1, 0]: repeats an earlier row for 1, 1"),
])
def test_description_file_errors_name_the_file_and_row(tmp_path, text, message):
    path = tmp_path / "g.yaml"
    path.write_text(text)
    with pytest.raises(sh.GroupoidFormatError) as exc:
        sh.load_groupoid_file(path)
    assert str(path) in str(exc.value) and message in str(exc.value)


def test_yaml_errors_are_one_line(tmp_path):
    path = tmp_path / "g.yaml"
    path.write_text("objects: 1\nmorphisms: [}{\n")
    with pytest.raises(sh.GroupoidFormatError) as exc:
        sh.load_groupoid_file(path)
    assert str(exc.value) == (f"groupoid file {path}, line 2: not valid YAML: "
                              "expected the node content, but found '}'")


# parse_yaml against yaml.safe_load: FastLoader (libyaml's parser) reads the
# files the writers produce as safe_load does, and parse_yaml gives safe_load's
# data or error on any text.


def _outcome(load, text):
    """('data', repr) or the error that load(text) ends in; repr tells 1 from
    1.0 and True, and matches nan with nan."""
    try:
        return "data", repr(load(text))
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _fast_load(text):
    return yaml.load(text, Loader=FastLoader)


def test_written_documents_take_the_fast_loader_and_read_as_safe_load(tmp_path):
    path = tmp_path / "doc.yaml"
    written = []
    for name in ("pair:1", "pair:3", "cyclic:1", "cyclic:4", "pair_x_cyclic:2,3"):
        sh.save_groupoid_file(sh.resolve_groupoid(name), path)
        written.append(path.read_text())
    densities = (np.full((1, 3), 1 / 3), np.array([[1.0, 0.0]]),
                 np.array([[0.25, 0.75], [1e-300, 1 - 1e-300], [0.5, 0.5]]))
    for density, hbar, mode, convention in itertools.product(
            densities, (1.0, 0.1, 1e-12), ("real", "euclidean"), ("incremental", "anchored")):
        save_state_spec(sh.StateSpec(density, hbar, mode, convention), path)
        written.append(path.read_text())
    for text in written:
        assert groupoid_module.FAST_TEXT.fullmatch(text)
        assert _fast_load(text) == yaml.safe_load(text)


def _float_text(x):
    return yaml.safe_dump(x).split("\n")[0]


WORD = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
PLAIN_SCALAR = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(_float_text),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(("0", "-0", "+1", "0o17", "017", "0x1f", "1_000", ".5", "1.",
                     "-.inf", ".NaN", "1e3", "1.0e-3", "null", "true", "no")),
    WORD)
QUOTABLE = st.text(st.one_of(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                             st.sampled_from("é∘ψ\t")), max_size=6)
SCALAR = st.one_of(PLAIN_SCALAR, st.just("~"),
                   QUOTABLE.map(lambda s: "'" + s.replace("'", "''") + "'"),
                   QUOTABLE.map(json.dumps))
SEPARATOR = st.sampled_from((", ", ",", " , ", ",  "))
PLAIN_CHARS = " abz09_.,:+-[]{}#"   # a sample of FAST_TEXT's characters, newline aside


def _comment(chars):
    return st.one_of(st.just(""), st.text(chars, max_size=8).map(lambda s: " # " + s))


@st.composite
def _flow(draw, scalar, depth=2):
    """A flow scalar, list or mapping of the description-file row shapes."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(scalar)
    if draw(st.booleans()):
        items = draw(st.lists(_flow(scalar, depth - 1), max_size=4))
        return "[" + draw(SEPARATOR).join(items) + "]"
    keys = draw(st.lists(WORD, max_size=3, unique=True))
    sep = draw(SEPARATOR)
    return "{" + sep.join(f"{k}: {draw(_flow(scalar, depth - 1))}" for k in keys) + "}"


@st.composite
def _format_document(draw, plain=False):
    """A mapping of the description-file and state-spec keys, each value a flow
    node or a block list of flow nodes or block mappings, with comments; plain
    documents hold FAST_TEXT's characters only."""
    scalar = PLAIN_SCALAR if plain else SCALAR
    comment = _comment(PLAIN_CHARS if plain else st.characters(min_codepoint=0x20,
                                                               max_codepoint=0x7e))
    lines = []
    keys = ("objects", "morphisms", "units", "inverse", "compose",
            "hbar", "mode", "convention", "density")
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True)):
        style = draw(st.sampled_from(("flow", "block", "mapping")))
        if style == "flow":
            lines.append(f"{key}: {draw(_flow(scalar))}{draw(comment)}")
            continue
        lines.append(f"{key}:{draw(comment)}")
        indent = draw(st.sampled_from(("", "  ", "    ")))
        for _ in range(draw(st.integers(1, 3))):
            lines.append(draw(comment).strip())
            if style == "block":
                lines.append(f"{indent}- {draw(_flow(scalar))}{draw(comment)}")
            else:
                names = draw(st.lists(st.sampled_from(("id", "src", "tgt")), min_size=1,
                                      unique=True))
                lines.append(f"{indent}- {names[0]}: {draw(scalar)}")
                lines += [f"{indent}  {n}: {draw(scalar)}" for n in names[1:]]
    return "\n".join(lines) + "\n"


@st.composite
def _perturbed(draw, doc, chars):
    """doc with one to six characters inserted, deleted or replaced."""
    text = draw(doc)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(chars))
        how = draw(st.sampled_from(("insert", "delete", "replace")))
        text = text[:i] + ("" if how == "delete" else c) + text[i + (how != "insert"):]
    return text


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(_format_document(), _format_document(plain=True)))
def test_fast_loader_reads_generated_documents_as_safe_load(text):
    fast = _outcome(_fast_load, text)
    assert fast[0] == "data" and fast == _outcome(yaml.safe_load, text)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(
    _perturbed(_format_document(plain=True), PLAIN_CHARS + "\n\n  -"),
    _perturbed(_format_document(plain=True), PLAIN_CHARS + "\n\t?'\"\\&*!|>%@`\x85\ufeff"),
    _perturbed(_format_document(), ":,[]{}#-'\"\t ?&*!|>%@`\\\n\x85\ufeff")))
def test_parse_yaml_gives_safe_loads_data_or_error(text):
    assert _outcome(groupoid_module.parse_yaml, text) == _outcome(yaml.safe_load, text)


def test_deep_nesting_raises_recursion_error_as_safe_load_does():
    # a C-stack composer would crash here instead (yaml.CSafeLoader does)
    with pytest.raises(RecursionError):
        groupoid_module.parse_yaml("[" * 50000 + "]" * 50000)


@pytest.mark.parametrize("depth", [600, 50000])
def test_deep_nesting_is_a_one_line_yaml_error(tmp_path, depth):
    path = tmp_path / "deep.yaml"
    path.write_text("[" * depth + "]" * depth)
    with pytest.raises(sh.GroupoidFormatError) as exc:
        sh.load_groupoid_file(path)
    assert str(exc.value) == f"groupoid file {path}: not valid YAML: nested too deeply"
