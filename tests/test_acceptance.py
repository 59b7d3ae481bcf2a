"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and enforcing the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines live.
"""

import functools
import math
import time

import numpy as np
import pytest

import sumhist as sh
from sumhist.action import EUCLIDEAN, REAL_PHASE
from sumhist.propagator import SliceConfig

from conftest import convolve_naive, mutated_copy, random_element, symmetric_lagrangian


def criterion(number, budget_seconds, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[acceptance] criterion {number}: FAIL ({elapsed:.2f}s) — {summary}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s) — {summary}")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
        return run
    return wrap


@criterion(1, 5.0, "groupoid axioms hold on builtins; 200/200 mutations detected")
def test_criterion_01_groupoid_axioms():
    builtins = ([f"pair:{n}" for n in range(1, 9)]
                + [f"cyclic:{k}" for k in range(1, 9)]
                + ["pair_x_cyclic:2,2", "pair_x_cyclic:2,3", "pair_x_cyclic:3,2",
                   "pair_x_cyclic:3,3", "pair_x_cyclic:4,4", "pair_x_cyclic:2,8",
                   "pair_x_cyclic:8,8"])
    for name in builtins:
        assert sh.validate_axioms(sh.builtin_groupoid(name)).ok, name
    rng = np.random.default_rng(2024)
    targets = [sh.pair_groupoid(3), sh.pair_groupoid(4), sh.cyclic_groupoid(6),
               sh.product_with_group(2, sh.cyclic_groupoid(3))]
    detected = 0
    for i in range(200):
        g = targets[i % len(targets)]
        bad = mutated_copy(g, rng)
        if not sh.validate_axioms(bad, limit=1).ok:
            detected += 1
    assert detected == 200


@criterion(2, 10.0, "star-algebra laws to 1e-12 over 50 random instances per law")
def test_criterion_02_star_algebra_laws():
    tol = 1e-12
    rng = np.random.default_rng(7)
    groupoids = [sh.pair_groupoid(3), sh.pair_groupoid(5), sh.cyclic_groupoid(8),
                 sh.product_with_group(2, sh.cyclic_groupoid(3)),
                 sh.product_with_group(3, sh.cyclic_groupoid(5))]
    for g in groupoids:
        assert g.n_morphisms <= 50
        m = sh.counting_measure(g)
        for _ in range(50):
            f, h, k = (random_element(g, rng) for _ in range(3))
            lhs = sh.convolve(sh.convolve(f, h, m), k, m)
            rhs = sh.convolve(f, sh.convolve(h, k, m), m)
            assert np.max(np.abs(lhs - rhs)) <= tol
            star = sh.involute(sh.convolve(f, h, m), m)
            anti = sh.convolve(sh.involute(h, m), sh.involute(f, m), m)
            assert np.max(np.abs(star - anti)) <= tol
            lam = sh.left_regular(sh.convolve(f, h, m), m)
            prod = sh.left_regular(f, m) @ sh.left_regular(h, m)
            assert np.max(np.abs(lam - prod)) <= tol
            dag = sh.left_regular(sh.involute(f, m), m)
            adj = sh.adjoint_matrix(sh.left_regular(f, m), m)
            assert np.max(np.abs(dag - adj)) <= tol


def _random_state(g, grid, rng):
    lag = symmetric_lagrangian(g, rng)
    p = rng.uniform(0.2, 1.0, (len(grid.times), g.n_objects))
    p /= p.sum(axis=1, keepdims=True)
    return sh.state_from_lagrangian(lag, sh.StateSpec(p), g, grid)


@criterion(3, 30.0, "factorized-state properties: reality, factorizability, "
                    "positivity on <=10^4 histories, form identity")
def test_criterion_03_state_properties():
    rng = np.random.default_rng(11)
    from conftest import random_history

    # reality and factorizability at 1e-12
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 5.0, 5)
    state = _random_state(g, grid, rng)
    for _ in range(100):
        w = random_history(g, rng, grid=grid)
        assert abs(np.conj(state.value(sh.invert_history(w))) - state.value(w)) <= 1e-12
    for _ in range(100):
        n1 = int(rng.integers(1, 5))
        w1 = random_history(g, rng, grid=sh.TimeGrid.uniform(0.0, float(n1), n1))
        x = w1.target[0]
        links = []
        for _ in range(5 - n1):
            nxt = int(rng.integers(3))
            links.append(nxt * 3 + x)
            x = nxt
        w2 = sh.from_links(g, sh.TimeGrid.uniform(float(n1), 5.0, 5 - n1), links)
        c = state.density_at(w1.target)
        lhs = state.value(w2) * state.value(w1)
        rhs = c * state.value(sh.compose_histories(w2, w1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # positivity certificate on the histories over a grid, 4096 members
    g4 = sh.pair_groupoid(4)
    grid4 = sh.TimeGrid.uniform(0.0, 5.0, 5)
    state4 = _random_state(g4, grid4, rng)
    family = sh.full_interval_family(g4, grid4)
    assert len(family) == 4096 <= 10 ** 4
    cert = sh.family_certificate(state4, family)
    assert cert.verdict == "positive"
    assert cert.min_eigenvalue >= -1e-10
    # factorized assembly agrees with reduced-word evaluation on samples
    psi = [state4.psi(w) for w in family]
    for _ in range(300):
        i, j = int(rng.integers(len(family))), int(rng.integers(len(family)))
        u, v = family[i], family[j]
        if u.target != v.target:
            continue
        word = sh.reduce_word([v, sh.invert_history(u)])
        assert abs(np.conj(psi[i]) * psi[j] - state4.value(word)) <= 1e-12

    # the positivity identity over 100 random functions, word-built form matrix
    g3 = sh.pair_groupoid(3)
    grid3 = sh.TimeGrid.uniform(0.0, 3.0, 3)
    state3 = _random_state(g3, grid3, rng)
    fam3 = sh.full_interval_family(g3, grid3)
    Q = sh.family_form_matrix(state3, fam3)
    for _ in range(100):
        f = rng.standard_normal(len(fam3)) + 1j * rng.standard_normal(len(fam3))
        lhs = complex(np.conj(f) @ Q @ f)
        vec = sh.family_gns_vector(state3, fam3, f)
        rhs = float(np.sum(np.abs(vec) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@criterion(4, 10.0, "GNS action is multiplicative on the vector span; cyclic "
                    "vector generates")
def test_criterion_04_gns():
    rng = np.random.default_rng(13)
    for g in (sh.pair_groupoid(3), sh.product_with_group(2, sh.cyclic_groupoid(2))):
        m = sh.counting_measure(g)
        h = rng.standard_normal(g.n_objects)
        s = h[g.tgt] - h[g.src]  # additive phase
        p = rng.uniform(0.2, 1.0, g.n_objects)
        p /= p.sum()
        state = sh.PhaseState(g, p, s)
        for _ in range(50):
            a, b, f = (random_element(g, rng) for _ in range(3))
            v = sh.gns_vector(state, f, m)
            lhs = sh.gns_matrix(state, convolve_naive(a, b, m), m) @ v
            rhs = sh.gns_matrix(state, a, m) @ (sh.gns_matrix(state, b, m) @ v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            applied = sh.gns_vector(state, sh.convolve(a, f, m), m)
            assert np.max(np.abs(applied - sh.gns_matrix(state, a, m) @ v)) <= 1e-12
        cyclic = sh.gns_vector(state, sh.unit_element(g), m)
        cols = np.column_stack([sh.gns_matrix(state, sh.delta_element(g, mm), m) @ cyclic
                                for mm in range(g.n_morphisms)])
        assert np.linalg.matrix_rank(cols, tol=1e-10) == g.n_objects


PATH_SUM_INSTANCES = None


def _path_sum_instances():
    """Finite instances shared by criteria 5 and 6: (groupoid, grid, lagrangian,
    spec, measure, full table)."""
    global PATH_SUM_INSTANCES
    if PATH_SUM_INSTANCES is not None:
        return PATH_SUM_INSTANCES
    rng = np.random.default_rng(40)
    out = []
    specs = [(sh.pair_groupoid(2), 6), (sh.pair_groupoid(3), 5),
             (sh.pair_groupoid(4), 4), (sh.pair_groupoid(5), 4),
             (sh.pair_groupoid(6), 6),
             (sh.product_with_group(2, sh.cyclic_groupoid(3)), 4),
             (sh.product_with_group(3, sh.cyclic_groupoid(2)), 3)]
    for g, n in specs:
        lag = symmetric_lagrangian(g, rng)
        spec = sh.uniform_state_spec(g)
        m = sh.counting_measure(g)
        grid = sh.TimeGrid.uniform(0.0, 1.0, n)
        table = sh.propagator_table(sh.state_from_lagrangian(lag, spec, g, grid, m))
        out.append((g, grid, lag, spec, m, table))
    PATH_SUM_INSTANCES = out
    return out


@criterion(5, 10.0, "path sums equal transfer-matrix powers to 1e-12 relative")
def test_criterion_05_transfer_matrix_identity():
    for g, grid, lag, spec, m, table in _path_sum_instances():
        oracle = sh.transfer_oracle_table(sh.state_from_lagrangian(lag, spec, g, grid, m))
        for key, z in np.ndenumerate(table.amplitudes):
            ref = oracle.amplitudes[key]
            assert abs(z - ref) <= 1e-12 * max(1.0, abs(ref)), (g.name, key)


@criterion(6, 10.0, "sum-splitting reproduces the propagator at every interior slice")
def test_criterion_06_reproducing_kernel():
    for g, grid, lag, spec, m, table in _path_sum_instances():
        n = grid.n_intervals
        p = spec.slices(grid)
        for j in range(1, n):
            g1, g2 = grid.sub(0, j), grid.sub(j, n)
            s1, s2 = spec.sub(grid, 0, j), spec.sub(grid, j, n)
            first = {(a, c): sh.finite_propagator(g, g1, lag, s1, a, c, m)
                     for a in range(g.n_objects) for c in range(g.n_objects)}
            second = {(c, b): sh.finite_propagator(g, g2, lag, s2, c, b, m)
                      for c in range(g.n_objects) for b in range(g.n_objects)}
            for a in range(g.n_objects):
                for b in range(g.n_objects):
                    split = sh.fsum_complex(
                        m.object_weights[c] * second[(c, b)] * first[(a, c)] / p[j, c]
                        for c in range(g.n_objects))
                    assert abs(table.amplitudes[a, b] - split) <= 1e-12, (g.name, j)
    # the library entry point agrees on a small instance at every slice
    g, grid, lag, spec, m, _ = _path_sum_instances()[1]
    state = sh.state_from_lagrangian(lag, spec, g, grid, m)
    for j in range(1, grid.n_intervals):
        assert sh.reproducing_residual(state, j)[0] <= 1e-12


@criterion(7, 5.0, "action laws: exact incremental additivity, exact inversion "
                   "antisymmetry, anchored counterexample")
def test_criterion_07_action_laws():
    rng = np.random.default_rng(17)
    g = sh.pair_groupoid(3)
    from conftest import random_history

    def composable_pair(n1, n2):
        w1 = random_history(g, rng, grid=sh.TimeGrid.uniform(0.0, float(n1), n1))
        x = w1.target[0]
        links = []
        for _ in range(n2):
            nxt = int(rng.integers(3))
            links.append(nxt * 3 + x)
            x = nxt
        return w1, sh.from_links(g, sh.TimeGrid.uniform(float(n1), float(n1 + n2), n2), links)

    # exact additivity on a dyadic-valued symmetric lagrangian
    vals = rng.integers(-(2 ** 20), 2 ** 20, size=9) / float(2 ** 20)
    vals = np.where(np.arange(9) <= g.inverse_of, vals, vals[g.inverse_of])
    dyadic = sh.Lagrangian(g, vals)
    generic = symmetric_lagrangian(g, rng)
    for _ in range(100):
        w1, w2 = composable_pair(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        w = sh.compose_histories(w2, w1)
        assert sh.action(w, dyadic) == sh.action(w2, dyadic) + sh.action(w1, dyadic)
        assert sh.action(sh.invert_history(w), generic) == -sh.action(w, generic)
        assert sh.action(sh.invert_history(w), generic, sh.ANCHORED) == \
            -sh.action(w, generic, sh.ANCHORED)
    # anchored convention fails additivity on a three-interval example
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0.0, 1.0, 1), [1 * 3 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(1.0, 3.0, 2), [2 * 3 + 1, 0 * 3 + 2])
    w = sh.compose_histories(w2, w1)
    gap = abs(sh.action(w, generic, sh.ANCHORED)
              - sh.action(w2, generic, sh.ANCHORED) - sh.action(w1, generic, sh.ANCHORED))
    assert gap > 1e-6


@criterion(8, 5.0, "Gaussian recursion reproduces the closed-form line kernel "
                   "to 1e-9 relative")
def test_criterion_08_line_real_phase():
    for n in (1, 2, 4, 8, 16, 32, 64):
        cfg = SliceConfig(n, 1.0, mass=1.0, hbar=1.0, mode=REAL_PHASE)
        for dx in (0.0, 0.5, 1.0, 2.0):
            val = sh.sliced_line_propagator(cfg, 0.0, dx)
            ref = sh.line_kernel(1.0, 1.0, 1.0, dx, REAL_PHASE)
            assert abs(val - ref) <= 1e-9 * abs(ref)


@criterion(9, 60.0, "euclidean quadrature matches the heat kernel to 1e-3; "
                    "sweep monotone beyond N=8")
def test_criterion_09_line_euclidean_quadrature():
    cfg = SliceConfig(64, 1.0, mass=1.0, hbar=1.0, mode=EUCLIDEAN,
                      quad_halfwidth=8.0, quad_nodes=400)
    for dx in np.linspace(-2.0, 2.0, 9):
        val = sh.sliced_line_propagator(cfg, 0.0, float(dx), method="quadrature")
        ref = sh.line_kernel(1.0, 1.0, 1.0, float(dx), EUCLIDEAN)
        assert abs(val - ref) <= 1e-3 * abs(ref)
    rows = sh.line_convergence(cfg, 0.0, 1.0, [4, 8, 16, 32, 64, 128, 256])
    assert sh.errors_decrease(rows, burn_in=8, floor=1e-9)


@criterion(10, 120.0, "circle lattice path sum matches the winding image sum "
                      "to 1e-2 relative")
def test_criterion_10_circle():
    lc = 2 * math.pi
    cfg = SliceConfig(64, 0.5, mass=1.0, hbar=1.0, mode=EUCLIDEAN)
    for frac in (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75):
        th1 = frac * lc
        val = sh.circle_propagators(cfg, lc, 0.0, [th1], n_sites=256)[0]
        ref = sh.image_sum_circle_kernel(cfg, lc, 0.0, th1, winding_max=10)
        assert abs(val - ref) <= 1e-2 * abs(ref), frac


@criterion(11, 10.0, "velocity-form path sum equals the position form to 1e-12 "
                     "on 50 random instances")
def test_criterion_11_velocity_form():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n_sites = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        mass = float(rng.uniform(0.5, 2.0))
        total = float(rng.uniform(0.5, 2.0))
        mode = REAL_PHASE if rng.integers(2) else EUCLIDEAN
        if rng.integers(2):
            geom = sh.LineLattice(n_sites, float(rng.uniform(0.3, 1.2)))
        else:
            geom = sh.CircleLattice(n_sites, float(rng.uniform(1.0, 4.0)))
        g = sh.pair_groupoid(n_sites)
        grid = sh.TimeGrid.uniform(0.0, total, n)
        spec = sh.uniform_state_spec(g, mode=mode)
        lag = sh.energy_lagrangian(g, geom, grid.dt(0), mass)
        x0, x1 = int(rng.integers(n_sites)), int(rng.integers(n_sites))
        a = sh.velocity_form_propagator(geom, grid, spec, mass, x0, x1)
        b = sh.finite_propagator(g, grid, lag, spec, x0, x1)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
