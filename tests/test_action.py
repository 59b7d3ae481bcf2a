import dataclasses
import itertools
import math

import numpy as np
import pytest

import sumhist as sh
from sumhist.action import (ANCHORED, EUCLIDEAN, INCREMENTAL, family_form, family_psi,
                            family_targets)
from sumhist.propagator import path_sum_terms

from conftest import random_history, symmetric_lagrangian


def dyadic_symmetric_lagrangian(g, rng):
    """Symmetric values on a dyadic lattice: short sums are exact in binary."""
    vals = rng.integers(-(2 ** 20), 2 ** 20, size=g.n_morphisms) / float(2 ** 20)
    vals = np.where(np.arange(g.n_morphisms) <= g.inverse_of, vals, vals[g.inverse_of])
    return sh.Lagrangian(g, vals)


def make_composable_pair(g, rng, n1, n2):
    w1 = random_history(g, rng, grid=sh.TimeGrid.uniform(0.0, float(n1), n1))
    x = w1.target[0]
    links = []
    for _ in range(n2):
        nxt = int(rng.integers(g.n_objects))
        links.append(nxt * g.n_objects + x)
        x = nxt
    w2 = sh.from_links(g, sh.TimeGrid.uniform(float(n1), float(n1 + n2), n2), links)
    return w1, w2


def test_symmetry_checks(rng):
    g = sh.pair_groupoid(3)
    geom = sh.LineLattice(3, spacing=0.5)
    energy = sh.energy_lagrangian(g, geom, slice_dt=0.1, mass=2.0)
    assert sh.check_symmetry(energy)
    assert sh.check_symmetry(sh.zero_lagrangian(g))
    vals = np.zeros(9)
    vals[1 * 3 + 0] = 1.0  # +1 on (1,0), 0 on (0,1)
    lop = sh.Lagrangian(g, vals)
    assert not sh.check_symmetry(lop)
    assert (1, 3) in sh.asymmetric_morphisms(lop) or (3, 1) in sh.asymmetric_morphisms(lop)


def test_trivial_history_has_zero_action(rng):
    g = sh.pair_groupoid(3)
    lag = symmetric_lagrangian(g, rng)
    w = sh.trivial_history(g, 1, 0.0)
    assert sh.action(w, lag, INCREMENTAL) == 0.0
    assert sh.action(w, lag, ANCHORED) == 0.0


def test_action_of_inverse_is_negated_exactly(rng):
    g = sh.pair_groupoid(3)
    lag = symmetric_lagrangian(g, rng)
    for conv in (INCREMENTAL, ANCHORED):
        for _ in range(100):
            w = random_history(g, rng)
            assert sh.action(sh.invert_history(w), lag, conv) == -sh.action(w, lag, conv)


def test_action_inverse_fails_for_asymmetric(rng):
    g = sh.pair_groupoid(3)
    vals = rng.standard_normal(9)
    lag = sh.Lagrangian(g, vals)
    assert not sh.check_symmetry(lag)
    hits = 0
    for _ in range(20):
        w = random_history(g, rng, n_steps=3)
        if sh.action(sh.invert_history(w), lag) != -sh.action(w, lag):
            hits += 1
    assert hits > 0


def test_incremental_additivity_exact_dyadic(rng):
    g = sh.pair_groupoid(3)
    lag = dyadic_symmetric_lagrangian(g, rng)
    for _ in range(100):
        w1, w2 = make_composable_pair(g, rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        w = sh.compose_histories(w2, w1)
        assert sh.action(w, lag, INCREMENTAL) == \
            sh.action(w2, lag, INCREMENTAL) + sh.action(w1, lag, INCREMENTAL)


def test_incremental_additivity_generic(rng):
    g = sh.pair_groupoid(4)
    lag = symmetric_lagrangian(g, rng)
    for _ in range(100):
        w1, w2 = make_composable_pair(g, rng, 2, 3)
        w = sh.compose_histories(w2, w1)
        lhs = sh.action(w, lag, INCREMENTAL)
        rhs = sh.action(w2, lag, INCREMENTAL) + sh.action(w1, lag, INCREMENTAL)
        assert abs(lhs - rhs) <= 4e-16 * max(1.0, abs(lhs))


def test_anchored_additivity_fails_on_three_slices(rng):
    # the anchored Riemann sum evaluates the second factor's contributions on
    # transitions re-anchored at the overall start, so additivity breaks
    g = sh.pair_groupoid(3)
    lag = symmetric_lagrangian(g, rng)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0.0, 1.0, 1), [1 * 3 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(1.0, 3.0, 2), [2 * 3 + 1, 0 * 3 + 2])
    w = sh.compose_histories(w2, w1)
    lhs = sh.action(w, lag, ANCHORED)
    rhs = sh.action(w2, lag, ANCHORED) + sh.action(w1, lag, ANCHORED)
    assert abs(lhs - rhs) > 1e-6
    # while the incremental convention is additive on the same data
    assert sh.action(w, lag, INCREMENTAL) == pytest.approx(
        sh.action(w2, lag, INCREMENTAL) + sh.action(w1, lag, INCREMENTAL), abs=1e-15)


def test_energy_lagrangian_line_circle_values():
    n, h, dt, mass = 4, 0.5, 0.1, 2.0
    g = sh.pair_groupoid(n)
    line = sh.energy_lagrangian(g, sh.LineLattice(n, h), dt, mass)
    for i in range(n):
        assert line.values[g.unit(i)] == 0.0
        if i + 1 < n:
            assert line.values[(i + 1) * n + i] == pytest.approx(mass * h * h / (2 * dt))
    circ = sh.energy_lagrangian(g, sh.CircleLattice(n, circumference=n * h), dt, mass)
    # from site 0 to site 3 the arc is one step, not three
    assert circ.values[3 * n + 0] == pytest.approx(mass * h * h / (2 * dt))


def test_energy_lagrangian_rejects_bad_metric():
    g = sh.pair_groupoid(2)
    with pytest.raises(ValueError):
        sh.energy_lagrangian_from_metric(g, np.array([[0.0, 1.0], [2.0, 0.0]]), 0.1, 1.0)
    with pytest.raises(ValueError):
        sh.energy_lagrangian_from_metric(g, np.array([[1.0, 1.0], [1.0, 0.0]]), 0.1, 1.0)


def test_state_spec_normalization():
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    m = sh.counting_measure(g)
    spec = sh.uniform_state_spec(g)
    spec.validate(grid, m)
    bad = sh.StateSpec(np.full((1, 3), 0.5))
    with pytest.raises(sh.NormalizationError):
        bad.validate(grid, m)


def test_state_from_lagrangian_guards(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    vals = np.zeros(9)
    vals[1] = 1.0
    with pytest.raises(sh.SymmetryError):
        sh.state_from_lagrangian(sh.Lagrangian(g, vals), sh.uniform_state_spec(g), g, grid)
    with pytest.raises(sh.NormalizationError):
        sh.state_from_lagrangian(sh.zero_lagrangian(g),
                                 sh.StateSpec(np.full((1, 3), 0.2)), g, grid)


def make_state(g, grid, rng, mode="real", uniform=False):
    lag = symmetric_lagrangian(g, rng)
    if uniform:
        spec = sh.uniform_state_spec(g, mode=mode)
    else:
        p = rng.uniform(0.2, 1.0, (len(grid.times), g.n_objects))
        p /= p.sum(axis=1, keepdims=True)
        spec = sh.StateSpec(p, mode=mode)
    return sh.state_from_lagrangian(lag, spec, g, grid)


def test_state_reality(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 4.0, 4)
    state = make_state(g, grid, rng)
    for _ in range(100):
        w = random_history(g, rng, grid=grid)
        assert np.conj(state.value(sh.invert_history(w))) == pytest.approx(
            state.value(w), abs=1e-12)


def test_state_factorizability(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 5.0, 5)
    state = make_state(g, grid, rng)
    from test_action import make_composable_pair  # self-import for clarity
    for _ in range(100):
        n1 = int(rng.integers(1, 4))
        w1, w2 = make_composable_pair(g, rng, n1, 5 - n1)
        c = state.density_at(w1.target)
        lhs = state.value(w2) * state.value(w1)
        rhs = c * state.value(sh.compose_histories(w2, w1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_state_modulus_squared_is_density_product(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 3.0, 3)
    state = make_state(g, grid, rng)
    for _ in range(50):
        w = random_history(g, rng, grid=grid)
        expect = state.density_at(w.source) * state.density_at(w.target)
        assert abs(state.value(w)) ** 2 == pytest.approx(expect, rel=1e-12)


def test_zero_action_uniform_density_state():
    g = sh.pair_groupoid(4)
    grid = sh.TimeGrid.uniform(0.0, 2.0, 2)
    state = sh.state_from_lagrangian(sh.zero_lagrangian(g), sh.uniform_state_spec(g), g, grid)
    for w in sh.enumerate_histories(g, grid, 0, 3):
        assert state.value(w) == pytest.approx(0.25)


def test_classical_restriction(rng):
    g = sh.pair_groupoid(4)
    grid = sh.TimeGrid.uniform(0.0, 2.0, 2)
    state = make_state(g, grid, rng)
    table = sh.classical_restriction(state)
    assert np.allclose(table.sum(axis=1), 1.0)
    for k, t in enumerate(grid.times):
        for x in range(4):
            triv = sh.trivial_history(g, x, t)
            assert state.value(triv) == pytest.approx(table[k, x], rel=1e-14)
    uniform = sh.state_from_lagrangian(sh.zero_lagrangian(g),
                                       sh.uniform_state_spec(g), g, grid)
    assert np.allclose(sh.classical_restriction(uniform), 0.25)


@pytest.mark.parametrize("mode", ["real", EUCLIDEAN])
def test_family_psi_is_bit_identical_to_psi(rng, mode):
    # two routes to the Gram factors and target points: the link-array
    # evaluator against state.psi and state.point_index of every member
    for name, n, convention in itertools.product(("pair:3", "pair_x_cyclic:2,2"), (1, 3),
                                                 (INCREMENTAL, ANCHORED)):
        g = sh.resolve_groupoid(name)
        grid = sh.TimeGrid.uniform(0.0, 2.0, n)
        state = make_state(g, grid, rng, mode=mode)
        vals = state.lagrangian.values.copy()
        vals[g.unit(0)] = -0.0
        vals[[1, g.inverse(1)]] = -0.0
        spec = dataclasses.replace(state.spec, hbar=0.37, convention=convention)
        state = sh.HistoryState(g, grid, sh.Lagrangian(g, vals), spec)
        family = sh.full_interval_family(g, grid)
        assert len(family) == sum(sh.count_histories(g, x0, x1, n)
                                  for x0 in range(g.n_objects) for x1 in range(g.n_objects))
        want = np.array([state.psi(w) for w in family], dtype=complex)
        assert family_psi(state, family).tobytes() == want.tobytes()
        want = np.array([state.point_index(w.target) for w in family], dtype=np.int64)
        assert family_targets(state, family).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, n", [("pair:3", 4), ("pair_x_cyclic:2,2", 3), ("cyclic:3", 3)])
@pytest.mark.parametrize("mode", ["real", EUCLIDEAN])
@pytest.mark.parametrize("hbar", [1.0, 0.37])
def test_path_sum_is_the_gns_vector_of_the_dfs_state(rng, name, n, mode, hbar):
    # the sum over histories is the GNS representation of the DFS state: the
    # literal path sum from x0 to x1 is sqrt(p(x1, t_N)) times the GNS vector,
    # at (x1, t_N), of the indicator of the histories leaving x0
    g = sh.resolve_groupoid(name)
    grid = sh.TimeGrid.uniform(0.0, 1.5, n)
    p = rng.uniform(0.2, 1.0, (n + 1, g.n_objects))
    p /= p.sum(axis=1, keepdims=True)
    spec = sh.StateSpec(p, hbar=hbar, mode=mode)
    lag = symmetric_lagrangian(g, rng, scale=2.0)
    state = sh.state_from_lagrangian(lag, spec, g, grid)
    family = sh.full_interval_family(g, grid)
    starts = g.src[family.links[:, 0]]
    for x0 in range(g.n_objects):
        vec = sh.family_gns_vector(state, family, starts == x0)
        for x1 in range(g.n_objects):
            z = sh.finite_propagator(g, grid, lag, spec, x0, x1)
            via_gns = math.sqrt(p[n, x1]) * vec[n * g.n_objects + x1]
            scale = math.sqrt(p[n, x1] * p[0, x0]) * sum(
                float(np.abs(t).sum()) for t in path_sum_terms(g, grid, lag, spec, x0, x1))
            assert abs(z - via_gns) <= 1e-13 * scale


def test_family_certificate_positive(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 3.0, 3)
    state = make_state(g, grid, rng)
    family = sh.full_interval_family(g, grid)
    cert = sh.family_certificate(state, family)
    assert cert.is_positive
    assert cert.min_eigenvalue >= -1e-10
    assert cert.form_matrix_dim == len(family) == 3 ** 4


FAMILY_CASES = [("pair:3", 2), ("pair_x_cyclic:2,2", 2), ("cyclic:3", 2), ("pair:1", 1)]


@pytest.mark.parametrize("name, n", FAMILY_CASES)
@pytest.mark.parametrize("hbar", [1.0, 0.37])
def test_family_certificate_is_the_spectrum_of_the_words_form(rng, name, n, hbar):
    # the closed form against LAPACK on the form evaluated word by word;
    # pair:1 has one member per target, so its spectrum is |psi|^2, not 0
    g = sh.resolve_groupoid(name)
    grid = sh.TimeGrid.uniform(0.0, 2.0, n)
    state = make_state(g, grid, rng)
    state = dataclasses.replace(state, spec=dataclasses.replace(state.spec, hbar=hbar))
    family = sh.full_interval_family(g, grid)
    cert = sh.family_certificate(state, family)
    lam = np.linalg.eigvalsh(sh.family_form_matrix(state, family))[0]
    assert abs(cert.min_eigenvalue - lam) <= 1e-12
    assert cert.is_positive and cert.hermiticity_defect == 0.0
    assert cert.form_matrix_dim == len(family)
    if name == "pair:1":
        assert cert.min_eigenvalue > 0.1


@pytest.mark.parametrize("name, n", FAMILY_CASES)
def test_family_form_value_factorized_equals_words(rng, name, n):
    g = sh.resolve_groupoid(name)
    grid = sh.TimeGrid.uniform(0.0, 2.0, n)
    state = make_state(g, grid, rng)
    family = sh.full_interval_family(g, grid)
    for _ in range(5):
        f = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
        fast = sh.family_form_value(state, family, f)
        slow = sh.family_form_value(state, family, f, via="words")
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


@pytest.mark.parametrize("name, n", [("pair:3", 3), ("pair_x_cyclic:2,3", 2), ("cyclic:3", 2)])
def test_family_blocks_partition_the_family_by_target(rng, name, n):
    g = sh.resolve_groupoid(name)
    grid = sh.TimeGrid.uniform(0.0, 2.0, n)
    state = make_state(g, grid, rng)
    family = sh.full_interval_family(g, grid)
    tgts, psi = family_targets(state, family), family_psi(state, family)
    form = family_form(state, family)
    assert form.psi.tobytes() == psi.tobytes() and form.targets.tobytes() == tgts.tobytes()
    assert form.n_points == state.n_points and form.weights is None
    blocks = form.blocks
    firsts = [int(tgts[idx[0]]) for idx in blocks]
    assert firsts == sorted(set(tgts.tolist()))
    members = np.concatenate(blocks)
    assert np.array_equal(np.sort(members), np.arange(len(family)))
    for idx in blocks:
        assert (tgts[idx] == tgts[idx[0]]).all() and (np.diff(idx) > 0).all()


def test_family_identity_form_equals_norm(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 2.0, 2)
    state = make_state(g, grid, rng)
    family = sh.full_interval_family(g, grid)
    for _ in range(20):
        f = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
        lhs = sh.family_form_value(state, family, f, via="words")
        vec = sh.family_gns_vector(state, family, f)
        rhs = float(np.sum(np.abs(vec) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_euclidean_mode_value(rng):
    g = sh.pair_groupoid(2)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 1)
    lag = sh.energy_lagrangian(g, sh.LineLattice(2, 1.0), 1.0, 1.0)
    state = sh.state_from_lagrangian(
        lag, sh.uniform_state_spec(g, mode=EUCLIDEAN), g, grid)
    w = sh.from_links(g, grid, [1 * 2 + 0])
    assert state.value(w) == pytest.approx(0.5 * math.exp(-0.5))


def test_lagrangian_csv_round_trip(tmp_path, rng):
    from sumhist.io import lagrangian_csv, load_lagrangian_csv
    g = sh.pair_groupoid(3)
    lag = symmetric_lagrangian(g, rng)
    lagrangian_csv(lag.values, tmp_path / "l.csv")
    vals = load_lagrangian_csv(tmp_path / "l.csv", 9)
    assert np.array_equal(vals, lag.values)


@pytest.mark.parametrize("make, message", [
    (lambda g: sh.StateSpec(np.full((1, 2), 0.5), hbar=math.nan), "hbar must be positive"),
    (lambda g: sh.StateSpec(np.full((1, 2), 0.5), hbar=math.inf), "hbar must be positive"),
    (lambda g: sh.StateSpec(np.array([[0.5, math.nan]])), "density values must be finite"),
    (lambda g: sh.energy_lagrangian_from_metric(g, np.zeros((2, 2)), math.nan, 1.0),
     "slice_dt and mass must be positive"),
    (lambda g: sh.energy_lagrangian_from_metric(g, np.zeros((2, 2)), 0.5, math.inf),
     "slice_dt and mass must be positive"),
    (lambda g: sh.GroupoidMeasure(g, np.array([1.0, math.inf]), np.ones(4)),
     "measure weights must be finite"),
    (lambda g: sh.Lagrangian(g, np.array([0.0, math.inf, math.inf, 0.0])),
     "lagrangian values must be finite"),
    (lambda g: sh.Lagrangian(g, np.array([0.0, 1.0, 1.0, math.nan])),
     "lagrangian values must be finite"),
])
def test_non_finite_physical_parameters_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make(sh.pair_groupoid(2))

