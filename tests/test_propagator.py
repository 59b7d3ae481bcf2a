import itertools
import math

import numpy as np
import pytest

import sumhist as sh
from sumhist.action import EUCLIDEAN, phase_factor
from sumhist.propagator import kinetic_lagrangian_value

from conftest import symmetric_lagrangian

RTOL = 1e-12


def uniform_setup(g, mode="real"):
    return sh.uniform_state_spec(g, mode=mode), sh.counting_measure(g)


def test_transfer_matrix_zero_lagrangian():
    g = sh.pair_groupoid(2)
    spec, m = uniform_setup(g)
    T = sh.transfer_matrix(g, sh.zero_lagrangian(g), spec, m)
    assert np.allclose(T, np.ones((2, 2)))
    assert np.allclose(T @ T, 2 * T)


def test_transfer_matrix_group_is_scalar(rng):
    z2 = sh.cyclic_groupoid(2)
    lag = symmetric_lagrangian(z2, rng)
    spec, m = uniform_setup(z2)
    T = sh.transfer_matrix(z2, lag, spec, m)
    assert T.shape == (1, 1)
    expect = sum(np.exp(1j * v) for v in lag.values)
    assert T[0, 0] == pytest.approx(expect)


def test_transfer_power_matches_enumeration(rng):
    g = sh.pair_groupoid(3)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 3)
    for _ in range(50):
        lag = symmetric_lagrangian(g, rng)
        T = sh.transfer_matrix(g, lag, spec, m)
        A = sh.transfer_power(T, 3, m)
        for x0, x1 in ((0, 0), (0, 2), (1, 2)):
            brute = sh.fsum_complex(
                np.prod([np.exp(1j * lag.values[l]) for l in sh.links_of(w)])
                for w in sh.enumerate_histories(g, grid, x0, x1))
            assert abs(A[x1, x0] - brute) <= RTOL * max(1.0, abs(brute))


def test_finite_propagator_zero_lagrangian_count():
    for n, steps in ((2, 3), (4, 4), (5, 2)):
        g = sh.pair_groupoid(n)
        spec, m = uniform_setup(g)
        grid = sh.TimeGrid.uniform(0.0, 1.0, steps)
        val = sh.finite_propagator(g, grid, sh.zero_lagrangian(g), spec, 0, 1, m)
        assert val == pytest.approx((1.0 / n) * n ** (steps - 1))


def test_finite_propagator_single_interval_is_hom_sum(rng):
    g = sh.product_with_group(2, sh.cyclic_groupoid(3))
    lag = symmetric_lagrangian(g, rng)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 1)
    val = sh.finite_propagator(g, grid, lag, spec, 0, 1, m)
    expect = 0.5 * sum(np.exp(1j * lag.values[mm]) for mm in g.hom_set(0, 1))
    assert val == pytest.approx(expect)


def test_finite_propagator_empty_history_set():
    import dataclasses
    g = sh.pair_groupoid(2)
    units_only = dataclasses.replace(
        g, src=np.array([0, 1]), tgt=np.array([0, 1]),
        unit_of=np.array([0, 1]), inverse_of=np.array([0, 1]),
        table=np.array([[0, -1], [-1, 1]], dtype=np.int32))
    spec = sh.uniform_state_spec(units_only)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    assert sh.finite_propagator(units_only, grid, sh.zero_lagrangian(units_only),
                                spec, 0, 1) == 0.0


def test_finite_propagator_matches_transfer_oracle(rng):
    for g in (sh.pair_groupoid(3), sh.product_with_group(2, sh.cyclic_groupoid(3))):
        lag = symmetric_lagrangian(g, rng)
        spec, m = uniform_setup(g)
        grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
        table = sh.propagator_table(g, grid, lag, spec, m)
        oracle = sh.transfer_oracle_table(g, grid, lag, spec, m)
        for key, z in table.amplitudes.items():
            ref = oracle.amplitudes[key]
            assert abs(z - ref) <= RTOL * max(1.0, abs(ref))


def test_finite_propagator_weighted_measure(rng):
    # left-invariant product measure on a pair groupoid, non-uniform densities
    g = sh.pair_groupoid(3)
    ow = rng.uniform(0.5, 2.0, 3)
    fw = rng.uniform(0.5, 2.0, 3)[g.src]
    m = sh.GroupoidMeasure(g, ow, fw)
    lag = symmetric_lagrangian(g, rng)
    p = rng.uniform(0.2, 1.0, (1, 3))
    p /= (p * ow).sum()
    spec = sh.StateSpec(p)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 3)
    table = sh.propagator_table(g, grid, lag, spec, m)
    oracle = sh.transfer_oracle_table(g, grid, lag, spec, m)
    for key, z in table.amplitudes.items():
        ref = oracle.amplitudes[key]
        assert abs(z - ref) <= RTOL * max(1.0, abs(ref))


def test_reproducing_residual_cases(rng):
    g = sh.pair_groupoid(3)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    lag = symmetric_lagrangian(g, rng)
    assert sh.reproducing_residual(g, grid, lag, spec, 2, m) <= 1e-12
    assert sh.reproducing_residual(g, grid, sh.zero_lagrangian(g), spec, 2, m) <= 1e-12
    # euclidean free-particle lattice
    geom = sh.LineLattice(3, spacing=0.7)
    energy = sh.energy_lagrangian(g, geom, slice_dt=0.25, mass=1.3)
    spec_e = sh.uniform_state_spec(g, mode=EUCLIDEAN)
    assert sh.reproducing_residual(g, grid, energy, spec_e, 1, m) <= 1e-12
    with pytest.raises(ValueError):
        sh.reproducing_residual(g, grid, lag, spec, 0, m)


def test_reproducing_residual_weighted_measure(rng):
    g = sh.pair_groupoid(2)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, 2),
                           rng.uniform(0.5, 2.0, 2)[g.src])
    p = rng.uniform(0.2, 1.0, (1, 2))
    p /= (p * m.object_weights).sum()
    spec = sh.StateSpec(p)
    lag = symmetric_lagrangian(g, rng)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    for j in (1, 2, 3):
        assert sh.reproducing_residual(g, grid, lag, spec, j, m) <= 1e-12


def test_partitioned_reduction_reproduces_canonical(rng):
    g = sh.pair_groupoid(4)
    lag = symmetric_lagrangian(g, rng)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    canonical = sh.finite_propagator(g, grid, lag, spec, 0, 3, m)
    for parts in (2, 4):
        split = sh.finite_propagator(g, grid, lag, spec, 0, 3, m, partitions=parts)
        assert abs(split - canonical) <= 1e-13


@pytest.mark.parametrize("convention", [sh.INCREMENTAL, sh.ANCHORED])
def test_partitioned_sum_is_the_sum_of_first_object_partials(rng, convention):
    g = sh.pair_groupoid(3)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3)[g.src])
    lag = symmetric_lagrangian(g, rng)
    p = rng.uniform(0.2, 1.0, (1, 3))
    p /= (p * m.object_weights).sum()
    spec = sh.StateSpec(p, convention=convention)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    for x0, x1 in itertools.product(range(g.n_objects), repeat=2):
        groups = {c: [] for c in range(g.n_objects)}
        for w in sh.enumerate_histories(g, grid, x0, x1):
            weight = 1.0
            for l in sh.links_of(w):
                weight *= m.fiber_weights[l]
            for k in range(1, grid.n_intervals):
                weight *= m.object_weights[w.object_at(k)]
            s = sh.action(w, lag, convention)
            groups[w.object_at(1)].append(weight * phase_factor(s, spec.hbar, spec.mode))
        total = sh.fsum_complex([sh.fsum_complex(groups[c]) for c in range(g.n_objects)])
        expect = math.sqrt(p[0, x1] * p[0, x0]) * total
        assert sh.finite_propagator(g, grid, lag, spec, x0, x1, m, partitions=2) == expect


def test_deterministic_bit_identical(rng):
    g = sh.pair_groupoid(3)
    lag = symmetric_lagrangian(g, rng)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    a = sh.finite_propagator(g, grid, lag, spec, 0, 2, m)
    b = sh.finite_propagator(g, grid, lag, spec, 0, 2, m)
    assert a == b


# --- velocity form


def test_velocity_path_constant_history():
    g = sh.pair_groupoid(3)
    geom = sh.LineLattice(3, spacing=0.5)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    w = sh.from_links(g, grid, [1 * 3 + 1] * 4)
    vp = sh.history_to_velocity_path(w, geom)
    assert vp.velocities == (0.0,) * 4


def test_velocity_path_uniform_motion():
    g = sh.pair_groupoid(5)
    geom = sh.LineLattice(5, spacing=1.0)
    grid = sh.TimeGrid.uniform(0.0, 4.0, 4)
    links = [(k + 1) * 5 + k for k in range(4)]  # 0 -> 1 -> 2 -> 3 -> 4
    w = sh.from_links(g, grid, links)
    vp = sh.history_to_velocity_path(w, geom)
    assert vp.velocities == (1.0,) * 4
    assert vp.end_site == 4


def test_velocity_path_round_trip(rng):
    for geom in (sh.LineLattice(4, 0.5), sh.CircleLattice(5, 2.5)):
        g = sh.pair_groupoid(geom.n_sites)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            grid = sh.TimeGrid.uniform(0.0, float(n), n)
            if isinstance(geom, sh.CircleLattice):
                links = []
                x = int(rng.integers(geom.n_sites))
                for _ in range(n):
                    nxt = int(rng.integers(geom.n_sites))
                    links.append(nxt * geom.n_sites + x)
                    x = nxt
            else:
                links = []
                x = int(rng.integers(geom.n_sites))
                for _ in range(n):
                    nxt = int(rng.integers(geom.n_sites))
                    links.append(nxt * geom.n_sites + x)
                    x = nxt
            w = sh.from_links(g, grid, links)
            assert sh.velocity_path_to_history(sh.history_to_velocity_path(w, geom), g) == w


def test_velocity_form_equals_position_form(rng):
    for _ in range(50):
        n_sites = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        mass = float(rng.uniform(0.5, 2.0))
        total_t = float(rng.uniform(0.5, 2.0))
        mode = "real" if rng.integers(2) else EUCLIDEAN
        if rng.integers(2):
            geom = sh.LineLattice(n_sites, float(rng.uniform(0.3, 1.2)))
        else:
            geom = sh.CircleLattice(n_sites, float(rng.uniform(1.0, 4.0)))
        g = sh.pair_groupoid(n_sites)
        grid = sh.TimeGrid.uniform(0.0, total_t, n)
        spec = sh.uniform_state_spec(g, mode=mode)
        lag = sh.energy_lagrangian(g, geom, grid.dt(0), mass)
        x0, x1 = int(rng.integers(n_sites)), int(rng.integers(n_sites))
        a = sh.velocity_form_propagator(geom, grid, spec, mass, x0, x1)
        b = sh.finite_propagator(g, grid, lag, spec, x0, x1)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _recursive_velocity_form(geometry, grid, spec, mass, x0, x1):
    """Reference: depth-first walk over every site sequence, kinetic values
    added left to right from 0.0, keeping the walks that end at x1."""
    n, dt, h = grid.n_intervals, grid.dt(0), geometry.spacing
    terms = []

    def walk(k, site, s_acc):
        if k == n:
            if site == x1:
                terms.append(phase_factor(s_acc, spec.hbar, spec.mode))
            return
        for nxt in range(geometry.n_sites):
            v = geometry.displacement_steps(site, nxt) * h / dt
            walk(k + 1, nxt, s_acc + kinetic_lagrangian_value(mass, v, dt))

    walk(0, x0, 0.0)
    p = spec.slices(grid)
    return math.sqrt(p[n, x1] * p[0, x0]) * sh.fsum_complex(terms)


@pytest.mark.parametrize("mode", ["real", EUCLIDEAN])
def test_velocity_form_is_bit_identical_to_recursive_walk(rng, mode):
    for geom in (sh.LineLattice(4, 0.7), sh.CircleLattice(5, 2.5)):
        g = sh.pair_groupoid(geom.n_sites)
        spec = sh.uniform_state_spec(g, mode=mode)
        for n in (1, 3, 5):
            grid = sh.TimeGrid.uniform(0.0, float(rng.uniform(0.5, 2.0)), n)
            mass = float(rng.uniform(0.5, 2.0))
            for x0 in range(geom.n_sites):
                for x1 in range(geom.n_sites):
                    assert sh.velocity_form_propagator(geom, grid, spec, mass, x0, x1) \
                        == _recursive_velocity_form(geom, grid, spec, mass, x0, x1)


def test_velocity_form_single_slice_values():
    geom = sh.LineLattice(2, spacing=1.0)
    g = sh.pair_groupoid(2)
    grid = sh.TimeGrid.uniform(0.0, 0.5, 1)
    spec = sh.uniform_state_spec(g)
    # zero displacement: phase 0, amplitude = sqrt(p p) = 1/2
    val = sh.velocity_form_propagator(geom, grid, spec, 1.0, 0, 0)
    assert val == pytest.approx(0.5)
    # one-site hop: action m v^2 dt / 2 with v = h/dt
    val = sh.velocity_form_propagator(geom, grid, spec, 2.0, 0, 1)
    expect = 0.5 * np.exp(1j * (0.5 * 2.0 * (1.0 / 0.5) ** 2 * 0.5))
    assert val == pytest.approx(expect)


def test_propagator_table_csv(tmp_path, rng):
    from sumhist.io import propagator_table_csv
    g = sh.pair_groupoid(3)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    table = sh.propagator_table(g, grid, sh.zero_lagrangian(g), spec, m)
    text = propagator_table_csv(table, tmp_path / "t.csv")
    lines = text.strip().split("\n")
    assert lines[0] == "x0,t0,x1,t1,re,im,abs,phase"
    assert len(lines) == 10
