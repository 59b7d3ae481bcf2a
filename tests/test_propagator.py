import cmath
import contextlib
import dataclasses
import itertools
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumhist as sh
from sumhist import io as sio
from sumhist import propagator
from sumhist.action import (ANCHORED, CMATH_EXP_LARGE, EUCLIDEAN, INCREMENTAL, REAL_PHASE,
                            ROW_FSUM_CASCADE, phase_factor, phase_factors, row_fsums)
from sumhist.algebra import MeasureError, modular_function
from sumhist.histories import BLOCK
from sumhist.propagator import (EXACT_SUM_BINS, SliceConfig, exact_sum,
                                gaussian_slice_params, kinetic_lagrangian_value,
                                path_sum_terms)
from sumhist.states import FactorizedForm

from conftest import disjoint_union, product_walks, symmetric_lagrangian, units_only_groupoid


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
    # each brute term is a product of N numpy phases, inside the N u of the
    # rounding bound; the bound is of amplitudes, so the endpoint densities
    # are stripped from it
    g = sh.pair_groupoid(3)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 3)
    for _ in range(50):
        lag = symmetric_lagrangian(g, rng)
        T = sh.transfer_matrix(g, lag, spec, m)
        A = sh.transfer_power(T, 3, m)
        state = sh.state_from_lagrangian(lag, spec, g, grid, m)
        p = state.density_table
        scale = route_scale(state) / np.sqrt(np.outer(p[0], p[3]))
        for x0, x1 in ((0, 0), (0, 2), (1, 2)):
            brute = sh.fsum_complex(
                np.prod([np.exp(1j * lag.values[l]) for l in sh.links_of(w)])
                for w in sh.enumerate_histories(g, grid, x0, x1))
            assert _worst_units(abs(A[x1, x0] - brute), scale[x0, x1]) <= ROUTE_C


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


def test_finite_propagator_reads_the_end_slices_of_a_density_table(rng):
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 3)
    lag = symmetric_lagrangian(g, rng)
    for rows in (2, 5):
        spec = sh.StateSpec(np.full((rows, 3), 1 / 3))
        with pytest.raises(sh.NormalizationError,
                           match=f"density has {rows} slices but the grid has 4"):
            sh.finite_propagator(g, grid, lag, spec, 0, 1)
    p = rng.uniform(0.2, 1.0, (4, 3))
    p /= p.sum(axis=1, keepdims=True)
    spec = sh.StateSpec(p)
    total = exact_sum(lambda: path_sum_terms(g, grid, lag, spec, 0, 2))
    assert sh.finite_propagator(g, grid, lag, spec, 0, 2) == math.sqrt(p[3, 2] * p[0, 0]) * total


def test_finite_propagator_matches_transfer_oracle(rng):
    for g in (sh.pair_groupoid(3), sh.product_with_group(2, sh.cyclic_groupoid(3))):
        lag = symmetric_lagrangian(g, rng)
        spec, m = uniform_setup(g)
        grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
        state = sh.state_from_lagrangian(lag, spec, g, grid, m)
        devs = np.abs(sh.propagator_table(state).amplitudes
                      - sh.transfer_oracle_table(state).amplitudes)
        assert _worst_units(devs, route_scale(state)) <= ROUTE_C


def test_pair_256_transfer_oracle_fits_its_memory_bound():
    # the composition table of pair:256 would be 256^4 int32 entries, 16 GiB;
    # the bound is recorded in BENCH_17.json (measured peak 13.1 MB)
    n = 256
    tracemalloc.start()
    try:
        g = sh.pair_groupoid(n)
        grid = sh.TimeGrid.uniform(0.0, 0.5, 4)
        lag = sh.energy_lagrangian(g, sh.CircleLattice(n, 2 * math.pi), grid.dt(0), 1.0)
        state = sh.state_from_lagrangian(lag, sh.uniform_state_spec(g, mode=EUCLIDEAN), g, grid)
        oracle = sh.transfer_oracle_table(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    amps = oracle.amplitudes
    assert amps.shape == (n, n)
    # the circle is translation invariant, so the amplitudes are circulant
    for x0, x1, shift in ((0, 0, 97), (3, 40, 200), (250, 7, 11)):
        z, w = amps[x0, x1], amps[(x0 + shift) % n, (x1 + shift) % n]
        assert z.real > 0 and abs(z - w) <= 1e-12 * abs(z)


@pytest.mark.parametrize("hbar, lost", [(1.5e-3, None), (1.4e-3, "subnormal"), (1e-3, "zero")])
def test_euclidean_transfer_oracle_refuses_an_underflowed_reference(hbar, lost):
    # every euclidean term is positive, so the six off-diagonal pairs, which
    # have histories, have positive references: e^(-0.993/hbar) is normal at
    # 1.5e-3, subnormal at 1.4e-3 and 0 at 1e-3
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    lag = sh.energy_lagrangian(g, sh.CircleLattice(3, 3.0), grid.dt(0), 1.0)
    euclidean = sh.uniform_state_spec(g, hbar=hbar, mode=EUCLIDEAN)
    A = sh.transfer_power(sh.transfer_matrix(g, lag, euclidean), 2)
    assert (A[0, 1].real == 0) == (lost == "zero")
    if lost is None:
        assert A[0, 1].real >= propagator.NORMAL_MIN
        sh.transfer_oracle_table(sh.state_from_lagrangian(lag, euclidean, g, grid))
    else:
        with pytest.raises(ValueError, match=r"normal double at 6 endpoint pairs with "
                                              r"histories, first \(x0, x1\) = \(0, 1\)"):
            sh.transfer_oracle_table(sh.state_from_lagrangian(lag, euclidean, g, grid))
    # real mode is not checked: cancellation can make a true zero
    sh.transfer_oracle_table(sh.state_from_lagrangian(lag, sh.uniform_state_spec(g, hbar=hbar),
                                                      g, grid))


def test_euclidean_transfer_oracle_takes_a_zero_reference_without_histories():
    g = sh.pair_groupoid(2)
    units_only = dataclasses.replace(
        g, src=np.array([0, 1]), tgt=np.array([0, 1]),
        unit_of=np.array([0, 1]), inverse_of=np.array([0, 1]),
        table=np.array([[0, -1], [-1, 1]], dtype=np.int32))
    spec = sh.uniform_state_spec(units_only, mode=EUCLIDEAN)
    oracle = sh.transfer_oracle_table(sh.state_from_lagrangian(
        sh.zero_lagrangian(units_only), spec, units_only, sh.TimeGrid.uniform(0.0, 1.0, 3)))
    assert oracle.amplitudes.tolist() == [[0.5, 0], [0, 0.5]]


def test_relative_deviations_read_python_abs_and_keep_a_nan(rng):
    z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    ref = z + 1e-3 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    ref[0, 0] = 0
    devs, worst = propagator.relative_deviations(z, ref)
    expect = [abs(a - b) / max(abs(b), 1e-300) for a, b in zip(z.ravel().tolist(),
                                                                  ref.ravel().tolist())]
    assert devs.shape == (3, 4) and devs.ravel().tolist() == expect
    assert worst == max(expect) == abs(z[0, 0]) / 1e-300
    z[2, 3] = complex(math.nan, 0.0)
    assert math.isnan(propagator.relative_deviations(z, ref)[1])
    assert propagator.relative_deviations(np.zeros((0, 0)), np.zeros((0, 0)))[1] == 0.0


def test_moduli_read_a_nan_after_a_stale_overflow_errno():
    # CPython's complex abs of a NaN raises OverflowError while a libm call
    # has left errno = ERANGE, as each overflow below does; the deviations
    # and the table's abs column must read NaN instead
    with contextlib.suppress(OverflowError):
        math.exp(1000)
    devs, worst = propagator.relative_deviations([complex(math.nan, 0)], [1.0])
    assert math.isnan(devs[0]) and math.isnan(worst)
    table = sh.PropagatorTable(sh.TimeGrid((0.0, 1.0)), np.array([0.0]), np.array([1.0]),
                               np.array([[complex(math.nan, 0)]]))
    with contextlib.suppress(OverflowError):
        math.exp(1000)
    assert sio.propagator_table_csv(table).splitlines()[1] == "0.0,0.0,1.0,1.0,nan,0.0,nan,nan"


def _gate_passes(gate, error, *args, **kw):
    """True if gate(*args, **kw) returns without raising error."""
    try:
        gate(*args, **kw)
    except error:
        return False
    return True


def _nan_gates():
    """Each library gate fed a NaN: a callable returning True if the gate passes."""
    nan = math.nan
    units = units_only_groupoid()
    huge = sh.GroupoidMeasure(sh.pair_groupoid(3), np.full(3, 1e200), np.full(9, 1e200))
    rows = [sh.ConvergenceRow(n, 1.0 / n, complex(v), 1 + 0j)
            for n, v in ((4, nan), (16, 1.1), (32, 1.01))]
    return {
        "modular-function": lambda: _gate_passes(modular_function, MeasureError, huge),
        "factorized-certificate-nan-last": lambda: FactorizedForm(
            np.array([1 + 0j, nan]), np.array([0, 1]), 2).certificate().is_positive,
        "factorized-certificate-nan-first": lambda: FactorizedForm(
            np.array([nan, 1 + 0j]), np.array([0, 1]), 2).certificate().is_positive,
        "certify-positive-type": lambda: sh.certify_positive_type(
            np.array([1 + 0j, nan]), sh.counting_measure(units)).is_positive,
        "state-spec-validate": lambda: _gate_passes(
            sh.uniform_state_spec(units).validate, sh.NormalizationError,
            sh.TimeGrid.uniform(0.0, 1.0, 2), sh.counting_measure(units), tol=nan),
        "errors-decrease-burn-in": lambda: sh.errors_decrease(rows, burn_in=8),
    }


@pytest.mark.parametrize("name", list(_nan_gates()))
def test_every_library_gate_fails_a_nan(name):
    with np.errstate(over="ignore", invalid="ignore"):
        assert _nan_gates()[name]() is False


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
    state = sh.state_from_lagrangian(lag, spec, g, grid, m)
    devs = np.abs(sh.propagator_table(state).amplitudes
                  - sh.transfer_oracle_table(state).amplitudes)
    assert _worst_units(devs, route_scale(state)) <= ROUTE_C


def test_reproducing_residual_cases(rng):
    g = sh.pair_groupoid(3)
    spec, m = uniform_setup(g)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    lag = symmetric_lagrangian(g, rng)
    state = sh.state_from_lagrangian(lag, spec, g, grid, m)
    assert sh.reproducing_residual(state, 2)[0] <= 1e-12
    zero = sh.state_from_lagrangian(sh.zero_lagrangian(g), spec, g, grid, m)
    assert sh.reproducing_residual(zero, 2)[0] <= 1e-12
    # euclidean free-particle lattice
    geom = sh.LineLattice(3, spacing=0.7)
    energy = sh.energy_lagrangian(g, geom, slice_dt=0.25, mass=1.3)
    spec_e = sh.uniform_state_spec(g, mode=EUCLIDEAN)
    euclidean = sh.state_from_lagrangian(energy, spec_e, g, grid, m)
    assert sh.reproducing_residual(euclidean, 1)[0] <= 1e-12
    with pytest.raises(ValueError):
        sh.reproducing_residual(state, 0)


def test_reproducing_residual_weighted_measure(rng):
    g = sh.pair_groupoid(2)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, 2),
                           rng.uniform(0.5, 2.0, 2)[g.src])
    p = rng.uniform(0.2, 1.0, (1, 2))
    p /= (p * m.object_weights).sum()
    spec = sh.StateSpec(p)
    lag = symmetric_lagrangian(g, rng)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    state = sh.state_from_lagrangian(lag, spec, g, grid, m)
    for j in (1, 2, 3):
        assert sh.reproducing_residual(state, j)[0] <= 1e-12


def test_reproducing_residual_returns_the_table_it_checked(rng):
    g = sh.pair_groupoid(4)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)[g.src])
    p = rng.uniform(0.2, 1.0, (1, 4))
    p /= (p * m.object_weights).sum()
    spec = sh.StateSpec(p, hbar=0.37)
    lag = symmetric_lagrangian(g, rng)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 5)
    state = sh.state_from_lagrangian(lag, spec, g, grid, m)
    table = sh.propagator_table(state)
    for j in (1, 2, 4):
        residual, checked = sh.reproducing_residual(state, j)
        assert residual <= 1e-12 and checked.grid == state.grid
        assert checked.amplitudes.tobytes() == table.amplitudes.tobytes()


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
    table = sh.propagator_table(sh.state_from_lagrangian(sh.zero_lagrangian(g), spec, g, grid, m))
    text = propagator_table_csv(table, tmp_path / "t.csv")
    lines = text.strip().split("\n")
    assert lines[0] == "x0,t0,x1,t1,re,im,abs,phase"
    assert len(lines) == 10


# ---------------------------------------------------------------------------
# route agreement over generated models
#
# Every route sums the same terms t of the state's histories, so each rounds
# within about u sum|t| (N + N max|l| / hbar) of the exact amplitude, u the
# unit roundoff (Higham, "Accuracy and Stability of Numerical Algorithms",
# ch. 3-4): N for the products of weights and the sums of each action, and
# N max|l| / hbar for the error the rounded action leaves in each phase.
# sum|t| must not be |T|, whose hom-set sums cancel.  That model holds above
# underflow; gradual underflow adds up to eta = 2^-1074 absolute to each of
# the N + 2 products of a term, times at most the weights of the term, as
# every |phase| <= 1 here (Higham, ch. 2).  The routes must agree within
# ROUTE_C times the sum of the two.  The lattice chain zeroes every kernel
# part below NORMAL_MIN, so for it the underflow term takes 2^-1022 in place
# of eta.

ROUTE_C = 16
ROUTE_GROUPOIDS = ("pair:2", "pair:3", "pair:4", "pair_x_cyclic:2,2", "pair_x_cyclic:2,3",
                   "cyclic:3", "file")


@pytest.fixture(scope="module")
def two_morphism_homs(tmp_path_factory):
    """A description file with two-morphism hom sets: pair_x_cyclic:2,2 beside
    a one-object Z2, which no history joins to the other two objects."""
    path = tmp_path_factory.mktemp("routes") / "two_morphism_homs.yaml"
    sh.save_groupoid_file(disjoint_union([sh.resolve_groupoid("pair_x_cyclic:2,2"),
                                          sh.cyclic_groupoid(2)]), path)
    return sh.load_groupoid_file(path)


@st.composite
def route_models(draw, file_groupoid):
    """A validated state of the incremental convention, and for a
    circle-lattice model (lattice, mass, measure) with measure "counting" or,
    in euclidean mode, "lattice": object weights the spacing and fiber
    weights the slice normalization A.  Else None: a seeded measure, or no
    lattice."""
    name = draw(st.sampled_from(ROUTE_GROUPOIDS))
    g = file_groupoid if name == "file" else sh.resolve_groupoid(name)
    n = draw(st.sampled_from((4, 3, 2, 1)))
    mode = draw(st.sampled_from((REAL_PHASE, EUCLIDEAN)))
    hbar = 10.0 ** draw(st.floats(-4.0, 1.0))
    per_slice = draw(st.booleans())
    energy = name.startswith("pair:") and draw(st.booleans())
    choices = ("lattice", "counting", "seeded") if energy and mode == EUCLIDEAN else (
        "counting", "seeded")
    measure = draw(st.sampled_from(choices))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k, grid = g.n_objects, sh.TimeGrid.uniform(0.0, 1.0, n)
    m = (sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 2.0, g.n_morphisms))
         if measure == "seeded" else sh.counting_measure(g))
    lattice = None
    if energy:
        mass = float(rng.uniform(0.5, 2.0))
        geom = sh.CircleLattice(k, float(rng.uniform(1.0, 4.0)))
        lag = sh.energy_lagrangian(g, geom, grid.dt(0), mass)
        if measure == "lattice":
            A, _ = gaussian_slice_params(SliceConfig(n, 1.0, mass, hbar, EUCLIDEAN))
            m = sh.GroupoidMeasure(g, np.full(k, geom.spacing), np.full(g.n_morphisms, A.real))
        lattice = None if measure == "seeded" else (geom, mass, measure)
    else:
        # euclidean weights exp(-l / hbar) overflow below l = 0 at small hbar
        vals = rng.uniform(0.0 if mode == EUCLIDEAN else -3.0, 3.0, g.n_morphisms)
        lag = sh.Lagrangian(g, 0.5 * (vals + vals[g.inverse_of]))
    p = rng.uniform(0.2, 1.0, (n + 1 if per_slice else 1, k))
    p /= (p @ m.object_weights)[:, None]
    state = sh.state_from_lagrangian(lag, sh.StateSpec(p, hbar, mode), g, grid, m)
    return state, lattice


def route_scale(state, eta: float = 2.0 ** -1074) -> np.ndarray:
    """u sum|t| (N + N max|l| / hbar) + eta (N + 2) sum w per endpoint pair
    [x0, x1].  sum|t| is the transfer power, between the endpoint densities,
    of the matrix of fiber weight times |phase| summed over each hom set;
    sum w is the same with every |phase| 1."""
    g, spec, m, n = state.groupoid, state.spec, state.measure, state.grid.n_intervals
    p = state.density_table

    def density_stripped_power(phase_moduli):
        T = np.zeros((g.n_objects, g.n_objects))
        np.add.at(T, (g.tgt, g.src), m.fiber_weights * phase_moduli)
        return np.sqrt(np.outer(p[0], p[n])) * sh.transfer_power(T, n, m).T

    lag = state.lagrangian.values
    terms = density_stripped_power(np.abs(phase_factors(lag, spec.hbar, spec.mode)))
    weights = density_stripped_power(1.0)
    return (2.0 ** -53 * terms * (n + n * np.abs(lag).max() / spec.hbar)
            + eta * (n + 2) * weights)


def _worst_units(devs, scale) -> float:
    """The largest of devs in units of scale; a zero deviation is 0 units,
    also where scale underflowed to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(devs == 0, 0.0, devs / scale)))


def route_ratios(state, lattice) -> dict:
    """The worst deviation of each route from the literal table, in units of
    route_scale; a route that cannot check the state is left out."""
    scale = route_scale(state)
    table = sh.propagator_table(state)

    def worst(values):
        return _worst_units(np.abs(np.asarray(values) - table.amplitudes), scale)

    ratios = {}
    n = state.grid.n_intervals
    try:
        ratios["transfer"] = worst(sh.transfer_oracle_table(state).amplitudes)
        if n > 1:
            ratios["splitting"] = _worst_units(
                np.array([sh.reproducing_residual(state, j)[0] for j in range(1, n)]),
                scale.max())
    except ValueError as exc:   # both refuse an underflowed euclidean table
        assert state.spec.mode == EUCLIDEAN and "underflows" in str(exc)
    if lattice is None:
        return ratios
    geom, mass, measure = lattice
    sites = range(geom.n_sites)
    if measure == "counting":
        ratios["velocity"] = worst([[sh.velocity_form_propagator(geom, state.grid, state.spec,
                                                                 mass, x0, x1)
                                     for x1 in sites] for x0 in sites])
    else:
        cfg = SliceConfig(n, 1.0, mass, state.spec.hbar, EUCLIDEAN)
        p = state.density_table
        chain = [[sh.lattice_line_propagator(geom, cfg, x0, x1) * math.sqrt(p[0, x0] * p[n, x1])
                  for x1 in sites] for x0 in sites]
        devs = np.abs(np.asarray(chain) - table.amplitudes)
        ratios["chain"] = _worst_units(devs, route_scale(state, propagator.NORMAL_MIN))
    return ratios


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_every_route_agrees_with_the_literal_table_within_the_rounding_bound(
        two_morphism_homs, data):
    state, lattice = data.draw(route_models(two_morphism_homs))
    for route, ratio in route_ratios(state, lattice).items():
        assert ratio <= ROUTE_C, (route, ratio)


# ---------------------------------------------------------------------------
# the phase constant sigma against the per-mode formulas it replaced


def _branch_phase_factor(s, hbar, mode):
    if mode == REAL_PHASE:
        return complex(math.cos(s / hbar), math.sin(s / hbar))
    return complex(math.exp(-s / hbar))


def _branch_line_kernel(mass, hbar, t, dx, mode):
    if mode == REAL_PHASE:
        return (cmath.sqrt(mass / (2j * math.pi * hbar * t))
                * cmath.exp(1j * mass * dx * dx / (2 * hbar * t)))
    return complex(math.sqrt(mass / (2 * math.pi * hbar * t))
                   * math.exp(-mass * dx * dx / (2 * hbar * t)))


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _signed_samples(rng, n, scale):
    """Seeded values of both signs, with exact signed zeros mixed in."""
    vals = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]
    vals += list(rng.standard_normal(n) * scale)
    vals += list(rng.uniform(-700.0, 700.0, n))
    return [float(v) for v in vals]


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_phase_factor_is_bit_identical_to_branch_formula(mode):
    rng = np.random.default_rng(71)
    samples = _signed_samples(rng, 10000, 10.0)
    hbars = [1.0, *rng.uniform(0.05, 3.0, 7)]
    pairs = [(s, h) for s in samples for h in hbars if abs(s / h) <= 708.0]
    assert len(pairs) > 100000
    mismatches = [(s, h) for s, h in pairs
                  if _bits(phase_factor(s, h, mode)) != _bits(_branch_phase_factor(s, h, mode))]
    assert mismatches == []


def test_phase_factor_keeps_the_sign_of_a_zero_action():
    assert _bits(phase_factor(-0.0, 1.0, REAL_PHASE)) == _bits(complex(1.0, -0.0))
    assert _bits(phase_factor(0.0, 1.0, REAL_PHASE)) == _bits(complex(1.0, 0.0))
    past_zero = -1.0 * 0.0
    assert _bits(phase_factor(past_zero, 0.5, REAL_PHASE)) == _bits(complex(1.0, -0.0))


def test_euclidean_weights_near_overflow_differ_by_at_most_two_ulp():
    # cmath.exp evaluates exp(x) as exp(x - 1) * e once x > log(DBL_MAX / 4)
    # (about 708.396), so in the last unit and a half below the overflow
    # threshold the weight of a large negative euclidean action may differ
    # from libm exp in the last two bits; below that band the two are
    # bit-identical (test above), and past the threshold both overflow.
    for s in np.linspace(-709.78, -708.3, 2001):
        new = phase_factor(float(s), 1.0, EUCLIDEAN)
        old = _branch_phase_factor(float(s), 1.0, EUCLIDEAN)
        assert new.imag == old.imag == 0.0
        assert abs(new.real - old.real) <= 2 * math.ulp(old.real)
    for fn in (phase_factor, _branch_phase_factor):
        with pytest.raises(OverflowError):
            fn(-710.0, 1.0, EUCLIDEAN)


def _phase_blocks(rng, hbar, mode):
    """Seeded blocks of actions that phase_factor accepts: signed zeros,
    subnormals, normal values and magnitudes 1e-300..1e300; in the euclidean
    mode also blocks of arguments -s / hbar from below cmath's switch to
    exp(x - 1) * e (CMATH_EXP_LARGE, about 708.396) up to the overflow
    threshold (about 709.78): wholly below, straddling, wholly above."""
    vals = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300, -1e300]
    vals += list(rng.standard_normal(3000) * 10.0)
    vals += list(rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-300.0, 300.0, 3000))
    vals += list(rng.standard_normal(300) * 1e-310)
    if mode == EUCLIDEAN:
        # arguments -s / hbar at and above log(DBL_MAX) overflow: not accepted
        vals = [v for v in vals if -v / hbar < 709.0]
    rng.shuffle(vals)
    blocks = [np.array(b) for b in np.array_split(np.array(vals), 100)]
    if mode == EUCLIDEAN:
        band = -hbar * np.linspace(CMATH_EXP_LARGE - 1.0, 709.78, 1000)
        blocks += np.array_split(band, 50)
    return blocks


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_phase_factors_are_bit_identical_to_phase_factor(mode):
    rng = np.random.default_rng(73)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hbar in (1.0, 0.37, 1e-3, 3.0):
            for s in _phase_blocks(rng, hbar, mode):
                got = phase_factors(s, hbar, mode)
                want = np.array([phase_factor(v, hbar, mode) for v in s.tolist()],
                                dtype=complex)
                assert got.tobytes() == want.tobytes(), [
                    (v, a, b) for v, a, b in zip(s, got, want) if _bits(a) != _bits(b)][:5]


def _outcome(fn):
    try:
        return [_bits(z) for z in fn()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode, hbar, block", [
    (REAL_PHASE, 1e-3, [0.5, 1e308, -2.0]),           # s / hbar overflows
    (REAL_PHASE, 1.0, [0.5, math.inf]),
    (REAL_PHASE, 0.37, [0.5, math.nan]),
    (EUCLIDEAN, 1e-3, [0.5, -1e308]),                  # s / hbar overflows
    (EUCLIDEAN, 1e-3, [0.5, 1e308]),
    (EUCLIDEAN, 1.0, [0.5, -709.5, -709.79, 3.0]),      # exp overflows
    (EUCLIDEAN, 1.0, [0.5, math.nan, -math.inf]),
])
def test_phase_factors_fall_back_to_phase_factor(mode, hbar, block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: phase_factors(np.array(block), hbar, mode))
        want = _outcome(lambda: [phase_factor(v, hbar, mode) for v in block])
    assert got == want


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_line_kernel_is_bit_identical_to_branch_formula(mode):
    rng = np.random.default_rng(72)
    dxs = _signed_samples(rng, 2000, 3.0)
    params = [(1.0, 1.0, 1.0)] + [tuple(rng.uniform(0.05, 4.0, 3)) for _ in range(9)]
    mismatches = [(m, h, t, dx) for m, h, t in params for dx in dxs
                  if _bits(sh.line_kernel(m, h, t, dx, mode))
                  != _bits(_branch_line_kernel(m, h, t, dx, mode))]
    assert mismatches == []


@pytest.mark.parametrize("bad", ["bogus", "Real", "EUCLIDEAN", ""])
def test_unknown_mode_is_refused(bad):
    with pytest.raises(ValueError, match="unknown mode"):
        phase_factor(0.0, 1.0, bad)
    with pytest.raises(ValueError, match="unknown mode"):
        sh.line_kernel(1.0, 1.0, 1.0, 0.5, bad)
    with pytest.raises(ValueError, match="unknown mode"):
        sh.StateSpec(np.full((1, 2), 0.5), mode=bad)


# ---------------------------------------------------------------------------
# the block kernels against the per-history loops they replaced


def _loop_fsum_complex(terms):
    re, im = [], []
    for z in terms:
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def _loop_terms(g, grid, lag, spec, x0, x1, m):
    """Reference: one term per history, in canonical order, as the scalar
    term loop computed them."""
    vals, fw, ow = lag.values, m.fiber_weights, m.object_weights
    for links, mids in product_walks(g, x0, x1, grid.n_intervals):
        if spec.convention == INCREMENTAL:
            s = math.fsum(vals[l] for l in links)
        else:
            s = sh.action(sh.from_links(g, grid, links), lag, ANCHORED)
        w = 1.0
        for l in links:
            w *= fw[l]
        for c in mids:
            w *= ow[c]
        yield w * phase_factor(s, spec.hbar, spec.mode)


def _loop_propagator(g, grid, lag, spec, x0, x1, m):
    p = spec.slices(grid)
    amp = math.sqrt(p[grid.n_intervals, x1] * p[0, x0])
    return amp * _loop_fsum_complex(_loop_terms(g, grid, lag, spec, x0, x1, m))


def _block_terms(g, grid, lag, spec, x0, x1, m):
    blocks = list(path_sum_terms(g, grid, lag, spec, x0, x1, m))
    assert all(len(t) <= BLOCK for t in blocks)
    return np.concatenate(blocks) if blocks else np.zeros(0, complex)


def _instance(name, n, rng):
    """A seeded instance: weighted measure, non-uniform grid, non-uniform
    density and a Lagrangian with a -0.0 value."""
    g = sh.resolve_groupoid(name)
    vals = rng.uniform(0.0, 2.0, g.n_morphisms)
    vals[g.unit_of[0]] = -0.0
    lag = sh.Lagrangian(g, np.where(g.inverse_of < np.arange(g.n_morphisms),
                                    vals[g.inverse_of], vals))
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 1.5, g.n_objects),
                           rng.uniform(0.5, 1.5, g.n_morphisms))
    grid = sh.TimeGrid(tuple(np.cumsum([0.0, *rng.uniform(0.2, 1.0, n)])))
    p = rng.uniform(0.5, 1.5, g.n_objects)
    return g, lag, m, grid, p / (p * m.object_weights).sum()


def _bytes(z):
    return np.complex128(z).tobytes()


@pytest.mark.parametrize("name", ["pair:3", "pair:4", "cyclic:3", "pair_x_cyclic:2,3"])
def test_block_terms_are_bit_identical_to_the_term_loop(name):
    rng = np.random.default_rng(91)
    checked = 0
    for n in range(1, 5):
        g, lag, m, grid, p = _instance(name, n, rng)
        for mode, convention, hbar in itertools.product(
                (REAL_PHASE, EUCLIDEAN), (INCREMENTAL, ANCHORED), (1.0, 0.37)):
            spec = sh.StateSpec(p[None, :], hbar=hbar, mode=mode, convention=convention)
            for x0, x1 in itertools.product(range(g.n_objects), repeat=2):
                ref = list(_loop_terms(g, grid, lag, spec, x0, x1, m))
                terms = _block_terms(g, grid, lag, spec, x0, x1, m)
                assert terms.tobytes() == np.array(ref, complex).tobytes()
                assert _bytes(sh.finite_propagator(g, grid, lag, spec, x0, x1, m)) \
                    == _bytes(_loop_propagator(g, grid, lag, spec, x0, x1, m))
                checked += len(ref)
    assert checked > 100


@pytest.mark.parametrize("name, n, pairs", [
    ("pair:5", 6, [(0, 0), (3, 1)]),            # 3125 histories a pair
    ("pair_x_cyclic:2,2", 7, [(1, 0)]),         # 8192 histories over 64 interior tuples
])
def test_block_terms_across_block_boundaries(name, n, pairs):
    rng = np.random.default_rng(92)
    g, lag, m, grid, p = _instance(name, n, rng)
    for convention in (INCREMENTAL, ANCHORED):
        spec = sh.StateSpec(p[None, :], hbar=0.37, mode=EUCLIDEAN, convention=convention)
        for x0, x1 in pairs:
            ref = list(_loop_terms(g, grid, lag, spec, x0, x1, m))
            terms = _block_terms(g, grid, lag, spec, x0, x1, m)
            assert len(terms) > BLOCK
            assert terms.tobytes() == np.array(ref, complex).tobytes()
            assert _bytes(sh.finite_propagator(g, grid, lag, spec, x0, x1, m)) \
                == _bytes(_loop_propagator(g, grid, lag, spec, x0, x1, m))


def test_anchored_terms_raise_on_a_missing_composition():
    g = sh.pair_groupoid(2)
    table = np.array(g.table)
    table[3, 2] = sh.UNDEFINED            # (1<-1)∘(1<-0) left out
    broken = dataclasses.replace(g, table=table)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    lag = sh.zero_lagrangian(broken)
    spec = sh.uniform_state_spec(broken, convention=ANCHORED)
    with pytest.raises(sh.CompositionError) as expected:
        list(_loop_terms(broken, grid, lag, spec, 0, 1, sh.counting_measure(broken)))
    with pytest.raises(sh.CompositionError) as got:
        sh.finite_propagator(broken, grid, lag, spec, 0, 1)
    assert str(got.value) == str(expected.value)
    # the incremental convention composes nothing
    sh.finite_propagator(broken, grid, lag, sh.uniform_state_spec(broken), 0, 1)


def test_finite_propagator_memory_is_bounded_by_blocks():
    # pair:3 over 12 intervals has 177147 histories a pair: keeping its terms
    # for math.fsum peaked at 11.4 MB, and one block's evaluation takes 1 MB
    rng = np.random.default_rng(93)
    for n_objects, n, bound in ((6, 6, 1 << 20), (3, 12, 2 << 20)):
        g = sh.pair_groupoid(n_objects)
        lag = symmetric_lagrangian(g, rng)
        spec, m = uniform_setup(g)
        grid = sh.TimeGrid.uniform(0.0, 1.0, n)
        sh.finite_propagator(g, grid, lag, spec, 0, 1, m)     # fill the groupoid's caches
        tracemalloc.start()
        try:
            sh.finite_propagator(g, grid, lag, spec, 2, n_objects - 1, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n_objects, n)


def _loop_velocity_form(geometry, grid, spec, mass, x0, x1):
    """Reference: the scalar chain loop over every interior site tuple."""
    n, dt, h = grid.n_intervals, grid.dt(0), geometry.spacing
    p = spec.slices(grid)
    terms = []
    for mids in itertools.product(range(geometry.n_sites), repeat=n - 1):
        s = 0.0
        site = x0
        for nxt in (*mids, x1):
            v = geometry.displacement_steps(site, nxt) * h / dt
            s += kinetic_lagrangian_value(mass, v, dt)
            site = nxt
        terms.append(phase_factor(s, spec.hbar, spec.mode))
    return math.sqrt(p[n, x1] * p[0, x0]) * _loop_fsum_complex(terms)


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_velocity_form_is_bit_identical_to_the_chain_loop(mode):
    geom = sh.CircleLattice(6, 5.3)
    spec = sh.uniform_state_spec(sh.pair_groupoid(6), hbar=0.37, mode=mode)
    for n, pairs in ((2, [(0, 0), (1, 4)]), (6, [(0, 3), (5, 2)])):   # 7776 paths at n=6
        grid = sh.TimeGrid.uniform(0.0, 1.3, n)
        for x0, x1 in pairs:
            assert _bytes(sh.velocity_form_propagator(geom, grid, spec, 1.7, x0, x1)) \
                == _bytes(_loop_velocity_form(geom, grid, spec, 1.7, x0, x1))


# ---------------------------------------------------------------------------
# row_fsums: math.fsum of every row, bit for bit

TINY = 5e-324
ROW_CASES = {
    1: [[-0.0], [0.0], [TINY], [-1e300], [2.5]],
    2: [[1.0, 2.0 ** -53], [1.0 + 2.0 ** -52, 2.0 ** -53], [-0.0, -0.0], [0.0, -0.0],
        [1e300, -1e300], [TINY, -TINY], [TINY, 2.0 ** -1074], [1e-300, 1e300],
        [0.1, 0.2]],
    3: [[1.0, 2.0 ** -53, 2.0 ** -160], [1.0, 2.0 ** -53, -(2.0 ** -160)],
        [1.0, -(2.0 ** -54), 2.0 ** -110], [-0.0, -0.0, -0.0], [1e300, 1.0, -1e300],
        [1e16, 1.0, -1e16], [TINY, 1.0, -1.0], [1e-300, -1e-300, TINY],
        [0.1, 0.2, 0.3], [1.7e308, 1e292, -1.7e308]],
    6: [[1.0, 1e100, 1.0, -1e100, 2.0 ** -53, 2.0 ** -106], [0.1] * 6, [-0.0] * 6,
        [1e300, 1e-300, -1e300, 1e-300, 1e200, -1e200],
        [3.0, 2.0 ** -52, 2.0 ** -53, 2.0 ** -104, -(2.0 ** -105), 2.0 ** -200]],
}


def _fsum_rows(rows):
    return np.array([math.fsum(r) for r in rows])


def _padded(rows, width, rng):
    """The rows, once among seeded filler rows and once alone."""
    filler = rng.uniform(0.0, 2.0, (2 * ROW_FSUM_CASCADE, width)).tolist()
    return [filler[:7] + rows + filler[7:], rows]


@pytest.mark.parametrize("width", sorted(ROW_CASES))
def test_row_fsums_is_bit_identical_to_fsum(width, monkeypatch):
    rng = np.random.default_rng(94)
    magnitudes = 10.0 ** rng.uniform(-300, 300, (400, width))
    random = (rng.choice([-1.0, 1.0], (400, width)) * magnitudes).tolist()
    fsum, calls = math.fsum, []

    def counted_fsum(values):
        calls.append(values)
        return fsum(values)

    padded, alone = _padded(ROW_CASES[width], width, rng)
    for rows in (padded, alone, random):
        expect = _fsum_rows(rows).tobytes()
        calls.clear()
        monkeypatch.setattr(math, "fsum", counted_fsum)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = row_fsums(np.array(rows))
        finally:
            monkeypatch.undo()
        assert got.tobytes() == expect
        if rows is padded:
            # the cascade settles the filler rows and leaves some special ones to fsum
            assert len(calls) < len(ROW_CASES[width])
            assert bool(calls) == (width > 2)


@pytest.mark.parametrize("row, error", [
    ([1.7e308, 1.7e308, -1.7e308], OverflowError),
    ([math.inf, -math.inf, 1.0], ValueError),
])
def test_row_fsums_raises_as_fsum_does(row, error):
    rng = np.random.default_rng(95)
    for rows in _padded([row], 3, rng):
        with pytest.raises(error) as expected:
            _fsum_rows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as got:
                row_fsums(np.array(rows))
        assert str(got.value) == str(expected.value)


def test_row_fsums_passes_non_finite_sums_through_fsum():
    rng = np.random.default_rng(96)
    for rows in _padded([[math.inf, 1.0], [math.nan, 1.0], [-math.inf, -1e308]], 2, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_fsums(np.array(rows))
        assert got.tobytes() == _fsum_rows(rows).tobytes()


# ---------------------------------------------------------------------------
# exact_sum: math.fsum of each part, bit for bit, streamed a block at a time

def _fsum_outcome(re, im):
    try:
        return _bits(complex(math.fsum(re), math.fsum(im)))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _sum_outcome(fn):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _bits(fn())
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _complex(re, im):
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _sum_cases(rng):
    """Seeded parts of every kind that can round differently: random signs
    and magnitudes, subnormals, cancellation, half-ulp ties, signed zeros and
    exact zero sums (+0.0 from math.fsum), at lengths on both sides of
    EXACT_SUM_BINS."""
    for n in (1, 5, EXACT_SUM_BINS - 1, EXACT_SUM_BINS, 3 * BLOCK + 17):
        m = 2 * n
        sign = rng.choice([-1.0, 1.0], m)
        pairs = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-20, 20, n // 2)
        cancel = np.concatenate([pairs, -pairs, [TINY] * (m - 2 * (n // 2))])
        rng.shuffle(cancel)
        zero = np.concatenate([pairs, -pairs, [0.0] * (n % 2)])     # sums to exactly 0
        for v in (rng.standard_normal(m),
                  sign * 10.0 ** rng.uniform(-320, 300, m),
                  sign * TINY * rng.integers(0, 1 << 30, m),
                  cancel,
                  sign * np.where(rng.random(m) < 0.5, 1.0, 2.0 ** -53),
                  sign * np.where(rng.random(m) < 0.9, 2.0 ** -1074, 1.0),
                  rng.choice([0.0, -0.0], m),
                  np.full(m, -0.0),
                  np.concatenate([zero, rng.permutation(zero)])):
            yield v[:n], v[n:]


def test_exact_sum_is_bit_identical_to_fsum(monkeypatch):
    rng = np.random.default_rng(97)
    checked = 0
    for fold in (propagator._FOLD, 3000):        # 3000 values: a fold every block
        monkeypatch.setattr(propagator, "_FOLD", fold)
        for re, im in _sum_cases(rng):
            z = _complex(re, im)
            want = _fsum_outcome(re.tolist(), im.tolist())
            assert _sum_outcome(lambda: sh.fsum_complex(z)) == want
            assert _sum_outcome(lambda: sh.fsum_complex(z.tolist())) == want
            for step in (1, 7, 300, BLOCK):
                def blocks():
                    return (z[s:s + step] for s in range(0, len(z), step))
                assert _sum_outcome(lambda: exact_sum(blocks)) == want, (len(z), step)
            checked += len(z) >= EXACT_SUM_BINS
    assert checked == 36


@pytest.mark.parametrize("row, error", [
    ([1.7e308, 1.7e308, -1.7e308], OverflowError),
    ([math.inf, -math.inf, 1.0], ValueError),
])
def test_exact_sum_raises_as_fsum_does(row, error):
    rng = np.random.default_rng(98)
    filler = rng.uniform(-2.0, 2.0, EXACT_SUM_BINS + 5).tolist()
    for values in (row, filler[:7] + row + filler[7:]):
        with pytest.raises(error) as expected:
            math.fsum(values)
        zeros = [0.0] * len(values)
        for re, im in ((values, zeros), (zeros, values)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error) as got:
                    sh.fsum_complex(_complex(re, im))
            assert str(got.value) == str(expected.value)


def test_finite_propagator_raises_as_fsum_does_on_overflowing_terms():
    # euclidean terms of 1e305 each: 2187 histories a pair sum past the float range
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 8)
    lag = sh.Lagrangian(g, np.full(g.n_morphisms, -math.log(1e305) / 8))
    spec = sh.uniform_state_spec(g, mode=EUCLIDEAN)
    m = sh.counting_measure(g)
    with pytest.raises(OverflowError) as expected:
        _loop_propagator(g, grid, lag, spec, 0, 2, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as got:
            sh.finite_propagator(g, grid, lag, spec, 0, 2, m)
    assert str(got.value) == str(expected.value) == "intermediate overflow in fsum"


def test_finite_propagator_sums_a_late_huge_block_as_fsum_does():
    # only the last histories (interior objects mostly 2) loop at 2 often enough
    # to reach the guard: it fires after two blocks are binned, and the pair is
    # summed again through math.fsum
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 8)
    vals = np.zeros(g.n_morphisms)
    vals[(g.src == 2) & (g.tgt == 2)] = -math.log(1.7e308) / 7
    spec = sh.uniform_state_spec(g, mode=EUCLIDEAN)
    m = sh.counting_measure(g)
    lag = sh.Lagrangian(g, vals)
    blocks = list(path_sum_terms(g, grid, lag, spec, 0, 2, m))
    assert len(blocks) == 3 and np.abs(blocks[1]).max() < 1e300 < np.abs(blocks[2]).max()
    got = sh.finite_propagator(g, grid, lag, spec, 0, 2, m)
    assert _bytes(got) == _bytes(_loop_propagator(g, grid, lag, spec, 0, 2, m))
    assert got.real > 1e307


_PARTS = st.lists(st.floats(width=64), min_size=1, max_size=24)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(re=_PARTS, im=_PARTS, long=st.booleans())
def test_fsum_complex_has_fsums_outcome(re, im, long):
    n = min(len(re), len(im))
    re, im = re[:n], im[:n]
    if long:        # past EXACT_SUM_BINS, so the bins sum it
        copies = EXACT_SUM_BINS // n + 1
        re, im = re * copies, im * copies
    assert _sum_outcome(lambda: sh.fsum_complex(_complex(re, im))) == _fsum_outcome(re, im)
