import cmath
import math
import struct
import warnings

import numpy as np
import pytest

import sumhist as sh
from sumhist.action import EUCLIDEAN, REAL_PHASE, phase_factor
from sumhist.geometry import CircleLattice, LineLattice
from sumhist.propagator import SliceConfig, _chain_matrix, gaussian_slice_params


def test_line_kernel_closed_forms():
    k = sh.line_kernel(1.0, 1.0, 1.0, 0.0, EUCLIDEAN)
    assert k.real == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    k = sh.line_kernel(1.0, 1.0, 1.0, 0.0, REAL_PHASE)
    assert abs(k) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert math.degrees(math.atan2(k.imag, k.real)) == pytest.approx(-45.0)


def test_gaussian_recursion_real_phase():
    for n in (1, 2, 4, 8, 16, 32, 64):
        cfg = SliceConfig(n, 0.8, mass=1.7, hbar=0.9, mode=REAL_PHASE)
        for dx in (0.0, 0.3, 1.1, 2.5):
            val = sh.sliced_line_propagator(cfg, 0.2, 0.2 + dx)
            ref = sh.line_kernel(1.7, 0.9, 0.8, dx, REAL_PHASE)
            assert abs(val - ref) <= 1e-9 * abs(ref)


def test_gaussian_recursion_euclidean():
    for n in (1, 3, 7, 32):
        cfg = SliceConfig(n, 1.5, mass=0.8, hbar=1.2, mode=EUCLIDEAN)
        val = sh.sliced_line_propagator(cfg, -0.4, 0.9)
        ref = sh.line_kernel(0.8, 1.2, 1.5, 1.3, EUCLIDEAN)
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_quadrature_matches_heat_kernel():
    cfg = SliceConfig(64, 1.0, mode=EUCLIDEAN, quad_halfwidth=8.0, quad_nodes=400)
    for dx in np.linspace(-2.0, 2.0, 9):
        val = sh.sliced_line_propagator(cfg, 0.0, dx, method="quadrature")
        ref = (2 * math.pi) ** -0.5 * math.exp(-dx * dx / 2)
        assert abs(val - ref) <= 1e-3 * abs(ref)


def test_quadrature_semigroup_self_consistency():
    # independent convolution oracle: composing two half-time quadrature
    # kernels over a grid reproduces the full-time kernel
    half = SliceConfig(8, 0.5, mode=EUCLIDEAN)
    full = SliceConfig(16, 1.0, mode=EUCLIDEAN)
    u = np.linspace(-8.0, 8.0, 801)
    w = np.full(u.size, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    x0, x1 = -0.3, 0.7
    lhs = sh.sliced_line_propagator(full, x0, x1, method="quadrature")
    with warnings.catch_warnings():
        # midpoints near the domain edge trip the truncation heuristic; the
        # kernel mass there is negligible for this check
        warnings.simplefilter("ignore", UserWarning)
        mids = np.array([sh.sliced_line_propagator(half, x0, float(c), method="quadrature")
                         * sh.sliced_line_propagator(half, float(c), x1, method="quadrature")
                         for c in u])
    rhs = float(np.sum(w * mids.real))
    assert lhs.real == pytest.approx(rhs, rel=1e-9)


def test_quadrature_requires_euclidean():
    cfg = SliceConfig(4, 1.0, mode=REAL_PHASE)
    with pytest.raises(ValueError):
        sh.sliced_line_propagator(cfg, 0.0, 1.0, method="quadrature")


def test_quadrature_domain_warning():
    cfg = SliceConfig(4, 1.0, mode=EUCLIDEAN, quad_halfwidth=2.0, quad_nodes=100)
    with pytest.warns(UserWarning, match="domain"):
        sh.sliced_line_propagator(cfg, 0.0, 1.0, method="quadrature")


def test_circle_matches_image_sum():
    cfg = SliceConfig(64, 0.5, mode=EUCLIDEAN)
    lc = 2 * math.pi
    for frac in (0.0, 0.25, 0.5, 0.75):
        th1 = frac * lc
        val = sh.circle_propagator(cfg, lc, 0.0, th1, n_sites=256)
        ref = sh.image_sum_circle_kernel(cfg, lc, 0.0, th1, winding_max=10)
        assert abs(val - ref) <= 1e-2 * abs(ref)


def test_circle_short_time_ratio_to_line():
    lc = 2 * math.pi
    cfg = SliceConfig(8, 0.05, mode=EUCLIDEAN)
    th = lc / 4
    val = sh.circle_propagator(cfg, lc, th, th, n_sites=256)
    line = sh.line_kernel(1.0, 1.0, 0.05, 0.0, EUCLIDEAN)
    assert abs(val / line - 1.0) <= 1e-3


def test_circle_winding_symmetry():
    cfg = SliceConfig(16, 0.5, mode=EUCLIDEAN)
    lc = 2 * math.pi
    a = sh.circle_propagator(cfg, lc, 0.3 * lc, 0.7 * lc, n_sites=128)
    b = sh.circle_propagator(cfg, lc, 0.7 * lc, 0.3 * lc, n_sites=128)
    assert a == pytest.approx(b)


def test_circle_coarse_lattice_warns():
    cfg = SliceConfig(8, 0.5, mode=EUCLIDEAN)
    with pytest.warns(UserWarning, match="coarse"):
        sh.circle_propagator(cfg, 2 * math.pi, 0.0, 1.0, n_sites=16)


def test_image_sum_tail_warning():
    cfg = SliceConfig(4, 50.0, mode=EUCLIDEAN)  # very diffuse: images matter far out
    with pytest.warns(UserWarning, match="winding_max"):
        sh.image_sum_circle_kernel(cfg, 2 * math.pi, 0.0, 1.0, winding_max=1)


def test_line_convergence_rows_and_floor():
    cfg = SliceConfig(4, 1.0, mode=EUCLIDEAN)
    rows = sh.line_convergence(cfg, 0.0, 1.0, [1, 2, 4, 8, 16, 32, 64])
    assert rows[0].rel_error <= 1e-14  # single slice is the kernel itself
    assert all(r.rel_error <= 1e-12 for r in rows)  # exactly sliced: roundoff floor
    assert sh.errors_decrease(rows, burn_in=8, floor=1e-9)


def test_circle_convergence_decreases():
    cfg = SliceConfig(4, 0.5, mode=EUCLIDEAN)
    lc = 2 * math.pi
    rows = sh.circle_convergence(cfg, lc, 0.0, math.pi, [1, 2, 4, 8, 16, 32, 64],
                                 n_sites=256)
    # the one-slice lattice cannot wind: visible error, then genuine decrease
    assert rows[0].rel_error > 0.1
    assert rows[2].rel_error < 1e-6
    assert sh.errors_decrease(rows, burn_in=8, floor=1e-9)


def test_circle_convergence_builds_one_reference_per_sweep(monkeypatch):
    # the image sum reads T, m, hbar and the mode: one per sweep, and each
    # row's reference holds the bytes of its own slice count's image sum
    import sumhist.propagator as sp
    calls, image_sum = [], sp.image_sum_circle_kernel

    def counting(cfg, *args):
        calls.append(cfg.n_slices)
        return image_sum(cfg, *args)

    monkeypatch.setattr(sp, "image_sum_circle_kernel", counting)
    cfg = SliceConfig(3, 0.7, mass=1.3, hbar=0.9, mode=EUCLIDEAN)
    rows = sh.circle_convergence(cfg, 5.0, 0.4, 2.9, [2, 4, 8], n_sites=64, winding_max=6)
    assert calls == [3]
    for r in rows:
        ref = image_sum(SliceConfig(r.n_slices, 0.7, 1.3, 0.9, EUCLIDEAN), 5.0, 0.4, 2.9, 6)
        assert struct.pack("2d", r.reference.real, r.reference.imag) == struct.pack(
            "2d", ref.real, ref.imag)


def test_errors_decrease_detects_growth():
    rows = [sh.ConvergenceRow(n, 1.0 / n, complex(1 + 10 ** (-9 + k)), complex(1.0))
            for k, n in enumerate((4, 8, 16, 32, 64))]
    assert not sh.errors_decrease(rows, burn_in=8, floor=1e-12)


def test_convergence_rel_error_is_the_relative_deviation():
    assert sh.ConvergenceRow(1, 1.0, 3 + 4j, 1 + 0j).rel_error == abs(2 + 4j)
    # a zero reference divides by 1e-300, as every other relative deviation does
    assert sh.ConvergenceRow(1, 1.0, 0.5 + 0j, 0j).rel_error == 0.5 / 1e-300
    assert math.isnan(sh.ConvergenceRow(1, 1.0, complex(math.nan, 0), 1 + 0j).rel_error)


def test_convergence_csv(tmp_path):
    from sumhist.io import convergence_csv
    cfg = SliceConfig(4, 1.0, mode=EUCLIDEAN)
    rows = sh.line_convergence(cfg, 0.0, 1.0, [1, 2, 4])
    text = convergence_csv(rows, tmp_path / "c.csv")
    lines = text.strip().split("\n")
    assert lines[0] == "N,dt,value_re,value_im,reference_re,reference_im,rel_error"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# the phase constant sigma against the per-mode formulas it replaced


def _branch_slice_params(cfg):
    sigma = 1j if cfg.mode == REAL_PHASE else -1.0
    B = sigma * cfg.mass / (2 * cfg.hbar * cfg.dt)
    A = cmath.sqrt(cfg.mass / (2 * math.pi * cfg.hbar * cfg.dt
                               * (1j if cfg.mode == REAL_PHASE else 1.0)))
    return A, B


def _bits(*zs):
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in zs)


def _seeded_configs(seed, count, mode):
    rng = np.random.default_rng(seed)
    out = [SliceConfig(1, 1.0, mode=mode), SliceConfig(64, 1.0, mode=mode)]
    for _ in range(count):
        n = int(rng.integers(1, 300))
        total, mass, hbar = rng.uniform(0.01, 5.0, 3)
        out.append(SliceConfig(n, float(total), float(mass), float(hbar), mode))
    return out


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_gaussian_slice_params_are_bit_identical_to_branch_formula(mode):
    for cfg in _seeded_configs(81, 1500, mode):
        assert _bits(*gaussian_slice_params(cfg)) == _bits(*_branch_slice_params(cfg)), cfg


def _entrywise_kernel(cfg, d):
    """phase_factor(l) A at every entry of the distance array d, with
    l = m d^2 / (2 dt): one scalar phase_factor per distinct distance, and
    every subnormal part kept.  The product is numpy's, phases first, as a
    complex product under FMA rounds by operand order; the real part in
    euclidean mode, as the chain matrices hold it."""
    A, _ = gaussian_slice_params(cfg)
    values, index = np.unique(d, return_inverse=True)
    phases = np.array([phase_factor(cfg.mass * x * x / (2.0 * cfg.dt), cfg.hbar, cfg.mode)
                       for x in values.tolist()])
    K = phases[index.reshape(d.shape)] * A
    return np.ascontiguousarray(K.real) if cfg.mode == EUCLIDEAN else K


def _lattice_chain_matrix(geom, cfg):
    return _chain_matrix(cfg, geom, "a lattice transfer")


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_lattice_chain_matrix_is_the_entrywise_kernel(mode):
    # below 128 sites (a complex n×n array under 256 KiB) as well as above
    rng = np.random.default_rng(82)
    small = _seeded_configs(83, 120, mode)
    for k, cfg in enumerate(small + _seeded_configs(84, 10, mode)):
        n_sites = int(rng.integers(1, 40)) if k < len(small) else (128, 512)[k // 2 % 2]
        geom = (CircleLattice(n_sites, float(rng.uniform(0.5, 10.0))) if k % 2
                else LineLattice(n_sites, float(rng.uniform(0.05, 2.0))))
        got = _lattice_chain_matrix(geom, cfg)
        want = _entrywise_kernel(cfg, geom.distance_matrix)
        assert got.dtype == want.dtype, cfg
        _drops_only_subnormals(got, want)


@pytest.mark.parametrize("lattice", [LineLattice, CircleLattice])
def test_euclidean_lattice_kernel_is_the_pair_groupoid_transfer_matrix(lattice):
    # the paper's instance: the one-slice kernel is the transfer matrix of the
    # pair groupoid of the sites under the energy q-Lagrangian, in the measure
    # whose fiber weights are the slice normalization and whose object
    # weights, which the chains put at every interior slice, are the spacing
    rng = np.random.default_rng(85 if lattice is LineLattice else 86)
    for cfg in _seeded_configs(87, 28, EUCLIDEAN):
        n_sites, spacing = int(rng.integers(1, 49)), float(rng.uniform(0.05, 2.0))
        geom = (LineLattice(n_sites, spacing) if lattice is LineLattice
                else CircleLattice(n_sites, n_sites * spacing))
        g = sh.pair_groupoid(n_sites)
        A, _ = gaussian_slice_params(cfg)
        measure = sh.GroupoidMeasure(g, np.full(n_sites, geom.spacing),
                                     np.full(g.n_morphisms, A.real))
        want = sh.transfer_matrix(g, sh.energy_lagrangian(g, geom, cfg.dt, cfg.mass),
                                  sh.uniform_state_spec(g, cfg.hbar, EUCLIDEAN), measure)
        assert not want.imag.any()
        _drops_only_subnormals(_lattice_chain_matrix(geom, cfg), want.real)


def _subnormal(x):
    return (x != 0) & (np.abs(x) < 2.0 ** -1022)


def _drops_only_subnormals(got, want):
    """got holds no subnormal, and each of its entries is want's bytes or a
    +0.0 where want's entry is subnormal; the count of those.  A complex
    array is compared part by part."""
    got, want = (np.ascontiguousarray(x).view(np.float64) for x in (got, want))
    assert got.shape == want.shape
    assert not _subnormal(got).any()
    moved = got.view(np.int64) != want.view(np.int64)
    assert _subnormal(want[moved]).all() and not got[moved].view(np.int64).any()
    return int(moved.sum())


def _subnormal_lattices(seed, count):
    """The 512-site circle at N = 256, then seeded euclidean circle and line
    lattices, alternately, whose transfer holds subnormal entries: the mass
    puts the exponent at the farthest offset between 700 and 3000."""
    rng = np.random.default_rng(seed)
    out = [(CircleLattice(512, 2 * math.pi), SliceConfig(256, 1.0, mode=EUCLIDEAN))]
    while len(out) < count:
        n_sites, n_slices = int(rng.integers(16, 300)), int(rng.integers(2, 80))
        spacing, total, hbar = (float(x) for x in rng.uniform(0.02, 2.0, 3))
        geom = (CircleLattice(n_sites, n_sites * spacing) if len(out) % 2
                else LineLattice(n_sites, spacing))
        reach = float(geom.offset_distances().max())
        mass = float(rng.uniform(700.0, 3000.0)) * 2 * hbar * total / n_slices / reach ** 2
        cfg = SliceConfig(n_slices, total, mass, hbar, EUCLIDEAN)
        if _subnormal(_entrywise_kernel(cfg, geom.distance_matrix)).any():
            out.append((geom, cfg))
    return out


def _entrywise_chain(geom, cfg, site0, site1s):
    """The weighted chain over the entrywise kernel, subnormals kept."""
    K = _entrywise_kernel(cfg, geom.distance_matrix)
    if cfg.n_slices == 1:
        return [complex(K[s, site0]) for s in site1s]
    w = np.full(geom.n_sites, geom.spacing)
    v = K[:, site0]
    for _ in range(cfg.n_slices - 2):
        v = K @ (w * v)
    return [complex(np.sum(w * K[s] * v)) for s in site1s]


def test_lattice_chain_drops_only_subnormal_parts_and_keeps_the_amplitudes():
    rng = np.random.default_rng(93)
    for geom, cfg in _subnormal_lattices(92, 14):
        want = _entrywise_kernel(cfg, geom.distance_matrix)
        assert _drops_only_subnormals(_lattice_chain_matrix(geom, cfg), want) > 0, (geom, cfg)
        s0, *s1s = (int(s) for s in rng.integers(0, geom.n_sites, 4))
        want = _entrywise_chain(geom, cfg, s0, s1s)
        if isinstance(geom, CircleLattice):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # the coarse lattices
                got = sh.circle_propagators(cfg, geom.circumference, geom.position(s0),
                                            [geom.position(s) for s in s1s], geom.n_sites)
        else:
            got = [sh.lattice_line_propagator(geom, cfg, s0, s) for s in s1s]
        assert _zbytes(got) == _zbytes(want), (geom, cfg)


def test_real_lattice_chain_is_the_entrywise_kernel():
    rng = np.random.default_rng(94)
    for k, cfg in enumerate(_seeded_configs(95, 30, REAL_PHASE)):
        n_sites = 512 if k < 2 else int(rng.integers(1, 300))
        geom = (CircleLattice(n_sites, float(rng.uniform(0.5, 10.0))) if k % 2
                else LineLattice(n_sites, float(rng.uniform(0.05, 2.0))))
        want = _entrywise_kernel(cfg, geom.distance_matrix)
        assert _lattice_chain_matrix(geom, cfg).tobytes() == want.tobytes(), cfg


@pytest.mark.parametrize("n_sites", [1, 2, 7, 40])
def test_distance_matrix_is_the_pairwise_distance(n_sites):
    for geom in (LineLattice(n_sites, 0.37, origin=-1.0), CircleLattice(n_sites, 5.3)):
        want = [[geom.distance(i, j) for j in range(n_sites)] for i in range(n_sites)]
        d = geom.distance_matrix
        assert d.tobytes() == np.array(want).tobytes() and not d.flags.writeable
        assert d[0].tobytes() == geom.offset_distances().tobytes()


def _node_spacing(cfg):
    """The trapezoid spacing h of the quadrature nodes on [-L, L]."""
    return 2 * cfg.quad_halfwidth / (cfg.quad_nodes - 1)


def _entrywise_quadrature_kernel(cfg):
    """The kernel on the nodes at distance |i - j| h, subnormals kept."""
    k = np.arange(cfg.quad_nodes)
    return _entrywise_kernel(cfg, np.abs(k[:, None] - k[None, :]) * _node_spacing(cfg))


def _entrywise_quadrature(cfg, x0, x1s):
    """The quadrature route with every kernel value a scalar
    (A phase_factor(l)).real: endpoint rows at u - x0 and x1 - u, the
    interior kernel of _entrywise_quadrature_kernel."""
    M, h = cfg.quad_nodes, _node_spacing(cfg)
    u = np.linspace(-cfg.quad_halfwidth, cfg.quad_halfwidth, M)
    wts = np.full(M, h)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    A, _ = gaussian_slice_params(cfg)

    def k1(d):
        return (A * phase_factor(cfg.mass * d * d / (2.0 * cfg.dt), cfg.hbar, EUCLIDEAN)).real

    if cfg.n_slices == 1:
        return [complex(k1(x1 - x0)) for x1 in x1s]
    K = _entrywise_quadrature_kernel(cfg)
    v = np.array([k1(ui - x0) for ui in u.tolist()])
    for _ in range(cfg.n_slices - 2):
        v = K @ (wts * v)
    return [complex(np.sum(wts * np.array([k1(x1 - ui) for ui in u.tolist()]) * v))
            for x1 in x1s]


def _quadrature_configs(rng):
    # a kernel that underflows over most of its entries, then the smallest grids
    cfgs = [SliceConfig(512, 1.0, mode=EUCLIDEAN, quad_halfwidth=10.0, quad_nodes=800)]
    cfgs += [SliceConfig(n, 0.7, 1.3, 0.8, EUCLIDEAN, 1.5, m) for n in (1, 2, 3) for m in (2, 3)]
    for _ in range(24):
        n, m = int(rng.integers(1, 65)), int(rng.integers(2, 300))
        total, mass, hbar = (float(x) for x in rng.uniform(0.05, 3.0, 3))
        cfgs.append(SliceConfig(n, total, mass, hbar, EUCLIDEAN,
                                float(rng.uniform(1.0, 12.0)), m))
    return cfgs


def test_quadrature_kernel_drops_only_subnormals_of_the_entrywise_kernel():
    # the byte cross-check of the route is the entrywise test below, whose
    # kernel keeps every subnormal entry
    dropped = []
    for cfg in _quadrature_configs(np.random.default_rng(91)):
        nodes = LineLattice(cfg.quad_nodes, _node_spacing(cfg))
        K = _chain_matrix(cfg, nodes, "a quadrature kernel")
        assert K.dtype == np.float64
        dropped.append(_drops_only_subnormals(K, _entrywise_quadrature_kernel(cfg)))
    assert dropped[0] > 2000 and sum(d > 0 for d in dropped) >= 10, dropped


def test_quadrature_is_bit_identical_to_the_entrywise_formula():
    rng = np.random.default_rng(91)
    cfgs = _quadrature_configs(rng)
    big = cfgs[0]    # exp underflows to 0.0 at the farthest offset
    assert math.exp(-big.mass * (2 * big.quad_halfwidth) ** 2 / (2 * big.hbar * big.dt)) == 0.0
    for cfg in cfgs:
        x0 = float(rng.uniform(-2.0, 2.0))
        xs = [float(x) for x in rng.uniform(-3.0, 3.0, 4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the truncating domains
            got = sh.sliced_line_propagators(cfg, x0, xs, "quadrature")
        assert _zbytes(got) == _zbytes(_entrywise_quadrature(cfg, x0, xs)), cfg


def test_benchmark_quadrature_line_is_within_1e_13_of_the_closed_form():
    # 800 nodes on [-10, 10] at N = 256: kernel entries at offsets k h carry
    # no rounding of node differences u_i - u_j
    cfg = SliceConfig(256, 1.0, mode=EUCLIDEAN, quad_halfwidth=10.0, quad_nodes=800)
    x0, xs = 0.3, [-2.0 + 0.5 * k for k in range(9)]
    for x1, z in zip(xs, sh.sliced_line_propagators(cfg, x0, xs, "quadrature")):
        ref = sh.line_kernel(cfg.mass, cfg.hbar, cfg.total_time, x1 - x0, EUCLIDEAN)
        assert abs(z - ref) <= 1e-13 * abs(ref), x1


@pytest.mark.parametrize("n_slices, nodes, warns", [
    (512, 120, True),       # h = 0.099 against a width of 0.0095
    (512, 1500, False),     # h = 0.0078
    (1, 120, False),        # one slice runs no quadrature
])
def test_quadrature_warns_of_nodes_coarser_than_the_slice_width(n_slices, nodes, warns):
    cfg = SliceConfig(n_slices, 0.968, 1.54, 0.074, EUCLIDEAN, 5.87, nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        warnings.simplefilter("ignore", RuntimeWarning)     # the overflowing chain
        sh.sliced_line_propagators(cfg, 0.0, [0.5, 1.0], "quadrature")
    coarse = [w.filename for w in caught if "too coarse" in str(w.message)]
    assert coarse == ([__file__] if warns else [])


def test_slice_config_refuses_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        SliceConfig(4, 1.0, mode="Real")
    with pytest.raises(ValueError, match="unknown mode"):
        SliceConfig(4, 1.0, mode="bogus")


@pytest.mark.parametrize("field", ["total_time", "mass", "hbar", "quad_halfwidth"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_slice_config_refuses_non_finite_parameters(field, value):
    kwargs = {"n_slices": 4, "total_time": 1.0, field: value}
    with pytest.raises(ValueError, match="positive"):
        SliceConfig(**kwargs)


@pytest.mark.parametrize("make", [
    lambda: LineLattice(3, math.nan),
    lambda: CircleLattice(3, math.inf),
    lambda: sh.TimeGrid((0.0, math.nan, 2.0)),
    lambda: sh.TimeGrid((0.0, 1.0, math.inf)),
])
def test_geometry_and_grid_refuse_non_finite_values(make):
    with pytest.raises(ValueError):
        make()


def test_image_sum_refuses_real_time():
    with pytest.raises(ValueError, match="does not converge at real time"):
        sh.image_sum_circle_kernel(SliceConfig(8, 1.0, mode=REAL_PHASE), 2 * math.pi, 0.0, 1.0)


# ---------------------------------------------------------------------------
# one operator per request: the endpoint-list routes against single calls


def _zbytes(zs):
    return np.array(zs, dtype=complex).tobytes()


@pytest.mark.parametrize("n_slices", [1, 2, 3, 17])
@pytest.mark.parametrize("mode, method", [(REAL_PHASE, "recursion"),
                                          (EUCLIDEAN, "recursion"),
                                          (EUCLIDEAN, "quadrature")])
def test_sliced_line_propagators_match_single_calls_bit_for_bit(n_slices, mode, method):
    cfg = SliceConfig(n_slices, 0.9, mass=1.3, hbar=0.8, mode=mode,
                      quad_halfwidth=9.0, quad_nodes=150)
    x0, xs = -0.35, [-1.7, 0.4, 1.25, 0.4, 2.0]   # 0.4 twice
    got = sh.sliced_line_propagators(cfg, x0, xs, method)
    want = [sh.sliced_line_propagator(cfg, x0, x, method) for x in xs]
    assert _zbytes(got) == _zbytes(want)


def test_quadrature_domain_warns_per_endpoint_at_the_caller():
    cfg = SliceConfig(4, 1.0, mode=EUCLIDEAN, quad_halfwidth=7.5, quad_nodes=100)
    xs = [0.0, 2.0, 1.0, 2.0]    # only 2.0 reaches past the 6-sigma margin
    with warnings.catch_warnings(record=True) as batch:
        warnings.simplefilter("always")
        sh.sliced_line_propagators(cfg, 0.0, xs, "quadrature")
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        for x in xs:
            sh.sliced_line_propagator(cfg, 0.0, x, "quadrature")
    assert len(batch) == len(single) == 2
    assert {w.filename for w in batch + single} == {__file__}


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
def test_circle_propagators_match_single_calls_bit_for_bit(mode):
    rng = np.random.default_rng(111)
    lc = 2 * math.pi
    for n_slices, n_sites in ((1, 24), (5, 64), (32, 128)):
        cfg = SliceConfig(n_slices, 0.5, mode=mode)
        th0 = float(rng.uniform(-lc, 2 * lc))
        ths = [float(t) for t in rng.uniform(-lc, 2 * lc, 6)]
        ths.append(ths[2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the coarse lattices
            got = sh.circle_propagators(cfg, lc, th0, ths, n_sites)
            want = [sh.circle_propagator(cfg, lc, th0, t, n_sites) for t in ths]
        assert _zbytes(got) == _zbytes(want)


def test_circle_coarse_lattice_warns_once_at_the_caller():
    cfg = SliceConfig(8, 0.5, mode=EUCLIDEAN)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sh.circle_propagators(cfg, 2 * math.pi, 0.0, [0.0, 1.0, 2.0], n_sites=16)
        sh.circle_propagator(cfg, 2 * math.pi, 0.0, 1.0, n_sites=16)
    assert [w.filename for w in caught] == [__file__] * 2


@pytest.mark.parametrize("mode, n_sites, n_slices", [(EUCLIDEAN, 512, 256),
                                                     (REAL_PHASE, 64, 16)])
def test_circle_transfer_power_matches_its_circulant_spectrum(mode, n_sites, n_slices):
    # CircleLattice distances depend only on (i - j) mod n, so the lattice
    # transfer matrix T = spacing K is circulant and column 0 of T^N is
    # ifft(fft(T[:, 0]) ** N): a route to the amplitudes from site 0 that
    # shares no arithmetic with the mat-vec chain of circle_propagators
    geom = CircleLattice(n_sites, 2 * math.pi)
    cfg = SliceConfig(n_slices, 1.0, mode=mode)
    T = _entrywise_kernel(cfg, geom.distance_matrix) * geom.spacing
    col = np.fft.ifft(np.fft.fft(T[:, 0]) ** n_slices)
    thetas = [geom.position(s) for s in range(n_sites)]
    got = np.array(sh.circle_propagators(cfg, 2 * math.pi, 0.0, thetas, n_sites))
    rel_dev = float(np.max(np.abs(got * geom.spacing - col)) / np.max(np.abs(col)))
    assert rel_dev <= 1e-11


@pytest.mark.parametrize("mode", [REAL_PHASE, EUCLIDEAN])
@pytest.mark.parametrize("n_sites, spacing, n_slices", [(17, 0.35, 5), (30, 0.2, 12)])
def test_lattice_line_propagator_matches_the_transfer_power(mode, n_sites, spacing,
                                                            n_slices):
    # a line lattice is not circulant: numpy's matrix_power is the oracle for
    # every entry of T^N
    geom = LineLattice(n_sites, spacing, origin=-1.0)
    cfg = SliceConfig(n_slices, 0.9, mass=1.3, hbar=0.8, mode=mode)
    T = _entrywise_kernel(cfg, geom.distance_matrix) * spacing
    A = np.linalg.matrix_power(T, n_slices) / spacing
    for s0 in range(n_sites):
        for s1 in range(n_sites):
            z = sh.lattice_line_propagator(geom, cfg, s0, s1)
            assert abs(z - A[s1, s0]) <= 1e-12 * abs(A[s1, s0])


@pytest.mark.parametrize("mode, itemsize", [(REAL_PHASE, 16), (EUCLIDEAN, 8)])
def test_chain_matrix_is_real_exactly_in_euclidean_mode_and_sized_so(monkeypatch, mode,
                                                                     itemsize):
    cfg, geom = SliceConfig(2, 1.0, mode=mode), CircleLattice(16, 3.0)
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", itemsize * 16 ** 2)
    assert _chain_matrix(cfg, geom, "a kernel").nbytes == itemsize * 16 ** 2
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", itemsize * 16 ** 2 - 1)
    with pytest.raises(ValueError, match=f"a kernel takes {itemsize * 16 ** 2} bytes"):
        _chain_matrix(cfg, geom, "a kernel")
