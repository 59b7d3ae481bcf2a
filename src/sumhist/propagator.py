"""Sum-over-histories propagators.

Finite groupoids get the literal path sum in the canonical enumeration order
with exactly rounded accumulation, together with its transfer-matrix
resummation and the reproducing-kernel (sum-splitting) residual.  Lattice
geometries get the velocity-space reformulation of the same sum.  The free
particle on the line gets the time-sliced kernel both by an exact complex
Gaussian recursion (any number of slices, both phase conventions) and, in the
euclidean mode, by iterated quadrature on a truncated domain; the circle gets
the lattice path sum against a winding-number image-sum reference.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .action import (ANCHORED, EUCLIDEAN, INCREMENTAL, REAL_PHASE, Lagrangian,
                     StateSpec, action, phase_factor)
from .algebra import GroupoidMeasure, counting_measure
from .geometry import CircleLattice
from .groupoid import FiniteGroupoid
from .histories import FUTURE, History, TimeGrid, from_links, link_walks


def fsum_complex(terms) -> complex:
    """Exactly rounded complex sum: real and imaginary parts via math.fsum."""
    re, im = [], []
    for z in terms:
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


# ---------------------------------------------------------------------------
# finite-groupoid path sums


def transfer_matrix(g: FiniteGroupoid, lag: Lagrangian, spec: StateSpec,
                    measure: GroupoidMeasure | None = None) -> np.ndarray:
    """One-interval kernel T[y, x] = sum over morphisms x -> y of
    fiber_weight * phase(lagrangian); its measure-weighted powers resum the
    full path sum exactly."""
    m = measure if measure is not None else counting_measure(g)
    T = np.zeros((g.n_objects, g.n_objects), dtype=complex)
    phases = np.array([phase_factor(v, spec.hbar, spec.mode) for v in lag.values])
    np.add.at(T, (g.tgt, g.src), m.fiber_weights * phases)
    return T


def transfer_power(T: np.ndarray, n_steps: int,
                   measure: GroupoidMeasure | None = None) -> np.ndarray:
    """Density-stripped n-step amplitude matrix T (D T)^(n-1), D the diagonal
    of object weights inserted at every interior slice."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    DT = measure.object_weights[:, None] * T if measure is not None else T
    return T @ np.linalg.matrix_power(DT, n_steps - 1)


def path_sum_terms(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                   spec: StateSpec, x0: int, x1: int,
                   measure: GroupoidMeasure | None = None):
    """Per-history pairs (mids, weight(w) * phase(action(w))) in canonical
    order, mids being the interior slice objects of the history w.

    weight(w) is the cylindrical factor: the fiber weight of every link times
    the object weight of every interior slice object."""
    m = measure if measure is not None else counting_measure(g)
    vals = lag.values
    fw = m.fiber_weights
    ow = m.object_weights
    incremental = spec.convention == INCREMENTAL
    for links, mids in link_walks(g, x0, x1, grid.n_intervals):
        if incremental:
            s = math.fsum(vals[l] for l in links)
        else:
            s = action(from_links(g, grid, links), lag, ANCHORED)
        w = 1.0
        for l in links:
            w *= fw[l]
        for c in mids:
            w *= ow[c]
        yield mids, w * phase_factor(s, spec.hbar, spec.mode)


def finite_propagator(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                      spec: StateSpec, x0: int, x1: int,
                      measure: GroupoidMeasure | None = None,
                      partitions: int = 1) -> complex:
    """Path-sum amplitude sqrt(p(x1, t_N) p(x0, t_0)) times the sum over all
    histories from (x0, t_0) to (x1, t_N) of weight(w) * phase(action(w)).

    The canonical result sums every term in enumeration order with exactly
    rounded accumulation.  With partitions > 1 the sum is split by the first
    interior object, each partition is summed with exactly rounded
    accumulation, and the rounded partials are summed in object order; the
    result may differ from the canonical one in the last bit."""
    p = spec.slices(grid)
    amp = math.sqrt(p[grid.n_intervals, x1] * p[0, x0])
    terms = path_sum_terms(g, grid, lag, spec, x0, x1, measure)
    if partitions <= 1 or grid.n_intervals < 2:
        return amp * fsum_complex(t for _, t in terms)
    groups: dict[int, list[complex]] = {c: [] for c in range(g.n_objects)}
    for mids, t in terms:
        groups[mids[0]].append(t)
    return amp * fsum_complex([fsum_complex(groups[c]) for c in range(g.n_objects)])


@dataclass(frozen=True)
class PropagatorTable:
    """Amplitudes indexed by endpoint pair over a fixed grid span."""

    grid: TimeGrid
    amplitudes: dict  # (x0, x1) -> complex

    def rows(self):
        t0, t1 = self.grid.times[0], self.grid.times[-1]
        for (x0, x1), z in sorted(self.amplitudes.items()):
            yield (x0, t0, x1, t1, z)


def propagator_table(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                     spec: StateSpec, measure: GroupoidMeasure | None = None,
                     partitions: int = 1) -> PropagatorTable:
    amps = {}
    for x0 in range(g.n_objects):
        for x1 in range(g.n_objects):
            amps[(x0, x1)] = finite_propagator(g, grid, lag, spec, x0, x1,
                                               measure, partitions)
    return PropagatorTable(grid, amps)


def transfer_oracle_table(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                          spec: StateSpec,
                          measure: GroupoidMeasure | None = None) -> PropagatorTable:
    """The same table resummed through transfer-matrix powers."""
    p = spec.slices(grid)
    T = transfer_matrix(g, lag, spec, measure)
    A = transfer_power(T, grid.n_intervals, measure)
    amps = {}
    for x0 in range(g.n_objects):
        for x1 in range(g.n_objects):
            amps[(x0, x1)] = math.sqrt(p[grid.n_intervals, x1] * p[0, x0]) * A[x1, x0]
    return PropagatorTable(grid, amps)


def reproducing_residual(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                         spec: StateSpec, j: int,
                         measure: GroupoidMeasure | None = None) -> float:
    """Max over endpoint pairs of the sum-splitting defect at interior slice j:
    the full amplitude against the object-measure-weighted product of the two
    sub-amplitudes, with the doubled density factor at the junction divided
    out."""
    n = grid.n_intervals
    if not (0 < j < n):
        raise ValueError(f"splitting slice {j} must be interior to 0..{n}")
    m = measure if measure is not None else counting_measure(g)
    p = spec.slices(grid)
    if np.any(p[j] <= 0):
        raise ValueError("splitting requires a strictly positive density at the junction")
    g1, g2 = grid.sub(0, j), grid.sub(j, n)
    s1, s2 = spec.sub(grid, 0, j), spec.sub(grid, j, n)
    full = {(a, b): finite_propagator(g, grid, lag, spec, a, b, measure)
            for a in range(g.n_objects) for b in range(g.n_objects)}
    first = {(a, c): finite_propagator(g, g1, lag, s1, a, c, measure)
             for a in range(g.n_objects) for c in range(g.n_objects)}
    second = {(c, b): finite_propagator(g, g2, lag, s2, c, b, measure)
              for c in range(g.n_objects) for b in range(g.n_objects)}
    worst = 0.0
    for a in range(g.n_objects):
        for b in range(g.n_objects):
            split = fsum_complex(
                m.object_weights[c] * second[(c, b)] * first[(a, c)] / p[j, c]
                for c in range(g.n_objects))
            worst = max(worst, abs(full[(a, b)] - split))
    return worst


# ---------------------------------------------------------------------------
# velocity-space form on lattices


@dataclass(frozen=True)
class VelocityPath:
    """Base sites and per-interval velocities; the endpoint of each interval is
    the exponential step of (site, velocity), exactly, in integer sites."""

    geometry: object
    grid: TimeGrid
    sites: tuple[int, ...]        # base point of each interval, k = 0..N-1
    velocities: tuple[float, ...]

    @property
    def end_site(self) -> int:
        geom, k = self.geometry, len(self.sites) - 1
        steps = round(self.velocities[k] * self.grid.dt(k) / geom.spacing)
        return geom.step(self.sites[k], steps)


def history_to_velocity_path(w: History, geometry) -> VelocityPath:
    """Finite-difference velocities of the objects visited by a future lattice
    history: displacement over each interval divided by its duration."""
    if w.orientation != FUTURE:
        raise ValueError("velocity paths are defined for future-oriented histories")
    if w.groupoid.n_objects != geometry.n_sites:
        raise ValueError("geometry does not match the configuration groupoid")
    objs = [w.object_at(k) for k in range(len(w.accumulated))]
    sites = tuple(objs[:-1])
    vel = tuple(geometry.displacement_steps(objs[k], objs[k + 1]) * geometry.spacing
                / w.grid.dt(k) for k in range(len(objs) - 1))
    return VelocityPath(geometry, w.grid, sites, vel)


def velocity_path_to_history(vp: VelocityPath, g: FiniteGroupoid) -> History:
    """Exact inverse of history_to_velocity_path on the matching pair groupoid."""
    geom = vp.geometry
    if g.n_objects != geom.n_sites:
        raise ValueError("geometry does not match the configuration groupoid")
    objs = [vp.sites[0]]
    for k, v in enumerate(vp.velocities):
        steps = round(v * vp.grid.dt(k) / geom.spacing)
        objs.append(geom.step(objs[k], steps))
    links = []
    for a, b in zip(objs, objs[1:]):
        hom = g.hom_set(a, b)
        if len(hom) != 1:
            raise ValueError("velocity paths need a pair groupoid (unique transitions)")
        links.append(hom[0])
    return from_links(g, vp.grid, links, x0=objs[0])


def kinetic_lagrangian_value(mass: float, velocity: float, dt: float) -> float:
    """Per-interval action of the velocity form: mass * v^2 * dt / 2."""
    return 0.5 * mass * velocity * velocity * dt


def velocity_form_propagator(geometry, grid: TimeGrid, spec: StateSpec,
                             mass: float, x0: int, x1: int) -> complex:
    """The lattice path sum re-expressed over velocity paths with per-interval
    action mass*v^2*dt/2; the change of summation variables is a bijection with
    unit Jacobian, so this equals the position-form sum exactly."""
    if not grid.is_uniform:
        raise ValueError("the velocity form needs a uniform grid")
    n = grid.n_intervals
    dt = grid.dt(0)
    p = spec.slices(grid)
    amp = math.sqrt(p[n, x1] * p[0, x0])
    h = geometry.spacing
    terms = []
    for mids in itertools.product(range(geometry.n_sites), repeat=n - 1):
        s = 0.0
        site = x0
        for nxt in (*mids, x1):
            v = geometry.displacement_steps(site, nxt) * h / dt
            s += kinetic_lagrangian_value(mass, v, dt)
            site = nxt
        terms.append(phase_factor(s, spec.hbar, spec.mode))
    return amp * fsum_complex(terms)


# ---------------------------------------------------------------------------
# continuum line kernels


@dataclass(frozen=True)
class SliceConfig:
    n_slices: int
    total_time: float
    mass: float = 1.0
    hbar: float = 1.0
    mode: str = REAL_PHASE
    quad_halfwidth: float = 8.0
    quad_nodes: int = 400

    def __post_init__(self):
        if self.n_slices < 1 or self.total_time <= 0:
            raise ValueError("need n_slices >= 1 and positive total_time")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.quad_nodes < 2:
            raise ValueError("need at least two quadrature nodes")

    @property
    def dt(self) -> float:
        return self.total_time / self.n_slices


def line_kernel(mass: float, hbar: float, t: float, dx: float,
                mode: str = REAL_PHASE) -> complex:
    """Closed-form free kernel on the line.

    real:      sqrt(m / (2 pi i hbar t)) * exp(i m dx^2 / (2 hbar t))
    euclidean: sqrt(m / (2 pi hbar t))   * exp(-  m dx^2 / (2 hbar t))
    """
    if mode == REAL_PHASE:
        return (cmath.sqrt(mass / (2j * math.pi * hbar * t))
                * cmath.exp(1j * mass * dx * dx / (2 * hbar * t)))
    if mode == EUCLIDEAN:
        return complex(math.sqrt(mass / (2 * math.pi * hbar * t))
                       * math.exp(-mass * dx * dx / (2 * hbar * t)))
    raise ValueError(f"unknown mode {mode!r}")


def gaussian_slice_params(cfg: SliceConfig) -> tuple[complex, complex]:
    """One-slice kernel written as A * exp(B (x - y)^2)."""
    sigma = 1j if cfg.mode == REAL_PHASE else -1.0
    B = sigma * cfg.mass / (2 * cfg.hbar * cfg.dt)
    A = cmath.sqrt(cfg.mass / (2 * math.pi * cfg.hbar * cfg.dt * (1j if cfg.mode == REAL_PHASE else 1.0)))
    return A, B


def gaussian_recursion(cfg: SliceConfig) -> tuple[complex, complex]:
    """Compose the one-slice Gaussian kernel with itself n_slices times by the
    exact quadratic-completion rule

        (A1, B1) ∘ (A2, B2) = (A1 A2 sqrt(-pi / (B1 + B2)),  B1 B2 / (B1 + B2)),

    using principal square roots throughout (the Fresnel branch for unimodular
    phases)."""
    A1, B1 = gaussian_slice_params(cfg)
    A, B = A1, B1
    for _ in range(cfg.n_slices - 1):
        A = A * A1 * cmath.sqrt(-math.pi / (B + B1))
        B = B * B1 / (B + B1)
    return A, B


def sliced_line_propagator(cfg: SliceConfig, x0: float, x1: float,
                           method: str = "recursion") -> complex:
    """Time-sliced free propagator on the line.

    'recursion' evaluates the iterated Gaussian integrals exactly (valid for
    both phase conventions).  'quadrature' (euclidean only) iterates trapezoid
    quadrature on [-L, L] as an independent numerical route."""
    if method == "recursion":
        A, B = gaussian_recursion(cfg)
        return A * cmath.exp(B * (x1 - x0) ** 2)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if cfg.mode != EUCLIDEAN:
        raise ValueError("quadrature evaluation is supported in euclidean mode only")
    L, M = cfg.quad_halfwidth, cfg.quad_nodes
    sigma_total = math.sqrt(cfg.hbar * cfg.total_time / cfg.mass)
    if L < max(abs(x0), abs(x1)) + 6 * sigma_total:
        warnings.warn("quadrature domain may truncate significant mass; "
                      "increase quad_halfwidth", stacklevel=2)
    u = np.linspace(-L, L, M)
    wts = np.full(M, u[1] - u[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5

    def k1(a, b):
        return line_kernel(cfg.mass, cfg.hbar, cfg.dt, a - b, EUCLIDEAN).real

    if cfg.n_slices == 1:
        return complex(k1(x1, x0))
    K = np.exp(-cfg.mass * (u[:, None] - u[None, :]) ** 2 / (2 * cfg.hbar * cfg.dt))
    K *= math.sqrt(cfg.mass / (2 * math.pi * cfg.hbar * cfg.dt))
    v = np.array([k1(ui, x0) for ui in u])
    for _ in range(cfg.n_slices - 2):
        v = K @ (wts * v)
    last = np.array([k1(x1, ui) for ui in u])
    return complex(np.sum(wts * last * v))


# ---------------------------------------------------------------------------
# circle: lattice path sum and winding-number image sum


def lattice_transfer(geometry, cfg: SliceConfig) -> np.ndarray:
    """One-slice lattice kernel with the continuum normalization and the
    Riemann measure factor: N(dt) * spacing * phase(m d^2 / (2 dt))."""
    sigma = 1j if cfg.mode == REAL_PHASE else -1.0
    norm = cmath.sqrt(cfg.mass / (2 * math.pi * cfg.hbar * cfg.dt
                                  * (1j if cfg.mode == REAL_PHASE else 1.0)))
    d = geometry.distance_matrix
    expo = sigma * cfg.mass * d * d / (2 * cfg.hbar * cfg.dt)
    return norm * geometry.spacing * np.exp(expo)


def lattice_line_propagator(geometry, cfg: SliceConfig, site0: int, site1: int) -> complex:
    """Time-sliced path sum on a lattice geometry via transfer-matrix powers;
    endpoints carry no measure factor (kernel density convention)."""
    T = lattice_transfer(geometry, cfg)
    A = np.linalg.matrix_power(T, cfg.n_slices)
    return complex(A[site1, site0] / geometry.spacing)


def circle_propagator(cfg: SliceConfig, circumference: float, theta0: float,
                      theta1: float, n_sites: int = 256) -> complex:
    """Lattice path sum on a discretized circle with the arc-distance energy
    Lagrangian, evaluated at the sites nearest the requested angles."""
    geom = CircleLattice(n_sites, circumference)
    sigma_slice = math.sqrt(cfg.hbar * cfg.dt / cfg.mass)
    if sigma_slice < 2 * geom.spacing:
        warnings.warn("lattice too coarse for the requested slicing: one-slice "
                      "kernel width is under two lattice spacings", stacklevel=2)
    s0, s1 = geom.nearest_site(theta0), geom.nearest_site(theta1)
    return lattice_line_propagator(geom, cfg, s0, s1)


def image_sum_circle_kernel(cfg: SliceConfig, circumference: float, theta0: float,
                            theta1: float, winding_max: int = 10) -> complex:
    """Reference circle kernel as the sum of line kernels over winding images:
    sum over |n| <= winding_max of K_line(dtheta + n * circumference, T)."""
    d = (theta1 - theta0) % circumference
    terms = [line_kernel(cfg.mass, cfg.hbar, cfg.total_time, d + n * circumference, cfg.mode)
             for n in range(-winding_max, winding_max + 1)]
    total = fsum_complex(terms)
    tail = abs(terms[0]) + abs(terms[-1])
    if abs(total) > 0 and tail > 1e-13 * abs(total):
        warnings.warn("image sum may be truncated: increase winding_max", stacklevel=2)
    return total


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceRow:
    n_slices: int
    dt: float
    value: complex
    reference: complex

    @property
    def rel_error(self) -> float:
        scale = abs(self.reference)
        return abs(self.value - self.reference) / scale if scale else abs(self.value)


def line_convergence(cfg: SliceConfig, x0: float, x1: float, sweep) -> list[ConvergenceRow]:
    """Sliced line propagator against the closed-form kernel over a slice-count
    sweep (quadrature route in euclidean mode, recursion otherwise)."""
    ref = line_kernel(cfg.mass, cfg.hbar, cfg.total_time, x1 - x0, cfg.mode)
    rows = []
    for n in sweep:
        c = SliceConfig(n, cfg.total_time, cfg.mass, cfg.hbar, cfg.mode,
                        cfg.quad_halfwidth, cfg.quad_nodes)
        method = "quadrature" if cfg.mode == EUCLIDEAN else "recursion"
        rows.append(ConvergenceRow(n, c.dt, sliced_line_propagator(c, x0, x1, method), ref))
    return rows


def circle_convergence(cfg: SliceConfig, circumference: float, theta0: float,
                       theta1: float, sweep, n_sites: int = 256,
                       winding_max: int = 10) -> list[ConvergenceRow]:
    """Circle lattice path sum against the image-sum reference over a sweep."""
    rows = []
    for n in sweep:
        c = SliceConfig(n, cfg.total_time, cfg.mass, cfg.hbar, cfg.mode,
                        cfg.quad_halfwidth, cfg.quad_nodes)
        ref = image_sum_circle_kernel(c, circumference, theta0, theta1, winding_max)
        rows.append(ConvergenceRow(n, c.dt, circle_propagator(c, circumference,
                                                              theta0, theta1, n_sites), ref))
    return rows


def errors_decrease(rows, burn_in: int = 8, floor: float = 1e-9) -> bool:
    """Monotonicity gate for a convergence sweep: beyond the burn-in slice
    count, every error must not exceed its predecessor, except that anything at
    or below the floor counts as converged (exactly sliced problems sit at the
    roundoff floor for every resolution)."""
    errs = [(r.n_slices, r.rel_error) for r in rows]
    prev = None
    for n, e in errs:
        if n <= burn_in:
            continue
        if prev is not None and e > max(prev, floor):
            return False
        prev = e
    return True
