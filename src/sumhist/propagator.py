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
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .action import (EUCLIDEAN, REAL_PHASE, HistoryState, Lagrangian, StateSpec,
                     history_actions, phase_factors, phase_sigma)
from .algebra import GroupoidMeasure, counting_measure
from .geometry import CircleLattice, LineLattice, gather_by_offset
from .groupoid import FiniteGroupoid, check_table_size
from .histories import (BLOCK, FUTURE, History, TimeGrid, _slice_chain, from_links,
                        interior_blocks, link_walks)


def fsum_complex(terms) -> complex:
    """Exactly rounded complex sum, bit for bit math.fsum of the real parts
    and of the imaginary parts: exact_sum over one block."""
    z = terms if isinstance(terms, np.ndarray) else np.array(list(terms), dtype=complex)
    return exact_sum(lambda: (z,))


# Terms from which exact_sum leaves math.fsum for its bins: the bins cost
# about 55 us per sum plus 30 us per 1024 terms, against 80-100 us per 1024
# terms for math.fsum, and break even between 700 and 900 terms (measured on
# a 2-core Xeon with numpy 2.4).
EXACT_SUM_BINS = 768
_BINADES = 2098             # frexp exponents -1073..1024 of the finite doubles
_PART_BIN = np.tile(np.array([1073, 1073 + _BINADES], dtype=np.intp), BLOCK)
_FOLD = 1 << 26             # values a float bin takes, exactly, between folds
_GUARD = 2.0 ** 1020        # below this sum of |t| no math.fsum partial overflows


def _fsum_blocks(blocks) -> complex:
    """math.fsum of the real parts and of the imaginary parts of every term."""
    re, im = [], []
    for z in blocks:
        re += z.real.tolist()
        im += z.imag.tolist()
    return complex(math.fsum(re), math.fsum(im))


class _ExactSum:
    """Integer sums per binade (Neal, "Fast exact summation using small and
    large superaccumulators", 2015) of the real and imaginary parts.

    frexp writes a part x as m 2^e, so q = m 2^53 is an integer below 2^53,
    split exactly as hi 2^26 + lo.  Two bincounts add hi and lo / 2^26 into
    float bins, one per part and e; a bin stays exact while fewer than 2^26
    values have gone in, and then the bins fold into Python ints."""

    def __init__(self):
        self.magnitude = 0.0    # a bound on the sum of |t| over both parts
        self.bins = np.zeros((2, 2 * _BINADES))     # hi, lo / 2^26
        self.n_binned = 0       # values in the bins since the last fold
        self.totals = [0, 0]    # folded integer sums, in units of 2^-1126

    def add(self, terms) -> bool:
        """Take one block; False if it is not finite or a bound on the sum
        of |t| (each block's length times its largest |t|) reaches the
        guard, after which the sum belongs to math.fsum."""
        x = np.ascontiguousarray(terms, dtype=complex).view(np.float64)
        self.magnitude += len(x) * float(np.abs(x).max(initial=0.0))   # NaN if x holds one
        if not self.magnitude < _GUARD:
            return False
        for start in range(0, len(x), 2 * BLOCK):
            self._bin(x[start:start + 2 * BLOCK])
        return True

    def _bin(self, x: np.ndarray) -> None:
        if self.n_binned + len(x) >= _FOLD:
            self._fold()
        self.n_binned += len(x)
        m, e = np.frexp(x)
        e = e.astype(np.intp)
        e += _PART_BIN[:len(x)]
        m *= 2.0 ** 27
        hi = np.trunc(m)
        m -= hi
        self.bins[0] += np.bincount(e, hi, 2 * _BINADES)
        self.bins[1] += np.bincount(e, m, 2 * _BINADES)

    def _fold(self) -> None:
        """Move the float bins into the integer totals, in units of 2^-1126:
        hi at bin k counts 2^(k + 26), and lo / 2^26 at bin k counts 2^k."""
        for part in (0, 1):
            bins = self.bins[:, part * _BINADES:(part + 1) * _BINADES]
            k = np.flatnonzero(bins.any(axis=0))
            hi, lo = bins[:, k].tolist()
            k = k.tolist()
            self.totals[part] += (sum(map(operator.lshift, map(int, hi), [b + 26 for b in k]))
                                  + sum(map(operator.lshift, [int(v * 2.0 ** 26) for v in lo], k)))
        self.bins[:] = 0.0
        self.n_binned = 0

    def value(self) -> complex:
        self._fold()
        # int true division rounds correctly, half to even, subnormals too
        return complex(self.totals[0] / (1 << 1126), self.totals[1] / (1 << 1126))


def exact_sum(blocks) -> complex:
    """The sum of every term of the complex arrays that blocks() yields, bit
    for bit math.fsum of the real parts and of the imaginary parts, in
    memory of one block.

    A stream of fewer than EXACT_SUM_BINS terms goes to math.fsum itself.  A
    block with a non-finite value, or one that takes a bound on the sum of
    |t| (each block's length times its largest |t|) to 2^1020, sends the sum
    to math.fsum over a second pass of blocks(), so it raises or returns
    exactly as math.fsum does."""
    stream = iter(blocks())
    held, n_held = [], 0
    for terms in stream:
        held.append(terms)
        n_held += len(terms)
        if n_held >= EXACT_SUM_BINS:
            break
    else:
        return _fsum_blocks(held)
    acc = _ExactSum()
    for terms in itertools.chain(held, stream):
        if not acc.add(terms):
            return _fsum_blocks(blocks())
    return acc.value()


# ---------------------------------------------------------------------------
# finite-groupoid path sums


def transfer_matrix(g: FiniteGroupoid, lag: Lagrangian, spec: StateSpec,
                    measure: GroupoidMeasure | None = None) -> np.ndarray:
    """One-interval kernel T[y, x] = sum over morphisms x -> y of
    fiber_weight * phase(lagrangian); its measure-weighted powers resum the
    full path sum exactly."""
    m = measure if measure is not None else counting_measure(g)
    T = np.zeros((g.n_objects, g.n_objects), dtype=complex)
    phases = phase_factors(lag.values, spec.hbar, spec.mode)
    np.add.at(T, (g.tgt, g.src), m.fiber_weights * phases)
    return T


def transfer_power(T: np.ndarray, n_steps: int,
                   measure: GroupoidMeasure | None = None) -> np.ndarray:
    """Density-stripped n-step amplitude matrix T (D (T (D ...))) = T (D T)^(n-1),
    D the object weights at every interior slice: the slice chain from T."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    weights = measure.object_weights[:, None] if measure is not None else 1.0
    return _slice_chain(T, weights, T, n_steps - 1)


def path_sum_terms(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                   spec: StateSpec, x0: int, x1: int,
                   measure: GroupoidMeasure | None = None):
    """Blocks of at most BLOCK terms in canonical history order: the term of
    a history w is weight(w) * phase(action(w)).  The link tuples of
    link_walks are read BLOCK at a time into one (rows, n) array.

    weight(w) is the cylindrical factor: the fiber weight of every link times
    the object weight of every interior slice object, multiplied in that
    order.  Actions are exactly rounded row sums and phases come from
    phase_factors, so every term is bit-identical to its per-history value."""
    m = measure if measure is not None else counting_measure(g)
    n = grid.n_intervals
    fw, ow = m.fiber_weights, m.object_weights
    walks = link_walks(g, x0, x1, n)
    rows = BLOCK
    while rows == BLOCK:        # a short block ends the stream
        links = np.fromiter(itertools.chain.from_iterable(itertools.islice(walks, BLOCK)),
                            dtype=np.intp).reshape(-1, n)
        rows = len(links)
        if not rows:
            return
        w = fw[links[:, 0]]
        for k in range(1, n):
            w *= fw[links[:, k]]
        for k in range(n - 1):
            w *= ow[g.tgt[links[:, k]]]
        s = history_actions(g, grid, lag, spec.convention, links)
        yield w * phase_factors(s, spec.hbar, spec.mode)


def finite_propagator(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                      spec: StateSpec, x0: int, x1: int,
                      measure: GroupoidMeasure | None = None) -> complex:
    """Path-sum amplitude sqrt(p(x1, t_N) p(x0, t_0)) times the sum over all
    histories from (x0, t_0) to (x1, t_N) of weight(w) * phase(action(w)).

    The sum is correctly rounded, bit for bit math.fsum of every term: each
    block of path_sum_terms goes into exact_sum as it arrives, so memory
    stays that of one block.  Only a pair whose terms are not finite, or
    whose sum of |t| may reach 2^1020, is enumerated a second time, for
    math.fsum over the full term list."""
    p = spec.density
    if len(p) > 1:              # a table for every slice: refuse another slice count
        p = spec.slices(grid)
    amp = math.sqrt(p[-1, x1] * p[0, x0])
    return amp * exact_sum(lambda: path_sum_terms(g, grid, lag, spec, x0, x1, measure))


@dataclass(frozen=True)
class PropagatorTable:
    """The amplitude from each start label to each end label over one time
    span: object ids for a finite groupoid, positions for a continuum kernel."""

    grid: TimeGrid
    x0s: np.ndarray
    x1s: np.ndarray
    amplitudes: np.ndarray  # complex; [i, j] from x0s[i] to x1s[j]


def propagator_table(state: HistoryState) -> PropagatorTable:
    """The amplitude of every endpoint pair of the state's model, one
    finite_propagator each."""
    g, grid = state.groupoid, state.grid
    objects = np.arange(g.n_objects)
    amps = np.empty((g.n_objects, g.n_objects), dtype=complex)
    for x0, x1 in itertools.product(range(g.n_objects), repeat=2):
        amps[x0, x1] = finite_propagator(g, grid, state.lagrangian, state.spec, x0, x1,
                                         state.measure)
    return PropagatorTable(grid, objects, objects, amps)


def _reference(state: HistoryState, check: str) -> np.ndarray:
    """The density-stripped transfer-matrix reference A[x0, x1] of the
    state's table.  Every euclidean term is positive, so a pair with at least
    one history has a positive reference; one that is 0 or below NORMAL_MIN
    has underflowed, as has the literal sum, and a euclidean state with such
    a pair raises ValueError: check (named in the message) sees 0 against 0."""
    g, spec, m = state.groupoid, state.spec, state.measure
    n = state.grid.n_intervals
    A = transfer_power(transfer_matrix(g, state.lagrangian, spec, m), n, m).T
    if spec.mode == EUCLIDEAN:
        # the pairs with histories, a boolean slice chain: T's own entries underflow
        hop = g.hom_arrays[0].reshape(g.n_objects, g.n_objects) > 0
        reach = _slice_chain(hop, True, hop, n - 1)
        lost = np.argwhere(reach & (A.real < NORMAL_MIN))
        if len(lost):
            x0, x1 = lost[0]
            raise ValueError(f"the transfer-matrix reference underflows below the smallest "
                             f"normal double at {len(lost)} endpoint pairs with histories, "
                             f"first (x0, x1) = ({x0}, {x1}); {check} cannot check them")
    return A


def transfer_oracle_table(state: HistoryState) -> PropagatorTable:
    """The same table resummed through transfer-matrix powers; an underflowed
    euclidean reference raises ValueError (_reference)."""
    A = _reference(state, "the oracle")
    p, n = state.density_table, state.grid.n_intervals
    objects = np.arange(state.groupoid.n_objects)
    return PropagatorTable(state.grid, objects, objects, np.sqrt(np.outer(p[0], p[n])) * A)


def reproducing_residual(state: HistoryState, j: int) -> tuple[float, PropagatorTable]:
    """Max over endpoint pairs of the sum-splitting defect at interior slice j:
    the full amplitude against the object-measure-weighted product of the
    amplitudes of the two halves of the state, with the doubled density
    factor at the junction divided out; NaN if any defect is NaN.  Returned
    with the state's propagator_table, the full amplitudes it checked.

    Every refusal comes before any path sum: a j that is not interior, a
    junction density that is not positive and, as in the oracle, an
    underflowed euclidean table raise ValueError."""
    g, grid, spec = state.groupoid, state.grid, state.spec
    n = grid.n_intervals
    if not (0 < j < n):
        raise ValueError(f"splitting slice {j} must be interior to 0..{n}")
    p = state.density_table
    if np.any(p[j] <= 0):
        raise ValueError("splitting requires a strictly positive density at the junction")
    _reference(state, "the reproducing check")
    table = propagator_table(state)
    # Python scalars, so that every term is the product of the scalar route
    full = table.amplitudes.tolist()
    halves = [replace(state, grid=grid.sub(i, k), spec=spec.sub(grid, i, k))
              for i, k in ((0, j), (j, n))]
    first, second = (propagator_table(half).amplitudes.tolist() for half in halves)
    ow = state.measure.object_weights
    defects = []
    for a, b in itertools.product(range(g.n_objects), repeat=2):
        split = fsum_complex(ow[c] * second[c][b] * first[a][c] / p[j, c]
                             for c in range(g.n_objects))
        defects.append(_modulus(full[a][b] - split))
    return _worst(defects), table


def relative_deviations(values, refs) -> tuple[np.ndarray, float]:
    """|z - ref| / max(|ref|, 1e-300) of each value against its reference, in
    the shape of values, and the worst of them.  The modulus is _modulus:
    numpy's array abs rounds some moduli otherwise."""
    devs = [_modulus(z - r) / max(_modulus(r), 1e-300)
            for z, r in zip(np.ravel(values).tolist(), np.ravel(refs).tolist())]
    return np.reshape(devs, np.shape(values)), _worst(devs)


def _modulus(z: complex) -> float:
    """Python's complex abs, NaN for a NaN z: CPython's abs of a NaN complex
    raises OverflowError whenever a stale errno reads ERANGE."""
    return abs(z) if z == z else math.nan


def _worst(values: list[float]) -> float:
    """The largest of values, 0.0 if there are none, NaN if any is NaN (max
    would drop a NaN, as NaN compares False).  Every gate reads a worst value
    and passes only when worst <= bound, so a NaN fails it."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


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
    unit Jacobian, so in exact arithmetic this equals the position-form sum.
    In floats it does not: each kinetic value rounds apart from the energy
    Lagrangian's, and each action is a left-to-right sum, not a correctly
    rounded one.  It agrees with finite_propagator within a rounding bound
    c u sum|t| (N + N max|l| / hbar), u the unit roundoff, which the
    route-agreement test of tests/test_propagator.py checks at c = 16.

    Site sequences are taken in blocks.  The kinetic value of every (site,
    next site) step is computed once per call into an n_sites x n_sites
    table, by the same elementwise expression as for one step.  A block's
    (n + 1, rows) site chain reads every interval's value in one flat
    gather, and they are added left to right from 0.0, as along a single
    path.  The phases are summed as finite_propagator sums its terms, one
    block at a time into exact_sum."""
    if not grid.is_uniform:
        raise ValueError("the velocity form needs a uniform grid")
    n = grid.n_intervals
    dt = grid.dt(0)
    p = spec.slices(grid)
    amp = math.sqrt(p[n, x1] * p[0, x0])
    h = geometry.spacing
    n_sites = geometry.n_sites
    sites = range(n_sites)
    steps = np.array([[geometry.displacement_steps(i, j) for j in sites] for i in sites])
    kinetic = kinetic_lagrangian_value(mass, steps * h / dt, dt).ravel()

    def phases():
        for mids in interior_blocks(n_sites, n - 1):
            chain = np.empty((n + 1, len(mids)), dtype=np.intp)
            chain[0], chain[1:n], chain[n] = x0, mids.T, x1
            s = np.zeros(len(mids))
            for values in kinetic[chain[:-1] * n_sites + chain[1:]]:
                s += values
            yield phase_factors(s, spec.hbar, spec.mode)

    return amp * exact_sum(phases)


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
        # 0 < x < inf also refuses NaN
        if self.n_slices < 1 or not 0 < self.total_time < math.inf:
            raise ValueError("need n_slices >= 1 and positive total_time")
        if not (0 < self.mass < math.inf and 0 < self.hbar < math.inf):
            raise ValueError("mass and hbar must be positive")
        if not 0 < self.quad_halfwidth < math.inf:
            raise ValueError("quad_halfwidth must be positive")
        if self.quad_nodes < 2:
            raise ValueError("need at least two quadrature nodes")
        if not math.isfinite(self.node_spacing):
            raise ValueError(f"quad_halfwidth {self.quad_halfwidth!r} makes the quadrature's "
                             "node spacing 2 * quad_halfwidth / (quad_nodes - 1) overflow")
        phase_sigma(self.mode)

    @property
    def dt(self) -> float:
        return self.total_time / self.n_slices

    @property
    def node_spacing(self) -> float:
        """The step of the quadrature's nodes, np.linspace's step on [-L, L]."""
        return 2 * self.quad_halfwidth / (self.quad_nodes - 1)


# The smallest normal double.  The matrices of the mat-vec chains
# (_chain_matrix) hold no nonzero part below it: on x86 every product with a
# subnormal operand takes a microcode assist, in every mat-vec of a chain.
# Zeroing the 5120 subnormal entries of a 512-site euclidean circle transfer
# cut its 255 mat-vecs from about 40 to 24 ms (2-core Xeon, numpy 2.4 with
# OpenBLAS).  A dropped part weighs below 2^-1022 against entries of order
# one: the amplitudes kept their bytes in every configuration checked, which
# is a measurement, not a proof.  A euclidean transfer-oracle reference below
# it has underflowed (transfer_oracle_table).
NORMAL_MIN = 2.0 ** -1022


def line_kernel(mass: float, hbar: float, t: float, dx: float,
                mode: str = REAL_PHASE) -> complex:
    """Closed-form free kernel on the line, sqrt(-sigma m / (2 pi hbar t)) *
    exp(sigma m dx^2 / (2 hbar t)) with sigma = i (real) or -1 (euclidean)."""
    sigma = phase_sigma(mode)
    return (cmath.sqrt(-sigma * mass / (2 * math.pi * hbar * t))
            * cmath.exp(sigma * mass * dx * dx / (2 * hbar * t)))


def gaussian_slice_params(cfg: SliceConfig) -> tuple[complex, complex]:
    """One-slice kernel written as A * exp(B (x - y)^2)."""
    sigma = phase_sigma(cfg.mode)
    A = cmath.sqrt(-sigma * cfg.mass / (2 * math.pi * cfg.hbar * cfg.dt))
    B = sigma * cfg.mass / (2 * cfg.hbar * cfg.dt)
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


def _slice_row(cfg: SliceConfig, d: np.ndarray) -> np.ndarray:
    """The one-slice kernel phase(l) A at each distance of d: A from
    gaussian_slice_params and the energy q-Lagrangian l = m d^2 / (2 dt),
    written as energy_lagrangian_from_metric writes it, through
    phase_factors.  The phases come first: a complex product under FMA rounds
    by operand order, and numpy may compute it in place on its first operand."""
    A, _ = gaussian_slice_params(cfg)
    return phase_factors(cfg.mass * d * d / (2.0 * cfg.dt), cfg.hbar, cfg.mode) * A


def _chain_matrix(cfg: SliceConfig, lattice, what: str) -> np.ndarray:
    """The n×n one-slice kernel on a lattice of n sites, gathered from one
    _slice_row: entry (i, j) is its value at the distance of offset |i - j|,
    its real part in euclidean mode.  check_table_size refuses its bytes
    (what names the matrix), 8 a real entry and 16 a complex one, before
    anything is built.  It holds no real or imaginary part below NORMAL_MIN
    but +0.0: they are zeroed on the row."""
    real = cfg.mode == EUCLIDEAN
    check_table_size(lattice.n_sites, 8 if real else 16, what)
    row = _slice_row(cfg, lattice.offset_distances())
    if real:
        row = row.real
    parts = row.view(np.float64)        # every real and imaginary part
    parts[np.abs(parts) < NORMAL_MIN] = 0.0
    return gather_by_offset(row)


def _weighted_chain(cfg: SliceConfig, K: np.ndarray, weights: np.ndarray, start,
                    ends) -> list[complex]:
    """The kernel of cfg.n_slices >= 2 slices from one start to each of ends:
    start is the first slice's kernel over the nodes and each end the last
    slice's, and every interior slice is integrated against weights, the
    measure's object weights.  The N - 2 mat-vecs of the slice chain from
    the start column are shared by every end; one reduction per end keeps
    the summation order of a single call."""
    v = _slice_chain(K, weights, start, cfg.n_slices - 2)
    return [complex(np.sum(weights * end * v)) for end in ends]


def sliced_line_propagator(cfg: SliceConfig, x0: float, x1: float,
                           method: str = "recursion") -> complex:
    """Time-sliced free propagator on the line from x0 to x1; see
    sliced_line_propagators."""
    return _sliced_line(cfg, x0, [x1], method)[0]


def sliced_line_propagators(cfg: SliceConfig, x0: float, x1s,
                            method: str = "recursion") -> list[complex]:
    """Time-sliced free propagator on the line from x0 to each of x1s.

    'recursion' evaluates the iterated Gaussian integrals exactly (valid for
    both phase conventions).  'quadrature' (euclidean only) iterates trapezoid
    quadrature on [-L, L] as an independent numerical route.  Either route
    computes what does not depend on the endpoint once; every value is
    bit-identical to its sliced_line_propagator call."""
    return _sliced_line(cfg, x0, x1s, method)


def _sliced_line(cfg: SliceConfig, x0: float, x1s, method: str) -> list[complex]:
    """Both sliced line propagators; a warning is attributed to their caller."""
    if method == "recursion":
        A, B = gaussian_recursion(cfg)
        return [A * cmath.exp(B * (x1 - x0) ** 2) for x1 in x1s]
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if cfg.mode != EUCLIDEAN:
        raise ValueError("quadrature evaluation is supported in euclidean mode only")
    L, M = cfg.quad_halfwidth, cfg.quad_nodes
    h = cfg.node_spacing
    if cfg.n_slices > 1:        # one slice builds no kernel
        # the nodes are a line lattice of M sites, h apart
        K = _chain_matrix(cfg, LineLattice(M, h), f"a quadrature kernel of {M} nodes")
        if h > math.sqrt(cfg.hbar * cfg.dt / cfg.mass):
            warnings.warn("quadrature nodes too coarse for the requested slicing: node "
                          "spacing exceeds the one-slice kernel width", stacklevel=3)
    sigma_total = math.sqrt(cfg.hbar * cfg.total_time / cfg.mass)
    for x1 in x1s:
        if L < max(abs(x0), abs(x1)) + 6 * sigma_total:
            warnings.warn("quadrature domain may truncate significant mass; "
                          "increase quad_halfwidth", stacklevel=3)
    if cfg.n_slices == 1:
        return [complex(k) for k in _slice_row(cfg, np.asarray(x1s, float) - x0).real]
    u = np.linspace(-L, L, M)
    wts = np.full(M, h)
    wts[[0, -1]] *= 0.5
    return _weighted_chain(cfg, K, wts, _slice_row(cfg, u - x0).real,
                           (_slice_row(cfg, x1 - u).real for x1 in x1s))


# ---------------------------------------------------------------------------
# circle: lattice path sum and winding-number image sum


def lattice_line_propagator(geometry, cfg: SliceConfig, site0: int, site1: int) -> complex:
    """Time-sliced path sum on a lattice geometry: the one-slice kernel
    chained over the slices, every interior site weighted by the spacing;
    endpoints carry no measure factor (kernel density convention)."""
    return _lattice_amplitudes(geometry, cfg, site0, [site1])[0]


def _lattice_amplitudes(geometry, cfg: SliceConfig, site0: int, site1s) -> list[complex]:
    """lattice_line_propagator for each of site1s: one slice reads the
    kernel K (a chain matrix) at [site1, site0]; more run the weighted chain
    from K[:, site0] to each K[site1] under the object weight spacing."""
    K = _chain_matrix(cfg, geometry, f"a lattice transfer matrix of {geometry.n_sites} sites")
    if cfg.n_slices == 1:
        return [complex(K[s1, site0]) for s1 in site1s]
    weights = np.full(geometry.n_sites, geometry.spacing)
    return _weighted_chain(cfg, K, weights, K[:, site0], (K[s1] for s1 in site1s))


def circle_propagators(cfg: SliceConfig, circumference: float, theta0: float,
                       theta1s, n_sites: int = 256) -> list[complex]:
    """Lattice path sum on a discretized circle with the arc-distance energy
    Lagrangian, from the site nearest theta0 to the site nearest each of
    theta1s by one start-column chain; a warning is attributed to the caller."""
    geom = CircleLattice(n_sites, circumference)
    sigma_slice = math.sqrt(cfg.hbar * cfg.dt / cfg.mass)
    if sigma_slice < 2 * geom.spacing:
        warnings.warn("lattice too coarse for the requested slicing: one-slice "
                      "kernel width is under two lattice spacings", stacklevel=2)
    s0 = geom.nearest_site(theta0)
    return _lattice_amplitudes(geom, cfg, s0, [geom.nearest_site(t) for t in theta1s])


def image_sum_circle_kernel(cfg: SliceConfig, circumference: float, theta0: float,
                            theta1: float, winding_max: int = 10) -> complex:
    """Reference circle kernel as the sum of line kernels over winding images:
    sum over |n| <= winding_max of K_line(dtheta + n * circumference, T).
    Euclidean only: at real time the images do not decay and the sum does not
    converge, so mode 'real' raises ValueError."""
    if cfg.mode != EUCLIDEAN:
        raise ValueError("the circle image sum does not converge at real time; "
                         "only mode 'euclidean' has a circle reference")
    if winding_max < 0:
        raise ValueError(f"winding_max must be non-negative, not {winding_max}")
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
        return relative_deviations(self.value, self.reference)[1]


def line_convergence(cfg: SliceConfig, x0: float, x1: float, sweep) -> list[ConvergenceRow]:
    """Sliced line propagator against the closed-form kernel over a slice-count
    sweep (quadrature route in euclidean mode, recursion otherwise)."""
    ref = line_kernel(cfg.mass, cfg.hbar, cfg.total_time, x1 - x0, cfg.mode)
    method = "quadrature" if cfg.mode == EUCLIDEAN else "recursion"
    rows = []
    for n in sweep:
        c = replace(cfg, n_slices=n)
        rows.append(ConvergenceRow(n, c.dt, sliced_line_propagator(c, x0, x1, method), ref))
    return rows


def circle_convergence(cfg: SliceConfig, circumference: float, theta0: float,
                       theta1: float, sweep, n_sites: int = 256,
                       winding_max: int = 10) -> list[ConvergenceRow]:
    """Circle lattice path sum against the image-sum reference over a sweep."""
    # the reference reads T, m, hbar and the mode, not the slice count
    ref = image_sum_circle_kernel(cfg, circumference, theta0, theta1, winding_max)
    rows = []
    for n in sweep:
        c = replace(cfg, n_slices=n)
        val = circle_propagators(c, circumference, theta0, [theta1], n_sites)[0]
        rows.append(ConvergenceRow(n, c.dt, val, ref))
    return rows


def errors_decrease(rows, burn_in: int = 8, floor: float = 1e-9) -> bool:
    """Monotonicity gate for a convergence sweep: beyond the burn-in slice
    count, every error must not exceed its predecessor, except that anything at
    or below the floor counts as converged (exactly sliced problems sit at the
    roundoff floor for every resolution).  A NaN error anywhere in the sweep,
    burn-in rows included, fails it."""
    errs = [(r.n_slices, r.rel_error) for r in rows]
    later = [e for n, e in errs if n > burn_in]
    return (not any(math.isnan(e) for _, e in errs)
            and all(e <= max(prev, floor) for prev, e in zip(later, later[1:])))
