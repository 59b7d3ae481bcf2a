"""Lagrangians on the configuration groupoid, action functionals on grid
histories, and the factorized positive-type state they generate on the
histories over a grid.

Two action conventions are provided.  The incremental convention sums the
Lagrangian over the per-interval links and is exactly additive under history
composition; it is the default and the one every propagator identity relies
on.  The anchored convention is the right-endpoint Riemann sum of the
Lagrangian along the reference-anchored accumulated transitions times the
interval lengths; it is NOT additive in general (the per-interval transitions
it evaluates depend on the anchor), and the test suite demonstrates the
failure on a three-interval example.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GroupoidMeasure, counting_measure
from .groupoid import UNDEFINED, FiniteGroupoid
from .histories import (FUTURE, History, HistoryWord, TimeGrid, _walk_blocks,
                        from_links, invert_history, links_of, reduce_word)
from .states import FactorizedForm, PositivityCertificate

INCREMENTAL = "incremental"
ANCHORED = "anchored"

REAL_PHASE = "real"
EUCLIDEAN = "euclidean"

# Weights are exp(sigma S / hbar), sigma = i (real) or -1 (euclidean); i has
# real part -0.0 so that a signed zero action keeps its sign in the product.
PHASE_SIGMA = {REAL_PHASE: complex(-0.0, 1.0), EUCLIDEAN: -1.0}

# cmath.exp(x) is exp(x - 1) * e above log(DBL_MAX / 4) (CPython's
# CM_LOG_LARGE_DOUBLE); at or below it, it is libm exp itself.
CMATH_EXP_LARGE = math.log(sys.float_info.max / 4)
# phase_factors takes numpy's route only when every |s / hbar| is below this,
# so the quotient is finite and the division raises no overflow warning.
PHASE_QUOTIENT_BOUND = 1e300


class SymmetryError(ValueError):
    """A Lagrangian is not invariant under morphism inversion."""


class NormalizationError(ValueError):
    """A density table does not sum to one on some time slice."""


@dataclass(frozen=True, eq=False)
class Lagrangian:
    """Real function on the morphisms of a configuration groupoid."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.groupoid.n_morphisms,):
            raise ValueError("lagrangian needs one value per morphism")
        if not np.isfinite(v).all():
            raise ValueError("lagrangian values must be finite")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)


def check_symmetry(lag: Lagrangian) -> bool:
    """True iff the Lagrangian takes equal values on each morphism and its inverse."""
    return not asymmetric_morphisms(lag)


def asymmetric_morphisms(lag: Lagrangian) -> list[tuple[int, int]]:
    """Pairs (m, m^-1) on which the values differ (each pair reported once)."""
    inv = lag.groupoid.inverse_of
    bad = np.flatnonzero(lag.values != lag.values[inv])
    return [(int(m), int(inv[m])) for m in bad if m <= inv[m]]


def zero_lagrangian(g: FiniteGroupoid) -> Lagrangian:
    return Lagrangian(g, np.zeros(g.n_morphisms))


def energy_lagrangian_from_metric(g: FiniteGroupoid, metric: np.ndarray,
                                  slice_dt: float, mass: float) -> Lagrangian:
    """Per-interval kinetic value mass * d(src, tgt)^2 / (2 * slice_dt) from a
    finite metric on the objects (symmetric, zero diagonal)."""
    metric = np.asarray(metric, dtype=float)
    if metric.shape != (g.n_objects, g.n_objects):
        raise ValueError("metric must be a square matrix over the objects")
    if not np.array_equal(metric, metric.T) or np.any(np.diag(metric) != 0):
        raise ValueError("metric must be symmetric with zero diagonal")
    if not (0 < slice_dt < math.inf and 0 < mass < math.inf):
        raise ValueError("slice_dt and mass must be positive")
    d = metric[g.src, g.tgt]
    return Lagrangian(g, mass * d * d / (2.0 * slice_dt))


def energy_lagrangian(g: FiniteGroupoid, geometry, slice_dt: float,
                      mass: float) -> Lagrangian:
    """Energy Lagrangian of a lattice geometry (geodesic distance over one
    interval, evaluated in closed form)."""
    if g.n_objects != geometry.n_sites:
        raise ValueError("groupoid objects and lattice sites disagree")
    return energy_lagrangian_from_metric(g, geometry.distance_matrix, slice_dt, mass)


def action(w: History, lag: Lagrangian, convention: str = INCREMENTAL) -> float:
    """Action of a grid history.  Future orientation:
      incremental: sum of lagrangian over the per-interval links;
      anchored:    sum over k of lagrangian(accumulated[k]) * dt_k.
    Past orientation: the negated sum over the history's own entries.
    Sums are exactly rounded (math.fsum), so inverse/symmetry identities hold
    to the last bit for symmetric Lagrangians.
    """
    vals = lag.values
    sign = 1.0 if w.orientation == FUTURE else -1.0
    if convention == INCREMENTAL:
        return sign * math.fsum(vals[m] for m in links_of(w))
    if convention == ANCHORED:
        grid = w.grid
        return sign * math.fsum(vals[w.accumulated[k]] * grid.dt(k - 1)
                                for k in range(1, len(w.accumulated)))
    raise ValueError(f"unknown action convention {convention!r}")


# Rows from which row_fsums runs the TwoSum cascade: its cost is a few dozen
# numpy calls whatever the row count, against about 0.3 us per row for
# math.fsum (crossover from about 50 rows of 2 values to 130 rows of 6 values,
# measured on a 2-core Xeon with numpy 2.4).
ROW_FSUM_CASCADE = 64


def _two_sum(a, b):
    """Error-free transformation: a + b == s + e exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def row_fsums(values: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-d float array, bit for bit.

    TwoSum along a row leaves its float sum s and errors e_k; TwoSum along
    the errors leaves t and second-level errors f_k (Ogita, Rump and Oishi
    2005, "Accurate sum and dot product").  Where every f_k is exactly 0 the
    row's exact sum is s + t, so fl(s + t) is correctly rounded, as fsum is.
    Every other row, non-finite ones included, goes to math.fsum itself, so
    it also raises as fsum does.  Below ROW_FSUM_CASCADE rows fsum itself is
    cheaper than the cascade's fixed cost and takes every row."""
    if len(values) < ROW_FSUM_CASCADE:
        return np.array(list(map(math.fsum, values.tolist())))
    with np.errstate(over="ignore", invalid="ignore"):
        s, *rest = values.T
        errs = []
        for v in rest:
            s, e = _two_sum(s, v)
            errs.append(e)
        if errs:
            t, *rest = errs
            for e in rest:
                t, f = _two_sum(t, e)
                s[f != 0.0] = math.nan      # unsettled: leave the row to fsum
            out = s + t
        else:
            out = s.copy()
        out += 0.0              # -0.0 + 0.0 is +0.0, as fsum of an exact zero
        unsettled = np.flatnonzero(~np.isfinite(out))
    for r in unsettled:
        out[r] = math.fsum(values[r].tolist())
    return out


def history_actions(g: FiniteGroupoid, grid: TimeGrid, lag: Lagrangian,
                    convention: str, links: np.ndarray) -> np.ndarray:
    """Action of every future history given as a row of links (one per grid
    interval), bit for bit as action() of its History: the exactly rounded
    row sum of the Lagrangian of every link (incremental), or of every
    accumulated transition times its interval length (anchored)."""
    vals = lag.values
    if convention == INCREMENTAL:
        return row_fsums(vals[links])
    if convention != ANCHORED:
        raise ValueError(f"unknown action convention {convention!r}")
    terms = np.empty(links.shape)
    acc = g.unit_of[g.src[links[:, 0]]]
    for k in range(links.shape[1]):
        acc = g.composite(links[:, k], acc)
        if (acc == UNDEFINED).any():
            # compose each row as a history would, raising at the first
            # history with a missing composition
            for row in links.tolist():
                a = g.unit(g.source(row[0]))
                for m in row:
                    a = g.compose(m, a)
        terms[:, k] = vals[acc] * grid.dt(k)
    return row_fsums(terms)


def phase_sigma(mode: str) -> complex | float:
    """The constant sigma of a mode's weight exp(sigma * S / hbar)."""
    if isinstance(mode, str) and mode in PHASE_SIGMA:
        return PHASE_SIGMA[mode]
    raise ValueError(f"unknown mode {mode!r}")


def phase_factor(s: float, hbar: float, mode: str) -> complex:
    """Weight of an action value: exp(sigma s / hbar), i.e. exp(i s / hbar) in
    the real mode and exp(-s / hbar) in the euclidean mode."""
    return cmath.exp(phase_sigma(mode) * s / hbar)


def phase_factors(values, hbar: float, mode: str) -> np.ndarray:
    """phase_factor of every value of a 1-d block, bit for bit, as one
    complex array.

    Real mode is numpy's complex exp of sigma * (s / hbar): a zero real part
    and libm cexp, whose sincos agrees with the cos and sin that cmath.exp
    calls.  Euclidean mode maps libm math.exp over -(s / hbar), which is
    cmath.exp's own route up to CMATH_EXP_LARGE, with imaginary part +0.0.
    A block holding any value off those routes (|s / hbar| at
    PHASE_QUOTIENT_BOUND or above, a euclidean argument above
    CMATH_EXP_LARGE, NaN, an infinity) goes through phase_factor value by
    value, so it raises as phase_factor does and numpy warns of nothing."""
    sigma = phase_sigma(mode)
    s = np.asarray(values, dtype=float)
    if np.abs(s).max(initial=0.0) < PHASE_QUOTIENT_BOUND * hbar:  # False on NaN
        if mode == REAL_PHASE:
            return np.exp(sigma * (s / hbar))
        x = s / -hbar           # -(s / hbar), as IEEE division is sign-symmetric
        if x.max(initial=-math.inf) <= CMATH_EXP_LARGE:
            return np.array(list(map(math.exp, x.tolist())), dtype=complex)
    return np.array([phase_factor(v, hbar, mode) for v in s.tolist()], dtype=complex)


# ---------------------------------------------------------------------------
# densities and the factorized state on grid histories


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Density on objects per grid slice plus the phase conventions.

    density has shape (n_slices, n_objects) and each row integrates to one
    against the object measure.  mode 'real' gives unimodular phases
    exp(i S / hbar); mode 'euclidean' gives the decaying weight exp(-S / hbar)
    used for numerically robust continuum checks.
    """

    density: np.ndarray
    hbar: float = 1.0
    mode: str = REAL_PHASE
    convention: str = INCREMENTAL

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.density, dtype=float))
        if (p < 0).any():
            raise NormalizationError("density values must be non-negative")
        if not np.isfinite(p).all():
            raise NormalizationError("density values must be finite")
        if not 0 < self.hbar < math.inf:  # also refuses NaN
            raise ValueError("hbar must be positive")
        phase_sigma(self.mode)
        if self.convention not in (INCREMENTAL, ANCHORED):
            raise ValueError(f"unknown convention {self.convention!r}")
        object.__setattr__(self, "density", p)
        p.setflags(write=False)

    def validate(self, grid: TimeGrid, measure: GroupoidMeasure,
                 tol: float = 1e-12) -> None:
        p = self.slices(grid)
        sums = p @ measure.object_weights
        worst = float(np.max(np.abs(sums - 1.0)))
        if not worst <= tol:
            k = int(np.argmax(np.abs(sums - 1.0)))
            raise NormalizationError(
                f"density on slice {k} integrates to {sums[k]!r}, not 1")

    def slices(self, grid: TimeGrid) -> np.ndarray:
        """Density table resolved to (n_slices, n_objects) for the given grid."""
        p = self.density
        n_slices = len(grid.times)
        if p.shape[0] == 1:
            return np.broadcast_to(p, (n_slices, p.shape[1]))
        if p.shape[0] != n_slices:
            raise NormalizationError(
                f"density has {p.shape[0]} slices but the grid has {n_slices}")
        return p

    def sub(self, grid: TimeGrid, i: int, j: int) -> "StateSpec":
        """Spec restricted to the grid sub-interval [i, j]."""
        p = self.density
        if p.shape[0] == 1:
            return self
        return StateSpec(self.slices(grid)[i:j + 1].copy(), self.hbar,
                         self.mode, self.convention)


def uniform_state_spec(g: FiniteGroupoid, hbar: float = 1.0, mode: str = REAL_PHASE,
                       convention: str = INCREMENTAL,
                       measure: GroupoidMeasure | None = None) -> StateSpec:
    """Time-independent density proportional to 1, normalized against the measure."""
    m = measure if measure is not None else counting_measure(g)
    total = float(np.sum(m.object_weights))
    return StateSpec(np.full((1, g.n_objects), 1.0 / total), hbar, mode, convention)


@dataclass(frozen=True, eq=False)
class HistoryState:
    """The DFS state of one model: groupoid, grid, Lagrangian, densities and
    measure, which every path-sum table route takes.  It evaluates the
    factorized positive-type function on grid histories:
    value(w) = sqrt(p(source) p(target)) * phase(action(w))."""

    groupoid: FiniteGroupoid
    grid: TimeGrid
    lagrangian: Lagrangian
    spec: StateSpec
    measure: GroupoidMeasure

    @cached_property
    def density_table(self) -> np.ndarray:
        return self.spec.slices(self.grid)

    def density_at(self, point: tuple[int, float]) -> float:
        x, t = point
        return float(self.density_table[self.grid.index_of(t), x])

    def action_of(self, w) -> float:
        if isinstance(w, HistoryWord):
            return math.fsum(self.action_of(seg) for seg in w.segments)
        return action(w, self.lagrangian, self.spec.convention)

    def phase(self, s: float) -> complex:
        return phase_factor(s, self.spec.hbar, self.spec.mode)

    def value(self, w) -> complex:
        amp = math.sqrt(self.density_at(w.source) * self.density_at(w.target))
        return amp * self.phase(self.action_of(w))

    def psi(self, w) -> complex:
        """Gram factor sqrt(p(source)) * phase(action); the state on a pair word
        (u, v) with a common target is conj(psi(u)) * psi(v)."""
        return math.sqrt(self.density_at(w.source)) * self.phase(self.action_of(w))

    def point_index(self, point: tuple[int, float]) -> int:
        """Flat index of (object, grid time) into the object space of the
        histories over this grid."""
        x, t = point
        return self.grid.index_of(t) * self.groupoid.n_objects + x

    @property
    def n_points(self) -> int:
        return len(self.grid.times) * self.groupoid.n_objects


def state_from_lagrangian(lag: Lagrangian, spec: StateSpec, g: FiniteGroupoid,
                          grid: TimeGrid,
                          measure: GroupoidMeasure | None = None) -> HistoryState:
    """Build the history state, enforcing Lagrangian symmetry and density
    normalization against the measure (the counting measure if None)."""
    bad = asymmetric_morphisms(lag)
    if bad:
        raise SymmetryError(
            f"lagrangian is not inversion-symmetric on morphism pairs {bad[:5]}")
    m = measure if measure is not None else counting_measure(g)
    spec.validate(grid, m)
    return HistoryState(g, grid, lag, spec, m)


def classical_restriction(state: HistoryState) -> np.ndarray:
    """Density table (slices x objects): the state evaluated on trivial
    histories, whose action vanishes."""
    return np.array(state.density_table, dtype=float)


# ---------------------------------------------------------------------------
# the histories over a grid as a positivity test bed


@dataclass(frozen=True, eq=False)
class HistoryFamily(Sequence):
    """Future histories over a grid held as their link rows, one row per
    history and one link per interval; a member is built as a History only
    when it is indexed or iterated."""

    groupoid: FiniteGroupoid
    grid: TimeGrid
    links: np.ndarray

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, i) -> History:
        return from_links(self.groupoid, self.grid, self.links[i].tolist())


def full_interval_family(g: FiniteGroupoid, grid: TimeGrid) -> HistoryFamily:
    """All future histories spanning the whole grid, every endpoint pair, in
    canonical order."""
    if grid.n_intervals < 1:
        raise ValueError("need at least one interval")
    blocks = [links for x0 in range(g.n_objects) for x1 in range(g.n_objects)
              for links in _walk_blocks(g, x0, x1, grid.n_intervals)]
    return HistoryFamily(g, grid, np.concatenate(blocks))


def family_psi(state: HistoryState, family: HistoryFamily) -> np.ndarray:
    """state.psi of every family member, bit for bit: the density factor at
    the source times the phase of history_actions."""
    g, links = family.groupoid, family.links
    p = state.density_table[state.grid.index_of(family.grid.times[0])]
    s = history_actions(g, family.grid, state.lagrangian, state.spec.convention, links)
    return np.sqrt(p[g.src[links[:, 0]]]) * phase_factors(s, state.spec.hbar, state.spec.mode)


def family_targets(state: HistoryState, family: HistoryFamily) -> np.ndarray:
    """state.point_index of every family member's target."""
    k = state.grid.index_of(family.grid.times[-1])
    return k * state.groupoid.n_objects + family.groupoid.tgt[family.links[:, -1]]


def family_form(state: HistoryState, family: HistoryFamily) -> FactorizedForm:
    """The state's form over the family: family_psi at family_targets, unit weights."""
    return FactorizedForm(family_psi(state, family), family_targets(state, family),
                          state.n_points)


def family_form_matrix(state: HistoryState, family) -> np.ndarray:
    """Positivity form matrix of the state over functions supported on the
    family, the state evaluated on every reduced pair word v then u^-1: slow,
    and independent of the factorization psi, so a cross-check of it."""
    n = len(family)
    Q = np.zeros((n, n), dtype=complex)
    tgts = family_targets(state, family)
    members = list(family)
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            if tgts[i] == tgts[j]:
                Q[i, j] = state.value(reduce_word([v, invert_history(u)]))
    return Q


def family_certificate(state: HistoryState, family,
                       tol: float = 1e-10) -> PositivityCertificate:
    """Closed-form positivity certificate of the state over the family."""
    return family_form(state, family).certificate(tol)


def family_gns_vector(state: HistoryState, family, f_values) -> np.ndarray:
    """Vector over (object, slice) points: at each target point, the sum of
    f(w) psi(w) over family members ending there (unit weights)."""
    return family_form(state, family).vector(f_values)


def family_form_value(state: HistoryState, family, f_values,
                      via: str = "factorized") -> complex:
    """Quadratic form of the state at f supported on the family: the sum over
    target blocks of |psi_b^T f_b|^2 ('factorized', linear cost), or
    conj(f)^T Q f with the dense 'words' form matrix."""
    if via == "factorized":
        return family_form(state, family).value(f_values)
    if via != "words":
        raise ValueError(f"unknown assembly route {via!r}")
    f = np.asarray(f_values, dtype=complex)
    return complex(np.conj(f) @ family_form_matrix(state, family) @ f)
