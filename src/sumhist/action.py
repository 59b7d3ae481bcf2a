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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GroupoidMeasure, counting_measure
from .groupoid import FiniteGroupoid
from .histories import (FUTURE, History, HistoryWord, TimeGrid,
                        invert_history, link_walks, links_of)
from .states import PositivityCertificate

INCREMENTAL = "incremental"
ANCHORED = "anchored"

REAL_PHASE = "real"
EUCLIDEAN = "euclidean"


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
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def is_symmetric(self) -> bool:
        return check_symmetry(self)


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
    if slice_dt <= 0 or mass <= 0:
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


def phase_factor(s: float, hbar: float, mode: str) -> complex:
    """Weight of an action value: exp(i s / hbar) in the real mode (via libm
    cos and sin), exp(-s / hbar) in the euclidean mode."""
    if mode == REAL_PHASE:
        return complex(math.cos(s / hbar), math.sin(s / hbar))
    if mode == EUCLIDEAN:
        return complex(math.exp(-s / hbar))
    raise ValueError(f"unknown mode {mode!r}")


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
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.mode not in (REAL_PHASE, EUCLIDEAN):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.convention not in (INCREMENTAL, ANCHORED):
            raise ValueError(f"unknown convention {self.convention!r}")
        object.__setattr__(self, "density", p)
        p.setflags(write=False)

    def validate(self, grid: TimeGrid, measure: GroupoidMeasure,
                 tol: float = 1e-12) -> None:
        p = self.slices(grid)
        sums = p @ measure.object_weights
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > tol:
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
    """Evaluator of the factorized positive-type function on grid histories:
    value(w) = sqrt(p(source) p(target)) * phase(action(w))."""

    groupoid: FiniteGroupoid
    grid: TimeGrid
    lagrangian: Lagrangian
    spec: StateSpec

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
    normalization."""
    bad = asymmetric_morphisms(lag)
    if bad:
        raise SymmetryError(
            f"lagrangian is not inversion-symmetric on morphism pairs {bad[:5]}")
    m = measure if measure is not None else counting_measure(g)
    spec.validate(grid, m)
    return HistoryState(g, grid, lag, spec)


def classical_restriction(state: HistoryState) -> np.ndarray:
    """Density table (slices x objects): the state evaluated on trivial
    histories, whose action vanishes."""
    return np.array(state.density_table, dtype=float)


# ---------------------------------------------------------------------------
# the histories over a grid as a positivity test bed


def full_interval_family(g: FiniteGroupoid, grid: TimeGrid) -> list[History]:
    """All future histories spanning the whole grid, every endpoint pair, in
    canonical order."""
    out = []
    for x0 in range(g.n_objects):
        for x1 in range(g.n_objects):
            for links, _ in link_walks(g, x0, x1, grid.n_intervals):
                acc = [g.unit(x0)]
                for m in links:
                    acc.append(g.compose(m, acc[-1]))
                out.append(History(g, grid, tuple(acc), FUTURE))
    return out


def family_psi(state: HistoryState, family) -> np.ndarray:
    return np.array([state.psi(w) for w in family], dtype=complex)


def family_targets(state: HistoryState, family) -> np.ndarray:
    return np.array([state.point_index(w.target) for w in family], dtype=np.int64)


def family_form_matrix(state: HistoryState, family, via: str = "factorized") -> np.ndarray:
    """Positivity form matrix of the state over functions supported on the
    family.  'factorized' assembles conj(psi_u) psi_v on matching targets;
    'words' evaluates the state on every reduced pair word v then u^-1 (slow,
    used as an independent cross-check)."""
    from .histories import reduce_word
    n = len(family)
    tgts = family_targets(state, family)
    Q = np.zeros((n, n), dtype=complex)
    if via == "factorized":
        psi = family_psi(state, family)
        for t in np.unique(tgts):
            idx = np.flatnonzero(tgts == t)
            block = psi[idx]
            Q[np.ix_(idx, idx)] = np.conj(block)[:, None] * block[None, :]
        return Q
    if via != "words":
        raise ValueError(f"unknown assembly route {via!r}")
    for i, u in enumerate(family):
        for j, v in enumerate(family):
            if tgts[i] != tgts[j]:
                continue
            word = reduce_word([v, invert_history(u)])
            Q[i, j] = state.value(word)
    return Q


def family_certificate(state: HistoryState, family,
                       tol: float = 1e-10) -> PositivityCertificate:
    """Spectral positivity certificate of the state over the family, computed
    blockwise by target point."""
    psi = family_psi(state, family)
    tgts = family_targets(state, family)
    lam_min = np.inf
    defect = 0.0
    for t in np.unique(tgts):
        idx = np.flatnonzero(tgts == t)
        block = np.conj(psi[idx])[:, None] * psi[idx][None, :]
        defect = max(defect, float(np.max(np.abs(block - block.conj().T), initial=0.0)))
        lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        lam_min = min(lam_min, float(lam[0]))
    if not np.isfinite(lam_min):
        lam_min = 0.0
    verdict = "positive" if (lam_min >= -tol and defect <= max(tol, 1e-12)) else "indefinite"
    return PositivityCertificate(lam_min, len(family), verdict, defect)


def family_gns_vector(state: HistoryState, family, f_values) -> np.ndarray:
    """Vector over (object, slice) points: at each target point, the sum of
    f(w) psi(w) over family members ending there (unit fiber weights)."""
    f = np.asarray(f_values, dtype=complex)
    out = np.zeros(state.n_points, dtype=complex)
    np.add.at(out, family_targets(state, family), f * family_psi(state, family))
    return out


def family_form_value(state: HistoryState, family, f_values,
                      via: str = "factorized") -> complex:
    """Quadratic form of the state at f supported on the family."""
    f = np.asarray(f_values, dtype=complex)
    Q = family_form_matrix(state, family, via=via)
    return complex(np.conj(f) @ Q @ f)
