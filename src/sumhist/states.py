"""Positive-type functions, state functionals, and the GNS representation.

A function phi on a measured groupoid is of positive type when the quadratic
form f -> integral of phi * (f* ⋆ f) is positive semidefinite.  The form is
expanded exactly into a Hermitian matrix over morphism pairs sharing a target,
and positivity is certified spectrally.

Factorized candidates phi(m) = sqrt(p(src m) p(tgt m)) * exp(i S(m) / hbar),
with p a density on objects and S additive under composition, carry a GNS
representation on functions on the object space with cyclic vector the image
of the algebra unit.

FactorizedForm is the one core of both GNS constructions: gns_vector takes
the morphisms of a groupoid as its carrier, and the family_* functions of the
action module take a family of grid histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GroupoidMeasure
from .groupoid import FiniteGroupoid


@dataclass(frozen=True)
class PositivityCertificate:
    min_eigenvalue: float
    form_matrix_dim: int
    verdict: str                    # 'positive' | 'indefinite'
    hermiticity_defect: float = 0.0

    @property
    def is_positive(self) -> bool:
        return self.verdict == "positive"


def is_normalized(phi: np.ndarray, m: GroupoidMeasure, tol: float = 1e-12) -> bool:
    total = np.sum(m.object_weights * np.asarray(phi)[m.groupoid.unit_of])
    return abs(total - 1.0) <= tol


def state_value(phi: np.ndarray, f: np.ndarray, m: GroupoidMeasure) -> complex:
    """The state functional: integral of phi * f against the measure."""
    return complex(np.sum(m.morphism_weights * np.asarray(phi) * np.asarray(f)))


def _positivity_blocks(phi: np.ndarray, m: GroupoidMeasure):
    """The target-fiber blocks (fib, Q[fib, fib]) of the positivity form, one
    per object in ascending order; every entry of Q outside them is zero.

    Expanding the convolution and the involution gives, for morphisms u, v
    with a common target,
        Q[u, v] = nu(u^-1 ∘ v) * nu_fiber_at_src_u(u^-1) * delta(u) * phi(u^-1 ∘ v)
    and zero elsewhere.
    """
    g = m.groupoid
    phi = np.asarray(phi, dtype=complex)
    nu = m.morphism_weights
    fw = m.fiber_weights
    delta = m.delta
    inv = g.inverse_of
    for fib, w in g.fiber_blocks:                # w[i, j] = u_i^-1 ∘ v_j
        yield fib, nu[w] * (fw[inv[fib]] * delta[fib])[:, None] * phi[w]


def positivity_form(phi: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Matrix Q with conj(f)^T Q f == integral of phi * (f* ⋆ f), exactly,
    assembled from its target-fiber blocks."""
    M = m.groupoid.n_morphisms
    Q = np.zeros((M, M), dtype=complex)
    for fib, block in _positivity_blocks(phi, m):
        Q[np.ix_(fib, fib)] = block
    return Q


def certify_positive_type(phi: np.ndarray, m: GroupoidMeasure,
                          tol: float = 1e-10) -> PositivityCertificate:
    """Spectral certificate: positive iff the Hermitian part of the form matrix
    has min eigenvalue >= -tol and the form matrix is Hermitian within tol.

    The form is block diagonal by target fiber, so its spectrum is the union
    of the blocks' spectra and its Hermiticity defect the largest of theirs;
    eigvalsh runs on each block, at O(sum of |fiber|^3)."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    blocks = [Q for _, Q in _positivity_blocks(phi, m) if Q.size]
    defect = float(np.max([np.max(np.abs(Q - Q.conj().T)) for Q in blocks], initial=0.0))
    lams = [np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))[0] for Q in blocks]
    lam = float(np.min(lams)) if lams else 0.0
    verdict = "positive" if (-lam <= tol and defect <= max(tol, 1e-12)) else "indefinite"
    return PositivityCertificate(lam, m.groupoid.n_morphisms, verdict, defect)


# ---------------------------------------------------------------------------
# factorized (density + additive phase) candidates


@dataclass(frozen=True, eq=False)
class PhaseState:
    """phi(m) = sqrt(p(src m) p(tgt m)) * exp(i S(m) / hbar) on a finite groupoid."""

    groupoid: FiniteGroupoid
    density: np.ndarray   # p >= 0 per object
    action: np.ndarray    # S real per morphism
    hbar: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.density, dtype=float)
        s = np.asarray(self.action, dtype=float)
        if p.shape != (self.groupoid.n_objects,) or (p < 0).any():
            raise ValueError("density must be non-negative with one entry per object")
        if s.shape != (self.groupoid.n_morphisms,):
            raise ValueError("action must have one entry per morphism")
        object.__setattr__(self, "density", p)
        object.__setattr__(self, "action", s)
        p.setflags(write=False)
        s.setflags(write=False)

    @cached_property
    def phase(self) -> np.ndarray:
        from .action import REAL_PHASE, phase_factors
        return phase_factors(self.action, self.hbar, REAL_PHASE)

    @cached_property
    def values(self) -> np.ndarray:
        g = self.groupoid
        return np.sqrt(self.density[g.src] * self.density[g.tgt]) * self.phase

    @cached_property
    def psi(self) -> np.ndarray:
        """Gram factor sqrt(p(src m)) * exp(i S(m) / hbar)."""
        return np.sqrt(self.density[self.groupoid.src]) * self.phase


@dataclass(frozen=True, eq=False)
class FactorizedForm:
    """The positivity form of a factorized state over a carrier set: its
    entry on a pair (u, v) of elements with a common target is
    weight(u) weight(v) conj(psi_u) psi_v, and zero on any other pair."""

    psi: np.ndarray                     # Gram factor per element
    targets: np.ndarray                 # index of each element's target point
    n_points: int
    weights: np.ndarray | None = None   # per element; None means unit

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        """Element indices per target point, ascending by target, each in
        ascending order: one stable sort."""
        order = np.argsort(self.targets, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(self.targets[order])) + 1)

    def _weighted(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=complex)
        return f if self.weights is None else self.weights * f

    def vector(self, f) -> np.ndarray:
        """GNS vector over the points: at b, the sum of weight * f * psi over
        the elements with target b."""
        out = np.zeros(self.n_points, dtype=complex)
        np.add.at(out, self.targets, self._weighted(f) * self.psi)
        return out

    def value(self, f) -> complex:
        """The form at f: the sum over target blocks of |psi_b^T (weight f)_b|^2,
        at linear cost."""
        f = self._weighted(f)
        return complex(sum(abs(self.psi[idx] @ f[idx]) ** 2 for idx in self.blocks))

    def certificate(self, tol: float = 1e-10) -> PositivityCertificate:
        """Closed-form positivity certificate: the block of target b is the
        rank-one conj(a_b) a_b^T, a = weight * psi, exactly Hermitian, with
        eigenvalues 0 (two elements or more) and |a_b|^2."""
        a = self.psi if self.weights is None else self.weights * self.psi
        lam_min = float(np.min([0.0 if len(idx) > 1 else np.vdot(a[idx], a[idx]).real
                                for idx in self.blocks]))
        verdict = "positive" if -lam_min <= tol else "indefinite"
        return PositivityCertificate(lam_min, len(self.psi), verdict)


def gns_vector(state: PhaseState, f: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Vector over objects: at a, the fiber sum of nu_fiber(w) f(w) psi(w) for
    w with target a."""
    g = state.groupoid
    return FactorizedForm(state.psi, g.tgt, g.n_objects, m.fiber_weights).vector(f)


def gns_norm_sq(vec: np.ndarray, m: GroupoidMeasure) -> float:
    """Squared norm on functions on the object space, weighted by the object measure."""
    return float(np.sum(m.object_weights * np.abs(np.asarray(vec)) ** 2).real)


def gns_matrix(state: PhaseState, algebra_element: np.ndarray,
               m: GroupoidMeasure) -> np.ndarray:
    """Matrix of the GNS action of an algebra element g on object vectors:
    entry [a, b] = sum over morphisms b -> a of nu_fiber * g * exp(i S / hbar)."""
    g = state.groupoid
    terms = m.fiber_weights * np.asarray(algebra_element, dtype=complex) * state.phase
    out = np.zeros((g.n_objects, g.n_objects), dtype=complex)
    np.add.at(out, (g.tgt, g.src), terms)
    return out
