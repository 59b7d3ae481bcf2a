"""Positive-type functions, state functionals, and the GNS representation.

A function phi on a measured groupoid is of positive type when the quadratic
form f -> integral of phi * (f* ⋆ f) is positive semidefinite.  The form is
expanded exactly into a Hermitian matrix over morphism pairs sharing a target,
and positivity is certified spectrally.

Factorized candidates phi(m) = sqrt(p(src m) p(tgt m)) * exp(i S(m) / hbar),
with p a density on objects and S additive under composition, carry a GNS
representation on functions on the object space with cyclic vector the image
of the algebra unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import GroupoidMeasure, convolve
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
    defect = max((float(np.max(np.abs(Q - Q.conj().T))) for Q in blocks), default=0.0)
    lam = min((float(np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))[0]) for Q in blocks),
              default=0.0)
    verdict = "positive" if (lam >= -tol and defect <= max(tol, 1e-12)) else "indefinite"
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


def gns_vector(state: PhaseState, f: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Vector over objects: at a, the fiber sum of nu_fiber(w) f(w) psi(w) for
    w with target a."""
    g = state.groupoid
    terms = m.fiber_weights * np.asarray(f, dtype=complex) * state.psi
    out = np.zeros(g.n_objects, dtype=complex)
    np.add.at(out, g.tgt, terms)
    return out


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


def gns_apply(state: PhaseState, algebra_element: np.ndarray, f: np.ndarray,
              m: GroupoidMeasure) -> np.ndarray:
    """The vector of the convolution product: image of g ⋆ f under gns_vector."""
    return gns_vector(state, convolve(algebra_element, f, m), m)


@dataclass(frozen=True, eq=False)
class GnsRepresentation:
    """Carrier of the representation induced by a factorized state: functions on
    objects, with cyclic vector the image of the algebra unit."""

    state: PhaseState
    measure: GroupoidMeasure

    @property
    def dim(self) -> int:
        return self.state.groupoid.n_objects

    @cached_property
    def cyclic_vector(self) -> np.ndarray:
        from .algebra import unit_element
        return gns_vector(self.state, unit_element(self.state.groupoid), self.measure)

    def vector(self, f: np.ndarray) -> np.ndarray:
        return gns_vector(self.state, f, self.measure)

    def matrix(self, algebra_element: np.ndarray) -> np.ndarray:
        return gns_matrix(self.state, algebra_element, self.measure)
