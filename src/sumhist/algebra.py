"""Measured groupoid convolution *-algebra.

A measure is a positive weight on objects plus a positive weight on each
morphism within its target fiber; the total weight of a morphism disintegrates
as nu(m) = nu_obj(tgt m) * nu_fiber(m).  Algebra elements are complex numpy
arrays indexed by morphism id.  All operations are pure functions of immutable
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groupoid import FiniteGroupoid


class MeasureError(ValueError):
    """Invalid weights, or a modular function that fails multiplicativity."""


@dataclass(frozen=True, eq=False)
class GroupoidMeasure:
    groupoid: FiniteGroupoid
    object_weights: np.ndarray  # per object, > 0
    fiber_weights: np.ndarray   # per morphism (weight within its target fiber), > 0

    def __post_init__(self):
        ow = np.asarray(self.object_weights, dtype=float)
        fw = np.asarray(self.fiber_weights, dtype=float)
        if ow.shape != (self.groupoid.n_objects,):
            raise MeasureError("object_weights must have one entry per object")
        if fw.shape != (self.groupoid.n_morphisms,):
            raise MeasureError("fiber_weights must have one entry per morphism")
        if not (np.isfinite(ow).all() and np.isfinite(fw).all()):
            raise MeasureError("measure weights must be finite")
        if not (ow > 0).all() or not (fw > 0).all():
            raise MeasureError("measure weights must be strictly positive")
        object.__setattr__(self, "object_weights", ow)
        object.__setattr__(self, "fiber_weights", fw)
        ow.setflags(write=False)
        fw.setflags(write=False)

    @cached_property
    def morphism_weights(self) -> np.ndarray:
        """nu(m) = nu_obj(tgt m) * nu_fiber(m)."""
        w = self.object_weights[self.groupoid.tgt] * self.fiber_weights
        w.setflags(write=False)
        return w

    @cached_property
    def delta(self) -> np.ndarray:
        """Modular function, computed once and validated."""
        return modular_function(self)


def counting_measure(g: FiniteGroupoid) -> GroupoidMeasure:
    """Unit object and fiber weights; the modular function is identically 1."""
    return GroupoidMeasure(g, np.ones(g.n_objects), np.ones(g.n_morphisms))


def integrate(f: np.ndarray, m: GroupoidMeasure) -> complex:
    """Integral of f: sum over morphisms of nu(m) * f(m) (disintegrated form)."""
    return complex(np.sum(m.morphism_weights * np.asarray(f)))


def modular_function(m: GroupoidMeasure, tol: float = 1e-10) -> np.ndarray:
    """delta(a) = nu(a) / nu(a^-1), validated to be multiplicative on
    composable pairs (otherwise the measure is rejected).

    The pairs composable over an object y are (a, b) with b in the fiber over
    y and a in the inverse of that fiber, the morphisms leaving y."""
    g = m.groupoid
    nu = m.morphism_weights
    inv = g.inverse_of
    delta = nu / nu[inv]
    errs = []
    for fib, block in g.fiber_blocks:
        lhs = delta[block]
        rhs = delta[inv[fib]][:, None] * delta[fib][None, :]
        errs.append(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), initial=0.0))
    err = np.max(errs, initial=0.0)
    if not err <= tol:
        raise MeasureError(
            f"measure is not quasi-invariant: modular function fails "
            f"multiplicativity (max relative error {err:.3e})")
    delta.setflags(write=False)
    return delta


def delta_element(g: FiniteGroupoid, m_id: int) -> np.ndarray:
    """Indicator of a single morphism."""
    f = np.zeros(g.n_morphisms, dtype=complex)
    f[m_id] = 1.0
    return f


def unit_element(g: FiniteGroupoid) -> np.ndarray:
    """Sum of unit indicators; the identity of the convolution algebra under
    the counting measure."""
    f = np.zeros(g.n_morphisms, dtype=complex)
    f[g.unit_of] = 1.0
    return f


def left_regular(f: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Matrix of convolution by f acting on functions on the groupoid:
    (f ⋆ psi)(a) = sum over gamma in the fiber of tgt(a) of
    nu_fiber(gamma) f(gamma) psi(gamma^-1 ∘ a)."""
    g = m.groupoid
    M = g.n_morphisms
    f = np.asarray(f, dtype=complex)
    L = np.zeros((M, M), dtype=complex)
    for fib, cols in g.fiber_blocks:                 # cols[i, j] = gamma_i^-1 ∘ a_j
        vals = m.fiber_weights[fib] * f[fib]         # one per gamma
        rows = np.broadcast_to(fib[None, :], cols.shape)
        L[rows, cols] += vals[:, None]
    return L


def convolve(f: np.ndarray, h: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Convolution product f ⋆ h, one target fiber at a time:
    (f ⋆ h)[a_j] = sum over gamma_i in the fiber of nu_fiber f(gamma_i)
    h(gamma_i^-1 ∘ a_j), a vector-matrix product per fiber."""
    g = m.groupoid
    vals = m.fiber_weights * np.asarray(f, dtype=complex)
    h = np.asarray(h, dtype=complex)
    out = np.zeros(g.n_morphisms, dtype=complex)
    for fib, block in g.fiber_blocks:
        out[fib] = vals[fib] @ h[block]
    return out


def involute(f: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """f*(a) = conj(f(a^-1)) * delta(a^-1)."""
    g = m.groupoid
    inv = g.inverse_of
    return np.conj(np.asarray(f, dtype=complex))[inv] * m.delta[inv]


def inner(psi: np.ndarray, phi: np.ndarray, m: GroupoidMeasure) -> complex:
    """nu-weighted inner product on functions on the groupoid."""
    return complex(np.sum(m.morphism_weights * np.conj(psi) * np.asarray(phi)))


def adjoint_matrix(a: np.ndarray, m: GroupoidMeasure) -> np.ndarray:
    """Adjoint of a matrix with respect to the nu-weighted inner product."""
    w = m.morphism_weights
    return (a.conj().T * w[None, :]) / w[:, None]
