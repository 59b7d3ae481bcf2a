"""Lattice geometries underlying the free-motion examples: a segment of the
line and a circle, with integer sites, exact integer displacements, and the
geodesic distances used by the energy Lagrangian."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class LineLattice:
    n_sites: int
    spacing: float = 1.0
    origin: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1 or not 0 < self.spacing < math.inf:
            raise ValueError("line lattice needs n_sites >= 1 and positive spacing")

    def position(self, i: int) -> float:
        return self.origin + i * self.spacing

    def displacement_steps(self, i: int, j: int) -> int:
        """Signed site displacement from i to j."""
        return j - i

    def distance(self, i: int, j: int) -> float:
        return abs(j - i) * self.spacing

    def step(self, i: int, steps: int) -> int:
        j = i + steps
        if not (0 <= j < self.n_sites):
            raise ValueError(f"step leaves the lattice: {i} + {steps}")
        return j

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        idx = np.arange(self.n_sites)
        d = np.abs(idx[:, None] - idx[None, :]) * self.spacing
        d.setflags(write=False)
        return d


@dataclass(frozen=True)
class CircleLattice:
    n_sites: int
    circumference: float

    def __post_init__(self):
        if self.n_sites < 1 or not 0 < self.circumference < math.inf:
            raise ValueError("circle lattice needs n_sites >= 1 and positive circumference")

    @property
    def spacing(self) -> float:
        return self.circumference / self.n_sites

    def position(self, i: int) -> float:
        return i * self.spacing

    def displacement_steps(self, i: int, j: int) -> int:
        """Signed minimal arc displacement in sites; ties go to the positive side."""
        n = self.n_sites
        d = (j - i) % n
        if 2 * d > n:
            d -= n
        return d

    def distance(self, i: int, j: int) -> float:
        return abs(self.displacement_steps(i, j)) * self.spacing

    def step(self, i: int, steps: int) -> int:
        return (i + steps) % self.n_sites

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        idx = np.arange(self.n_sites)
        raw = np.abs(idx[:, None] - idx[None, :])
        d = np.minimum(raw, self.n_sites - raw) * self.spacing
        d.setflags(write=False)
        return d

    def nearest_site(self, theta: float) -> int:
        return int(round((theta % self.circumference) / self.spacing)) % self.n_sites
