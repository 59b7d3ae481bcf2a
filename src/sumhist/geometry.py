"""Lattice geometries underlying the free-motion examples: a segment of the
line and a circle, with integer sites, exact integer displacements, and the
geodesic distances used by the energy Lagrangian.  On both, the distance
between sites i and j depends on |i - j| alone (offset_distances)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def gather_by_offset(row: np.ndarray) -> np.ndarray:
    """The new n×n array whose (i, j) entry is row[|i - j|], for a row of n
    values."""
    # row i is the window w[n - 1 - i : 2n - 1 - i] of w = (row reversed, row[1:])
    w = np.concatenate((row[:0:-1], row))
    return np.lib.stride_tricks.sliding_window_view(w, len(row))[::-1].copy()


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

    def offset_distances(self) -> np.ndarray:
        """distance(i, j) for each offset |i - j| = 0, ..., n_sites - 1."""
        return np.arange(self.n_sites) * self.spacing

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        d = gather_by_offset(self.offset_distances())
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

    def offset_distances(self) -> np.ndarray:
        """distance(i, j) for each offset |i - j| = 0, ..., n_sites - 1: the
        shorter of the two arcs."""
        k = np.arange(self.n_sites)
        return np.minimum(k, self.n_sites - k) * self.spacing

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        d = gather_by_offset(self.offset_distances())
        d.setflags(write=False)
        return d

    def nearest_site(self, theta: float) -> int:
        return int(round((theta % self.circumference) / self.spacing)) % self.n_sites
