"""Discrete histories over finite time grids.

A future-oriented history over times t_0 < ... < t_N stores its accumulated
transitions w(t_k, t_0) (entry 0 is a unit, all entries share the source
object).  A past-oriented history stores the transitions in the opposite
sense, x_k -> reference, so inversion is an entrywise table lookup.  The
assignment of a transition to every ordered pair of grid slices satisfies the
cocycle law acc(l, k) = acc(l, j) ∘ acc(j, k) exactly.

Mixed-orientation products do not merge into single histories; they live in
reduced words whose adjacent (segment, inverse-segment) pairs cancel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groupoid import FiniteGroupoid

FUTURE = "future"
PAST = "past"

# Histories per array block of the path-sum kernels: every kernel array but a
# pair's terms holds at most this many rows.
BLOCK = 1024


class GridError(ValueError):
    """A time is not on the grid, or sub-interval endpoints are invalid."""


class ChainError(ValueError):
    """Links are inconsistent, or history endpoints do not match."""


@dataclass(frozen=True)
class TimeGrid:
    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise GridError("a time grid needs at least one time")
        if not all(map(math.isfinite, times)):
            raise GridError("grid times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise GridError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t0: float, t1: float, n: int) -> "TimeGrid":
        if n < 1:
            raise GridError("uniform grid needs at least one interval")
        return cls(tuple(t0 + (t1 - t0) * k / n for k in range(n + 1)))

    @classmethod
    def single(cls, t: float) -> "TimeGrid":
        return cls((t,))

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    def dt(self, k: int) -> float:
        return self.times[k + 1] - self.times[k]

    @property
    def is_uniform(self) -> bool:
        if self.n_intervals <= 1:
            return True
        steps = np.diff(self.times)
        return bool(np.max(np.abs(steps - steps[0])) <= 1e-12 * max(abs(self.times[-1]), 1.0))

    def index_of(self, t: float) -> int:
        for k, tk in enumerate(self.times):
            if tk == t or abs(tk - t) <= 1e-12 * max(abs(tk), abs(t), 1.0):
                return k
        raise GridError(f"time {t} is not on the grid")

    def sub(self, i: int, j: int) -> "TimeGrid":
        if not (0 <= i <= j < len(self.times)):
            raise GridError(f"bad sub-interval indices ({i}, {j})")
        return TimeGrid(self.times[i:j + 1])


@dataclass(frozen=True)
class History:
    groupoid: FiniteGroupoid
    grid: TimeGrid
    accumulated: tuple[int, ...]
    orientation: str = FUTURE

    def __post_init__(self):
        g = self.groupoid
        acc = tuple(int(m) for m in self.accumulated)
        object.__setattr__(self, "accumulated", acc)
        if self.orientation not in (FUTURE, PAST):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if len(acc) != len(self.grid.times):
            raise ChainError("history needs one accumulated transition per grid time")
        ref = g.source(acc[0])
        if not g.is_unit(acc[0]):
            raise ChainError("the first accumulated transition must be a unit")
        anchored = g.src if self.orientation == FUTURE else g.tgt
        if any(anchored[m] != ref for m in acc):
            raise ChainError("accumulated transitions must share the reference object")

    @property
    def reference_object(self) -> int:
        return self.groupoid.source(self.accumulated[0])

    @property
    def n_intervals(self) -> int:
        return self.grid.n_intervals

    @property
    def length(self) -> int:
        """Link count including the normalising unit (= n_intervals + 1)."""
        return len(self.accumulated)

    @property
    def source(self) -> tuple[int, float]:
        if self.orientation == FUTURE:
            return (self.reference_object, self.grid.times[0])
        return (self.groupoid.source(self.accumulated[-1]), self.grid.times[-1])

    @property
    def target(self) -> tuple[int, float]:
        if self.orientation == FUTURE:
            return (self.groupoid.target(self.accumulated[-1]), self.grid.times[-1])
        return (self.reference_object, self.grid.times[0])

    def object_at(self, k: int) -> int:
        g = self.groupoid
        m = self.accumulated[k]
        return g.target(m) if self.orientation == FUTURE else g.source(m)


def trivial_history(g: FiniteGroupoid, x: int, t: float,
                    orientation: str = FUTURE) -> History:
    return History(g, TimeGrid.single(t), (g.unit(x),), orientation)


def from_links(g: FiniteGroupoid, grid: TimeGrid, links, x0: int | None = None) -> History:
    """Future history from its consistent link sequence (one link per interval).

    An empty link list on a single-time grid yields the trivial history at x0.
    """
    links = [int(m) for m in links]
    if len(links) != grid.n_intervals:
        raise ChainError(f"need {grid.n_intervals} links, got {len(links)}")
    if not links:
        if x0 is None:
            raise ChainError("an empty link list needs an explicit start object")
        return History(g, grid, (g.unit(x0),), FUTURE)
    for a, b in zip(links[1:], links):
        if g.source(a) != g.target(b):
            raise ChainError(f"inconsistent links: src({a}) != tgt({b})")
    start = g.source(links[0])
    if x0 is not None and x0 != start:
        raise ChainError(f"declared start object {x0} != src of first link {start}")
    acc = [g.unit(start)]
    for m in links:
        acc.append(g.compose(m, acc[-1]))
    return History(g, grid, tuple(acc), FUTURE)


def links_of(w: History) -> tuple[int, ...]:
    """Per-interval transitions.  Future: slice k-1 -> k; past: slice k -> k-1."""
    g = w.groupoid
    acc = w.accumulated
    if w.orientation == FUTURE:
        return tuple(g.compose(acc[k], g.inverse(acc[k - 1])) for k in range(1, len(acc)))
    return tuple(g.compose(g.inverse(acc[k - 1]), acc[k]) for k in range(1, len(acc)))


def accumulated(w: History, l: int, k: int) -> int:
    """Transition the history assigns to the slice pair: future x_k -> x_l,
    past x_l -> x_k.  Satisfies the cocycle law in both orientations."""
    acc = w.accumulated
    if not (0 <= l < len(acc) and 0 <= k < len(acc)):
        raise IndexError(f"slice indices ({l}, {k}) out of range")
    g = w.groupoid
    if w.orientation == FUTURE:
        return g.compose(acc[l], g.inverse(acc[k]))
    return g.compose(g.inverse(acc[k]), acc[l])


def invert_history(w: History) -> History:
    """Orientation flip with entrywise inversion of the accumulated transitions."""
    g = w.groupoid
    flipped = PAST if w.orientation == FUTURE else FUTURE
    return History(g, w.grid, tuple(g.inverse(m) for m in w.accumulated), flipped)


def compose_histories(w2: History, w1: History):
    """w2 after w1.  Same orientation with matching endpoints merges into one
    history; an orientation mismatch is routed to the word machinery and the
    result is a reduced word."""
    if w1.groupoid is not w2.groupoid:
        raise ChainError("histories live on different groupoids")
    if w1.orientation != w2.orientation:
        return reduce_word([w1, w2])
    if w1.target != w2.source:
        raise ChainError(f"endpoint mismatch: target {w1.target} != source {w2.source}")
    g = w1.groupoid
    if w1.orientation == FUTURE:
        grid = TimeGrid(w1.grid.times + w2.grid.times[1:])
        junction = w1.accumulated[-1]
        acc = w1.accumulated + tuple(g.compose(m, junction) for m in w2.accumulated[1:])
        return History(g, grid, acc, FUTURE)
    return invert_history(compose_histories(invert_history(w1), invert_history(w2)))


def change_reference(w: History, tau: float) -> tuple[int, ...]:
    """Accumulated transitions re-anchored at grid time tau."""
    j = w.grid.index_of(tau)
    g = w.groupoid
    acc = w.accumulated
    if w.orientation == FUTURE:
        base = g.inverse(acc[j])
        return tuple(g.compose(m, base) for m in acc)
    base = g.inverse(acc[j])
    return tuple(g.compose(base, m) for m in acc)


def restrict(w: History, t_lo: float, t_hi: float) -> History:
    """Restriction to the grid sub-interval [t_lo, t_hi], re-anchored at t_lo."""
    i, j = w.grid.index_of(t_lo), w.grid.index_of(t_hi)
    if i > j:
        raise GridError("sub-interval endpoints out of order")
    g = w.groupoid
    acc = w.accumulated
    if w.orientation == FUTURE:
        base = g.inverse(acc[i])
        new = tuple(g.compose(acc[k], base) for k in range(i, j + 1))
    else:
        base = g.inverse(acc[i])
        new = tuple(g.compose(base, acc[k]) for k in range(i, j + 1))
    return History(g, w.grid.sub(i, j), new, w.orientation)


def interior_blocks(n_objects: int, n_mids: int):
    """Every tuple of n_mids interior objects in lexicographic order, as
    (rows, n_mids) arrays of at most BLOCK rows."""
    tail = 0            # trailing positions that run through all values in one block
    while tail < n_mids and n_objects ** (tail + 1) <= BLOCK:
        tail += 1
    tails = np.indices((n_objects,) * tail, dtype=np.intp).reshape(tail, n_objects ** tail).T
    if tail == n_mids:
        yield tails
        return
    heads = itertools.product(range(n_objects), repeat=n_mids - tail)
    while chunk := list(itertools.islice(heads, max(1, BLOCK // len(tails)))):
        block = np.empty((len(chunk), len(tails), n_mids), dtype=np.intp)
        block[:, :, :n_mids - tail] = np.array(chunk, dtype=np.intp)[:, None, :]
        block[:, :, n_mids - tail:] = tails
        yield block.reshape(-1, n_mids)


def _walk_blocks(g: FiniteGroupoid, x0: int, x1: int, n_steps: int):
    """The link_walks stream as link arrays of at most BLOCK rows, one row
    of n_steps morphism ids per history.

    Each block of interior-object tuples gets its chains' hom sets.  When no
    hom set holds two morphisms, a tuple is one history if every hom set on
    its chain is nonempty, and the links are one gather.  Otherwise a
    history is a row of the block and a mixed-radix index into the row's hom
    sets, the last step varying fastest."""
    sizes, homs = g.hom_arrays
    single = homs.shape[1] == 1         # no hom set holds two morphisms
    for mids in interior_blocks(g.n_objects, n_steps - 1):
        chain = np.empty((len(mids), n_steps + 1), dtype=np.intp)
        chain[:, 0] = x0
        chain[:, 1:-1] = mids
        chain[:, -1] = x1
        pairs = chain[:, :-1] * g.n_objects + chain[:, 1:]
        if single:
            pairs = pairs[sizes[pairs].all(axis=1)]
            total = len(pairs)
        else:
            counts = sizes[pairs].prod(axis=1)
            ends = counts.cumsum()
            starts = ends - counts
            total = int(ends[-1])
        for start in range(0, total, BLOCK):
            if single:
                yield homs[pairs[start:start + BLOCK], 0]
            else:
                idx = np.arange(start, min(start + BLOCK, total))
                row = ends.searchsorted(idx, side="right")
                steps = pairs[row]
                radix = sizes[steps]
                places = radix[:, ::-1].cumprod(axis=1)[:, ::-1]
                yield homs[steps, (idx - starts[row])[:, None] % places // (places // radix)]


def link_walks(g: FiniteGroupoid, x0: int, x1: int, n_steps: int):
    """Deterministic stream of consistent link tuples from x0 to x1: one
    tuple of n_steps int morphism ids per history.  The interior slice
    objects of a history are the targets of all its links but the last.

    Lexicographic first in the interior object tuple, then in the per-step
    morphism indices.  This fixed order is the canonical summation order for
    every path sum downstream.  The histories are enumerated in arrays over
    the groupoid's hom tables (_walk_blocks) and handed out one link tuple
    each, so that every history is counted where it is yielded.
    """
    if n_steps < 1:
        raise ValueError("need at least one interval")
    if not (0 <= x0 < g.n_objects and 0 <= x1 < g.n_objects):
        raise IndexError(f"object pair ({x0}, {x1}) out of range for {g.n_objects} objects")
    for links in _walk_blocks(g, x0, x1, n_steps):
        yield from zip(*links.T.tolist())


def enumerate_histories(g: FiniteGroupoid, grid: TimeGrid, x0: int, x1: int):
    """Every future history on the grid from (x0, t_0) to (x1, t_N), each
    exactly once, in the canonical lexicographic order: from_links of each
    link tuple of link_walks."""
    for links in link_walks(g, x0, x1, grid.n_intervals):
        yield from_links(g, grid, links)


def _slice_chain(K: np.ndarray, weights, v: np.ndarray, steps: int) -> np.ndarray:
    """v (one start, or one per column) over steps more slices of K[y, x]: ints
    count histories, booleans find the reachable pairs, floats resum amplitudes."""
    for _ in range(steps):
        v = K @ (weights * v)
    return v


def _hom_power_counts(g: FiniteGroupoid, start: np.ndarray, n_steps: int) -> np.ndarray:
    """H^n_steps @ start by the slice chain in Python integers, H[y, x] =
    |hom(x, y)| from hom_arrays: entry y counts the histories of n_steps
    intervals that end at y, each weighted by start at its first object."""
    if n_steps < 1:
        raise ValueError("need at least one interval")
    n = g.n_objects
    return _slice_chain(g.hom_arrays[0].reshape(n, n).T.astype(object), 1, start, n_steps)


def count_histories(g: FiniteGroupoid, x0: int, x1: int, n_steps: int) -> int:
    """Exact count of the enumeration stream: entry (x1, x0) of the
    n_steps-th power of the hom-size matrix."""
    if not (0 <= x0 < g.n_objects and 0 <= x1 < g.n_objects):
        raise IndexError(f"object pair ({x0}, {x1}) out of range for {g.n_objects} objects")
    start = np.zeros(g.n_objects, dtype=object)
    start[x0] = 1
    return int(_hom_power_counts(g, start, n_steps)[x1])


def total_histories(g: FiniteGroupoid, n_steps: int) -> int:
    """Exact count of the histories between every pair of endpoint objects:
    the sum of all entries of the n_steps-th power of the hom-size matrix."""
    return int(_hom_power_counts(g, np.ones(g.n_objects, dtype=object), n_steps).sum())


# ---------------------------------------------------------------------------
# reduced words (free-product elements)


@dataclass(frozen=True)
class HistoryWord:
    """Reduced word of history segments in application order:
    segments[i].target == segments[i+1].source.  The empty word is anchored at
    its base point."""

    segments: tuple[History, ...]
    base: tuple[int, float]

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if a.target != b.source:
                raise ChainError("word segments do not chain")
        if self.segments and self.segments[0].source != self.base:
            raise ChainError("base point must be the source of the first segment")

    @property
    def source(self) -> tuple[int, float]:
        return self.segments[0].source if self.segments else self.base

    @property
    def target(self) -> tuple[int, float]:
        return self.segments[-1].target if self.segments else self.base

    @property
    def is_empty(self) -> bool:
        return not self.segments


def _try_merge(a: History, b: History):
    if a.orientation != b.orientation or a.target != b.source:
        return None
    return compose_histories(b, a)


def reduce_word(segments, base: tuple[int, float] | None = None) -> HistoryWord:
    """Cancel adjacent (segment, inverse) pairs and merge adjacent
    same-orientation segments until the word is reduced."""
    segs = list(segments)
    for a, b in zip(segs, segs[1:]):
        if a.target != b.source:
            raise ChainError(f"word segments do not chain at {a.target} vs {b.source}")
    if base is None:
        if not segs:
            raise ChainError("an empty word needs an explicit base point")
        base = segs[0].source
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(segs) - 1:
            a, b = segs[i], segs[i + 1]
            if b == invert_history(a):
                del segs[i:i + 2]
                changed = True
                i = max(i - 1, 0)
                continue
            merged = _try_merge(a, b)
            if merged is not None:
                segs[i:i + 2] = [merged]
                changed = True
                i = max(i - 1, 0)
                continue
            i += 1
    return HistoryWord(tuple(segs), base)
