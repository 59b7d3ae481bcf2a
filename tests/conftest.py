import itertools

import numpy as np
import pytest

import sumhist as sh


def small_groupoids():
    """Builtin instances with at most 50 morphisms."""
    return [
        sh.pair_groupoid(3),
        sh.pair_groupoid(5),
        sh.cyclic_groupoid(8),
        sh.product_with_group(2, sh.cyclic_groupoid(3)),
        sh.product_with_group(3, sh.cyclic_groupoid(5)),
    ]


def random_element(g, rng):
    m = g.n_morphisms
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def convolve_naive(f, h, m, rows=None):
    """Direct double-sum convolution, independent of the matrix route; only at
    the morphisms in rows (all by default), zero elsewhere."""
    g = m.groupoid
    out = np.zeros(g.n_morphisms, dtype=complex)
    for a in range(g.n_morphisms) if rows is None else rows:
        acc = 0.0 + 0.0j
        for gamma in range(g.n_morphisms):
            if g.target(gamma) != g.target(a):
                continue
            acc += m.fiber_weights[gamma] * f[gamma] * h[g.compose(g.inverse(gamma), a)]
        out[a] = acc
    return out


def involute_naive(f, m):
    g = m.groupoid
    delta = m.delta
    out = np.zeros(g.n_morphisms, dtype=complex)
    for a in range(g.n_morphisms):
        i = g.inverse(a)
        out[a] = np.conj(f[i]) * delta[i]
    return out


def symmetric_lagrangian(g, rng, scale=1.0):
    vals = scale * rng.standard_normal(g.n_morphisms)
    vals = 0.5 * (vals + vals[g.inverse_of])
    return sh.Lagrangian(g, vals)


def mutated_copy(g, rng):
    """Corrupt exactly one entry of the compose/inverse/unit tables."""
    import dataclasses
    kind = rng.choice(["compose", "inverse", "unit"])
    table = np.array(g.table)
    inv = np.array(g.inverse_of)
    unit = np.array(g.unit_of)
    M = g.n_morphisms
    if kind == "compose":
        a = int(rng.integers(M))
        b = int(rng.integers(M))
        old = table[a, b]
        choices = [v for v in range(-1, M) if v != old]
        table[a, b] = int(rng.choice(choices))
    elif kind == "inverse" and M > 1:
        m_id = int(rng.integers(M))
        choices = [v for v in range(M) if v != inv[m_id]]
        inv[m_id] = int(rng.choice(choices))
    else:
        x = int(rng.integers(g.n_objects))
        choices = [v for v in range(M) if v != unit[x]]
        if not choices:
            table[0, 0] = -1 if table[0, 0] != -1 else 0
        else:
            unit[x] = int(rng.choice(choices))
    return dataclasses.replace(g, table=table, inverse_of=inv, unit_of=unit)


def units_only_groupoid():
    """Two objects and only their units: no history joins the two objects."""
    import dataclasses
    return dataclasses.replace(
        sh.pair_groupoid(2), src=np.array([0, 1]), tgt=np.array([0, 1]),
        unit_of=np.array([0, 1]), inverse_of=np.array([0, 1]),
        table=np.array([[0, -1], [-1, 1]], dtype=np.int32))


def disjoint_union(parts):
    """The groupoid with the parts side by side, objects and morphisms
    numbered part after part; no morphism joins two parts."""
    M = sum(p.n_morphisms for p in parts)
    table = np.full((M, M), sh.UNDEFINED, dtype=np.int32)
    fields = [], [], [], []
    m0 = x0 = 0
    for p in parts:
        k = p.n_morphisms
        table[m0:m0 + k, m0:m0 + k] = np.where(p.table == sh.UNDEFINED, sh.UNDEFINED, p.table + m0)
        for out, arr in zip(fields, (p.src + x0, p.tgt + x0, p.unit_of + m0, p.inverse_of + m0)):
            out.append(arr)
        m0, x0 = m0 + k, x0 + p.n_objects
    return sh.FiniteGroupoid(x0, *map(np.concatenate, fields), table, name="union")


def stray_ends_groupoid():
    """pair:3 with some src/tgt entries outside 0..2, which no hom set or
    fiber may list."""
    import dataclasses
    g = sh.pair_groupoid(3)
    src, tgt = np.array(g.src), np.array(g.tgt)
    src[[1, 5]] = [-1, 3]
    tgt[[2, 5, 7]] = [3, -2, 7]
    return dataclasses.replace(g, src=src, tgt=tgt)


def hom_sets_by_scan(g):
    """{(a, b): [morphisms a -> b, ascending]} from one pass over the morphisms,
    independent of the groupoid's endpoint index."""
    hom = {}
    for m in range(g.n_morphisms):
        hom.setdefault((int(g.src[m]), int(g.tgt[m])), []).append(m)
    return hom


def product_walks(g, x0, x1, n_steps):
    """Reference stream: the itertools.product walk over interior objects and
    then hom sets that defined the canonical order of link_walks."""
    for mids in itertools.product(range(g.n_objects), repeat=n_steps - 1):
        chain = (x0, *mids, x1)
        homs = [g.hom_set(chain[k], chain[k + 1]) for k in range(n_steps)]
        if any(not h for h in homs):
            continue
        for links in itertools.product(*homs):
            yield links, mids


def random_history(g, rng, n_steps=None, grid=None):
    if grid is None:
        n = n_steps if n_steps is not None else int(rng.integers(1, 5))
        grid = sh.TimeGrid.uniform(0.0, float(n), n)
    links = []
    x = int(rng.integers(g.n_objects))
    for _ in range(grid.n_intervals):
        outgoing = [m for m in range(g.n_morphisms) if g.source(m) == x]
        m_id = int(rng.choice(outgoing))
        links.append(m_id)
        x = g.target(m_id)
    return sh.from_links(g, grid, links, x0=None if links else x)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
