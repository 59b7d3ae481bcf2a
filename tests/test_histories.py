import itertools

import numpy as np
import pytest

import sumhist as sh

from conftest import (disjoint_union, hom_sets_by_scan, product_walks, random_history,
                      small_groupoids, stray_ends_groupoid, units_only_groupoid)


def test_from_links_pair_example():
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 2.0, 2)
    w = sh.from_links(g, grid, [1 * 3 + 0, 2 * 3 + 1])
    assert w.accumulated == (0 * 3 + 0, 1 * 3 + 0, 2 * 3 + 0)
    assert w.source == (0, 0.0)
    assert w.target == (2, 2.0)


def test_from_links_empty_gives_trivial():
    g = sh.pair_groupoid(2)
    w = sh.from_links(g, sh.TimeGrid.single(0.5), [], x0=1)
    assert w == sh.trivial_history(g, 1, 0.5)
    assert sh.links_of(w) == ()


def test_from_links_rejects_inconsistent():
    g = sh.pair_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    with pytest.raises(sh.ChainError):
        sh.from_links(g, grid, [1 * 3 + 0, 2 * 3 + 0])  # tgt=1 then src=0


def test_links_round_trip(rng):
    for g in small_groupoids():
        for _ in range(20):
            w = random_history(g, rng)
            links = sh.links_of(w)
            assert sh.from_links(g, w.grid, links) == w
    # and links_of . from_links is the identity on link sequences
    g = sh.pair_groupoid(4)
    for _ in range(100):
        w = random_history(g, rng)
        links = sh.links_of(w)
        assert sh.links_of(sh.from_links(g, w.grid, links)) == links


def test_single_link_history():
    g = sh.pair_groupoid(2)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 1)
    m = 1 * 2 + 0
    w = sh.from_links(g, grid, [m])
    assert sh.links_of(w) == (m,)


def test_accumulated_units_and_cocycle(rng):
    g = sh.pair_groupoid(4)
    for _ in range(10):
        w = random_history(g, rng, n_steps=4)
        n = len(w.accumulated)
        for k in range(n):
            assert g.is_unit(sh.accumulated(w, k, k))
        for l, j, k in itertools.product(range(n), repeat=3):
            assert sh.accumulated(w, l, k) == g.compose(sh.accumulated(w, l, j),
                                                        sh.accumulated(w, j, k))
        for l, k in itertools.product(range(n), repeat=2):
            assert sh.accumulated(w, k, l) == g.inverse(sh.accumulated(w, l, k))


def test_past_accumulated_is_the_inverse_of_the_future(rng):
    # past x_l -> x_k against future x_k -> x_l, on a groupoid with a group factor
    g = sh.builtin_groupoid("pair_x_cyclic:2,3")
    for _ in range(20):
        w = random_history(g, rng, n_steps=3)
        past = sh.invert_history(w)
        for l, k in itertools.product(range(len(w.accumulated)), repeat=2):
            assert sh.accumulated(past, l, k) == g.inverse(sh.accumulated(w, l, k))


def test_accumulated_range_check(rng):
    w = random_history(sh.pair_groupoid(2), rng, n_steps=2)
    with pytest.raises(IndexError):
        sh.accumulated(w, 0, 5)


def test_composition_restriction_property(rng):
    g = sh.pair_groupoid(3)
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w1 = random_history(g, rng, grid=sh.TimeGrid.uniform(0.0, n1, n1))
        # build w2 starting where w1 ends
        x = w1.target[0]
        grid2 = sh.TimeGrid.uniform(float(n1), float(n1 + n2), n2)
        links = []
        for _ in range(n2):
            nxt = int(rng.integers(3))
            links.append(nxt * 3 + x)
            x = nxt
        w2 = sh.from_links(g, grid2, links)
        w = sh.compose_histories(w2, w1)
        assert sh.restrict(w, grid2.times[0], grid2.times[-1]) == w2
        assert sh.restrict(w, w1.grid.times[0], w1.grid.times[-1]) == w1


def test_composition_with_trivial_is_identity(rng):
    g = sh.pair_groupoid(3)
    w = random_history(g, rng, grid=sh.TimeGrid.uniform(0.0, 3.0, 3))
    unit = sh.trivial_history(g, w.source[0], w.source[1])
    assert sh.compose_histories(w, unit) == w


def test_composition_associative(rng):
    g = sh.pair_groupoid(3)
    for _ in range(20):
        ws = []
        start = 0.0
        x = int(rng.integers(3))
        for _ in range(3):
            n = int(rng.integers(1, 3))
            grid = sh.TimeGrid.uniform(start, start + n, n)
            links = []
            for _ in range(n):
                nxt = int(rng.integers(3))
                links.append(nxt * 3 + x)
                x = nxt
            ws.append(sh.from_links(g, grid, links))
            start += n
        w1, w2, w3 = ws
        lhs = sh.compose_histories(w3, sh.compose_histories(w2, w1))
        rhs = sh.compose_histories(sh.compose_histories(w3, w2), w1)
        assert lhs == rhs


def test_composition_endpoint_mismatch(rng):
    g = sh.pair_groupoid(2)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 2 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(2, 3, 1), [1 * 2 + 0])
    with pytest.raises(sh.ChainError):
        sh.compose_histories(w2, w1)


def test_invert_twice_is_identity(rng):
    g = sh.pair_groupoid(3)
    for _ in range(10):
        w = random_history(g, rng)
        assert sh.invert_history(sh.invert_history(w)) == w


def test_invert_entrywise(rng):
    g = sh.pair_groupoid(3)
    w = random_history(g, rng, n_steps=3)
    wi = sh.invert_history(w)
    assert wi.orientation == sh.PAST
    assert wi.accumulated == tuple(g.inverse(m) for m in w.accumulated)
    assert wi.source == w.target and wi.target == w.source


def test_word_of_history_and_inverse_is_empty(rng):
    g = sh.pair_groupoid(3)
    w = random_history(g, rng, n_steps=3)
    word = sh.reduce_word([w, sh.invert_history(w)])
    assert word.is_empty
    assert word.base == w.source


def test_change_reference_examples(rng):
    g = sh.pair_groupoid(4)
    w = random_history(g, rng, n_steps=4)
    t0 = w.grid.times[0]
    assert sh.change_reference(w, t0) == w.accumulated
    for j, tau in enumerate(w.grid.times):
        re_anchored = sh.change_reference(w, tau)
        assert g.is_unit(re_anchored[j])
        # accumulated transitions are reference independent
        for l in range(len(w.accumulated)):
            for k in range(len(w.accumulated)):
                val = g.compose(re_anchored[l], g.inverse(re_anchored[k]))
                assert val == sh.accumulated(w, l, k)


def test_change_reference_off_grid(rng):
    w = random_history(sh.pair_groupoid(2), rng, n_steps=2)
    with pytest.raises(sh.GridError):
        sh.change_reference(w, 17.5)


def test_restrict_agreement(rng):
    g = sh.pair_groupoid(3)
    for _ in range(30):
        w = random_history(g, rng, n_steps=5)
        i = int(rng.integers(0, 5))
        j = int(rng.integers(i, 6))
        sub = sh.restrict(w, w.grid.times[i], w.grid.times[j])
        for l in range(j - i + 1):
            for k in range(j - i + 1):
                assert sh.accumulated(sub, l, k) == sh.accumulated(w, l + i, k + i)
    w = random_history(g, rng, n_steps=3)
    assert sh.restrict(w, w.grid.times[0], w.grid.times[-1]) == w
    point = sh.restrict(w, w.grid.times[1], w.grid.times[1])
    assert point.grid.n_intervals == 0 and g.is_unit(point.accumulated[0])


def test_enumeration_counts_pair():
    g = sh.pair_groupoid(4)
    for n in (1, 2, 3, 4):
        grid = sh.TimeGrid.uniform(0.0, 1.0, n)
        count = sum(1 for _ in sh.enumerate_histories(g, grid, 0, 2))
        assert count == 4 ** (n - 1)
        assert sh.count_histories(g, 0, 2, n) == count


def test_history_counts_are_exact_integers():
    # 64**11 = 2**66 is past int64; 3**41 is past float64's 2**53 and odd
    assert sh.total_histories(sh.pair_groupoid(64), 10) == 64 ** 11
    g = sh.pair_groupoid(3)
    assert sh.total_histories(g, 40) == 3 ** 41 != int(float(3 ** 41))
    assert sh.count_histories(g, 0, 2, 40) == 3 ** 39
    pg = sh.product_with_group(2, sh.cyclic_groupoid(3))
    assert sh.total_histories(pg, 5) == sum(sh.count_histories(pg, x0, x1, 5)
                                            for x0 in range(2) for x1 in range(2))
    with pytest.raises(ValueError):
        sh.count_histories(g, 0, 2, 0)
    with pytest.raises(IndexError):
        sh.count_histories(g, 0, 3, 2)


def test_enumeration_group_fixed_total(rng):
    # over a group, histories with a prescribed total transition number
    # |G|^(N-1) for each total, by brute-force classification
    z3 = sh.cyclic_groupoid(3)
    grid = sh.TimeGrid.uniform(0.0, 1.0, 4)
    totals = {}
    for w in sh.enumerate_histories(z3, grid, 0, 0):
        totals.setdefault(w.accumulated[-1], 0)
        totals[w.accumulated[-1]] += 1
    assert totals == {gg: 3 ** 3 for gg in range(3)}


def test_enumeration_single_interval_matches_hom_set():
    g = sh.product_with_group(2, sh.cyclic_groupoid(2))
    grid = sh.TimeGrid.uniform(0.0, 1.0, 1)
    links = [sh.links_of(w)[0] for w in sh.enumerate_histories(g, grid, 0, 1)]
    assert tuple(links) == g.hom_set(0, 1)


def test_enumeration_complete_and_duplicate_free():
    cases = [(sh.product_with_group(2, sh.cyclic_groupoid(2)), 3),
             (sh.pair_groupoid(3), 4)]
    for g, steps in cases:
        grid = sh.TimeGrid.uniform(0.0, 1.0, steps)
        brute = set()
        for links in itertools.product(range(g.n_morphisms), repeat=steps):
            ok = (g.source(links[0]) == 0 and g.target(links[-1]) == 1
                  and all(g.source(links[k + 1]) == g.target(links[k])
                          for k in range(steps - 1)))
            if ok:
                brute.add(links)
        seen = set()
        for w in sh.enumerate_histories(g, grid, 0, 1):
            links = sh.links_of(w)
            assert links not in seen
            seen.add(links)
        assert seen == brute


def test_empty_stream_when_unreachable():
    # bare cyclic group seen as a one-object groupoid always connects, so use a
    # description with two components: two isolated objects (units only)
    import dataclasses
    g = sh.pair_groupoid(2)
    # restrict to the unit morphisms only via a custom table
    units = dataclasses.replace(
        g,
        src=np.array([0, 1]), tgt=np.array([0, 1]),
        unit_of=np.array([0, 1]), inverse_of=np.array([0, 1]),
        table=np.array([[0, -1], [-1, 1]], dtype=np.int32))
    grid = sh.TimeGrid.uniform(0.0, 1.0, 2)
    assert list(sh.enumerate_histories(units, grid, 0, 1)) == []


def test_restrict_commutes_with_inversion(rng):
    g = sh.pair_groupoid(3)
    for _ in range(20):
        w = random_history(g, rng, n_steps=5)
        i = int(rng.integers(0, 5))
        j = int(rng.integers(i, 6))
        t_lo, t_hi = w.grid.times[i], w.grid.times[j]
        lhs = sh.restrict(sh.invert_history(w), t_lo, t_hi)
        rhs = sh.invert_history(sh.restrict(w, t_lo, t_hi))
        assert lhs == rhs


def test_change_reference_commutes_with_inversion(rng):
    g = sh.pair_groupoid(3)
    for _ in range(20):
        w = random_history(g, rng, n_steps=4)
        tau = w.grid.times[int(rng.integers(5))]
        lhs = sh.change_reference(sh.invert_history(w), tau)
        rhs = tuple(g.inverse(m) for m in sh.change_reference(w, tau))
        assert lhs == rhs


def test_word_merge_same_orientation(rng):
    g = sh.pair_groupoid(3)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(1, 2, 1), [2 * 3 + 1])
    word = sh.reduce_word([w1, w2])
    assert len(word.segments) == 1
    assert word.segments[0] == sh.compose_histories(w2, w1)


def test_word_mixed_orientation_does_not_merge():
    g = sh.pair_groupoid(3)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 0])
    w2f = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 2])
    w2 = sh.invert_history(w2f)  # past segment ending where w1 ends
    word = sh.reduce_word([w1, w2])
    assert len(word.segments) == 2
    assert word.source == w1.source and word.target == w2.target


def test_compose_histories_routes_mixed_orientation_to_words():
    g = sh.pair_groupoid(3)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 0])
    w2 = sh.invert_history(sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 2]))
    out = sh.compose_histories(w2, w1)
    assert isinstance(out, sh.HistoryWord)


def test_past_composition_matches_inverted_future(rng):
    g = sh.pair_groupoid(3)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(1, 2, 1), [2 * 3 + 1])
    future = sh.compose_histories(w2, w1)
    past = sh.compose_histories(sh.invert_history(w1), sh.invert_history(w2))
    assert past == sh.invert_history(future)


def test_word_reduction_confluent(rng):
    # random reduction order gives the same reduced word
    g = sh.pair_groupoid(3)
    for _ in range(30):
        w1 = random_history(g, rng, grid=sh.TimeGrid.uniform(0, 2, 2))
        w2 = sh.invert_history(w1)
        x1, t1 = w1.target
        w3_links = []
        x = x1
        for _ in range(2):
            nxt = int(rng.integers(3))
            w3_links.append(nxt * 3 + x)
            x = nxt
        w3 = sh.from_links(g, sh.TimeGrid.uniform(2, 4, 2), w3_links)
        segments = [w1, w2, w1, w3]

        def reduce_random(segs):
            segs = list(segs)
            while True:
                moves = []
                for i in range(len(segs) - 1):
                    a, b = segs[i], segs[i + 1]
                    if b == sh.invert_history(a):
                        moves.append(("cancel", i))
                    elif a.orientation == b.orientation and a.target == b.source:
                        moves.append(("merge", i))
                if not moves:
                    return sh.HistoryWord(tuple(segs), segs[0].source if segs else w1.source)
                kind, i = moves[int(rng.integers(len(moves)))]
                if kind == "cancel":
                    del segs[i:i + 2]
                else:
                    segs[i:i + 2] = [sh.compose_histories(segs[i + 1], segs[i])]

        expect = sh.reduce_word(segments)
        got = reduce_random(segments)
        assert got.segments == expect.segments


def test_word_rejects_broken_chain():
    g = sh.pair_groupoid(3)
    w1 = sh.from_links(g, sh.TimeGrid.uniform(0, 1, 1), [1 * 3 + 0])
    w2 = sh.from_links(g, sh.TimeGrid.uniform(5, 6, 1), [2 * 3 + 1])
    with pytest.raises(sh.ChainError):
        sh.reduce_word([w1, w2])


def test_history_length_conventions(rng):
    w = random_history(sh.pair_groupoid(2), rng, n_steps=3)
    assert w.n_intervals == 3
    assert w.length == 4  # link count including the normalising unit


def test_grid_validation():
    with pytest.raises(sh.GridError):
        sh.TimeGrid((0.0, 0.0))
    with pytest.raises(sh.GridError):
        sh.TimeGrid(())
    g = sh.TimeGrid.uniform(0.0, 1.0, 4)
    assert g.n_intervals == 4
    assert g.index_of(0.75) == 3
    with pytest.raises(sh.GridError):
        g.index_of(0.33)


# ---------------------------------------------------------------------------
# the array-backed link_walks stream against the itertools.product walk


ORDER_GROUPOIDS = ["pair:3", "pair:4", "cyclic:3", "pair_x_cyclic:2,3", "units-only",
                   "pair:2+pair:3"]


def order_groupoid(name):
    if name == "units-only":
        return units_only_groupoid()
    if name == "pair:2+pair:3":     # one morphism per hom set, and empty hom sets
        return disjoint_union([sh.pair_groupoid(2), sh.pair_groupoid(3)])
    return sh.resolve_groupoid(name)


def assert_walks_match(g, got, want):
    """link_walks' tuples against product_walks' (links, mids) pairs: the
    same links in the same order, and mids are the links' targets."""
    assert got == [links for links, _ in want]
    for links, (_, mids) in zip(got, want):
        assert g.tgt[list(links[:-1])].tolist() == list(mids)


@pytest.mark.parametrize("name", ORDER_GROUPOIDS)
def test_link_walks_order_equals_the_product_walk(name):
    g = order_groupoid(name)
    for n in range(1, 5):
        for x0, x1 in itertools.product(range(g.n_objects), repeat=2):
            got = list(sh.link_walks(g, x0, x1, n))
            assert_walks_match(g, got, list(product_walks(g, x0, x1, n)))
            assert len(got) == sh.count_histories(g, x0, x1, n)
            assert all(type(v) is int for links in got for v in links)


@pytest.mark.parametrize("name, n, x0, x1", [
    ("pair:6", 5, 2, 4),                # 1296 interior tuples: two interior blocks
    ("pair_x_cyclic:2,2", 7, 0, 1),     # 8192 histories over 64 interior tuples
    ("pair:2", 12, 0, 1),               # 2048 interior tuples: two full blocks of one morphism
])
def test_link_walks_order_across_block_boundaries(name, n, x0, x1):
    g = sh.resolve_groupoid(name)
    got = list(sh.link_walks(g, x0, x1, n))
    assert len(got) > sh.histories.BLOCK
    assert_walks_match(g, got, list(product_walks(g, x0, x1, n)))


def test_link_walks_refuses_objects_out_of_range():
    g = sh.pair_groupoid(2)
    for x0, x1 in ((2, 0), (0, -1)):
        with pytest.raises(IndexError, match="out of range"):
            next(sh.link_walks(g, x0, x1, 2))
    with pytest.raises(ValueError, match="at least one interval"):
        next(sh.link_walks(g, 0, 1, 0))


def test_hom_arrays_list_every_hom_set_in_order():
    for g in small_groupoids() + [stray_ends_groupoid()]:
        n = g.n_objects
        scan = hom_sets_by_scan(g)
        sizes, homs = g.hom_arrays
        width = max((len(scan.get((a, b), ()))
                     for a, b in itertools.product(range(n), repeat=2)), default=0)
        assert sizes.shape == (n * n,) and homs.shape == (n * n, max(width, 1))
        for a, b in itertools.product(range(n), repeat=2):
            hom = scan.get((a, b), [])
            ab = a * n + b
            assert sizes[ab] == len(hom)
            assert homs[ab, :len(hom)].tolist() == hom
            assert (homs[ab, len(hom):] == sh.UNDEFINED).all()
        for arr in (sizes, homs):
            assert arr.dtype == np.intp and not arr.flags.writeable
        assert g.hom_arrays is g.hom_arrays   # cached on the groupoid
