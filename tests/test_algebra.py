import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumhist as sh

from conftest import convolve_naive, involute_naive, random_element, small_groupoids

TOL = 1e-12


def product_measure(n, object_w, source_w):
    """Left-invariant weighted measure on pair_groupoid(n):
    nu((y,x)) = object_w[y] * source_w[x]."""
    g = sh.pair_groupoid(n)
    return g, sh.GroupoidMeasure(g, np.asarray(object_w, float),
                                 np.asarray(source_w, float)[g.src])


def test_counting_measure_weights():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    assert np.array_equal(m.morphism_weights, np.ones(9))
    assert np.array_equal(m.delta, np.ones(9))


def test_integrate_indicator_and_constants():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    f = sh.delta_element(g, 4)
    assert sh.integrate(f, m) == pytest.approx(1.0)
    assert sh.integrate(np.ones(9), m) == pytest.approx(9.0)
    z4 = sh.cyclic_groupoid(4)
    assert sh.integrate(np.ones(4), sh.counting_measure(z4)) == pytest.approx(4.0)


def test_integrate_weighted_double_sum():
    # nu_obj = (2, 1), unit fiber weights on pair:2; integral of 1 is 2*2 + 1*2 = 6
    g = sh.pair_groupoid(2)
    m = sh.GroupoidMeasure(g, np.array([2.0, 1.0]), np.ones(4))
    assert sh.integrate(np.ones(4), m) == pytest.approx(6.0)


def test_measure_rejects_nonpositive_weights():
    g = sh.pair_groupoid(2)
    with pytest.raises(sh.MeasureError):
        sh.GroupoidMeasure(g, np.array([1.0, 0.0]), np.ones(4))


def test_modular_function_product_measure(rng):
    w = rng.uniform(0.5, 2.0, size=2)
    v = rng.uniform(0.5, 2.0, size=2)
    g, m = product_measure(2, w, v)
    delta = sh.modular_function(m)
    for mid in range(4):
        y, x = divmod(mid, 2)
        expect = (w[y] * v[x]) / (w[x] * v[y])
        assert delta[mid] == pytest.approx(expect, rel=1e-14)
    # units are fixed points
    assert delta[g.unit(0)] == pytest.approx(1.0)
    assert delta[g.unit(1)] == pytest.approx(1.0)
    # direct ratio oracle
    nu = m.morphism_weights
    assert np.allclose(delta, nu / nu[g.inverse_of])


def test_modular_function_rejects_non_multiplicative(rng):
    g = sh.pair_groupoid(3)
    fw = rng.uniform(0.5, 2.0, size=9)
    m = sh.GroupoidMeasure(g, np.ones(3), fw)
    with pytest.raises(sh.MeasureError):
        sh.modular_function(m)


def test_convolution_of_deltas_follows_composition():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    zy, yx = 2 * 3 + 1, 1 * 3 + 0
    out = sh.convolve(sh.delta_element(g, zy), sh.delta_element(g, yx), m)
    expect = sh.delta_element(g, g.compose(zy, yx))
    assert np.allclose(out, expect)


def test_convolution_deltas_vanish_when_disjoint():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    out = sh.convolve(sh.delta_element(g, 2 * 3 + 1),
                      sh.delta_element(g, 2 * 3 + 0), m)
    assert np.allclose(out, 0.0)


def test_unit_element_is_identity(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    u = sh.unit_element(g)
    for _ in range(20):
        f = random_element(g, rng)
        assert np.max(np.abs(sh.convolve(u, f, m) - f)) <= TOL
        assert np.max(np.abs(sh.convolve(f, u, m) - f)) <= TOL


def test_convolve_matches_naive_oracle(rng):
    for g in small_groupoids():
        m = sh.counting_measure(g)
        f, h = random_element(g, rng), random_element(g, rng)
        assert np.max(np.abs(sh.convolve(f, h, m) - convolve_naive(f, h, m))) <= TOL


def test_convolve_matches_naive_and_matrix_under_weighted_measures(rng):
    # pair:48 has 2304 morphisms: the naive double sum runs on 40 seeded rows
    big = sh.pair_groupoid(48)
    cases = [(g, None) for g in small_groupoids()]
    cases.append((big, np.sort(rng.choice(big.n_morphisms, 40, replace=False))))
    for g, rows in cases:
        w = rng.uniform(0.5, 1.5, g.n_objects)
        v = rng.uniform(0.5, 1.5, g.n_objects)
        m = sh.GroupoidMeasure(g, w, v[g.src])   # left-invariant: fiber weight by source
        f, h = random_element(g, rng), random_element(g, rng)
        out = sh.convolve(f, h, m)
        assert np.max(np.abs(out - sh.left_regular(f, m) @ h)) <= TOL
        picked = slice(None) if rows is None else rows
        assert np.max(np.abs(out[picked] - convolve_naive(f, h, m, rows)[picked])) <= TOL


def test_convolve_allocates_per_fiber():
    # the dense left_regular of pair:48 alone is 2304^2 complex values, 85 MB
    g = sh.pair_groupoid(48)
    rng = np.random.default_rng(7)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 1.5, 48), np.ones(g.n_morphisms))
    f, h = random_element(g, rng), random_element(g, rng)
    tracemalloc.start()
    try:
        sh.convolve(f, h, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_pair_48_measure_modular_and_convolve_build_no_table():
    # the int32 composition table of pair:48 alone is 2304^2 * 4 bytes, 21 MB
    rng = np.random.default_rng(11)
    tracemalloc.start()
    try:
        g = sh.resolve_groupoid("pair:48")
        m = sh.GroupoidMeasure(g, rng.uniform(0.5, 1.5, 48), np.ones(g.n_morphisms))
        sh.modular_function(m)
        sh.convolve(random_element(g, rng), random_element(g, rng), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_involution_is_involutive(rng):
    g, m = product_measure(3, [1.0, 2.0, 0.5], [1.5, 1.0, 2.0])
    for _ in range(10):
        f = random_element(g, rng)
        assert np.max(np.abs(sh.involute(sh.involute(f, m), m) - f)) <= TOL
        assert np.max(np.abs(sh.involute(f, m) - involute_naive(f, m))) <= TOL


def test_involution_swaps_deltas():
    g = sh.pair_groupoid(2)
    m = sh.counting_measure(g)
    out = sh.involute(sh.delta_element(g, 1 * 2 + 0), m)
    assert np.allclose(out, sh.delta_element(g, 0 * 2 + 1))


def test_involution_antihomomorphism(rng):
    g = sh.pair_groupoid(3)
    for m in (sh.counting_measure(g),
              product_measure(3, [1.0, 2.0, 0.5], [1.5, 1.0, 2.0])[1]):
        for _ in range(50):
            f, h = random_element(g, rng), random_element(g, rng)
            lhs = sh.involute(sh.convolve(f, h, m), m)
            rhs = sh.convolve(sh.involute(h, m), sh.involute(f, m), m)
            assert np.max(np.abs(lhs - rhs)) <= TOL


def test_convolution_associative(rng):
    for g in small_groupoids():
        m = sh.counting_measure(g)
        for _ in range(10):
            f, h, k = (random_element(g, rng) for _ in range(3))
            lhs = sh.convolve(sh.convolve(f, h, m), k, m)
            rhs = sh.convolve(f, sh.convolve(h, k, m), m)
            assert np.max(np.abs(lhs - rhs)) <= TOL
    # also with a left-invariant weighted measure
    g, m = product_measure(3, [1.0, 2.0, 0.5], [1.5, 1.0, 2.0])
    for _ in range(10):
        f, h, k = (random_element(g, rng) for _ in range(3))
        lhs = sh.convolve(sh.convolve(f, h, m), k, m)
        rhs = sh.convolve(f, sh.convolve(h, k, m), m)
        assert np.max(np.abs(lhs - rhs)) <= TOL


def test_left_regular_of_unit_is_identity():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    assert np.allclose(sh.left_regular(sh.unit_element(g), m), np.eye(9))


def test_left_regular_is_homomorphism(rng):
    for g in small_groupoids():
        m = sh.counting_measure(g)
        for _ in range(10):
            f, h = random_element(g, rng), random_element(g, rng)
            lhs = sh.left_regular(sh.convolve(f, h, m), m)
            rhs = sh.left_regular(f, m) @ sh.left_regular(h, m)
            assert np.linalg.norm(lhs - rhs, 2) <= TOL * max(1, np.linalg.norm(rhs, 2))


def test_left_regular_star_is_adjoint(rng):
    g, m = product_measure(3, [1.0, 2.0, 0.5], [1.5, 1.0, 2.0])
    for _ in range(20):
        f = random_element(g, rng)
        lhs = sh.left_regular(sh.involute(f, m), m)
        rhs = sh.adjoint_matrix(sh.left_regular(f, m), m)
        assert np.max(np.abs(lhs - rhs)) <= TOL
    # and the defining inner-product identity
    for _ in range(10):
        f = random_element(g, rng)
        psi, phi = random_element(g, rng), random_element(g, rng)
        a = sh.inner(psi, sh.convolve(f, phi, m), m)
        b = sh.inner(sh.convolve(sh.involute(f, m), psi, m), phi, m)
        assert abs(a - b) <= TOL * max(1.0, abs(a))


def test_integrate_factorizes_through_matrix(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    f, h = random_element(g, rng), random_element(g, rng)
    direct = sh.integrate(sh.convolve(f, h, m), m)
    via_matrix = complex(m.morphism_weights @ (sh.left_regular(f, m) @ h))
    assert abs(direct - via_matrix) <= TOL


def test_measure_csv_round_trip(tmp_path, rng):
    from sumhist.io import (fiber_weights_csv, load_weights_csv,
                            object_weights_csv)
    g = sh.pair_groupoid(3)
    ow = rng.uniform(0.5, 2.0, 3)
    fw = rng.uniform(0.5, 2.0, 9)
    object_weights_csv(ow, tmp_path / "ow.csv")
    fiber_weights_csv(fw, tmp_path / "fw.csv")
    assert np.array_equal(load_weights_csv(tmp_path / "ow.csv", 3, "object_id", "weight"), ow)
    assert np.array_equal(load_weights_csv(tmp_path / "fw.csv", 9, "morphism_id", "fiber_weight"), fw)


# property tests of the algebra laws on builtins under a seeded left-invariant
# measure: object weights free, fiber weights a function of the source only
BUILTINS = ([f"pair:{n}" for n in range(1, 5)] + [f"cyclic:{k}" for k in range(1, 6)]
            + ["pair_x_cyclic:2,2", "pair_x_cyclic:2,3"])
LAWS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def seeded_case(name, seed, n_elements):
    g = sh.resolve_groupoid(name)
    rng = np.random.default_rng(seed)
    m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, g.n_objects),
                           rng.uniform(0.5, 2.0, g.n_objects)[g.src])
    return g, m, [random_element(g, rng) for _ in range(n_elements)]


def close(a, b):
    return np.max(np.abs(a - b)) <= TOL * max(1.0, np.max(np.abs(b)))


@LAWS
@given(name=st.sampled_from(BUILTINS), seed=st.integers(0, 2 ** 32 - 1))
def test_property_convolution_is_associative(name, seed):
    g, m, (f, h, k) = seeded_case(name, seed, 3)
    assert close(sh.convolve(sh.convolve(f, h, m), k, m),
                 sh.convolve(f, sh.convolve(h, k, m), m))


@LAWS
@given(name=st.sampled_from(BUILTINS), seed=st.integers(0, 2 ** 32 - 1))
def test_property_involution_is_an_involutive_antihomomorphism(name, seed):
    g, m, (f, h) = seeded_case(name, seed, 2)
    assert close(sh.involute(sh.involute(f, m), m), f)
    assert close(sh.involute(sh.convolve(f, h, m), m),
                 sh.convolve(sh.involute(h, m), sh.involute(f, m), m))


@LAWS
@given(name=st.sampled_from(BUILTINS))
def test_property_builtins_satisfy_the_axioms(name):
    assert sh.validate_axioms(sh.resolve_groupoid(name)).ok
