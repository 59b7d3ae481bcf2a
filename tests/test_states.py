import numpy as np
import pytest

import sumhist as sh
from sumhist.action import REAL_PHASE, phase_factor

from conftest import convolve_naive, involute_naive, random_element, symmetric_lagrangian

TOL = 1e-12


def form_value_naive(phi, f, m):
    """integral of phi * (f* ⋆ f) computed entirely with the naive algebra ops."""
    g = m.groupoid
    ff = convolve_naive(involute_naive(f, m), f, m)
    return complex(np.sum(m.morphism_weights * phi * ff))


def pair_potential_state(g, rng, uniform_p=False):
    """Factorized candidate on a pair groupoid: additive phase S(y,x)=h(y)-h(x)."""
    n = g.n_objects
    h = rng.standard_normal(n)
    s = h[g.tgt] - h[g.src]
    p = np.full(n, 1.0 / n) if uniform_p else rng.uniform(0.2, 1.0, n)
    if not uniform_p:
        p = p / p.sum()
    return sh.PhaseState(g, p, s)


def test_form_matrix_constant_function_on_group_is_psd():
    z2 = sh.cyclic_groupoid(2)
    m = sh.counting_measure(z2)
    Q = sh.positivity_form(np.ones(2, dtype=complex), m)
    assert np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))[0] >= -TOL


def test_form_matrix_matches_direct_double_sum(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    phi = state.values
    Q = sh.positivity_form(phi, m)
    for _ in range(100):
        f = random_element(g, rng)
        quad = complex(np.conj(f) @ Q @ f)
        assert abs(quad - form_value_naive(phi, f, m)) <= TOL


def test_form_matrix_matches_double_sum_weighted_measure(rng):
    # the form expansion is purely algebraic: exact for arbitrary weights
    g = sh.pair_groupoid(2)
    w = rng.uniform(0.5, 2.0, 2)
    v = rng.uniform(0.5, 2.0, 2)
    m = sh.GroupoidMeasure(g, w, v[g.src])
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    Q = sh.positivity_form(phi, m)
    for _ in range(50):
        f = random_element(g, rng)
        quad = complex(np.conj(f) @ Q @ f)
        assert abs(quad - form_value_naive(phi, f, m)) <= TOL


def test_unit_indicator_is_positive_type():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    phi = sh.unit_element(g)  # characteristic function of the unit subgroupoid
    cert = sh.certify_positive_type(phi, m)
    assert cert.verdict == "positive"


def test_factorized_state_is_positive(rng):
    g = sh.pair_groupoid(2)
    m = sh.counting_measure(g)
    # uniform density, vanishing phase
    flat = sh.PhaseState(g, np.full(2, 0.5), np.zeros(4))
    cert = sh.certify_positive_type(flat.values, m)
    assert cert.verdict == "positive"
    # uniform density, random additive phase
    state = pair_potential_state(g, rng, uniform_p=True)
    cert = sh.certify_positive_type(state.values, m)
    assert cert.verdict == "positive"
    assert cert.min_eigenvalue >= -1e-10


def test_indefinite_candidate_detected():
    # phi vanishing on units, 1 on the two non-unit morphisms of pair:2
    g = sh.pair_groupoid(2)
    m = sh.counting_measure(g)
    phi = np.ones(4, dtype=complex)
    phi[g.unit_of] = 0.0
    Q = sh.positivity_form(phi, m)
    eigs = np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))
    assert eigs[0] < -0.5  # eigenvalue oracle: genuinely indefinite
    cert = sh.certify_positive_type(phi, m)
    assert cert.verdict == "indefinite"


@pytest.mark.parametrize("name", ["pair:5", "cyclic:6", "pair_x_cyclic:3,4"])
@pytest.mark.parametrize("positive", [True, False])
def test_blockwise_certificate_matches_the_dense_spectrum(rng, name, positive):
    g = sh.resolve_groupoid(name)
    w = rng.uniform(0.5, 1.5, g.n_objects)
    m = sh.GroupoidMeasure(g, w, rng.uniform(0.5, 1.5, g.n_objects)[g.src])
    dens = rng.uniform(0.5, 1.5, g.n_objects)
    if positive:        # an additive phase s(tgt) - s(src): of positive type
        s = rng.uniform(-np.pi, np.pi, g.n_objects)
        phi = sh.PhaseState(g, dens, s[g.tgt] - s[g.src]).values
    else:               # seeded phase noise, which is not
        phi = sh.PhaseState(g, dens, rng.uniform(-np.pi, np.pi, g.n_morphisms)).values
    Q = sh.positivity_form(phi, m)
    dense = np.linalg.eigvalsh(0.5 * (Q + Q.conj().T))[0]
    cert = sh.certify_positive_type(phi, m)
    assert abs(cert.min_eigenvalue - dense) <= 1e-12
    assert cert.hermiticity_defect == float(np.max(np.abs(Q - Q.conj().T)))
    assert cert.form_matrix_dim == g.n_morphisms
    assert cert.verdict == ("positive" if positive else "indefinite")


def test_zero_candidate_positive_at_zero_tolerance():
    g = sh.pair_groupoid(2)
    m = sh.counting_measure(g)
    cert = sh.certify_positive_type(np.zeros(4, dtype=complex), m, tol=0.0)
    assert cert.verdict == "positive"
    assert cert.min_eigenvalue == 0.0


def test_state_value_on_unit_indicator():
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    phi = np.arange(9, dtype=complex)
    f = sh.delta_element(g, g.unit(1))
    assert sh.state_value(phi, f, m) == pytest.approx(phi[g.unit(1)])


def test_normalized_state_on_algebra_unit(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    assert sh.is_normalized(state.values, m)
    assert sh.state_value(state.values, sh.unit_element(g), m) == pytest.approx(1.0)


def test_state_positive_on_star_squares(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    phi = pair_potential_state(g, rng).values
    for _ in range(100):
        f = random_element(g, rng)
        v = sh.state_value(phi, sh.convolve(sh.involute(f, m), f, m), m)
        assert v.real >= -TOL
        assert abs(v.imag) <= TOL


def test_gns_vector_on_unit_delta(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    a = 1
    vec = sh.gns_vector(state, sh.delta_element(g, g.unit(a)), m)
    expect = np.zeros(3, dtype=complex)
    expect[a] = np.sqrt(state.density[a])
    assert np.max(np.abs(vec - expect)) <= TOL


def test_gns_vector_linearity(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    f, h = random_element(g, rng), random_element(g, rng)
    lhs = sh.gns_vector(state, f + h, m)
    rhs = sh.gns_vector(state, f, m) + sh.gns_vector(state, h, m)
    assert np.max(np.abs(lhs - rhs)) <= TOL


def test_positivity_identity_form_equals_vector_norm(rng):
    # the quadratic form of the state equals the squared norm of the collected
    # target amplitudes, computed through two independent code paths
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    phi = state.values
    for _ in range(100):
        f = random_element(g, rng)
        lhs = form_value_naive(phi, f, m)
        rhs = sh.gns_norm_sq(sh.gns_vector(state, f, m), m)
        assert abs(lhs - rhs) <= TOL * max(1.0, abs(lhs))


def test_gns_unit_acts_as_identity(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    f = random_element(g, rng)
    lhs = sh.gns_vector(state, sh.convolve(sh.unit_element(g), f, m), m)
    assert np.max(np.abs(lhs - sh.gns_vector(state, f, m))) <= TOL


def test_gns_homomorphism(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    for _ in range(50):
        a, b, f = (random_element(g, rng) for _ in range(3))
        v = sh.gns_vector(state, f, m)
        lhs = sh.gns_matrix(state, convolve_naive(a, b, m), m) @ v
        rhs = sh.gns_matrix(state, a, m) @ (sh.gns_matrix(state, b, m) @ v)
        assert np.max(np.abs(lhs - rhs)) <= TOL
        # and the vector of the product agrees with the matrix route
        direct = sh.gns_vector(state, sh.convolve(a, f, m), m)
        assert np.max(np.abs(direct - sh.gns_matrix(state, a, m) @ v)) <= TOL


def test_gns_cyclic_vector(rng):
    g = sh.pair_groupoid(3)
    m = sh.counting_measure(g)
    state = pair_potential_state(g, rng)
    cyclic = sh.gns_vector(state, sh.unit_element(g), m)
    # acting on the cyclic vector with g recovers the vector of g itself
    for _ in range(10):
        a = random_element(g, rng)
        lhs = sh.gns_matrix(state, a, m) @ cyclic
        assert np.max(np.abs(lhs - sh.gns_vector(state, a, m))) <= TOL
    # the orbit of the cyclic vector under delta elements spans the carrier
    cols = np.column_stack([sh.gns_matrix(state, sh.delta_element(g, mm), m) @ cyclic
                            for mm in range(g.n_morphisms)])
    assert np.linalg.matrix_rank(cols, tol=1e-10) == g.n_objects


def test_gns_vector_is_the_fiber_weighted_sum_under_a_seeded_measure(rng):
    # fiber weights away from 1, so a vector that drops them, or conjugates
    # psi, is far from the scalar sum of fw * f * psi over each target fiber
    for g in (sh.pair_groupoid(3), sh.product_with_group(2, sh.cyclic_groupoid(3))):
        m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, g.n_objects),
                               rng.uniform(0.5, 2.0, g.n_morphisms))
        p = rng.uniform(0.2, 1.0, g.n_objects)
        state = sh.PhaseState(g, p / p.sum(), rng.uniform(-np.pi, np.pi, g.n_morphisms))
        psi, fw = state.psi.tolist(), m.fiber_weights.tolist()
        for _ in range(5):
            f = random_element(g, rng)
            want = [0j] * g.n_objects
            for w, fv in enumerate(f.tolist()):
                want[g.tgt[w]] += fw[w] * fv * psi[w]
            assert np.max(np.abs(sh.gns_vector(state, f, m) - want)) <= TOL


def test_factorized_form_with_weights_is_its_dense_form(rng):
    # the core over a seeded carrier with weights: value and certificate
    # against conj(f)^T Q f and eigvalsh of Q, Q[u, v] = conj(a_u) a_v on a
    # common target, a = weight * psi; the value is the vector's squared norm
    targets = np.array([3, 1, 0, 3, 4, 0, 3, 4, 0, 0, 4, 3])   # point 2 empty
    n = len(targets)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weights = rng.uniform(0.5, 2.0, n)
    form = sh.FactorizedForm(psi, targets, 5, weights)
    assert [idx.tolist() for idx in form.blocks] == [[2, 5, 8, 9], [1], [0, 3, 6, 11],
                                                      [4, 7, 10]]
    a = weights * psi
    Q = np.where(targets[:, None] == targets, np.conj(a)[:, None] * a, 0)
    for _ in range(5):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        value = form.value(f)
        assert abs(value - np.conj(f) @ Q @ f) <= TOL * abs(value)
        assert abs(value - np.sum(np.abs(form.vector(f)) ** 2)) <= TOL * abs(value)
    cert = form.certificate()
    assert cert.is_positive and cert.form_matrix_dim == n
    assert abs(cert.min_eigenvalue - np.linalg.eigvalsh(Q)[0]) <= TOL
    single = sh.FactorizedForm(psi[:1], targets[:1], 5, weights[:1])
    assert single.certificate().min_eigenvalue == pytest.approx(abs(a[0]) ** 2, rel=1e-15)


def test_transfer_matrix_is_the_gns_matrix_of_the_phase_state(rng):
    # one phase path: the GNS matrix of the all-ones element is the
    # one-interval transfer kernel, bit for bit, at every hbar
    for g in (sh.pair_groupoid(4), sh.product_with_group(3, sh.cyclic_groupoid(2))):
        m = sh.GroupoidMeasure(g, rng.uniform(0.5, 2.0, g.n_objects),
                               rng.uniform(0.5, 2.0, g.n_objects)[g.src])
        lag = symmetric_lagrangian(g, rng, scale=3.0)
        for hbar in (1.0, 0.37, 3.0):
            spec = sh.uniform_state_spec(g, hbar=hbar, measure=m)
            state = sh.PhaseState(g, spec.density[0], lag.values, hbar)
            want = [phase_factor(v, hbar, REAL_PHASE) for v in lag.values.tolist()]
            assert state.phase.tobytes() == np.array(want).tobytes()
            T = sh.transfer_matrix(g, lag, spec, m)
            G = sh.gns_matrix(state, np.ones(g.n_morphisms), m)
            assert T.tobytes() == G.tobytes()
