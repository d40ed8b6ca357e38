import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_lle import (MetricState, PipelineConfig, adam_update_L,
                          gradient_L, init_identity, knn, learning_rate_bound,
                          load_metric, residual_gradient_M, save_metric,
                          sgd_update_L, sgd_update_M)
from adaptive_lle.errors import NumericalError
from adaptive_lle.metric import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                                 _factor_from_psd)
from adaptive_lle.pipeline import _step, clamp_eta

from conftest import random_psd_state


def error_of(M, R):
    """Oracle: sum_i r_i^T M r_i by explicit loop."""
    return sum(float(r @ M @ r) for r in R)


def pair_distance(x, y, state):
    """The package's metric distance from x to y: the neighbor search's."""
    return float(knn(np.array([x, y], dtype=float) @ state.L.T, 1).distances[0, 0])


def power_iteration_lmax(A, iters=5000, seed=0):
    """Oracle: dominant eigenvalue of a symmetric PSD matrix."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(v @ A @ v)


# ------------------------------------------------------------ initialization

def test_init_identity():
    state = init_identity(2)
    assert np.array_equal(state.matrix, np.eye(2))
    assert np.linalg.eigvalsh(state.matrix)[0] == 1.0


def test_identity_distance_is_euclidean(rng):
    state = init_identity(4)
    for _ in range(10):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert pair_distance(x, y, state) == pytest.approx(
            np.linalg.norm(x - y), abs=1e-12)


def test_init_validation():
    with pytest.raises(ValueError):
        init_identity(0)
    for L, match in ((np.ones((2, 3)), "square"), (np.ones(3), "square"),
                     ([[1.0, 0.0], [0.0, np.inf]], "NaN or Inf"),
                     ([[np.nan]], "NaN or Inf")):
        with pytest.raises(ValueError, match=match):
            MetricState(L)


# ------------------------------------------------------------------ distance

def test_distance_345():
    state = init_identity(2)
    assert pair_distance((1, 2), (4, 6), state) == pytest.approx(5.0)


def test_distance_zero_and_symmetry(rng):
    state = random_psd_state(rng, 3)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert pair_distance(x, x, state) == 0.0
    assert pair_distance(x, y, state) == pair_distance(y, x, state)


def test_distance_diagonal_metric():
    state = MetricState(_factor_from_psd(np.diag([4.0, 1.0])))
    assert pair_distance((1, 1), (0, 0), state) == pytest.approx(np.sqrt(5))


def test_distance_scaling_by_four(rng):
    # distances under 4M are exactly twice those under M
    L = rng.standard_normal((3, 3))
    state = MetricState(L)
    state4 = MetricState(2.0 * L)  # (2L)^T (2L) = 4M
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    d1 = pair_distance(x, y, state)
    d4 = pair_distance(x, y, state4)
    assert d4 == pytest.approx(2.0 * d1, rel=1e-12)


# ------------------------------------------------------------------ gradients

def test_residual_gradient_trivials():
    assert np.array_equal(residual_gradient_M(np.zeros((0, 2))), np.zeros((2, 2)))
    g = residual_gradient_M([[1.0, 0.0]])
    assert np.array_equal(g, [[1.0, 0.0], [0.0, 0.0]])


def test_residual_gradient_finite_differences(rng):
    # central differences of E(M) = sum r^T M r, entry by entry
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        R = rng.standard_normal((int(rng.integers(1, 6)), dim))
        M = random_psd_state(rng, dim).matrix
        grad = residual_gradient_M(R)
        h = 1e-6
        fd = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(dim):
                dM = np.zeros((dim, dim))
                dM[a, b] = h
                fd[a, b] = (error_of(M + dM, R) - error_of(M - dM, R)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)


def test_gradient_L_trivials():
    state = init_identity(2)
    g = gradient_L(state, residual_gradient_M([[1.0, 0.0]]))
    assert np.allclose(g, [[2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(gradient_L(state, residual_gradient_M(np.zeros((0, 2)))),
                          np.zeros((2, 2)))


def test_gradient_L_finite_differences(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        R = rng.standard_normal((int(rng.integers(1, 6)), dim))
        L = rng.standard_normal((dim, dim))
        grad = gradient_L(MetricState(L), residual_gradient_M(R))
        h = 1e-6
        fd = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(dim):
                dL = np.zeros((dim, dim))
                dL[a, b] = h
                up = error_of((L + dL).T @ (L + dL), R)
                dn = error_of((L - dL).T @ (L - dL), R)
                fd[a, b] = (up - dn) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


# ------------------------------------------------------------ direct updates

def test_sgd_update_M_empty_residuals(rng):
    state = random_psd_state(rng, 3)
    out = sgd_update_M(state, residual_gradient_M(np.zeros((0, 3))), eta=0.1)
    assert np.allclose(out.matrix, state.matrix, atol=1e-12)
    assert out.step == state.step + 1


def test_sgd_update_M_direct_formula():
    out = sgd_update_M(init_identity(2), residual_gradient_M([[1.0, 0.0]]), eta=0.1)
    assert np.allclose(out.matrix, np.diag([0.9, 1.0]), atol=1e-12)


def test_sgd_update_M_repairs_indefinite_step():
    # eta far above the stability bound drives the raw update indefinite
    state = init_identity(2)
    S = residual_gradient_M(np.array([[1.0, 0.0]]))
    bound = learning_rate_bound(S)
    out = sgd_update_M(state, S, eta=4.0 * bound)
    assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10  # repaired


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 6), rank=st.integers(0, 6), rows=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1),
       eta=st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
def test_sgd_update_M_projection_property(dim, rank, rows, seed, eta):
    # for PSD M = L^T L (any rank), scatter S and eta > 0 the repaired step
    # is PSD to rounding of M's scale: max |M_ij| (<= ||M||_F, whose squares
    # underflow below about 1e-162), and no finer than the smallest normal
    # float, below which no float has relative precision
    rng = np.random.default_rng(seed)
    L = np.zeros((dim, dim))
    L[:min(rank, dim)] = rng.standard_normal((min(rank, dim), dim))
    state = MetricState(L)
    S = residual_gradient_M(rng.standard_normal((rows, dim)))
    out = sgd_update_M(state, S, eta)
    M = out.matrix
    scale = max(np.abs(M).max(), np.finfo(float).tiny)
    assert np.linalg.eigvalsh(M)[0] >= -1e-12 * scale


def test_sgd_update_M_descent_at_half_bound(rng):
    # one step at eta = 0.5 * bound never increases the error
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        state = random_psd_state(rng, dim)
        R = rng.standard_normal((int(rng.integers(1, 6)), dim))
        before = error_of(state.matrix, R)
        S = residual_gradient_M(R)
        out = sgd_update_M(state, S, eta=0.5 * learning_rate_bound(S))
        assert error_of(out.matrix, R) <= before + 1e-10 * max(1.0, before)


# ---------------------------------------------------------- factored updates

def test_sgd_update_L_empty_residuals():
    state = init_identity(3)
    out = sgd_update_L(state, residual_gradient_M(np.zeros((0, 3))), eta=0.1)
    assert np.array_equal(out.L, np.eye(3))


def test_sgd_update_L_drops_adam_moments():
    # an SGD step reads no moments, so it carries none into the next state
    state = MetricState(np.eye(2), step=3, adam_m=np.ones((2, 2)),
                        adam_v=np.ones((2, 2)))
    out = sgd_update_L(state, residual_gradient_M([[1.0, 0.0]]), eta=0.1)
    assert out.adam_m is None and out.adam_v is None and out.step == 4


def test_sgd_update_L_psd_always(rng):
    # eta drawn within the per-step stable scale so the factor stays O(1)
    # and the -1e-10 eigenvalue floor stays meaningful
    state = random_psd_state(rng, 4)
    for _ in range(200):
        S = residual_gradient_M(rng.standard_normal((int(rng.integers(1, 5)), 4)))
        eta = float(rng.uniform(0.0, 0.5)) * learning_rate_bound(S)
        state = sgd_update_L(state, S, eta)
        assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-10


def test_sgd_update_L_at_clamped_eta_never_raises_error(rng):
    # the guard clamps a factored step to 0.9 * bound / 2, where every
    # eigendirection's error factor (1 - 2 eta lambda)^2 stays below 1
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        state = random_psd_state(rng, dim)
        R = rng.standard_normal((int(rng.integers(1, 9)), dim))
        S = residual_gradient_M(R)
        bound = learning_rate_bound(S)
        out, eta, fired = _step(state, S, PipelineConfig(eta=1e9))
        assert fired
        assert eta == pytest.approx(0.45 * bound)
        before = error_of(state.matrix, R)
        assert np.array_equal(out.L, sgd_update_L(state, S, eta).L)
        assert error_of(out.matrix, R) <= before + 1e-10 * max(1.0, before)


# ---------------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_factor():
    state = init_identity(3)
    out = adam_update_L(state, np.zeros((3, 3)), 1e-3)
    assert np.array_equal(out.L, np.eye(3))
    assert out.step == 1


def test_adam_first_step_is_signed_eta():
    eta = 1e-3
    g = np.array([[3.0, -2.0], [0.5, -7.0]])
    out = adam_update_L(init_identity(2), g, eta)
    delta = out.L - np.eye(2)
    assert np.allclose(delta, -eta * np.sign(g), atol=1e-6)


def test_adam_decreases_quadratic_error():
    R = np.array([[1.0, 0.5]])
    state = init_identity(2)
    initial = error_of(state.matrix, R)
    for _ in range(100):
        state = adam_update_L(state, gradient_L(state, residual_gradient_M(R)), 1e-2)
    assert error_of(state.matrix, R) < initial


def textbook_adam(L, m, v, step, g, eta):
    """Reference: Adam's bias-corrected step as its expressions read."""
    t = step + 1
    with np.errstate(over="ignore"):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        return L - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def test_adam_matches_the_textbook_expressions_bit_for_bit(rng):
    # the step updates fresh arrays in place and never writes the state's;
    # gradients span 1e-300..1e300, so g g underflows and overflows
    D = 300  # two row blocks of the last update
    state = init_identity(D)
    L, m, v = state.L, np.zeros((D, D)), np.zeros((D, D))
    for step in range(4):
        g = rng.standard_normal((D, D)) * 10.0 ** rng.integers(-300, 300, (D, D))
        g[0, :3] = [0.0, -0.0, 5e-324]
        before = [a for a in (state.L, state.adam_m, state.adam_v) if a is not None]
        copies = [a.copy() for a in before]
        state = adam_update_L(state, g, 1e-3)
        L, m, v = textbook_adam(L, m, v, step, g, 1e-3)
        for new, expected in ((state.L, L), (state.adam_m, m), (state.adam_v, v)):
            assert new.tobytes() == expected.tobytes()
        assert [a.tobytes() for a in before] == [a.tobytes() for a in copies]


def test_adam_step_holds_four_factor_sized_arrays(rng):
    # tracemalloc sees numpy's buffers: beyond S and the state, one step at
    # D = 784 holds the gradient 2 L S, the new m, v and L, and a row block
    # of the last update or a boolean finiteness mask.  Measured 4.13 D x D
    # arrays against this 4.25 bound; 7.0 when each operation made an array
    D = 784
    S = residual_gradient_M(rng.standard_normal((2 * D, D)))
    config = PipelineConfig(update="adam", eta=1e-6)
    state = init_identity(D)
    for _ in range(2):  # the state then carries both moments
        state = _step(state, S, config)[0]
    tracemalloc.start()
    try:
        _step(state, S, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * S.nbytes


def test_adam_nonfinite_raises():
    # an inf gradient makes m_hat / sqrt(v_hat) inf / inf
    with pytest.raises(NumericalError, match="Adam metric update"):
        adam_update_L(init_identity(2), np.full((2, 2), np.inf), 1e-3)
    with pytest.raises(ValueError, match="gradient shape"):
        adam_update_L(init_identity(2), np.zeros((3, 3)), 1e-3)


# --------------------------------------------------------------- eta bound

def test_learning_rate_bound_rank_one():
    assert learning_rate_bound(residual_gradient_M([[2.0, 0.0]])) == pytest.approx(0.5)


def test_learning_rate_bound_unbounded():
    assert learning_rate_bound(residual_gradient_M(np.zeros((3, 2)))) == math.inf
    assert learning_rate_bound(residual_gradient_M(np.zeros((0, 2)))) == math.inf


def test_clamp_eta_threshold_per_step():
    # lambda_max(S) = 4: the bound is 0.5, the factored step's threshold 0.25
    S = residual_gradient_M([[2.0, 0.0]])
    bound = learning_rate_bound(S)
    assert clamp_eta(0.25) == pytest.approx(0.225)
    _, clamped, fired = _step(init_identity(2), S, PipelineConfig(eta=0.3))
    assert fired
    assert type(clamped) is float and clamped == pytest.approx(0.9 * bound / 2)
    for step in ({"update": "directM"}, {"update": "adam"}):
        _, eta, fired = _step(init_identity(2), S, PipelineConfig(eta=0.5, **step))
        assert fired and eta == pytest.approx(0.9 * bound)


def test_learning_rate_bound_power_iteration_oracle(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        R = rng.standard_normal((int(rng.integers(2, 8)), dim))
        expected = 2.0 / power_iteration_lmax(R.T @ R, seed=int(rng.integers(1e6)))
        assert learning_rate_bound(residual_gradient_M(R)) == pytest.approx(
            expected, rel=1e-8)


# ---------------------------------------------------- factor of a PSD matrix

def test_metric_from_matrix_singular_psd():
    M = np.diag([1.0, 0.0])
    state = MetricState(_factor_from_psd(M))
    assert np.allclose(state.matrix, M, rtol=0, atol=1e-12)


def test_metric_from_matrix_round_trip(rng):
    # PSD matrices of every rank, rank 0 included, come back within
    # rounding of M
    for dim in range(1, 7):
        for rank in range(dim + 1):
            B = rng.standard_normal((rank, dim))
            M = B.T @ B
            state = MetricState(_factor_from_psd(M))
            assert np.max(np.abs(state.matrix - M)) <= 1e-12 * np.linalg.norm(M)
    assert np.array_equal(MetricState(_factor_from_psd(np.eye(3))).matrix, np.eye(3))


# ------------------------------------------------------------- serialization

def test_metric_csv_round_trip(tmp_path, rng):
    state = random_psd_state(rng, 5)
    path = tmp_path / "metric.csv"
    save_metric(state, path)
    back = load_metric(path)
    assert np.array_equal(back.L, state.L)


def test_load_metric_rejects_non_square(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError):
        load_metric(path)


# ------------------------------------------------------------------- config

def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(eta=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(update="momentum")
    with pytest.raises(ValueError):
        PipelineConfig(update="diag")


def test_nonfinite_updates_raise(rng):
    state = MetricState(1e200 * np.eye(2))
    with pytest.raises(NumericalError):
        sgd_update_L(state, residual_gradient_M([[1e200, 0.0]]), eta=1.0)
    with pytest.raises(NumericalError, match="direct metric update"):
        sgd_update_M(init_identity(2), np.full((2, 2), 1e308), eta=10.0)


@pytest.mark.parametrize("eta", [-0.1, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("update", [sgd_update_L, sgd_update_M, adam_update_L],
                         ids=lambda f: f.__name__)
def test_each_step_refuses_the_rates_the_config_refuses(update, eta):
    # every step takes only the eta PipelineConfig takes, 0 < eta < inf, and
    # refuses any other before it writes anything: a negative eta would
    # raise the error, and NaN or inf would end as a NumericalError
    state = MetricState(np.eye(2), step=3, adam_m=np.full((2, 2), 0.5),
                        adam_v=np.full((2, 2), 0.25))
    before = [a.copy() for a in (state.L, state.adam_m, state.adam_v)]
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        update(state, residual_gradient_M([1.0, 0.0]), eta)
    for a, b in zip((state.L, state.adam_m, state.adam_v), before):
        assert np.array_equal(a, b)
