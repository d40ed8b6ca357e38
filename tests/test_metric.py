import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptive_lle import (MetricState, PipelineConfig, adam_update_L,
                          gradient_L, init_identity, knn, learning_rate_bound,
                          load_metric, residual_gradient_M, save_metric,
                          sgd_update_L, sgd_update_M)
from adaptive_lle.errors import NumericalError
from adaptive_lle.metric import PSD_WARN_TOL, _factor_from_psd, clamp_eta

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
    state = MetricState(_factor_from_psd(np.diag([4.0, 1.0]))[0])
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
    assert not out.psd_warning


def test_sgd_update_M_flags_indefinite_step():
    # eta far above the stability bound drives the raw update indefinite
    state = init_identity(2)
    S = residual_gradient_M(np.array([[1.0, 0.0]]))
    bound = learning_rate_bound(S)
    out = sgd_update_M(state, S, eta=4.0 * bound)
    assert out.psd_warning
    assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10  # repaired


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 6), rank=st.integers(0, 6), rows=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1),
       eta=st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
def test_sgd_update_M_projection_property(dim, rank, rows, seed, eta):
    # for PSD M = L^T L (any rank), scatter S and eta > 0 the repaired step
    # is PSD to rounding, and flags exactly the raw steps below PSD_WARN_TOL
    rng = np.random.default_rng(seed)
    L = np.zeros((dim, dim))
    L[:min(rank, dim)] = rng.standard_normal((min(rank, dim), dim))
    state = MetricState(L)
    S = residual_gradient_M(rng.standard_normal((rows, dim)))
    raw = state.matrix - eta * S
    raw_min = np.linalg.eigvalsh(raw)[0]
    # eigenvalues within rounding of the tolerance may fall either way
    assume(abs(raw_min - PSD_WARN_TOL) > 1e-12 * max(1.0, np.linalg.norm(raw)))
    out = sgd_update_M(state, S, eta)
    M = out.matrix
    assert np.linalg.eigvalsh(M)[0] >= -1e-12 * np.linalg.norm(M)
    assert out.psd_warning == (raw_min < PSD_WARN_TOL)


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
        eta = clamp_eta(PipelineConfig(eta=1e9), bound)
        assert eta == pytest.approx(0.45 * bound)
        before = error_of(state.matrix, R)
        out = sgd_update_L(state, S, eta)
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


def test_adam_nonfinite_raises():
    with pytest.raises(ValueError):
        adam_update_L(init_identity(2), np.zeros((3, 3)), 1e-3)


# --------------------------------------------------------------- eta bound

def test_learning_rate_bound_rank_one():
    assert learning_rate_bound(residual_gradient_M([[2.0, 0.0]])) == pytest.approx(0.5)


def test_learning_rate_bound_unbounded():
    assert learning_rate_bound(residual_gradient_M(np.zeros((3, 2)))) == math.inf
    assert learning_rate_bound(residual_gradient_M(np.zeros((0, 2)))) == math.inf


def test_clamp_eta_threshold_per_step():
    bound = 0.5
    factored = PipelineConfig(eta=0.3)
    clamped = clamp_eta(factored, bound)
    assert type(clamped) is float and clamped == pytest.approx(0.9 * bound / 2)
    assert clamp_eta(PipelineConfig(eta=0.2), bound) == 0.2
    for step in ({"metric_mode": "directM"}, {"optimizer": "adam"}):
        assert clamp_eta(PipelineConfig(eta=0.3, **step), bound) == 0.3
        assert clamp_eta(PipelineConfig(eta=0.5, **step), bound) == pytest.approx(
            0.9 * bound)
    assert clamp_eta(factored, math.inf) == 0.3


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
    state = MetricState(_factor_from_psd(M)[0])
    assert np.allclose(state.matrix, M, rtol=0, atol=1e-12)


def test_metric_from_matrix_round_trip(rng):
    # PSD matrices of every rank, rank 0 included, come back within
    # rounding of M
    for dim in range(1, 7):
        for rank in range(dim + 1):
            B = rng.standard_normal((rank, dim))
            M = B.T @ B
            state = MetricState(_factor_from_psd(M)[0])
            assert np.max(np.abs(state.matrix - M)) <= 1e-12 * np.linalg.norm(M)
    assert np.array_equal(MetricState(_factor_from_psd(np.eye(3))[0]).matrix, np.eye(3))


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
        PipelineConfig(optimizer="momentum")
    with pytest.raises(ValueError):
        PipelineConfig(metric_mode="diag")
    with pytest.raises(ValueError):
        PipelineConfig(optimizer="adam", metric_mode="directM")


def test_nonfinite_updates_raise(rng):
    state = MetricState(1e200 * np.eye(2))
    with pytest.raises(NumericalError):
        sgd_update_L(state, residual_gradient_M([[1e200, 0.0]]), eta=1.0)
