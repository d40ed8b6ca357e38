"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 12 is a soft check: it needs real MNIST IDX files (point
ALLE_MNIST_DIR at them) and reports a warning instead of failing, since
its reference numbers depend on unpublished experimental settings.
"""

import math
import os
import warnings

import numpy as np
import pytest

from adaptive_lle import (DataMatrix, MetricState, PipelineConfig,
                          builtin_iris, continuity, embedding_matrix,
                          fit_alle, fit_lle, generate_swiss_roll, gradient_L,
                          init_identity, knn, knn_accuracy,
                          learning_rate_bound, linear_accuracy, load_idx,
                          reconstruction_error, residual_gradient_M,
                          scale_features, sgd_update_L, sgd_update_M,
                          silhouette, solve_all_weights, stratified_split,
                          trustworthiness)
from adaptive_lle.reconstruction import _gram_weights

from conftest import local_gram, random_blobs, random_psd_state, subsample
from test_evaluation import (continuity_oracle, silhouette_oracle,
                             trustworthiness_oracle)
from test_reconstruction import constrained_ls_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-3s %-28s %s%s" % (num, name, status,
                                          " " + detail if detail else ""))
    return ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_degenerate_equivalence():
    """fit_alle with zero epochs and identity init is bit-identical to
    fit_lle."""
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(10):
        n = int(rng.integers(30, 201))
        dim = int(rng.integers(2, 6))
        data = DataMatrix(rng.standard_normal((n, dim)))
        config = PipelineConfig(n_neighbors=int(rng.integers(3, 9)),
                                n_components=2, max_epochs=0)
        a = fit_alle(data, config)
        b = fit_lle(data, config)
        ok &= (a.Y.tobytes() == b.Y.tobytes()
               and a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
               and a.error_trace.tobytes() == b.error_trace.tobytes())
    assert report(1, "degenerate-equivalence", ok)


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_weight_oracle():
    """Closed-form weights reach the brute-force constrained least-squares
    optimum (objective agreement within 1e-6 on 50 random neighborhoods)."""
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        K = int(rng.integers(1, 5))
        x = rng.standard_normal(dim)
        neighbors = rng.standard_normal((dim, K))
        state = random_psd_state(rng, dim) if trial % 2 else init_identity(dim)
        G = local_gram(x, neighbors, state)
        w = _gram_weights(G, reg=1e-8)
        achieved = float(w @ G @ w)
        best, _ = constrained_ls_oracle(x, neighbors, state.L)
        worst = max(worst, abs(achieved - best))
    assert report(2, "weight-oracle", worst <= 1e-6, "worst gap %.2e" % worst)


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_gradient_checks():
    """Both metric gradients match central finite differences within 1e-5
    relative on 20 random instances."""
    rng = np.random.default_rng(33)
    ok = True
    h = 1e-6
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        R = rng.standard_normal((int(rng.integers(1, 6)), dim))
        M = random_psd_state(rng, dim).matrix
        L = rng.standard_normal((dim, dim))

        def err_M(mat):
            return sum(float(r @ mat @ r) for r in R)

        fd_M = np.zeros((dim, dim))
        fd_L = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(dim):
                E = np.zeros((dim, dim))
                E[a, b] = h
                fd_M[a, b] = (err_M(M + E) - err_M(M - E)) / (2 * h)
                fd_L[a, b] = (err_M((L + E).T @ (L + E))
                              - err_M((L - E).T @ (L - E))) / (2 * h)
        ok &= (np.linalg.norm(residual_gradient_M(R) - fd_M)
               <= 1e-5 * max(np.linalg.norm(fd_M), 1e-12))
        ok &= (np.linalg.norm(gradient_L(MetricState(L), residual_gradient_M(R)) - fd_L)
               <= 1e-5 * max(np.linalg.norm(fd_L), 1e-12))
    assert report(3, "gradient-checks", ok)


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_psd_invariant():
    """200 factored updates with random residuals and learning rates never
    leave the PSD cone (min eig >= -1e-10)."""
    rng = np.random.default_rng(44)
    state = random_psd_state(rng, 5)
    worst = 0.0
    for _ in range(200):
        S = residual_gradient_M(rng.standard_normal((int(rng.integers(1, 6)), 5)))
        eta = float(rng.uniform(0.0, 0.5)) * learning_rate_bound(S)
        state = sgd_update_L(state, S, eta)
        worst = min(worst, float(np.linalg.eigvalsh(state.matrix)[0]))
    assert report(4, "psd-invariant", worst >= -1e-10, "min eig %.2e" % worst)


# ---------------------------------------------------------------- criterion 5

def _random_step_instance(rng):
    """A random metric, residuals, their scatter and its stability bound."""
    dim = int(rng.integers(2, 7))
    state = random_psd_state(rng, dim)
    R = rng.standard_normal((int(rng.integers(1, 9)), dim))
    S = residual_gradient_M(R)
    return state, R, S, learning_rate_bound(S)


def _rises(R, before_state, after_state):
    before = reconstruction_error(R @ before_state.L.T)
    after = reconstruction_error(R @ after_state.L.T)
    return after > before + 1e-12 * max(1.0, before)


def test_criterion_05a_descent_within_bound():
    """A single direct step at half the stability bound never increases the
    error over 100 random instances."""
    rng = np.random.default_rng(55)
    increases = 0
    for _ in range(100):
        state, R, S, bound = _random_step_instance(rng)
        increases += _rises(R, state, sgd_update_M(state, S, 0.5 * bound))
    assert report("5a", "descent-within-bound", increases == 0,
                  "%d/100 increases" % increases)


def test_criterion_05b_eta_bound_necessity():
    """A single step at four times the stability bound increases the error
    on at least one of 100 random instances, so the bound is necessary.

    The step is the factored update L <- L (I - 2 eta S), S = sum_i r_i r_i^T,
    the one the pipeline takes by default: along an eigenvector of S with
    eigenvalue lambda it multiplies the error by (1 - 2 eta lambda)^2, which
    exceeds 1 once eta > 1/lambda_max.  The direct-M step is no witness:
    its error sum_i r_i^T M r_i is linear in M, and a step along the negative
    gradient followed by a projection onto a convex set (the eigenvalue
    clamp onto the PSD cone) never raises a linear objective, whatever the
    learning rate.  The test asserts both on the same instances.
    """
    rng = np.random.default_rng(56)
    factored = direct = 0
    for _ in range(100):
        state, R, S, bound = _random_step_instance(rng)
        factored += _rises(R, state, sgd_update_L(state, S, 4.0 * bound))
        direct += _rises(R, state, sgd_update_M(state, S, 4.0 * bound))
    assert report("5b", "eta-bound-necessity", factored >= 1 and direct == 0,
                  "%d/100 factored, %d/100 direct increases"
                  % (factored, direct))


def test_criterion_05c_eta_bound_binds_for_factored_updates():
    """The factored update, whose error is quartic in the factor, overshoots
    and increases the error at four times the bound; at half the bound (its
    own threshold 1/lambda_max) it never does."""
    rng = np.random.default_rng(57)
    overshoot = stable = 0
    for _ in range(100):
        state, R, S, bound = _random_step_instance(rng)
        overshoot += _rises(R, state, sgd_update_L(state, S, 4.0 * bound))
        stable += _rises(R, state, sgd_update_L(state, S, 0.5 * bound))
    assert report("5c", "eta-bound-binds-factored",
                  overshoot >= 1 and stable == 0,
                  "%d/100 overshoot at 4x, %d/100 at 0.5x" % (overshoot, stable))


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_embedding_constraints():
    """Every fit satisfies the centering and covariance constraints, and the
    cost matrix annihilates the constant vector."""
    rng = np.random.default_rng(66)
    blob_points, blob_labels = random_blobs(rng, 60, centers=((0, 0, 0),
                                                              (6, 6, 0),
                                                              (0, 6, 6)))
    datasets = [generate_swiss_roll(1000, 0.0, 0),
                builtin_iris(),
                DataMatrix(blob_points, labels=blob_labels)]
    config = PipelineConfig(n_neighbors=10, n_components=2, max_epochs=10)
    ok = True
    for data in datasets:
        for fit in (fit_lle, fit_alle):
            result = fit(data, config)
            n = data.n
            ok &= float(np.max(np.abs(result.Y.mean(axis=0)))) <= 1e-8
            cov = result.Y.T @ result.Y / n
            ok &= float(np.linalg.norm(cov - np.eye(2))) <= 1e-6
            Z = data.values @ result.metric.L.T
            W = solve_all_weights(Z, knn(Z, 10), config.gram_reg)
            cost = embedding_matrix(W, n)
            ok &= float(np.max(np.abs(cost @ np.ones(n)))) <= 1e-8 * n
    assert report(6, "embedding-constraints", ok)


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_swiss_roll_quality():
    """Plain LLE on the 1000-point roll reaches trustworthiness and
    continuity of at least 0.98 at k=10."""
    roll = generate_swiss_roll(1000, 0.0, 0)
    result = fit_lle(roll, PipelineConfig(n_neighbors=10, n_components=2))
    T = trustworthiness(roll.values, result.Y, 10)
    C = continuity(roll.values, result.Y, 10)
    assert report(7, "swiss-roll-quality", T >= 0.98 and C >= 0.98,
                  "T=%.4f C=%.4f" % (T, C))


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_scaled_roll_direction():
    """On the anisotropically scaled roll the adaptive fit keeps (median)
    trustworthiness within 0.002 of plain LLE across 3 seeds."""
    t_alle, t_lle = [], []
    config = PipelineConfig(n_neighbors=10, n_components=2)
    for seed in (0, 1, 2):
        scaled = scale_features(generate_swiss_roll(1000, 0.0, seed),
                                [1.0, 1.0, 10.0])
        t_alle.append(trustworthiness(scaled.values,
                                      fit_alle(scaled, config).Y, 10))
        t_lle.append(trustworthiness(scaled.values,
                                     fit_lle(scaled, config).Y, 10))
    med_a, med_l = float(np.median(t_alle)), float(np.median(t_lle))
    assert report(8, "scaled-roll-direction", med_a >= med_l - 0.002,
                  "ALLE %.4f vs LLE %.4f" % (med_a, med_l))


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_iris_direction():
    """On iris the adaptive embedding classifies at least as well as plain
    LLE (linear probe, median over 5 splits) and reaches 0.85 k-NN
    accuracy."""
    iris = builtin_iris()
    config = PipelineConfig(n_neighbors=10, n_components=2)
    Y_alle = fit_alle(iris, config).Y
    Y_lle = fit_lle(iris, config).Y
    lin_a, lin_l, knn_a = [], [], []
    for seed in range(5):
        split = stratified_split(iris.labels, 0.25, seed)
        lin_a.append(linear_accuracy(Y_alle, iris.labels, split))
        lin_l.append(linear_accuracy(Y_lle, iris.labels, split))
        knn_a.append(knn_accuracy(Y_alle, iris.labels, 5, split))
    med_lin_a, med_lin_l = float(np.median(lin_a)), float(np.median(lin_l))
    med_knn = float(np.median(knn_a))
    ok = med_lin_a >= med_lin_l - 0.02 and med_knn >= 0.85
    assert report(9, "iris-direction", ok,
                  "linear %.3f vs %.3f, knn %.3f" % (med_lin_a, med_lin_l,
                                                     med_knn))


# --------------------------------------------------------------- criterion 10

def test_criterion_10_metric_formula_oracles():
    """Trustworthiness, continuity, and silhouette match literal double-loop
    formula implementations to 1e-12 on 30 random instances plus the two
    hand-derived fixtures."""
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(30):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(1, max(2, (2 * n - 1) // 3 - 1)))
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 2))
        ok &= abs(trustworthiness(X, Y, k)
                  - trustworthiness_oracle(X, Y, k)) <= 1e-12
        ok &= abs(continuity(X, Y, k) - continuity_oracle(X, Y, k)) <= 1e-12
        labels = rng.integers(0, 3, n)
        if np.unique(labels).size >= 2:
            ok &= abs(silhouette(X, labels)
                      - silhouette_oracle(X, labels)) <= 1e-12

    fx = np.array([[0.0], [1.0], [3.0], [7.0]])
    fy = np.array([[0.0], [1.0], [7.0], [3.0]])
    ok &= abs(trustworthiness(fx, fy, 1) - 0.625) <= 1e-12
    ok &= abs(continuity(fx, fy, 1) - 0.625) <= 1e-12
    clusters = np.array([[0.0, 0], [0, 1], [10, 0], [10, 1]])
    ok &= abs(silhouette(clusters, np.array([0, 0, 1, 1])) - 0.9002) <= 1e-4
    assert report(10, "metric-formula-oracles", ok)


# --------------------------------------------------------------- criterion 11

def test_criterion_11_monotone_descent():
    """Default adaptive fits on the roll produce non-increasing error traces
    (1e-10 slack) for 3 seeds."""
    ok = True
    worst = -math.inf
    for seed in (0, 1, 2):
        roll = generate_swiss_roll(1000, 0.0, seed)
        result = fit_alle(roll, PipelineConfig(n_neighbors=10, n_components=2))
        if result.error_trace.size > 1:
            worst = max(worst, float(np.max(np.diff(result.error_trace))))
        ok &= bool(np.all(np.diff(result.error_trace) <= 1e-10))
    assert report(11, "monotone-descent", ok, "max increase %.2e" % worst)


# --------------------------------------------------------------- criterion 12

MNIST_DIR = os.environ.get("ALLE_MNIST_DIR", "")


def _stratified_digit_sample(data, classes, per_class, seed):
    parts = [subsample(data, per_class, classes={c}, seed=seed + 101 * c)
             for c in classes]
    return DataMatrix(np.concatenate([p.values for p in parts]),
                      labels=np.concatenate([p.labels for p in parts]))


def test_criterion_12_mnist_soft_check():
    """Soft check on MNIST digits 0-5 (1000 samples): adaptive
    trustworthiness within 0.01 of plain LLE, median of 3 seeds.  Reports a
    warning instead of failing; skipped without local MNIST IDX files."""
    images = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
    labels = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")
    if not (os.path.isfile(images) and os.path.isfile(labels)):
        report(12, "mnist-soft-check", True,
               "SKIP (no MNIST IDX files; set ALLE_MNIST_DIR)")
        pytest.skip("MNIST IDX files not available")
    mnist = load_idx(images, labels)
    t_alle, t_lle = [], []
    config = PipelineConfig(n_neighbors=10, n_components=2)
    for seed in (0, 1, 2):
        sample = _stratified_digit_sample(mnist, range(6), 1000 // 6 + 1,
                                          seed)
        sample = subsample(sample, 1000, seed=seed)
        t_alle.append(trustworthiness(sample.values,
                                      fit_alle(sample, config).Y, 10))
        t_lle.append(trustworthiness(sample.values,
                                     fit_lle(sample, config).Y, 10))
    med_a, med_l = float(np.median(t_alle)), float(np.median(t_lle))
    ok = med_a >= med_l - 0.01
    report(12, "mnist-soft-check", ok,
           "ALLE %.4f vs LLE %.4f%s" % (med_a, med_l,
                                        "" if ok else " (soft: warning only)"))
    if not ok:
        warnings.warn("soft MNIST check below target: ALLE %.4f vs LLE %.4f"
                      % (med_a, med_l))
