import dataclasses

import numpy as np
import pytest

from adaptive_lle import (DataMatrix, MetricState, PipelineConfig,
                          builtin_iris, compute_residuals,
                          embedding_matrix, fit_alle, fit_lle,
                          generate_swiss_roll, init_identity, knn,
                          learning_rate_bound, pipeline, reconstruction,
                          reconstruction_error, residual_gradient_M,
                          solve_all_weights, solve_embedding)
from adaptive_lle.metric import clamp_eta, eta_threshold

from conftest import random_factor

# factored SGD (threshold bound/2), direct-M SGD and Adam (threshold bound)
STEPS = ({}, {"metric_mode": "directM"}, {"optimizer": "adam"})


def eigvalsh_guard(config, S):
    """Oracle: the guard decided from lambda_max(S) alone."""
    bound = learning_rate_bound(S)
    if config.eta >= eta_threshold(config, bound):
        return clamp_eta(config, bound), True
    return config.eta, False


def count_bound_calls(monkeypatch):
    """Record each call the pipeline makes to ``learning_rate_bound``."""
    calls = []

    def counted(S):
        calls.append(S)
        return learning_rate_bound(S)

    monkeypatch.setattr(pipeline, "learning_rate_bound", counted)
    return calls


def random_dataset(rng, n, dim):
    return DataMatrix(rng.standard_normal((n, dim)))


def results_identical(a, b):
    return (a.Y.tobytes() == b.Y.tobytes()
            and a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            and a.error_trace.tobytes() == b.error_trace.tobytes()
            and a.eta_guard == b.eta_guard)


def test_zero_epochs_identity_equals_lle(rng):
    for _ in range(3):
        data = random_dataset(rng, int(rng.integers(30, 120)), 3)
        config = PipelineConfig(n_neighbors=6, n_components=2, max_epochs=0)
        assert results_identical(fit_alle(data, config), fit_lle(data, config))


def test_fit_determinism():
    roll = generate_swiss_roll(300, 0.05, 3)
    config = PipelineConfig(n_neighbors=8, n_components=2, max_epochs=10)
    assert results_identical(fit_alle(roll, config), fit_alle(roll, config))


def test_alle_trace_non_increasing():
    roll = generate_swiss_roll(400, 0.0, 1)
    config = PipelineConfig(n_neighbors=10, n_components=2, max_epochs=25)
    result = fit_alle(roll, config)
    assert result.error_trace.size > 0
    assert np.all(np.diff(result.error_trace) <= 1e-10)


def test_trace_records_every_epoch():
    roll = generate_swiss_roll(200, 0.0, 2)
    config = PipelineConfig(n_neighbors=8, max_epochs=7)
    result = fit_alle(roll, config)
    assert result.error_trace.size == 7
    assert np.all(np.isfinite(result.error_trace))


def test_lle_collinear_is_monotone():
    points = DataMatrix(np.arange(6.0)[:, None])
    config = PipelineConfig(n_neighbors=2, n_components=1, gram_reg=1e-6)
    result = fit_lle(points, config)
    diffs = np.diff(result.Y[:, 0])
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_embedding_constraints_for_all_fits(rng):
    datasets = [generate_swiss_roll(300, 0.0, 0), builtin_iris(),
                random_dataset(rng, 150, 5)]
    config = PipelineConfig(n_neighbors=10, n_components=2, max_epochs=5)
    for data in datasets:
        for fit in (fit_lle, fit_alle):
            result = fit(data, config)
            n = data.n
            assert np.max(np.abs(result.Y.mean(axis=0))) <= 1e-8
            cov = result.Y.T @ result.Y / n
            assert np.linalg.norm(cov - np.eye(2)) <= 1e-6


def test_eta_guard_records_and_clamps():
    # every epoch is clamped; a clamped factored step must not overshoot
    roll = generate_swiss_roll(150, 0.2, 4)
    config = PipelineConfig(n_neighbors=8, max_epochs=5, eta=1e9)
    result = fit_alle(roll, config)
    assert result.eta_guard
    assert np.all(np.isfinite(result.error_trace))
    assert np.all(np.diff(result.error_trace) <= 1e-10)


def test_early_stop_on_stagnation():
    roll = generate_swiss_roll(150, 0.0, 6)
    config = PipelineConfig(n_neighbors=8, max_epochs=50, eta=1e-13)
    result = fit_alle(roll, config)
    assert result.error_trace.size < 50


def test_direct_mode_runs_and_repairs(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(n_neighbors=6, max_epochs=8, metric_mode="directM",
                            eta=1e-3)
    result = fit_alle(data, config)
    assert np.linalg.eigvalsh(result.metric.matrix)[0] >= -1e-10


def test_adam_mode_runs(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(n_neighbors=6, max_epochs=8, optimizer="adam", eta=1e-3)
    result = fit_alle(data, config)
    assert result.error_trace.size == 8
    assert result.metric.step == 8


def test_adam_requires_factor_mode():
    with pytest.raises(ValueError):
        PipelineConfig(
            n_neighbors=5, optimizer="adam", metric_mode="directM")


def test_recompute_neighbors_every_epoch(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(n_neighbors=6, max_epochs=5,
                            recompute_neighbors="every_epoch")
    result = fit_alle(data, config, initial_state=random_factor(3, 0.1, 3))
    assert result.error_trace.size == 5


def test_every_epoch_embedding_uses_final_metric_neighbors():
    # the last metric step changes some neighbor lists, so an embedding
    # built from the neighbors searched before that step would differ
    roll = generate_swiss_roll(120, 0.05, 1)
    config = PipelineConfig(n_neighbors=8, max_epochs=4,
                            recompute_neighbors="every_epoch",
                            eta=1e-2)
    start = random_factor(3, 0.1, 3)
    result = fit_alle(roll, config, initial_state=start)
    before = fit_alle(roll, dataclasses.replace(config, max_epochs=3),
                      initial_state=start).metric
    Z = roll.values @ result.metric.L.T
    final_nbrs = knn(Z, config.n_neighbors)
    stale_nbrs = knn(roll.values @ before.L.T, config.n_neighbors)
    assert not np.array_equal(np.sort(final_nbrs.ids, axis=1),
                              np.sort(stale_nbrs.ids, axis=1))
    W = solve_all_weights(Z, final_nbrs, config.gram_reg)
    expected = solve_embedding(embedding_matrix(W, roll.n), config.n_components)
    assert np.array_equal(result.Y, expected.Y)


def test_random_init_seeded(rng):
    data = random_dataset(rng, 60, 3)
    config = PipelineConfig(n_neighbors=5, max_epochs=3)
    assert results_identical(
        fit_alle(data, config, initial_state=random_factor(3, 0.5, 11)),
        fit_alle(data, config, initial_state=random_factor(3, 0.5, 11)))


def test_initial_state_override(rng):
    data = random_dataset(rng, 60, 3)
    config = PipelineConfig(n_neighbors=5, max_epochs=0)
    start = random_factor(3, 0.4, seed=9)
    result = fit_alle(data, config, initial_state=start)
    # the supplied metric drives the neighbor search
    Z = data.values @ start.L.T
    expected_nbrs = knn(Z, 5)
    W = solve_all_weights(Z, expected_nbrs, config.gram_reg)
    assert np.array_equal(W.ids, expected_nbrs.ids)
    identity_result = fit_alle(data, config)
    assert result.Y.tobytes() != identity_result.Y.tobytes()


def test_config_echo_and_metric_attached():
    roll = generate_swiss_roll(100, 0.0, 5)
    config = PipelineConfig(n_neighbors=7, max_epochs=4)
    result = fit_alle(roll, config)
    assert result.config is config
    assert result.metric is not None and result.metric.dim == 3


def test_config_validation(rng):
    data = random_dataset(rng, 20, 3)
    with pytest.raises(ValueError):
        fit_alle(data, PipelineConfig(n_neighbors=20))
    with pytest.raises(ValueError):
        fit_alle(data, PipelineConfig(n_neighbors=5, n_components=19))
    with pytest.raises(ValueError):
        PipelineConfig(max_epochs=-1)


def test_frobenius_guard_decides_as_eigvalsh(rng):
    # eta on both sides of each threshold, and of where eta ||S||_F meets it
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        R = rng.standard_normal((int(rng.integers(1, dim + 1)), dim))
        S = residual_gradient_M(R * 10.0 ** rng.uniform(-3, 3))
        lmax, fro = np.linalg.eigvalsh(S)[-1], np.linalg.norm(S)
        for step in STEPS:
            limit = eta_threshold(PipelineConfig(**step), 2.0)
            for scale in (1 / lmax, 1 / fro):
                for factor in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0):
                    config = PipelineConfig(**step, eta=float(factor * limit * scale))
                    assert pipeline._step_eta(config, S) == eigvalsh_guard(config, S)


def test_frobenius_guard_falls_through_on_rank_one(monkeypatch):
    # rank one: ||S||_F = lambda_max = 25, so only eigvalsh can settle an
    # eta just below the threshold
    calls = count_bound_calls(monkeypatch)
    S = residual_gradient_M([[3.0, 4.0]])
    for step in STEPS:
        limit = eta_threshold(PipelineConfig(**step), 2.0)
        for factor, fired in ((1 - 1e-9, False), (1 + 1e-9, True)):
            config = PipelineConfig(**step, eta=factor * limit / 25.0)
            calls.clear()
            eta, guard = pipeline._step_eta(config, S)
            assert len(calls) == 1
            assert guard == fired
            assert (eta, guard) == eigvalsh_guard(config, S)


def test_frobenius_guard_zero_scatter(monkeypatch):
    calls = count_bound_calls(monkeypatch)
    for step in STEPS:
        config = PipelineConfig(**step)
        assert pipeline._step_eta(config, np.zeros((3, 3))) == (config.eta, False)
    assert not calls


def test_roll_fit_computes_lambda_max_only_near_the_bound(monkeypatch):
    roll = generate_swiss_roll(300, 0.05, 0)
    config = PipelineConfig(max_epochs=5)
    calls = count_bound_calls(monkeypatch)
    fit_alle(roll, config)
    assert not calls
    # 0.9x the first epoch's threshold: the guard does not fire there, but
    # ||S||_F (above lambda_max) cannot tell
    W = solve_all_weights(roll.values, knn(roll.values, 10))
    S = residual_gradient_M(compute_residuals(roll.values, W))
    eta = 0.9 * eta_threshold(config, learning_rate_bound(S))
    calls.clear()
    fit_alle(roll, dataclasses.replace(config, eta=eta))
    assert calls


def test_weight_solves_take_the_kxk_path_only_when_d_is_not_below_k(monkeypatch, rng):
    # D < K solves D x D systems and never calls _gram_weights; D > K
    # hands it the Gram stack on every pass
    kxk, passes = [], []
    solve_kxk, solve = reconstruction._gram_weights, pipeline.solve_all_weights
    monkeypatch.setattr(reconstruction, "_gram_weights",
                        lambda *a: kxk.append(1) or solve_kxk(*a))

    def counted(*args):
        before = len(kxk)
        W = solve(*args)
        passes.append(len(kxk) - before)
        return W

    monkeypatch.setattr(pipeline, "solve_all_weights", counted)
    fit_alle(generate_swiss_roll(300, 0.05, 0), PipelineConfig(max_epochs=5))
    assert passes == [0] * 6
    passes.clear()
    fit_alle(rng.standard_normal((80, 12)), PipelineConfig(n_neighbors=6, max_epochs=5))
    assert len(passes) == 6 and all(passes)


@pytest.mark.parametrize("case", ["roll", "wide"])
def test_error_trace_is_the_error_under_the_next_metric(monkeypatch, rng, case):
    # error_trace[e] = ||Z - W Z||^2 with Z mapped through the metric after
    # step e, which is sum_i r_i^T M r_i of the residuals of W_e in X
    if case == "roll":
        X = generate_swiss_roll(300, 0.05, 4).values
        config = PipelineConfig(max_epochs=8, recompute_neighbors="every_epoch")
    else:  # D > K
        X = rng.standard_normal((80, 12))
        config = PipelineConfig(n_neighbors=6, max_epochs=8)
    weights, states = [], []
    solve, step = pipeline.solve_all_weights, pipeline.sgd_update_L
    monkeypatch.setattr(pipeline, "solve_all_weights",
                        lambda *a: weights.append(solve(*a)) or weights[-1])
    monkeypatch.setattr(pipeline, "sgd_update_L",
                        lambda *a: states.append(step(*a)) or states[-1])
    trace = fit_alle(X, config).error_trace
    assert trace.size == len(states) == len(weights) - 1 == 8
    for e, error in enumerate(trace):
        expected = reconstruction_error(compute_residuals(X, weights[e]) @ states[e].L.T)
        assert error == pytest.approx(expected, rel=1e-12, abs=0)


def test_fit_alle_rejects_a_metric_of_the_wrong_dimension(rng):
    with pytest.raises(ValueError, match="metric dimension 2 does not match"):
        fit_alle(rng.standard_normal((10, 3)), PipelineConfig(n_neighbors=2),
                 init_identity(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_alle_rejects_non_finite_values(rng, bad):
    X = rng.standard_normal((30, 3))
    X[3, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        fit_alle(X, PipelineConfig(n_neighbors=5))


def test_fit_alle_rejects_a_start_whose_mapping_overflows():
    # finite points and a finite factor whose X L^T overflows float64
    X = generate_swiss_roll(100, 0.0, 0).values
    with pytest.raises(ValueError, match="points mapped through L overflow float64"):
        fit_alle(X, PipelineConfig(n_neighbors=5), MetricState(1e308 * np.eye(3)))


def test_public_names_resolve_and_exclude_the_removed_ones():
    import adaptive_lle

    for name in adaptive_lle.__all__:
        assert hasattr(adaptive_lle, name), name
    removed = {"local_gram", "init_random", "metric_from_matrix", "subsample",
               "reconstruction_weights", "OptimizerConfig"}
    assert not removed & set(adaptive_lle.__all__)
    assert not any(hasattr(adaptive_lle, name) for name in removed)
