import dataclasses

import numpy as np
import pytest

from adaptive_lle import (DataMatrix, OptimizerConfig, PipelineConfig,
                          builtin_iris, embedding_matrix, fit_alle, fit_lle,
                          generate_swiss_roll, init_random, knn,
                          solve_all_weights, solve_embedding)


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
    config = PipelineConfig(
        n_neighbors=8, max_epochs=5,
        optimizer=OptimizerConfig(eta=1e9))
    result = fit_alle(roll, config)
    assert result.eta_guard
    assert np.all(np.isfinite(result.error_trace))
    assert np.all(np.diff(result.error_trace) <= 1e-10)


def test_early_stop_on_stagnation():
    roll = generate_swiss_roll(150, 0.0, 6)
    config = PipelineConfig(
        n_neighbors=8, max_epochs=50,
        optimizer=OptimizerConfig(eta=1e-13))
    result = fit_alle(roll, config)
    assert result.error_trace.size < 50


def test_direct_mode_runs_and_repairs(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(
        n_neighbors=6, max_epochs=8,
        optimizer=OptimizerConfig(mode="directM", eta=1e-3))
    result = fit_alle(data, config)
    assert np.linalg.eigvalsh(result.metric.matrix)[0] >= -1e-10


def test_adam_mode_runs(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(
        n_neighbors=6, max_epochs=8,
        optimizer=OptimizerConfig(method="adam", eta=1e-3))
    result = fit_alle(data, config)
    assert result.error_trace.size == 8
    assert result.metric.step == 8


def test_adam_requires_factor_mode():
    with pytest.raises(ValueError):
        PipelineConfig(
            n_neighbors=5, optimizer=OptimizerConfig(method="adam", mode="directM"))


def test_recompute_neighbors_every_epoch(rng):
    data = random_dataset(rng, 80, 3)
    config = PipelineConfig(n_neighbors=6, max_epochs=5,
                            recompute_neighbors="every_epoch")
    result = fit_alle(data, config, initial_state=init_random(3, 0.1, 3))
    assert result.error_trace.size == 5


def test_every_epoch_embedding_uses_final_metric_neighbors():
    # the last metric step changes some neighbor lists, so an embedding
    # built from the neighbors searched before that step would differ
    roll = generate_swiss_roll(120, 0.05, 1)
    config = PipelineConfig(n_neighbors=8, max_epochs=4,
                            recompute_neighbors="every_epoch",
                            optimizer=OptimizerConfig(eta=1e-2))
    start = init_random(3, 0.1, 3)
    result = fit_alle(roll, config, initial_state=start)
    before = fit_alle(roll, dataclasses.replace(config, max_epochs=3),
                      initial_state=start).metric
    final_nbrs = knn(roll.values, config.n_neighbors, result.metric)
    stale_nbrs = knn(roll.values, config.n_neighbors, before)
    assert not np.array_equal(np.sort(final_nbrs.ids, axis=1),
                              np.sort(stale_nbrs.ids, axis=1))
    W = solve_all_weights(roll.values, final_nbrs, result.metric, config.gram_reg)
    expected = solve_embedding(embedding_matrix(W, roll.n), config.n_components)
    assert np.array_equal(result.Y, expected.Y)


def test_random_init_seeded(rng):
    data = random_dataset(rng, 60, 3)
    config = PipelineConfig(n_neighbors=5, max_epochs=3)
    assert results_identical(
        fit_alle(data, config, initial_state=init_random(3, 0.5, 11)),
        fit_alle(data, config, initial_state=init_random(3, 0.5, 11)))


def test_initial_state_override(rng):
    data = random_dataset(rng, 60, 3)
    config = PipelineConfig(n_neighbors=5, max_epochs=0)
    start = init_random(3, 0.4, seed=9)
    result = fit_alle(data, config, initial_state=start)
    # the supplied metric drives the neighbor search
    expected_nbrs = knn(data.values, 5, start)
    W = solve_all_weights(data.values, expected_nbrs, start, config.gram_reg)
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
