import json

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_lle import (PipelineConfig, QualityReport, continuity,
                          evaluate_embedding, evaluation, fit_lle,
                          generate_swiss_roll, knn_accuracy, linear_accuracy,
                          neighbors, silhouette, stratified_split,
                          trustworthiness)

from conftest import PATHS, each_path, near_duplicates, random_blobs

FIXTURE_X = np.array([[0.0], [1.0], [3.0], [7.0]])
FIXTURE_Y = np.array([[0.0], [1.0], [7.0], [3.0]])


# ------------------------------------------------------------------ oracles

def neighbor_sets_oracle(points, k):
    n = len(points)
    sets = []
    for i in range(n):
        pairs = sorted((np.linalg.norm(points[i] - points[j]), j)
                       for j in range(n) if j != i)
        sets.append({j for _, j in pairs[:k]})
    return sets


def ranks_oracle(points):
    n = len(points)
    table = np.zeros((n, n), dtype=int)
    for i in range(n):
        pairs = sorted((np.linalg.norm(points[i] - points[j]), j)
                       for j in range(n) if j != i)
        for rank, (_, j) in enumerate(pairs, start=1):
            table[i, j] = rank
    return table


def trustworthiness_oracle(X, Y, k):
    """Literal double-loop transcription of the trustworthiness formula."""
    n = len(X)
    rx = ranks_oracle(X)
    nx, ny = neighbor_sets_oracle(X, k), neighbor_sets_oracle(Y, k)
    total = 0
    for i in range(n):
        for j in ny[i] - nx[i]:
            total += rx[i, j] - k
    return 1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * total


def continuity_oracle(X, Y, k):
    n = len(X)
    ry = ranks_oracle(Y)
    nx, ny = neighbor_sets_oracle(X, k), neighbor_sets_oracle(Y, k)
    total = 0
    for i in range(n):
        for j in nx[i] - ny[i]:
            total += ry[i, j] - k
    return 1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * total


def knn_accuracy_oracle(points, labels, k, train, test):
    """Literal per-test-point sort and vote; vote ties go to the smallest label."""
    correct = 0
    for i in test:
        pairs = sorted((np.linalg.norm(points[i] - points[j]), j)
                       for j in train if j != i)
        votes = [labels[j] for _, j in pairs[:k]]
        best = max(votes.count(c) for c in set(votes))
        correct += min(c for c in set(votes) if votes.count(c) == best) == labels[i]
    return correct / len(test)


def integer_grid(side):
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)


def silhouette_oracle(points, labels):
    """Literal per-point silhouette formula."""
    n = len(points)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own])
        b = min(np.mean([np.linalg.norm(points[i] - points[j])
                         for j in range(n) if labels[j] == c])
                for c in set(labels) if c != labels[i])
        top = max(a, b)
        scores.append(0.0 if top == 0 else (b - a) / top)
    return float(np.mean(scores))


# ------------------------------------------- ranks as the rank scores count them

def rank_table(points):
    """Every pair's rank in ``points``, read one intruder at a time from the
    penalty of the current search path at k = 1: each row keeps its own
    nearest neighbor as B's set except row i, which is given j, so the
    penalty is rank(i, j) - 1.  The diagonal stays 0."""
    n = len(points)
    near, _ = neighbors._nearest(points, 1)
    on_tree = points.shape[1] <= neighbors._TREE_MAX_DIM
    table = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            near_b = near.copy()
            near_b[i, 0] = j
            if on_tree:
                penalty = evaluation._tree_penalty(points, near, near_b, 1)
            else:
                penalty = evaluation._kernel_penalty(points, near, near_b, 1)
            table[i, j] = penalty + 1
    return table


def test_rank_table_line(monkeypatch):
    for _ in each_path(monkeypatch):
        assert rank_table(FIXTURE_X)[0].tolist() == [0, 1, 2, 3]


def test_rank_table_duplicates_tie_break(monkeypatch):
    points = np.array([[0.0], [1.0], [1.0], [2.0]])
    for _ in each_path(monkeypatch):
        table = rank_table(points)
        # from point 0: the duplicate pair at distance 1 ranks by index
        assert table[0, 1] == 1 and table[0, 2] == 2 and table[0, 3] == 3
        # rows stay permutations of 1..n-1 even with ties
        for i in range(4):
            assert sorted(np.delete(table[i], i)) == [1, 2, 3]


def test_rank_table_matches_sort_oracle(monkeypatch, rng):
    points = rng.standard_normal((20, 3))
    for _ in each_path(monkeypatch):
        assert np.array_equal(rank_table(points), ranks_oracle(points))


def test_rank_table_ties_across_blocks(monkeypatch):
    points = np.concatenate([integer_grid(4), integer_grid(4)[::5]])
    expected = ranks_oracle(points)
    budgets = (neighbors._BLOCK_BYTES, 8 * len(points), 8 * len(points) * 3)
    for _ in each_path(monkeypatch):
        for budget in budgets:
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", budget)
            assert np.array_equal(rank_table(points), expected)


# ---------------------------------------------------- trustworthiness et al.

def test_trustworthiness_identity_embedding(rng):
    X = rng.standard_normal((25, 4))
    assert trustworthiness(X, X, 5) == 1.0
    assert continuity(X, X, 5) == 1.0


def test_isometry_and_uniform_scaling_preserve_scores(rng):
    X = rng.standard_normal((20, 3))
    theta = 0.7
    rotation = np.array([[np.cos(theta), -np.sin(theta), 0],
                         [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
    Y = 3.5 * (X @ rotation.T) + np.array([5.0, -2.0, 0.5])
    assert trustworthiness(X, Y, 4) == 1.0
    assert continuity(X, Y, 4) == 1.0


def test_four_point_fixture():
    assert trustworthiness(FIXTURE_X, FIXTURE_Y, 1) == pytest.approx(0.625, abs=1e-12)
    assert continuity(FIXTURE_X, FIXTURE_Y, 1) == pytest.approx(0.625, abs=1e-12)


def test_trust_continuity_match_literal_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(8, 31))
        k = int(rng.integers(1, max(2, (2 * n - 1) // 3 - 1)))
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 2))
        assert trustworthiness(X, Y, k) == pytest.approx(
            trustworthiness_oracle(X, Y, k), abs=1e-12)
        assert continuity(X, Y, k) == pytest.approx(
            continuity_oracle(X, Y, k), abs=1e-12)


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_trust_continuity_ties_match_oracle(k, monkeypatch):
    # integer grids tie at every rank; the 1-D shadow ties even more
    X = integer_grid(6)
    sheared = X @ np.array([[1.0, 0.0], [1.0, 1.0]])
    for _ in each_path(monkeypatch):
        for Y in (sheared, X[:, :1], X[::-1]):
            assert trustworthiness(X, Y, k) == pytest.approx(
                trustworthiness_oracle(X, Y, k), abs=1e-12)
            assert continuity(X, Y, k) == pytest.approx(
                continuity_oracle(X, Y, k), abs=1e-12)


def test_trust_continuity_duplicates_across_blocks(monkeypatch, rng):
    base = rng.integers(0, 4, (14, 3)).astype(float)
    X = np.concatenate([base, base[:6]])
    Y = X[:, :2] + rng.integers(0, 2, (len(X), 2))
    expected = (trustworthiness_oracle(X, Y, 4), continuity_oracle(X, Y, 4))
    for _ in each_path(monkeypatch):
        for rows in (1, 3, len(X)):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(X) * rows)
            assert trustworthiness(X, Y, 4) == pytest.approx(expected[0], abs=1e-12)
            assert continuity(X, Y, 4) == pytest.approx(expected[1], abs=1e-12)


def test_swap_duality(rng):
    for _ in range(5):
        X = rng.standard_normal((15, 3))
        Y = rng.standard_normal((15, 2))
        assert trustworthiness(X, Y, 3) == continuity(Y, X, 3)
        assert continuity(X, Y, 3) == trustworthiness(Y, X, 3)


@st.composite
def isometric_copies(draw):
    """(X, Y, k): 3-12 points with coordinates in {0, 1, 2} in 1-3 dimensions
    (so duplicates and exact ties abound), any valid k, and Y = X with its
    coordinates permuted, their signs flipped and an integer shift added."""
    D = draw(st.integers(1, 3))
    n = draw(st.integers(3, 12))
    coords = st.lists(st.integers(0, 2), min_size=n * D, max_size=n * D)
    X = np.array(draw(coords), dtype=float).reshape(n, D)
    order = draw(st.permutations(range(D)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=D, max_size=D))
    shift = draw(st.lists(st.integers(-5, 5), min_size=D, max_size=D))
    k = draw(st.integers(1, (2 * n - 2) // 3))  # k < (2n - 1) / 3
    return X, X[:, order] * np.array(signs) + np.array(shift, dtype=float), k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(isometric_copies())
def test_trust_continuity_one_under_isometries(case):
    # an exact isometry keeps every distance, so both neighbor orders agree
    X, Y, k = case
    with pytest.MonkeyPatch.context() as patch:
        for _ in each_path(patch):
            assert trustworthiness(X, Y, k) == 1.0
            assert continuity(X, Y, k) == 1.0


def jittered_grid():
    """An integer grid 1e6 from the origin, a third of its coordinates moved
    by 1 ulp (rounding-level before the shift to the center), then four
    points duplicated."""
    rng = np.random.default_rng(5)
    grid = integer_grid(6) + 1e6
    away = np.where(rng.random(grid.shape) < 0.5, np.inf, -np.inf)
    grid = np.where(rng.random(grid.shape) < 1 / 3, np.nextafter(grid, away), grid)
    return np.concatenate([grid, grid[[0, 7, 14, 35]]])


def test_trust_continuity_near_ties_match_oracle(monkeypatch):
    # exact ties and the jittered grid's duplicates go to the exact count,
    # the jittered distances stay ordered as the literal oracle orders them
    X = jittered_grid()
    exact_rows, tied_rows = [], 0
    count = evaluation._kernel_penalty

    def spy(A, near_a, near_b, k, rows=None):
        exact_rows.append(len(A) if rows is None else len(rows))
        return count(A, near_a, near_b, k, rows)

    monkeypatch.setattr(evaluation, "_kernel_penalty", spy)
    for k in (3, 5):
        for Y in (X @ np.array([[1.0, 0.0], [1.0, 1.0]]), X[::-1], X[:, ::-1]):
            expected = (trustworthiness_oracle(X, Y, k), continuity_oracle(X, Y, k))
            for path in each_path(monkeypatch):
                exact_rows.clear()
                assert evaluation._rank_scores(X, Y, k) == expected
                if path == "tree":  # only rows with a tied intruder, not all
                    assert sum(exact_rows) < 2 * len(X)
                    tied_rows += sum(exact_rows)
    assert tied_rows > 0


def test_trust_continuity_near_duplicates_match_oracle(monkeypatch):
    # a 1-ulp neighbor ties with an exact copy in the kernel's distances;
    # its rank and the k-sets come from direct differences instead
    X = near_duplicates()
    for k in (1, 2):
        for Y in (X[::-1], np.arange(8.0)[:, None]):
            expected = (trustworthiness_oracle(X, Y, k), continuity_oracle(X, Y, k))
            for _ in each_path(monkeypatch):
                assert evaluation._rank_scores(X, Y, k) == expected


@pytest.fixture(scope="module")
def fitted_roll():
    roll = generate_swiss_roll(1500, 0.0, 0)
    return roll.values, fit_lle(roll, PipelineConfig(n_neighbors=10)).Y


def test_tree_count_equals_brute_pass_on_fitted_roll(monkeypatch, fitted_roll):
    # no pair of this fit is tied, so the tree settles every rank itself
    X, Y = fitted_roll
    scores = {path: (trustworthiness(X, Y, 10), continuity(X, Y, 10))
              for path in each_path(monkeypatch)}
    assert scores["tree"] == scores["kernel"]

    def no_exact_count(*args):
        raise AssertionError("a row went to the exact count")

    monkeypatch.setattr(evaluation, "_kernel_penalty", no_exact_count)
    monkeypatch.setattr(neighbors, "_TREE_MAX_DIM", PATHS["tree"])
    assert (trustworthiness(X, Y, 10), continuity(X, Y, 10)) == scores["tree"]


def score_of(penalty, n, k):
    return 1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * penalty


def assert_list_widths_agree(patch, X, Y, k, expected):
    """On each search path, _tree_penalty gives the same penalty with A's
    neighbor list at widths k, 2k and n - 1, and scores ``expected``."""
    n = len(X)
    for _ in each_path(patch):
        for (A, B), value in zip(((X, Y), (Y, X)), expected):
            near_b, _ = neighbors._nearest(B, k)
            penalties = {evaluation._tree_penalty(A, neighbors._nearest(A, w)[0],
                                                  near_b, k)
                         for w in (k, min(2 * k, n - 1), n - 1)}
            assert len(penalties) == 1
            assert score_of(penalties.pop(), n, k) == value


def test_list_ranks_equal_counted_ranks_at_every_width(monkeypatch, fitted_roll):
    # an intruder's column in A's list is its rank, whatever the list's
    # width: duplicates and ties sort there as the ranks count them
    X, Y = fitted_roll
    k = 10
    assert_list_widths_agree(monkeypatch, X, Y, k, (trustworthiness(X, Y, k),
                                                    continuity(X, Y, k)))
    X, Y = X[:200], Y[:200]
    assert_list_widths_agree(monkeypatch, X, Y, k, (trustworthiness_oracle(X, Y, k),
                                                    continuity_oracle(X, Y, k)))
    X = near_duplicates()
    for k in (1, 2):
        for Y in (X[::-1], np.arange(8.0)[:, None]):
            assert_list_widths_agree(monkeypatch, X, Y, k,
                                     (trustworthiness_oracle(X, Y, k),
                                      continuity_oracle(X, Y, k)))
    X = jittered_grid()
    for k in (3, 5):
        for Y in (X @ np.array([[1.0, 0.0], [1.0, 1.0]]), X[::-1], X[:, ::-1]):
            assert_list_widths_agree(monkeypatch, X, Y, k,
                                     (trustworthiness_oracle(X, Y, k),
                                      continuity_oracle(X, Y, k)))


def test_ranks_beyond_the_list_only_are_counted(monkeypatch, rng, fitted_roll):
    built, counted = [], {}  # widths of the trees built, points counted per width

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            built.append(self.m)

        def query_ball_point(self, *args, **kwargs):
            counts = super().query_ball_point(*args, **kwargs)
            counted[self.m] = counted.get(self.m, 0) + int(np.sum(counts))
            return counts

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    # n - 1 <= _LIST_WIDTH k: the list holds every other point, so no rank is
    # counted; the search of n - 1 neighbors runs on the kernel, so no tree
    # is built either
    X = rng.standard_normal((21, 3))
    Y = rng.standard_normal((21, 2))
    for k in (5, 6):
        assert evaluation._LIST_WIDTH * k >= 20
        built.clear()
        assert evaluation._rank_scores(X, Y, k) == (trustworthiness_oracle(X, Y, k),
                                                    continuity_oracle(X, Y, k))
        assert built == [] and counted == {}
    # intruders, all within the list: one tree per space, for its search
    X = rng.standard_normal((60, 3))
    Y = X + 0.1 * rng.standard_normal((60, 3))
    built.clear()
    T, C = evaluation._rank_scores(X, Y, 5)
    assert T < 1 and C < 1
    assert built == [3, 3] and counted == {}
    # on the fitted roll the list settles most intruders: fewer points are
    # counted than with a list of width k
    X, Y = fitted_roll
    scores = evaluation._rank_scores(X, Y, 10)
    at_list = dict(counted)
    monkeypatch.setattr(evaluation, "_LIST_WIDTH", 1)
    counted.clear()
    assert evaluation._rank_scores(X, Y, 10) == scores
    assert sorted(at_list) == sorted(counted) == [2, 3]
    assert all(at_list[m] < counted[m] for m in counted)


def test_zero_visit_budget_ranks_every_pair_exactly(monkeypatch, fitted_roll):
    # past the budget, every row of the score goes to one brute pass
    X, Y = fitted_roll
    expected = (trustworthiness(X, Y, 10), continuity(X, Y, 10))
    exact_rows = []
    count = evaluation._kernel_penalty

    def spy(A, near_a, near_b, k, rows=None):
        exact_rows.append(rows)
        return count(A, near_a, near_b, k, rows)

    monkeypatch.setattr(evaluation, "_kernel_penalty", spy)
    monkeypatch.setattr(evaluation, "_VISIT_BUDGET", 0.0)
    assert evaluation._rank_scores(X, Y, 10) == expected
    assert exact_rows == [None, None]


def test_random_embedding_stays_within_visit_budget(monkeypatch, fitted_roll):
    # ranks in a random Y are about n/2, so counting them all would visit
    # several n^2 points; the counts stop once they project past the budget
    X, _ = fitted_roll
    n = len(X)
    Y = np.random.default_rng(0).standard_normal((n, 2))
    counted = {}  # points counted per ranking space, keyed by its width

    class CountingTree(scipy.spatial.cKDTree):
        def query_ball_point(self, *args, **kwargs):
            counts = super().query_ball_point(*args, **kwargs)
            counted[self.m] = counted.get(self.m, 0) + int(np.sum(counts))
            return counts

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    budget = evaluation._VISIT_BUDGET * n * n
    scores = evaluation._rank_scores(X, Y, 10)
    assert sorted(counted) == [2, 3]
    assert all(0 < c <= budget for c in counted.values())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_VISIT_BUDGET", np.inf)
        counted.clear()
        assert evaluation._rank_scores(X, Y, 10) == scores
        assert sorted(counted) == [2, 3]
        assert all(c > budget for c in counted.values())
        patch.setattr(neighbors, "_TREE_MAX_DIM", 0)
        assert evaluation._rank_scores(X, Y, 10) == scores


def test_evaluation_searches_each_space_once(monkeypatch, rng):
    # trustworthiness and continuity share one neighbor search per space
    X = rng.standard_normal((60, 3))
    Y = X[:, :2] + 0.1 * rng.standard_normal((60, 2))
    widths = []
    search = evaluation._nearest

    def spy(Z, k):
        widths.append(Z.shape[1])
        return search(Z, k)

    monkeypatch.setattr(evaluation, "_nearest", spy)
    for _ in each_path(monkeypatch):
        widths.clear()
        evaluate_embedding(X, Y, 5)
        assert sorted(widths) == [2, 3]


def test_k_bound_validation(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(ValueError):
        trustworthiness(X, X, 0)
    with pytest.raises(ValueError):
        trustworthiness(X, X, 7)  # (2n-1)/3 = 6.33
    with pytest.raises(ValueError):
        continuity(X, X, 7)


# ----------------------------------------------------------------- silhouette

def test_silhouette_two_cluster_fixture():
    points = np.array([[0.0, 0], [0, 1], [10, 0], [10, 1]])
    labels = np.array([0, 0, 1, 1])
    value = silhouette(points, labels)
    assert value == pytest.approx(0.9002, abs=1e-4)
    assert value == pytest.approx(silhouette_oracle(points, labels), abs=1e-12)


def test_silhouette_duplicated_clusters():
    points = np.array([[0.0, 0], [0, 0], [9, 9], [9, 9]])
    labels = np.array([0, 0, 1, 1])
    assert silhouette(points, labels) == 1.0


def test_silhouette_random_labels_near_zero(rng):
    for seed in range(20):
        local = np.random.default_rng(seed)
        points = local.standard_normal((120, 2))
        labels = local.integers(0, 2, 120)
        if len(np.unique(labels)) < 2:
            continue
        assert abs(silhouette(points, labels)) <= 0.1


def test_silhouette_relabeling_invariance(rng):
    points, labels = random_blobs(rng, 30)
    assert silhouette(points, labels) == silhouette(points, 5 - labels)


def test_silhouette_matches_oracle(rng):
    for _ in range(5):
        points = rng.standard_normal((18, 2))
        labels = rng.integers(0, 3, 18)
        if len(np.unique(labels)) < 2:
            continue
        assert silhouette(points, labels) == pytest.approx(
            silhouette_oracle(points, labels), abs=1e-12)


def test_silhouette_row_blocks_match_oracle(rng, monkeypatch):
    # a budget of 7 rows of differences splits 40 points into 6 blocks;
    # class 3 is a singleton and class 4 two coincident points
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * 40 * 2 * 7)
    points = np.vstack([rng.standard_normal((37, 2)), [[5.0, 5.0]],
                        [[2.0, 2.0]] * 2])
    labels = np.r_[rng.integers(0, 3, 37), 3, 4, 4]
    assert silhouette(points, labels) == pytest.approx(
        silhouette_oracle(points, labels), abs=1e-12)


def test_silhouette_single_cluster_error():
    with pytest.raises(ValueError):
        silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))


# -------------------------------------------------------------------- splits

def test_stratified_split_properties():
    labels = np.array([0] * 40 + [1] * 20)
    train, test = stratified_split(labels, 0.25, seed=0)
    assert np.intersect1d(train, test).size == 0
    assert train.size + test.size == 60
    assert np.sum(labels[test] == 0) == 10 and np.sum(labels[test] == 1) == 5
    again = stratified_split(labels, 0.25, seed=0)
    assert np.array_equal(train, again[0]) and np.array_equal(test, again[1])


def test_stratified_split_small_class_error():
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 0, 1]), 0.25, seed=0)


# ---------------------------------------------------------------- knn score

def test_knn_accuracy_separated_clusters(rng):
    points, labels = random_blobs(rng, 40)
    assert knn_accuracy(points, labels, 5) == 1.0


def test_knn_accuracy_chance_level():
    scores = []
    for seed in range(20):
        local = np.random.default_rng(100 + seed)
        points = local.standard_normal((100, 2))
        labels = np.repeat([0, 1], 50)
        local.shuffle(labels)
        scores.append(knn_accuracy(points, labels, 5, seed=seed))
    assert 0.3 <= np.mean(scores) <= 0.7


def test_knn_accuracy_leave_one_out_on_duplicates(rng):
    base, labels = random_blobs(rng, 10)
    points = np.concatenate([base, base])
    labels = np.concatenate([labels, labels])
    idx = np.arange(len(points))
    # train == test: self-exclusion makes each duplicate the nearest carrier
    assert knn_accuracy(points, labels, 1, split=(idx, idx)) == 1.0


def test_knn_accuracy_vote_tie_goes_to_smallest_label():
    points = np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0], [0.0]])
    labels = np.array([1, 2, 1, 2, 1, 1])
    train, test = np.array([1, 2, 3, 4]), np.array([0, 5])
    # the four votes split 2:2 between labels 1 and 2; label 1 wins
    assert knn_accuracy(points, labels, 4, split=(train, test)) == 1.0


def test_knn_accuracy_matches_oracle_with_ties(monkeypatch, rng):
    points = rng.integers(0, 4, (60, 2)).astype(float)
    labels = rng.integers(0, 3, 60)
    overlapping = (np.arange(45), np.arange(30, 60))
    for rows in (2, 60):
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * 60 * rows)
        for split in (stratified_split(labels, 0.25, seed=3), overlapping):
            for k in (1, 4, 7):
                assert knn_accuracy(points, labels, k, split=split) == (
                    knn_accuracy_oracle(points, labels, k, *split))


def test_knn_accuracy_relabeling_invariance(rng):
    # the votes are counted per distinct label, whatever its value; an order-
    # preserving relabeling keeps every vote tie going to the same class
    blobs, labels = random_blobs(rng, 20)
    assert knn_accuracy(blobs, 2 * labels - 1, 5) == 1.0
    points = rng.integers(0, 4, (60, 2)).astype(float)
    labels = rng.integers(0, 2, 60)
    split = stratified_split(labels, 0.25, seed=3)
    for k in (1, 4, 7):
        expected = knn_accuracy(points, labels, k, split=split)
        for low, high in ((-1, 1), (7, 10 ** 9)):
            relabeled = np.where(labels == 0, low, high)
            assert knn_accuracy(points, relabeled, k, split=split) == expected


def test_knn_accuracy_validation(rng):
    points, labels = random_blobs(rng, 10)
    with pytest.raises(ValueError):
        knn_accuracy(points, labels, 0)
    with pytest.raises(ValueError):
        knn_accuracy(points, labels, 1000)


# ------------------------------------------------------------- linear score

def test_linear_accuracy_separable(rng):
    points, labels = random_blobs(rng, 40)
    assert linear_accuracy(points, labels) == 1.0


def test_linear_accuracy_chance_level():
    scores = []
    for seed in range(20):
        local = np.random.default_rng(200 + seed)
        points = local.standard_normal((100, 2))
        labels = np.repeat([0, 1], 50)
        local.shuffle(labels)
        scores.append(linear_accuracy(points, labels, seed=seed))
    assert 0.3 <= np.mean(scores) <= 0.7


def test_linear_accuracy_constant_features_majority_class():
    labels = np.array([0] * 40 + [1] * 20)
    points = np.ones((60, 3))
    acc = linear_accuracy(points, labels, seed=0)
    assert acc == pytest.approx(10.0 / 15.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 2e152, 5e152])
def test_linear_accuracy_standardizes_near_overflow(scale):
    # each row's squared norm is finite here, but the std's sum over rows
    # used to overflow, standardizing every feature to 0 (accuracy 0.5)
    rng = np.random.default_rng(0)
    points = np.vstack([rng.standard_normal((500, 2)) - 3.0,
                        rng.standard_normal((500, 2)) + 3.0])
    labels = np.repeat([0, 1], 500)
    assert linear_accuracy(points * scale, labels) == 1.0


def test_linear_accuracy_multiclass(rng):
    points, labels = random_blobs(
        rng, 30, centers=((0, 0), (8, 0), (0, 8)))
    assert linear_accuracy(points, labels) == 1.0


# ------------------------------------------------------------------- report

def test_quality_report_json_full(rng):
    points, labels = random_blobs(rng, 30)
    Y = points[:, :1]
    report = evaluate_embedding(points, Y, k=5, labels=labels)
    payload = json.loads(report.to_json())
    for key in ("trustworthiness", "continuity", "k", "silhouette",
                "knn_accuracy", "linear_accuracy", "split"):
        assert key in payload
    assert 0.0 <= payload["trustworthiness"] <= 1.0
    assert 0.0 <= payload["knn_accuracy"] <= 1.0


def test_quality_report_json_unlabeled(rng):
    points, _ = random_blobs(rng, 20)
    report = evaluate_embedding(points, points[:, :1], k=3)
    payload = json.loads(report.to_json())
    for key in ("silhouette", "knn_accuracy", "linear_accuracy"):
        assert key not in payload


def test_quality_report_round_trip_dict():
    report = QualityReport(trustworthiness=0.9, continuity=0.8, k=5)
    assert report.to_dict() == {"trustworthiness": 0.9, "continuity": 0.8, "k": 5}


# ------------------------------------------------------------ non-finite input

SCORES = {
    "trustworthiness": lambda X, Y, labels: trustworthiness(X, Y, 5),
    "continuity": lambda X, Y, labels: continuity(X, Y, 5),
    "silhouette": lambda X, Y, labels: silhouette(Y, labels),
    "knn_accuracy": lambda X, Y, labels: knn_accuracy(Y, labels, 5),
    "linear_accuracy": lambda X, Y, labels: linear_accuracy(Y, labels),
}


@pytest.mark.parametrize("score", [trustworthiness, continuity])
def test_rank_scores_reject_overflowing_distances(monkeypatch, score):
    # either space past float64's squared range is refused on both paths;
    # continuity of a huge X used to raise IndexError, and trustworthiness
    # to return scores above 1
    X = np.random.default_rng(0).standard_normal((150, 3))
    for _ in each_path(monkeypatch):
        for A, B in ((X * 1e155, X), (X, X * 1e155)):
            with pytest.raises(ValueError, match="squared distances overflow"):
                score(A, B, 5)


@pytest.mark.parametrize("score", [silhouette, linear_accuracy])
def test_labeled_scores_reject_overflowing_distances(score):
    # at x1e155 silhouette used to return NaN and the linear probe to
    # standardize by an overflowed std; both now refuse as knn_accuracy does
    rng = np.random.default_rng(0)
    Y = np.vstack([rng.standard_normal((75, 2)),
                   rng.standard_normal((75, 2)) + 4.0])
    labels = np.repeat([0, 1], 75)
    with pytest.raises(ValueError, match="squared distances overflow"):
        score(Y * 1e155, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("score", SCORES)
def test_scores_reject_non_finite_embedding(rng, score, bad):
    # one bad entry used to yield a score outside [0, 1], a rank of 1 on the
    # diagonal or a LinAlgError; every score now fails as knn does
    X, labels = random_blobs(rng, 30)
    Y = X.copy()
    Y[7, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        SCORES[score](X, Y, labels)
