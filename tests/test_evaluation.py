import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_lle import (QualityReport, continuity, evaluate_embedding,
                          evaluation, knn_accuracy, linear_accuracy, neighbors,
                          rank_table, silhouette, stratified_split,
                          trustworthiness)

from conftest import each_path, random_blobs

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


# --------------------------------------------------------------- rank table

def test_rank_table_line():
    table = rank_table(FIXTURE_X)
    assert table[0].tolist() == [0, 1, 2, 3]


def test_rank_table_duplicates_tie_break(monkeypatch):
    points = np.array([[0.0], [1.0], [1.0], [2.0]])
    for _ in each_path(monkeypatch):
        table = rank_table(points)
        # from point 0: the duplicate pair at distance 1 ranks by index
        assert table[0, 1] == 1 and table[0, 2] == 2 and table[0, 3] == 3
        # rows stay permutations of 1..n-1 even with ties
        for i in range(4):
            assert sorted(np.delete(table[i], i)) == [1, 2, 3]


def test_rank_table_matches_sort_oracle(rng):
    points = rng.standard_normal((20, 3))
    assert np.array_equal(rank_table(points), ranks_oracle(points))


@pytest.mark.parametrize("n, pages", [(20, 2), (50_000, 2 ** 21)])
def test_rank_table_fails_fast_past_physical_memory(monkeypatch, n, pages):
    # the search and the table need about 24 n^2 bytes: 9600 B against 8 KiB,
    # and 60 GB against 8 GiB; the check raises before anything n^2 exists
    memory = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(evaluation.os, "sysconf", memory.__getitem__)
    with pytest.raises(MemoryError, match="%d bytes.* %d bytes" % (24 * n * n,
                                                                  pages * 4096)):
        rank_table(np.zeros((n, 1)))
    memory["SC_PHYS_PAGES"] = 1 << 20
    assert rank_table(FIXTURE_X)[0].tolist() == [0, 1, 2, 3]


def test_rank_table_without_sysconf(monkeypatch):
    def unavailable(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(evaluation.os, "sysconf", unavailable)
    assert rank_table(FIXTURE_X)[0].tolist() == [0, 1, 2, 3]


def test_rank_table_ties_across_blocks(monkeypatch):
    points = np.concatenate([integer_grid(4), integer_grid(4)[::5]])
    expected = ranks_oracle(points)
    budgets = (neighbors._BLOCK_BYTES, 8 * len(points) * 3)
    for _ in each_path(monkeypatch):
        for budget in budgets:
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", budget)
            assert np.array_equal(rank_table(points), expected)


def test_rank_table_needs_two_points():
    with pytest.raises(ValueError):
        rank_table(np.zeros((1, 2)))


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
    "rank_table": lambda X, Y, labels: rank_table(Y),
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
