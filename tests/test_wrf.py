import json
import math

import numpy as np
import pytest

from flowgate.wrf import (DEFAULT_CLASS_WEIGHTS, DecisionTree, Forest,
                          ForestConfig, TreeConfig, fit, init_weights,
                          load_forest, predict_batch, roulette_sample,
                          save_forest, score_tree, train_tree,
                          update_weights)

from conftest import synthetic_dataset


class TestInitWeights:
    def test_stated_class_profile(self):
        # training counts per stated distribution; Normal samples get
        # 0.3 / 17129
        counts = [17129, 3107, 35700, 52, 1126]
        labels = np.repeat(np.arange(5), counts)
        w = init_weights(labels, DEFAULT_CLASS_WEIGHTS)
        assert w[0] == pytest.approx(0.3 / 17129, rel=1e-9)
        assert w[0] == pytest.approx(1.7514e-5, rel=1e-3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_reduction(self):
        labels = np.repeat(np.arange(5), [10, 20, 30, 5, 35])
        n = labels.size
        profile = np.bincount(labels, minlength=5) / n
        w = init_weights(labels, profile)
        assert np.allclose(w, 1.0 / n)
        w_none = init_weights(labels, None)
        assert np.allclose(w_none, 1.0 / n)

    def test_weighted_empty_class_is_error(self):
        labels = np.repeat(np.arange(4), 5)  # class 4 absent
        with pytest.raises(ValueError, match="class 4"):
            init_weights(labels, DEFAULT_CLASS_WEIGHTS)


class TestRouletteSample:
    def test_degenerate_distribution(self):
        w = np.array([0.0, 0.0, 1.0, 0.0])
        idx = roulette_sample(w, 50, np.random.default_rng(0))
        assert np.all(idx == 2)

    def test_uniform_frequencies(self):
        n, draws = 20, 100_000
        w = np.full(n, 1.0 / n)
        idx = roulette_sample(w, draws, np.random.default_rng(7))
        counts = np.bincount(idx, minlength=n)
        expected = draws / n
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_deterministic(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        a = roulette_sample(w, 100, np.random.default_rng(3))
        b = roulette_sample(w, 100, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestTrainTree:
    def test_pure_bootstrap(self):
        X = np.random.default_rng(0).random((10, 3))
        y = np.full(10, 3)
        tree = train_tree(X, y, np.arange(3), TreeConfig(),
                          np.random.default_rng(0))
        assert tree.node_count() == 1
        assert np.all(tree.predict(X) == 3)

    def test_separable_threshold(self):
        X = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = train_tree(X, y, np.array([0]),
                          TreeConfig(min_samples_leaf=1, max_features=None),
                          np.random.default_rng(0))
        assert tree.node_count() == 3
        assert tree.root["threshold"] == pytest.approx(0.7)
        assert np.all(tree.predict(X) == y)

    def test_deterministic(self):
        ds = synthetic_dataset([20] * 5, seed=3, n_features=10)
        a = train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                       np.random.default_rng(5))
        b = train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                       np.random.default_rng(5))
        assert a.root == b.root

    def test_perfect_fit_on_consistent_data(self):
        rng = np.random.default_rng(9)
        X = rng.random((80, 4))
        y = rng.integers(0, 5, 80)
        tree = train_tree(X, y, np.arange(4),
                          TreeConfig(max_depth=10**6, min_samples_leaf=1,
                                     max_features=None),
                          np.random.default_rng(0))
        assert np.all(tree.predict(X) == y)

    def test_unreachable_branch_is_not_visited(self):
        # the right subtree is malformed, but no row reaches it
        tree = DecisionTree({"feature": 0, "threshold": 0.5,
                             "left": {"label": 2, "hist": [0] * 5},
                             "right": {"threshold": 1.0}})
        assert np.all(tree.predict(np.zeros((3, 1))) == 2)

    def test_leaf_tie_goes_to_lowest_code(self):
        X = np.zeros((4, 2))
        y = np.array([1, 1, 3, 3])
        tree = train_tree(X, y, np.arange(2), TreeConfig(),
                          np.random.default_rng(0))
        assert tree.root["label"] == 1


class TestTreeAccuracy:
    # two rows per class, so every class is present
    y = np.repeat(np.arange(5), 2)

    def test_coin_flip_tree(self):
        preds = np.where(np.arange(10) % 2 == 0, self.y, (self.y + 1) % 5)
        a, _ = score_tree(preds, self.y)  # e = 5/10
        assert a == pytest.approx(0.0)

    def test_point_one_error(self):
        preds = self.y.copy()
        preds[0] = 1
        a, _ = score_tree(preds, self.y)  # e = 1/10
        assert a == pytest.approx(0.5 * math.log(9.0))

    def test_perfect_tree_clamped(self):
        a, _ = score_tree(self.y.copy(), self.y)  # e = 0 clamps to 1e-6
        assert a == pytest.approx(0.5 * math.log((1 - 1e-6) / 1e-6))
        assert math.isfinite(a)


def reweighted(w, mult):
    """update_weights' result for hand-worked per-row multipliers."""
    new = np.asarray(w) * np.asarray(mult)
    return new / new.sum()


class TestBetaFactor:
    """beta through update_weights with a_m = 0, so only beta moves the
    weights. Two rows per class; class 0 holds the majority mass m and
    classes 1-4 share the minority mass n."""
    truth = np.repeat(np.arange(5), 2)

    def update(self, class_mass, preds):
        w = np.repeat(np.asarray(class_mass, dtype=np.float64) / 2, 2)
        return w, update_weights(w, preds, self.truth, 0.0)

    def test_balanced_weights_all_one(self):
        # m = n = 0.5: every cell gets 2^0
        preds = np.where(np.arange(10) % 2 == 0, self.truth,
                         (self.truth + 1) % 5)
        w, out = self.update([0.5, 0.125, 0.125, 0.125, 0.125], preds)
        assert np.array_equal(out, w)

    def test_minority_misclassified(self):
        # m = 0.7, n = 0.3; class 0 one right one wrong, minority all wrong
        preds = (self.truth + 1) % 5
        preds[0] = 0
        w, out = self.update([0.7, 0.075, 0.075, 0.075, 0.075], preds)
        mult = [2 ** 0.4, 2 ** -0.4] + [2 ** 0.4] * 8
        assert out == pytest.approx(reweighted(w, mult), rel=1e-12)

    def test_minority_correct(self):
        # m = 0.7, n = 0.3; class 0 one right one wrong, minority all right
        preds = self.truth.copy()
        preds[1] = 1
        w, out = self.update([0.7, 0.075, 0.075, 0.075, 0.075], preds)
        mult = [2 ** 0.4, 2 ** -0.4] + [2 ** -0.4] * 8
        assert out == pytest.approx(reweighted(w, mult), rel=1e-12)

    def test_majority_cells(self):
        # m = 0.8, n = 0.2; rows 0 and 1 are the majority right and wrong
        preds = self.truth.copy()
        preds[1] = 1
        w, out = self.update([0.8, 0.05, 0.05, 0.05, 0.05], preds)
        mult = [2 ** 0.6, 2 ** -0.6] + [2 ** -0.6] * 8
        assert out == pytest.approx(reweighted(w, mult), rel=1e-12)

    def test_exponent_clamp(self):
        # m - n = 100 clamps to 10
        w = np.array([50.0, 50.0])
        out = update_weights(w, np.array([0, 1]), np.array([0, 0]), 0.0)
        assert out == pytest.approx(reweighted(w, [2.0 ** 10, 2.0 ** -10]),
                                    rel=1e-12)


class TestUpdateWeights:
    def test_uniform_multiplier_cancels(self):
        w = np.full(4, 0.25)
        truth = np.array([0, 0, 0, 0])
        preds = truth.copy()
        out = update_weights(w, preds, truth, 1.3)
        assert np.allclose(out, w)

    def test_identity_multipliers(self):
        # a_m = 0 and class masses with m == n = 0.5: all multipliers are 1
        w = np.array([0.25, 0.25, 0.125, 0.125, 0.125, 0.125])
        truth = np.array([0, 0, 1, 2, 3, 4])
        preds = np.array([0, 1, 1, 0, 3, 0])
        out = update_weights(w, preds, truth, 0.0)
        assert np.allclose(out, w)

    def test_hand_normalized_single_error(self):
        # four equal weights, a_m = 0.5 ln 9, one misclassified sample ->
        # 9/12 and 1/12 each. Class 0 (mass 0.3) is majority and correct,
        # class 1 (mass 0.1) minority and misclassified: both cells get
        # beta 2^(m-n), which cancels.
        w = np.full(4, 0.1)
        truth = np.array([1, 0, 0, 0])
        preds = np.array([0, 0, 0, 0])
        out = update_weights(w, preds, truth, 0.5 * math.log(9.0))
        assert out[0] == pytest.approx(0.75)
        assert np.allclose(out[1:], 1.0 / 12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_misclassified_ratio_exceeds_correct(self):
        rng = np.random.default_rng(0)
        w = rng.random(20)
        w /= w.sum()
        truth = np.repeat(np.arange(5), 4)
        preds = truth.copy()
        preds[3] = (truth[3] + 1) % 5  # one class-0 sample wrong
        out = update_weights(w, preds, truth, 0.7)
        ratio = out / w
        same_class = truth == truth[3]
        wrong_ratio = ratio[3]
        right_ratios = ratio[same_class & (preds == truth)]
        assert np.all(wrong_ratio > right_ratios)

    def test_sum_and_positivity(self):
        rng = np.random.default_rng(4)
        w = init_weights(np.repeat(np.arange(5), [50, 10, 70, 3, 12]),
                         DEFAULT_CLASS_WEIGHTS)
        truth = np.repeat(np.arange(5), [50, 10, 70, 3, 12])
        for _ in range(20):
            preds = np.where(rng.random(truth.size) < 0.3,
                             rng.integers(0, 5, truth.size), truth)
            w = update_weights(w, preds, truth, 0.9)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)


class TestMajorityPartition:
    def test_threshold_is_per_class_mean(self):
        # a class is majority when its mass exceeds 1/5; all rows correct,
        # so majority rows get 2^(m-n) and minority rows 2^(n-m)
        for sizes, majority, m in (([60, 10, 15, 10, 5], [0], 0.6),
                                   ([40, 21, 19, 10, 10], [0, 1], 0.61)):
            labels = np.repeat(np.arange(5), sizes)
            w = np.full(100, 0.01)
            out = update_weights(w, labels, labels, 0.0)
            d = m - (1.0 - m)
            mult = np.where(np.isin(labels, majority), 2 ** d, 2 ** -d)
            assert out == pytest.approx(reweighted(w, mult), rel=1e-12)


class TestPerClassAccuracy:
    def test_perfect_tree(self):
        ds = synthetic_dataset([15] * 5, seed=0, n_features=6, noise=0.01,
                               informative=6)
        tree = train_tree(ds.X, ds.y, np.arange(6),
                          TreeConfig(max_depth=30, min_samples_leaf=1,
                                     max_features=None),
                          np.random.default_rng(0))
        _, row = score_tree(tree.predict(ds.X), ds.y)
        assert np.allclose(row, 1.0)

    def test_constant_tree(self):
        ds = synthetic_dataset([10] * 5, seed=1, n_features=4)
        tree = DecisionTree({"label": 0, "hist": [0] * 5})
        _, row = score_tree(tree.predict(ds.X), ds.y)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_absent_class_is_error(self):
        ds = synthetic_dataset([5, 5, 5, 5, 5], seed=0, n_features=4)
        ds.y[ds.y == 4] = 3
        tree = DecisionTree({"label": 0, "hist": [0] * 5})
        with pytest.raises(ValueError, match="class 4"):
            score_tree(tree.predict(ds.X), ds.y)


def constant_forest(labels_per_tree, matrix):
    trees = [DecisionTree({"label": int(c), "hist": [0] * 5})
             for c in labels_per_tree]
    return Forest(trees=trees,
                  accuracy_matrix=np.asarray(matrix, dtype=np.float64),
                  mask=np.ones(3, dtype=np.uint8),
                  config=ForestConfig(n_trees=len(trees)))


class TestWeightedVote:
    def test_unanimity(self):
        matrix = np.random.default_rng(0).random((5, 3)) + 0.01
        forest = constant_forest([2, 2, 2], matrix)
        assert predict_batch(forest, np.zeros((1, 3)))[0] == 2

    def test_all_ones_matrix_is_majority_vote(self):
        forest = constant_forest([1, 1, 2], np.ones((5, 3)))
        assert predict_batch(forest, np.zeros((1, 3)))[0] == 1

    def test_two_tree_score_comparison(self):
        matrix = np.zeros((5, 2))
        matrix[1, 0] = 0.9  # tree 0 accuracy on class 1
        matrix[2, 1] = 0.4  # tree 1 accuracy on class 2
        forest = constant_forest([1, 2], matrix)
        assert predict_batch(forest, np.zeros((1, 3)))[0] == 1

    def test_tie_goes_to_lowest_code(self):
        forest = constant_forest([3, 1], np.ones((5, 2)))
        assert predict_batch(forest, np.zeros((1, 3)))[0] == 1


class TestFitAndPredict:
    def test_single_tree_forest_matches_tree(self):
        ds = synthetic_dataset([20] * 5, seed=2, n_features=8)
        mask = np.ones(8, dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=1), seed=0)
        assert np.array_equal(predict_batch(forest, ds.X),
                              forest.trees[0].predict(ds.X))

    def test_deterministic(self):
        ds = synthetic_dataset([15] * 5, seed=4, n_features=8)
        mask = np.ones(8, dtype=np.uint8)
        a = fit(ds, mask, ForestConfig(n_trees=5), seed=3)
        b = fit(ds, mask, ForestConfig(n_trees=5), seed=3)
        assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix)
        assert all(x.root == y.root for x, y in zip(a.trees, b.trees))

    def test_mask_restricts_splits(self):
        ds = synthetic_dataset([20] * 5, seed=5, n_features=10)
        mask = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=3), seed=0)
        allowed = set(np.flatnonzero(mask))

        def features(node):
            if "label" in node:
                return set()
            return ({node["feature"]} | features(node["left"])
                    | features(node["right"]))

        for tree in forest.trees:
            assert features(tree.root) <= allowed

    def test_weight_history_invariants(self):
        ds = synthetic_dataset([30, 10, 40, 5, 15], seed=6, n_features=6)
        mask = np.ones(6, dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=5), seed=1,
                     record_weights=True)
        assert len(forest.weight_history) == 6
        for w in forest.weight_history:
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)

    def test_baseline_degeneration(self):
        ds = synthetic_dataset([20] * 5, seed=7, n_features=6)
        mask = np.ones(6, dtype=np.uint8)
        cfg = ForestConfig.baseline(n_trees=4)
        forest = fit(ds, mask, cfg, seed=2)
        # uniform profile, no updates: every bootstrap is the classical
        # uniform one; the vote matrix degenerates to all ones
        assert np.all(forest.vote_matrix() == 1.0)
        preds = predict_batch(forest, ds.X)
        stacked = np.stack([t.predict(ds.X) for t in forest.trees])
        majority = np.array([np.argmax(np.bincount(col, minlength=5))
                             for col in stacked.T])
        assert np.array_equal(preds, majority)

    def test_empty_and_mismatched_inputs(self):
        ds = synthetic_dataset([10] * 5, seed=0, n_features=6)
        with pytest.raises(ValueError, match="empty feature mask"):
            fit(ds, np.zeros(6, dtype=np.uint8), ForestConfig(n_trees=1), 0)
        forest = fit(ds, np.ones(6, dtype=np.uint8),
                     ForestConfig(n_trees=1), 0)
        with pytest.raises(ValueError, match="feature columns"):
            predict_batch(forest, np.zeros((2, 9)))
        assert predict_batch(forest, np.zeros((0, 6))).size == 0

    @pytest.mark.parametrize("cfg", [
        ForestConfig(n_trees=0),
        ForestConfig(tree=TreeConfig(max_depth=0)),
        ForestConfig(tree=TreeConfig(max_features="log2")),
        ForestConfig(class_weights=(0.5, 0.5)),
        ForestConfig(class_weights=(0, 0, 0, 0, 0)),
    ], ids=["zero-trees", "zero-depth", "log2", "two-weights", "zero-sum"])
    def test_invalid_config_is_rejected_before_training(self, cfg):
        ds = synthetic_dataset([10] * 5, seed=0, n_features=6)
        with pytest.raises(ValueError, match="require"):
            fit(ds, np.ones(6, dtype=np.uint8), cfg, 0)

    def test_tree_error_carries_index(self):
        ds = synthetic_dataset([10, 10, 10, 10, 10], seed=0, n_features=6)
        ds.y[ds.y == 4] = 3  # class 4 absent -> per-class accuracy fails
        cfg = ForestConfig(n_trees=1, class_weights=None)
        with pytest.raises(RuntimeError, match="tree 0"):
            fit(ds, np.ones(6, dtype=np.uint8), cfg, 0)


class TestPersistence:
    def test_round_trip_identical_predictions(self, tmp_path):
        ds = synthetic_dataset([20] * 5, seed=8, n_features=8)
        mask = np.ones(8, dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=5), seed=4)
        path = tmp_path / "model.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert np.array_equal(predict_batch(loaded, ds.X),
                              predict_batch(forest, ds.X))
        assert np.array_equal(loaded.accuracy_matrix, forest.accuracy_matrix)
        path2 = tmp_path / "model2.json"
        save_forest(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        # model files written before the invert_majority_beta knob was
        # removed still carry it
        doc = json.loads(path.read_text())
        doc["config"]["invert_majority_beta"] = False
        path.write_text(json.dumps(doc))
        assert np.array_equal(predict_batch(load_forest(path), ds.X),
                              predict_batch(forest, ds.X))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a flowgate model"):
            load_forest(path)
