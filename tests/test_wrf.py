import gc
import hashlib
import json
import math
import os

import numpy as np
import pytest

from flowgate import wrf
from flowgate.dataset import EncodedDataset
from flowgate.wrf import (DEFAULT_CLASS_WEIGHTS, DecisionTree, Forest,
                          ForestConfig, TreeConfig, distinct_rows, fit,
                          init_weights, load_forest, predict_batch,
                          roulette_sample, save_forest, score_tree,
                          train_tree, update_weights)

from conftest import count_forks, set_cpus, synthetic_dataset, synthetic_split


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
        assert tree.threshold[0] == pytest.approx(0.7)
        # leaves 1 and 2 are their own children
        assert (tree.feature.tolist(), tree.label.tolist(),
                tree.kids.tolist()) == ([0, 0, 0], [-1, 0, 1],
                                        [2, 1, 1, 1, 2, 2])
        assert np.all(tree.predict(X) == y)

    def test_deterministic(self):
        ds = synthetic_dataset([20] * 5, seed=3, n_features=10)
        a = train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                       np.random.default_rng(5))
        b = train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                       np.random.default_rng(5))
        assert same_tree(a, b)

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
        # the right subtree splits on a column X lacks and holds an
        # out-of-range label, but no row reaches it
        tree = DecisionTree(feature=np.array([0, 0, 99, 0, 0]),
                            threshold=np.array([0.5, 0.0, 1.0, 0.0, 0.0]),
                            label=np.array([-1, 2, -1, 7, 7]),
                            kids=np.array([2, 1, 1, 1, 4, 3, 3, 3, 4, 4]))
        assert np.all(tree.predict(np.zeros((3, 1))) == 2)

    def test_leaf_tie_goes_to_lowest_code(self):
        X = np.zeros((4, 2))
        y = np.array([1, 1, 3, 3])
        tree = train_tree(X, y, np.arange(2), TreeConfig(),
                          np.random.default_rng(0))
        assert tree.label.tolist() == [1]

    def test_leaves_no_reference_cycle(self):
        ds = synthetic_dataset([20] * 5, seed=3, n_features=10)
        gc.collect()
        gc.disable()
        try:
            tree = train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                              np.random.default_rng(5))
            assert gc.collect() == 0
            tree.node_count()
            assert gc.collect() == 0
            tree.predict(ds.X)
            assert gc.collect() == 0
            train_tree(ds.X, ds.y, np.arange(10), TreeConfig(),
                       np.random.default_rng(5), np.arange(ds.y.size) % 3 + 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_chain_tree_deeper_than_the_recursion_limit(self, tmp_path):
        # alternating labels on one column: every split peels off one row,
        # so the tree is a chain of 1499 splits
        X = np.arange(1500)[:, None]
        y = np.arange(1500) % 2
        cfg = TreeConfig(max_depth=10**6, min_samples_leaf=1)
        tree = train_tree(X, y, np.array([0]), cfg, np.random.default_rng(0))
        assert np.array_equal(tree.predict(X), y)
        assert tree.node_count() == len(tree.kids) // 2 == 2999
        # fit needs every class and grows on a bootstrap: five copies of
        # each row keep nearly every value in it, so its tree is a chain too
        ds = EncodedDataset(X=np.repeat(np.arange(1503.0), 5)[:, None],
                            y=np.repeat(np.r_[y, 2, 3, 4], 5),
                            feature_names=["x"], encoders={})
        forest = fit(ds, np.ones(1, dtype=np.uint8),
                     ForestConfig.baseline(n_trees=1, tree=cfg), seed=0)
        assert forest.trees[0].node_count() > 2000
        path = tmp_path / "chain.json"
        save_forest(forest, path)
        assert np.array_equal(predict_batch(load_forest(path), ds.X),
                              predict_batch(forest, ds.X))


def reference_tree(X, y, feature_ids, cfg, rng):
    """The per-node learner train_tree replaced: every node argsorts each
    candidate column of its own rows. The oracle for exactness. It grows
    depth by depth; with mtry < d, each depth's nodes to split, in level
    order, take d uniforms each from one rng.random call, and a node tries
    the columns of its mtry smallest."""
    def best_split(X, y, cols):
        n = y.size
        parent_counts = np.bincount(y, minlength=5).astype(np.float64)
        parent_gini = 1.0 - np.sum((parent_counts / n) ** 2)
        best = None
        onehot = np.zeros((n, 5))
        onehot[np.arange(n), y] = 1.0
        for c in cols:
            order = np.argsort(X[:, c], kind="stable")
            xs = X[order, c]
            left = np.cumsum(onehot[order], axis=0)
            cut = np.flatnonzero(xs[:-1] < xs[1:])
            nl = (cut + 1).astype(np.float64)
            leaf = cfg.min_samples_leaf
            ok = (nl >= leaf) & (n - nl >= leaf)
            if not ok.any():
                continue
            cut, nl = cut[ok], nl[ok]
            nr = n - nl
            lc = left[cut]
            rc = parent_counts - lc
            gini_l = 1.0 - np.sum(lc ** 2, axis=1) / nl ** 2
            gini_r = 1.0 - np.sum(rc ** 2, axis=1) / nr ** 2
            decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
            k = int(np.argmax(decrease))
            if decrease[k] > 0 and (best is None or decrease[k] > best[0]):
                best = (decrease[k], c, (xs[cut[k]] + xs[cut[k] + 1]) / 2.0)
        return best

    def leaf(ysub):
        hist = np.bincount(ysub, minlength=5)
        return {"label": int(np.argmax(hist)), "hist": [int(c) for c in hist]}

    d = X.shape[1]
    mtry = math.ceil(math.sqrt(d)) if cfg.max_features == "sqrt" else d
    root = {}
    level = [(root, np.arange(y.size))]  # parents' order, left child first
    for depth in range(cfg.max_depth + 1):  # all leaves at max_depth
        grow = []
        for node, idx in level:
            ysub = y[idx]
            if (depth >= cfg.max_depth or idx.size < 2 * cfg.min_samples_leaf
                    or np.all(ysub == ysub[0])):
                node.update(leaf(ysub))
            else:
                grow.append((node, idx))
        if not grow:
            return root
        draws = rng.random((len(grow), d)) if mtry < d else None
        level = []
        for i, (node, idx) in enumerate(grow):
            cols = np.arange(d) if draws is None else \
                np.sort(np.argsort(draws[i], kind="stable")[:mtry])
            split = best_split(X[idx], y[idx], cols)
            if split is None:
                node.update(leaf(y[idx]))
                continue
            _, c, thr = split
            go_left = X[idx, c] <= thr
            node.update(feature=int(feature_ids[c]), threshold=float(thr),
                        left={}, right={})
            level += [(node["left"], idx[go_left]),
                      (node["right"], idx[~go_left])]


def flatten(node):
    """reference_tree's nested dicts as train_tree's pre-order node arrays:
    a leaf is its own right and left child at kids[2i] and kids[2i + 1]."""
    feature, threshold, label, kids = [], [], [], []

    def visit(node):
        i = len(label)
        leaf = "label" in node
        feature.append(0 if leaf else node["feature"])
        threshold.append(0.0 if leaf else node["threshold"])
        label.append(node["label"] if leaf else -1)
        kids.extend([i, i])
        if not leaf:
            kids[2 * i + 1] = i + 1
            visit(node["left"])
            kids[2 * i] = len(label)
            visit(node["right"])

    visit(node)
    return DecisionTree(*map(np.array, (feature, threshold, label, kids)))


def same_tree(a, b):
    """Whether two trees hold equal node arrays of equal dtypes."""
    return all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in zip(a, b, strict=True))


def same_trees(a, b):
    return len(a) == len(b) and all(map(same_tree, a, b))


# two values whose midpoint rounds onto the upper one, so all rows go left
LOW, HIGH = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51


def oracle_cases():
    """Seeded inputs of 1 to 300 rows: heavily tied integer columns, a
    constant column, a continuous column, in every other case a copy of
    column 0 (tied decreases), and in every third case a LOW/HIGH column.
    Then three built cases that the root splits on column 0, so that the
    second depth holds two splittable nodes:
    - on the left, labels that are the XOR of columns 1 and 2, which no cut
      improves, while column 3 splits the right;
    - on the left, labels that equal columns 1 and 2, a tie between
      columns, while continuous column 4 splits the right;
    - on the left, labels set by the LOW/HIGH column 5, while the right is
      pure."""
    for seed, n in enumerate([1, 2, 3, 1, 2, 3, 12, 40, 40, 150, 300, 300]):
        rng = np.random.default_rng([seed, n])
        X = rng.integers(0, rng.integers(2, 6), size=(n, 6)).astype(float)
        X[:, 2] = 7.0
        X[:, 4] = rng.normal(size=n)
        if seed % 2:
            X[:, 3] = X[:, 0]
        if seed % 3 == 0:
            X[:, 5] = np.where(rng.random(n) < 0.5, LOW, HIGH)
        y = rng.integers(0, rng.integers(1, 6), size=n)
        yield X, y
    rng = np.random.default_rng(17)
    bits = np.repeat(np.indices((2, 2, 2)).reshape(3, -1).T, 4, axis=0)
    left, a, b = bits[:, 0] == 0, bits[:, 1], bits[:, 2]
    side = rng.integers(0, 2, bits.shape[0])  # a right row's label
    X = np.zeros((bits.shape[0], 6))
    X[:, :3] = bits
    X[:, 3] = np.where(left, 0.0, side)
    yield X.copy(), np.where(left, a ^ b, 2 + side)
    X[:, 2] = X[:, 1]
    X[:, 3] = 0.0
    X[:, 4] = np.where(left, 0.0, rng.normal(size=bits.shape[0]) + 3 * side)
    yield X.copy(), np.where(left, a, 2 + side)
    X[:, 1:5] = 0.0
    X[:, 5] = np.where(a == 1, HIGH, LOW)
    yield X, np.where(left, a, 2)


def counted_cases():
    """Distinct rows with counts: oracle_cases' rows counted 1 to 3 times,
    plus four built cases. In the first, one distinct row counted 5 times
    faces five single rows, so min_samples_leaf 2 or 5 admits the cut
    between them only through that count. In the second, many rows share
    x but differ in y. In the last two the counts sum past 4096: first
    over three classes, whose totals still pack into one word, then with
    every class over 4096, whose five fields do not."""
    for seed, (X, y) in enumerate(oracle_cases()):
        yield X, y, np.random.default_rng(seed).integers(1, 4, y.size)
    yield (np.repeat(np.arange(6.0), 6).reshape(6, 6), np.r_[0, 1, 1, 1, 1, 1],
           np.r_[5, 1, 1, 1, 1, 1])
    rng = np.random.default_rng(99)
    yield (rng.integers(0, 2, size=(60, 6)).astype(float),
           rng.integers(0, 5, 60), rng.integers(1, 6, 60))
    X = rng.integers(0, 4, size=(15, 6)).astype(float)
    yield X, np.arange(15) % 3, rng.integers(300, 3000, 15)
    yield X, np.arange(15) % 5, rng.integers(1400, 1800, 15)


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("max_depth", [1, 20])
@pytest.mark.parametrize("max_features", [None, "sqrt"])
@pytest.mark.parametrize("chunk", [wrf.SPLIT_CHUNK, 7, 1])
def test_train_tree_matches_per_node_reference(min_leaf, max_depth,
                                               max_features, chunk,
                                               monkeypatch):
    # chunk 1 scores one (column, node) cell at a time, so ties cross chunk
    # boundaries; chunk 7 puts cells of different nodes in one chunk and
    # splits a depth's cells across chunks
    monkeypatch.setattr(wrf, "SPLIT_CHUNK", chunk)
    cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf,
                     max_features=max_features)
    ids = np.array([3, 5, 8, 13, 21, 34])
    for i, (X, y) in enumerate(oracle_cases()):
        expected = reference_tree(X, y, ids, cfg, np.random.default_rng(i))
        got = train_tree(X, y, ids, cfg, np.random.default_rng(i))
        assert same_tree(got, flatten(expected)), f"case {i}"
    # counted distinct rows grow the tree of the repeated rows, and
    # all-ones counts the uncounted tree
    for i, (X, y, count) in enumerate(counted_cases()):
        expected = reference_tree(np.repeat(X, count, axis=0),
                                  np.repeat(y, count), ids, cfg,
                                  np.random.default_rng(i))
        got = train_tree(X, y, ids, cfg, np.random.default_rng(i), count)
        assert same_tree(got, flatten(expected)), f"counted case {i}"
        ones = train_tree(X, y, ids, cfg, np.random.default_rng(i),
                          np.ones(y.size, dtype=np.int64))
        assert same_tree(ones, train_tree(X, y, ids, cfg,
                                          np.random.default_rng(i)))


@pytest.mark.parametrize("d", [1, 2, 6])
def test_every_column_tree_draws_nothing(d):
    # ceil(sqrt(d)) == d over 1 or 2 columns, so "sqrt" scores every column
    # too: the bat's probes and the default forest never advance rng
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(200, d)).astype(float)
    y = (X.sum(axis=1) + rng.integers(0, 2, 200)).astype(int) % 5
    ids = np.arange(d)
    state = rng.bit_generator.state
    every = train_tree(X, y, ids, TreeConfig(), rng)
    assert every.node_count() > 1
    assert rng.bit_generator.state == state
    if d <= 2:
        assert same_tree(train_tree(X, y, ids, TreeConfig(max_features="sqrt"),
                                    rng), every)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [[1, 0, 2], [1, -1, 2], [1, 2],
                                   [1.0, 1.0, 1.0]],
                         ids=["zero", "negative", "short", "float"])
def test_train_tree_rejects_bad_counts(count):
    with pytest.raises(ValueError, match="count"):
        train_tree(np.arange(3.0)[:, None], np.array([0, 1, 1]), [0],
                   TreeConfig(), np.random.default_rng(0), count)


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
        tree = leaf_tree(0)
        _, row = score_tree(tree.predict(ds.X), ds.y)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_absent_class_is_error(self):
        ds = synthetic_dataset([5, 5, 5, 5, 5], seed=0, n_features=4)
        ds.y[ds.y == 4] = 3
        tree = leaf_tree(0)
        with pytest.raises(ValueError, match="class 4"):
            score_tree(tree.predict(ds.X), ds.y)


def leaf_tree(label):
    return DecisionTree(np.array([0]), np.array([0.0]), np.array([label]),
                        np.array([0, 0]))


def constant_forest(labels_per_tree, matrix):
    trees = [leaf_tree(int(c)) for c in labels_per_tree]
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

    def test_forest_without_trees_is_an_error(self):
        forest = constant_forest([], np.ones((5, 0)))
        for rows in (0, 1, 5):
            with pytest.raises(ValueError, match="forest has no trees"):
                predict_batch(forest, np.zeros((rows, 3)))


def partition_predict(tree, X):
    """DecisionTree.predict before the level-by-level router: the rows are
    partitioned node by node from an explicit stack. The oracle for route."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        i, idx = stack.pop()
        right, left = tree.kids[2 * i], tree.kids[2 * i + 1]
        if idx.size and right == left == i:
            out[idx] = tree.label[i]
        elif idx.size:
            go_left = X[idx, tree.feature[i]] <= tree.threshold[i]
            stack.append((right, idx[~go_left]))
            stack.append((left, idx[go_left]))
    return out


def loop_predict_batch(forest, X):
    """predict_batch before the router: each tree's votes are added to the
    class scores in turn, in tree order."""
    votes = forest.vote_matrix()
    scores = np.zeros((X.shape[0], 5))
    for m, tree in enumerate(forest.trees):
        preds = partition_predict(tree, X)
        scores[np.arange(X.shape[0]), preds] += votes[preds, m]
    return np.argmax(scores, axis=1)


def first_trees(forest, k):
    return Forest(trees=forest.trees[:k],
                  accuracy_matrix=forest.accuracy_matrix[:, :k],
                  mask=forest.mask, config=forest.config)


@pytest.fixture(scope="module")
def routed_cases():
    """(forest, rows) pairs: seeded weighted, baseline and "sqrt" forests of
    1 to 30 trees on 1000 rows holding NaN and +-inf, and the 1500-deep
    chain tree on every 25th value of its column and on NaN and +-inf."""
    train, test = synthetic_split([60] * 5, [200] * 5, seed=12, n_features=12)
    mask = np.ones(12, dtype=np.uint8)
    mask[[3, 8]] = 0
    X = test.X.copy()
    X[::7, :4], X[1::11, 4:8], X[2::13, 8:] = np.nan, np.inf, -np.inf
    cases = []
    for cfg in (ForestConfig(n_trees=30), ForestConfig.baseline(n_trees=30),
                ForestConfig.baseline(n_trees=30,
                                      tree=TreeConfig(max_features="sqrt"))):
        forest = fit(train, mask, cfg, seed=4)
        cases += [(first_trees(forest, k), X) for k in (1, 2, 7, 30)]
    chain = train_tree(np.arange(1500)[:, None], np.arange(1500) % 2, [0],
                       TreeConfig(max_depth=10**6, min_samples_leaf=1),
                       np.random.default_rng(0))
    assert chain.node_count() == 2999
    cases.append((Forest(trees=[chain], accuracy_matrix=np.ones((5, 1)),
                         mask=np.ones(1, dtype=np.uint8),
                         config=ForestConfig(n_trees=1)),
                  np.r_[np.arange(0, 1500, 25.0), 1499.5, np.nan, np.inf,
                        -np.inf][:, None]))
    return cases


@pytest.mark.parametrize("chunk", [wrf.ROUTE_CHUNK, 77, 1])
def test_router_matches_the_per_tree_partition(routed_cases, chunk,
                                                monkeypatch):
    # chunk 77 and 1 split a batch into many chunks, the last one partial
    monkeypatch.setattr(wrf, "ROUTE_CHUNK", chunk)
    for i, (forest, X) in enumerate(routed_cases):
        for rows in (X[:0], X[:1], X):
            assert np.array_equal(predict_batch(forest, rows),
                                  loop_predict_batch(forest, rows)), i
        for tree in forest.trees:
            assert np.array_equal(tree.predict(X), partition_predict(tree, X))


@pytest.mark.parametrize("labels, class_1, class_0, expected", [
    ([1, 1, 0], [0.1, 0.2], 0.3, 1),  # 0.1 + 0.2 > 0.3
    ([1, 1, 1, 0], [0.1, 0.2, 0.3], 0.6, 1),  # 0.6000000000000001
    ([1, 1, 1, 0], [0.3, 0.2, 0.1], 0.6, 0),  # 0.6: a tie, the lower code
    ([1] * 10 + [0], [0.09, 0.07, 0.06, 0.07, 0.07, 0.07, 0.07, 0.09, 0.09,
                      0.09], 0.7699999999999999, 0),  # a tie again
])
def test_votes_add_in_tree_order(labels, class_1, class_0, expected):
    # summed in another order the scores of the last three cases change
    # sides: reversed, the second and third; pairwise, as numpy sums eight
    # or more numbers in a row, the fourth (to 0.77)
    matrix = np.zeros((5, len(labels)))
    matrix[1, :-1], matrix[0, -1] = class_1, class_0
    forest = constant_forest(labels, matrix)
    X = np.zeros((3, 3))
    assert np.array_equal(loop_predict_batch(forest, X), [expected] * 3)
    assert np.array_equal(predict_batch(forest, X), [expected] * 3)


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
        assert same_trees(a.trees, b.trees)

    def test_mask_restricts_splits(self):
        ds = synthetic_dataset([20] * 5, seed=5, n_features=10)
        mask = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=3), seed=0)
        allowed = set(np.flatnonzero(mask))
        for tree in forest.trees:
            split = tree.kids[::2] != np.arange(tree.node_count())
            assert set(tree.feature[split].tolist()) <= allowed

    def test_weight_history_invariants(self):
        ds = synthetic_dataset([30, 10, 40, 5, 15], seed=6, n_features=6)
        mask = np.ones(6, dtype=np.uint8)
        forest = fit(ds, mask, ForestConfig(n_trees=5), seed=1,
                     record_weights=True)
        assert len(forest.weight_history) == 6
        for w in forest.weight_history:
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)

    @pytest.mark.parametrize("cfg", [
        ForestConfig(n_trees=20),
        ForestConfig.baseline(n_trees=20,
                              tree=TreeConfig(max_features="sqrt")),
    ], ids=["weighted", "sqrt-baseline"])
    def test_matches_a_loop_over_repeated_rows(self, cfg):
        # binary columns and a mask that drops two of them: 127 distinct
        # rows of 400 under the mask, and equal rows differ in y, so the
        # weighted schedule shifts weight onto a shrinking set of rows
        rng = np.random.default_rng(11)
        X = rng.integers(0, 2, size=(400, 8)).astype(float)
        y = (X[:, 0] + 2 * X[:, 1] + rng.integers(0, 2, 400)).astype(int) % 5
        ds = EncodedDataset(X=X, y=y, feature_names=[f"f{i}" for i in
                                                     range(8)], encoders={})
        mask = np.array([1, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
        cols = np.flatnonzero(mask)
        forest = fit(ds, mask, cfg, seed=5)
        # fit as one loop over the bootstrap's repeated rows
        weights = init_weights(
            ds.y, DEFAULT_CLASS_WEIGHTS if cfg.weighted else None)
        trees, acc_rows = [], []
        for m in range(cfg.n_trees):
            rng = np.random.default_rng(
                np.random.SeedSequence([5, m]).generate_state(1)[0])
            idx = roulette_sample(weights, ds.n_samples, rng)
            tree = train_tree(ds.X[idx][:, cols], ds.y[idx], cols, cfg.tree,
                              rng)
            preds = tree.predict(ds.X)
            a_m, acc_row = score_tree(preds, ds.y)
            if cfg.weighted:
                weights = update_weights(weights, preds, ds.y, a_m)
            trees.append(tree)
            acc_rows.append(acc_row)
        assert same_trees(forest.trees, trees)
        assert np.array_equal(forest.accuracy_matrix,
                              np.stack(acc_rows, axis=1))

    @pytest.mark.parametrize("cfg, nodes_sha, preds_sha", [
        (ForestConfig(n_trees=8),
         "53d601b0e3a05ddabbbb8c38551739d05b79b1a109c7917d5890f089ad5e21bd",
         "742cdd62c871dc0237daa33b9f1f082a0dfccb2181ea32c0cd3ea16a20925350"),
        (ForestConfig.baseline(n_trees=8,
                               tree=TreeConfig(max_features="sqrt")),
         "0cc51a93735c00ae2151a063cc664773f54ee2ce4423398b59d30a9fa403b064",
         "9879bcceb5bd57a8c3f2118f63cdf790e222023eb4f010171f2e361e58d4164a"),
    ], ids=["weighted", "sqrt-baseline"])
    def test_golden_fit(self, cfg, nodes_sha, preds_sha):
        """Recorded forests on a fixed set: the class priors and the weight
        updates move the node arrays and the accuracy matrix, the vote
        moves the predictions; a reference loop that follows the config
        cannot see one of them wired to the wrong setting."""
        rng = np.random.default_rng(23)
        X = rng.integers(0, 4, size=(300, 6)).astype(float)
        y = (X[:, 0] + X[:, 1] + rng.integers(0, 3, 300)).astype(int) % 5
        ds = EncodedDataset(X=X, y=y, feature_names=[f"f{i}" for i in
                                                     range(6)], encoders={})
        forest = fit(ds, np.array([1, 1, 0, 1, 1, 1], dtype=np.uint8), cfg,
                     seed=9)
        nodes = hashlib.sha256()
        for tree in forest.trees:
            for a, dtype in zip(tree, ("<i8", "<f8", "<i8", "<i8")):
                nodes.update(np.asarray(a, dtype=dtype).tobytes())
        nodes.update(forest.accuracy_matrix.astype("<f8").tobytes())
        assert nodes.hexdigest() == nodes_sha
        preds = predict_batch(forest, X).astype("<i8")
        assert hashlib.sha256(preds.tobytes()).hexdigest() == preds_sha

    def test_distinct_rows_groups_rows_equal_in_x_and_y(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0],
                      [-0.0, 1.0]])
        y = np.array([2, 0, 2, 3, 0])
        first, group = distinct_rows(X, y)
        # -0.0 and 0.0 differ in bytes: rows 1 and 4 stay apart
        assert sorted(first) == [0, 1, 3, 4]
        assert np.array_equal(first[group[first]], first)
        assert np.array_equal(X[first][group], X)
        assert np.array_equal(y[first][group], y)

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
    ], ids=["zero-trees", "zero-depth", "log2"])
    def test_invalid_config_is_rejected_before_training(self, cfg):
        ds = synthetic_dataset([10] * 5, seed=0, n_features=6)
        with pytest.raises(ValueError, match="require"):
            fit(ds, np.ones(6, dtype=np.uint8), cfg, 0)

    def test_tree_error_carries_index(self):
        ds = synthetic_dataset([10, 10, 10, 10, 10], seed=0, n_features=6)
        ds.y[ds.y == 4] = 3  # class 4 absent -> per-class accuracy fails
        cfg = ForestConfig.baseline(n_trees=1)
        with pytest.raises(RuntimeError, match="tree 0"):
            fit(ds, np.ones(6, dtype=np.uint8), cfg, 0)


class TestForestOverCpus:
    """The classical forest's trees grow as one cpu_map batch, the weighted
    forest's in turn in this process; either way the forest is the same."""

    @pytest.mark.parametrize("cfg", [
        ForestConfig.baseline(n_trees=7),
        ForestConfig.baseline(n_trees=7, tree=TreeConfig(max_features="sqrt")),
    ], ids=["baseline", "sqrt"])
    def test_classical_forest_is_the_same_on_one_cpu_and_two(
            self, monkeypatch, cfg):
        ds = synthetic_dataset([40, 15, 50, 8, 20], seed=3, n_features=9)
        mask = np.array([1, 1, 0, 1, 1, 1, 0, 1, 1], dtype=np.uint8)
        forests, forks = [], count_forks(monkeypatch)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            forests.append(fit(ds, mask, cfg, seed=6))
            assert bool(forks) == (cpus == 2)
        one, two = forests
        assert same_trees(one.trees, two.trees)
        assert one.accuracy_matrix.dtype == two.accuracy_matrix.dtype
        assert np.array_equal(one.accuracy_matrix, two.accuracy_matrix)
        assert np.array_equal(predict_batch(one, ds.X),
                              predict_batch(two, ds.X))

    def test_weighted_forest_never_forks(self, two_cpus, monkeypatch):
        def fork():
            raise AssertionError("the weighted forest forked")

        monkeypatch.setattr(os, "fork", fork)
        ds = synthetic_dataset([20] * 5, seed=1, n_features=6)
        forest = fit(ds, np.ones(6, dtype=np.uint8), ForestConfig(n_trees=4),
                     seed=2)
        assert forest.n_trees == 4

    def test_tree_error_in_a_child_reads_as_in_process(self, monkeypatch):
        ds = synthetic_dataset([20] * 5, seed=1, n_features=6)
        mask, cfg = np.ones(6, dtype=np.uint8), ForestConfig.baseline(
            n_trees=4)
        drawn = []

        def record(X, y, *args):
            drawn.append(y.tobytes())
            return train_tree(X, y, *args)

        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(wrf, "train_tree", record)
        fit(ds, mask, cfg, seed=0)
        assert drawn.count(drawn[1]) == 1

        def fails_on_tree_1(X, y, *args):
            if y.tobytes() == drawn[1]:
                raise ValueError(f"no tree on {y.size} rows")
            return train_tree(X, y, *args)

        # on two CPUs the child grows trees 1 and 3
        monkeypatch.setattr(wrf, "train_tree", fails_on_tree_1)
        errors = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(RuntimeError) as err:
                fit(ds, mask, cfg, seed=0)
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1])
        assert str(errors[0]).startswith("tree 1: no tree on ")
        assert all(type(e.__cause__) is ValueError for e in errors)


def persisted_forest(case):
    """(forest, rows to predict) of a round-trip test case."""
    ds = synthetic_dataset([20] * 5, seed=8, n_features=8)
    mask = np.ones(8, dtype=np.uint8)
    if case == "chain-at-max-depth":
        # alternating labels on one column: trees grow until max_depth
        ds = EncodedDataset(X=np.repeat(np.arange(203.0), 5)[:, None],
                            y=np.repeat(np.r_[np.arange(200) % 2, 2, 3, 4], 5),
                            feature_names=["x"], encoders={})
        mask = np.ones(1, dtype=np.uint8)
    cfg = {
        "single-leaves": ForestConfig(
            n_trees=3, tree=TreeConfig(min_samples_leaf=1000)),
        "chain-at-max-depth": ForestConfig.baseline(
            n_trees=2, tree=TreeConfig(max_depth=12, min_samples_leaf=1)),
        "weighted": ForestConfig(n_trees=5),
        "sqrt-baseline": ForestConfig.baseline(
            n_trees=5, tree=TreeConfig(max_features="sqrt")),
    }[case]
    return fit(ds, mask, cfg, seed=4), ds.X


class TestPersistence:
    @pytest.mark.parametrize("case", ["single-leaves", "chain-at-max-depth",
                                      "weighted", "sqrt-baseline"])
    def test_round_trip_restores_trees_and_table(self, tmp_path, case):
        forest, X = persisted_forest(case)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        stacked = wrf.stack_trees(forest.trees)
        assert loaded.table is not None
        for name, a, b in zip(wrf.NodeTable._fields, loaded.table, stacked):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert same_trees(loaded.trees, forest.trees)
        assert np.array_equal(predict_batch(loaded, X),
                              predict_batch(forest, X))
        save_forest(loaded, again)
        assert path.read_bytes() == again.read_bytes()
        trees = json.loads(path.read_text())["trees"]
        splits = trees["label"].count(-1)
        assert len(trees["feature"]) == len(trees["threshold"]) == splits
        if case == "single-leaves":
            assert splits == 0 and trees["feature"] == []
        if case == "chain-at-max-depth":
            for tree in forest.trees:
                depth = np.zeros(tree.node_count(), dtype=int)
                for i, kid in enumerate(tree.kids):
                    if kid != i // 2:
                        depth[kid] = depth[i // 2] + 1
                assert depth.max() == 12

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
        # nested-dict (v1), per-tree list (v2), three-weighting-key (v3) and
        # explicit-children (v4) model files are not read
        doc = json.loads(path.read_text())
        for old in ("flowgate-model-v1", "flowgate-model-v2",
                    "flowgate-model-v3", "flowgate-model-v4"):
            doc["format"] = old
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"{old}.*flowgate-model-v5"):
                load_forest(path)

    def test_readme_names_the_current_model_format(self, tmp_path):
        """The README gives wrf.MODEL_FORMAT as the model file's format and
        every older flowgate-model-vN as refused, and so does load_forest."""
        current = int(wrf.MODEL_FORMAT.rsplit("v", 1)[1])
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = " ".join(fh.read().split())
        assert f"A model file (`{wrf.MODEL_FORMAT}`) holds" in text
        refused = text[text.index("Files in the older formats"):]
        refused = refused[:refused.index("are not read or converted")]
        assert wrf.MODEL_FORMAT not in refused
        for k in range(1, current):
            assert f"`flowgate-model-v{k}`" in refused
        assert f"retrain to get a v{current} file" in text
        path = tmp_path / "old.json"
        path.write_text(json.dumps(
            {"format": f"flowgate-model-v{current - 1}"}))
        with pytest.raises(ValueError, match=wrf.MODEL_FORMAT):
            load_forest(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a flowgate model"):
            load_forest(path)
