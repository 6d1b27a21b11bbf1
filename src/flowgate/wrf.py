"""Cost-sensitive weighted random forest for five-class flow classification.

Per-sample selection weights start from class-level priors, each tree is
grown on a roulette-wheel bootstrap, and after every tree the weights move
by a class/correctness-dependent beta factor times e^{+-a_m}. Votes are
weighted by each tree's per-class accuracy.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import (N_CLASSES, EncodedDataset, check_doc, field_types,
                      write_json)

MODEL_FORMAT = "flowgate-model-v2"

# class priors stated for the five-class split: Normal, Probe, DoS, U2R, R2L
DEFAULT_CLASS_WEIGHTS = (0.3, 0.15, 0.35, 0.05, 0.15)

ERROR_CLAMP = 1e-6
BETA_EXP_CLAMP = 10.0


@dataclass
class TreeConfig:
    max_depth: int = 20
    min_samples_leaf: int = 2
    max_features: str | None = None  # "sqrt" or None (all features)

    def validate(self):
        if not (self.max_depth >= 1 and self.min_samples_leaf >= 1
                and self.max_features in (None, "sqrt")):
            raise ValueError(f"require max_depth >= 1, min_samples_leaf >= 1 "
                             f"and max_features None or 'sqrt': {self}")


@dataclass
class ForestConfig:
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    class_weights: tuple[float, ...] | None = DEFAULT_CLASS_WEIGHTS
    use_weight_updates: bool = True
    use_weighted_vote: bool = True

    def validate(self):
        self.tree.validate()
        cw = self.class_weights
        if not (self.n_trees >= 1 and (cw is None or len(cw) == N_CLASSES
                                       and min(cw) >= 0 and sum(cw) > 0)):
            raise ValueError(f"require n_trees >= 1 and class_weights None or "
                             f"{N_CLASSES} weights >= 0, sum > 0: {self}")

    @classmethod
    def baseline(cls, **fields):
        """Classical RF: uniform sample weights, no updates, majority vote.
        fields sets n_trees and tree."""
        return cls(class_weights=None, use_weight_updates=False,
                   use_weighted_vote=False, **fields)


# the flat forest config of a model file: TreeConfig and ForestConfig fields
CONFIG_TYPES = {k: t for k, t in field_types(TreeConfig, ForestConfig).items()
                if k != "tree"}


@dataclass
class DecisionTree:
    """Greedy Gini CART over a selected-feature subset as five parallel
    lists, one entry per node in pre-order, node 0 the root. A leaf has
    left -1 and predicts its label. Split i has label -1 and sends rows with
    X[:, feature[i]] <= threshold[i] to left[i] == i + 1, else to right[i]."""

    feature: list
    threshold: list
    left: list
    right: list
    label: list

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            i, idx = stack.pop()
            if idx.size and self.left[i] == -1:
                out[idx] = self.label[i]
            elif idx.size:
                go_left = X[idx, self.feature[i]] <= self.threshold[i]
                stack.append((self.right[i], idx[~go_left]))
                stack.append((self.left[i], idx[go_left]))
        return out

    def node_count(self):
        return len(self.left)


TREE_TYPES = field_types(DecisionTree)  # the arrays of a model file's tree

# most (column, row) cells a node scores at once: bounds the temporaries at
# the root, while a deep node scores all its columns in one pass
SPLIT_CHUNK = 1 << 15


def train_tree(X, y, feature_ids, cfg: TreeConfig, rng) -> DecisionTree:
    """Grow a CART on (X, y); X columns correspond to feature_ids in the
    original feature space, which is what split nodes record.

    Each column is argsorted once. A node owns the segment [lo, hi) of
    every column's row order, and a split partitions that segment stably,
    so both children stay sorted. Thresholds are midpoints between adjacent
    distinct values; ties go to the lowest column, then lowest threshold.
    """
    XT = np.asarray(X, dtype=np.float64).T.copy()
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("cannot train a tree on an empty bootstrap")
    d = XT.shape[0]
    feature_ids = np.asarray(feature_ids, dtype=np.int64)
    mtry = int(math.ceil(math.sqrt(d))) if cfg.max_features == "sqrt" else d
    leaf = cfg.min_samples_leaf
    order = np.argsort(XT, axis=1, kind="stable").astype(np.int32)
    go_left = np.zeros(y.size, dtype=bool)
    nodes = []  # [feature, threshold, left, right, label] per node
    # an explicit stack, popped left child first: nodes are grown, and
    # rng.choice drawn, in pre-order; a right child sets its parent's right
    stack = [(0, y.size, 0, -1)]
    while stack:
        lo, hi, depth, parent = stack.pop()
        i = len(nodes)
        if parent >= 0:
            nodes[parent][3] = i
        n = hi - lo
        counts = np.bincount(y[order[0, lo:hi]], minlength=N_CLASSES)
        nodes.append([-1, 0.0, -1, -1, int(np.argmax(counts))])  # a leaf
        if depth >= cfg.max_depth or n < 2 * leaf or counts.max() == n:
            continue
        cols = np.sort(rng.choice(d, size=mtry, replace=False)) \
            if mtry < d else np.arange(d)
        parent_gini = 1.0 - np.sum((counts / n) ** 2)
        best, c, thr = 0.0, None, None
        step = max(1, SPLIT_CHUNK // n)
        for s in range(0, mtry, step):
            cs = cols[s:s + step]
            rows = order[cs, lo:hi]
            xs = XT[cs[:, None], rows]
            # cuts between distinct values with >= leaf rows on each side
            ci, pi = np.nonzero(xs[:, leaf - 1:n - leaf]
                                < xs[:, leaf:n - leaf + 1])
            if ci.size == 0:
                continue
            pi += leaf - 1
            lc = np.cumsum(y[rows][:, :, None] == np.arange(N_CLASSES),
                           axis=1, dtype=np.int32)[ci, pi].astype(np.float64)
            nl = (pi + 1).astype(np.float64)
            nr = n - nl
            rc = counts - lc
            # integer counts: the sums of squares are exact in any order
            gini_l = 1.0 - np.einsum("ij,ij->i", lc, lc) / nl ** 2
            gini_r = 1.0 - np.einsum("ij,ij->i", rc, rc) / nr ** 2
            decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
            k = int(np.argmax(decrease))
            if decrease[k] > best:
                best, c = decrease[k], cs[ci[k]]
                thr = (xs[ci[k], pi[k]] + xs[ci[k], pi[k] + 1]) / 2.0
        if c is None:
            continue
        rows = order[c, lo:hi]
        go_left[rows] = XT[c, rows] <= thr
        seg = order[:, lo:hi]
        mark = go_left[seg]
        mid = lo + int(np.count_nonzero(mark[0]))
        order[:, lo:hi] = np.concatenate((seg[mark].reshape(d, -1),
                                          seg[~mark].reshape(d, -1)), axis=1)
        nodes[i] = [int(feature_ids[c]), float(thr), i + 1, -1, -1]
        stack.append((mid, hi, depth + 1, i))
        stack.append((lo, mid, depth + 1, -1))
    return DecisionTree(*map(list, zip(*nodes)))


def init_weights(labels, class_weights=None) -> np.ndarray:
    """Per-sample selection weights: each sample of class j gets w_j / N_j.

    With class_weights None every sample gets 1/N (the classical uniform
    bootstrap). The returned vector sums to exactly 1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=N_CLASSES)
    if class_weights is None:
        w = np.full(labels.size, 1.0 / labels.size)
    else:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        for j in range(N_CLASSES):
            if class_weights[j] > 0 and counts[j] == 0:
                raise ValueError(
                    f"class {j} has weight {class_weights[j]} but no samples")
        per_sample = np.zeros(N_CLASSES)
        present = counts > 0
        per_sample[present] = class_weights[present] / counts[present]
        w = per_sample[labels]
    return w / w.sum()


def roulette_sample(weights, count: int, rng) -> np.ndarray:
    """count independent draws with replacement, P(i) = w_i."""
    weights = np.asarray(weights, dtype=np.float64)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(count), side="right")


def score_tree(preds, y):
    """a_m = 0.5 ln((1-e)/e) from the tree's error rate e over the dataset,
    and the tree's accuracy on each class."""
    counts = np.bincount(y, minlength=N_CLASSES)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} absent from the dataset")
    correct = preds == y
    e = float(np.mean(~correct))
    e = min(1.0 - ERROR_CLAMP, max(ERROR_CLAMP, e))
    return (0.5 * math.log((1.0 - e) / e),
            np.bincount(y[correct], minlength=N_CLASSES) / counts)


def update_weights(weights, predictions, truth, a_m: float) -> np.ndarray:
    """One boosting-style weight update after a tree.

    A class is majority when its total sample weight exceeds the per-class
    mean 1/5; m and n are the total weights of the majority and minority
    classes. Majority-correct and minority-misclassified samples get
    beta = 2^(m-n), the other two cells 2^(n-m), with the exponent clamped
    to +-BETA_EXP_CLAMP. Misclassified samples are multiplied by
    beta * e^{+a_m}, correct ones by beta * e^{-a_m}, then the vector is
    renormalized to sum exactly 1.
    """
    weights = np.asarray(weights, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if predictions.shape != truth.shape or truth.shape != weights.shape:
        raise ValueError("weights, predictions and truth are misaligned")
    class_mass = np.bincount(truth, weights=weights, minlength=N_CLASSES)
    is_majority = class_mass > 1.0 / N_CLASSES
    d = (float(class_mass[is_majority].sum())
         - float(class_mass[~is_majority].sum()))
    d = min(BETA_EXP_CLAMP, max(-BETA_EXP_CLAMP, d))
    correct = predictions == truth
    # Python float powers: np.power rounds differently in the last bit for
    # about 5% of exponents, which would change saved models
    beta = np.where(is_majority[truth] == correct, 2.0 ** d, 2.0 ** -d)
    new = weights * (beta * np.where(correct, math.exp(-a_m), math.exp(a_m)))
    z = new.sum()
    if not (z > 0 and np.isfinite(z)):
        raise RuntimeError("weight update produced non-positive total mass")
    return new / z


@dataclass
class Forest:
    trees: list
    accuracy_matrix: np.ndarray  # (N_CLASSES, M)
    mask: np.ndarray             # feature mask the forest was trained under
    config: ForestConfig
    weight_history: list | None = None  # populated when fit records weights

    @property
    def n_trees(self):
        return len(self.trees)

    def vote_matrix(self):
        if self.config.use_weighted_vote:
            return self.accuracy_matrix
        return np.ones_like(self.accuracy_matrix)


def predict_batch(forest: Forest, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.mask.size:
        raise ValueError(
            f"expected {forest.mask.size} feature columns, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-2D input'}")
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    votes = forest.vote_matrix()
    scores = np.zeros((X.shape[0], N_CLASSES))
    for m, tree in enumerate(forest.trees):
        preds = tree.predict(X)
        scores[np.arange(X.shape[0]), preds] += votes[preds, m]
    return np.argmax(scores, axis=1)


def fit(ds: EncodedDataset, mask, cfg: ForestConfig, seed: int,
        record_weights: bool = False) -> Forest:
    """Train the weighted forest.

    Trees are grown sequentially: roulette bootstrap under the current
    weights, then one prediction pass over the whole dataset that gives
    a_m, the per-class accuracy row and the beta-scheduled weight update.
    Per-tree RNG streams derive from (seed, tree index) so the result is
    deterministic.
    """
    cfg.validate()
    mask = np.asarray(mask, dtype=np.uint8)
    if not mask.any():
        raise ValueError("empty feature mask")
    if mask.size != ds.n_features:
        raise ValueError("mask width does not match dataset feature count")
    cols = np.flatnonzero(mask)
    weights = init_weights(ds.y, cfg.class_weights)
    history = [weights.copy()] if record_weights else None
    trees = []
    acc_rows = []
    for m in range(cfg.n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, m]).generate_state(1)[0])
        try:
            idx = roulette_sample(weights, ds.n_samples, rng)
            tree = train_tree(ds.X[idx][:, cols], ds.y[idx], cols,
                              cfg.tree, rng)
            preds = tree.predict(ds.X)
            a_m, acc_row = score_tree(preds, ds.y)
            acc_rows.append(acc_row)
            if cfg.use_weight_updates:
                weights = update_weights(weights, preds, ds.y, a_m)
                if record_weights:
                    history.append(weights.copy())
        except Exception as exc:
            raise RuntimeError(f"tree {m}: {exc}") from exc
        trees.append(tree)
    return Forest(trees=trees,
                  accuracy_matrix=np.stack(acc_rows, axis=1),
                  mask=mask, config=cfg, weight_history=history)


def config_from_doc(doc: dict, make=ForestConfig) -> ForestConfig:
    """Validated make(...) from a checked flat config document."""
    tree = {k: doc[k] for k in field_types(TreeConfig) if k in doc}
    cfg = make(tree=TreeConfig(**tree),
               **{k: v for k, v in doc.items() if k not in tree})
    cfg.validate()
    return cfg


def _tree_from_doc(doc, m, features) -> DecisionTree:
    """Tree m of a model file; ValueError unless it is one tree in which
    every node but the root is the child of exactly one earlier node."""
    check_doc(doc, TREE_TYPES, required=TREE_TYPES)
    ints = [doc[k] for k in TREE_TYPES if k != "threshold"]
    if not (doc["left"] and len({len(a) for a in doc.values()}) == 1
            and all(set(map(type, a)) == {int} for a in ints)
            and set(map(type, doc["threshold"])) == {float}):
        raise ValueError(f"tree {m}: node arrays empty, ragged or mistyped")
    feature, left, right, label = np.array(ints)
    split = left != -1
    kids = np.concatenate((left[split], right[split]))
    if not (np.all(kids > np.tile(np.flatnonzero(split), 2))
            and np.array_equal(np.sort(kids), np.arange(1, left.size))):
        raise ValueError(f"tree {m}: a node lacks a unique earlier parent")
    if not (np.isin(feature[split], features).all()
            and np.all((label[~split] >= 0) & (label[~split] < N_CLASSES))):
        raise ValueError(f"tree {m}: split feature or leaf label out of range")
    return DecisionTree(**doc)


def save_forest(forest: Forest, path, extra: dict | None = None) -> None:
    """Persist the model as self-describing JSON; loading reproduces
    bit-identical predictions."""
    config = asdict(forest.config)
    config.update(config.pop("tree"))
    doc = {
        "format": MODEL_FORMAT,
        "mask": forest.mask.tolist(),
        "accuracy_matrix": forest.accuracy_matrix.tolist(),
        "config": config,
        "trees": [vars(t) for t in forest.trees],
    }
    if extra:
        doc.update(extra)
    write_json(doc, path)


def load_forest(path) -> Forest:
    """Load a model file; ValueError if any part of it is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a flowgate model file: format "
                         f"{doc.get('format')!r}, expected {MODEL_FORMAT!r}")
    config = check_doc(doc["config"], CONFIG_TYPES, required=CONFIG_TYPES)
    mask = np.array(doc["mask"], dtype=np.uint8)
    forest = Forest(
        trees=[_tree_from_doc(t, m, np.flatnonzero(mask))
               for m, t in enumerate(doc["trees"])],
        accuracy_matrix=np.array(doc["accuracy_matrix"], dtype=np.float64),
        mask=mask,
        config=config_from_doc(config),
    )
    if forest.accuracy_matrix.shape != (N_CLASSES, forest.n_trees):
        raise ValueError(f"accuracy matrix does not fit {forest.n_trees} "
                         f"trees: shape {forest.accuracy_matrix.shape}")
    return forest
