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

MODEL_FORMAT = "flowgate-model-v1"

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


class DecisionTree:
    """Greedy Gini CART over a selected-feature subset.

    Nodes are nested dicts: internal {"feature", "threshold", "left",
    "right"} with feature indices in the original 41-feature space, leaves
    {"label", "hist"}.
    """

    def __init__(self, root):
        self.root = root

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        self._route(self.root, np.arange(X.shape[0]), X, out)
        return out

    def _route(self, node, idx, X, out):
        if idx.size == 0:
            return
        if "label" in node:
            out[idx] = node["label"]
            return
        go_left = X[idx, node["feature"]] <= node["threshold"]
        self._route(node["left"], idx[go_left], X, out)
        self._route(node["right"], idx[~go_left], X, out)

    def node_count(self):
        def walk(node):
            if "label" in node:
                return 1
            return 1 + walk(node["left"]) + walk(node["right"])
        return walk(self.root)


def _leaf(y):
    hist = np.bincount(y, minlength=N_CLASSES)
    return {"label": int(np.argmax(hist)), "hist": [int(c) for c in hist]}


def _best_split(X, y, cols, min_leaf):
    """Best (impurity decrease, column, threshold) over candidate columns.

    Thresholds are midpoints between sorted distinct values; ties go to the
    lowest column then lowest threshold.
    """
    n = y.size
    parent_counts = np.bincount(y, minlength=N_CLASSES).astype(np.float64)
    parent_gini = 1.0 - np.sum((parent_counts / n) ** 2)
    best = None  # (decrease, col position, threshold)
    onehot = np.zeros((n, N_CLASSES), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    for c in cols:
        x = X[:, c]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        left = np.cumsum(onehot[order], axis=0)
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        nl = (cut + 1).astype(np.float64)
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not ok.any():
            continue
        cut, nl, nr = cut[ok], nl[ok], nr[ok]
        lc = left[cut]
        rc = parent_counts - lc
        gini_l = 1.0 - np.sum(lc ** 2, axis=1) / nl ** 2
        gini_r = 1.0 - np.sum(rc ** 2, axis=1) / nr ** 2
        decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
        k = int(np.argmax(decrease))
        if decrease[k] <= 0:
            continue
        thr = (xs[cut[k]] + xs[cut[k] + 1]) / 2.0
        if best is None or decrease[k] > best[0]:
            best = (decrease[k], c, thr)
    return best


def train_tree(X, y, feature_ids, cfg: TreeConfig, rng) -> DecisionTree:
    """Grow a CART on (X, y); X columns correspond to feature_ids in the
    original feature space, which is what split nodes record."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("cannot train a tree on an empty bootstrap")
    d = X.shape[1]
    feature_ids = np.asarray(feature_ids, dtype=np.int64)
    mtry = int(math.ceil(math.sqrt(d))) if cfg.max_features == "sqrt" else d

    def grow(idx, depth):
        ysub = y[idx]
        if (depth >= cfg.max_depth or idx.size < 2 * cfg.min_samples_leaf
                or np.all(ysub == ysub[0])):
            return _leaf(ysub)
        cols = np.sort(rng.choice(d, size=mtry, replace=False)) \
            if mtry < d else np.arange(d)
        split = _best_split(X[idx], ysub, cols, cfg.min_samples_leaf)
        if split is None:
            return _leaf(ysub)
        _, c, thr = split
        go_left = X[idx, c] <= thr
        return {
            "feature": int(feature_ids[c]),
            "threshold": float(thr),
            "left": grow(idx[go_left], depth + 1),
            "right": grow(idx[~go_left], depth + 1),
        }

    return DecisionTree(grow(np.arange(y.size), 0))


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


def _check_node(node, allowed):
    """ValueError unless each node's label or feature is an int in allowed."""
    key = "label" if "label" in node else "feature"
    if type(node[key]) is not int or node[key] not in allowed[key]:
        raise ValueError(f"tree node {key} {node[key]!r} is out of range")
    if key == "feature":
        _check_node(node["left"], allowed)
        _check_node(node["right"], allowed)


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
        "trees": [t.root for t in forest.trees],
    }
    if extra:
        doc.update(extra)
    write_json(doc, path)


def load_forest(path) -> Forest:
    """Load a model file; ValueError if any part of it is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a flowgate model file")
    # files saved before invert_majority_beta was removed still carry it
    config = check_doc(doc["config"],
                       dict(CONFIG_TYPES, invert_majority_beta=bool),
                       required=CONFIG_TYPES)
    config.pop("invert_majority_beta", None)
    forest = Forest(
        trees=[DecisionTree(root) for root in doc["trees"]],
        accuracy_matrix=np.array(doc["accuracy_matrix"], dtype=np.float64),
        mask=np.array(doc["mask"], dtype=np.uint8),
        config=config_from_doc(config),
    )
    if forest.accuracy_matrix.shape != (N_CLASSES, forest.n_trees):
        raise ValueError(f"accuracy matrix does not fit {forest.n_trees} "
                         f"trees: shape {forest.accuracy_matrix.shape}")
    allowed = {"label": set(range(N_CLASSES)),
               "feature": set(np.flatnonzero(forest.mask).tolist())}
    for tree in forest.trees:
        _check_node(tree.root, allowed)
    return forest
