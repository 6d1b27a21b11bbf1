"""Cost-sensitive weighted random forest for five-class flow classification.

Per-sample selection weights start from class-level priors, each tree is
grown on a roulette-wheel bootstrap, and after every tree the weights move
by a class/correctness-dependent beta factor times e^{+-a_m}. Votes are
weighted by each tree's per-class accuracy.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import (N_CLASSES, EncodedDataset, check_doc, field_types,
                      fits, write_json)

MODEL_FORMAT = "flowgate-model-v4"

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
    """weighted: the paper's forest (DEFAULT_CLASS_WEIGHTS priors, the
    beta * e^{+-a_m} update after every tree, the accuracy-weighted vote);
    False: the classical RF (uniform 1/N weights, no updates, majority)."""
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    weighted: bool = True

    def validate(self):
        self.tree.validate()
        if not self.n_trees >= 1:
            raise ValueError(f"require n_trees >= 1: {self}")

    @classmethod
    def baseline(cls, **fields):
        """The classical RF; fields sets n_trees and tree."""
        return cls(weighted=False, **fields)


# the flat forest config of a model file: TreeConfig and ForestConfig fields
CONFIG_TYPES = {k: t for k, t in field_types(TreeConfig, ForestConfig).items()
                if k != "tree"}


class DecisionTree(NamedTuple):
    """Greedy Gini CART over a selected-feature subset as the router's node
    arrays, one entry per node in pre-order, node 0 the root. Split i sends
    rows with X[:, feature[i]] <= threshold[i] to its left child
    kids[2i + 1] == i + 1, the others to its right child kids[2i], and has
    label -1. A leaf is both its children, has feature 0 and threshold 0.0,
    and predicts label[i]."""

    feature: np.ndarray
    threshold: np.ndarray
    label: np.ndarray
    kids: np.ndarray

    def predict(self, X):
        return route(NodeTable(np.zeros(1, np.int64), *self), X)[0]

    def node_count(self):
        return self.label.size


class NodeTable(NamedTuple):
    """Trees stacked into one table of nodes: their DecisionTree arrays
    concatenated, each tree's kids offset by root[t], its root's index."""

    root: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    label: np.ndarray
    kids: np.ndarray


def stack_trees(trees) -> NodeTable:
    """The table of a sequence of DecisionTrees."""
    size = np.array([t.node_count() for t in trees])
    root = np.cumsum(size) - size
    feature, threshold, label, kids = map(np.concatenate, zip(*trees))
    return NodeTable(root, feature, threshold, label,
                     kids + np.repeat(root, 2 * size))


def route(table: NodeTable, X) -> np.ndarray:
    """The leaf label each tree of table gives each row of X, shape (trees,
    rows). Every (tree, row) pair starts at its tree's root, and all pairs
    step down one level at a time; a pair that does not move is at its leaf
    and drops out. A split that a pair reaches on a column X lacks raises
    IndexError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, d = X.shape
    feature = table.feature
    if feature.max() >= d:  # past the end of X, not into the next row
        feature = np.where(feature < d, feature, X.size)
    at = np.tile(np.arange(n) * d, table.root.size)
    node = np.repeat(table.root, n)
    leaf, live, x = np.empty_like(node), np.arange(node.size), X.ravel()
    while live.size:
        i = 2 * node  # += is much faster than + for an int and a bool array
        i += x[at + feature[node]] <= table.threshold[node]
        step = table.kids[i]
        leaf[live] = step
        keep = np.flatnonzero(step != node)
        live, node, at = live[keep], step[keep], at[keep]
    return table.label[leaf].reshape(table.root.size, n)


# most (column, row) cells a node scores at once: bounds the temporaries at
# the root, while a deep node scores all its columns in one pass
SPLIT_CHUNK = 1 << 15
# most (tree, row) pairs predict_batch routes at once
ROUTE_CHUNK = 1 << 15


def train_tree(X, y, feature_ids, cfg: TreeConfig, rng,
               count=None) -> DecisionTree:
    """Grow a CART on (X, y); X columns correspond to feature_ids in the
    original feature space, which is what split nodes record. count, if
    given, is each row's multiplicity: the tree is the one grown on the rows
    repeated that often, and min_samples_leaf counts rows, not distinct rows.

    Each column is argsorted once. A node owns the segment [lo, hi) of
    every column's row order, and a split partitions that segment stably,
    so both children stay sorted. Thresholds are midpoints between adjacent
    distinct values; ties go to the lowest column, then lowest threshold.
    """
    XT = np.asarray(X, dtype=np.float64).T.copy()
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("cannot train a tree on an empty bootstrap")
    if count is not None:
        count = np.asarray(count)
        if not (count.shape == y.shape and count.dtype.kind in "iu"
                and count.min() >= 1):
            raise ValueError("count must give each row an integer count >= 1")
        count = count.astype(np.int32)
    d = XT.shape[0]
    feature_ids = np.asarray(feature_ids, dtype=np.int64)
    mtry = int(math.ceil(math.sqrt(d))) if cfg.max_features == "sqrt" else d
    leaf = cfg.min_samples_leaf
    order = np.argsort(XT, axis=1, kind="stable").astype(np.int32)
    go_left = np.zeros(y.size, dtype=bool)
    nodes = []  # [feature, threshold, label, right, left] per node
    # an explicit stack, popped left child first: nodes are grown, and
    # rng.choice drawn, in pre-order; a right child sets its parent's right
    stack = [(0, y.size, 0, -1)]
    while stack:
        lo, hi, depth, parent = stack.pop()
        i = len(nodes)
        if parent >= 0:
            nodes[parent][3] = i
        seg = order[0, lo:hi]
        counts = np.bincount(y[seg], minlength=N_CLASSES) if count is None \
            else np.bincount(y[seg], count[seg], N_CLASSES).astype(np.int64)
        n = int(counts.sum())
        nodes.append([0, 0.0, int(np.argmax(counts)), i, i])  # a leaf
        if depth >= cfg.max_depth or n < 2 * leaf or counts.max() == n:
            continue
        cols = np.sort(rng.choice(d, size=mtry, replace=False)) \
            if mtry < d else np.arange(d)
        parent_gini = 1.0 - np.sum((counts / n) ** 2)
        best, c, thr = 0.0, None, None
        m = hi - lo
        left = np.arange(1, m + 1)  # rows left of each position, uncounted
        step = max(1, SPLIT_CHUNK // m)
        for s in range(0, mtry, step):
            cs = cols[s:s + step]
            rows = order[cs, lo:hi]
            xs = XT[cs[:, None], rows]
            hot = y[rows] == np.arange(N_CLASSES)[:, None, None]
            if count is not None:
                w = count[rows]
                hot, left = hot * w, np.cumsum(w, axis=1)
            # cuts between distinct values with >= leaf rows on each side,
            # as flat positions in xs
            cut = np.zeros(xs.shape, dtype=bool)
            np.less(xs[:, :-1], xs[:, 1:], out=cut[:, :-1])
            cut &= (left >= leaf) & (left <= n - leaf)
            at = np.flatnonzero(cut)
            if at.size == 0:
                continue
            # class counts left of each cut, class-major: (N_CLASSES, cuts)
            lc = np.take(np.cumsum(hot, axis=2, dtype=np.int32).reshape(
                N_CLASSES, -1), at, axis=1).astype(np.float64)
            nl = np.ones(N_CLASSES) @ lc
            nr = n - nl
            rc = counts[:, None] - lc
            # integer counts: the sums of squares are exact in any order
            gini_l = 1.0 - np.einsum("ij,ij->j", lc, lc) / nl ** 2
            gini_r = 1.0 - np.einsum("ij,ij->j", rc, rc) / nr ** 2
            decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
            k = int(np.argmax(decrease))
            if decrease[k] > best:
                best, c = decrease[k], cs[at[k] // m]
                thr = (xs.flat[at[k]] + xs.flat[at[k] + 1]) / 2.0
        if c is None:
            continue
        rows = order[c, lo:hi]
        go_left[rows] = XT[c, rows] <= thr
        seg = order[:, lo:hi]
        mark = go_left[seg]
        mid = lo + int(np.count_nonzero(mark[0]))
        order[:, lo:hi] = np.concatenate((seg[mark].reshape(d, -1),
                                          seg[~mark].reshape(d, -1)), axis=1)
        nodes[i] = [int(feature_ids[c]), float(thr), -1, -1, i + 1]
        stack.append((mid, hi, depth + 1, i))
        stack.append((lo, mid, depth + 1, -1))
    feature, threshold, label, *kids = map(np.array, zip(*nodes))
    return DecisionTree(feature, threshold, label, np.stack(kids, 1).ravel())


def distinct_rows(X, y):
    """(first, group): the first row of each group of rows equal byte for
    byte in X and in y, which grow and predict alike, and each row's group."""
    key = np.ascontiguousarray(np.column_stack((X, y)))
    _, first, group = np.unique(key.view(f"V{key.itemsize * key.shape[1]}"),
                                return_index=True, return_inverse=True)
    return first, group.reshape(-1)


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
    # every tree in one table, stacked on first use: see predict_batch
    table: NodeTable | None = field(default=None, repr=False, compare=False)

    @property
    def n_trees(self):
        return len(self.trees)

    def vote_matrix(self):
        if self.config.weighted:
            return self.accuracy_matrix
        return np.ones_like(self.accuracy_matrix)


def predict_batch(forest: Forest, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.mask.size:
        raise ValueError(
            f"expected {forest.mask.size} feature columns, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-2D input'}")
    if not forest.trees:
        raise ValueError("forest has no trees")
    if forest.table is None:
        forest.table = stack_trees(forest.trees)
    votes = forest.vote_matrix()
    tree = np.arange(forest.n_trees)[:, None]
    step = max(1, ROUTE_CHUNK // forest.n_trees)
    out = np.empty(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], step):
        label = route(forest.table, X[lo:lo + step])
        n = label.shape[1]
        # over the pairs in tree-major order, bincount adds each row's
        # votes tree by tree, as a loop over the trees would
        scores = np.bincount((label + N_CLASSES * np.arange(n)).ravel(),
                             votes[label, tree].ravel(), N_CLASSES * n)
        out[lo:lo + step] = scores.reshape(n, N_CLASSES).argmax(axis=1)
    return out


def derived_seed(*parts) -> int:
    """A 32-bit seed drawn from the integers parts by numpy's SeedSequence."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def checked_mask(mask, n_features) -> np.ndarray:
    """mask as uint8 bits; ValueError if it selects no feature or is not
    n_features wide."""
    mask = np.asarray(mask, dtype=np.uint8)
    if not mask.any():
        raise ValueError("empty feature mask")
    if mask.size != n_features:
        raise ValueError("mask width does not match dataset feature count")
    return mask


def cpu_map(fn, items) -> list:
    """[fn(x) for x in items] over w = min(CPUs this process may run on,
    len(items)) processes: the caller computes items[0::w] and w - 1 forked
    children compute items[k::w] and send their results back pickled. fn
    should catch its own errors: a child that raises or dies ends without a
    result, a RuntimeError here. Nothing forks on one CPU, nor while another
    thread runs: a child forked while a thread holds a lock can deadlock."""
    items = list(items)
    alone = threading.active_count() == 1
    w = min(len(os.sched_getaffinity(0)) if alone else 1, len(items)) or 1
    out, pipes, pids = [None] * len(items), [], []
    try:
        for k in range(1, w):
            r, w_fd = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:  # the child never returns to the caller
                    try:
                        pickle.dump([fn(x) for x in items[k::w]], writer)
                        writer.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        out[0::w] = [fn(x) for x in items[0::w]]
        results = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (data, status) in enumerate(zip(results, statuses), 1):
        if status:
            raise RuntimeError(f"worker process {k} of {w} ended without "
                               f"a result (wait status {status})")
        out[k::w] = pickle.loads(data)
    return out


def fit(ds: EncodedDataset, mask, cfg: ForestConfig, seed: int,
        record_weights: bool = False) -> Forest:
    """Train the weighted forest, or the classical one if not cfg.weighted.

    Tree m draws a roulette bootstrap under the current weights on its own
    (seed, m) stream, grows on the distinct rows drawn with their counts,
    then makes one prediction pass over the dataset's distinct rows that
    gives a_m and its per-class accuracy row. The weighted forest grows its
    trees in turn, each drawing under the beta-scheduled weight update of
    the tree before; the classical forest's trees are independent and grow
    as one cpu_map batch. The forest depends on seed alone.
    """
    cfg.validate()
    mask = checked_mask(mask, ds.n_features)
    cols = np.flatnonzero(mask)
    # each tree grows on the distinct rows drawn, with their counts
    first, group = distinct_rows(ds.X[:, cols], ds.y)
    X, y = ds.X[first], ds.y[first]
    weights = init_weights(ds.y,
                           DEFAULT_CLASS_WEIGHTS if cfg.weighted else None)
    history = [weights.copy()] if record_weights else None

    def grow(m):
        """(tree m, its accuracy row, a_m, its predictions on ds)."""
        rng = np.random.default_rng(derived_seed(seed, m))
        idx = roulette_sample(weights, ds.n_samples, rng)
        count = np.bincount(group[idx], minlength=first.size)
        drawn = np.flatnonzero(count)
        tree = train_tree(X[drawn][:, cols], y[drawn], cols, cfg.tree, rng,
                          count[drawn])
        preds = tree.predict(X)[group]
        a_m, acc_row = score_tree(preds, ds.y)
        return tree, acc_row, a_m, preds

    def attempt(m):  # what a child sends back: no predictions
        try:
            return grow(m)[:2]
        except Exception as exc:
            return exc

    grown = [] if cfg.weighted else cpu_map(attempt, range(cfg.n_trees))
    for m in range(cfg.n_trees):
        try:
            if cfg.weighted:
                tree, acc_row, a_m, preds = grow(m)
                weights = update_weights(weights, preds, ds.y, a_m)
                grown.append((tree, acc_row))
                if record_weights:
                    history.append(weights.copy())
            elif isinstance(grown[m], Exception):
                raise grown[m]
        except Exception as exc:
            raise RuntimeError(f"tree {m}: {exc}") from exc
    trees, acc_rows = zip(*grown)
    return Forest(trees=list(trees),
                  accuracy_matrix=np.stack(acc_rows, axis=1),
                  mask=mask, config=cfg, weight_history=history)


def config_from_doc(doc: dict) -> ForestConfig:
    """Validated ForestConfig from a checked flat config document."""
    tree = {k: doc[k] for k in field_types(TreeConfig) if k in doc}
    cfg = ForestConfig(tree=TreeConfig(**tree),
                       **{k: v for k, v in doc.items() if k not in tree})
    cfg.validate()
    return cfg


def _checked_trees(doc, n_trees, features) -> list:
    """The trees of a model file's "trees" object: the NodeTable arrays, of
    integers but for the finite float thresholds, root the start of each
    of the n_trees trees and kids tree-local. ValueError unless each node
    of a tree is a leaf or a split with two later nodes of the tree as
    children, each node but the root is the child of exactly one node, each
    split has label -1 and a feature in features and each leaf has feature
    0, threshold 0.0 and a class code as label. OverflowError for an
    integer beyond 64 bits."""
    if not (isinstance(doc, dict) and doc.keys() == set(NodeTable._fields)
            and all(isinstance(a, list) and set(map(type, a))
                    == {float if k == "threshold" else int}
                    for k, a in doc.items())):
        raise ValueError(f"trees must hold the arrays {NodeTable._fields}, "
                         f"non-empty, of integers, threshold of floats")
    root, feature, threshold, label, kids = (
        np.array(doc[k], np.float64 if k == "threshold" else np.int64)
        for k in NodeTable._fields)
    n = label.size
    size = np.diff(root, append=n)
    if not (root.size == n_trees and root[0] == 0 and size.min() > 0
            and feature.size == threshold.size == n and kids.size == 2 * n):
        raise ValueError(f"expected root to start config n_trees {n_trees} "
                         f"trees, from 0 up, and node arrays of one length, "
                         f"kids twice it; got {root.size} trees")
    start = np.repeat(root, size)
    node = np.arange(n) - start  # each node's index in its tree
    pair = kids.reshape(-1, 2)
    leaf = np.all(pair == node[:, None], axis=1)

    def check(bad, what):  # bad: a flag per node
        if bad.any():
            m = np.searchsorted(root, np.argmax(bad), side="right") - 1
            raise ValueError(f"tree {m}: {what}")

    check(~leaf & ((pair.min(axis=1) <= node)
                   | (pair.max(axis=1) >= np.repeat(size, size))),
          "a child is not a later node of its tree")
    check(np.bincount(np.append((pair + start[:, None])[~leaf], root),
                      minlength=n) != 1,
          "a node is not the child of exactly one node")
    check(~np.isfinite(threshold) | np.where(
        leaf, (feature != 0) | (threshold != 0) | (label < 0)
        | (label >= N_CLASSES), ~np.isin(feature, features) | (label != -1)),
        "a threshold not finite, a split feature outside the mask or label "
        "not -1, or a leaf feature or threshold not 0 or label not a class "
        "code")
    return [DecisionTree(feature[a:b], threshold[a:b], label[a:b],
                         kids[2 * a:2 * b])
            for a, b in zip(root, root + size)]


def save_forest(forest: Forest, path, extra: dict | None = None) -> None:
    """Persist the model as self-describing JSON; loading reproduces
    bit-identical predictions."""
    config = asdict(forest.config)
    config.update(config.pop("tree"))
    size = [t.node_count() for t in forest.trees]
    trees = {k: np.concatenate(a).tolist()
             for k, a in zip(DecisionTree._fields, zip(*forest.trees))}
    doc = {
        "format": MODEL_FORMAT,
        "mask": forest.mask.tolist(),
        "accuracy_matrix": forest.accuracy_matrix.tolist(),
        "config": config,
        "trees": dict(trees, root=(np.cumsum(size) - size).tolist()),
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
    mask = doc["mask"]
    if not (fits(mask, tuple[int, ...]) and set(mask) <= {0, 1}):
        raise ValueError(f"{path}: mask must be an array of 0s and 1s")
    mask = np.array(mask, dtype=np.uint8)
    trees = _checked_trees(doc["trees"], config["n_trees"],
                           np.flatnonzero(mask))
    acc = doc["accuracy_matrix"]
    if not (fits(acc, tuple[tuple[float, ...], ...]) and len(acc) == N_CLASSES
            and all(len(row) == len(trees) and all(0 <= v <= 1 for v in row)
                    for row in acc)):
        raise ValueError(f"accuracy_matrix must be {N_CLASSES} rows of "
                         f"{len(trees)} numbers in [0, 1]")
    return Forest(trees=trees,
                  accuracy_matrix=np.array(acc, dtype=np.float64), mask=mask,
                  config=config_from_doc(config))
