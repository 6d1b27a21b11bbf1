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

from .dataset import (N_CLASSES, EncodedDataset, check_doc, distinct_rows,
                      field_types, fits, write_json)

MODEL_FORMAT = "flowgate-model-v5"
MODEL_TREES = ("label", "feature", "threshold", "root")

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


# most positions, over the (column, node) cells a depth scores, that one
# chunk holds, unless one cell alone holds more: bounds the temporaries
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
    The tree grows a depth per pass, scoring and splitting all its nodes at
    once, and numbers them in pre-order at the end. With max_features
    "sqrt" and mtry = ceil(sqrt(d)) < d, each depth's nodes to split, in
    level order (their parents' order, left child first), take d uniforms
    each from one rng.random call, and a node scores the columns of its
    mtry smallest; a tree of every column draws nothing from rng.
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
    codes, unpack = _class_codes(y, count)
    go_left = np.zeros(y.size, dtype=bool)
    # one pass per depth over its nodes: their segments [lo, hi), class
    # counts and parents; below the root they come in pairs, left first
    lo, hi = np.zeros(1, np.int64), np.full(1, y.size)
    counts, parent = unpack(codes.sum(axis=1)[:, None]).T, lo - 1
    done, made = [], 0  # per depth: parent, label, feature, threshold
    while lo.size:
        n, label = counts.sum(axis=1), counts.argmax(axis=1)
        feature, threshold = np.zeros_like(lo), np.zeros(lo.size)
        done.append((parent, label, feature, threshold))
        live = np.flatnonzero((n >= 2 * leaf) & (counts.max(axis=1) < n))
        if len(done) > cfg.max_depth or not live.size:
            break
        drawn = np.full((d, live.size), mtry == d)  # (column, node) cells
        if mtry < d:
            pick = np.argsort(rng.random((live.size, d)), axis=1, kind="stable")
            drawn[pick[:, :mtry], np.arange(live.size)[:, None]] = True
        c, thr = _best_cuts(XT, order, codes, unpack, lo[live], hi[live],
                            counts[live], drawn, leaf)
        split, c, thr = live[c >= 0], c[c >= 0], thr[c >= 0]
        label[split], feature[split] = -1, feature_ids[c]
        threshold[split] = thr
        # split each segment stably, left rows first: all columns hold the
        # same rows per segment, so they share one destination per side
        lo, hi = lo[split], hi[split]
        pos = _spans(lo, hi)
        owner = np.repeat(np.arange(split.size), hi - lo)
        rows = order[0, pos]
        go_left[rows] = left = XT[c[owner], rows] <= thr[owner]
        mid = lo + np.bincount(owner, left, split.size).astype(np.int64)
        sub = order[:, pos]
        mark = go_left[sub]
        order[:, _spans(lo, mid)] = sub[mark].reshape(d, -1)
        order[:, _spans(mid, hi)] = sub[~mark].reshape(d, -1)
        counts = np.bincount((2 * owner + ~left) * N_CLASSES + y[rows],
                             None if count is None else count[rows],
                             2 * N_CLASSES * split.size).reshape(-1, N_CLASSES)
        counts = counts.astype(np.int64)
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
        parent, made = np.repeat(made + split, 2), made + label.size
    return _preorder(*map(np.concatenate, zip(*done)))


def _class_codes(y, count):
    """(codes, unpack): each row's count, or 1, in its class's bit field of
    one int64 word, codes (1, rows), or of a word per class when the fields
    need over 63 bits. A field is as wide as its class's total, so sums of
    codes never carry; unpack takes sums (words, k) to (N_CLASSES, k)."""
    unit = (np.ones_like(y) if count is None else count).astype(np.int64)
    width = np.frexp(np.bincount(y, unit, N_CLASSES))[1].astype(np.int64)
    one = width.sum() <= 63
    shift = np.cumsum(width) - width if one else np.zeros_like(width)
    codes = np.zeros((1 if one else N_CLASSES, y.size), np.int64)
    codes[0 if one else y, np.arange(y.size)] = unit << shift[y]
    bits = ((1 << width) - 1)[:, None]

    def unpack(sums):
        counts = sums >> shift[:, None]
        counts &= bits
        return counts
    return codes, unpack


def _gini_decrease(lc, rc, n, parent_gini, leaf):
    """Gini decrease of cuts with left and right class counts lc and rc
    (N_CLASSES, cuts) in nodes of n rows and impurity parent_gini, each
    broadcast against the cuts; 0.0 where a side keeps < leaf rows."""
    nl, nr = lc.sum(axis=0), rc.sum(axis=0)
    # integer counts, squares and sums: exact, and so are their floats
    gini_l = 1.0 - np.einsum("ij,ij->j", lc, lc) / nl ** 2
    gini_r = 1.0 - np.einsum("ij,ij->j", rc, rc) / nr ** 2
    decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
    return np.where((nl >= leaf) & (nr >= leaf), decrease, 0.0)


def _spans(lo, hi):
    """The positions [lo_i, hi_i) of every segment i, concatenated."""
    size = hi - lo
    return np.repeat(lo + size - np.cumsum(size), size) + np.arange(size.sum())


def _best_cuts(XT, order, codes, unpack, lo, hi, counts, drawn, leaf):
    """(column, threshold) of each node's best cut over the columns drawn
    for it, column -1 where none lowers its Gini impurity; node i owns
    [lo_i, hi_i) of each column's order, holds counts[i] and scores column
    c where drawn[c, i]. The drawn (column, node) cells go in column-major
    order, a chunk of them at most SPLIT_CHUNK positions or one cell; a
    later chunk replaces a node's best only by beating it."""
    n = counts.sum(axis=1)
    parent_gini = 1.0 - np.sum((counts / n[:, None]) ** 2, axis=1)
    cell_col, cell_node = np.nonzero(drawn)
    cell_size = (hi - lo)[cell_node]
    cell_end = np.cumsum(cell_size)
    width = order.shape[1]
    flat_order, flat_x = order.ravel(), XT.ravel()
    best, col, thr = np.zeros(lo.size), np.full(lo.size, -1), np.zeros(lo.size)
    a = 0
    while a < cell_node.size:
        b = max(a + 1, int(np.searchsorted(
            cell_end, cell_end[a] - cell_size[a] + SPLIT_CHUNK, "right")))
        size, node = cell_size[a:b], cell_node[a:b]
        at = np.repeat(cell_col[a:b] * width, size)
        rows = flat_order[at + _spans(lo[node], hi[node])]
        xs = flat_x[at + rows]
        start = np.cumsum(size) - size  # each cell's first position in rows
        # cuts between distinct values of a cell, as positions in rows
        cut = np.zeros(xs.size, dtype=bool)
        np.less(xs[:-1], xs[1:], out=cut[:-1])
        cut[start[1:] - 1] = False
        p = np.flatnonzero(cut)
        cell = np.searchsorted(start, p, "right") - 1
        # packed class counts before each position
        cum = np.zeros((codes.shape[0], xs.size + 1), np.int64)
        np.cumsum(codes[:, rows], axis=1, out=cum[:, 1:])
        lc = unpack(cum[:, p + 1] - cum[:, start[cell]])
        node = node[cell]
        decrease = _gini_decrease(lc, np.take(counts.T, node, axis=1) - lc,
                                  n[node], parent_gini[node], leaf)
        # the first cut, in (column, position) order, of each node's largest
        # decrease, where that beats the node's best
        top = np.zeros(lo.size)
        np.maximum.at(top, node, decrease)
        hit = np.flatnonzero((decrease == top[node]) & (top > best)[node])
        new, first = np.unique(node[hit], return_index=True)
        k = hit[first]  # the first hit of each node in new
        best[new], col[new] = top[new], cell_col[a + cell[k]]
        thr[new] = (xs[p[k]] + xs[p[k] + 1]) / 2.0
        a = b
    return col, thr


def _preorder(parent, label, feature, threshold) -> DecisionTree:
    """The DecisionTree of nodes listed parents first, the children of each
    split in a pair, left then right: node i > 0 is a left child if odd."""
    up, size, pre = parent.tolist(), [1] * parent.size, [0] * parent.size
    for i in range(parent.size - 1, 0, -1):
        size[up[i]] += size[i]
    for i in range(1, parent.size):  # right: after its left sibling's subtree
        pre[i] = pre[up[i]] + 1 + (0 if i % 2 else size[i - 1])
    pre = np.array(pre)
    kids = np.repeat(pre, 2)  # right, left; a leaf's own index twice
    kids[2 * parent[1:] + np.arange(1, parent.size) % 2] = pre[1:]
    at = np.argsort(pre)
    return DecisionTree(feature[at], threshold[at], label[at],
                        kids.reshape(-1, 2)[at].ravel())


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
    # every tree in one table, by load_forest or on first use: predict_batch
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


def _checked_trees(doc, n_trees, features):
    """(table, trees) of a model file's "trees" object, the trees views into
    the table. label has an entry per node, each tree's nodes in pre-order,
    -1 for a split or a leaf's class code; feature and threshold one per
    split; root the start of each of the n_trees trees. Over a tree the
    running sum of +1 per split and -1 per leaf stays >= 0 until its last
    node, where it is -1. Split i's left child is i + 1, its right child the
    first later node with i's sum before it. ValueError for any other fault
    or a feature not in features, OverflowError for an int beyond 64 bits."""
    if not (isinstance(doc, dict) and doc.keys() == set(MODEL_TREES)
            and all(isinstance(doc[k], list) and set(map(type, doc[k]))
                    <= {float if k == "threshold" else int} for k in doc)
            and doc["label"] and doc["root"] and len(doc["feature"])
            == len(doc["threshold"]) == doc["label"].count(-1)):
        raise ValueError(f"trees must hold the arrays {MODEL_TREES}, of "
                         f"integers, threshold of floats, label and root "
                         f"non-empty, feature and threshold one per split")
    label, feature, threshold, root = (
        np.array(doc[k], np.float64 if k == "threshold" else np.int64)
        for k in MODEL_TREES)
    n, node = label.size, np.arange(label.size)
    size = np.diff(root, append=n)
    if not (root.size == n_trees and root[0] == 0 and size.min() > 0):
        raise ValueError(f"expected root to start config n_trees {n_trees} "
                         f"trees, from 0 up, none empty; got {root.size}")
    split = label == -1
    step = np.where(split, 1, -1)
    before = np.cumsum(step) - step  # the running sum before each node
    total = before + step - np.repeat(before[root], size)  # over its tree
    feat, thr = np.zeros_like(label), np.zeros(n)
    feat[split], thr[split] = feature, threshold
    # steps of +-1: the sum is -1 at a tree's last node and >= 0 before iff
    # the last node is the only one where it is < 0
    for bad, what in (
            ((total < 0) != (node == np.repeat(root + size - 1, size)),
             "the running sum of +1 per split and -1 per leaf is not >= 0 "
             "before its last node and -1 at it"),
            ((label < -1) | (label >= N_CLASSES) | ~np.isfinite(thr)
             | split & ~np.isin(feat, features), "a label not -1 or a class "
             "code, a threshold not finite or a split feature outside the "
             "mask")):
        if bad.any():
            m = np.searchsorted(root, np.argmax(bad), side="right") - 1
            raise ValueError(f"tree {m}: {what}")
    order = np.argsort(before, kind="stable")
    right = np.empty_like(label)
    right[order[:-1]] = order[1:]  # the next node of the same sum before it
    # right child, then left: a leaf is both its children
    kids = np.where(split, np.stack((right, node + 1)), node).T.ravel()
    local = kids - np.repeat(root, 2 * size)
    return (NodeTable(root, feat, thr, label, kids),
            [DecisionTree(feat[a:b], thr[a:b], label[a:b], local[2 * a:2 * b])
             for a, b in zip(root.tolist(), (root + size).tolist())])


def save_forest(forest: Forest, path, extra: dict | None = None) -> None:
    """Persist the model as self-describing JSON, each tree as its
    pre-order labels and its splits' features and thresholds; loading
    reproduces bit-identical predictions."""
    config = asdict(forest.config)
    config.update(config.pop("tree"))
    table = stack_trees(forest.trees)
    split = table.label == -1
    doc = {
        "format": MODEL_FORMAT,
        "mask": forest.mask.tolist(),
        "accuracy_matrix": forest.accuracy_matrix.tolist(),
        "config": config,
        "trees": {"label": table.label.tolist(),
                  "feature": table.feature[split].tolist(),
                  "threshold": table.threshold[split].tolist(),
                  "root": table.root.tolist()},
    }
    if extra:
        doc.update(extra)
    write_json(doc, path)


def load_forest(path) -> Forest:
    """Load a model file, its table stacked; ValueError if any part of it
    is malformed."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a flowgate model file: format "
                         f"{doc.get('format')!r}, expected {MODEL_FORMAT!r}")
    config = check_doc(doc["config"], CONFIG_TYPES, required=CONFIG_TYPES)
    mask = doc["mask"]
    if not (fits(mask, tuple[int, ...]) and set(mask) <= {0, 1}):
        raise ValueError(f"{path}: mask must be an array of 0s and 1s")
    mask = np.array(mask, dtype=np.uint8)
    table, trees = _checked_trees(doc["trees"], config["n_trees"],
                                  np.flatnonzero(mask))
    acc = doc["accuracy_matrix"]
    if not (isinstance(acc, list) and len(acc) == N_CLASSES
            and all(isinstance(row, list) and len(row) == len(trees)
                    for row in acc)
            and {type(v) for row in acc for v in row} <= {int, float}
            and 0 <= (acc := np.array(acc, np.float64)).min()
            and acc.max() <= 1):
        raise ValueError(f"accuracy_matrix must be {N_CLASSES} rows of "
                         f"{len(trees)} numbers in [0, 1]")
    return Forest(trees=trees, accuracy_matrix=acc, mask=mask,
                  config=config_from_doc(config), table=table)
