import os

import numpy as np
import pytest

from flowgate.dataset import FEATURE_NAMES, N_FEATURES, EncodedDataset

PROTOCOLS = ["tcp", "udp", "icmp"]
SERVICES = ["http", "smtp", "ftp", "domain_u", "private", "ecr_i"]
FLAGS = ["SF", "S0", "REJ", "RSTR"]

CLASS_LABELS = ["normal", "satan", "smurf", "buffer_overflow", "guess_passwd"]


def make_kdd_line(rng, label, numeric=None):
    """One KDD-format CSV line (42 fields) with the given label."""
    fields = []
    for col in range(N_FEATURES):
        if col == 1:
            fields.append(PROTOCOLS[rng.integers(len(PROTOCOLS))])
        elif col == 2:
            fields.append(SERVICES[rng.integers(len(SERVICES))])
        elif col == 3:
            fields.append(FLAGS[rng.integers(len(FLAGS))])
        elif numeric is not None:
            fields.append(repr(float(numeric[col])))
        else:
            fields.append(repr(round(float(rng.random() * 10), 3)))
    fields.append(label)
    return ",".join(fields)


def make_kdd_file(path, seed=0, counts=(20, 10, 30, 5, 8)):
    """Small KDD-format corpus with the given per-class record counts."""
    rng = np.random.default_rng(seed)
    lines = []
    for label, count in zip(CLASS_LABELS, counts):
        lines.extend(make_kdd_line(rng, label) for _ in range(count))
    path.write_text("\n".join(lines) + "\n")
    return path


def synthetic_dataset(n_per_class, seed=0, n_features=N_FEATURES,
                      noise=1.0, informative=10):
    """Encoded 5-class dataset with class-separated informative features."""
    rng = np.random.default_rng(seed)
    n_classes = len(n_per_class)
    informative = min(informative, n_features)
    means = np.zeros((n_classes, n_features))
    means[:, :informative] = rng.normal(0, 2.0, size=(n_classes, informative))
    rows, labels = [], []
    for j, count in enumerate(n_per_class):
        rows.append(means[j] + rng.normal(0, noise, size=(count, n_features)))
        labels.append(np.full(count, j))
    X = np.vstack(rows)
    y = np.concatenate(labels)
    perm = rng.permutation(y.size)
    names = list(FEATURE_NAMES[:n_features]) if n_features <= N_FEATURES \
        else [f"f{i}" for i in range(n_features)]
    return EncodedDataset(X=X[perm], y=y[perm], feature_names=names,
                          encoders={})


def synthetic_split(train_counts, test_counts, seed=0, **kwargs):
    """Train/test EncodedDatasets drawn from one class geometry."""
    totals = [a + b for a, b in zip(train_counts, test_counts)]
    ds = synthetic_dataset(totals, seed=seed, **kwargs)
    tr_idx, te_idx = [], []
    for j, n_tr in enumerate(train_counts):
        sel = np.flatnonzero(ds.y == j)
        tr_idx.extend(sel[:n_tr])
        te_idx.extend(sel[n_tr:])
    tr_idx, te_idx = np.array(tr_idx), np.array(te_idx)
    make = lambda idx: EncodedDataset(X=ds.X[idx], y=ds.y[idx],
                                      feature_names=ds.feature_names,
                                      encoders={})
    return make(tr_idx), make(te_idx)


@pytest.fixture
def tiny_kdd_file(tmp_path):
    return make_kdd_file(tmp_path / "flows.csv", seed=1)


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test after which this process still has a child, running or
    exited but not waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind "
                f"(waitpid gave pid {pid}, status {status}; pid 0 means "
                f"one is still running)")
