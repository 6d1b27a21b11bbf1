"""Seeded inputs for the benchmark workloads.

Two generators, both owned by the benchmark so that the test corpora can
change without moving its numbers:

- ``kdd_pool``: a duplicate-heavy KDD-format corpus. Every class is a
  mixture over a fixed table of flow prototypes; a row repeats its
  prototype exactly on the signal columns, with sparse counter noise
  elsewhere. The class table follows the acceptance corpus, with its
  R2L/Normal conflict prototype switched on: the same flows appear as R2L
  (weight 0.10) and as Normal (weight 0.016), so no model can be perfect.
- ``dense_split``: continuous rows from known class-conditional Gaussians.
  Nearly every row is distinct, and the Bayes-optimal accuracy of any test
  set can be computed exactly from the known densities.
"""

from __future__ import annotations

import numpy as np

N_FEATURES = 41
N_CLASSES = 5

# attack names per class code: Normal, Probe, DoS, U2R, R2L
CLASS_ATTACKS = [
    ["normal"],
    ["satan", "ipsweep", "portsweep", "nmap"],
    ["smurf", "neptune", "back", "teardrop"],
    ["buffer_overflow", "rootkit", "loadmodule", "perl"],
    ["guess_passwd", "warezclient", "warezmaster", "imap"],
]
PROTOCOLS = ["tcp", "udp", "icmp"]
SERVICES = ["http", "smtp", "ftp", "domain_u", "private", "ecr_i", "telnet"]
FLAGS = ["SF", "S0", "REJ", "RSTR"]
# symbolic column -> (values, shares); one traffic mix for every class, so
# the class signal lives in the numeric prototypes only
SYMBOLS = {1: (PROTOCOLS, [0.70, 0.25, 0.05]),
           2: (SERVICES, [0.40, 0.15, 0.10, 0.15, 0.10, 0.05, 0.05]),
           3: (FLAGS, [0.80, 0.06, 0.09, 0.05])}
SYMBOLIC_COLUMNS = (1, 2, 3)

# signal column -> attack class whose collision with a Normal prototype it
# alone resolves
PAIR_OWNERS = {
    22: 1, 23: 1, 31: 1, 32: 1, 33: 1, 35: 1,
    4: 2, 24: 2, 25: 2, 26: 2, 27: 2, 28: 2, 37: 2, 38: 2,
    13: 3, 14: 3,
    5: 4, 6: 4, 10: 4, 11: 4, 18: 4, 21: 4,
}
SIGNAL_COLS = sorted(PAIR_OWNERS)
NOISE_COLS = [c for c in range(N_FEATURES)
              if c not in PAIR_OWNERS and c not in SYMBOLIC_COLUMNS
              and c != 19]
GRID = np.array([0.0, 1.5, 3.0])
SPIKE_RATE = 0.02
# mixture weights; each class's weights sum to 1 with the conflict on
PAIR_WEIGHTS = {1: 0.10, 2: 0.07, 3: 0.30, 4: 0.10}
PAIR_NORMAL_WEIGHT = 0.012
BASE_PROTOS = {0: (6, 0.12), 1: (2, 0.20), 2: (2, 0.22), 3: (1, 0.40),
               4: (2, 0.15)}
CONFLICT_R2L_WEIGHT = 0.10
CONFLICT_NORMAL_WEIGHT = 0.016
PROTO_SEED = 20240917


def _prototypes():
    rng = np.random.default_rng(PROTO_SEED)
    protos = {j: [] for j in range(N_CLASSES)}

    def pattern():
        p = np.zeros(N_FEATURES)
        p[SIGNAL_COLS] = rng.choice(GRID, size=len(SIGNAL_COLS))
        return p

    for col in SIGNAL_COLS:
        owner = PAIR_OWNERS[col]
        normal_side = pattern()
        normal_side[col] = 0.0
        attack_side = normal_side.copy()
        attack_side[col] = 1.5
        protos[owner].append((attack_side, PAIR_WEIGHTS[owner]))
        protos[0].append((normal_side, PAIR_NORMAL_WEIGHT))
    for j, (k, w) in BASE_PROTOS.items():
        protos[j].extend((pattern(), w) for _ in range(k))
    conflict = pattern()
    protos[4].append((conflict, CONFLICT_R2L_WEIGHT))
    protos[0].append((conflict, CONFLICT_NORMAL_WEIGHT))
    tables = {}
    for j, entries in protos.items():
        weights = np.array([w for _, w in entries])
        if abs(weights.sum() - 1.0) > 1e-12:
            raise AssertionError(f"class {j} mixture sums to {weights.sum()}")
        tables[j] = (np.stack([p for p, _ in entries]), weights)
    return tables


PROTOTYPES = _prototypes()


def kdd_pool(counts, seed):
    """Rows of a KDD-format pool with counts[j] flows of class j.

    Returns (X, symbols, labels, classes): X holds the numeric columns
    already rounded to the 4 decimals the CSV carries, symbols maps each
    symbolic column index to its string values, labels are attack names.
    """
    rng = np.random.default_rng(seed)
    parts, classes = [], []
    for j, count in enumerate(counts):
        patterns, weights = PROTOTYPES[j]
        X = patterns[rng.choice(len(weights), size=count, p=weights)]
        spikes = rng.random((count, len(NOISE_COLS))) < SPIKE_RATE
        X[:, NOISE_COLS] = spikes * rng.exponential(1.0, size=spikes.shape)
        parts.append(X)
        classes.append(np.full(count, j))
    X = np.round(np.vstack(parts), 4)
    classes = np.concatenate(classes)
    n = classes.size
    attack_pick = rng.integers(4, size=n)
    labels = np.array([CLASS_ATTACKS[c][k % len(CLASS_ATTACKS[c])]
                       for c, k in zip(classes, attack_pick)], dtype=object)
    symbols = {col: np.array(vocab, dtype=object)[
        rng.choice(len(vocab), size=n, p=probs)]
        for col, (vocab, probs) in SYMBOLS.items()}
    perm = rng.permutation(n)
    return (X[perm], {c: v[perm] for c, v in symbols.items()},
            labels[perm], classes[perm])


def write_kdd_csv(path, pool):
    """Write a pool as 42-field KDD CSV lines (41 features, label + '.')."""
    X, symbols, labels, _ = pool
    lines = []
    for i in range(X.shape[0]):
        fields = [f"{v:.4f}" for v in X[i]]
        for col in SYMBOLIC_COLUMNS:
            fields[col] = symbols[col][i]
        fields.append(labels[i] + ".")
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def encode_pool(pool):
    """The benchmark's own encoding of a pool: numeric columns as written,
    symbolic columns ordinal over the pool's sorted distinct values."""
    X, symbols, _, classes = pool
    enc = X.copy()
    for col in SYMBOLIC_COLUMNS:
        vocab = {v: i for i, v in enumerate(sorted(set(symbols[col])))}
        enc[:, col] = [vocab[v] for v in symbols[col]]
    return enc, classes


# dense corpus: class means on the first DENSE_INFORMATIVE columns
DENSE_INFORMATIVE = 12
DENSE_SPREAD = 1.0
DENSE_SEPARATION = 0.8
DENSE_MEAN_SEED = 5150


def dense_means():
    rng = np.random.default_rng(DENSE_MEAN_SEED)
    means = np.zeros((N_CLASSES, N_FEATURES))
    means[:, :DENSE_INFORMATIVE] = rng.normal(
        0.0, DENSE_SEPARATION, size=(N_CLASSES, DENSE_INFORMATIVE))
    return means


def dense_rows(counts, rng):
    means = dense_means()
    X = np.vstack([means[j] + rng.normal(0.0, DENSE_SPREAD,
                                         size=(c, N_FEATURES))
                   for j, c in enumerate(counts)])
    y = np.concatenate([np.full(c, j) for j, c in enumerate(counts)])
    perm = rng.permutation(y.size)
    return X[perm], y[perm]


def dense_split(train_counts, test_counts, seed):
    """(X_train, y_train, X_test, y_test) from the known Gaussians."""
    rng = np.random.default_rng(seed)
    return (*dense_rows(train_counts, rng), *dense_rows(test_counts, rng))


def bayes_predictions(X, priors):
    """Bayes-optimal class per row under the known isotropic Gaussians and
    the given class priors."""
    means = dense_means()
    sq = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    log_post = np.log(np.asarray(priors, dtype=np.float64))[None, :] \
        - sq / (2.0 * DENSE_SPREAD ** 2)
    return np.argmax(log_post, axis=1)
