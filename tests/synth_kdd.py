"""Deterministic synthetic KDD-format corpus generator.

Produces raw 42-field CSV flows with the duplicate-heavy structure of real
intrusion captures: every class is a mixture over a fixed table of flow
prototypes (attack tool x configuration), and each record repeats its
prototype exactly, the way coarse flow counters produce masses of
duplicate rows. Two structural properties are designed for the pipeline
exercised on this corpus:

- every signal column is the *unique* resolver of one designed collision
  between an attack prototype and a Normal prototype that agree everywhere
  else, so dropping that column costs a measurable slice of accuracy and a
  feature selector must keep the whole signal set;
- the generator can also emit one R2L prototype as Normal traffic with
  higher volume (at the flow level some remote-to-local logins are
  indistinguishable from legitimate sessions), so that an unweighted
  classifier writes that region off as Normal while a rare-class-aware one
  flips it. This conflict is off in this acceptance corpus
  (CONFLICT_R2L_WEIGHT = 0.0); the benchmark's corpus in bench/corpora.py
  switches it on.

Used when no real KDD capture is available in the test environment.
"""

import numpy as np

from flowgate.dataset import N_FEATURES

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

# symbolic columns are drawn from one shared traffic mix; class identity
# lives in the numeric prototypes
SYMBOL_DISTS = {
    "protocol": [0.70, 0.25, 0.05],
    "service": [0.40, 0.15, 0.10, 0.15, 0.10, 0.05, 0.05],
    "flag": [0.80, 0.06, 0.09, 0.05],
}

# numeric columns that carry prototype signatures; each is owned by the
# attack class whose prototype collision it resolves
PAIR_OWNERS = {
    22: 1, 23: 1, 31: 1, 32: 1, 33: 1, 35: 1,
    4: 2, 24: 2, 25: 2, 26: 2, 27: 2, 28: 2, 37: 2, 38: 2,
    13: 3, 14: 3,
    5: 4, 6: 4, 10: 4, 11: 4, 18: 4, 21: 4,
}
SIGNAL_COLS = sorted(PAIR_OWNERS)

GRID = np.array([0.0, 1.5, 3.0])  # prototype coordinate levels
SPIKE_RATE = 0.02                 # sparse activity on non-signal counters

# per-class weight of each collision-pair attack prototype; the paired
# Normal prototypes and the base/conflict weights below make each class's
# mixture sum to 1
PAIR_WEIGHTS = {1: 0.10, 2: 0.07, 3: 0.30, 4: 0.10}
PAIR_NORMAL_WEIGHT = 0.012
BASE_PROTOS = {0: (6, 0.12), 1: (2, 0.20), 2: (2, 0.22), 3: (1, 0.40),
               4: (2, 0.15)}
CONFLICT_R2L_WEIGHT = 0.0      # share of R2L rows that look Normal
CONFLICT_NORMAL_WEIGHT = 0.0    # same flows as legitimate traffic

PROTO_SEED = 20240917


def build_prototypes():
    """Fixed per-class prototype tables as (patterns, weights) arrays."""
    rng = np.random.default_rng(PROTO_SEED)
    protos = {j: [] for j in range(5)}

    def pattern():
        p = np.zeros(N_FEATURES)
        p[SIGNAL_COLS] = rng.choice(GRID, size=len(SIGNAL_COLS))
        return p

    # collision pairs: attack and Normal prototypes identical except on the
    # owned column
    for col in SIGNAL_COLS:
        owner = PAIR_OWNERS[col]
        normal_side = pattern()
        normal_side[col] = 0.0
        attack_side = normal_side.copy()
        attack_side[col] = 1.5
        protos[owner].append((attack_side, PAIR_WEIGHTS[owner]))
        protos[0].append((normal_side, PAIR_NORMAL_WEIGHT))

    # base prototypes: redundantly separable bulk traffic
    for j, (k, w) in BASE_PROTOS.items():
        for _ in range(k):
            protos[j].append((pattern(), w))

    # conflicted prototype: identical flows labelled both R2L and Normal,
    # with the Normal side carrying more volume
    if CONFLICT_R2L_WEIGHT > 0:
        conflict = pattern()
        protos[4].append((conflict, CONFLICT_R2L_WEIGHT))
        protos[0].append((conflict, CONFLICT_NORMAL_WEIGHT))

    tables = {}
    for j, entries in protos.items():
        patterns = np.stack([p for p, _ in entries])
        weights = np.array([w for _, w in entries])
        tables[j] = (patterns, weights / weights.sum())
    return tables


PROTOTYPES = build_prototypes()


def generate_rows(counts, seed, noise=1.0):
    """Numeric matrix, symbolic column values and labels for the corpus."""
    rng = np.random.default_rng(seed)
    noise_cols = [c for c in range(N_FEATURES)
                  if c not in SIGNAL_COLS and c not in (1, 2, 3, 19)]
    X_parts, labels, classes = [], [], []
    for j, count in enumerate(counts):
        patterns, weights = PROTOTYPES[j]
        picks = rng.choice(len(weights), size=count, p=weights)
        # rows repeat their prototype exactly, like the duplicate flows of a
        # real capture; the remaining counters are almost always zero with
        # sparse unrelated activity
        X = patterns[picks]
        spikes = rng.random((count, len(noise_cols))) < SPIKE_RATE
        X[:, noise_cols] = spikes * rng.exponential(noise, size=spikes.shape)
        X[:, 19] = 0.0  # num_outbound_cmds is constant in real captures
        X_parts.append(X)
        attacks = CLASS_ATTACKS[j]
        labels.extend(attacks[int(rng.integers(len(attacks)))]
                      for _ in range(count))
        classes.extend([j] * count)
    X = np.vstack(X_parts)
    n = X.shape[0]
    sym = {}
    for name, vocab in (("protocol", PROTOCOLS), ("service", SERVICES),
                        ("flag", FLAGS)):
        picks = rng.choice(len(vocab), size=n, p=SYMBOL_DISTS[name])
        sym[name] = np.array(vocab, dtype=object)[picks]
    perm = rng.permutation(n)
    return X[perm], {k: v[perm] for k, v in sym.items()}, \
        [labels[i] for i in perm]


def write_synthetic_kdd(path, counts, seed, noise=1.0):
    """Write a raw KDD-format CSV with the given per-class counts."""
    X, sym, labels = generate_rows(counts, seed, noise)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[0]):
            fields = [f"{v:.4f}" for v in X[i]]
            fields[1] = sym["protocol"][i]
            fields[2] = sym["service"][i]
            fields[3] = sym["flag"][i]
            fields.append(labels[i] + ".")
            fh.write(",".join(fields) + "\n")
    return path
