"""KDD-format flow ingestion, numeric encoding, and stratified down-sampling.

Raw records carry 41 features (38 numeric, 3 symbolic) plus an attack-name
label. Attack names are grouped into five classes (Normal, Probe, DoS, U2R,
R2L) with stable integer codes 0-4.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import typing
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

N_FEATURES = 41

FEATURE_NAMES = [
    "duration", "protocol_type", "service", "flag", "src_bytes",
    "dst_bytes", "land", "wrong_fragment", "urgent", "hot",
    "num_failed_logins", "logged_in", "num_compromised", "root_shell",
    "su_attempted", "num_root", "num_file_creations", "num_shells",
    "num_access_files", "num_outbound_cmds", "is_host_login",
    "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count",
    "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]

# protocol_type, service, flag
SYMBOLIC_COLUMNS = (1, 2, 3)
NUMERIC_COLUMNS = [c for c in range(N_FEATURES) if c not in SYMBOLIC_COLUMNS]


class FlowClass(IntEnum):
    NORMAL = 0
    PROBE = 1
    DOS = 2
    U2R = 3
    R2L = 4


N_CLASSES = len(FlowClass)

# Canonical KDD-99 attack-name grouping (training attacks plus the extra
# attack types that appear only in the corrected test set).
ATTACK_CLASSES = {name: cls for cls, names in [
    (FlowClass.NORMAL, "normal"),
    (FlowClass.PROBE, "ipsweep nmap portsweep satan mscan saint"),
    (FlowClass.DOS, "back land neptune pod smurf teardrop apache2 mailbomb "
                    "processtable udpstorm"),
    (FlowClass.U2R, "buffer_overflow loadmodule perl rootkit httptunnel ps "
                    "sqlattack xterm"),
    (FlowClass.R2L, "ftp_write guess_passwd imap multihop phf spy "
                    "warezclient warezmaster named sendmail snmpgetattack "
                    "snmpguess worm xlock xsnoop"),
] for name in names.split()}

DATASET_FORMAT = "flowgate-dataset-v1"


@dataclass
class FlowTable:
    """Raw labeled flows by column: the numeric features as one float64
    array, the symbolic features and the attack names as strings."""

    numeric: np.ndarray  # (n, len(NUMERIC_COLUMNS)), in column order
    symbols: list        # per SYMBOLIC_COLUMNS entry, n strings
    labels: list         # n attack names, trailing '.' stripped


@dataclass
class EncodedDataset:
    """Numerically encoded samples: X is (n, 41) float, y holds class codes."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list
    encoders: dict  # symbolic column name -> {raw value -> code}

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("feature rows and labels are misaligned")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("non-finite feature value in encoded dataset")

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def class_counts(self):
        return np.bincount(self.y, minlength=N_CLASSES)

    def take(self, rows) -> EncodedDataset:
        return EncodedDataset(self.X[rows], self.y[rows],
                              list(self.feature_names), self.encoders)


def parse_kdd_csv(path) -> FlowTable:
    """Read a KDD-format CSV into a FlowTable.

    Each line holds 41 features plus the label; a trailing difficulty field
    (43 fields total) is tolerated and dropped. Blank and whitespace-only
    lines are skipped. A label must name a known attack; any trailing '.' is
    stripped. The numeric fields go through numpy's C reader, which rounds
    as float() does but takes only ASCII numbers: '1_0' is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise OSError(f"cannot read KDD file {path}: {exc}") from exc
    kept, linenos, symbols, labels = [], [], [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        n = line.count(",") + 1
        if n not in (N_FEATURES + 1, N_FEATURES + 2):
            raise ValueError(f"line {lineno}: expected {N_FEATURES + 1} "
                             f"fields, got {n}")
        # numpy reads the numbers: split off only fields 1-3 and the label
        label = line.rsplit(",", n - N_FEATURES)[1].rstrip(".")
        if not label:
            raise ValueError(f"line {lineno}: empty label")
        kept.append(line)
        linenos.append(lineno)
        symbols.append(line.split(",", 4)[1:4])
        labels.append(label)
    for label in dict.fromkeys(labels):
        if label.lower() not in ATTACK_CLASSES:
            raise ValueError(f"line {linenos[labels.index(label)]}: unknown "
                             f"attack label {label!r}")
    if not kept:
        return FlowTable(np.empty((0, len(NUMERIC_COLUMNS))),
                         [[] for _ in SYMBOLIC_COLUMNS], [])
    try:
        numeric = np.loadtxt(kept, delimiter=",", comments=None,
                             usecols=NUMERIC_COLUMNS, ndmin=2)
    except ValueError as exc:  # numpy counts rows among the kept lines
        raise ValueError(re.sub(r"at row (\d+)", lambda m: f"on line "
                                f"{linenos[int(m[1])]}", str(exc))) from None
    return FlowTable(numeric, [list(c) for c in zip(*symbols)], labels)


def map_attack_to_class(label: str) -> FlowClass:
    """Map an attack name to its five-class code; unknown names are errors."""
    key = label.rstrip(".").lower()
    try:
        return ATTACK_CLASSES[key]
    except KeyError:
        raise ValueError(f"unknown attack label: {label!r}") from None


def encode(table: FlowTable, encoders=None) -> EncodedDataset:
    """Encode raw flows into a real-valued matrix plus class codes.

    Symbolic columns are ordinal-encoded. Without encoders each column's
    dictionary is built from its sorted distinct values, so two tables
    with the same distinct symbol sets produce identical encodings. Given
    encoders (a training split's), they are reused, and a symbol they lack
    maps to one reserved code per column, the dictionary's length. The
    feature count stays 41.
    """
    if not table.labels:
        raise ValueError("cannot encode an empty flow table")
    if encoders is None:
        encoders = {FEATURE_NAMES[col]: {v: i for i, v in
                                         enumerate(sorted(set(values)))}
                    for col, values in zip(SYMBOLIC_COLUMNS, table.symbols)}
    X = np.empty((len(table.labels), N_FEATURES), dtype=np.float64)
    X[:, NUMERIC_COLUMNS] = table.numeric
    for col, values in zip(SYMBOLIC_COLUMNS, table.symbols):
        codes = encoders[FEATURE_NAMES[col]]
        unseen = len(codes)
        X[:, col] = [codes.get(v, unseen) for v in values]
    classes = {label: int(map_attack_to_class(label))
               for label in dict.fromkeys(table.labels)}
    y = np.array([classes[label] for label in table.labels], dtype=np.int64)
    return EncodedDataset(X=X, y=y, feature_names=list(FEATURE_NAMES),
                          encoders=encoders)


def stratified_downsample(ds: EncodedDataset, targets, seed: int) -> EncodedDataset:
    """Draw targets[j] samples per class uniformly without replacement.

    Deterministic for a fixed seed; selected rows keep their original order.
    Feature values are never modified, only rows are selected.
    """
    targets = list(targets)
    if len(targets) != N_CLASSES:
        raise ValueError(f"expected {N_CLASSES} per-class targets")
    rng = np.random.default_rng(seed)
    chosen = []
    for j in range(N_CLASSES):
        idx = np.flatnonzero(ds.y == j)
        if targets[j] > idx.size:
            raise ValueError(
                f"class {FlowClass(j).name}: requested {targets[j]} samples "
                f"but only {idx.size} available"
            )
        chosen.append(rng.choice(idx, size=targets[j], replace=False))
    return ds.take(np.sort(np.concatenate(chosen)))


def write_text(text, path) -> None:
    """Write text to a temporary file beside path, then move it over path,
    so a failed write never leaves a truncated artifact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(doc, path) -> None:
    """Write doc as key-sorted compact JSON with write_text."""
    write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")), path)


def field_types(*classes) -> dict:
    """Key -> type of the fields of the given config dataclasses."""
    return {f.name: typing.get_type_hints(cls)[f.name]
            for cls in classes for f in dataclasses.fields(cls)}


def fits(value, tp) -> bool:
    """Whether a JSON value has type tp. A boolean is never a number, a
    float must be finite, tuple[t, ...] is an array of t and dict[str, t]
    an object of t."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return isinstance(value, list) and all(fits(v, args[0]) for v in value)
    if typing.get_origin(tp) is dict:
        return isinstance(value, dict) and all(fits(v, args[1])
                                               for v in value.values())
    if args:  # a union such as str | None
        return any(fits(value, t) for t in args)
    if tp is float:
        return fits(value, int) or (isinstance(value, float)
                                    and math.isfinite(value))
    return isinstance(value, tp) and (tp is bool) == isinstance(value, bool)


def check_doc(doc, types, required=()) -> dict:
    """The JSON object doc checked against types, a key -> type map such as
    field_types gives; arrays come back as tuples. ValueError for an
    unknown or missing key or a value of another type."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(types))
    missing = sorted(set(required) - set(doc))
    if unknown or missing:
        raise ValueError(f"unknown keys {unknown}, missing keys {missing}")
    for key, value in doc.items():
        tp = types[key]
        if not fits(value, tp):
            name = tp.__name__ if isinstance(tp, type) else tp
            raise ValueError(f"{key} must be of type {name}, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def save_dataset(ds: EncodedDataset, path) -> None:
    """Write the dataset exchange file (self-describing JSON, round-trips
    bit-exactly): write_json's bytes with "features": ds.X.tolist(), but
    each distinct float64 bit pattern of a column (so -0.0 apart from 0.0)
    formatted once, as json does, with float.__repr__. "features" sorts
    just before "format", which only the integer "labels" follows."""
    doc = {
        "format": DATASET_FORMAT,
        "feature_names": list(ds.feature_names),
        "encoders": ds.encoders,
        "class_counts": ds.class_counts.tolist(),
        "labels": ds.y.tolist(),
    }
    cells = np.empty(ds.X.shape, dtype=object)
    for j, column in enumerate(ds.X.T):
        patterns, index = np.unique(column.view(np.uint64),
                                    return_inverse=True)
        cells[:, j] = np.array([float.__repr__(v) for v in patterns.view(
            np.float64).tolist()], dtype=object)[index]
    rows = ",".join(["[" + ",".join(row) + "]" for row in cells])
    del cells  # free before the file text is built: it sets the peak RSS
    head, sep, tail = json.dumps(doc, sort_keys=True, separators=(
        ",", ":")).rpartition(',"format":')
    write_text(f'{head},"features":[{rows}]{sep}{tail}', path)


def load_dataset(path) -> EncodedDataset:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not a flowgate dataset file")
    labels, rows = doc["labels"], doc["features"]
    # numpy would truncate 0.5, parse "2" and read true as 1
    if not (isinstance(labels, list) and set(map(type, labels)) <= {int}
            and all(0 <= v < N_CLASSES for v in labels)):
        raise ValueError(f"{path}: labels must be class codes 0-4")
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise ValueError(f"{path}: features must be rows of numbers")
    if not (fits(doc["feature_names"], tuple[str, ...])
            and fits(doc["encoders"], dict[str, dict[str, int]])):
        raise ValueError(f"{path}: feature_names must be an array of strings, "
                         f"encoders an object of symbol -> code objects")
    ds = EncodedDataset(
        X=np.array(rows, dtype=np.float64).reshape(
            len(labels), len(doc["feature_names"])), y=labels,
        feature_names=doc["feature_names"], encoders=doc["encoders"])
    if ds.class_counts.tolist() != doc["class_counts"]:
        raise ValueError(f"{path}: stored class counts do not match labels")
    return ds


def dataset_hash(path) -> str:
    """SHA-256 of the exchange file bytes; identifies a test split in
    cross-run comparisons."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
