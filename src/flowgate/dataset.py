"""KDD-format flow ingestion, numeric encoding, and stratified down-sampling.

Raw records carry 41 features (38 numeric, 3 symbolic) plus an attack-name
label. Attack names are grouped into five classes (Normal, Probe, DoS, U2R,
R2L) with stable integer codes 0-4.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
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


class FlowClass(IntEnum):
    NORMAL = 0
    PROBE = 1
    DOS = 2
    U2R = 3
    R2L = 4


N_CLASSES = len(FlowClass)

# Canonical KDD-99 attack-name grouping (training attacks plus the extra
# attack types that appear only in the corrected test set).
ATTACK_CLASSES = {
    "normal": FlowClass.NORMAL,
    # Probe
    "ipsweep": FlowClass.PROBE,
    "nmap": FlowClass.PROBE,
    "portsweep": FlowClass.PROBE,
    "satan": FlowClass.PROBE,
    "mscan": FlowClass.PROBE,
    "saint": FlowClass.PROBE,
    # DoS
    "back": FlowClass.DOS,
    "land": FlowClass.DOS,
    "neptune": FlowClass.DOS,
    "pod": FlowClass.DOS,
    "smurf": FlowClass.DOS,
    "teardrop": FlowClass.DOS,
    "apache2": FlowClass.DOS,
    "mailbomb": FlowClass.DOS,
    "processtable": FlowClass.DOS,
    "udpstorm": FlowClass.DOS,
    # U2R
    "buffer_overflow": FlowClass.U2R,
    "loadmodule": FlowClass.U2R,
    "perl": FlowClass.U2R,
    "rootkit": FlowClass.U2R,
    "httptunnel": FlowClass.U2R,
    "ps": FlowClass.U2R,
    "sqlattack": FlowClass.U2R,
    "xterm": FlowClass.U2R,
    # R2L
    "ftp_write": FlowClass.R2L,
    "guess_passwd": FlowClass.R2L,
    "imap": FlowClass.R2L,
    "multihop": FlowClass.R2L,
    "phf": FlowClass.R2L,
    "spy": FlowClass.R2L,
    "warezclient": FlowClass.R2L,
    "warezmaster": FlowClass.R2L,
    "named": FlowClass.R2L,
    "sendmail": FlowClass.R2L,
    "snmpgetattack": FlowClass.R2L,
    "snmpguess": FlowClass.R2L,
    "worm": FlowClass.R2L,
    "xlock": FlowClass.R2L,
    "xsnoop": FlowClass.R2L,
}

DATASET_FORMAT = "flowgate-dataset-v1"


@dataclass
class FlowRecord:
    """One raw labeled flow: 41 feature strings plus an attack-name label."""

    features: list
    label: str

    def __post_init__(self):
        if len(self.features) != N_FEATURES:
            raise ValueError(
                f"expected {N_FEATURES} features, got {len(self.features)}"
            )
        if not self.label:
            raise ValueError("empty label")


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


def parse_kdd_csv(path) -> list:
    """Read a KDD-format CSV into FlowRecords.

    Each line holds 41 features plus the label; a trailing difficulty field
    (43 fields total) is tolerated and dropped. Labels keep their attack
    name with any trailing '.' stripped.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read KDD file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) == N_FEATURES + 2:
            fields = fields[:-1]  # drop difficulty column
        if len(fields) != N_FEATURES + 1:
            raise ValueError(
                f"line {lineno}: expected {N_FEATURES + 1} fields, "
                f"got {len(fields)}"
            )
        label = fields[-1].rstrip(".")
        records.append(FlowRecord(features=fields[:-1], label=label))
    return records


def map_attack_to_class(label: str) -> FlowClass:
    """Map an attack name to its five-class code; unknown names are errors."""
    key = label.rstrip(".").lower()
    try:
        return ATTACK_CLASSES[key]
    except KeyError:
        raise ValueError(f"unknown attack label: {label!r}") from None


def build_encoders(records) -> dict:
    """Ordinal encoders for the symbolic columns, from sorted distinct values."""
    encoders = {}
    for col in SYMBOLIC_COLUMNS:
        values = sorted({rec.features[col] for rec in records})
        encoders[FEATURE_NAMES[col]] = {v: i for i, v in enumerate(values)}
    return encoders


def encode(records) -> EncodedDataset:
    """Encode raw records into a real-valued matrix plus class codes.

    Symbolic columns are ordinal-encoded by dictionaries built from sorted
    distinct values, so two record lists with the same distinct symbol sets
    produce identical encodings. The feature count stays 41.
    """
    if not records:
        raise ValueError("cannot encode an empty record list")
    encoders = build_encoders(records)
    X = np.empty((len(records), N_FEATURES), dtype=np.float64)
    y = np.empty(len(records), dtype=np.int64)
    for row, rec in enumerate(records):
        for col, raw in enumerate(rec.features):
            if col in SYMBOLIC_COLUMNS:
                X[row, col] = encoders[FEATURE_NAMES[col]][raw]
            else:
                try:
                    X[row, col] = float(raw)
                except ValueError:
                    raise ValueError(
                        f"row {row}, column {col} ({FEATURE_NAMES[col]}): "
                        f"unparseable numeric value {raw!r}"
                    ) from None
        y[row] = int(map_attack_to_class(rec.label))
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
    sel = np.sort(np.concatenate(chosen))
    return EncodedDataset(X=ds.X[sel], y=ds.y[sel],
                          feature_names=list(ds.feature_names),
                          encoders=ds.encoders)


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
    float must be finite, and tuple[t, ...] is an array of t."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return isinstance(value, list) and all(fits(v, args[0]) for v in value)
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
    bit-exactly)."""
    doc = {
        "format": DATASET_FORMAT,
        "feature_names": list(ds.feature_names),
        "encoders": ds.encoders,
        "class_counts": ds.class_counts.tolist(),
        "labels": ds.y.tolist(),
        "features": ds.X.tolist(),
    }
    write_json(doc, path)


def load_dataset(path) -> EncodedDataset:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not a flowgate dataset file")
    ds = EncodedDataset(
        X=np.array(doc["features"], dtype=np.float64).reshape(
            len(doc["labels"]), -1),
        y=np.array(doc["labels"], dtype=np.int64),
        feature_names=doc["feature_names"],
        encoders=doc["encoders"],
    )
    if list(ds.class_counts) != list(doc["class_counts"]):
        raise ValueError(f"{path}: stored class counts do not match labels")
    return ds


def dataset_hash(path) -> str:
    """SHA-256 of the exchange file bytes; identifies a test split in
    cross-run comparisons."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
