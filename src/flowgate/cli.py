"""flowgate command line: ingest | select-features | train | classify |
evaluate | pipeline | compare.

Every stage writes files so runs can be resumed and compared; the
pipeline also hands each stage's results to the next in memory.
All randomness comes from explicit seeds; output artifacts embed a hash of
the config that produced them. Exit codes: 0 success, 2 config/validation
error, 3 runtime/data error; main alone maps exceptions to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bat import BatConfig, run as run_bat, wrapper_fitness
from .dataset import (EncodedDataset, FlowClass, N_CLASSES, check_doc,
                      dataset_hash, encode, field_types, load_dataset,
                      parse_kdd_csv, save_dataset, stratified_downsample,
                      write_json, write_text)
from .metrics import KDD99_COST_MATRIX, evaluate as evaluate_metrics
from .wrf import (ForestConfig, TreeConfig, config_from_doc, fit,
                  load_forest, predict_batch, save_forest)

MASK_FORMAT = "flowgate-mask-v1"


class ConfigError(Exception):
    """Invalid configuration or missing input; exit code 2. A ValueError,
    RuntimeError or OSError is a data or runtime fault; exit code 3."""


def _require_file(path, what):
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")


def _config_hash(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_json(path, what, error=ConfigError):
    _require_file(path, what)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------- configs

PROBE_SIZES = {"probe_train_size": 8000, "probe_valid_size": 8000}
# the bat document: the fields of BatConfig but seed, and the probe sizes
BAT_TYPES = {k: t for k, t in field_types(BatConfig).items() if k != "seed"}
BAT_TYPES.update(dict.fromkeys(PROBE_SIZES, int))
# the rf document: the TreeConfig fields, n_trees, and "baseline": true for
# the classical RF
RF_TYPES = dict(field_types(TreeConfig), n_trees=int, baseline=bool)
# the pipeline document; its first six keys are required
PIPELINE_TYPES = {"train_input": str, "test_input": str, "seed": int,
                  "train_targets": tuple[int, ...], "output_dir": str,
                  "test_targets": tuple[int, ...],
                  "cost_matrix": str | None, "bat": dict, "rf": dict}


def bat_config_from_doc(doc, seed) -> tuple:
    """Bat config and probe sizes from a bat document (BAT_TYPES)."""
    try:
        doc = check_doc(doc, BAT_TYPES)
        probe = [doc.pop(k, v) for k, v in PROBE_SIZES.items()]
        if min(probe) < 1:
            raise ValueError(f"require probe sizes >= 1, got {probe}")
        cfg = BatConfig(seed=seed, **doc)
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid bat config: {exc}") from exc
    return cfg, probe


def rf_config_from_doc(doc) -> ForestConfig:
    """Forest config from an rf document (RF_TYPES)."""
    try:
        doc = check_doc(doc, RF_TYPES)
        doc["weighted"] = not doc.pop("baseline", False)
        return config_from_doc(doc)
    except ValueError as exc:
        raise ConfigError(f"invalid rf config: {exc}") from exc


def load_cost_matrix(path) -> np.ndarray:
    _require_file(path, "cost matrix")
    try:
        matrix = np.loadtxt(path, delimiter=",", dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"cannot parse cost matrix {path}: {exc}") from exc
    if matrix.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"cost matrix {path} must be 5x5, "
                         f"got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"cost matrix {path} holds a non-finite entry")
    return matrix


# ----------------------------------------------------------------- stages

def cmd_ingest(input_path, targets, seed, output, encoders=None):
    """Parse, encode (with encoders, if given) and down-sample a CSV."""
    _require_file(input_path, "input dataset")
    ds = stratified_downsample(encode(parse_kdd_csv(input_path), encoders),
                               targets, seed)
    save_dataset(ds, output)
    return ds


def probe_split(ds: EncodedDataset, train_size, valid_size, seed):
    """Probe train/valid subsets for wrapper fitness.

    Class shares follow the square root of the class counts rather than the
    raw counts: under intrusion-scale imbalance a proportional probe would
    hold only a handful of rare-attack rows, and features that matter only
    for rare classes would never pay for themselves in probe accuracy. The
    square-root allocation keeps majority classes dominant while giving
    minority detectability a measurable weight in feature selection.
    """
    rng = np.random.default_rng(seed)
    n = ds.n_samples
    train_size = min(train_size, n // 2)
    valid_size = min(valid_size, n - train_size)
    counts = np.bincount(ds.y, minlength=N_CLASSES)
    shares = np.sqrt(counts, dtype=float)
    shares /= max(shares.sum(), 1.0)
    train_idx, valid_idx = [], []
    for j in range(N_CLASSES):
        idx = rng.permutation(np.flatnonzero(ds.y == j))
        k_train = max(1, round(shares[j] * train_size)) if idx.size else 0
        k_valid = max(1, round(shares[j] * valid_size)) if idx.size else 0
        k_train = min(k_train, max(1, idx.size // 2)) if idx.size else 0
        k_valid = min(k_valid, idx.size - k_train)
        train_idx.append(idx[:k_train])
        valid_idx.append(idx[k_train:k_train + k_valid])
    return (ds.take(np.sort(np.concatenate(train_idx))),
            ds.take(np.sort(np.concatenate(valid_idx))))


def select_features(ds, config_doc, seed, out_path):
    """Run the bat algorithm on ds, write the mask file, return the result."""
    cfg, probe = bat_config_from_doc(config_doc, seed)
    train, valid = probe_split(ds, *probe, seed)
    if not valid.n_samples:
        raise ValueError(f"the probe's validation split is empty: no "
                         f"class has two of the {ds.n_samples} flows")

    def fitness(mask):
        return wrapper_fitness(mask, train, valid, eval_seed=seed,
                               penalty=cfg.penalty)

    result = run_bat(fitness, ds.n_features, cfg)
    write_json({
        "format": MASK_FORMAT,
        "bits": "".join(str(int(b)) for b in result.mask),
        "selected_features": [ds.feature_names[i]
                              for i in np.flatnonzero(result.mask)],
        "n_selected": int(result.mask.sum()),
        "fitness": float(result.fitness),
        "trace": [float(v) for v in result.trace],
        "seed": seed,
        "config_hash": _config_hash(config_doc),
    }, out_path)
    return result


def load_mask(path) -> np.ndarray:
    doc = _load_json(path, "feature mask", ValueError)
    if not isinstance(doc, dict) or doc.get("format") != MASK_FORMAT:
        raise ValueError(f"{path}: not a flowgate mask file")
    bits = doc.get("bits")
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"{path}: mask bits must be a string of 0s and 1s")
    return np.array([int(c) for c in bits], dtype=np.uint8)


def _load_checked(load, path, what):
    _require_file(path, what)
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError, OverflowError) as exc:
        raise ValueError(f"cannot load {what} {path}: {exc}") from exc


def _holds_flows(ds, path):
    if not ds.n_samples:
        raise ValueError(f"ingested dataset {path} holds no flows")
    return ds


def _load_data(path):
    return _holds_flows(_load_checked(load_dataset, path, "ingested dataset"),
                        path)


def train_model(ds, mask, config_doc, seed, out_path):
    """Fit the forest on ds under mask, write the model file, return it."""
    cfg = rf_config_from_doc(config_doc)
    forest = fit(ds, mask, cfg, seed)
    save_forest(forest, out_path,
                extra={"seed": seed, "config_hash": _config_hash(config_doc)})
    return forest


def cmd_classify(model_path, data_path, out_path):
    forest = _load_checked(load_forest, model_path, "model")
    ds = _load_data(data_path)
    preds = predict_batch(forest, ds.X)
    write_text("index,true_class,predicted_class\n" + "".join(
        f"{i},{FlowClass(t).name},{FlowClass(p).name}\n"
        for i, (t, p) in enumerate(zip(ds.y, preds))), out_path)
    return preds


def evaluate_model(forest, ds, data_path, cost_path, out_path,
                   config_hash=None):
    """Score forest on ds, stored at data_path; write and return the report."""
    cost = load_cost_matrix(cost_path) if cost_path else KDD99_COST_MATRIX
    doc = evaluate_metrics(ds.y, predict_batch(forest, ds.X), cost).to_doc()
    doc["dataset_sha256"] = dataset_hash(data_path)
    doc["n_samples"] = int(ds.n_samples)
    if config_hash:
        doc["config_hash"] = config_hash
    write_json(doc, out_path)
    return doc


def cmd_select_features(data_path, config_doc, seed, out_path):
    return select_features(_load_data(data_path), config_doc, seed, out_path)


def cmd_train(data_path, mask_path, config_doc, seed, out_path):
    return train_model(_load_data(data_path), load_mask(mask_path),
                       config_doc, seed, out_path)


def cmd_evaluate(model_path, data_path, cost_path, out_path):
    forest = _load_checked(load_forest, model_path, "model")
    return evaluate_model(forest, _load_data(data_path), data_path,
                          cost_path, out_path)


# --------------------------------------------------------------- pipeline

def _pipeline_variant(bat_cfg: BatConfig, rf_cfg: ForestConfig) -> str:
    switches = (bat_cfg.n_subgroups > 1, bat_cfg.use_mutation,
                bat_cfg.use_self_learning, rf_cfg.weighted)
    if not any(switches):
        return "baseline"
    return "improved" if all(switches) else "custom"


def cmd_pipeline(config_path):
    doc = _load_json(config_path, "pipeline config")
    try:
        check_doc(doc, PIPELINE_TYPES, required=list(PIPELINE_TYPES)[:6])
    except ValueError as exc:
        raise ConfigError(f"invalid pipeline config: {exc}") from exc
    for key in ("train_targets", "test_targets"):
        _check_targets(doc[key], f"pipeline {key}")
    seed = _check_seed(doc["seed"], "pipeline seed")
    _require_file(doc["train_input"], "training dataset")
    _require_file(doc["test_input"], "test dataset")
    if doc.get("cost_matrix"):
        _require_file(doc["cost_matrix"], "cost matrix")
    bat_doc = doc.get("bat", {})
    rf_doc = doc.get("rf", {})
    bat_cfg, _ = bat_config_from_doc(bat_doc, seed)
    rf_cfg = rf_config_from_doc(rf_doc)
    out_dir = doc["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # hash only result-affecting keys so identical experiments agree
    # regardless of where their inputs and artifacts live
    cfg_hash = _config_hash({k: v for k, v in doc.items()
                             if k not in ("train_input", "test_input",
                                          "output_dir")})

    manifest = {
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": seed,
        "variant": _pipeline_variant(bat_cfg, rf_cfg),
        "stages": {},
        "status": "running",
    }
    paths = {k: os.path.join(out_dir, f"{k}.json")
             for k in ("train", "test", "mask", "model", "report")}
    manifest_path = os.path.join(out_dir, "manifest.json")

    def stage(name, fn):
        start = time.monotonic()
        try:
            result = fn()
        except Exception:
            manifest["stages"][name] = {
                "status": "failed",
                "seconds": round(time.monotonic() - start, 3)}
            manifest["status"] = f"failed at {name}"
            write_json(manifest, manifest_path)
            raise
        manifest["stages"][name] = {
            "status": "ok", "seconds": round(time.monotonic() - start, 3)}
        return result

    def ingest():  # the test split is encoded with the training encoders
        train = _holds_flows(cmd_ingest(doc["train_input"],
                                        doc["train_targets"], seed,
                                        paths["train"]), paths["train"])
        return train, _holds_flows(cmd_ingest(
            doc["test_input"], doc["test_targets"], seed + 1, paths["test"],
            train.encoders), paths["test"])

    train, test = stage("ingest", ingest)
    mask = stage("select-features", lambda: select_features(
        train, bat_doc, seed, paths["mask"])).mask
    forest = stage("train", lambda: train_model(
        train, mask, rf_doc, seed, paths["model"]))
    stage("evaluate", lambda: evaluate_model(
        forest, test, paths["test"], doc.get("cost_matrix"),
        paths["report"], config_hash=cfg_hash))

    manifest["status"] = "ok"
    manifest["dataset_sha256"] = {k: dataset_hash(paths[k])
                                  for k in ("train", "test")}
    write_json(manifest, manifest_path)
    return manifest


# ---------------------------------------------------------------- compare

COMPARE_METRICS = ("accuracy", "false_alarm_rate", "cost")


def _report_metrics(run_dir):
    """(dataset hash, {metric: value}) of a run's report.json; ValueError
    unless it is an object with every compared metric as a number."""
    rp = os.path.join(run_dir, "report.json")
    if not os.path.isfile(rp):
        raise ValueError(f"run {run_dir}: missing report.json")
    doc = _load_json(rp, "report", ValueError)
    try:
        values = {key: doc[key] for key in COMPARE_METRICS}
        values.update((f"recall_{c.name}", doc["per_class"][c.name]["recall"])
                      for c in FlowClass)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{rp}: not a flowgate report ({exc!r})") from None
    if not all(type(v) in (int, float) for v in values.values()):
        raise ValueError(f"{rp}: a compared metric is not a number")
    return doc.get("dataset_sha256"), values


def cmd_compare(dir_a, dir_b, out_path=None):
    (hash_a, a), (hash_b, b) = _report_metrics(dir_a), _report_metrics(dir_b)
    if hash_a != hash_b:
        raise ValueError(
            "runs were evaluated on different test sets "
            f"({dir_a} vs {dir_b}); refusing to compare")
    rows = [("metric", dir_a, dir_b, "delta")] + [
        (key, f"{a[key]:.6f}", f"{b[key]:.6f}", f"{a[key] - b[key]:+.6f}")
        for key in a]
    csv_text = "\n".join(",".join(r) for r in rows) + "\n"
    if out_path:
        write_text(csv_text, out_path)
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    table = "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows)
    return csv_text, table


# ------------------------------------------------------------------ main

def _check_targets(targets, what="targets"):
    if len(targets) != N_CLASSES or any(t < 0 for t in targets):
        raise ConfigError(f"{what} must be 5 non-negative integers, "
                          f"got {list(targets)}")
    return targets


def _check_seed(seed, what="--seed"):
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, "
                          f"got {seed}")
    return seed


def _parse_targets(text):
    try:
        return _check_targets([int(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"targets must be 5 comma-separated integers, "
                          f"got {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowgate",
        description="Two-stage intrusion detection: bat-algorithm feature "
                    "selection plus a cost-sensitive weighted random forest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, encode and down-sample a "
                                      "KDD-format file")
    p.add_argument("--input", required=True)
    p.add_argument("--targets", required=True,
                   help="per-class sample counts n0,n1,n2,n3,n4")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("select-features", help="run the bat algorithm")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file with bat parameters")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the weighted random forest")
    p.add_argument("--data", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--config", help="JSON file with forest parameters")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="predict classes for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cost", help="5x5 cost matrix CSV "
                                  "(default: KDD-99 competition matrix)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="run ingest, select-features, "
                                        "train and evaluate")
    p.add_argument("--config", required=True)

    p = sub.add_parser("compare", help="side-by-side metrics of two runs")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--out", help="write the comparison CSV here")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_seed(getattr(args, "seed", 0))  # ingest, select-features, train
        if args.command == "ingest":
            cmd_ingest(args.input, _parse_targets(args.targets), args.seed,
                       args.output)
        elif args.command == "select-features":
            cfg = _load_json(args.config, "bat config") if args.config else {}
            res = cmd_select_features(args.data, cfg, args.seed, args.out)
            print(f"selected {int(res.mask.sum())} features, "
                  f"fitness {res.fitness:.4f}")
        elif args.command == "train":
            cfg = _load_json(args.config, "rf config") if args.config else {}
            cmd_train(args.data, args.mask, cfg, args.seed, args.out)
        elif args.command == "classify":
            cmd_classify(args.model, args.data, args.out)
        elif args.command == "evaluate":
            doc = cmd_evaluate(args.model, args.data, args.cost, args.out)
            print(f"accuracy {doc['accuracy']:.4f}  "
                  f"FA {doc['false_alarm_rate']:.4f}  "
                  f"cost {doc['cost']:.4f}")
        elif args.command == "pipeline":
            manifest = cmd_pipeline(args.config)
            print(f"pipeline ok ({manifest['variant']}), artifacts in place")
        elif args.command == "compare":
            _, table = cmd_compare(args.run_a, args.run_b, args.out)
            print(table)
    except ConfigError as exc:
        print(f"flowgate: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"flowgate: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
