"""The benchmark workloads: what each sets up, times and checks.

A workload has ``setup()``, run before timing; ``run_round()``, one round of
the timed operations; ``artifacts()``, the sha256 of the round's outputs,
taken outside the timing, which must be the same in every round; and
``check()``, which verifies the last round's outputs against separate
computations or required properties and returns the model's quality.

- ``retrain-kdd``: ``flowgate pipeline`` in-process on KDD-format CSV pools.
  The only workload that parses CSV and reads and writes JSON datasets.
- ``retrain-dense``: the same stages through the library API on continuous
  Gaussian rows, with no CSV and no JSON: almost every row is distinct and
  a column has thousands of distinct values.
- ``score-flows``: the SDN controller's side. Set-up trains and saves a
  forest; a round reloads it, scores flows one per call, then scores the
  test split in fixed-size batches. No bat, k-means or ingest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time

import numpy as np

import corpora
from flowgate import bat, cli, dataset, metrics, wrf

# acceptance-scale class counts: Normal, Probe, DoS, U2R, R2L
TRAIN_TARGETS = [17129, 3107, 35700, 52, 1126]
TEST_TARGETS = [12183, 1880, 21705, 228, 1468]
TRAIN_POOL = [21000, 3800, 43000, 64, 1400]
TEST_POOL = [15000, 2300, 26000, 280, 1800]

# the published KDD-99 cost matrix, kept here so the benchmark recomputes
# cost without the program's copy; rows true, columns predicted
KDD99_COST = np.array([
    [0, 1, 2, 2, 2],
    [1, 0, 2, 2, 2],
    [2, 1, 0, 2, 2],
    [3, 2, 2, 0, 2],
    [4, 2, 2, 2, 0],
], dtype=np.float64)
U2R, R2L = 3, 4
BAYES_SLACK = 0.01
# The program's own seed (bat, probe split, down-sampling, forest) is fixed,
# as in an operator's pipeline config; --seed varies only the input data.
# A seeded program explores different masks and forests per run, whose
# sizes swing the work per round by more than any bound could hold.
PROGRAM_SEED = 7


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def scaled(counts, scale):
    return [max(1, round(c * scale)) for c in counts]


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_doc(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_quality(truth, predictions, reported):
    """Recompute the confusion matrix, accuracy, KDD-99 cost and recalls
    from the predictions and require the reported report to agree."""
    truth = np.asarray(truth)
    predictions = np.asarray(predictions)
    n = truth.size
    cm = np.bincount(truth * 5 + predictions, minlength=25).reshape(5, 5)
    accuracy = np.trace(cm) / n
    cost = float((cm * KDD99_COST).sum() / n)
    recall = np.diag(cm) / cm.sum(axis=1)
    require(cm.tolist() == reported["confusion"],
            "reported confusion matrix differs from the predictions")
    require(abs(accuracy - reported["accuracy"]) <= 1e-12,
            f"reported accuracy {reported['accuracy']} != {accuracy}")
    require(abs(cost - reported["cost"]) <= 1e-12,
            f"reported cost {reported['cost']} != {cost}")
    for j, name in enumerate(("NORMAL", "PROBE", "DOS", "U2R", "R2L")):
        require(abs(recall[j] - reported["per_class"][name]["recall"])
                <= 1e-12, f"reported {name} recall differs")
    majority = cm.sum(axis=1).max() / n
    require(accuracy > majority,
            f"accuracy {accuracy:.4f} does not beat the majority class "
            f"share {majority:.4f}")
    return {"accuracy": float(accuracy), "cost": cost,
            "recall_r2l": float(recall[R2L]),
            "recall_u2r": float(recall[U2R])}


def check_selection(mask, fitness, trace, probe, seed, penalty):
    """The reported fitness is wrapper_fitness recomputed on the same
    probe split, and the best-so-far trace never decreases."""
    train, valid = probe
    again = bat.wrapper_fitness(mask, train, valid, eval_seed=seed,
                                penalty=penalty)
    require(again == fitness,
            f"mask fitness {fitness} != recomputed {again}")
    require(all(b >= a for a, b in zip(trace, trace[1:])),
            "bat fitness trace decreases")
    require(trace[-1] == fitness, "trace does not end at the mask fitness")


class Workload:
    """Data seed, output directory, and sizes over the class defaults."""

    sizes = {}

    def __init__(self, seed, workdir, **sizes):
        self.seed = seed
        self.dir = workdir
        self.sizes = dict(self.sizes, **sizes)


class RetrainKdd(Workload):
    name = "retrain-kdd"
    setup_repeats = 3
    ops_per_round = 1
    sizes = {"scale": 0.2, "n_bats": 16, "n_iterations": 2, "probe": 1500,
             "n_trees": 5}

    def setup(self):
        s = self.sizes
        self.pools = {
            "train": corpora.kdd_pool(scaled(TRAIN_POOL, s["scale"]),
                                      [self.seed, 1]),
            "test": corpora.kdd_pool(scaled(TEST_POOL, s["scale"]),
                                     [self.seed, 2]),
        }
        self.targets = {"train": scaled(TRAIN_TARGETS, s["scale"]),
                        "test": scaled(TEST_TARGETS, s["scale"])}
        run_dir = os.path.join(self.dir, "run")
        config = {"seed": PROGRAM_SEED, "output_dir": run_dir,
                  "bat": {"n_bats": s["n_bats"],
                          "n_iterations": s["n_iterations"],
                          "probe_train_size": s["probe"],
                          "probe_valid_size": s["probe"]},
                  "rf": {"n_trees": s["n_trees"]}}
        for split in ("train", "test"):
            path = os.path.join(self.dir, f"{split}_pool.csv")
            corpora.write_kdd_csv(path, self.pools[split])
            config[f"{split}_input"] = path
            config[f"{split}_targets"] = self.targets[split]
        self.config_path = os.path.join(self.dir, "pipeline.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.paths = {k: os.path.join(run_dir, f"{k}.json")
                      for k in ("train", "test", "mask", "model", "report",
                                "manifest")}

    def run_round(self):
        rc = cli.main(["pipeline", "--config", self.config_path])
        if rc != 0:
            raise RuntimeError(f"flowgate pipeline exited with {rc}")

    def artifacts(self):
        return {k: sha256_file(self.paths[k])
                for k in ("mask", "model", "report")}

    def check(self):
        splits = {}
        for split in ("train", "test"):
            ds = dataset.load_dataset(self.paths[split])
            require(ds.class_counts.tolist() == self.targets[split],
                    f"{split} split has class counts "
                    f"{ds.class_counts.tolist()}, "
                    f"requested {self.targets[split]}")
            enc, classes = corpora.encode_pool(self.pools[split])
            pool_rows = {(int(c), row.tobytes()) for c, row in
                         zip(classes, enc)}
            for row, c in zip(ds.X, ds.y):
                require((int(c), row.tobytes()) in pool_rows,
                        f"{split} split holds a row of class {c} that its "
                        f"pool does not")
            splits[split] = ds
        with open(self.paths["mask"], encoding="utf-8") as fh:
            mask_doc = json.load(fh)
        mask = np.array([int(b) for b in mask_doc["bits"]], dtype=np.uint8)
        s = self.sizes
        probe = cli.probe_split(splits["train"], s["probe"], s["probe"],
                                PROGRAM_SEED)
        check_selection(mask, mask_doc["fitness"], mask_doc["trace"], probe,
                        PROGRAM_SEED, bat.BatConfig().penalty)
        forest = wrf.load_forest(self.paths["model"])
        predictions = wrf.predict_batch(forest, splits["test"].X)
        with open(self.paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        quality = check_quality(splits["test"].y, predictions, report)
        with open(self.paths["manifest"], encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        info = {f"{k.split('-')[0]}_s": v["seconds"]
                for k, v in stages.items()}
        info["n_selected"] = int(mask.sum())
        return quality, info


class RetrainDense(Workload):
    name = "retrain-dense"
    setup_repeats = 5
    ops_per_round = 1
    sizes = {"train": [1200, 240, 2000, 50, 200],
             "test": [4000, 800, 7000, 120, 600],
             "n_bats": 16, "n_iterations": 2, "probe": 600, "n_trees": 5}

    def setup(self):
        s = self.sizes
        X, y, X_test, y_test = corpora.dense_split(s["train"], s["test"],
                                                   [self.seed, 3])
        names = list(dataset.FEATURE_NAMES)
        self.train = dataset.EncodedDataset(X=X, y=y, feature_names=names,
                                            encoders={})
        self.test = dataset.EncodedDataset(X=X_test, y=y_test,
                                           feature_names=names, encoders={})
        self.bat_config = bat.BatConfig(n_bats=s["n_bats"],
                                        n_iterations=s["n_iterations"],
                                        seed=PROGRAM_SEED)
        # warm-up: every stage once on a small probe, so that the first
        # timed round is not the first call and lazy set-up shows here
        train, valid = cli.probe_split(self.train, 500, 500, PROGRAM_SEED)
        every = np.ones(self.train.n_features, dtype=np.uint8)
        bat.wrapper_fitness(every, train, valid, eval_seed=PROGRAM_SEED)
        forest = wrf.fit(train, every, wrf.ForestConfig(n_trees=1),
                         PROGRAM_SEED)
        metrics.evaluate(valid.y, wrf.predict_batch(forest, valid.X))

    def run_round(self):
        s = self.sizes
        t0 = time.perf_counter()
        train, valid = cli.probe_split(self.train, s["probe"], s["probe"],
                                       PROGRAM_SEED)
        penalty = self.bat_config.penalty

        def fitness(mask):
            return bat.wrapper_fitness(mask, train, valid,
                                       eval_seed=PROGRAM_SEED, penalty=penalty)

        self.selection = bat.run(fitness, self.train.n_features,
                                 self.bat_config)
        t1 = time.perf_counter()
        self.forest = wrf.fit(self.train, self.selection.mask,
                              wrf.ForestConfig(n_trees=s["n_trees"]),
                              PROGRAM_SEED)
        t2 = time.perf_counter()
        self.predictions = wrf.predict_batch(self.forest, self.test.X)
        self.report = metrics.evaluate(self.test.y, self.predictions)
        self.stage_s = {"select_s": t1 - t0, "train_s": t2 - t1,
                        "evaluate_s": time.perf_counter() - t2}

    def artifacts(self):
        model = os.path.join(self.dir, "model.json")
        wrf.save_forest(self.forest, model)
        bits = "".join(str(int(b)) for b in self.selection.mask)
        return {"mask": hashlib.sha256(bits.encode()).hexdigest(),
                "model": sha256_file(model),
                "report": sha256_doc(self.report.to_doc())}

    def check(self):
        s = self.sizes
        quality = check_quality(self.test.y, self.predictions,
                                self.report.to_doc())
        priors = np.asarray(s["test"]) / sum(s["test"])
        bayes = float(np.mean(
            corpora.bayes_predictions(self.test.X, priors) == self.test.y))
        require(quality["accuracy"] <= bayes + BAYES_SLACK,
                f"accuracy {quality['accuracy']:.4f} beats the Bayes-optimal "
                f"{bayes:.4f} by more than {BAYES_SLACK}")
        probe = cli.probe_split(self.train, s["probe"], s["probe"],
                                PROGRAM_SEED)
        check_selection(self.selection.mask, self.selection.fitness,
                        self.selection.trace, probe, PROGRAM_SEED,
                        self.bat_config.penalty)
        return quality, {"bayes_accuracy": bayes,
                         "n_selected": int(self.selection.mask.sum()),
                         **self.stage_s}


class ScoreFlows(Workload):
    name = "score-flows"
    setup_repeats = 2
    sizes = {"scale": 0.0625, "n_trees": 100, "loads": 3, "singles": 20,
             "batch": 1000}

    def setup(self):
        s = self.sizes
        split = {}
        for k, (name, pool, targets) in enumerate(
                (("train", TRAIN_POOL, TRAIN_TARGETS),
                 ("test", TEST_POOL, TEST_TARGETS)), start=1):
            csv = os.path.join(self.dir, f"{name}_pool.csv")
            corpora.write_kdd_csv(
                csv, corpora.kdd_pool(scaled(pool, s["scale"]),
                                      [self.seed, k]))
            split[name] = cli.cmd_ingest(
                csv, scaled(targets, s["scale"]), PROGRAM_SEED + k,
                os.path.join(self.dir, f"{name}.json"))
        self.test = split["test"]
        config = wrf.ForestConfig.baseline(
            n_trees=s["n_trees"], tree=wrf.TreeConfig(max_features="sqrt"))
        forest = wrf.fit(split["train"],
                         np.ones(self.test.n_features, dtype=np.uint8),
                         config, PROGRAM_SEED)
        self.expected = wrf.predict_batch(forest, self.test.X)
        self.model = os.path.join(self.dir, "model.json")
        wrf.save_forest(forest, self.model)
        rng = np.random.default_rng([self.seed, 4])
        self.singles = np.sort(rng.choice(self.test.n_samples,
                                          size=s["singles"], replace=False))
        self.load_s, self.one_s, self.batch_s = [], [], []

    @property
    def ops_per_round(self):
        s = self.sizes
        return (s["loads"] + s["singles"]
                + math.ceil(self.test.n_samples / s["batch"]))

    def run_round(self):
        s = self.sizes
        clock = time.perf_counter
        for _ in range(s["loads"]):
            t0 = clock()
            forest = wrf.load_forest(self.model)
            self.load_s.append(clock() - t0)
        X = self.test.X
        one = []
        for i in self.singles:
            t0 = clock()
            one.append(wrf.predict_batch(forest, X[i:i + 1])[0])
            self.one_s.append(clock() - t0)
        self.one = np.array(one)
        t0 = clock()
        self.batched = np.concatenate([
            wrf.predict_batch(forest, X[i:i + s["batch"]])
            for i in range(0, len(X), s["batch"])])
        self.batch_s.append(clock() - t0)

    def artifacts(self):
        return {"predictions": hashlib.sha256(
            self.one.tobytes() + self.batched.tobytes()).hexdigest()}

    def check(self):
        require(np.array_equal(self.one, self.expected[self.singles]),
                "one-flow predictions differ from the in-memory forest's")
        require(np.array_equal(self.batched, self.expected),
                "batch predictions differ from the in-memory forest's")
        report = metrics.evaluate(self.test.y, self.batched).to_doc()
        median = statistics.median
        return check_quality(self.test.y, self.batched, report), {
            "model_load_ms": 1e3 * median(self.load_s),
            "score_one_ms": 1e3 * median(self.one_s),
            "score_flows_per_s": self.test.n_samples / median(self.batch_s)}


WORKLOADS = {w.name: w for w in (RetrainKdd, RetrainDense, ScoreFlows)}
