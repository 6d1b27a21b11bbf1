import json
import os
import re
import string
from dataclasses import asdict

import numpy as np
import pytest

from flowgate import cli, dataset, wrf
from flowgate.bat import BatConfig
from flowgate.cli import main
from flowgate.dataset import load_dataset
from flowgate.metrics import KDD99_COST_MATRIX
from flowgate.wrf import ForestConfig, TreeConfig
from conftest import count_forks, make_kdd_line, set_cpus
from synth_kdd import write_synthetic_kdd

TRAIN_TARGETS = [400, 80, 700, 8, 60]
TEST_TARGETS = [250, 60, 400, 12, 50]

BAT_DOC = {"n_bats": 8, "n_subgroups": 2, "n_iterations": 6,
           "probe_train_size": 400, "probe_valid_size": 400}
RF_DOC = {"n_trees": 5}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train = write_synthetic_kdd(str(root / "train.csv"),
                                [500, 100, 800, 10, 80], seed=5)
    test = write_synthetic_kdd(str(root / "test.csv"),
                               [300, 80, 500, 15, 60], seed=6)
    return train, test


@pytest.fixture(scope="module")
def pipeline_run(corpus, tmp_path_factory):
    """One full small-scale pipeline run shared by several tests."""
    train, test = corpus
    out = tmp_path_factory.mktemp("run")
    cfg = {
        "train_input": train,
        "test_input": test,
        "train_targets": TRAIN_TARGETS,
        "test_targets": TEST_TARGETS,
        "seed": 3,
        "output_dir": str(out),
        "bat": BAT_DOC,
        "rf": RF_DOC,
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    return out, cfg


# ----------------------------------------------------------------- ingest

def test_ingest_hits_targets(corpus, tmp_path):
    train, _ = corpus
    out = tmp_path / "ds.json"
    rc = main(["ingest", "--input", train, "--targets", "400,80,700,8,60",
               "--seed", "0", "--output", str(out)])
    assert rc == 0
    ds = load_dataset(str(out))
    assert [int((ds.y == j).sum()) for j in range(5)] == TRAIN_TARGETS


def test_ingest_missing_input_is_config_error(tmp_path):
    rc = main(["ingest", "--input", str(tmp_path / "nope.csv"),
               "--targets", "1,1,1,1,1", "--seed", "0",
               "--output", str(tmp_path / "o.json")])
    assert rc == 2


def test_ingest_bad_targets_is_config_error(corpus, tmp_path):
    train, _ = corpus
    rc = main(["ingest", "--input", train, "--targets", "1,2,three",
               "--seed", "0", "--output", str(tmp_path / "o.json")])
    assert rc == 2


def test_ingest_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    rc = main(["ingest", "--input", str(bad), "--targets", "1,1,1,1,1",
               "--seed", "0", "--output", str(tmp_path / "o.json")])
    assert rc == 3


def test_ingest_oversized_targets_is_data_error(corpus, tmp_path):
    train, _ = corpus
    rc = main(["ingest", "--input", train, "--targets",
               "999999,1,1,1,1", "--seed", "0",
               "--output", str(tmp_path / "o.json")])
    assert rc == 3


@pytest.mark.parametrize("command", ["select-features", "train"])
def test_zero_flow_dataset_is_data_error(pipeline_run, tmp_path, capsys,
                                         command):
    out, cfg = pipeline_run
    empty = tmp_path / "empty.json"
    assert main(["ingest", "--input", cfg["test_input"], "--targets",
                 "0,0,0,0,0", "--seed", "0", "--output", str(empty)]) == 0
    assert load_dataset(str(empty)).X.shape == (0, 41)
    capsys.readouterr()
    args = ["--data", str(empty), "--seed", "0",
            "--out", str(tmp_path / "out.json")]
    if command == "train":
        args += ["--mask", str(out / "mask.json")]
    assert main([command, *args]) == 3
    assert capsys.readouterr().err == (
        f"flowgate: ingested dataset {empty} holds no flows\n")


@pytest.mark.parametrize("n_features", [1, 0])
def test_select_features_on_fewer_than_two_features_is_data_error(
        pipeline_run, tmp_path, capsys, n_features):
    out, _ = pipeline_run
    doc = json.loads((out / "train.json").read_text())
    doc["features"] = [row[:n_features] for row in doc["features"]]
    doc["feature_names"] = doc["feature_names"][:n_features]
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(doc))
    assert load_dataset(str(narrow)).n_features == n_features
    rc = main(["select-features", "--data", str(narrow), "--seed", "0",
               "--out", str(tmp_path / "mask.json")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "flowgate: mask dimension must be >= 2\n")
    assert not (tmp_path / "mask.json").exists()


# -------------------------------------------------------- feature selection

def test_select_features_writes_mask(pipeline_run):
    out, _ = pipeline_run
    doc = json.loads((out / "mask.json").read_text())
    assert doc["format"] == "flowgate-mask-v1"
    assert len(doc["bits"]) == 41
    assert doc["n_selected"] == doc["bits"].count("1") >= 1
    assert len(doc["selected_features"]) == doc["n_selected"]
    trace = doc["trace"]
    assert len(trace) == BAT_DOC["n_iterations"] + 1
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_select_features_unknown_key_is_config_error(pipeline_run, tmp_path):
    out, _ = pipeline_run
    cfg = tmp_path / "bat.json"
    cfg.write_text(json.dumps({"n_batz": 4}))
    rc = main(["select-features", "--data", str(out / "train.json"),
               "--config", str(cfg), "--seed", "0",
               "--out", str(tmp_path / "mask.json")])
    assert rc == 2


def test_select_features_invalid_value_is_config_error(pipeline_run,
                                                       tmp_path):
    out, _ = pipeline_run
    cfg = tmp_path / "bat.json"
    cfg.write_text(json.dumps({"n_bats": 2, "n_subgroups": 3}))
    rc = main(["select-features", "--data", str(out / "train.json"),
               "--config", str(cfg), "--seed", "0",
               "--out", str(tmp_path / "mask.json")])
    assert rc == 2


# ------------------------------------------------------- train and classify

def _select_features(out, tmp_path):
    bat = tmp_path / "bat.json"
    bat.write_text(json.dumps(BAT_DOC))
    return main(["select-features", "--data", str(out / "train.json"),
                 "--config", str(bat), "--seed", "0",
                 "--out", str(tmp_path / "mask.json")])


def test_select_features_worker_without_result_is_data_error(
        pipeline_run, tmp_path, two_cpus, monkeypatch, capsys):
    out, _ = pipeline_run
    parent, probe = os.getpid(), cli.wrapper_fitness

    def dies_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return probe(*args, **kwargs)

    monkeypatch.setattr(cli, "wrapper_fitness", dies_in_child)
    assert _select_features(out, tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("flowgate: worker process 1 of 2 ended without "
                          "a result") and err.count("\n") == 1, err


def test_select_features_on_one_cpu_never_forks(pipeline_run, tmp_path,
                                                one_cpu, monkeypatch):
    out, _ = pipeline_run

    def fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", fork)
    assert _select_features(out, tmp_path) == 0


def test_select_features_writes_the_same_mask_on_one_cpu_and_two(
        pipeline_run, tmp_path, monkeypatch):
    # a forked child scores its masks on a copy of the parent's split memo,
    # and what it adds there never comes back
    out, _ = pipeline_run
    masks = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert _select_features(out, tmp_path) == 0
        assert bool(forks) == (cpus == 2)
        masks.append((tmp_path / "mask.json").read_bytes())
    assert masks[0] == masks[1]


def test_classical_tree_error_in_a_child_is_data_error(
        pipeline_run, tmp_path, two_cpus, monkeypatch, capsys):
    out, _ = pipeline_run
    parent, grow = os.getpid(), wrf.train_tree

    def fails_in_child(X, y, *args):
        if os.getpid() != parent:
            raise ValueError("no tree")
        return grow(X, y, *args)

    monkeypatch.setattr(wrf, "train_tree", fails_in_child)
    cfg = tmp_path / "rf.json"
    cfg.write_text(json.dumps({"n_trees": 4, "baseline": True}))
    rc = main(["train", "--data", str(out / "train.json"),
               "--mask", str(out / "mask.json"), "--config", str(cfg),
               "--seed", "0", "--out", str(tmp_path / "model.json")])
    assert rc == 3
    assert capsys.readouterr().err == "flowgate: tree 1: no tree\n"
    assert not (tmp_path / "model.json").exists()


def test_train_rejects_foreign_mask_file(pipeline_run, tmp_path):
    out, _ = pipeline_run
    fake = tmp_path / "mask.json"
    fake.write_text(json.dumps({"format": "something-else", "bits": "1"}))
    cfg = tmp_path / "rf.json"
    cfg.write_text(json.dumps(RF_DOC))
    rc = main(["train", "--data", str(out / "train.json"),
               "--mask", str(fake), "--config", str(cfg),
               "--seed", "0", "--out", str(tmp_path / "model.json")])
    assert rc == 3


@pytest.mark.parametrize("marked", ["config", "data"])
def test_train_reads_json_with_a_byte_order_mark(pipeline_run, tmp_path,
                                                 marked):
    # editors that save "UTF-8 with BOM" begin the file with U+FEFF
    out, _ = pipeline_run
    (tmp_path / "rf.json").write_text(json.dumps(RF_DOC))
    files = {"data": out / "train.json", "config": tmp_path / "rf.json"}

    def train(model):
        return main(["train", "--data", str(files["data"]),
                     "--mask", str(out / "mask.json"),
                     "--config", str(files["config"]), "--seed", "0",
                     "--out", str(tmp_path / model)])

    assert train("plain.json") == 0
    with_mark = tmp_path / f"marked-{files[marked].name}"
    with_mark.write_bytes(b"\xef\xbb\xbf" + files[marked].read_bytes())
    files[marked] = with_mark
    assert train("marked.json") == 0
    assert (tmp_path / "plain.json").read_bytes() == \
        (tmp_path / "marked.json").read_bytes()


def test_evaluate_reads_a_model_with_a_byte_order_mark(pipeline_run,
                                                       tmp_path):
    out, _ = pipeline_run
    marked = tmp_path / "marked-model.json"
    marked.write_bytes(b"\xef\xbb\xbf" + (out / "model.json").read_bytes())
    for model, report in ((out / "model.json", "plain.json"),
                          (marked, "marked.json")):
        assert main(["evaluate", "--model", str(model),
                     "--data", str(out / "test.json"),
                     "--out", str(tmp_path / report)]) == 0
    assert (tmp_path / "plain.json").read_bytes() == \
        (tmp_path / "marked.json").read_bytes()


def _trees(doc):
    """A model's trees, each a dict of its per-node arrays: label, and
    feature and threshold with None at a leaf."""
    t = doc["trees"]
    ends = t["root"][1:] + [len(t["label"])]
    splits = iter(zip(t["feature"], t["threshold"]))
    trees = []
    for a, b in zip(t["root"], ends):
        pairs = [next(splits) if v == -1 else (None, None)
                 for v in t["label"][a:b]]
        trees.append({"label": t["label"][a:b],
                      "feature": [f for f, _ in pairs],
                      "threshold": [h for _, h in pairs]})
    return trees


def _set_trees(doc, trees):
    """A model's trees replaced by trees as _trees gives them."""
    doc["trees"] = {k: [v for t in trees for v in t[k] if v is not None]
                    for k in ("label", "feature", "threshold")}
    doc["trees"]["root"] = [sum(len(t["label"]) for t in trees[:m])
                            for m in range(len(trees))]


def _first_leaf(tree):
    return next(i for i, v in enumerate(tree["label"]) if v != -1)


def _edit_tree(edit, tree_index=0):
    """A model payload: edit(tree, doc) on one tree as _trees gives it."""
    def payload(doc):
        trees = _trees(doc)
        assert trees[tree_index]["label"][0] == -1, "the root must be a split"
        edit(trees[tree_index], doc)
        _set_trees(doc, trees)
    return payload


def _set_node(key, at, value, tree_index=0):
    """A model payload: value into per-node array key of the given tree at
    node at, which may be a function of the tree."""
    def edit(tree, doc):
        tree[key][at(tree) if callable(at) else at] = value
    return _edit_tree(edit, tree_index)


def _unmasked_split(doc, tree_index=0):
    feature = doc["mask"].index(0) if 0 in doc["mask"] else 41
    _set_node("feature", 0, feature, tree_index)(doc)


def _three_trees(edit, n_trees=3):
    """A model payload: the model cut to its first three trees, its config
    saying n_trees, then edit(doc)."""
    def payload(doc):
        _set_trees(doc, _trees(doc)[:3])
        doc["accuracy_matrix"] = [row[:3] for row in doc["accuracy_matrix"]]
        doc["config"]["n_trees"] = n_trees
        edit(doc)
    return payload


def _add_leaf(tree, doc):
    # the tree closes at its old last node, before the new one
    tree["label"].append(0)
    tree["feature"].append(None)
    tree["threshold"].append(None)


def _end_in_a_split(tree, doc):
    # the running sum never reaches -1: the last split has no children
    tree["label"][-1] = -1
    tree["feature"][-1] = doc["mask"].index(1)
    tree["threshold"][-1] = 0.5


def _close_in_next_tree(doc):
    # tree 0, a split and one leaf, closes only with tree 1's root, a leaf:
    # over the stacked nodes the running sum still closes once per tree
    split = doc["mask"].index(1)
    _set_trees(doc, [
        {"label": [-1, 0], "feature": [split, None], "threshold": [0.5, None]},
        {"label": [1], "feature": [None], "threshold": [None]}]
        + _trees(doc)[2:])


def _relabel(value, code):
    """A dataset payload: the first flow's label set to value, which numpy
    reads as code, and the class counts made to match."""
    def payload(doc):
        counts = doc["class_counts"] + [0] * 5
        counts[doc["labels"][0]] -= 1
        counts[code] += 1
        doc["labels"][0] = value
        doc["class_counts"] = counts[:max(5, code + 1)]
    return payload


# a payload: the row's command run on a valid input, but with --seed -1
NEGATIVE_SEED = object()


def _csv_field(col, value):
    """A flow-file payload: field col of the second line set to value."""
    def payload(lines):
        fields = lines[1].split(",")
        fields[col] = value
        lines[1] = ",".join(fields)
    return payload


DEEP_JSON = "[" * 200000 + "]" * 200000


BAD_BAT_DOCS = [
    ("string-n-bats", {"n_bats": "8"}),
    ("fractional-n-bats", {"n_bats": 8.5}),
    ("string-w-max", {"w_max": "0.9"}),
    ("string-probe-size", {"probe_train_size": "x"}),
    ("string-penalty", {"penalty": "x"}),
    ("string-switch", {"use_mutation": "no"}),
    ("probe-train-size-negative", {"probe_train_size": -5}),
    ("probe-valid-size-zero", {"probe_valid_size": 0}),
    # the paper's schedule and loudness constants are no config keys
    *[(f"removed-{key.replace('_', '-')}", {key: value})
      for key, value in [("w_max", 0.9), ("w_min", 0.4),
                         ("c_max", 1.5), ("c_min", 0.5),
                         ("f_shrink_max", 1.0), ("f_shrink_min", 0.2),
                         ("freq_min", 0.0), ("freq_max", 50),
                         ("alpha", -3), ("gamma", -1000),
                         ("loudness_init", -1), ("pulse_rate_init", 7)]],
]


def _first_encoder(value):
    """A dataset payload: value as the first symbol's code in the first
    symbolic column's encoder."""
    def payload(doc):
        codes = next(iter(doc["encoders"].values()))
        codes[next(iter(codes))] = value
    return payload


# a dataset's feature names and encoders, as select-features and evaluate
# load it
BAD_DATASET_HEADERS = [
    ("feature-names-string",
     lambda d: d.update(feature_names=string.ascii_letters[:41])),
    ("feature-name-number", lambda d: d["feature_names"].__setitem__(0, 0)),
    ("encoders-number", lambda d: d.update(encoders=7)),
    ("encoder-array", lambda d: d["encoders"].update(service=[0, 1])),
    ("encoder-string-code", _first_encoder("0")),
    ("encoder-boolean-code", _first_encoder(True)),
    ("encoder-float-code", _first_encoder(0.5)),
]


BAD_RF_DOCS = [
    ("unknown-key", {"n_tree": 3}),
    ("removed-key", {"invert_majority_beta": False}),
    ("max-features-log2", {"max_features": "log2"}),
    ("zero-trees", {"n_trees": 0}),
    ("zero-depth", {"max_depth": 0}),
    ("fractional-leaf", {"min_samples_leaf": 1.5}),
    ("string-baseline", {"baseline": "yes"}),
    # Stage 2 is the weighted forest or, with "baseline": true, the
    # classical one: class_weights, use_weight_updates and
    # use_weighted_vote are unknown keys, in any shape
    ("two-class-weights", {"class_weights": [0.5, 0.5]}),
    ("negative-class-weight", {"class_weights": [0.3, -0.1, 0.4, 0.2, 0.2]}),
    ("zero-sum-class-weights", {"class_weights": [0, 0, 0, 0, 0]}),
    ("baseline-with-weighting-key",
     {"baseline": True, "use_weight_updates": False}),
    ("string-weight-updates", {"use_weight_updates": "no"}),
    ("integer-vote-switch", {"use_weighted_vote": 0}),
    ("string-class-weights", {"class_weights": "uniform"}),
    ("boolean-class-weight", {"class_weights": [1, 1, True, 1, 1]}),
    ("removed-class-weights", {"class_weights": [0.3, 0.15, 0.35, 0.05,
                                                 0.15]}),
    ("removed-class-weights-default", {"class_weights": "default"}),
    ("removed-use-weight-updates", {"use_weight_updates": True}),
    ("removed-use-weighted-vote", {"use_weighted_vote": True}),
    # the model file's switch is no document key: "baseline" is its one
    # spelling
    ("removed-weighted", {"weighted": False}),
]


@pytest.mark.parametrize("kind, payload, code", [
    *[pytest.param("rf", doc, 2, id=name) for name, doc in BAD_RF_DOCS],
    *[pytest.param("pipeline-rf", doc, 2, id=f"pipeline-rf-{name}")
      for name, doc in BAD_RF_DOCS],
    pytest.param("rf", {"n_trees": 2, "max_depth": 5, "min_samples_leaf": 3,
                        "max_features": "sqrt", "baseline": True}, 0,
                 id="valid-custom"),
    *[pytest.param("bat", doc, 2, id=f"bat-{name}")
      for name, doc in BAD_BAT_DOCS],
    *[pytest.param("pipeline-bat", doc, 2, id=f"pipeline-bat-{name}")
      for name, doc in BAD_BAT_DOCS],
    pytest.param("pipeline", {"seed": "abc"}, 2, id="pipeline-string-seed"),
    pytest.param("pipeline", {"seed": None}, 2, id="pipeline-null-seed"),
    pytest.param("pipeline", {"seed": 1.7}, 2, id="pipeline-fractional-seed"),
    pytest.param("pipeline", {"seed": True}, 2, id="pipeline-boolean-seed"),
    pytest.param("pipeline", {"output_dir": 5}, 2,
                 id="pipeline-integer-output-dir"),
    pytest.param("pipeline", {"train_targets": "1,2"}, 2,
                 id="pipeline-string-targets"),
    pytest.param("pipeline", {"test_targets": [1, 2, "3", 4, 5]}, 2,
                 id="pipeline-string-target"),
    pytest.param("pipeline", {"rf": []}, 2, id="pipeline-array-rf"),
    pytest.param("pipeline", {"extra": 1}, 2, id="pipeline-unknown-key"),
    pytest.param("pipeline", {"train_targets": [1, 2]}, 2,
                 id="pipeline-two-targets"),
    pytest.param("pipeline", {"test_targets": [5, 5, -1, 5, 5]}, 2,
                 id="pipeline-negative-target"),
    pytest.param("pipeline", {"train_targets": [0] * 5}, 3,
                 id="pipeline-empty-train-split"),
    pytest.param("pipeline", {"test_targets": [0] * 5}, 3,
                 id="pipeline-empty-test-split"),
    pytest.param("report", lambda d: {k: v for k, v in d.items()
                                      if k != "cost"}, 3,
                 id="report-missing-metric"),
    pytest.param("report", lambda d: [d], 3, id="report-array"),
    pytest.param("report", lambda d: "{", 3, id="report-not-json"),
    pytest.param("report", lambda d: dict(d, accuracy="0.9"), 3,
                 id="report-string-metric"),
    pytest.param("mask", "2" + "1" * 40, 3, id="mask-bit-2"),
    pytest.param("mask", None, 3, id="mask-array"),
    pytest.param("mask", b"{", 3, id="mask-not-json"),
    pytest.param("mask", b"\xff{", 3, id="mask-not-utf8"),
    pytest.param("rf", b"\xff{", 2, id="rf-not-utf8"),
    pytest.param("model", None, 3, id="truncated-model"),
    pytest.param("model", lambda d: d["config"].update(weighted="false"), 3,
                 id="model-string-vote-switch"),
    pytest.param("model", lambda d: d["config"].update(n_trees="x"), 3,
                 id="model-string-n-trees"),
    pytest.param("model", lambda d: d.update(
        accuracy_matrix=d["accuracy_matrix"][:4]), 3,
        id="model-accuracy-matrix-shape"),
    pytest.param("model", _set_node("label", _first_leaf, 7), 3,
                 id="model-leaf-label-7"),
    pytest.param("model", _set_node("label", 0, 3), 3,
                 id="model-split-label-3"),
    pytest.param("model", _set_node("label", _first_leaf, 1.0), 3,
                 id="model-float-label"),
    pytest.param("model", _set_node("label", _first_leaf, -2), 3,
                 id="model-leaf-label-minus-2"),
    pytest.param("model", _unmasked_split, 3, id="model-unmasked-feature"),
    pytest.param("model", lambda d: d.update(format="flowgate-model-v1"), 3,
                 id="model-v1-format"),
    pytest.param("model", lambda d: d.update(format="flowgate-model-v2"), 3,
                 id="model-v2-format"),
    pytest.param("model", lambda d: d.update(format="flowgate-model-v3"), 3,
                 id="model-v3-format"),
    pytest.param("model", lambda d: d.update(format="flowgate-model-v4"), 3,
                 id="model-v4-format"),
    pytest.param("model", _edit_tree(_add_leaf), 3,
                 id="model-tree-closes-before-its-last-node"),
    pytest.param("model", _edit_tree(_end_in_a_split), 3,
                 id="model-tree-ends-in-a-split"),
    pytest.param("model", lambda d: d["trees"]["threshold"].pop(), 3,
                 id="model-ragged-tree"),
    pytest.param("model", lambda d: d["trees"]["root"].__setitem__(1, 0), 3,
                 id="model-empty-tree"),
    pytest.param("model", lambda d: [d["trees"][k].pop()
                                     for k in ("feature", "threshold")], 3,
                 id="model-fewer-features-than-splits"),
    pytest.param("model", _set_node("label", _first_leaf, True), 3,
                 id="model-boolean-label"),
    pytest.param("model", lambda d: d["mask"].__setitem__(0, 256), 3,
                 id="model-mask-256"),
    pytest.param("model", lambda d: d["mask"].__setitem__(0, "1"), 3,
                 id="model-string-mask-bit"),
    pytest.param("model", lambda d: d["mask"].__setitem__(0, 2), 3,
                 id="model-mask-bit-2"),
    pytest.param("model", lambda d: d["mask"].__setitem__(0, True), 3,
                 id="model-boolean-mask-bit"),
    pytest.param("model", lambda d: d.update(
        trees={k: [] for k in d["trees"]}, accuracy_matrix=[[]] * 5), 3,
        id="model-no-trees"),
    pytest.param("model", lambda d: d.update(
        trees={}, accuracy_matrix=[[]] * 5), 3, id="model-trees-object"),
    pytest.param("model", lambda d: d.update(trees=_trees(d)), 3,
                 id="model-tree-list"),
    pytest.param("model", lambda d: d["accuracy_matrix"][0].__setitem__(
        0, "0.93"), 3, id="model-string-accuracy"),
    pytest.param("model", lambda d: d["accuracy_matrix"][0].__setitem__(
        0, True), 3, id="model-boolean-accuracy"),
    pytest.param("model", lambda d: d["accuracy_matrix"][0].__setitem__(
        0, float("nan")), 3, id="model-nan-accuracy"),
    pytest.param("model", lambda d: d.update(accuracy_matrix=[
        [-1] * len(d["trees"]["root"])] * 5), 3,
        id="model-negative-accuracy"),
    pytest.param("model", _set_node("threshold", 0, float("nan")), 3,
                 id="model-nan-threshold"),
    pytest.param("model", _set_node("feature", 0, 2 ** 64), 3,
                 id="model-int-beyond-64-bits"),
    pytest.param("model", _three_trees(_edit_tree(_add_leaf, -1)), 3,
                 id="model-last-tree-closes-before-its-last-node"),
    pytest.param("model", _three_trees(_close_in_next_tree), 3,
                 id="model-first-tree-closes-in-the-next"),
    pytest.param("model", _three_trees(lambda d: _unmasked_split(d, 1)), 3,
                 id="model-unmasked-feature-in-middle-tree"),
    pytest.param("model", _three_trees(lambda d: None), 0,
                 id="model-three-trees"),
    pytest.param("model", _three_trees(lambda d: None, RF_DOC["n_trees"]), 3,
                 id="model-n-trees-mismatch"),
    pytest.param("dataset", _relabel(5, 5), 3, id="dataset-label-5"),
    pytest.param("dataset", _relabel(0.5, 0), 3, id="dataset-float-label"),
    pytest.param("dataset", _relabel("2", 2), 3, id="dataset-string-label"),
    pytest.param("dataset", _relabel(True, 1), 3, id="dataset-boolean-label"),
    pytest.param("dataset", lambda d: d["features"][0].__setitem__(0, "7"), 3,
                 id="dataset-string-feature"),
    pytest.param("dataset", lambda d: d["features"][0].__setitem__(0, True),
                 3, id="dataset-boolean-feature"),
    *[pytest.param(f"dataset-{command}", doc, 3, id=f"{command}-{name}")
      for command in ("select-features", "evaluate")
      for name, doc in BAD_DATASET_HEADERS],
    pytest.param("cost", "nan", 3, id="cost-nan-entry"),
    pytest.param("cost", "inf", 3, id="cost-inf-entry"),
    pytest.param("csv", NEGATIVE_SEED, 2, id="ingest-negative-seed"),
    pytest.param("bat", NEGATIVE_SEED, 2, id="select-features-negative-seed"),
    pytest.param("rf", NEGATIVE_SEED, 2, id="train-negative-seed"),
    pytest.param("pipeline", {"seed": -1}, 2, id="pipeline-negative-seed"),
    pytest.param("csv", lambda lines: None, 0, id="csv-well-formed"),
    pytest.param("csv", _csv_field(0, "abc"), 3, id="csv-non-numeric-field"),
    pytest.param("csv", _csv_field(4, "nan"), 3, id="csv-nan-field"),
    pytest.param("csv", _csv_field(4, "1_0"), 3,
                 id="csv-underscore-digits"),
    pytest.param("csv", _csv_field(4, "\u0661"), 3, id="csv-non-ascii-digit"),
    pytest.param("csv", lambda lines: lines.__setitem__(
        1, lines[1].split(",", 1)[1]), 3, id="csv-41-fields"),
    pytest.param("csv", _csv_field(-1, ""), 3, id="csv-empty-label"),
    pytest.param("csv", _csv_field(-1, "flubber."), 3,
                 id="csv-unknown-label"),
    pytest.param("csv", b"\xff", 3, id="csv-not-utf8"),
    pytest.param("csv", lambda lines: lines.clear(), 3, id="csv-no-flows"),
    pytest.param("model", DEEP_JSON, 3, id="deep-json-model"),
    pytest.param("rf", DEEP_JSON, 2, id="deep-json-rf-config"),
])
def test_exit_code_contract(pipeline_run, tmp_path, capsys, kind, payload,
                            code):
    out, cfg = pipeline_run
    seed = "0"
    if payload is NEGATIVE_SEED:
        payload, seed = {"csv": lambda lines: None, "bat": {},
                         "rf": RF_DOC}[kind], "-1"
    rf, mask = tmp_path / "rf.json", out / "mask.json"
    rf_doc = payload if kind == "rf" else RF_DOC
    if isinstance(rf_doc, bytes):
        rf.write_bytes(rf_doc)
    else:
        rf.write_text(rf_doc if isinstance(rf_doc, str)
                      else json.dumps(rf_doc))
    if kind == "mask":
        mask = tmp_path / "mask.json"
        if isinstance(payload, bytes):
            mask.write_bytes(payload)
        else:
            mask.write_text(json.dumps([1] if payload is None else {
                "format": "flowgate-mask-v1", "bits": payload}))
    if kind == "csv":
        flows = tmp_path / "flows.csv"
        with open(cfg["train_input"], encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:5]
        if isinstance(payload, bytes):
            flows.write_bytes(payload + "\n".join(lines).encode())
        else:
            payload(lines)
            flows.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["ingest", "--input", str(flows), "--targets", "0,0,0,0,0",
                "--seed", seed, "--output", str(tmp_path / "flows.json")]
    elif kind == "model":
        model = tmp_path / "model.json"
        if payload is None:
            model.write_bytes((out / "model.json").read_bytes()[:100])
        elif isinstance(payload, str):
            model.write_text(payload)
        else:
            doc = json.loads((out / "model.json").read_text())
            payload(doc)
            model.write_text(json.dumps(doc))
        args = ["evaluate", "--model", str(model),
                "--data", str(out / "test.json"),
                "--out", str(tmp_path / "report.json")]
    elif kind == "bat":
        bat = tmp_path / "bat.json"
        bat.write_text(json.dumps(payload))
        args = ["select-features", "--data", str(out / "train.json"),
                "--config", str(bat), "--seed", seed,
                "--out", str(tmp_path / "mask.json")]
    elif kind.startswith("dataset"):
        doc = json.loads((out / "test.json").read_text())
        payload(doc)
        data = tmp_path / "test.json"
        data.write_text(json.dumps(doc))
        command = kind[len("dataset-"):] or "classify"
        args = {"classify": ["--model", str(out / "model.json"),
                             "--out", str(tmp_path / "preds.csv")],
                "select-features": ["--seed", seed,
                                    "--out", str(tmp_path / "mask.json")],
                "evaluate": ["--model", str(out / "model.json"),
                             "--out", str(tmp_path / "report.json")],
                }[command] + ["--data", str(data)]
        args.insert(0, command)
    elif kind == "cost":
        cost = [[str(v) for v in row] for row in KDD99_COST_MATRIX.tolist()]
        cost[0][1] = payload
        (tmp_path / "cost.csv").write_text(
            "".join(",".join(row) + "\n" for row in cost))
        args = ["evaluate", "--model", str(out / "model.json"),
                "--data", str(out / "test.json"),
                "--cost", str(tmp_path / "cost.csv"),
                "--out", str(tmp_path / "report.json")]
    elif kind == "report":
        doc = json.loads((out / "report.json").read_text())
        (tmp_path / "run").mkdir()
        body = payload(doc)
        (tmp_path / "run" / "report.json").write_text(
            body if isinstance(body, str) else json.dumps(body))
        args = ["compare", str(out), str(tmp_path / "run")]
    elif kind.startswith("pipeline"):
        doc = dict(cfg, output_dir=str(tmp_path / "run"))
        block = kind[len("pipeline-"):]  # "bat", "rf", or none
        doc.update({block: payload} if block else payload)
        (tmp_path / "pipeline.json").write_text(json.dumps(doc))
        args = ["pipeline", "--config", str(tmp_path / "pipeline.json")]
    else:
        args = ["train", "--data", str(out / "train.json"),
                "--mask", str(mask), "--config", str(rf), "--seed", seed,
                "--out", str(tmp_path / "model.json")]
    assert main(args) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("flowgate: ") and err.count("\n") == 1, err
    if kind.startswith("pipeline") and code == 2:
        # a config error stops the pipeline before it makes output_dir
        assert not (tmp_path / "run").exists()


def test_classify_writes_named_classes(pipeline_run, tmp_path):
    out, _ = pipeline_run
    preds_path = tmp_path / "preds.csv"
    rc = main(["classify", "--model", str(out / "model.json"),
               "--data", str(out / "test.json"), "--out", str(preds_path)])
    assert rc == 0
    lines = preds_path.read_text().splitlines()
    assert lines[0] == "index,true_class,predicted_class"
    assert len(lines) == 1 + sum(TEST_TARGETS)
    names = {"NORMAL", "PROBE", "DOS", "U2R", "R2L"}
    for line in lines[1:5]:
        idx, true, pred = line.split(",")
        assert true in names and pred in names


def test_evaluate_report_contents(pipeline_run):
    out, _ = pipeline_run
    rep = json.loads((out / "report.json").read_text())
    assert 0.0 <= rep["accuracy"] <= 1.0
    assert set(rep["per_class"]) == {"NORMAL", "PROBE", "DOS", "U2R", "R2L"}
    assert rep["n_samples"] == sum(TEST_TARGETS)
    assert len(rep["dataset_sha256"]) == 64
    cm = np.array(rep["confusion"])
    assert cm.sum() == sum(TEST_TARGETS)


# --------------------------------------------------------------- pipeline

def test_pipeline_manifest(pipeline_run):
    out, cfg = pipeline_run
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert man["variant"] == "improved"
    assert set(man["stages"]) == {"ingest", "select-features", "train",
                                  "evaluate"}
    for stage in man["stages"].values():
        assert stage["status"] == "ok"
        assert stage["seconds"] >= 0


def test_pipeline_is_deterministic(pipeline_run, corpus, tmp_path):
    out, cfg = pipeline_run
    rerun_dir = tmp_path / "rerun"
    cfg2 = dict(cfg, output_dir=str(rerun_dir))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg2))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    for name in ("mask.json", "model.json", "report.json"):
        assert (rerun_dir / name).read_bytes() == (out / name).read_bytes()


def test_pipeline_bytes_do_not_depend_on_worker_count(pipeline_run,
                                                     tmp_path, monkeypatch):
    _, cfg = pipeline_run
    runs = {}
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        (tmp_path / "config.json").write_text(json.dumps(
            dict(cfg, output_dir=str(out))))
        assert main(["pipeline", "--config", str(tmp_path / "config.json")]) \
            == 0
        runs[cpus] = [(out / f"{name}.json").read_bytes()
                           for name in ("mask", "model", "report")]
    assert runs[1] == runs[2]


@pytest.mark.parametrize("split", ["train", "test"])
def test_pipeline_names_an_empty_split(pipeline_run, tmp_path, capsys,
                                       split):
    _, cfg = pipeline_run
    out = tmp_path / "run"
    (tmp_path / "config.json").write_text(json.dumps(dict(
        cfg, output_dir=str(out), **{f"{split}_targets": [0] * 5})))
    assert main(["pipeline", "--config", str(tmp_path / "config.json")]) == 3
    assert capsys.readouterr().err == (
        f"flowgate: ingested dataset {out / split}.json holds no flows\n")
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "failed at ingest"
    assert not (out / "mask.json").exists()


@pytest.mark.parametrize("targets", [[1, 0, 0, 0, 0], [1] * 5],
                         ids=["one-flow", "one-flow-per-class"])
def test_empty_probe_validation_split_is_data_error(pipeline_run, tmp_path,
                                                    capsys, targets):
    """The probe puts a class's only flow in its training split: with no
    class of two flows nothing is left to validate on, which exits 3
    before any fitness is averaged over no rows."""
    _, cfg = pipeline_run
    message = (f"flowgate: the probe's validation split is empty: no class "
               f"has two of the {sum(targets)} flows\n")
    data, mask = tmp_path / "train.json", tmp_path / "mask.json"
    assert main(["ingest", "--input", cfg["train_input"],
                 "--targets", ",".join(map(str, targets)), "--seed", "0",
                 "--output", str(data)]) == 0
    assert main(["select-features", "--data", str(data), "--seed", "0",
                 "--out", str(mask)]) == 3
    assert capsys.readouterr().err == message
    assert not mask.exists()
    out = tmp_path / "run"
    (tmp_path / "config.json").write_text(json.dumps(dict(
        cfg, output_dir=str(out), train_targets=targets)))
    assert main(["pipeline", "--config", str(tmp_path / "config.json")]) == 3
    assert capsys.readouterr().err == message
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "failed at select-features"
    assert not (out / "mask.json").exists()


def test_pipeline_baseline_variant(corpus, tmp_path):
    train, test = corpus
    cfg = {
        "train_input": train, "test_input": test,
        "train_targets": TRAIN_TARGETS, "test_targets": TEST_TARGETS,
        "seed": 3, "output_dir": str(tmp_path / "base"),
        "bat": dict(BAT_DOC, n_subgroups=1, use_mutation=False,
                    use_self_learning=False),
        "rf": dict(RF_DOC, baseline=True),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    man = json.loads((tmp_path / "base" / "manifest.json").read_text())
    assert man["variant"] == "baseline"


def test_pipeline_custom_variant_label(corpus, tmp_path):
    train, test = corpus
    cfg = {
        "train_input": train, "test_input": test,
        "train_targets": TRAIN_TARGETS, "test_targets": TEST_TARGETS,
        "seed": 3, "output_dir": str(tmp_path / "mix"),
        "bat": dict(BAT_DOC, use_mutation=False),
        "rf": RF_DOC,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    man = json.loads((tmp_path / "mix" / "manifest.json").read_text())
    assert man["variant"] == "custom"


def test_pipeline_hands_datasets_over_in_memory(pipeline_run, monkeypatch,
                                               tmp_path):
    """The pipeline reads back none of the datasets it writes, and its
    artifacts are those of the four stages run as separate commands."""
    out, cfg = pipeline_run
    calls = []

    def counted(path):
        calls.append(path)
        return load_dataset(path)

    monkeypatch.setattr(cli, "load_dataset", counted)
    monkeypatch.setattr(dataset, "load_dataset", counted)
    piped = tmp_path / "piped"
    (tmp_path / "pipeline.json").write_text(
        json.dumps(dict(cfg, output_dir=str(piped))))
    assert main(["pipeline", "--config", str(tmp_path / "pipeline.json")]) \
        == 0
    assert calls == []

    staged = tmp_path / "staged"
    staged.mkdir()
    (tmp_path / "bat.json").write_text(json.dumps(cfg["bat"]))
    (tmp_path / "rf.json").write_text(json.dumps(cfg["rf"]))
    seed = cfg["seed"]
    for split, targets, split_seed in (
            ("train", cfg["train_targets"], seed),
            ("test", cfg["test_targets"], seed + 1)):
        assert main(["ingest", "--input", cfg[f"{split}_input"],
                     "--targets", ",".join(map(str, targets)),
                     "--seed", str(split_seed),
                     "--output", str(staged / f"{split}.json")]) == 0
    assert main(["select-features", "--data", str(staged / "train.json"),
                 "--config", str(tmp_path / "bat.json"), "--seed", str(seed),
                 "--out", str(staged / "mask.json")]) == 0
    assert main(["train", "--data", str(staged / "train.json"),
                 "--mask", str(staged / "mask.json"),
                 "--config", str(tmp_path / "rf.json"), "--seed", str(seed),
                 "--out", str(staged / "model.json")]) == 0
    assert main(["evaluate", "--model", str(staged / "model.json"),
                 "--data", str(staged / "test.json"),
                 "--out", str(staged / "report.json")]) == 0
    assert len(calls) == 3  # the counter sees the stages' own loads
    for name in ("train.json", "test.json", "mask.json", "model.json"):
        assert (piped / name).read_bytes() == (staged / name).read_bytes(), \
            name
    # the pipeline's report also names its config
    report = json.loads((piped / "report.json").read_text())
    assert len(report.pop("config_hash")) == 64
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == \
        (staged / "report.json").read_text()


def test_pipeline_encodes_test_split_with_training_encoders(tmp_path):
    """A service seen only in the test split takes the reserved code, and
    a shared one keeps its training code, whatever else the test split
    holds."""
    labels = ["normal", "satan", "smurf", "buffer_overflow", "guess_passwd"]
    rng = np.random.default_rng(12)
    services = {"train": ["http", "smtp"], "test": ["ftp", "http"]}
    raw = {}
    for split in ("train", "test"):
        lines = []
        for k in range(60):
            fields = make_kdd_line(rng, labels[k % 5]).split(",")
            fields[2] = services[split][k % 2]
            lines.append(fields)
        raw[split] = [f[2] for f in lines]
        (tmp_path / f"{split}.csv").write_text(
            "\n".join(",".join(f) for f in lines) + "\n")
    cfg = {"train_input": str(tmp_path / "train.csv"),
           "test_input": str(tmp_path / "test.csv"),
           # every row kept: the splits keep the files' row order
           "train_targets": [12] * 5, "test_targets": [12] * 5,
           "seed": 0, "output_dir": str(tmp_path / "run"),
           "bat": {"n_bats": 4, "n_subgroups": 2, "n_iterations": 2,
                   "probe_train_size": 20, "probe_valid_size": 20},
           "rf": {"n_trees": 2}}
    (tmp_path / "pipeline.json").write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(tmp_path / "pipeline.json")]) \
        == 0
    train = load_dataset(str(tmp_path / "run" / "train.json"))
    test = load_dataset(str(tmp_path / "run" / "test.json"))
    assert train.encoders["service"] == {"http": 0, "smtp": 1}
    assert test.encoders == train.encoders
    assert train.X[:, 2].tolist() == [{"http": 0, "smtp": 1}[v]
                                      for v in raw["train"]]
    assert test.X[:, 2].tolist() == [{"http": 0, "ftp": 2}[v]
                                     for v in raw["test"]]


def test_pipeline_missing_key_is_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 0}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 2


def test_readme_pipeline_example_passes_the_checker():
    """The README's pipeline config passes the checks cmd_pipeline makes of
    its keys and its bat and rf blocks; its CSV paths are not read."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        (block,) = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    doc = dataset.check_doc(json.loads(block), cli.PIPELINE_TYPES,
                            required=list(cli.PIPELINE_TYPES)[:6])
    cli.bat_config_from_doc(doc["bat"], doc["seed"])
    cli.rf_config_from_doc(doc["rf"])


def test_readme_lists_each_config_documents_keys():
    """The README lists the keys of the bat and the rf document, each as
    one backticked list; the documents take exactly those keys, and a
    document of every listed key at its default passes the checker."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        listed = dict(re.findall(
            r"\*\*(bat|rf) document\*\*.*?keys:\s*`(.*?)`", fh.read(), re.S))
    defaults = dict(asdict(BatConfig()), **cli.PROBE_SIZES,
                    **asdict(TreeConfig()), n_trees=ForestConfig().n_trees,
                    baseline=False)
    for name, types, parse in (
            ("bat", cli.BAT_TYPES, lambda d: cli.bat_config_from_doc(d, 0)),
            ("rf", cli.RF_TYPES, cli.rf_config_from_doc)):
        keys = listed[name].split(", ")
        assert sorted(keys) == sorted(types), name
        parse({k: defaults[k] for k in keys})


def test_pipeline_records_failed_stage(corpus, tmp_path):
    train, _ = corpus
    bad_test = tmp_path / "bad_test.csv"
    bad_test.write_text("not,a,kdd,record\n")
    cfg = {
        "train_input": train, "test_input": str(bad_test),
        "train_targets": TRAIN_TARGETS, "test_targets": TEST_TARGETS,
        "seed": 3, "output_dir": str(tmp_path / "broken"),
        "bat": BAT_DOC, "rf": RF_DOC,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == 3
    man = json.loads((tmp_path / "broken" / "manifest.json").read_text())
    assert man["status"] == "failed at ingest"
    assert man["stages"]["ingest"]["status"] == "failed"


# ---------------------------------------------------------------- compare

def test_compare_run_with_itself_is_all_zero(pipeline_run, tmp_path):
    out, _ = pipeline_run
    csv_path = tmp_path / "cmp.csv"
    rc = main(["compare", str(out), str(out), "--out", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert all(row.rsplit(",", 1)[1] in ("+0.000000", "-0.000000")
               for row in rows)


def test_compare_different_test_sets_refused(pipeline_run, corpus, tmp_path):
    out, cfg = pipeline_run
    other_dir = tmp_path / "other"
    cfg2 = dict(cfg, output_dir=str(other_dir),
                test_targets=[200, 50, 300, 10, 40])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg2))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert main(["compare", str(out), str(other_dir)]) == 3


def test_compare_missing_report_is_data_error(pipeline_run, tmp_path):
    out, _ = pipeline_run
    assert main(["compare", str(out), str(tmp_path)]) == 3
