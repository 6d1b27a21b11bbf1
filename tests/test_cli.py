import json

import numpy as np
import pytest

from flowgate.cli import main
from flowgate.dataset import load_dataset
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


@pytest.mark.parametrize("kind, payload, code", [
    ("rf", {"n_tree": 3}, 2),
    ("rf", {"invert_majority_beta": False}, 2),
    ("rf", {"max_features": "log2"}, 2),
    ("rf", {"n_trees": 0}, 2),
    ("rf", {"max_depth": 0}, 2),
    ("rf", {"min_samples_leaf": 1.5}, 2),
    ("rf", {"class_weights": [0.5, 0.5]}, 2),
    ("rf", {"class_weights": [0.3, -0.1, 0.4, 0.2, 0.2]}, 2),
    ("rf", {"class_weights": [0, 0, 0, 0, 0]}, 2),
    ("rf", {"baseline": True, "use_weight_updates": False}, 2),
    ("rf", {"n_trees": 2, "max_features": "sqrt",
            "class_weights": [1, 1, 1, 1, 1]}, 0),
    ("mask", "2" + "1" * 40, 3),
    ("model", None, 3),
], ids=["unknown-key", "removed-key", "max-features-log2", "zero-trees",
        "zero-depth", "fractional-leaf", "two-class-weights",
        "negative-class-weight", "zero-sum-class-weights",
        "baseline-with-weighting-key", "valid-custom", "mask-bit-2",
        "truncated-model"])
def test_exit_code_contract(pipeline_run, tmp_path, kind, payload, code):
    out, _ = pipeline_run
    rf, mask = tmp_path / "rf.json", out / "mask.json"
    rf.write_text(json.dumps(payload if kind == "rf" else RF_DOC))
    if kind == "mask":
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"format": "flowgate-mask-v1",
                                    "bits": payload}))
    if kind == "model":
        model = tmp_path / "model.json"
        model.write_bytes((out / "model.json").read_bytes()[:100])
        args = ["evaluate", "--model", str(model),
                "--data", str(out / "test.json"),
                "--out", str(tmp_path / "report.json")]
    else:
        args = ["train", "--data", str(out / "train.json"),
                "--mask", str(mask), "--config", str(rf), "--seed", "0",
                "--out", str(tmp_path / "model.json")]
    assert main(args) == code


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
        "bat": BAT_DOC,
        "rf": dict(RF_DOC, use_weight_updates=False),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    man = json.loads((tmp_path / "mix" / "manifest.json").read_text())
    assert man["variant"] == "custom"


def test_pipeline_missing_key_is_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 0}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 2


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
