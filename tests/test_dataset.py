import json
import math
import os
import re

import numpy as np
import pytest

from flowgate.cli import cmd_compare
from flowgate.dataset import (DATASET_FORMAT, FEATURE_NAMES, N_CLASSES,
                              NUMERIC_COLUMNS, SYMBOLIC_COLUMNS, EncodedDataset,
                              FlowClass, N_FEATURES, check_doc, dataset_hash, encode, fits,
                              load_dataset, map_attack_to_class,
                              parse_kdd_csv, save_dataset,
                              stratified_downsample, write_json)
from flowgate.metrics import evaluate

from conftest import make_kdd_file, make_kdd_line


def assert_shape(table, rows):
    """table holds rows flows: a numeric array and three symbol columns."""
    assert table.numeric.shape == (rows, N_FEATURES - len(SYMBOLIC_COLUMNS))
    assert table.numeric.dtype == np.float64
    assert [len(c) for c in table.symbols] == [rows] * len(SYMBOLIC_COLUMNS)
    assert len(table.labels) == rows


class TestParse:
    def test_well_formed_line(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "one.csv"
        line = make_kdd_line(rng, "normal")
        path.write_text(line + "\n")
        table = parse_kdd_csv(path)
        assert_shape(table, 1)
        fields = line.split(",")
        assert [c[0] for c in table.symbols] == fields[1:4]
        assert table.numeric[0].tolist() == [float(fields[c])
                                             for c in NUMERIC_COLUMNS]
        assert table.labels == ["normal"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert_shape(parse_kdd_csv(path), 0)

    def test_short_line_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["0"] * 40) + "\n")
        with pytest.raises(ValueError, match="line 1: expected 42 fields, got 40"):
            parse_kdd_csv(path)

    def test_difficulty_column_dropped(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "nsl.csv"
        path.write_text(make_kdd_line(rng, "smurf") + ",17\n")
        table = parse_kdd_csv(path)
        assert_shape(table, 1)
        assert table.labels == ["smurf"]

    def test_trailing_dot_stripped(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "dot.csv"
        path.write_text(make_kdd_line(rng, "neptune.") + "\n")
        assert parse_kdd_csv(path).labels == ["neptune"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.csv"):
            parse_kdd_csv(tmp_path / "nope.csv")

    def test_record_invariants(self, tmp_path):
        rng = np.random.default_rng(0)
        good = make_kdd_line(rng, "normal")
        path = tmp_path / "bad.csv"
        # 40 features and a label
        path.write_text(good + "\n" + good.split(",", 1)[1] + "\n")
        with pytest.raises(ValueError, match="line 2: expected 42 fields, "
                                             "got 41"):
            parse_kdd_csv(path)
        for label in ("", "."):
            path.write_text(good + "\n\n" + good[:-len("normal")] + label)
            with pytest.raises(ValueError, match="line 3: empty label"):
                parse_kdd_csv(path)


    def test_unknown_label_names_its_line(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(make_kdd_line(rng, label) for label in
                                  ("normal", "smurf.", "flubber.")) + "\n")
        with pytest.raises(ValueError, match="line 3: unknown attack label "
                                             "'flubber'"):
            parse_kdd_csv(path)

    def test_a_repeated_bad_line_is_named_at_its_first_line(self, tmp_path):
        # good lines repeat before the bad one, and the bad text repeats
        # after it with other surrounding whitespace: each error names the
        # first line that holds the bad text, blank lines counted
        rng = np.random.default_rng(0)
        good, other = make_kdd_line(rng, "normal"), make_kdd_line(rng, "smurf")
        fields = other.split(",")
        fields[0] = "oops"
        for bad, message in [
                (good.split(",", 1)[1], "line 5: expected 42 fields, got 41"),
                (good[:-len("normal")] + "flubber.",
                 "line 5: unknown attack label 'flubber'"),
                (",".join(fields), "'oops'.* on line 5, column 1")]:
            path = tmp_path / "bad.csv"
            path.write_text(f"{good}\n{good}\n\n {good}\t\n{bad}\n{other}\n"
                            f"  {bad}\r\n{bad}\n")
            with pytest.raises(ValueError, match=message):
                parse_kdd_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with U+FEFF
        text = make_kdd_file(tmp_path / "plain.csv", seed=3).read_text()
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = parse_kdd_csv(tmp_path / "plain.csv"), parse_kdd_csv(marked)
        assert a.numeric.tobytes() == b.numeric.tobytes()
        assert (a.symbols, a.labels) == (b.symbols, b.labels)


class TestAttackMapping:
    def test_normal(self):
        assert map_attack_to_class("normal") is FlowClass.NORMAL

    def test_smurf_is_dos(self):
        assert map_attack_to_class("smurf") is FlowClass.DOS

    def test_buffer_overflow_is_u2r(self):
        assert map_attack_to_class("buffer_overflow") is FlowClass.U2R

    @pytest.mark.parametrize("label,expected", [
        ("ipsweep", FlowClass.PROBE),
        ("nmap", FlowClass.PROBE),
        ("portsweep", FlowClass.PROBE),
        ("satan", FlowClass.PROBE),
        ("back", FlowClass.DOS),
        ("land", FlowClass.DOS),
        ("neptune", FlowClass.DOS),
        ("pod", FlowClass.DOS),
        ("teardrop", FlowClass.DOS),
        ("loadmodule", FlowClass.U2R),
        ("perl", FlowClass.U2R),
        ("rootkit", FlowClass.U2R),
        ("ftp_write", FlowClass.R2L),
        ("guess_passwd", FlowClass.R2L),
        ("imap", FlowClass.R2L),
        ("multihop", FlowClass.R2L),
        ("phf", FlowClass.R2L),
        ("spy", FlowClass.R2L),
        ("warezclient", FlowClass.R2L),
        ("warezmaster", FlowClass.R2L),
    ])
    def test_published_22_attack_mapping(self, label, expected):
        assert map_attack_to_class(label) is expected

    def test_unknown_label_named_in_error(self):
        with pytest.raises(ValueError, match="flubber"):
            map_attack_to_class("flubber")

    def test_class_codes_are_stable(self):
        assert [int(c) for c in FlowClass] == [0, 1, 2, 3, 4]
        assert FlowClass.NORMAL == 0 and FlowClass.R2L == 4


class TestEncode:
    def test_sorted_ordinal_dictionary(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [make_kdd_line(rng, "normal") for _ in range(30)]
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = encode(parse_kdd_csv(path))
        enc = ds.encoders["protocol_type"]
        present = sorted(enc)
        assert enc == {v: i for i, v in enumerate(present)}
        if set(enc) == {"icmp", "tcp", "udp"}:
            assert enc == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_numeric_passthrough(self, tmp_path):
        numeric = np.arange(N_FEATURES, dtype=float)
        numeric[0] = 0.1 + 0.2  # value without a short decimal form
        rng = np.random.default_rng(0)
        path = tmp_path / "one.csv"
        path.write_text(make_kdd_line(rng, "normal", numeric=numeric))
        ds = encode(parse_kdd_csv(path))
        keep = [i for i in range(N_FEATURES) if i not in (1, 2, 3)]
        assert np.array_equal(ds.X[0, keep], numeric[keep])

    def test_deterministic_for_same_symbols(self, tmp_path):
        a = encode(parse_kdd_csv(make_kdd_file(tmp_path / "a.csv", seed=5)))
        b = encode(parse_kdd_csv(make_kdd_file(tmp_path / "b.csv", seed=5)))
        assert np.array_equal(a.X, b.X)
        assert a.encoders == b.encoders

    def test_unparseable_numeric_field(self, tmp_path):
        rng = np.random.default_rng(0)
        good = make_kdd_line(rng, "normal")
        fields = good.split(",")
        fields[0] = "oops"
        path = tmp_path / "bad.csv"
        # the error names the file's line, blank lines counted
        path.write_text(f"{good}\n  \n{','.join(fields)}\n")
        with pytest.raises(ValueError, match="'oops'.* on line 3, column 1"):
            parse_kdd_csv(path)

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty flow table"):
            encode(parse_kdd_csv(path))

    def test_reuses_given_encoders(self, tmp_path):
        # a training split sees http and smtp, a test split ftp and http:
        # with the training encoders http keeps its code, ftp gets the
        # reserved code len(dictionary)
        rng = np.random.default_rng(4)
        tables = []
        for name, services in (("train", ["http", "smtp", "http"]),
                               ("test", ["ftp", "http", "ftp"])):
            lines = [make_kdd_line(rng, "normal").split(",")
                     for _ in services]
            for fields, service in zip(lines, services):
                fields[2] = service
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(",".join(f) for f in lines))
            tables.append(parse_kdd_csv(path))
        train = encode(tables[0])
        assert train.encoders["service"] == {"http": 0, "smtp": 1}
        assert encode(tables[1]).encoders["service"] == {"ftp": 0,
                                                         "http": 1}
        test = encode(tables[1], train.encoders)
        assert test.encoders == train.encoders
        assert test.X[:, 2].tolist() == [2, 0, 2]


def reference_parse_encode(path):
    """The former per-field reader, kept as the oracle: one list of field
    strings per line, float() per numeric field; (X, y, encoders)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.readlines():
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) == N_FEATURES + 2:
                fields = fields[:-1]  # drop difficulty column
            assert len(fields) == N_FEATURES + 1
            records.append((fields[:-1], fields[-1].rstrip(".")))
    encoders = {}
    for col in SYMBOLIC_COLUMNS:
        values = sorted({features[col] for features, _ in records})
        encoders[FEATURE_NAMES[col]] = {v: i for i, v in enumerate(values)}
    X = np.empty((len(records), N_FEATURES), dtype=np.float64)
    y = np.empty(len(records), dtype=np.int64)
    for row, (features, label) in enumerate(records):
        for col, raw in enumerate(features):
            X[row, col] = (encoders[FEATURE_NAMES[col]][raw]
                           if col in SYMBOLIC_COLUMNS else float(raw))
        y[row] = int(map_attack_to_class(label))
    return X, y, encoders


NUMBER_FORMS = [repr, "{:.3e}".format, "{:+.6f}".format, "{:.17g}".format,
                lambda v: f" {v!r}\t", lambda v: str(int(v)),
                lambda v: "-0.0", lambda v: ".5", lambda v: "5.",
                lambda v: "4.9e-324", lambda v: "1.7976931348623157e308"]


def write_messy_kdd(path, seed, rows=300):
    """KDD lines in the forms a capture may take: 42- and 43-field lines
    mixed, blank and whitespace-only lines, LF and CRLF line ends,
    upper-case labels with a trailing '.', numbers written many ways, and
    lines repeated, some with other surrounding whitespace or line end."""
    rng = np.random.default_rng(seed)
    labels = ["normal", "smurf", "satan", "rootkit", "guess_passwd", "back"]
    lines = []
    for _ in range(rows):
        fields = make_kdd_line(rng, "").split(",")
        for col in rng.choice(NUMERIC_COLUMNS, size=6):
            value = float(rng.normal() * 10.0 ** rng.integers(-8, 9))
            fields[col] = NUMBER_FORMS[rng.integers(len(NUMBER_FORMS))](
                value)
        label = labels[rng.integers(len(labels))]
        fields[-1] = (label.upper() if rng.random() < 0.3 else label) + (
            "." if rng.random() < 0.5 else "")
        if rng.random() < 0.3:
            fields.append(str(rng.integers(22)))  # difficulty
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append(["", "   ", "\t", " \t "][rng.integers(4)])
        if rng.random() < 0.5:  # an earlier line again, as captures repeat
            pad = ["", "", " ", "\t", " \t"]
            lines.append(pad[rng.integers(5)] + lines[rng.integers(len(lines))]
                         + pad[rng.integers(5)])
    ends = rng.choice(["\n", "\r\n"], size=len(lines))
    path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode())
    return path


class TestMatchesPerFieldReader:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes_labels_and_encoders(self, tmp_path, seed):
        path = write_messy_kdd(tmp_path / "messy.csv", seed)
        raw = path.read_bytes()
        assert b"\r\n" in raw and re.search(rb"\n[ \t]+\r?\n", raw)
        assert re.search(rb"\n\r?\n", raw) and b"NORMAL." in raw
        lines = raw.decode().split("\n")
        texts = [line.strip() for line in lines if line.strip()]
        assert len(set(texts)) < len(texts) - 50
        assert len(set(lines)) > len(set(line.strip() for line in lines)) + 20
        X, y, encoders = reference_parse_encode(path)
        ds = encode(parse_kdd_csv(path))
        assert ds.X.tobytes() == X.tobytes()
        assert ds.y.tolist() == y.tolist()
        assert ds.encoders == encoders

    @pytest.mark.parametrize("number", ["1_0", "\u0661", "\uff11"])
    def test_python_only_number_forms_are_errors(self, tmp_path, number):
        # float() takes digit-group underscores and non-ASCII digits; the
        # C reader does not
        rng = np.random.default_rng(0)
        fields = make_kdd_line(rng, "normal").split(",")
        fields[4] = number
        path = tmp_path / "odd.csv"
        path.write_text(",".join(fields), encoding="utf-8")
        assert float(number) in (10.0, 1.0)
        with pytest.raises(ValueError, match="on line 1, column 5"):
            parse_kdd_csv(path)


class TestDownsample:
    def test_table_counts_exact(self, tmp_path):
        # stated training distribution, scaled down by 1/100 against a
        # larger pool
        targets = [171, 31, 357, 5, 11]
        pool = make_kdd_file(tmp_path / "pool.csv", seed=7,
                             counts=(300, 60, 500, 9, 25))
        ds = stratified_downsample(encode(parse_kdd_csv(pool)), targets,
                                   seed=3)
        assert list(ds.class_counts) == targets

    def test_full_counts_is_permutation(self, tmp_path):
        pool = make_kdd_file(tmp_path / "pool.csv", seed=2)
        full = encode(parse_kdd_csv(pool))
        ds = stratified_downsample(full, list(full.class_counts), seed=0)
        assert np.array_equal(np.sort(ds.X, axis=0), np.sort(full.X, axis=0))
        assert list(ds.class_counts) == list(full.class_counts)

    def test_same_seed_identical(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        a = stratified_downsample(full, [5, 5, 5, 3, 3], seed=11)
        b = stratified_downsample(full, [5, 5, 5, 3, 3], seed=11)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_overdraw_names_class(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        with pytest.raises(ValueError, match="U2R"):
            stratified_downsample(full, [1, 1, 1, 10**6, 1], seed=0)

    def test_rows_unchanged(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        ds = stratified_downsample(full, [3, 3, 3, 2, 2], seed=1)
        pool_rows = {row.tobytes() for row in full.X}
        assert all(row.tobytes() in pool_rows for row in ds.X)

    def test_label_alignment_round_trip(self, tmp_path):
        # tag each row through feature 0, then check labels follow their rows
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        full.X[:, 0] = np.arange(full.n_samples)
        tag_to_label = dict(zip(full.X[:, 0], full.y))
        ds = stratified_downsample(full, [4, 4, 4, 2, 2], seed=9)
        assert all(tag_to_label[tag] == lab for tag, lab in zip(ds.X[:, 0],
                                                                ds.y))


class TestExchangeFile:
    def test_round_trip_bit_exact(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        full.X[0, 0] = 0.1 + 0.2  # value without a short decimal form
        p1 = tmp_path / "d1.json"
        p2 = tmp_path / "d2.json"
        save_dataset(full, p1)
        loaded = load_dataset(p1)
        assert np.array_equal(loaded.X, full.X)
        assert np.array_equal(loaded.y, full.y)
        assert loaded.encoders == full.encoders
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert dataset_hash(p1) == dataset_hash(p2)

    @staticmethod
    def assert_writes_the_oracle(ds, tmp_path):
        """Oracle: write_json of the document with "features" as
        X.tolist()."""
        path, oracle = tmp_path / "d.json", tmp_path / "oracle.json"
        save_dataset(ds, path)
        write_json({"format": DATASET_FORMAT,
                    "feature_names": ds.feature_names,
                    "encoders": ds.encoders,
                    "class_counts": ds.class_counts.tolist(),
                    "labels": ds.y.tolist(), "features": ds.X.tolist()},
                   oracle)
        assert path.read_bytes() == oracle.read_bytes()
        assert load_dataset(path).X.tobytes() == ds.X.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 7, 60])
    def test_writes_the_bytes_of_json_dumps(self, tmp_path, rows):
        """-0.0 and 0.0 share a value but not a bit pattern."""
        values = [-0.0, 0.0, 0.1, 1e16, 5e-324, 1e-7, 2.0 ** 63,
                  123456789012345678.0, 0.1 + 0.2, -7.0]
        rng = np.random.default_rng(rows)
        self.assert_writes_the_oracle(EncodedDataset(
            X=rng.choice(values, size=(rows, 5)),
            y=rng.integers(0, N_CLASSES, rows), feature_names=list("abcde"),
            # symbols named like top-level keys do not move the splice
            encoders={"service": {"features": 0, "format": 1}}), tmp_path)

    @pytest.mark.parametrize("X,y", [
        # mostly duplicate rows
        (np.repeat([[0.1, 2.0], [0.1 + 0.2, 0.0], [3.0, 5e-324]],
                   [40, 3, 17], axis=0)[np.random.default_rng(0).permutation(
                       60)], np.zeros(60, dtype=int)),
        # rows equal in value, not in bits
        ([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 0.0]], [1, 1, 1, 1]),
        # equal features, other labels
        ([[1.5, 2.0]] * 4, [0, 3, 0, 4]),
        # no feature columns
        (np.empty((3, 0)), [0, 2, 2]),
    ], ids=["duplicates", "signed-zeros", "labels-differ", "no-columns"])
    def test_writes_the_bytes_of_json_dumps_per_distinct_row(self, tmp_path,
                                                            X, y):
        ds = EncodedDataset(X=X, y=y, encoders={},
                            feature_names=[f"f{j}" for j in
                                           range(np.shape(X)[1])])
        self.assert_writes_the_oracle(ds, tmp_path)
        if not ds.n_features:
            assert '"features":[[],[],[]]' in (tmp_path / "d.json").read_text()

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.json"
        write_json({"b": 1, "a": [0.5]}, path)
        assert path.read_text() == '{"a":[0.5],"b":1}'
        with pytest.raises(TypeError):
            write_json({"a": object()}, path)
        assert path.read_text() == '{"a":[0.5],"b":1}'
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]
        # the comparison CSV goes through the same writer: a write that
        # fails at the final move leaves the old CSV and no temporary file
        run = tmp_path / "run"
        run.mkdir()
        labels = np.arange(N_CLASSES)
        write_json(evaluate(labels, labels).to_doc(), run / "report.json")
        csv = tmp_path / "cmp.csv"
        csv.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cmd_compare(str(run), str(run), str(csv))
        assert csv.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cmp.csv", "d.json", "run"]

    def test_zero_flows_round_trip(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
        save_dataset(full.take(np.arange(0)), p1)
        loaded = load_dataset(p1)
        assert loaded.X.shape == (0, N_FEATURES) and loaded.y.size == 0
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_features_of_wrong_length(self, tmp_path):
        full = encode(parse_kdd_csv(make_kdd_file(tmp_path / "p.csv")))
        path = tmp_path / "d.json"
        save_dataset(full, path)
        doc = json.loads(path.read_text())
        doc["features"] = doc["features"][1:]
        path.write_text(json.dumps(doc))
        # features reshape to (labels, feature names)
        with pytest.raises(ValueError, match=re.escape(
                f"into shape ({full.n_samples},41)")):
            load_dataset(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a flowgate dataset"):
            load_dataset(path)


class TestCheckDoc:
    @pytest.mark.parametrize("value, tp, ok", [
        (True, bool, True), (1, bool, False),
        (1, int, True), (True, int, False), (1.0, int, False),
        (2, float, True), (0.5, float, True), (False, float, False),
        (math.inf, float, False), (math.nan, float, False),
        ("0.5", float, False),
        (None, str | None, True), ("sqrt", str | None, True),
        ([1, 2], tuple[int, ...], True), ([1, "2"], tuple[int, ...], False),
        ("1,2", tuple[int, ...], False),
        ([0.5, 1], tuple[float, ...] | None, True),
        ({}, dict, True), ([], dict, False),
        ({"a": {"b": 1}}, dict[str, dict[str, int]], True),
        ({"a": {"b": True}}, dict[str, dict[str, int]], False),
        ({"a": [1]}, dict[str, dict[str, int]], False),
        (7, dict[str, dict[str, int]], False),
    ])
    def test_type_rules(self, value, tp, ok):
        assert fits(value, tp) is ok

    def test_keys_and_arrays(self):
        types = {"a": int, "b": tuple[float, ...]}
        assert check_doc({"b": [1, 0.5]}, types) == {"b": (1, 0.5)}
        with pytest.raises(ValueError, match=r"unknown keys \['c'\]"):
            check_doc({"c": 1}, types)
        with pytest.raises(ValueError, match=r"missing keys \['a'\]"):
            check_doc({}, types, required=["a"])
        with pytest.raises(ValueError, match="a must be of type int"):
            check_doc({"a": "8"}, types)
        with pytest.raises(ValueError, match="JSON object"):
            check_doc([1], types)
