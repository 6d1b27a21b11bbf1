import numpy as np
import pytest

from flowgate.dataset import (FlowClass, FlowRecord, N_FEATURES, dataset_hash,
                              encode, load_dataset, map_attack_to_class,
                              parse_kdd_csv, save_dataset,
                              stratified_downsample, write_json)

from conftest import make_kdd_file, make_kdd_line


class TestParse:
    def test_well_formed_line(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "one.csv"
        path.write_text(make_kdd_line(rng, "normal") + "\n")
        records = parse_kdd_csv(path)
        assert len(records) == 1
        assert len(records[0].features) == N_FEATURES
        assert records[0].label == "normal"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert parse_kdd_csv(path) == []

    def test_short_line_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(["0"] * 40) + "\n")
        with pytest.raises(ValueError, match="line 1: expected 42 fields, got 40"):
            parse_kdd_csv(path)

    def test_difficulty_column_dropped(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "nsl.csv"
        path.write_text(make_kdd_line(rng, "smurf") + ",17\n")
        records = parse_kdd_csv(path)
        assert len(records[0].features) == N_FEATURES
        assert records[0].label == "smurf"

    def test_trailing_dot_stripped(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "dot.csv"
        path.write_text(make_kdd_line(rng, "neptune.") + "\n")
        assert parse_kdd_csv(path)[0].label == "neptune"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.csv"):
            parse_kdd_csv(tmp_path / "nope.csv")

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            FlowRecord(features=["0"] * 40, label="normal")
        with pytest.raises(ValueError):
            FlowRecord(features=["0"] * 41, label="")


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

    def test_numeric_passthrough(self):
        numeric = np.arange(N_FEATURES, dtype=float)
        rng = np.random.default_rng(0)
        line = make_kdd_line(rng, "normal", numeric=numeric)
        rec = FlowRecord(features=line.split(",")[:-1], label="normal")
        ds = encode([rec])
        keep = [i for i in range(N_FEATURES) if i not in (1, 2, 3)]
        assert np.array_equal(ds.X[0, keep], numeric[keep])

    def test_deterministic_for_same_symbols(self, tmp_path):
        a = encode(parse_kdd_csv(make_kdd_file(tmp_path / "a.csv", seed=5)))
        b = encode(parse_kdd_csv(make_kdd_file(tmp_path / "b.csv", seed=5)))
        assert np.array_equal(a.X, b.X)
        assert a.encoders == b.encoders

    def test_unparseable_numeric_field(self):
        rng = np.random.default_rng(0)
        fields = make_kdd_line(rng, "normal").split(",")[:-1]
        fields[0] = "oops"
        with pytest.raises(ValueError, match="row 0, column 0"):
            encode([FlowRecord(features=fields, label="normal")])

    def test_empty_records(self):
        with pytest.raises(ValueError):
            encode([])


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

    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "d.json"
        write_json({"b": 1, "a": [0.5]}, path)
        assert path.read_text() == '{"a":[0.5],"b":1}'
        with pytest.raises(TypeError):
            write_json({"a": object()}, path)
        assert path.read_text() == '{"a":[0.5],"b":1}'
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a flowgate dataset"):
            load_dataset(path)
