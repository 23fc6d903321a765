import numpy as np
import pytest

from hsmgnn import data as D
from hsmgnn.errors import ConfigError, FormatError


def write_turbofan_files(tmp_path, n_units=5, min_len=12, subset="FD001", seed=0):
    """Synthetic trajectories in the standard 26-column text layout.

    Sensor 10 is held constant so the zero-variance drop rule fires.
    """
    rng = np.random.default_rng(seed)
    lines = []
    lengths = {}
    for uid in range(1, n_units + 1):
        n_cyc = min_len + int(rng.integers(0, 8))
        lengths[uid] = n_cyc
        for cyc in range(1, n_cyc + 1):
            settings = rng.normal(size=3)
            sensors = rng.normal(size=21) + np.linspace(0, 1, 21) * cyc * 0.01
            sensors[9] = 42.0  # constant channel
            fields = [uid, cyc, *settings, *sensors]
            lines.append(" ".join(f"{v:.6f}" for v in fields))
    (tmp_path / f"train_{subset}.txt").write_text("\n".join(lines) + "\n")

    test_lines = []
    ruls = []
    for uid in range(1, n_units + 1):
        n_cyc = min_len + int(rng.integers(0, 5))
        for cyc in range(1, n_cyc + 1):
            sensors = rng.normal(size=21)
            sensors[9] = 42.0
            fields = [uid, cyc, *rng.normal(size=3), *sensors]
            test_lines.append(" ".join(f"{v:.6f}" for v in fields))
        ruls.append(float(rng.integers(5, 150)))
    (tmp_path / f"test_{subset}.txt").write_text("\n".join(test_lines) + "\n")
    (tmp_path / f"RUL_{subset}.txt").write_text("\n".join(str(r) for r in ruls) + "\n")
    return lengths


class TestTurbofanLoader:
    def test_unit_count_and_channels(self, tmp_path):
        write_turbofan_files(tmp_path)
        sset = D.load_cmapss(tmp_path, "FD001", window=8)
        assert len(np.unique(sset.unit_ids)) == 5
        assert sset.shape[0] == 20  # 21 sensors minus the constant one
        assert "s10" not in sset.sensor_names

    def test_end_of_life_label_is_zero(self, tmp_path):
        write_turbofan_files(tmp_path)
        sset = D.load_cmapss(tmp_path, "FD001", window=8)
        for uid in np.unique(sset.unit_ids):
            labels = sset.labels[sset.unit_ids == uid]
            assert labels[-1] == 0.0

    def test_rul_cap(self, tmp_path):
        write_turbofan_files(tmp_path, min_len=20)
        sset = D.load_cmapss(tmp_path, "FD001", window=4, rul_cap=10.0)
        assert sset.labels.max() == 10.0

    def test_normalization_uses_training_statistics(self, tmp_path):
        write_turbofan_files(tmp_path)
        sset = D.load_cmapss(tmp_path, "FD001", window=8)
        # reconstruct the full normalized training table from all length-8
        # windows: per-channel mean/std over rows must be ~0/~1
        table = D._read_cmapss_table(tmp_path / "train_FD001.txt")
        keep = table[:, 5:].std(axis=0) > 1e-12
        normalized = (table[:, 5:][:, keep] - sset.norm_stats["mean"]) / sset.norm_stats["std"]
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-9
        assert np.max(np.abs(normalized.std(axis=0) - 1.0)) < 1e-9

    def test_test_split_one_window_per_unit(self, tmp_path):
        write_turbofan_files(tmp_path)
        test = D.load_cmapss(tmp_path, "FD001", window=8, split="test")
        assert len(test) == 5
        truth = np.loadtxt(tmp_path / "RUL_FD001.txt")
        assert np.array_equal(test.labels, np.minimum(truth, 125.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            D.load_cmapss(tmp_path, "FD009")

    def test_wrong_column_count(self, tmp_path):
        (tmp_path / "train_FD001.txt").write_text("1 2 3\n")
        with pytest.raises(FormatError):
            D.load_cmapss(tmp_path, "FD001")


class TestCsvLoader:
    def test_toy_two_sensor_window(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,label\n1,5,0.1\n2,6,0.2\n3,7,0.3\n4,8,0.4\n")
        sset = D.load_csv(path, window=4)
        assert len(sset) == 1
        assert sset.shape == (2, 4, 1)
        assert sset.labels[0] == 0.4  # label of the window's last row
        assert np.array_equal(sset.windows[0, 0, :, 0], [1, 2, 3, 4])

    def test_string_labels_imply_classes(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("x,label\n1,walk\n2,run\n3,walk\n4,sit\n")
        sset = D.load_csv(path, window=1)
        assert sset.task == "classification"
        assert sset.n_classes == 3

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0.5\n1,2\n")
        with pytest.raises(FormatError, match="line 3"):
            D.load_csv(path, window=1)

    def test_round_trip_through_canonical_preserves_bits(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = ["a,b,label"]
        rng = np.random.default_rng(0)
        for _ in range(8):
            rows.append(f"{rng.normal()},{rng.normal()},{rng.normal()}")
        path.write_text("\n".join(rows) + "\n")
        sset = D.load_csv(path, window=2)
        canonical = tmp_path / "toy.mtsd"
        D.save_canonical(canonical, sset)
        loaded = D.load_canonical(canonical)
        assert np.array_equal(loaded.windows, sset.windows)
        assert np.array_equal(loaded.labels, sset.labels)
        assert loaded.task == sset.task


class TestSplit:
    def _set(self, n_units=100, per_unit=3):
        units = np.repeat(np.arange(n_units), per_unit)
        windows = np.random.default_rng(0).normal(size=(len(units), 2, 4, 1))
        return D.SampleSet(windows, np.zeros(len(units)), "regression",
                           unit_ids=units)

    def test_deterministic(self):
        a = D.split(self._set(), 0.8, 0.1, seed=3)
        b = D.split(self._set(), 0.8, 0.1, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.windows, y.windows)

    def test_unit_fractions(self):
        train, valid, test = D.split(self._set(100), 0.8, 0.1, seed=0)
        assert len(np.unique(train.unit_ids)) == 80
        assert len(np.unique(valid.unit_ids)) == 10
        assert len(np.unique(test.unit_ids)) == 10

    def test_no_unit_leakage(self):
        train, valid, test = D.split(self._set(50), 0.6, 0.2, seed=1)
        groups = [set(np.unique(p.unit_ids)) for p in (train, valid, test)]
        assert not (groups[0] & groups[1])
        assert not (groups[0] & groups[2])
        assert not (groups[1] & groups[2])

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            D.split(self._set(10), 0.9, 0.2, seed=0)

    def test_carve_validation_unit_level(self):
        train, valid = D.carve_validation(self._set(20), 0.1, seed=0)
        assert len(np.unique(valid.unit_ids)) == 2
        assert not (set(np.unique(train.unit_ids)) & set(np.unique(valid.unit_ids)))


class TestCanonicalContainer:
    def test_byte_identical_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sset = D.SampleSet(rng.normal(size=(3, 2, 4, 1)), rng.normal(size=3), "regression")
        p1 = tmp_path / "a.mtsd"
        p2 = tmp_path / "b.mtsd"
        D.save_canonical(p1, sset)
        D.save_canonical(p2, D.load_canonical(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_size_law(self, tmp_path):
        sset = D.SampleSet(np.zeros((4, 3, 5, 2)), np.zeros(4), "classification")
        path = tmp_path / "c.mtsd"
        D.save_canonical(path, sset)
        assert path.stat().st_size == 25 + 4 * (3 * 5 * 2 + 1) * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mtsd"
        path.write_bytes(b"XXXX" + b"\0" * 40)
        with pytest.raises(FormatError):
            D.load_canonical(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.mtsd"
        D.save_canonical(path, D.SampleSet(np.zeros((1, 2, 2, 1)), np.zeros(1), "regression"))
        raw = path.read_bytes()
        for size in range(25):
            path.write_bytes(raw[:size])
            with pytest.raises(FormatError):
                D.load_canonical(path)

    def test_windows_and_labels_view_one_record_array(self, tmp_path):
        rng = np.random.default_rng(2)
        sset = D.SampleSet(rng.normal(size=(3, 2, 4, 2)), rng.normal(size=3), "regression")
        path = tmp_path / "v.mtsd"
        D.save_canonical(path, sset)
        loaded = D.load_canonical(path)
        assert np.array_equal(loaded.windows, sset.windows)
        assert np.array_equal(loaded.labels, sset.labels)
        assert np.may_share_memory(loaded.windows, loaded.labels)

    def test_nan_rejected(self):
        windows = np.zeros((1, 2, 2, 1))
        windows[0, 0, 0, 0] = np.nan
        with pytest.raises(FormatError):
            D.SampleSet(windows, np.zeros(1), "regression")
