import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from hsmgnn import data as D
from hsmgnn.cli import main
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
        table = D._read_table(tmp_path / "train_FD001.txt")
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

    def test_empty_table_warns_nothing(self, tmp_path):
        path = tmp_path / "train_FD001.txt"
        for text in ("", "\n  \n\t\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FormatError, match="no data rows"):
                    D._read_table(path)

    def test_values_take_float_syntax(self, tmp_path):
        write_turbofan_files(tmp_path)
        plain = D.load_cmapss(tmp_path, "FD001", window=8)
        path = tmp_path / "train_FD001.txt"
        path.write_text(path.read_text().replace("42.000000", "4_2.0", 1))  # numpy rejects it
        spelled = D.load_cmapss(tmp_path, "FD001", window=8)
        assert np.array_equal(spelled.windows, plain.windows)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rul_values_must_match_the_test_units(self, tmp_path, extra):
        write_turbofan_files(tmp_path)
        path = tmp_path / "RUL_FD001.txt"
        values = path.read_text().split()
        path.write_text("\n".join(values[:extra] if extra < 0 else values + ["7.0"]) + "\n")
        with pytest.raises(FormatError, match=f"{path}: {5 + extra} RUL values for 5 test"):
            D.load_cmapss(tmp_path, "FD001", window=8, split="test")

    def test_rul_cap_must_be_positive(self, tmp_path):
        write_turbofan_files(tmp_path)
        for cap in (0.0, -5.0, float("nan")):
            with pytest.raises(ConfigError, match="rul_cap"):
                D.load_cmapss(tmp_path, "FD001", window=8, rul_cap=cap)
        sset = D.load_cmapss(tmp_path, "FD001", window=8, rul_cap=float("inf"))
        assert np.array_equal(sset.labels, loop_windows(tmp_path, 8, "train", np.inf)[1])


def loop_windows(data_dir, window, split, rul_cap=125.0, subset="FD001"):
    """The per-unit loop that windowed turbofan files before the end-row gather."""
    train = np.loadtxt(data_dir / f"train_{subset}.txt", ndmin=2)
    sensors = train[:, 5:]
    keep = sensors.std(axis=0) > 1e-12
    mean, std = sensors[:, keep].mean(axis=0), sensors[:, keep].std(axis=0)
    table = train if split == "train" else np.loadtxt(data_dir / f"test_{subset}.txt", ndmin=2)
    truth = np.loadtxt(data_dir / f"RUL_{subset}.txt", ndmin=1)
    windows, labels, units = [], [], []
    for pos, uid in enumerate(np.unique(table[:, 0])):
        values = (table[table[:, 0] == uid][:, 5:][:, keep] - mean) / std
        if split == "train":
            for end in range(window, len(values) + 1):
                windows.append(values[end - window:end].T)
                labels.append(min(rul_cap, len(values) - end))
                units.append(uid)
        else:
            if len(values) < window:  # repeat the first cycle
                values = np.vstack([np.repeat(values[:1], window - len(values), axis=0), values])
            windows.append(values[-window:].T)
            labels.append(min(rul_cap, truth[pos]))
            units.append(uid)
    return np.stack(windows)[..., None], np.array(labels, dtype=float), np.array(units, dtype=int)


def trajectory_lengths(path):
    return np.unique(np.loadtxt(path)[:, 0], return_counts=True)[1]


def interleave_units(path):
    """Rewrite a table round-robin over its units, in descending unit order."""
    lines = path.read_text().splitlines()
    by_unit = {}
    for line in lines:
        by_unit.setdefault(float(line.split()[0]), []).append(line)
    queues = [by_unit[u] for u in sorted(by_unit, reverse=True)]
    rows = [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]
    assert sorted(rows) == sorted(lines) and rows != lines
    path.write_text("\n".join(rows) + "\n")


class TestTurbofanWindowsMatchLoop:
    def check(self, data_dir, window, split):
        sset = D.load_cmapss(data_dir, "FD001", window=window, split=split)
        windows, labels, units = loop_windows(data_dir, window, split)
        assert sset.windows.flags.c_contiguous
        assert np.array_equal(sset.windows, windows)
        assert np.array_equal(sset.labels, labels)
        assert np.array_equal(sset.unit_ids, units)
        return sset

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("window", [1, 8])
    def test_fixed_windows(self, tmp_path, split, window):
        write_turbofan_files(tmp_path)
        self.check(tmp_path, window, split)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_window_equal_to_the_longest_trajectory(self, tmp_path, split):
        write_turbofan_files(tmp_path)
        lengths = trajectory_lengths(tmp_path / f"{split}_FD001.txt")
        sset = self.check(tmp_path, int(lengths.max()), split)
        if split == "train":
            assert len(sset) == np.sum(lengths == lengths.max())

    def test_test_trajectories_shorter_than_the_window_are_padded(self, tmp_path):
        write_turbofan_files(tmp_path)
        lengths = trajectory_lengths(tmp_path / "test_FD001.txt")
        window = int(lengths.max()) + 3
        sset = self.check(tmp_path, window, "test")
        pad = window - lengths[0]
        first = sset.windows[0, :, :1]
        assert np.array_equal(sset.windows[0, :, :pad + 1], np.repeat(first, pad + 1, axis=1))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_out_of_order_interleaved_units(self, tmp_path, split):
        write_turbofan_files(tmp_path)
        interleave_units(tmp_path / "train_FD001.txt")
        interleave_units(tmp_path / "test_FD001.txt")
        sset = self.check(tmp_path, 8, split)
        assert np.all(np.diff(sset.unit_ids) >= 0)


class TestLazyWindows:
    """Turbofan windows are cut from the rows on demand; `subset` shares the source."""

    def test_load_and_carve_build_no_window_tensor(self, tmp_path):
        write_turbofan_files(tmp_path, n_units=20, min_len=60)
        tracemalloc.start()
        try:
            sset = D.load_cmapss(tmp_path, "FD001", window=30)
            D.carve_validation(sset, 0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        s, n, t, c = sset.windows.shape
        assert peak < s * n * t * c * 8

    @staticmethod
    def sets(tmp_path):
        write_turbofan_files(tmp_path)
        lazy = D.load_cmapss(tmp_path, "FD001", window=8)
        plain = D.SampleSet(lazy.windows, lazy.labels, lazy.task, unit_ids=lazy.unit_ids)
        return lazy, plain

    def test_subset_shares_the_source(self, tmp_path):
        for sset in self.sets(tmp_path):
            rng = np.random.default_rng(0)
            for idx in (rng.permutation(len(sset))[:7], rng.random(len(sset)) < 0.3):
                part = sset.subset(idx)
                assert part.source is sset.source
                assert np.array_equal(part.windows, sset.windows[idx])
                assert np.array_equal(part.labels, sset.labels[idx])
                assert np.array_equal(part.unit_ids, sset.unit_ids[idx])
                again = part.subset(np.array([4, 0, 2]))  # indices compose
                assert again.source is sset.source
                assert np.array_equal(again.windows, sset.windows[idx][[4, 0, 2]])

    def test_model_inputs_gathers_the_selection(self, tmp_path):
        for sset in self.sets(tmp_path):
            every = sset.model_inputs()
            mask = np.arange(len(sset)) % 3 == 1
            for idx in (np.array([5, 1, 1, 9]), slice(3, 11), slice(None, None, 4), mask):
                got = sset.model_inputs(idx)
                assert got.flags.c_contiguous
                assert np.array_equal(got, every[idx])

    def test_container_windows_do_not_depend_on_the_storage(self, tmp_path):
        # shared rows are stored once, separate windows end to end: the bytes differ
        write_turbofan_files(tmp_path, n_units=20, min_len=60)  # over 1,024 windows
        lazy = D.load_cmapss(tmp_path, "FD001", window=2)
        plain = D.SampleSet(lazy.windows, lazy.labels, lazy.task)
        assert len(lazy) > 1024
        for name, sset in (("lazy.mtsd", lazy.subset(slice(1, None))),
                           ("plain.mtsd", plain.subset(slice(1, None)))):
            D.save_canonical(tmp_path / name, sset)
            loaded = D.load_canonical(tmp_path / name)
            assert loaded.windows.tobytes() == lazy.windows[1:].tobytes()
            assert np.array_equal(loaded.labels, lazy.labels[1:])
        rows = len(lazy) + 20 - 1  # a unit has a row more than windows; the cut one's first
        sizes = [(tmp_path / name).stat().st_size for name in ("lazy.mtsd", "plain.mtsd")]
        assert sizes == [D.HEADER.size + rows * 20 * 8 + (len(lazy) - 1) * D.RECORD.itemsize,
                         D.HEADER.size + (len(lazy) - 1) * (2 * 20 * 8 + D.RECORD.itemsize)]

    def test_train_split_reads_only_the_training_table(self, tmp_path):
        write_turbofan_files(tmp_path)
        expected = D.load_cmapss(tmp_path, "FD001", window=8)
        (tmp_path / "test_FD001.txt").unlink()
        (tmp_path / "RUL_FD001.txt").unlink()
        assert np.array_equal(D.load_cmapss(tmp_path, "FD001", window=8).windows,
                              expected.windows)


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
        with pytest.raises(FormatError, match="row 3"):
            D.load_csv(path, window=1)

    # each text loads as the per-line parser it replaced loaded it
    @pytest.mark.parametrize("text,values,labels,task,names", [
        pytest.param("a,b,label\n1,2,0.5\n\n  \n\t\n3,4,1.5\n\n", [[1, 2], [3, 4]], [0.5, 1.5],
                     "regression", ["a", "b"], id="blank-and-whitespace-only-lines"),
        pytest.param("a,b,label\r\n1,2,0.5\r\n3,4,1.5\r\n", [[1, 2], [3, 4]], [0.5, 1.5],
                     "regression", ["a", "b"], id="crlf"),
        pytest.param(" a , b ,label \n 1 , 2 ,0.5\n3\t, 4, 1.5 \n", [[1, 2], [3, 4]],
                     [0.5, 1.5], "regression", ["a ", " b "], id="spaces-around-fields"),
        pytest.param("a,label\n1e3,1_0\n1_0,2e-1\n", [[1000], [10]], [10, 0.2],
                     "regression", ["a"], id="exponent-and-underscore"),
        pytest.param("x,label\n1,walk\n2,run\n3,walk\n4,sit\n", [[1], [2], [3], [4]],
                     [2, 0, 2, 1], "classification", ["x"], id="string-labels"),
        pytest.param("température,durée,label\n1,2,0\n", [[1, 2]], [0], "regression",
                     ["température", "durée"], id="non-ascii-header"),
    ])
    def test_accepted_text(self, tmp_path, text, values, labels, task, names):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        sset = D.load_csv(path, window=1)
        expected = D.SampleSet(np.array(values, dtype=float)[:, :, None, None], labels, task,
                               names)
        assert np.array_equal(sset.windows, expected.windows)
        assert np.array_equal(sset.labels, expected.labels)
        assert (sset.task, sset.sensor_names) == (expected.task, expected.sensor_names)

    def test_blank_first_line_is_skipped_like_any_blank_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("\n  \na,label\n1,0.5\n")
        sset = D.load_csv(path)
        assert sset.sensor_names == ["a"] and sset.labels.tolist() == [0.5]

    # rows count from 1 at the header; blank lines are not counted
    @pytest.mark.parametrize("text,task,message", [
        pytest.param("a,b,label\n\n1,2,0.5\n\n1,2\n", None, "changed from 3 to 2 at row 3",
                     id="ragged-row"),
        pytest.param("a,b,label\n1,2,0.5\n3,4x,1.5\n", None,
                     "could not convert string '4x' to float64 at row 3, column 2",
                     id="unparsable-value"),
        pytest.param("label,a,b\n0,1,2\n\n1,2,3\n2,3,x\n", None,
                     "'x' to float64 at row 4, column 3", id="bad-value-after-the-label"),
        pytest.param("a,label\n1,0.5\n2,walk\n", "regression",
                     "'walk' to float64 at row 3, column 2", id="string-label-for-regression"),
        pytest.param("a,b,label\n1,2,0.5,\n", None, "changed from 3 to 4 at row 2",
                     id="trailing-comma"),
        pytest.param("", None, "no data rows", id="empty-file"),
        pytest.param("a,b,label\n\n", None, "0 data rows", id="header-only"),
    ])
    def test_rejected_text_names_file_and_row(self, tmp_path, text, task, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError) as exc:
                D.load_csv(path, task=task)
        assert str(path) in str(exc.value) and message in str(exc.value)

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


def test_model_inputs_fold_channels():
    # channel c of sensor n becomes virtual sensor n*C + c; C=1 squeezes
    x = np.arange(2 * 2 * 3 * 2, dtype=float).reshape(2, 2, 3, 2)
    folded = D.SampleSet(x, np.zeros(2), "regression").model_inputs()
    assert folded.shape == (2, 4, 3)
    assert np.array_equal(folded[1, 0], x[1, 0, :, 0])
    assert np.array_equal(folded[1, 1], x[1, 0, :, 1])
    assert np.array_equal(folded[1, 2], x[1, 1, :, 0])
    single = D.SampleSet(x[..., :1], np.zeros(2), "regression").model_inputs()
    assert np.array_equal(single, x[..., 0])


class TestSplit:
    def _set(self, n_units=100, per_unit=3):
        units = np.repeat(np.arange(n_units), per_unit)
        windows = np.random.default_rng(0).normal(size=(len(units), 2, 4, 1))
        return D.SampleSet(windows, np.zeros(len(units)), "regression",
                           unit_ids=units)

    def test_deterministic(self):
        a = D.carve_validation(self._set(), 0.1, seed=3)
        b = D.carve_validation(self._set(), 0.1, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.windows, y.windows)

    def test_unit_fractions(self):
        # per sample without unit ids; the carve-out holds at least one
        sset = self._set(30)
        sset.unit_ids = None
        train, valid = D.carve_validation(sset, 0.1, seed=0)
        assert (len(train), len(valid)) == (81, 9)
        train, valid = D.carve_validation(self._set(3), 0.1, seed=0)
        assert len(np.unique(valid.unit_ids)) == 1

    def test_no_unit_leakage(self):
        sset = self._set(50)
        train, valid = D.carve_validation(sset, 0.2, seed=1)
        assert not (set(train.unit_ids) & set(valid.unit_ids))
        assert len(train) + len(valid) == len(sset)

    def test_bad_fractions(self):
        for frac in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                D.carve_validation(self._set(10), frac, seed=0)

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
        # separate windows are stored end to end: S * T rows of (N, C), then S records
        sset = D.SampleSet(np.zeros((4, 3, 5, 2)), np.zeros(4), "classification")
        path = tmp_path / "c.mtsd"
        D.save_canonical(path, sset)
        assert path.stat().st_size == 29 + 4 * 5 * (3 * 2) * 8 + 4 * (8 + 8 + 8)

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
        # version 2: every window views one read-only row table, sample k's from row k * T
        rng = np.random.default_rng(2)
        sset = D.SampleSet(rng.normal(size=(3, 2, 4, 2)), rng.normal(size=3), "regression")
        path = tmp_path / "v.mtsd"
        D.save_canonical(path, sset)
        loaded = D.load_canonical(path)
        assert np.array_equal(loaded.windows, sset.windows)
        assert np.array_equal(loaded.labels, sset.labels)
        assert np.array_equal(loaded.index, [0, 4, 8]) and loaded.unit_ids is None
        assert not loaded.source.flags.writeable
        assert np.shares_memory(loaded.source[0], loaded.source[1])
        assert len(loaded.source) == 3 * 4 - 4 + 1

    def test_nan_rejected(self):
        windows = np.zeros((1, 2, 2, 1))
        windows[0, 0, 0, 0] = np.nan
        with pytest.raises(FormatError):
            D.SampleSet(windows, np.zeros(1), "regression")

    @pytest.mark.parametrize("label,value,message", [
        (-1.0, 0.0, "classification labels must be non-negative integers"),
        (1.0, np.inf, "NaN or infinite values after ingestion"),
    ])
    def test_value_errors_name_the_file(self, tmp_path, label, value, message):
        path = tmp_path / "bad.mtsd"
        D.save_canonical(path, D.SampleSet(np.zeros((2, 2, 3, 1)), np.zeros(2),
                                           "classification"))
        raw = bytearray(path.read_bytes())
        _, rows, records = v2_parts(raw)
        records["label"][1], rows[5] = label, value  # past the construction-time checks
        path.write_bytes(raw)
        with pytest.raises(FormatError) as info:
            D.load_canonical(path)
        assert str(info.value) == f"{path}: {message}"


def v2_parts(raw: bytearray):
    """Writable views of a version 2 container's header dimensions, rows and records."""
    s, r, n, t, c = struct.unpack_from("<5I", raw, 8)
    rows = np.frombuffer(raw, "<f8", r * n * c, D.HEADER.size)
    records = np.frombuffer(raw, D.RECORD, s, D.HEADER.size + rows.nbytes)
    return (s, r, n, t, c), rows, records


def v1_bytes(windows, labels, task_code=0) -> bytes:
    """A version 1 container: a 25-byte header, then a window and a label per sample."""
    s, n, t, c = windows.shape
    records = np.empty(s, [("window", "<f8", (n, t, c)), ("label", "<f8")])
    records["window"], records["label"] = windows, labels
    return struct.pack("<4sIIIIIB", b"MTSD", 1, s, n, t, c, task_code) + records.tobytes()


def every_kind_of_set(tmp_path) -> dict:
    """A turbofan train and test split (one test unit shorter than the window), a CSV set
    and a set built from an array."""
    write_turbofan_files(tmp_path)
    csv = tmp_path / "toy.csv"
    rng = np.random.default_rng(4)
    csv.write_text("a,b,label\n" + "".join(f"{rng.normal()},{rng.normal()},{rng.normal()}\n"
                                           for _ in range(12)))
    return {
        "train": D.load_cmapss(tmp_path, "FD001", window=8),
        "test": D.load_cmapss(tmp_path, "FD001", window=14, split="test"),
        "csv": D.load_csv(csv, window=3),
        "direct": D.SampleSet(rng.normal(size=(5, 3, 4, 2)), rng.normal(size=5), "regression"),
    }


class TestContainerRows:
    """Version 2 stores the rows a set's windows cover and one window start per sample."""

    @pytest.mark.parametrize("kind", ["train", "test", "csv", "direct"])
    def test_load_save_is_byte_identical_and_windows_exact(self, tmp_path, kind):
        sset = every_kind_of_set(tmp_path)[kind]
        first, again = tmp_path / "a.mtsd", tmp_path / "b.mtsd"
        D.save_canonical(first, sset)
        loaded = D.load_canonical(first)
        D.save_canonical(again, loaded)
        assert first.read_bytes() == again.read_bytes()
        assert loaded.windows.tobytes() == sset.windows.tobytes()
        assert loaded.labels.tobytes() == sset.labels.tobytes()
        assert loaded.task == sset.task
        if sset.unit_ids is None:
            assert loaded.unit_ids is None
        else:
            assert np.array_equal(loaded.unit_ids, sset.unit_ids)

    def test_container_holds_the_rows_its_windows_cover(self, tmp_path):
        sets = every_kind_of_set(tmp_path)
        lengths = trajectory_lengths(tmp_path / "test_FD001.txt")
        assert lengths.min() < 14  # a test unit is padded to the window
        expected = {"train": trajectory_lengths(tmp_path / "train_FD001.txt").sum(),
                    "test": 5 * 14, "csv": 12, "direct": 5 * 4}
        for kind, sset in sets.items():
            path = tmp_path / f"{kind}.mtsd"
            D.save_canonical(path, sset)
            (s, r, n, t, c), _, records = v2_parts(bytearray(path.read_bytes()))
            assert (s, r) == (len(sset), expected[kind])
            if kind != "train":  # separate windows are stored end to end
                assert np.array_equal(records["start"], np.arange(s) * t)

    def test_version_1_files_still_load(self, tmp_path):
        rng = np.random.default_rng(5)
        windows, labels = rng.normal(size=(4, 3, 5, 2)), np.array([0.0, 2.0, 1.0, 2.0])
        path = tmp_path / "v1.mtsd"
        for code, task in ((0, "regression"), (1, "classification")):
            path.write_bytes(v1_bytes(windows, labels, code))
            loaded = D.load_canonical(path)
            assert loaded.windows.tobytes() == windows.tobytes()
            assert loaded.labels.tobytes() == labels.tobytes()
            assert (loaded.task, loaded.unit_ids) == (task, None)
            assert np.array_equal(loaded.index, np.arange(4) * 5)
        path.write_bytes(v1_bytes(windows, labels)[:-1])
        with pytest.raises(FormatError, match=f"{path}: size"):
            D.load_canonical(path)

    def test_every_set_views_its_rows_through_an_index(self, tmp_path):
        sets = every_kind_of_set(tmp_path)
        rng = np.random.default_rng(6)
        windows, labels = rng.normal(size=(4, 3, 5, 2)), rng.normal(size=4)
        (tmp_path / "v1.mtsd").write_bytes(v1_bytes(windows, labels))
        sets["v1"] = D.load_canonical(tmp_path / "v1.mtsd")
        sets["subset"] = sets["direct"].subset(np.array([3, 0, 2]))
        for kind, sset in sets.items():
            source = sset.source
            assert not source.flags.writeable, kind
            assert source.strides[0] == source.strides[2], kind  # one row per window
            assert sset.index is not None and len(sset.index) == len(sset), kind
        # an index over windows that do not share rows picks whole windows
        picked = D.SampleSet(windows, labels[[2, 0]], "regression", index=np.array([2, 0]))
        assert np.array_equal(picked.windows, windows[[2, 0]])
        path = tmp_path / "picked.mtsd"
        D.save_canonical(path, picked)
        assert D.load_canonical(path).windows.tobytes() == windows[[2, 0]].tobytes()

    def test_unit_id_minus_one_is_refused(self, tmp_path):
        sset = D.SampleSet(np.zeros((2, 2, 3, 1)), np.zeros(2), "regression",
                           unit_ids=np.array([-1, 2]))
        with pytest.raises(ConfigError, match="unit id -1"):
            D.save_canonical(tmp_path / "u.mtsd", sset)
        assert not (tmp_path / "u.mtsd").exists()

    @staticmethod
    def corrupt(raw: bytearray, fault: str) -> None:
        (s, r, n, t, c), rows, records = v2_parts(raw)
        if fault == "start":
            records["start"][3] = r - t + 1
        elif fault in "SRNTC":
            field = 8 + 4 * "SRNTC".index(fault)
            struct.pack_into("<I", raw, field, struct.unpack_from("<I", raw, field)[0] + 1)
        elif fault == "units":
            records["unit"][-1] = -1
        elif fault == "row":
            rows[7] = np.nan
        else:
            records["label"][2] = np.inf

    @pytest.mark.parametrize("fault,message", [
        ("start", "a window of 8 rows runs past row"),
        ("S", "size"), ("R", "size"), ("N", "size"), ("C", "size"),
        ("T", "a window of 9 rows runs past row"),  # the size does not depend on T
        ("units", "unit ids mix -1 (no unit) with real ids"),
        ("row", "NaN or infinite values after ingestion"),
        ("label", "NaN or infinite values after ingestion"),
    ])
    def test_corrupt_container_names_the_file_and_exits_two(self, tmp_path, capsys, fault,
                                                              message):
        path = tmp_path / "fd001.mtsd"
        D.save_canonical(path, every_kind_of_set(tmp_path)["train"])
        raw = bytearray(path.read_bytes())
        self.corrupt(raw, fault)
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{path}: ") as info:
            D.load_canonical(path)
        assert message in str(info.value)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"
