"""Dataset ingestion, windowing, normalization and serialization.

Two input paths, each file read by one `np.loadtxt` call in `_read_table`:
the standard turbofan degradation text format (space-separated, 26
columns) for RUL regression, and a generic windowed CSV for either task.
Both produce a `SampleSet`, which can be written to and read from a
canonical binary container byte-exactly.

Every `SampleSet` holds a read-only sliding-window view of a row table and the
start of each sample's window in it, so overlapping windows share their rows: a
turbofan set views its normalized rows, and windows given whole are laid end to
end as rows once, at construction. From text to a trained model nothing builds an
(S, N, T, C) array, since `subset` composes indices over the same source and
`model_inputs` gathers one batch at a time. The container stores the rows a set's
windows cover and each sample's window start and unit id, and a set read from it
views those rows as `load_cmapss` views its own, so a prepared set keeps its units
for the validation carve-out.

A turbofan test split is normalized with its training table's statistics. The process
keeps those of the last few training tables parsed, keyed by a digest of each file's
bytes, so a test split loaded after its train split parses only the test files.
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, FormatError

MAGIC = b"MTSD"
VERSION = 2
TASK_CODES = {"regression": 0, "classification": 1}
TASK_NAMES = {v: k for k, v in TASK_CODES.items()}


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError("NaN or infinite values after ingestion")


@dataclass
class SampleSet:
    """Labeled windows: sample i is `source[index[i]]`.

    After construction the source is always a read-only (W, N, T, C) view whose
    window k holds rows k..k+T-1 of a finite-checked row table (`_sliding_windows`),
    and `index` holds each sample's window start. Windows given without an index, or
    a source whose windows do not step one row at a time, are laid end to end as an
    (S*T, N, C) row table (a reshape view when the rows are already in that order,
    else one copy) and sample k starts at row k*T. `subset` shares the source; only
    `windows` builds an (S, N, T, C) copy.
    """

    source: np.ndarray                  # (W, N, T, C) float64
    labels: np.ndarray                  # (S,) float64 (class index for classification)
    task: str
    sensor_names: list[str] = field(default_factory=list)
    norm_stats: dict | None = None      # {"mean": (channels,), "std": (channels,)}
    unit_ids: np.ndarray | None = None  # trajectory id per sample, for a unit-level carve-out
    index: np.ndarray | None = None     # (S,) source window of each sample

    def __post_init__(self):
        if self.task not in TASK_CODES:
            raise ConfigError(f"unknown task {self.task!r}")
        self.source = np.asarray(self.source, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if self.source.ndim != 4:
            raise ConfigError(f"windows must be (S, N, T, C), got {self.source.shape}")
        if self.index is None or self.source.strides[0] != self.source.strides[2]:
            windows = self.source if self.index is None else self.source[self.index]
            s, n, t, c = windows.shape
            self.source = _sliding_windows(windows.transpose(0, 2, 1, 3).reshape(s * t, n, c), t)
            self.index = np.arange(s) * t
        if len(self.labels) != len(self.index):
            raise ConfigError("label count does not match window count")
        _check_finite(self.labels)
        if self.task == "classification" and not (
                (self.labels >= 0) & (self.labels == np.floor(self.labels))).all():
            raise FormatError("classification labels must be non-negative integers")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.source.shape[1:]

    @property
    def windows(self) -> np.ndarray:
        """(S, N, T, C): a C-contiguous copy of every sample's window."""
        return np.ascontiguousarray(self.source[self.index])

    @property
    def n_classes(self) -> int:
        if self.task != "classification":
            return 0
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def model_inputs(self, idx=slice(None)) -> np.ndarray:
        """The samples `idx` selects (all by default), channels folded into virtual
        sensors: (S, N*C, T), C-contiguous."""
        windows = self.source[self.index[idx]]
        s, n, t, c = windows.shape
        return np.ascontiguousarray(windows.transpose(0, 1, 3, 2).reshape(s, n * c, t))

    def subset(self, idx) -> "SampleSet":
        """The samples an integer or boolean `idx` selects, sharing this set's source."""
        return SampleSet(self.source, self.labels[idx], self.task, self.sensor_names,
                         self.norm_stats, None if self.unit_ids is None else self.unit_ids[idx],
                         self.index[idx])


# -- turbofan text format -------------------------------------------------

CMAPSS_COLUMNS = 26  # unit, cycle, 3 settings, 21 sensors
TRAIN_STATS_KEPT = 4  # one training table per subset, FD001..FD004

# SHA-256 of a training table's bytes -> its kept sensor names and normalization
# statistics. A key on `os.stat` could hand one file's statistics to another of the same
# size, as inodes are reused and mtimes are coarse.
_train_stats: dict[bytes, tuple[list[str], dict]] = {}


def _read_table(path: Path, columns: int | None = None, delimiter: str | None = None,
                dtype=np.float64) -> np.ndarray:
    """The rows of a text table, read by one `np.loadtxt`, blank lines skipped.

    Lines are stripped first unless split on whitespace (`delimiter` None), where numpy
    ignores line-end whitespace and reads the file in blocks. `columns`: required field count.
    A float table passes through `_floats`, so its values are finite and take `float()`
    syntax; a token numpy does not parse makes it read the table again as text.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            table = np.loadtxt(path if delimiter is None else map(str.strip, fh), dtype=dtype,
                               delimiter=delimiter, comments=None, ndmin=2)
        except ValueError as exc:
            if dtype is object:
                # numpy's shape message ends in advice on `usecols`, not a setting here
                raise FormatError(f"{path}: {str(exc).split('; use `usecols`')[0]}") from None
            table = _read_table(path, columns, delimiter, object)  # repeats a shape error
    if not table.size:
        raise FormatError(f"{path}: no data rows")
    if columns is not None and table.shape[1] != columns:
        raise FormatError(f"{path}: {table.shape[1]} columns, expected {columns}")
    return table if dtype is object else _floats(path, table, None, 1)


def load_cmapss(data_dir, subset: str, window: int = 30, rul_cap: float = 125.0,
                split: str = "train") -> SampleSet:
    """Load one turbofan subset (FD001..FD004) as sliding-window samples.

    Zero-variance sensors (on the training trajectories) are dropped and
    the rest z-score normalized with training statistics. RUL labels are
    capped piecewise-linearly at `rul_cap`. Rows are stable-sorted by unit,
    and each window is named by its end row: in the train split every row
    at least `window - 1` rows after its unit's first row, in the test split
    each unit's last row (labeled from the ground-truth RUL file). Row j of a
    window is max(end - window + 1 + j, first), so a test trajectory shorter
    than the window repeats its first cycle. The windows are cut from the
    rows on demand (see `SampleSet`); the train split reads only the
    training table.

    Either split hashes the training table (SHA-256, about 4 ms for FD001's
    4.7 MB) and, once it is parsed, keeps its sensor names and statistics for
    the process, for the last `TRAIN_STATS_KEPT` tables. A test split whose
    training table's bytes were parsed before reuses them and parses only the
    test and RUL files. Each split gets its own copies of them. `hsmgnn
    prepare` holds the train split it just loaded, so it hands that split's
    names and statistics to `_cmapss_test` itself rather than pay a second
    digest for the same answer.
    """
    data_dir = Path(data_dir)
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if not rul_cap > 0:
        raise ConfigError(f"rul_cap must be > 0, got {rul_cap}")
    train_path = data_dir / f"train_{subset}.txt"
    digest = _file_digest(train_path)
    if split == "test" and digest in _train_stats:
        names, stats = _copied(*_train_stats[digest])
        return _cmapss_test(data_dir, subset, window, rul_cap, names, stats)
    names, units, values = _cmapss_table(train_path)
    # on the kept columns as gathered: numpy's axis-0 sums, and so the statistics' last
    # bits, vary with the columns summed and their memory layout
    stats = {"mean": values.mean(axis=0), "std": values.std(axis=0)}
    _train_stats.pop(digest, None)  # re-inserted as the newest
    if len(_train_stats) >= TRAIN_STATS_KEPT:
        del _train_stats[next(iter(_train_stats))]
    _train_stats[digest] = _copied(names, stats)
    if split == "train":
        return _cmapss_windows(units, values, window, rul_cap, names, stats)
    del units, values  # the test table is parsed without the training rows held
    return _cmapss_test(data_dir, subset, window, rul_cap, names, stats)


def _file_digest(path: Path) -> bytes:
    """The SHA-256 digest of a file's bytes, read in 64 KiB chunks."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            sha.update(chunk)
    return sha.digest()


def _copied(names: list[str], stats: dict) -> tuple[list[str], dict]:
    """Copies of a training table's sensor names and statistics, which callers may edit."""
    return list(names), {key: value.copy() for key, value in stats.items()}


def _cmapss_table(path: Path, names: list[str] | None = None
                  ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sensor `names` (by default those that vary over the table), the unit column and
    those sensors' columns of a turbofan table. The table itself is not kept."""
    table = _read_table(path, CMAPSS_COLUMNS)
    if names is None:
        keep = table[:, 5:].std(axis=0) > 1e-12
        names = [f"s{i + 1}" for i in range(21) if keep[i]]
    columns = [4 + int(name[1:]) for name in names]  # sensor s<k> is column 5 + k - 1
    return names, table[:, 0].copy(), table[:, columns]


def _cmapss_test(data_dir: Path, subset: str, window: int, rul_cap: float, names: list[str],
                 stats: dict) -> SampleSet:
    """The test split, normalized as the training split whose `names` and `stats` are given."""
    data_dir = Path(data_dir)
    _, units, values = _cmapss_table(data_dir / f"test_{subset}.txt", names)
    return _cmapss_windows(units, values, window, rul_cap, names, stats,
                           data_dir / f"RUL_{subset}.txt")


def _cmapss_windows(units: np.ndarray, values: np.ndarray, window: int, rul_cap: float,
                    names: list[str], stats: dict, rul_path: Path | None = None) -> SampleSet:
    """The windows of a turbofan table with unit column `units` and sensor columns `values`,
    as `load_cmapss` describes: the train split's, or with `rul_path` the test split's. The
    source is a sliding-window view of the normalized rows, stable-sorted by unit and each
    unit's preceded by `window - 1` copies of its first, gathered by one index: the window
    ending at row e of the sorted table, in the unit at position u (both from 0), is source
    window e + u * (window - 1) and never reaches into the unit before."""
    order = np.argsort(units, kind="stable")
    unit_ids, counts = np.unique(units, return_counts=True)
    first = np.cumsum(counts) - counts  # each unit's first row in the sorted table
    last = first + counts - 1
    if rul_path is None:
        unit = np.repeat(np.arange(len(unit_ids)), counts)  # unit position of each row
        ends = np.flatnonzero(np.arange(len(units)) - first[unit] >= window - 1)
        if not len(ends):
            raise ConfigError(f"window {window} is longer than every training trajectory")
        unit = unit[ends]
        labels = last[unit] - ends  # 0 at end of life
    else:
        truth = _read_table(rul_path, columns=1)[:, 0]
        if len(truth) != len(unit_ids):
            raise FormatError(
                f"{rul_path}: {len(truth)} RUL values for {len(unit_ids)} test units")
        unit, ends, labels = np.arange(len(unit_ids)), last, truth

    repeats = np.ones(len(units), dtype=int)
    repeats[first] = window
    rows = values[np.repeat(order, repeats)]
    rows -= stats["mean"]
    rows /= stats["std"]
    return SampleSet(_sliding_windows(rows[..., None], window), np.minimum(rul_cap, labels),
                     "regression", names, stats, unit_ids[unit].astype(np.int64),
                     ends + unit * (window - 1))


def _sliding_windows(rows: np.ndarray, t: int) -> np.ndarray:
    """A read-only (W, N, t, C) view of the (R, N, C) table `rows` whose window k holds rows
    k..k+t-1, so overlapping windows share their rows; the rows are checked finite. A table
    of fewer than `t` rows has no window."""
    _check_finite(rows)
    r, n, c = rows.shape
    step, sensor, channel = rows.strides
    return as_strided(rows, (max(r - t + 1, 0), n, t, c), (step, sensor, step, channel),
                      writeable=False)


# -- generic windowed CSV -------------------------------------------------

def load_csv(path, label_column: str = "label", window: int = 1,
             task: str | None = None) -> SampleSet:
    """Load a headered CSV with sensor columns and one label column.

    Consecutive groups of `window` rows form one sample of shape
    (sensors, window, 1); the group's last label is the sample label.
    String labels imply classification with classes in sorted order.
    Values take `float()` syntax. Error messages count rows from 1 at the
    header, blank lines not counted.
    """
    path = Path(path)
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    table = _read_table(path, delimiter=",", dtype=object)
    header, rows = table[0], table[1:]
    is_label = header == label_column
    if not is_label.any():
        raise FormatError(f"{path}: no {label_column!r} column in header")
    label_idx = np.argmax(is_label)  # the first, as sensor names exclude every match
    values = _floats(path, rows, np.delete(np.arange(len(header)), label_idx), 2)
    if task is None:
        try:
            rows[:, label_idx].astype(np.float64)
            task = "regression"
        except ValueError:
            task = "classification"
    labels_all = (np.unique(rows[:, label_idx], return_inverse=True)[1]
                  if task == "classification" else _floats(path, rows, [label_idx], 2)[:, 0])
    if not len(rows) or len(rows) % window != 0:
        raise FormatError(
            f"{path}: {len(rows)} data rows, not a positive multiple of window length {window}"
        )
    s = len(rows) // window
    windows = values.reshape(s, window, -1).transpose(0, 2, 1)[:, :, :, None]
    labels = labels_all.reshape(s, window)[:, -1]
    return SampleSet(windows, labels, task, header[~is_label].tolist())


def _floats(path: Path, rows: np.ndarray, columns, first_row: int) -> np.ndarray:
    """`rows[:, columns]` (`rows` itself if `columns` is None) as float64, else a FormatError
    naming the first cell that float() rejects or that is not finite. `first_row` is the row
    number of `rows[0]`."""
    cells = rows if columns is None else rows[:, columns]
    try:
        values = cells.astype(np.float64, copy=False)
    except ValueError:
        flat, lo, hi = cells.ravel(), 0, cells.size
        while hi - lo > 1:  # bisect: flat[:lo] converts, flat[lo:hi] holds a cell that does not
            mid = (lo + hi) // 2
            try:
                flat[lo:mid].astype(np.float64)
                lo = mid
            except ValueError:
                hi = mid
        at, problem = lo, f"could not convert string {str(flat[lo])!r} to float64"
    else:
        finite = np.isfinite(values)
        if finite.all():
            return values
        at = int(np.argmin(finite))  # the first non-finite cell in row-major order
        problem = f"non-finite value {values.flat[at]}"
    row, col = divmod(at, cells.shape[1])
    column = col if columns is None else columns[col]
    raise FormatError(f"{path}: {problem} at row {row + first_row}, column {column + 1}")


# -- validation carve-out -------------------------------------------------

def carve_validation(sset: SampleSet, valid_frac: float = 0.1,
                     seed: int = 0) -> tuple[SampleSet, SampleSet]:
    """Unit-level validation carve-out from a training set."""
    if not (0.0 < valid_frac < 1.0):
        raise ConfigError("valid_frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    if sset.unit_ids is not None:
        units = np.sort(np.unique(sset.unit_ids))
        rng.shuffle(units)
        n_valid = max(1, int(round(valid_frac * len(units))))
        valid_units = units[:n_valid]
        mask = np.isin(sset.unit_ids, valid_units)
        return sset.subset(~mask), sset.subset(mask)
    order = rng.permutation(len(sset))
    n_valid = max(1, int(round(valid_frac * len(sset))))
    return sset.subset(order[n_valid:]), sset.subset(order[:n_valid])


# -- canonical binary container ------------------------------------------
#
# Layout, version 2 (little-endian): magic b"MTSD", u32 version, u32 S, R, N, T, C, u8 task
# code (29 bytes); then R rows of an (N, C) f64 table; then S records of an f64 label, the
# u64 row where the sample's window starts (its T rows are start..start+T-1) and the i64
# unit id, -1 in every record of a set without unit ids. Version 1, still read, has no R:
# after its 25-byte header come S records of an (N, T, C) f64 window and an f64 label.

HEADER = struct.Struct("<4sIIIIIIB")
HEADER_V1 = struct.Struct("<4sIIIIIB")
RECORD = np.dtype([("label", "<f8"), ("start", "<u8"), ("unit", "<i8")])


def save_canonical(path, sset: SampleSet) -> None:
    """Write a version 2 container: the rows the set's windows cover, in table order, and
    each sample's window start among them, so shared rows are stored once."""
    if sset.unit_ids is not None and (sset.unit_ids == -1).any():
        raise ConfigError("unit id -1 marks a sample of no unit in a container")
    n, t, c = sset.shape
    rows, starts = _covered_rows(sset.source, sset.index)
    records = np.empty(len(sset), dtype=RECORD)
    records["label"], records["start"] = sset.labels, starts
    records["unit"] = -1 if sset.unit_ids is None else sset.unit_ids
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, len(sset), len(rows), n, t, c,
                             TASK_CODES[sset.task]))
        rows.tofile(fh)
        records.tofile(fh)


def _covered_rows(source: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (R, N, C) rows of a sliding-window `source` that its windows at `starts` cover, in
    table order, and each window's start among them."""
    w, _, t, _ = source.shape
    depth = np.cumsum(np.bincount(starts, minlength=w + t)
                      - np.bincount(starts + t, minlength=w + t))  # windows over each row
    covered = np.flatnonzero(depth)
    window = np.minimum(covered, w - 1)  # row r is step r - k of window k
    return source[window, :, covered - window, :], np.searchsorted(covered, starts)


def load_canonical(path) -> SampleSet:
    """Read a container of either version; a FormatError names the file. A version 2 set
    views the stored rows as `load_cmapss` views its own, with the unit ids the file holds;
    a version 1 set lays its records' windows end to end."""
    path = Path(path)
    with open(path, "rb") as fh:  # a missing file raises FileNotFoundError, an IOError
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER.size)
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 8:
            raise FormatError(f"{path}: header truncated at {len(head)} bytes")
        version = int.from_bytes(head[4:8], "little")
        if version not in (1, VERSION):
            raise FormatError(f"{path}: unsupported version {version}")
        header = HEADER_V1 if version == 1 else HEADER
        if len(head) < header.size:
            raise FormatError(f"{path}: header truncated at {len(head)} bytes")
        *dims, task_code = header.unpack(head[:header.size])[2:]
        if task_code not in TASK_NAMES:
            raise FormatError(f"{path}: unknown task code {task_code}")
        fh.seek(header.size)
        try:
            return (_read_v1 if version == 1 else _read_v2)(fh, size, TASK_NAMES[task_code],
                                                            *dims)
        except FormatError as exc:  # a size, window, unit id or value check
            raise FormatError(f"{path}: {exc}") from None


def _read_v1(fh, size: int, task: str, s: int, n: int, t: int, c: int) -> SampleSet:
    """The records after a version 1 header, with one structured read."""
    expected = HEADER_V1.size + s * (n * t * c + 1) * 8
    if size != expected:
        raise FormatError(f"size {size} != expected {expected}")
    try:
        dtype = np.dtype([("window", "<f8", (n, t, c)), ("label", "<f8")])
    except ValueError:  # only an empty container can claim such dimensions
        raise FormatError(f"window shape {(n, t, c)} too large") from None
    records = np.fromfile(fh, dtype=dtype, count=s)
    return SampleSet(records["window"], records["label"], task)


def _read_v2(fh, size: int, task: str, s: int, r: int, n: int, t: int, c: int) -> SampleSet:
    """The rows and records after a version 2 header."""
    expected = HEADER.size + r * n * c * 8 + s * RECORD.itemsize
    if size != expected:
        raise FormatError(f"size {size} != expected {expected}")
    rows = np.fromfile(fh, dtype="<f8", count=r * n * c).reshape(r, n, c)
    records = np.fromfile(fh, dtype=RECORD, count=s)
    if s and (t > r or int(records["start"].max()) > r - t):
        raise FormatError(f"a window of {t} rows runs past row {r}")
    none = records["unit"] == -1
    if none.any() and not none.all():
        raise FormatError("unit ids mix -1 (no unit) with real ids")
    return SampleSet(_sliding_windows(rows, t), records["label"], task, [], None,
                     None if none.all() else records["unit"].astype(np.int64),
                     records["start"].astype(np.int64))
