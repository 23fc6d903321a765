"""Dataset ingestion, windowing, normalization and serialization.

Two input paths, each file read by one `np.loadtxt` call in `_read_table`:
the standard turbofan degradation text format (space-separated, 26
columns) for RUL regression, and a generic windowed CSV for either task.
Both produce a `SampleSet`, which can be written to and read from a
canonical binary container byte-exactly.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"MTSD"
VERSION = 1
TASK_CODES = {"regression": 0, "classification": 1}
TASK_NAMES = {v: k for k, v in TASK_CODES.items()}


@dataclass
class SampleSet:
    windows: np.ndarray                 # (S, N, T, C) float64
    labels: np.ndarray                  # (S,) float64 (class index for classification)
    task: str
    sensor_names: list[str] = field(default_factory=list)
    norm_stats: dict | None = None      # {"mean": (channels,), "std": (channels,)}
    unit_ids: np.ndarray | None = None  # trajectory id per sample, for a unit-level carve-out

    def __post_init__(self):
        if self.task not in TASK_CODES:
            raise ConfigError(f"unknown task {self.task!r}")
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if self.windows.ndim != 4:
            raise ConfigError(f"windows must be (S, N, T, C), got {self.windows.shape}")
        if len(self.labels) != len(self.windows):
            raise ConfigError("label count does not match window count")
        if not (np.isfinite(self.windows).all() and np.isfinite(self.labels).all()):
            raise FormatError("NaN or infinite values after ingestion")

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.windows.shape[1:]

    @property
    def n_classes(self) -> int:
        if self.task != "classification":
            return 0
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def model_inputs(self) -> np.ndarray:
        """Fold channels into virtual sensors: (S, N*C, T)."""
        s, n, t, c = self.windows.shape
        return self.windows.transpose(0, 1, 3, 2).reshape(s, n * c, t)

    def subset(self, idx) -> "SampleSet":
        return SampleSet(self.windows[idx], self.labels[idx], self.task,
                         self.sensor_names, self.norm_stats,
                         None if self.unit_ids is None else self.unit_ids[idx])


# -- turbofan text format -------------------------------------------------

CMAPSS_COLUMNS = 26  # unit, cycle, 3 settings, 21 sensors


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
                raise FormatError(f"{path}: {exc}") from None
            table = _read_table(path, columns, delimiter, object)  # repeats a shape error
    if not table.size:
        raise FormatError(f"{path}: no data rows")
    if columns is not None and table.shape[1] != columns:
        raise FormatError(f"{path}: {table.shape[1]} columns, expected {columns}")
    return table if dtype is object else _floats(path, table, np.arange(table.shape[1]), 1)


def load_cmapss(data_dir, subset: str, window: int = 30, rul_cap: float = 125.0,
                split: str = "train") -> SampleSet:
    """Load one turbofan subset (FD001..FD004) as sliding-window samples.

    Zero-variance sensors (on the training trajectories) are dropped and
    the rest z-score normalized with training statistics. RUL labels are
    capped piecewise-linearly at `rul_cap`. Rows are stable-sorted by unit,
    and each window is named by its end row: in the train split every row
    at least `window - 1` rows after its unit's first row, in the test split
    each unit's last row (labeled from the ground-truth RUL file). Both
    splits share one gather: row j of a window is max(end - window + 1 + j,
    first), so a test trajectory shorter than the window repeats its first
    cycle.
    """
    data_dir = Path(data_dir)
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if not rul_cap > 0:
        raise ConfigError(f"rul_cap must be > 0, got {rul_cap}")
    train = _read_table(data_dir / f"train_{subset}.txt", CMAPSS_COLUMNS)
    sensors = train[:, 5:]
    keep = sensors.std(axis=0) > 1e-12
    names = [f"s{i + 1}" for i in range(21) if keep[i]]
    mean = sensors[:, keep].mean(axis=0)
    std = sensors[:, keep].std(axis=0)

    table = train if split == "train" else _read_table(
        data_dir / f"test_{subset}.txt", CMAPSS_COLUMNS)
    table = table[np.argsort(table[:, 0], kind="stable")]
    unit_ids, first, counts = np.unique(table[:, 0], return_index=True, return_counts=True)
    last = first + counts - 1
    if split == "train":
        unit = np.repeat(np.arange(len(unit_ids)), counts)  # unit position of each row
        ends = np.flatnonzero(np.arange(len(table)) - first[unit] >= window - 1)
        if not len(ends):
            raise ConfigError(f"window {window} is longer than every training trajectory")
        unit = unit[ends]
        labels = last[unit] - ends  # 0 at end of life
    else:
        rul_path = data_dir / f"RUL_{subset}.txt"
        truth = _read_table(rul_path, columns=1)[:, 0]
        if len(truth) < len(unit_ids):
            raise FormatError(
                f"{rul_path}: {len(truth)} RUL values for {len(unit_ids)} test units")
        unit, ends, labels = np.arange(len(unit_ids)), last, truth[:len(unit_ids)]

    values = (table[:, 5:][:, keep] - mean) / std  # (rows, channels)
    rows = np.maximum(ends[:, None] + np.arange(1 - window, 1), first[unit][:, None])
    windows = values[rows[:, None, :], np.arange(values.shape[1])[:, None]]  # (S, N, T)
    return SampleSet(windows[..., None], np.minimum(rul_cap, labels), "regression", names,
                     {"mean": mean, "std": std}, unit_ids[unit].astype(int))


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
    """`rows[:, columns]` as float64, else a FormatError naming the first cell that float()
    rejects or that is not finite. `first_row` is the row number of `rows[0]`."""
    cells = rows[:, columns]
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
    row, col = divmod(at, len(columns))
    raise FormatError(f"{path}: {problem} at row {row + first_row}, column {columns[col] + 1}")


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
# Layout (little-endian): magic b"MTSD", u32 version, u32 S, N, T, C, u8 task
# code (25 bytes), then S records of an (N, T, C) f64 window and an f64 label.

HEADER = struct.Struct("<4sIIIIIB")


def _record_dtype(n: int, t: int, c: int) -> np.dtype:
    return np.dtype([("window", "<f8", (n, t, c)), ("label", "<f8")])


def save_canonical(path, sset: SampleSet) -> None:
    s, n, t, c = sset.windows.shape
    records = np.empty(s, dtype=_record_dtype(n, t, c))
    records["window"] = sset.windows
    records["label"] = sset.labels
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, s, n, t, c, TASK_CODES[sset.task]))
        records.tofile(fh)


def load_canonical(path) -> SampleSet:
    """Read a container with one structured read; windows and labels are views."""
    path = Path(path)
    with open(path, "rb") as fh:  # a missing file raises FileNotFoundError, an IOError
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER.size)
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < HEADER.size:
            raise FormatError(f"{path}: header truncated at {len(head)} bytes")
        _, version, s, n, t, c, task_code = HEADER.unpack(head)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if task_code not in TASK_NAMES:
            raise FormatError(f"{path}: unknown task code {task_code}")
        expected = HEADER.size + s * (n * t * c + 1) * 8
        if size != expected:
            raise FormatError(f"{path}: size {size} != expected {expected}")
        try:
            dtype = _record_dtype(n, t, c)
        except ValueError:  # only an empty container can claim such dimensions
            raise FormatError(f"{path}: window shape {(n, t, c)} too large") from None
        records = np.fromfile(fh, dtype=dtype, count=s)
    return SampleSet(records["window"], records["label"], TASK_NAMES[task_code])
