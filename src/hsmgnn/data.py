"""Dataset ingestion, windowing, normalization and serialization.

Two input paths: the standard turbofan degradation text format
(space-separated, 26 columns) for RUL regression, and a generic
windowed CSV for either task. Both produce a `SampleSet`, which can be
written to and read from a canonical binary container byte-exactly.
"""

from __future__ import annotations

import os
import struct
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
    unit_ids: np.ndarray | None = None  # trajectory id per sample, for leakage-free splits

    def __post_init__(self):
        if self.task not in TASK_CODES:
            raise ConfigError(f"unknown task {self.task!r}")
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if self.windows.ndim != 4:
            raise ConfigError(f"windows must be (S, N, T, C), got {self.windows.shape}")
        if len(self.labels) != len(self.windows):
            raise ConfigError("label count does not match window count")
        if np.isnan(self.windows).any() or np.isnan(self.labels).any():
            raise FormatError("NaN values after ingestion")

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


def _read_cmapss_table(path: Path) -> np.ndarray:
    if not path.exists():
        raise IOError(f"missing file: {path}")
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != CMAPSS_COLUMNS:
                raise FormatError(
                    f"{path}: line {lineno} has {len(parts)} columns, expected {CMAPSS_COLUMNS}"
                )
            rows.append([float(v) for v in parts])
    return np.array(rows, dtype=np.float64)


def load_cmapss(data_dir, subset: str, window: int = 30, rul_cap: float = 125.0,
                split: str = "train") -> SampleSet:
    """Load one turbofan subset (FD001..FD004) as sliding-window samples.

    Zero-variance sensors (on the training trajectories) are dropped and
    the rest z-score normalized with training statistics. RUL labels are
    capped piecewise-linearly at `rul_cap`. The test split yields one
    window per unit (its last), labeled from the ground-truth RUL file.
    """
    data_dir = Path(data_dir)
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    train = _read_cmapss_table(data_dir / f"train_{subset}.txt")
    sensors = train[:, 5:]
    keep = sensors.std(axis=0) > 1e-12
    names = [f"s{i + 1}" for i in range(21) if keep[i]]
    mean = sensors[:, keep].mean(axis=0)
    std = sensors[:, keep].std(axis=0)
    stats = {"mean": mean, "std": std}

    if split == "train":
        table = train
        truth = None
    else:
        table = _read_cmapss_table(data_dir / f"test_{subset}.txt")
        rul_path = data_dir / f"RUL_{subset}.txt"
        if not rul_path.exists():
            raise IOError(f"missing file: {rul_path}")
        truth = np.loadtxt(rul_path).reshape(-1)

    windows, labels, units = [], [], []
    unit_ids = np.unique(table[:, 0]).astype(int)
    for pos, uid in enumerate(sorted(unit_ids)):
        traj = table[table[:, 0] == uid]
        values = (traj[:, 5:][:, keep] - mean) / std   # (cycles, channels)
        n_cyc = len(values)
        if split == "train":
            if n_cyc < window:
                continue
            for start in range(n_cyc - window + 1):
                end = start + window
                rul = float(n_cyc - end)  # 0 at end of life
                windows.append(values[start:end].T)
                labels.append(min(rul_cap, rul))
                units.append(uid)
        else:
            if n_cyc < window:  # pad short trajectories by repeating the first cycle
                values = np.vstack([np.repeat(values[:1], window - n_cyc, axis=0), values])
            windows.append(values[-window:].T)
            labels.append(min(rul_cap, float(truth[pos])))
            units.append(uid)

    arr = np.stack(windows)[:, :, :, None]  # (S, N, T, 1)
    return SampleSet(arr, np.array(labels), "regression", names, stats,
                     np.array(units))


# -- generic windowed CSV -------------------------------------------------

def load_csv(path, label_column: str = "label", window: int = 1,
             task: str | None = None) -> SampleSet:
    """Load a headered CSV with sensor columns and one label column.

    Consecutive groups of `window` rows form one sample of shape
    (sensors, window, 1); the group's last label is the sample label.
    String labels imply classification with classes in sorted order.
    """
    path = Path(path)
    if not path.exists():
        raise IOError(f"missing file: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if label_column not in header:
            raise FormatError(f"{path}: no {label_column!r} column in header")
        label_idx = header.index(label_column)
        sensor_names = [h for h in header if h != label_column]
        rows, raw_labels = [], []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise FormatError(
                    f"{path}: line {lineno} has {len(parts)} fields, expected {len(header)}"
                )
            raw_labels.append(parts[label_idx])
            try:
                rows.append([float(p) for i, p in enumerate(parts) if i != label_idx])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
    if len(rows) % window != 0:
        raise FormatError(
            f"{path}: {len(rows)} data rows not divisible by window length {window}"
        )
    values = np.array(rows, dtype=np.float64)
    if task is None:
        task = "regression"
        try:
            [float(v) for v in raw_labels]
        except ValueError:
            task = "classification"
    if task == "classification":
        classes = sorted(set(raw_labels))
        mapping = {c: i for i, c in enumerate(classes)}
        labels_all = np.array([mapping[v] for v in raw_labels], dtype=np.float64)
    else:
        labels_all = np.array([float(v) for v in raw_labels])
    s = len(rows) // window
    windows = values.reshape(s, window, -1).transpose(0, 2, 1)[:, :, :, None]
    labels = labels_all.reshape(s, window)[:, -1]
    return SampleSet(windows, labels, task, sensor_names)


# -- splitting ------------------------------------------------------------

def split(sset: SampleSet, train_frac: float, valid_frac: float,
          seed: int = 0) -> tuple[SampleSet, SampleSet, SampleSet]:
    """Deterministic (train, valid, test) split; unit-level when ids exist."""
    if not (0.0 < train_frac < 1.0) or not (0.0 < valid_frac < 1.0):
        raise ConfigError("fractions must lie in (0, 1)")
    if train_frac + valid_frac >= 1.0:
        raise ConfigError("train_frac + valid_frac must leave room for a test share")
    rng = np.random.default_rng(seed)
    if sset.unit_ids is not None:
        units = np.sort(np.unique(sset.unit_ids))
        rng.shuffle(units)
        n_train = int(round(train_frac * len(units)))
        n_valid = int(round(valid_frac * len(units)))
        groups = (units[:n_train], units[n_train:n_train + n_valid],
                  units[n_train + n_valid:])
        parts = [np.isin(sset.unit_ids, g) for g in groups]
    else:
        order = rng.permutation(len(sset))
        n_train = int(round(train_frac * len(sset)))
        n_valid = int(round(valid_frac * len(sset)))
        parts = [order[:n_train], order[n_train:n_train + n_valid],
                 order[n_train + n_valid:]]
    out = tuple(sset.subset(p) for p in parts)
    if any(len(p) == 0 for p in out):
        raise ConfigError("split produced an empty partition")
    return out


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
    if not path.exists():
        raise IOError(f"missing file: {path}")
    with open(path, "rb") as fh:
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
