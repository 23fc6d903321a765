"""Deterministic synthetic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, so the same seed
always yields the same files and arrays. Sizes and signal shapes do not
depend on the seed: unit lifetimes, window counts, sensor levels and wear
sensitivities are fixed, and the seed mainly draws the noise. That keeps
the timed work, and the accuracy reached in a fixed number of steps, alike
from seed to seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RUL_CAP = 125.0
WINDOW = 30
N_UNITS = 100
N_SENSORS = 21
# Zero-based indices of the sensors held exactly constant (s1, s5, s6, s10,
# s16, s18, s19, as in the FD001 subset), so `load_cmapss` keeps 14.
CONSTANT_SENSORS = (0, 4, 5, 9, 15, 17, 18)


def lifetimes() -> np.ndarray:
    """Run-to-failure lengths 128..360 cycles, mean 206, skewed like FD001.

    Quantiles of 128 + 234 q^2 over 100 units give sum(L - 29) = 17,696
    sliding training windows at T=30.
    """
    q = (np.arange(N_UNITS) + 0.5) / N_UNITS
    return np.rint(128 + 234 * q ** 2).astype(int)


TRAIN_WINDOWS = int(np.sum(lifetimes() - WINDOW + 1))


def _trajectories(rng, lengths, rates, sensitivity, base, noise):
    """One (L, 26) table per unit: unit, cycle, 3 settings, 21 sensors.

    Wear follows d(t) = (exp(k t/L) - 1) / (exp(k) - 1), rising from 0 to 1
    at failure with the unit's rate k, so every informative sensor carries
    the remaining-useful-life signal under Gaussian noise.
    """
    tables = []
    for uid, (length, k) in enumerate(zip(lengths, rates), 1):
        t = np.arange(1, length + 1)
        wear = (np.exp(k * t / length) - 1.0) / (np.exp(k) - 1.0)
        table = np.empty((length, 26))
        table[:, 0] = uid
        table[:, 1] = t
        table[:, 2] = rng.normal(0.0, 0.002, length)
        table[:, 3] = rng.normal(0.0, 0.0003, length)
        table[:, 4] = 100.0
        sensors = base + noise * rng.standard_normal((length, N_SENSORS))
        sensors += wear[:, None] * sensitivity
        sensors[:, CONSTANT_SENSORS] = base[list(CONSTANT_SENSORS)]
        table[:, 5:] = sensors
        tables.append(table)
    return tables


def _write_table(path: Path, tables) -> None:
    fmt = ["%d", "%d"] + ["%.4f"] * 24
    np.savetxt(path, np.vstack(tables), fmt=fmt, delimiter=" ")


def write_turbofan(out_dir, seed: int) -> None:
    """Write train_/test_/RUL_FD001.txt in the 26-column turbofan layout.

    Sensor levels, noise scales, wear sensitivities and each unit's wear
    rate are fixed; the seed draws the noise, the test cut points and the
    test units' order. The test file holds 100 further units cut at a seeded
    fraction of their life; RUL_FD001.txt gives the cycles each had left.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fixed = np.random.default_rng(2512)
    base = fixed.uniform(10.0, 2000.0, N_SENSORS)
    # quarter-unit levels make the constant columns' float mean exact, so
    # their standard deviation is exactly 0 and the loader drops them
    base[list(CONSTANT_SENSORS)] = np.rint(base[list(CONSTANT_SENSORS)] * 4) / 4
    noise = fixed.uniform(0.5, 2.0, N_SENSORS)
    sensitivity = fixed.choice([-1.0, 1.0], N_SENSORS) * noise * fixed.uniform(3.0, 8.0, N_SENSORS)
    rates = fixed.uniform(2.0, 5.0, N_UNITS)
    rng = np.random.default_rng([seed, 1])
    lengths = lifetimes()
    _write_table(out_dir / "train_FD001.txt",
                 _trajectories(rng, lengths, rates, sensitivity, base, noise))
    order = rng.permutation(N_UNITS)
    test_lengths = lengths[order]
    full = _trajectories(rng, test_lengths, rates[order], sensitivity, base, noise)
    cuts = np.maximum(WINDOW + 1, np.rint(test_lengths * rng.uniform(0.3, 0.95, N_UNITS)))
    cuts = cuts.astype(int)
    _write_table(out_dir / "test_FD001.txt", [tab[:c] for tab, c in zip(full, cuts)])
    np.savetxt(out_dir / "RUL_FD001.txt", test_lengths - cuts, fmt="%d")


def wide_windows(seed: int, count: int, n_sensors: int = 128, offset: int = 0):
    """`count` windows of shape (n_sensors, WINDOW, 1) with RUL labels in [0, 125].

    Labels follow a fixed low-discrepancy sequence over [0, 125] indexed from
    `offset`, so every label set is spread evenly. The sensor values carry
    the label through a quadratic wear term on fixed per-sensor drift
    patterns; the seed draws the noise.
    """
    fixed = np.random.default_rng(2512)
    pattern = fixed.standard_normal((n_sensors, WINDOW)).cumsum(axis=1) / np.sqrt(WINDOW)
    sensitivity = fixed.choice([-1.0, 1.0], n_sensors) * fixed.uniform(1.0, 3.0, n_sensors)
    idx = np.arange(offset, offset + count)
    labels = RUL_CAP * ((idx * 0.6180339887498949) % 1.0)
    wear = (1.0 - labels / RUL_CAP) ** 2
    rng = np.random.default_rng([seed, 2, offset])
    windows = (wear[:, None, None] * (sensitivity[:, None] + pattern)[None]
               + 0.25 * rng.standard_normal((count, n_sensors, WINDOW)))
    return windows[..., None], labels


def check_sampleset(sset, n: int, count: int) -> None:
    """Raise ValueError unless the set has N sensors, `count` windows, labels in [0, 125]."""
    got_n = sset.shape[0] * sset.shape[2]
    if got_n != n or len(sset) != count or sset.shape[1] != WINDOW:
        raise ValueError(f"generated set has N={got_n}, S={len(sset)}, T={sset.shape[1]}; "
                         f"expected N={n}, S={count}, T={WINDOW}")
    if sset.labels.min() < 0.0 or sset.labels.max() > RUL_CAP:
        raise ValueError(f"labels outside [0, {RUL_CAP}]")
