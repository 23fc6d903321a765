"""Property tests: corrupted containers and arbitrary CSV text load or raise a
FormatError (or, for CSV, a ConfigError), nothing else."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hsmgnn import data as D  # noqa: E402
from hsmgnn.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from hsmgnn.errors import ConfigError, FormatError  # noqa: E402


def _turbofan_set() -> D.SampleSet:
    """Overlapping windows of 3 rows with unit ids: unit 7 has two over its four cycles,
    unit 9 one cycle repeated to fill the window, as a test unit shorter than it is."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(7, 2, 1))
    rows[4:6] = rows[6]
    source = np.lib.stride_tricks.sliding_window_view(rows, 3, axis=0).transpose(0, 1, 3, 2)
    return D.SampleSet(source, rng.normal(size=3), "regression", unit_ids=np.array([7, 7, 9]),
                       index=np.array([0, 1, 4]))


def _valid_bytes(name: str) -> bytes:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        if name.endswith(".hsmg"):
            save_checkpoint(path, {"mlp.w1": rng.normal(size=(3, 4)),
                                   "mlp.b1": rng.normal(size=3),
                                   "scalar": np.array(2.0)})
        elif name == "turbofan.mtsd":
            D.save_canonical(path, _turbofan_set())
        else:
            D.save_canonical(path, D.SampleSet(rng.normal(size=(3, 2, 4, 1)),
                                               rng.normal(size=3), "regression"))
        with open(path, "rb") as fh:
            return fh.read()


VALID = {name: _valid_bytes(name) for name in ("valid.hsmg", "valid.mtsd", "turbofan.mtsd")}
LOADERS = {".hsmg": load_checkpoint, ".mtsd": D.load_canonical}


def loads_or_format_error(name: str, raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt-" + name)
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            LOADERS[os.path.splitext(name)[1]](path)
        except FormatError:
            pass


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(VALID)), data=st.data())
def test_every_prefix_loads_or_raises_format_error(name, data):
    raw = VALID[name]
    size = data.draw(st.integers(0, len(raw)))
    loads_or_format_error(name, raw[:size])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(VALID)), data=st.data())
def test_every_bit_flip_loads_or_raises_format_error(name, data):
    raw = bytearray(VALID[name])
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    loads_or_format_error(name, bytes(raw))


CSV_CHARS = st.one_of(st.sampled_from("0123456789.e_-+,, \t\r\n\nlabelinfwx"), st.characters())


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["a,label", "a,b,label", "label,a", "label", "a", ""]),
       body=st.text(CSV_CHARS, max_size=60), window=st.integers(0, 3),
       task=st.sampled_from([None, "regression", "classification"]))
def test_any_csv_text_loads_or_raises_format_or_config_error(header, body, window, task):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:  # a lone surrogate makes the file undecodable
            fh.write((header + "\n" + body).encode("utf-8", "surrogatepass"))
        try:
            D.load_csv(path, window=window, task=task)
        except (FormatError, ConfigError):
            pass
