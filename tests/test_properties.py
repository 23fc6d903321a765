"""Property tests: corrupted containers load or raise FormatError, nothing else."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hsmgnn import data as D  # noqa: E402
from hsmgnn.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from hsmgnn.errors import FormatError  # noqa: E402


def _valid_bytes(suffix: str) -> bytes:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid" + suffix)
        if suffix == ".hsmg":
            save_checkpoint(path, {"mlp.w1": rng.normal(size=(3, 4)),
                                   "mlp.b1": rng.normal(size=3),
                                   "scalar": np.array(2.0)})
        else:
            D.save_canonical(path, D.SampleSet(rng.normal(size=(3, 2, 4, 1)),
                                               rng.normal(size=3), "regression"))
        with open(path, "rb") as fh:
            return fh.read()


VALID = {".hsmg": _valid_bytes(".hsmg"), ".mtsd": _valid_bytes(".mtsd")}
LOADERS = {".hsmg": load_checkpoint, ".mtsd": D.load_canonical}


def loads_or_format_error(suffix: str, raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt" + suffix)
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            LOADERS[suffix](path)
        except FormatError:
            pass


@settings(max_examples=200, deadline=None)
@given(suffix=st.sampled_from(sorted(VALID)), data=st.data())
def test_every_prefix_loads_or_raises_format_error(suffix, data):
    raw = VALID[suffix]
    size = data.draw(st.integers(0, len(raw)))
    loads_or_format_error(suffix, raw[:size])


@settings(max_examples=400, deadline=None)
@given(suffix=st.sampled_from(sorted(VALID)), data=st.data())
def test_every_bit_flip_loads_or_raises_format_error(suffix, data):
    raw = bytearray(VALID[suffix])
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    loads_or_format_error(suffix, bytes(raw))
