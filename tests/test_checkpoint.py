import numpy as np
import pytest

from hsmgnn.checkpoint import load_checkpoint, save_checkpoint
from hsmgnn.errors import FormatError


def test_values_and_shapes_preserved(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "deep.nested.name": rng.normal(size=(2, 2, 2)),
        "vec": rng.normal(size=7),
    }
    path = tmp_path / "t.hsmg"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])


def test_each_tensor_is_a_fresh_aligned_array(tmp_path):
    """Tensor data sits at odd byte offsets in the file; the arrays read are not views of it."""
    path = tmp_path / "t.hsmg"
    save_checkpoint(path, {"odd": np.arange(3.0), "w": np.ones((2, 3)), "s": np.array(2.0)})
    loaded = load_checkpoint(path)
    for arr in loaded.values():
        assert arr.dtype == np.float64 and arr.base is None
        assert arr.flags.aligned and arr.flags.c_contiguous and arr.flags.writeable
    assert np.array_equal(loaded["w"], np.ones((2, 3))) and loaded["s"] == 2.0


def test_byte_identical_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(5, 3)), "b": rng.normal(size=5)}
    p1 = tmp_path / "a.hsmg"
    p2 = tmp_path / "b.hsmg"
    save_checkpoint(p1, tensors)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "h.hsmg"
    save_checkpoint(path, {"x": np.zeros(2)})
    raw = path.read_bytes()
    assert raw[:4] == b"HSMG"
    assert int.from_bytes(raw[4:8], "little") == 1   # version
    assert int.from_bytes(raw[8:12], "little") == 1  # tensor count


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hsmg"
    path.write_bytes(b"NOPE" + b"\0" * 8)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.hsmg"
    save_checkpoint(path, {"x": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_every_truncation_raises_format_error(tmp_path):
    path = tmp_path / "full.hsmg"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2),
                           "s": np.array(1.5)})
    raw = path.read_bytes()
    cut = tmp_path / "cut.hsmg"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(FormatError):
            load_checkpoint(cut)


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.hsmg"
    save_checkpoint(path, {"ab": np.zeros(2), "ac": np.zeros(2)})
    raw = path.read_bytes()
    second = raw.rindex(b"ac")
    path.write_bytes(raw[:second] + b"ab" + raw[second + 2:])
    with pytest.raises(FormatError, match="duplicate"):
        load_checkpoint(path)
