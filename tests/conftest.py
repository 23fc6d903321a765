import numpy as np
import pytest

from hsmgnn import ModelConfig
from hsmgnn import data as D


def numeric_grad(f, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture(autouse=True)
def no_kept_train_stats(monkeypatch):
    """Every test starts with no kept training statistics, so a turbofan test split
    parses its training table unless the test itself loaded that table first."""
    monkeypatch.setattr(D, "_train_stats", {})


@pytest.fixture
def tiny_config() -> ModelConfig:
    """Desk-scale configuration used for whole-model gradient checks."""
    return ModelConfig(n=3, t=8, w_p=4, delta=0.5, d_blocks=2, cnn_hidden=2,
                       m_q=2, m_d=3, f_s=4, f_e=4, r_s=2, r_e=2,
                       mlp_widths=(8, 8, 8))
