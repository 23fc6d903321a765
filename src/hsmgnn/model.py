"""Full model: configuration, parameter bank, forward pass, variants.

The complete pipeline is: block partition -> temporal CNN -> window
covariances (SPD branch) with memory-bank adjacency refinement, plus the
Euclidean branch, both convolved multi-hop, projected, fused and fed to
the MLP head. Each of the K feature blocks of a sample (the D CNN blocks,
or the L raw blocks of `no-scs`) gets its own graph with shared weights,
so `HSMGNN.forward` runs every stage once on a (B*K, N, W_p) batch and
flattens each branch's result to (B, K*N*F) for the head. The SPD branch
takes its adjacency and projection from the blocks themselves; only the
distance FFN of `complete` reads the window factors of the covariances
(see `scs`).
Ablation variants drop stages (`has_spd`, `has_adb`, `has_euclid`) and
their parameters.

`ModelConfig` holds every model hyperparameter, the SCS ones included, and
checks the type and range of each once, at construction (`check_fields`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import adb, fusion, scs
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("complete", "no-scs", "no-adb", "no-fgcn")


def check_value(name: str, value, kind):
    """`value` as a field annotated `kind`, or ConfigError.

    `kind` is int, float, str, `X | None` or a fixed-length tuple. Ints widen
    to float, a list becomes a tuple; bools are not numbers, floats are finite.
    """
    args = get_args(kind)
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{name} must be a list of {len(args)} values, got {value!r}")
        return tuple(check_value(name, v, a) for v, a in zip(value, args))
    if args:  # X | None
        if value is None:
            return None
        kind = args[0]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if (not isinstance(value, kind) or isinstance(value, bool)
            or kind is float and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def check_fields(cfg) -> None:
    """Type-check and normalize every field of a config dataclass in place."""
    for name, kind in get_type_hints(type(cfg)).items():
        setattr(cfg, name, check_value(name, getattr(cfg, name), kind))


@dataclass
class ModelConfig:
    n: int                       # sensor count (channels already folded in)
    t: int                       # window length in time steps
    w_p: int = 10                # temporal block length
    delta: float = 0.3           # covariance window ratio
    d_blocks: int = 4            # CNN output feature blocks
    cnn_hidden: int = 8
    m_q: int = 32                # memory item width
    m_d: int = 16                # distance-FFN hidden width
    f_s: int = 8                 # SPD-branch projected width
    f_e: int = 8                 # Euclidean-branch projected width
    r_s: int = 2                 # SPD-branch hops
    r_e: int = 2                 # Euclidean-branch hops
    w_s: float = 0.5             # SPD fusion weight
    w_e: float = 0.5             # Euclidean fusion weight
    mlp_widths: tuple[int, int, int] = (128, 64, 32)
    n_classes: int = 1           # head outputs: 1 regresses, 2 or more classify
    eps_spd: float = 1e-6
    kernel: int = 3
    variant: str = "complete"

    def __post_init__(self):
        check_fields(self)
        # every int field is a size, a width or a count
        small = [k for k, v in vars(self).items() if isinstance(v, int) and v < 1]
        if small or min(self.mlp_widths) < 1:
            raise ConfigError(f"{', '.join(small) or 'mlp_widths'} must be >= 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.t < self.w_p:
            raise ConfigError(f"series length {self.t} shorter than block length {self.w_p}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd, got {self.kernel}")
        if self.eps_spd <= 0:
            raise ConfigError(f"eps_spd must be positive, got {self.eps_spd}")
        if not math.isfinite(self.num_windows * (self.eps_spd * self.eps_spd)):
            bound = math.sqrt(np.finfo(float).max / self.num_windows)
            raise ConfigError(f"eps_spd must be below {bound:.4g}, so that the ridge "
                              f"num_windows * eps_spd**2 is finite, got {self.eps_spd}")
        if self.w_s < 0 or self.w_e < 0:
            raise ConfigError("fusion weights must be non-negative")

    @property
    def z_s(self) -> int:
        """Covariance window width: delta * W_p, rounded, at least 1."""
        return max(1, round(self.delta * self.w_p))

    @property
    def num_windows(self) -> int:
        return self.w_p - self.z_s + 1

    @property
    def num_blocks(self) -> int:
        return self.t // self.w_p

    @property
    def has_spd(self) -> bool:
        return self.variant != "no-scs"

    @property
    def has_adb(self) -> bool:
        return self.variant == "complete"

    @property
    def has_euclid(self) -> bool:
        return self.variant != "no-fgcn"

    @property
    def fused_width(self) -> int:
        width = 0
        if self.has_spd:
            width += self.d_blocks * self.n * self.f_s
        if self.has_euclid:
            k = self.d_blocks if self.has_spd else self.num_blocks
            width += k * self.n * self.f_e
        return width

    def to_dict(self) -> dict:
        return asdict(self)


class HSMGNN:
    """Parameter bank plus forward pass for one configuration."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    def _param(self, name: str, shape: tuple[int, ...], fan_in: int, rng) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        t = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name)
        self.params[name] = t
        return t

    def _init_params(self, rng) -> None:
        cfg = self.cfg
        l, m, k = cfg.num_blocks, cfg.num_windows, cfg.kernel
        if cfg.has_spd:
            self._param("cnn.w1", (cfg.cnn_hidden, l, k), l * k, rng)
            self._param("cnn.b1", (cfg.cnn_hidden,), l * k, rng)
            self._param("cnn.w2", (cfg.d_blocks, cfg.cnn_hidden, k), cfg.cnn_hidden * k, rng)
            self._param("cnn.b2", (cfg.d_blocks,), cfg.cnn_hidden * k, rng)
            self._param("proj_s.w", (cfg.n * m, cfg.f_s), cfg.n * m, rng)
            self._param("proj_s.b", (cfg.f_s,), cfg.n * m, rng)
        if cfg.has_adb:
            q_flat = cfg.m_q * cfg.m_q * m
            self._param("adb.bank", (cfg.n, cfg.m_q), cfg.n, rng)
            self._param("adb.ffn_w1", (cfg.m_d, q_flat), q_flat, rng)
            self._param("adb.ffn_b1", (cfg.m_d,), q_flat, rng)
            self._param("adb.ffn_w2", (cfg.n, cfg.m_d), cfg.m_d, rng)
            self._param("adb.ffn_b2", (cfg.n,), cfg.m_d, rng)
        if cfg.has_euclid:
            self._param("proj_e.w", (cfg.w_p, cfg.f_e), cfg.w_p, rng)
            self._param("proj_e.b", (cfg.f_e,), cfg.w_p, rng)
        widths = (cfg.fused_width,) + cfg.mlp_widths + (cfg.n_classes,)
        for i in range(4):
            self._param(f"mlp.w{i + 1}", (widths[i + 1], widths[i]), widths[i], rng)
            self._param(f"mlp.b{i + 1}", (widths[i + 1],), widths[i], rng)

    # -- forward ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> Tensor:
        """Predict from a batch of windows, shape (B, N, T)."""
        cfg, prm = self.cfg, self.params
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        b = xt.shape[0]
        blocks = scs.block_partition(xt, cfg.w_p)                     # (B, N, L, W_p)
        if cfg.has_spd:
            blocks = scs.temporal_cnn(blocks, prm["cnn.w1"], prm["cnn.b1"],
                                      prm["cnn.w2"], prm["cnn.b2"])   # (B, N, D, W_p)
        k = blocks.shape[2]
        # every feature block gets its own graph: the K blocks become a batch
        # axis, sample-major, so that a (B*K, ...) result flattens to (B, K*...)
        p = T.reshape(T.transpose(blocks, (0, 2, 1, 3)), (b * k, cfg.n, cfg.w_p))

        u_s = u_e = None
        if cfg.has_spd:
            a_s = adb.base_adjacency(p, cfg.z_s, cfg.eps_spd)
            gate = None
            if cfg.has_adb:  # the gate rescales the hop outputs, so a_s is never refined
                gate = adb.refine_adjacency(adb.ndv(
                    scs.window_covariance(p, cfg.z_s), prm["adb.bank"], prm["adb.ffn_w1"],
                    prm["adb.ffn_b1"], prm["adb.ffn_w2"], prm["adb.ffn_b2"], cfg.eps_spd))
            h_s = fusion.factored_multihop(p, a_s, cfg.r_s, prm["proj_s.w"], prm["proj_s.b"],
                                           cfg.z_s, cfg.eps_spd, gate)
            u_s = T.reshape(h_s, (b, k * cfg.n * cfg.f_s))
        if cfg.has_euclid:
            h_e = fusion.multihop_conv(p, fusion.euclidean_adjacency(p), cfg.r_e)
            h_e = fusion.branch_features(h_e, prm["proj_e.w"], prm["proj_e.b"])
            u_e = T.reshape(h_e, (b, k * cfg.n * cfg.f_e))

        mlp = {name.split(".", 1)[1]: v for name, v in prm.items() if name.startswith("mlp.")}
        return fusion.fuse_and_predict(u_s, u_e, cfg.w_s, cfg.w_e, mlp)

    def loss(self, pred: Tensor, targets: np.ndarray) -> Tensor:
        if self.cfg.n_classes > 1:
            return fusion.cross_entropy_loss(pred, targets)
        return fusion.mse_loss(pred, targets)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward only, on constant views of the parameters: no op records a graph."""
        frozen = copy.copy(self)
        frozen.params = {k: Tensor(p.data) for k, p in self.params.items()}
        out = frozen.forward(x).data
        if self.cfg.n_classes > 1:
            return out.argmax(axis=1)
        return out.reshape(-1)

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: self.params[k].data.copy() for k in sorted(self.params)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = sorted(set(self.params) - set(state))
            extra = sorted(set(state) - set(self.params))
            raise ConfigError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        for k, arr in state.items():
            if arr.shape != self.params[k].data.shape:
                raise ConfigError(
                    f"checkpoint tensor {k!r} has shape {arr.shape}, "
                    f"expected {self.params[k].data.shape}"
                )
            self.params[k].data = arr.astype(np.float64)

    def save(self, path) -> None:
        save_checkpoint(path, self.state_dict())

    def load(self, path) -> None:
        self.load_state_dict(load_checkpoint(path))


def ablate(variant: str, base: ModelConfig) -> ModelConfig:
    """Derive an ablation config from a base configuration."""
    return replace(base, variant=variant)
