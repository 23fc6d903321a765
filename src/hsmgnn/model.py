"""Full model: configuration, parameter bank, forward pass, variants.

The complete pipeline is: block partition -> temporal CNN -> window
covariances (SPD branch) with memory-bank adjacency refinement, plus the
Euclidean per-block branch, both convolved multi-hop, projected, fused
and fed to the MLP head. The SPD branch runs on the window factors of
the covariances and never forms the (N, N, M) stack (see `scs`).
Ablation variants drop pieces structurally, so their parameter censuses
differ (see `variant_*` helpers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import adb, fusion, scs
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError
from .tensor import Tensor

VARIANTS = ("complete", "no-scs", "no-adb", "no-fgcn")


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
    head: str = "regression"     # or "classification"
    n_classes: int = 1
    eps_spd: float = 1e-6
    kernel: int = 3
    variant: str = "complete"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.head not in ("regression", "classification"):
            raise ConfigError(f"unknown head {self.head!r}")
        if self.head == "classification" and self.n_classes < 2:
            raise ConfigError("classification head needs n_classes >= 2")
        if self.r_s < 1 or self.r_e < 1:
            raise ConfigError("hop counts must be >= 1")
        if self.w_s < 0 or self.w_e < 0:
            raise ConfigError("fusion weights must be non-negative")
        self.mlp_widths = tuple(self.mlp_widths)

    @property
    def scs_cfg(self) -> scs.ScsConfig:
        return scs.ScsConfig(self.w_p, self.delta, self.d_blocks,
                             self.cnn_hidden, self.eps_spd, self.kernel)

    @property
    def num_blocks(self) -> int:
        return self.scs_cfg.num_blocks(self.t)

    @property
    def num_windows(self) -> int:
        return self.scs_cfg.num_windows

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

    @property
    def output_width(self) -> int:
        return self.n_classes if self.head == "classification" else 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


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
        widths = (cfg.fused_width,) + cfg.mlp_widths + (cfg.output_width,)
        for i in range(4):
            self._param(f"mlp.w{i + 1}", (widths[i + 1], widths[i]), widths[i], rng)
            self._param(f"mlp.b{i + 1}", (widths[i + 1],), widths[i], rng)

    # -- forward ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> Tensor:
        """Predict from a batch of windows, shape (B, N, T)."""
        cfg = self.cfg
        xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        b = xt.shape[0]
        blocks = scs.block_partition(xt, cfg.scs_cfg)

        u_s_c = None
        u_e_c = None
        if cfg.has_spd:
            p = scs.temporal_cnn(blocks, self.params["cnn.w1"], self.params["cnn.b1"],
                                 self.params["cnn.w2"], self.params["cnn.b2"])
            z_s = cfg.scs_cfg.z_s
            spd_blocks, euc_blocks = [], []
            for d in range(cfg.d_blocks):
                p_d = T.reshape(T.slice_axis(p, 3, d, 1), (b, cfg.n, cfg.w_p))
                w = scs.window_factors(p_d, z_s)
                a_s = adb.factored_base_adjacency(w, cfg.eps_spd)
                if cfg.has_adb:
                    q = adb.factored_query(w, self.params["adb.bank"], cfg.eps_spd)
                    alpha = adb.ndv(q, self.params["adb.ffn_w1"], self.params["adb.ffn_b1"],
                                    self.params["adb.ffn_w2"], self.params["adb.ffn_b2"])
                    a_s = adb.refine_adjacency(alpha, a_s)
                spd_blocks.append(fusion.factored_multihop(
                    w, a_s, cfg.r_s, self.params["proj_s.w"], self.params["proj_s.b"],
                    cfg.eps_spd))
                if cfg.has_euclid:
                    a_e = fusion.euclidean_adjacency(p_d)
                    euc_blocks.append(fusion.multihop_conv(p_d, a_e, cfg.r_e))
            u_s_c = T.stack(spd_blocks, 1)
            if cfg.has_euclid:
                u_e_c = fusion.branch_features(euc_blocks, self.params["proj_e.w"],
                                               self.params["proj_e.b"])
        else:
            # per-patch Euclidean graphs on the raw blocks
            euc_blocks = []
            for li in range(cfg.num_blocks):
                x_l = T.reshape(T.slice_axis(blocks, 3, li, 1), (b, cfg.n, cfg.w_p))
                a_e = fusion.euclidean_adjacency(x_l)
                euc_blocks.append(fusion.multihop_conv(x_l, a_e, cfg.r_e))
            u_e_c = fusion.branch_features(euc_blocks, self.params["proj_e.w"],
                                           self.params["proj_e.b"])

        mlp = {k.split(".", 1)[1]: v for k, v in self.params.items() if k.startswith("mlp.")}
        return fusion.fuse_and_predict(u_s_c, u_e_c, cfg.w_s, cfg.w_e, mlp)

    def loss(self, pred: Tensor, targets: np.ndarray) -> Tensor:
        if self.cfg.head == "classification":
            return fusion.cross_entropy_loss(pred, targets)
        return fusion.mse_loss(pred, targets)

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x).data
        if self.cfg.head == "classification":
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
            self.params[k].data = arr.astype(np.float64).copy()

    def save(self, path) -> None:
        save_checkpoint(path, self.state_dict())

    def load(self, path) -> None:
        self.load_state_dict(load_checkpoint(path))


def ablate(variant: str, base: ModelConfig) -> ModelConfig:
    """Derive an ablation config from a base configuration."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    d = base.to_dict()
    d["variant"] = variant
    return ModelConfig.from_dict(d)
