"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the usual recipe (Kingma & Ba)


class Adam:
    """Standard Adam with bias correction, mutating parameters and moments in place."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        # both bias corrections folded into the step size and eps (Kingma & Ba, sec. 2)
        root_c2 = np.sqrt(1.0 - BETA2 ** self.t)
        step_size, eps = self.lr * root_c2 / (1.0 - BETA1 ** self.t), EPS * root_c2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient in parameter {name!r}")
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data -= step_size * m / (np.sqrt(v) + eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
