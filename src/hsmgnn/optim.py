"""Adam optimizer over named parameter tensors.

`Adam.step` updates every parameter and its two moment arrays in place, in
flat blocks of at most `BLOCK` elements, through two block-sized scratch
arrays: a step allocates nothing the size of a parameter. Each block runs the
whole-array formula's operations in the same order,

    m *= b1;  m += (1 - b1) g;  v *= b2;  v += (1 - b2) g^2;  p -= (step m) / (sqrt(v) + eps),

so every element comes out bit for bit as the whole-array update would leave
it. Before anything is written, every gradient is checked block by block: a NaN
or |g| > `GRAD_LIMIT`, whose g^2 overflows, raises a `NumericsError` naming the
parameter and leaves all parameters, moments and the step count as they were.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the usual recipe (Kingma & Ba)
BLOCK = 1 << 15  # elements per block: 256 KiB per scratch array
GRAD_LIMIT = np.sqrt(np.finfo(np.float64).max)  # the largest |g| whose g^2 is finite


def _blocks(arrays: list[np.ndarray], writable: int) -> np.nditer:
    """Flat blocks of `arrays`, broadcast together, of at most BLOCK elements each; the
    first `writable` are written back. A non-contiguous array goes through nditer's own
    block-sized buffers."""
    return np.nditer(arrays, flags=["external_loop", "buffered", "zerosize_ok"],
                     op_flags=[["readwrite"]] * writable + [["readonly"]] * (len(arrays) - writable),
                     buffersize=BLOCK)


class Adam:
    """Standard Adam with bias correction, mutating parameters and moments in place."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._scratch = np.empty((2, BLOCK))

    def step(self) -> None:
        updates = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in updates:
            with _blocks([p.grad], 0) as blocks:
                if not all(np.abs(g).max(initial=0.0) <= GRAD_LIMIT for g in blocks):
                    raise NumericsError(f"gradient of {name!r} is NaN or above {GRAD_LIMIT:.3g}")
        self.t += 1
        # both bias corrections folded into the step size and eps (Kingma & Ba, sec. 2)
        root_c2 = np.sqrt(1.0 - BETA2 ** self.t)
        step_size, eps = self.lr * root_c2 / (1.0 - BETA1 ** self.t), EPS * root_c2
        for name, p in updates:
            with _blocks([p.data, self.m[name], self.v[name], p.grad], 3) as blocks:
                for data, m, v, g in blocks:
                    a, b = self._scratch[0, :g.size], self._scratch[1, :g.size]
                    m *= BETA1
                    m += np.multiply(g, 1.0 - BETA1, out=a)
                    v *= BETA2
                    v += np.multiply(np.square(g, out=a), 1.0 - BETA2, out=a)
                    np.multiply(m, step_size, out=a)
                    a /= np.add(np.sqrt(v, out=b), eps, out=b)
                    data -= a

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
