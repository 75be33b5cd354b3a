"""Bias-corrected Adam parameter updates.

Defaults follow the optimizer's de facto settings (beta1=0.9, beta2=0.999,
eps=1e-8); only the learning rate is expected to be tuned by callers.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError

__all__ = ["Adam"]


class Adam:
    """Adam over a fixed list of tensors, updating each one's array in place.

    ``m`` and ``v`` hold each parameter's first and second moment and ``t``
    counts the steps taken.  A parameter without a gradient steps as if its
    gradient were zero.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in self.params]
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g.shape != p.data.shape:
                raise ShapeError(f"shape mismatch at parameter {i}: param {p.data.shape}, "
                                 f"grad {g.shape}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
