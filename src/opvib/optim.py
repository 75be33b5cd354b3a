"""Bias-corrected Adam parameter updates.

The moment decays and epsilon are the de facto settings ``BETA1``,
``BETA2`` and ``EPS``; only the learning rate is tuned by callers.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError

__all__ = ["Adam"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed list of tensors, updating each one's array in place.

    ``m`` and ``v`` hold each parameter's first and second moment and ``t``
    counts the steps taken.  A parameter without a gradient steps as if its
    gradient were zero.
    """

    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        self.lr = lr
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
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
