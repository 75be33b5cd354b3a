"""Generative neurons and 1D operational layers.

A generative neuron replaces the fixed convolution kernel with a learned
truncated power series: the layer output is the sum over q = 1..Q of a
convolution applied to the q-th elementwise power of the input,

    out = bias + sum_q conv1d(weights[q], input**q)

so each kernel tap carries Q coefficients.  The constant (q = 0) term is
folded into the bias.  With Q = 1 the layer is numerically identical to a
plain convolutional layer.  Inputs are expected in [-1, 1] (the preceding
tanh guarantees this), which keeps the power terms bounded.

The transposed variant swaps the convolution for its adjoint, giving the
upsampling analogue used by decoder stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    conv1d,
    power_stack,
    transposed_conv1d,
)

__all__ = [
    "OperationalLayerConfig",
    "OperationalLayer",
    "generative_forward",
    "transposed_generative_forward",
    "init_generative_weights",
    "to_gemm_layout",
    "to_paper_layout",
]


@dataclass(frozen=True)
class OperationalLayerConfig:
    in_channels: int
    out_channels: int
    kernel: int
    q: int
    stride: int = 1
    padding: int = 0
    transposed: bool = False
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ("tanh", "none"):
            raise ValueError(f"activation must be 'tanh' or 'none', got {self.activation!r}")
        for name in ("in_channels", "out_channels", "kernel", "q", "stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")

    def output_length(self, length):
        """Samples out for ``length`` samples in (< 1 when the input is too short)."""
        if self.transposed:
            return (length - 1) * self.stride + self.kernel - 2 * self.padding
        return (length + 2 * self.padding - self.kernel) // self.stride + 1


def init_generative_weights(rng, config: OperationalLayerConfig, dtype=np.float32):
    """Uniform init in [-s, s] with s = 1/sqrt(in*K*Q), the same scale per q slice.

    Keeps pre-tanh activations near the linear region at start, which the
    power-series operator assumes.  Returns ``(weights, biases)`` shaped
    ``(Q, out, in, K)`` and ``(out,)``.
    """
    c = config
    s = 1.0 / np.sqrt(c.in_channels * c.kernel * c.q)
    weights = rng.uniform(-s, s, size=(c.q, c.out_channels, c.in_channels, c.kernel))
    return weights.astype(dtype), np.zeros(c.out_channels, dtype=dtype)


def _power_stack(y, q):
    if q == 1:
        return y if isinstance(y, Tensor) else Tensor(y)
    return power_stack(y, q)


def to_gemm_layout(weights, transposed=False):
    """Re-lay ``(Q, out, in, K)`` kernels as the conv consumes them.

    Returns ``(out, Q*in, K)`` for :func:`conv1d`, or ``(Q*in, out, K)`` for
    :func:`transposed_conv1d` when ``transposed``; stacked channel
    ``q*in + c`` carries ``w[q, :, c, :]``, matching :func:`power_stack`.
    Works on arrays and on :class:`Tensor` (differentiably).
    """
    q, out_ch, in_ch, k = weights.shape
    if transposed:
        return weights.transpose(0, 2, 1, 3).reshape(q * in_ch, out_ch, k)
    return weights.transpose(1, 0, 2, 3).reshape(out_ch, q * in_ch, k)


def to_paper_layout(weights, q, transposed=False):
    """Inverse of :func:`to_gemm_layout` for arrays: back to ``(Q, out, in, K)``."""
    if transposed:
        qin, out_ch, k = weights.shape
        return weights.reshape(q, qin // q, out_ch, k).transpose(0, 2, 1, 3)
    out_ch, qin, k = weights.shape
    return weights.reshape(out_ch, q, qin // q, k).transpose(1, 0, 2, 3)


def _check_paper_weights(weights):
    weights = weights if isinstance(weights, Tensor) else Tensor(weights)
    if weights.data.ndim != 4:
        raise ShapeError(f"generative weights must be (Q, out, in, K), got {weights.shape}")
    return weights


def generative_forward(y, weights, biases=None, stride=1, padding=0):
    """Forward pass of a generative layer (sum of Q convolutions of input powers).

    ``weights`` is ``(Q, out, in, K)``; channel count of ``y`` must equal ``in``.
    This paper-form reference re-lays the kernels on every call;
    :class:`OperationalLayer` keeps them in GEMM layout instead.
    """
    weights = _check_paper_weights(weights)
    stacked = _power_stack(y, weights.shape[0])
    return conv1d(stacked, to_gemm_layout(weights), biases, stride, padding)


def transposed_generative_forward(y, weights, biases=None, stride=1, padding=0):
    """Transposed (upsampling) analogue: sum of Q adjoint convolutions of powers."""
    weights = _check_paper_weights(weights)
    stacked = _power_stack(y, weights.shape[0])
    return transposed_conv1d(stacked, to_gemm_layout(weights, transposed=True), biases,
                             stride, padding)


class OperationalLayer:
    """One operational layer: trainable generative kernels + optional tanh.

    ``weights`` is kept in the GEMM layout of :func:`to_gemm_layout`, so the
    forward pass hands it to the conv with no re-layout; checkpoints store
    the ``(Q, out, in, K)`` form.
    """

    def __init__(self, config: OperationalLayerConfig, rng=None, dtype=np.float32):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng()
        weights, biases = init_generative_weights(rng, config, dtype)
        self.weights = Tensor(np.ascontiguousarray(to_gemm_layout(weights, config.transposed)),
                              requires_grad=True)
        self.biases = Tensor(biases, requires_grad=True)

    def __call__(self, y):
        c = self.config
        conv = transposed_conv1d if c.transposed else conv1d
        out = conv(_power_stack(y, c.q), self.weights, self.biases, c.stride, c.padding)
        if c.activation == "tanh":
            out = out.tanh()
        return out

    def parameters(self):
        return [self.weights, self.biases]

    def parameter_count(self):
        return self.weights.data.size + self.biases.data.size
