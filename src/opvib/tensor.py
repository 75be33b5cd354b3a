"""Dense 1D tensor arithmetic with reverse-mode automatic differentiation.

Feature maps are plain ``(channels, length)`` float arrays wrapped in
:class:`Tensor` nodes.  Every operation records enough state to run the
chain rule backwards, so a scalar loss can be differentiated with respect
to every parameter that participated in the forward pass.

Convolutions are lowered to an im2col matrix product with a fixed
reduction order (channels outer, taps inner), which keeps repeated runs
bit-identical on the same machine.  Training numerics default to float32;
gradient verification against finite differences is done in float64 by
the test suite.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "UsageError",
    "no_grad",
    "concat",
    "conv1d",
    "transposed_conv1d",
    "power_stack",
    "frames1d",
    "power_spectrum",
]


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class UsageError(RuntimeError):
    """The differentiation API was used without a recorded forward pass."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An array plus the bookkeeping needed for reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._parents = ()
        out._backward = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g):
        # grads are rebound, never mutated in place, so a first-touch copy
        # is all that is needed to avoid aliasing the child's buffer
        self.grad = g.copy() if self.grad is None else self.grad + g

    def backward(self, gradient=None):
        """Run the chain rule from this node back to every reachable leaf.

        ``gradient`` seeds the output adjoint; it defaults to ones and is
        only optional for single-element outputs.
        """
        if not self.requires_grad:
            raise UsageError(
                "backward() called on a tensor with no recorded forward pass "
                "(requires_grad is False)"
            )
        if gradient is None:
            if self.data.size != 1:
                raise UsageError("backward() on a non-scalar tensor needs an explicit gradient")
            gradient = np.ones_like(self.data)
        g = np.asarray(gradient, dtype=self.data.dtype)
        if g.shape != self.data.shape:
            raise ShapeError(f"seed gradient shape {g.shape} != tensor shape {self.data.shape}")

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(g)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    # -- convenience accessors ----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.dtype)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other, self.dtype)
        out_data = self.data * other.data
        a, b = self.data, other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * b, a.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * a, b.shape))

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-_coerce(other, self.dtype))

    def __rsub__(self, other):
        return _coerce(other, self.dtype) + (-self)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise UsageError("tensor/tensor division is not part of the op set; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        other = _coerce(other, self.dtype)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(f"matmul expects 2D operands, got {self.data.shape} @ {other.data.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {self.data.shape} @ {other.data.shape}")
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ b.T)
            if other.requires_grad:
                other._accumulate(a.T @ g)

        return Tensor._result(out_data, (self, other), backward)

    # -- nonlinearities and reductions ----------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data * out_data))

        return Tensor._result(out_data, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(g):
            self._accumulate(g * sign)

        return Tensor._result(np.abs(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g / (2.0 * out_data))

        return Tensor._result(out_data, (self,), backward)

    def sum(self):
        out_data = np.asarray(self.data.sum(), dtype=self.dtype)

        def backward(g):
            self._accumulate(np.full(self.data.shape, float(g), dtype=self.dtype))

        return Tensor._result(out_data, (self,), backward)

    def mean(self):
        n = self.data.size
        out_data = np.asarray(self.data.mean(), dtype=self.dtype)

        def backward(g):
            self._accumulate(np.full(self.data.shape, float(g) / n, dtype=self.dtype))

        return Tensor._result(out_data, (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(old))

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        out_data = np.ascontiguousarray(self.data.transpose(axes))

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return Tensor._result(out_data, (self,), backward)


def _coerce(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis`` (channel stacking in practice)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._result(out_data, tuple(tensors), backward)


def power_stack(x, q):
    """Stack ``x**1 .. x**q`` along the channel axis in one fused op.

    Equivalent to concatenating ``x**1 .. x**q`` but with a single node and
    one analytic backward pass.
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"power order must be a positive integer, got {q!r}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"power_stack expects a (channels, length) map, got {x.data.shape}")
    q = int(q)
    c, length = x.data.shape
    out_data = np.empty((q * c, length), dtype=x.dtype)
    out_data[:c] = x.data
    for i in range(1, q):
        np.multiply(out_data[(i - 1) * c : i * c], x.data, out=out_data[i * c : (i + 1) * c])

    def backward(g):
        gx = g[:c].copy()
        for i in range(1, q):
            # d(x^(i+1))/dx = (i+1) * x^i, and x^i is already in out_data
            gx += (i + 1) * g[i * c : (i + 1) * c] * out_data[(i - 1) * c : i * c]
        x._accumulate(gx)

    return Tensor._result(out_data, (x,), backward)


# -- convolution primitives ----------------------------------------------------


def _check_conv_args(stride, padding):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")


def _im2col(xp, k, stride):
    # xp: (C, L_padded) -> (C*K, L_out), channel-major / tap-minor rows; the
    # reshape copies the (C, K, L_out) window view once, and ascontiguousarray
    # copies only where K = 1 lets the reshape stay a strided view
    c, length = xp.shape
    l_out = (length - k) // stride + 1
    row, col = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (c, k, l_out), (row, col, col * stride),
                                          writeable=False)
    return np.ascontiguousarray(win.reshape(c * k, l_out))


def conv1d(x, weights, bias=None, stride=1, padding=0):
    """Strided cross-correlation of a ``(C_in, L)`` map with ``(C_out, C_in, K)`` kernels.

    Zero padding is applied symmetrically; output length is
    ``(L + 2*padding - K)//stride + 1``.  No kernel flip is performed.
    """
    _check_conv_args(stride, padding)
    x = x if isinstance(x, Tensor) else Tensor(x)
    weights = weights if isinstance(weights, Tensor) else Tensor(np.asarray(weights, dtype=x.dtype))
    if x.data.ndim != 2:
        raise ShapeError(f"conv1d input must be (channels, length), got {x.data.shape}")
    if weights.data.ndim != 3:
        raise ShapeError(f"conv1d weights must be (out, in, taps), got {weights.data.shape}")
    c_out, c_in, k = weights.data.shape
    if x.data.shape[0] != c_in:
        raise ShapeError(
            f"channel mismatch: input map {x.data.shape} vs weights {weights.data.shape}"
        )
    length = x.data.shape[1]
    if k > length + 2 * padding:
        raise ShapeError(
            f"kernel taps {k} exceed padded length {length + 2 * padding} "
            f"(input {x.data.shape}, weights {weights.data.shape})"
        )
    if bias is not None:
        bias = bias if isinstance(bias, Tensor) else Tensor(np.asarray(bias, dtype=x.dtype))
        if bias.data.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.data.shape} != ({c_out},)")

    if padding:
        xp = np.zeros((c_in, length + 2 * padding), dtype=x.dtype)
        xp[:, padding : padding + length] = x.data
    else:
        xp = x.data
    cols = _im2col(xp, k, stride)
    w2 = weights.data.reshape(c_out, c_in * k)
    out_data = w2 @ cols
    if bias is not None:
        out_data = out_data + bias.data[:, None]
    l_out = out_data.shape[1]

    parents = (x, weights) if bias is None else (x, weights, bias)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=1))
        if weights.requires_grad:
            weights._accumulate((g @ cols.T).reshape(c_out, c_in, k))
        if x.requires_grad:
            gcols = (w2.T @ g).reshape(c_in, k, l_out)
            gxp = np.zeros_like(xp)
            for r in range(k):
                gxp[:, r : r + stride * l_out : stride] += gcols[:, r, :]
            x._accumulate(gxp[:, padding : padding + length] if padding else gxp)

    return Tensor._result(out_data, parents, backward)


def transposed_conv1d(x, weights, bias=None, stride=1, padding=0):
    """Adjoint of :func:`conv1d` with the same stride/padding.

    ``weights`` has shape ``(C_in, C_out, K)``; output length is
    ``(L - 1)*stride + K - 2*padding``.
    """
    _check_conv_args(stride, padding)
    x = x if isinstance(x, Tensor) else Tensor(x)
    weights = weights if isinstance(weights, Tensor) else Tensor(np.asarray(weights, dtype=x.dtype))
    if x.data.ndim != 2:
        raise ShapeError(f"transposed_conv1d input must be (channels, length), got {x.data.shape}")
    if weights.data.ndim != 3:
        raise ShapeError(f"transposed_conv1d weights must be (in, out, taps), got {weights.data.shape}")
    c_in, c_out, k = weights.data.shape
    if x.data.shape[0] != c_in:
        raise ShapeError(
            f"channel mismatch: input map {x.data.shape} vs weights {weights.data.shape}"
        )
    length = x.data.shape[1]
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    if l_out < 1:
        raise ShapeError(
            f"non-positive output length {l_out} for input {x.data.shape}, "
            f"taps {k}, stride {stride}, padding {padding}"
        )
    if bias is not None:
        bias = bias if isinstance(bias, Tensor) else Tensor(np.asarray(bias, dtype=x.dtype))
        if bias.data.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.data.shape} != ({c_out},)")

    w2 = weights.data.reshape(c_in, c_out * k)
    cols = (w2.T @ x.data).reshape(c_out, k, length)
    full = np.zeros((c_out, l_full), dtype=x.dtype)
    span = stride * (length - 1) + 1
    for r in range(k):
        full[:, r : r + span : stride] += cols[:, r, :]
    out_data = full[:, padding : l_full - padding]
    if bias is not None:
        out_data = out_data + bias.data[:, None]

    parents = (x, weights) if bias is None else (x, weights, bias)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=1))
        gfull = np.zeros((c_out, l_full), dtype=g.dtype)
        gfull[:, padding : l_full - padding] = g
        gcols = np.empty((c_out, k, length), dtype=g.dtype)
        for r in range(k):
            gcols[:, r, :] = gfull[:, r : r + span : stride]
        gcols_m = gcols.reshape(c_out * k, length)
        if weights.requires_grad:
            weights._accumulate((x.data @ gcols_m.T).reshape(c_in, c_out, k))
        if x.requires_grad:
            x._accumulate(w2 @ gcols_m)

    return Tensor._result(out_data, parents, backward)


def frames1d(x, frame_len, hop):
    """Slice a 1-channel signal into overlapping frames, shape ``(F, frame_len)``."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    flat = x.data.reshape(-1) if x.data.ndim > 1 else x.data
    if x.data.ndim > 1 and x.data.shape[0] != 1:
        raise ShapeError(f"frames1d expects a single-channel signal, got {x.data.shape}")
    n = flat.shape[0]
    if frame_len > n:
        raise ShapeError(f"frame length {frame_len} exceeds signal length {n}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    num = (n - frame_len) // hop + 1
    win = np.lib.stride_tricks.sliding_window_view(flat, frame_len)
    out_data = np.ascontiguousarray(win[:: hop][:num])
    orig_shape = x.data.shape

    def backward(g):
        gx = np.zeros(n, dtype=g.dtype)
        for t in range(num):
            gx[t * hop : t * hop + frame_len] += g[t]
        x._accumulate(gx.reshape(orig_shape))

    return Tensor._result(out_data, (x,), backward)


def power_spectrum(frames):
    """Squared magnitude ``|rfft(frames)|**2`` over the last axis, shape ``(..., N//2 + 1)``."""
    frames = frames if isinstance(frames, Tensor) else Tensor(frames)
    n = frames.data.shape[-1]
    spec = np.fft.rfft(frames.data, axis=-1)
    out_data = (spec.real * spec.real + spec.imag * spec.imag).astype(frames.dtype, copy=False)

    def backward(g):
        # dP_k/dx = 2 Re(X_k e^{+2 pi i k n / N}) is the real-DFT adjoint of
        # z = 2 g X; irfft counts every bin but DC and Nyquist twice, so
        # those interior bins are halved before N * irfft
        z = 2.0 * g * spec
        z[..., 1 : (n + 1) // 2] *= 0.5
        frames._accumulate((n * np.fft.irfft(z, n=n, axis=-1)).astype(frames.dtype, copy=False))

    return Tensor._result(out_data, (frames,), backward)
