"""Dense 1D tensor arithmetic with reverse-mode automatic differentiation.

Feature maps are plain ``(channels, length)`` float arrays wrapped in
:class:`Tensor` nodes.  Every operation records enough state to run the
chain rule backwards, so a scalar loss can be differentiated with respect
to every parameter that participated in the forward pass.

Convolutions are lowered to an im2col matrix product with a fixed
reduction order (channels outer, taps inner), and a convolution's input
gradient to one such product per stride phase, taken in phase order, so
repeated runs are bit-identical on the same machine.  The convolutions can
also run a whole generative layer as one node: the input powers ``x**1 ..
x**q``, the bias and the tanh are formed inside the kernel, with the same
operations in the same order as :func:`power_stack`, a plain convolution and
:meth:`Tensor.tanh` composed, so the result is bit-identical to theirs.  The
paper-form reference that composes those steps as separate nodes lives in
the test suite (``tests/util.py``).
Training numerics default to float32; gradient verification against finite
differences is done in float64 by the test suite.
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
        # No backward closure writes into a gradient, and a second one is
        # added into a new array, so an interior node takes its first
        # gradient as is, even where it aliases a child's.  A leaf copies
        # its first, so the .grad it keeps after backward() is its own.
        if self.grad is None:
            self.grad = g if self._backward is not None else g.copy()
        else:
            self.grad = self.grad + g

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
        # a copy, so that no gradient aliases the caller's array
        g = np.array(gradient, dtype=self.data.dtype)
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
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

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
            self._accumulate(_tanh_grad(g, out_data))

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

    def mean(self):
        n = self.data.size
        out_data = np.asarray(self.data.mean(), dtype=self.dtype)

        def backward(g):
            self._accumulate(np.full(self.data.shape, float(g) / n, dtype=self.dtype))

        return Tensor._result(out_data, (self,), backward)

    def reshape(self, *shape):
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(old))

        return Tensor._result(out_data, (self,), backward)


def _tanh_grad(g, y):
    """Gradient through ``y = tanh(a)``: the one expression :meth:`Tensor.tanh`
    and the fused-tanh convolutions share, so their bits cannot drift apart."""
    return g * (1.0 - y * y)


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

    def backward(g):
        idx = [slice(None)] * g.ndim
        lo = 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            if t.requires_grad:
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])
            lo = hi

    return Tensor._result(out_data, tuple(tensors), backward)


def _check_power(q):
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise ValueError(f"power order must be a positive integer, got {q!r}")
    return int(q)


def _power_blocks(buf, rows):
    # with x in the first ``rows`` rows of ``buf``, block i becomes block i-1
    # times block 0, so the blocks hold x**1 .. x**q, each power one multiply
    # from the last
    for i in range(rows, len(buf), rows):
        np.multiply(buf[i - rows : i], buf[:rows], out=buf[i : i + rows])


def _powers(x, q):
    """``x**1 .. x**q`` stacked along the channel axis, ``(q*C, L)``."""
    c = x.shape[0]
    out = np.empty((q * c,) + x.shape[1:], dtype=x.dtype)
    out[:c] = x
    _power_blocks(out, c)
    return out


def _power_stack_grad(g, powers, c):
    """Gradient w.r.t. ``x`` of the stack ``powers`` = ``x**1 .. x**q`` from its
    ``(q*C, L)`` gradient ``g``; only ``x**1 .. x**(q-1)`` of ``powers`` is read."""
    gx = g[:c].copy()
    for i in range(1, len(g) // c):
        # d(x^(i+1))/dx = (i+1) * x^i
        gx += (i + 1) * g[i * c : (i + 1) * c] * powers[(i - 1) * c : i * c]
    return gx


def power_stack(x, q):
    """Stack ``x**1 .. x**q`` along the channel axis in one fused op.

    Equivalent to concatenating ``x**1 .. x**q`` but with a single node and
    one analytic backward pass.
    """
    q = _check_power(q)
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"power_stack expects a (channels, length) map, got {x.data.shape}")
    c = x.data.shape[0]
    out_data = _powers(x.data, q)

    def backward(g):
        x._accumulate(_power_stack_grad(g, out_data, c))

    return Tensor._result(out_data, (x,), backward)


# -- convolution primitives ----------------------------------------------------


def _conv_operands(x, weights, bias, stride, padding, q, transposed):
    """Checked operands as ``(x, weights, bias, q)``; ``weights`` is
    ``(C_out, q*C_in, K)`` for :func:`conv1d` and ``(q*C_in, C_out, K)`` for
    :func:`transposed_conv1d` (``transposed``)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    q = _check_power(q)
    x = x if isinstance(x, Tensor) else Tensor(x)
    weights = weights if isinstance(weights, Tensor) else Tensor(np.asarray(weights, dtype=x.dtype))
    op = "transposed_conv1d" if transposed else "conv1d"
    if x.data.ndim != 2:
        raise ShapeError(f"{op} input must be (channels, length), got {x.data.shape}")
    if weights.data.ndim != 3:
        layout = "(in, out, taps)" if transposed else "(out, in, taps)"
        raise ShapeError(f"{op} weights must be {layout}, got {weights.data.shape}")
    if weights.data.shape[0 if transposed else 1] != q * x.data.shape[0]:
        raise ShapeError(
            f"channel mismatch: input map {x.data.shape} vs weights {weights.data.shape}"
            + (f" at power order {q}" if q > 1 else "")
        )
    if bias is not None:
        c_out = weights.data.shape[1 if transposed else 0]
        bias = bias if isinstance(bias, Tensor) else Tensor(np.asarray(bias, dtype=x.dtype))
        if bias.data.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.data.shape} != ({c_out},)")
    return x, weights, bias, q


def _padded(x, padding):
    """``(C, L)`` ``x`` zero-padded by ``padding`` columns on each side, C-contiguous."""
    if not padding:
        return np.ascontiguousarray(x)
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * padding), dtype=x.dtype)
    xp[:, padding : padding + x.shape[1]] = x
    return xp


def _im2col(xp, k, stride, q=1, start=0, l_out=None):
    # xp: C-contiguous (C, L_padded) -> (q*C*K, L_out), channel-major /
    # tap-minor rows, for the windows from column ``start`` on (as many as
    # fit, or ``l_out``); the (C, K, L_out) window view is copied once into
    # block 0, and block i holds its (i+1)-th power: a gathered entry is a
    # copy of one x entry (or a padding 0), so these are the columns of
    # power_stack(x) bit for bit
    c, length = xp.shape
    if l_out is None:
        l_out = (length - start - k) // stride + 1
    row, col = xp.strides
    # the ndarray constructor checks the view against xp's extent, as
    # as_strided does not, and costs about 1 us a call where as_strided costs 8
    win = np.ndarray((c, k, l_out), xp.dtype, xp, start * col, (row, col, col * stride))
    cols = np.empty((q * c * k, l_out), dtype=xp.dtype)
    cols[: c * k].reshape(c, k, l_out)[...] = win
    _power_blocks(cols, c * k)
    return cols


def conv1d(x, weights, bias=None, stride=1, padding=0, q=1, tanh=False):
    """Strided cross-correlation of a ``(C_in, L)`` map with ``(C_out, q*C_in, K)`` kernels.

    Zero padding is applied symmetrically; output length is
    ``(L + 2*padding - K)//stride + 1``.  No kernel flip is performed.
    With ``q > 1`` the kernels see the power stack ``x**1 .. x**q`` (channel
    ``i*C_in + c`` carries ``x[c]**(i+1)``), formed in the im2col columns; with
    ``tanh`` the output is ``tanh`` of the sum.  Either way the node equals
    ``power_stack`` -> ``conv1d`` -> ``.tanh()`` bit for bit, in one node.
    The node keeps only its input and output; backward forms the columns
    and powers again from the input.
    """
    x, weights, bias, q = _conv_operands(x, weights, bias, stride, padding, q, False)
    c_out, qc_in, k = weights.data.shape
    c_in, length = x.data.shape
    if k > length + 2 * padding:
        raise ShapeError(
            f"kernel taps {k} exceed padded length {length + 2 * padding} "
            f"(input {x.data.shape}, weights {weights.data.shape})"
        )

    xd = x.data
    w = weights.data
    out_data = w.reshape(c_out, qc_in * k) @ _im2col(_padded(xd, padding), k, stride, q)
    if bias is not None:
        out_data += bias.data[:, None]
    if tanh:
        np.tanh(out_data, out=out_data)

    parents = (x, weights) if bias is None else (x, weights, bias)

    def backward(g):
        if tanh:
            g = _tanh_grad(g, out_data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=1))
        if weights.requires_grad:
            # the columns again, from the input the node keeps: the same bits
            cols = _im2col(_padded(xd, padding), k, stride, q)
            if c_out <= 32 and g.shape[1] >= 32:
                # few output channels over many windows: OpenBLAS takes this
                # product up to 1.8x faster as cols @ g.T, to the same bits
                # where it sums each element in the same order either way;
                # the leaf's copy of its first gradient stays the only copy
                gw = (cols @ g.T).reshape(qc_in, k, c_out).transpose(2, 0, 1)
            else:
                gw = (g @ cols.T).reshape(c_out, qc_in, k)
            weights._accumulate(gw)
        if x.requires_grad:
            gx = _conv1d_input_grad(g, w, stride, padding, length)
            if q > 1:
                # the gradient reads only x**1 .. x**(q-1)
                gx = _power_stack_grad(gx, _powers(xd, q - 1), c_in)
            x._accumulate(gx)

    return Tensor._result(out_data, parents, backward)


def _conv1d_input_grad(g, w, stride, padding, length):
    """Gradient of :func:`conv1d` w.r.t. its ``(C_in, length)`` input, by phases.

    Padded input position ``m*stride + t`` only meets taps ``t, t+stride, ...``,
    so each phase ``t`` is a stride-1 correlation of ``g`` with its flipped
    sub-kernel ``w[:, :, t::stride]``: one im2col GEMM per phase instead of a
    strided scatter per tap.  Positions no window covers stay exactly 0.
    """
    c_out, c_in, k = w.shape
    l_out = g.shape[1]
    taps = -(-k // stride)                     # taps of phase 0, the longest
    gpad = _padded(g, taps - 1)
    gx = np.zeros((c_in, length), dtype=g.dtype)
    w_rows = w.transpose(0, 2, 1)
    for t in range(min(stride, k)):
        m_t = -(-(k - t) // stride)            # taps of phase t
        # phase-t outputs m cover padded positions m*stride + t; keep those
        # inside the unpadded input, m in [lo, hi)
        lo = max(0, -(-(padding - t) // stride))
        hi = min(l_out + m_t - 1, -(-(padding + length - t) // stride))
        if hi <= lo:
            continue
        start = taps - m_t + lo
        cols = _im2col(gpad, m_t, 1, start=start, l_out=hi - lo)
        # the flipped sub-kernel gathered as (C_out*M_t, C_in) rows (o, v):
        # this order copies faster than (C_in, C_out*M_t), and matmul takes
        # its transposed view without a second copy
        sub = w_rows[:, t::stride][:, ::-1].reshape(c_out * m_t, c_in).T
        first = lo * stride + t - padding
        gx[:, first : first + (hi - lo - 1) * stride + 1 : stride] = sub @ cols
    return gx


def transposed_conv1d(x, weights, bias=None, stride=1, padding=0, q=1, tanh=False):
    """Adjoint of :func:`conv1d` with the same stride/padding.

    ``weights`` has shape ``(q*C_in, C_out, K)``; output length is
    ``(L - 1)*stride + K - 2*padding``.  ``q`` and ``tanh`` act as in
    :func:`conv1d`: the powers are stacked in a buffer of their own, which
    backward forms again from the input rather than the node keeping it, and
    the tanh runs in place on the biased output.
    """
    x, weights, bias, q = _conv_operands(x, weights, bias, stride, padding, q, True)
    qc_in, c_out, k = weights.data.shape
    c_in, length = x.data.shape
    l_full = (length - 1) * stride + k
    l_out = l_full - 2 * padding
    if l_out < 1:
        raise ShapeError(
            f"non-positive output length {l_out} for input {x.data.shape}, "
            f"taps {k}, stride {stride}, padding {padding}"
        )

    xd = x.data
    w2 = weights.data.reshape(qc_in, c_out * k)
    cols = (w2.T @ (_powers(xd, q) if q > 1 else xd)).reshape(c_out, k, length)
    # tap r adds cols[:, r] to stride phase t = r % stride of ``full``, from
    # phase entry r // stride on; per phase the first tap is assigned, the
    # tail it leaves zeroed and the later taps added in ascending order: the
    # sums of one += per tap into zeros, but for the sign of a -0 first term
    full = np.empty((c_out, l_full), dtype=x.dtype)
    for t in range(stride):
        phase = full[:, t::stride]
        if t >= k:
            phase[...] = 0
            continue
        phase[:, :length] = cols[:, t]
        phase[:, length:] = 0
        for j, r in enumerate(range(t + stride, k, stride), start=1):
            phase[:, j : j + length] += cols[:, r]
    out_data = full[:, padding : l_full - padding]
    if bias is not None:
        out_data += bias.data[:, None]
    if tanh:
        np.tanh(out_data, out=out_data)

    parents = (x, weights) if bias is None else (x, weights, bias)

    def backward(g):
        if tanh:
            g = _tanh_grad(g, out_data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=1))
        gcols_m = _im2col(_padded(g, padding), k, stride)
        xs = _powers(xd, q) if q > 1 else xd   # formed again, not kept
        if weights.requires_grad:
            weights._accumulate((xs @ gcols_m.T).reshape(qc_in, c_out, k))
        if x.requires_grad:
            gx = w2 @ gcols_m
            if q > 1:
                gx = _power_stack_grad(gx, xs, c_in)
            x._accumulate(gx)

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
        # overlap-add by blocks of ``hop`` taps: block b of frame t starts at
        # (t + b)*hop, so one slice adds block b of every frame at once, and
        # descending b adds each position's frames in ascending order, as a
        # loop over frames would; the tail pads the last reshape only
        blocks = -(-frame_len // hop)
        gx = np.zeros(max(n, (num + blocks - 1) * hop), dtype=g.dtype)
        for b in reversed(range(blocks)):
            width = min(hop, frame_len - b * hop)
            gx[b * hop : (b + num) * hop].reshape(num, hop)[:, :width] += g[:, b * hop : b * hop + width]
        x._accumulate(gx[:n].reshape(orig_shape))

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
