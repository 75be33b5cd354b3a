import numpy as np
import pytest

from opvib.tensor import (
    ShapeError,
    Tensor,
    UsageError,
    concat,
    conv1d,
    frames1d,
    no_grad,
    power_spectrum,
    power_stack,
    transposed_conv1d,
)
from util import fd_gradcheck, tap_gather_loop


def test_conv1d_identity_kernel_selects_first_tap():
    out = conv1d([[1.0, 2.0, 3.0]], [[[1.0, 0.0]]], [0.0])
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_conv1d_strided_sliding_sum():
    out = conv1d([[1.0, 1.0, 1.0, 1.0]], [[[1.0, 1.0]]], [0.0], stride=2)
    assert np.array_equal(out.data, [[2.0, 2.0]])


def test_conv1d_zero_kernel_yields_bias():
    out = conv1d([[5.0]], [[[0.0]]], [3.0])
    assert np.array_equal(out.data, [[3.0]])


def test_conv1d_channel_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        conv1d(np.zeros((3, 10)), np.zeros((2, 4, 3)))
    assert "(3, 10)" in str(err.value) and "(2, 4, 3)" in str(err.value)


def test_conv1d_kernel_longer_than_padded_input():
    with pytest.raises(ShapeError):
        conv1d(np.zeros((1, 3)), np.zeros((1, 1, 9)), padding=1)


def test_transposed_conv_scatter_add():
    out = transposed_conv1d([[1.0, 1.0]], [[[1.0, 1.0]]], [0.0], stride=2)
    assert np.array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])


def test_transposed_conv_zero_input_broadcasts_bias():
    out = transposed_conv1d(np.zeros((2, 5)), np.zeros((2, 3, 4)), [1.0, -2.0, 0.5], stride=2)
    assert out.data.shape == (3, (5 - 1) * 2 + 4)
    assert np.array_equal(out.data[0], np.ones(12))
    assert np.array_equal(out.data[1], -2.0 * np.ones(12))


def test_transposed_conv_nonpositive_output_length():
    with pytest.raises(ShapeError):
        transposed_conv1d(np.zeros((1, 1)), np.zeros((1, 1, 2)), stride=1, padding=2)


def test_adjoint_identity_randomized():
    # <conv(x), y> == <x, tconv(y)> with the same stride/padding, to 1e-10
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 10))
        stride = int(rng.choice([1, 2, 4]))
        pad = int(rng.integers(0, 4))
        l_out = int(rng.integers(1, 24))
        length = (l_out - 1) * stride + k - 2 * pad
        if length < 1 or k > length + 2 * pad:
            continue
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        y = rng.standard_normal((c_out, l_out))
        lhs = float((conv1d(x, w, None, stride, pad).data * y).sum())
        rhs = float((transposed_conv1d(y, w, None, stride, pad).data * x).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        checked += 1


def test_power_requires_positive_integer():
    with pytest.raises(ValueError):
        power_stack(Tensor([[1.0]]), 0)
    with pytest.raises(ValueError):
        power_stack(Tensor([[1.0]]), 1.5)


def test_power_stack_matches_individual_powers():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (3, 11))
    stacked = power_stack(Tensor(x), 4).data
    for q in range(1, 5):
        assert np.allclose(stacked[(q - 1) * 3 : q * 3], x ** q, atol=1e-14)


def test_tanh_properties():
    assert float(Tensor([0.0]).tanh().data[0]) == 0.0
    assert abs(float(Tensor([20.0]).tanh().data[0]) - 1.0) < 1e-9
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    assert np.allclose(Tensor(-x).tanh().data, -Tensor(x).tanh().data)
    # strictly interior away from saturation; at saturation rounding may pin to 1.0 exactly
    assert np.all(np.abs(Tensor(np.clip(x * 4, -8, 8), dtype=np.float64).tanh().data) < 1.0)
    assert np.all(np.abs(Tensor(x * 100).tanh().data) <= 1.0)


def test_powers_of_bounded_inputs_stay_bounded():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (4, 32))
    for q in (1, 2, 3, 5):
        assert np.all(np.abs(power_stack(Tensor(x), q).data) <= 1.0)


def test_backward_hand_example():
    # loss = mean(conv1d(x, w)) with x=[1,2], w=[[[1]]] -> dloss/dw = 3/2
    w = Tensor([[[1.0]]], requires_grad=True)
    conv1d(Tensor([[1.0, 2.0]]), w).mean().backward()
    assert float(w.grad.reshape(-1)[0]) == 1.5


def test_tanh_gradient_at_zero_is_one():
    x = Tensor([0.0], requires_grad=True)
    x.tanh().mean().backward()
    assert float(x.grad[0]) == 1.0


def test_backward_without_recorded_graph_is_usage_error():
    plain = Tensor([1.0, 2.0])
    with pytest.raises(UsageError):
        plain.backward()


def test_backward_nonscalar_needs_seed_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 2.0
    with pytest.raises(UsageError):
        y.backward()
    y.backward(np.ones(2))
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_no_grad_blocks_graph_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 3.0
    assert not y.requires_grad
    with pytest.raises(UsageError):
        y.backward()


def test_gradients_match_finite_differences_per_op():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 15)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
    m = Tensor(rng.standard_normal((15, 4)))
    row = Tensor(rng.standard_normal(15))
    col = Tensor(rng.standard_normal((3, 1)))
    # q=3 kernels for the fused convs (powers, bias and tanh in one node), from
    # their own generator so the other cases check the points they did
    rng3 = np.random.default_rng(8)
    w3 = Tensor(0.5 * rng3.standard_normal((4, 9, 5)), requires_grad=True, dtype=np.float64)
    wt3 = Tensor(0.5 * rng3.standard_normal((9, 4, 4)), requires_grad=True, dtype=np.float64)
    cases = {
        "conv": (lambda: conv1d(x, w, b, stride=2, padding=2).tanh().mean(), [x, w, b]),
        "tconv": (lambda: transposed_conv1d(
            x, Tensor(w.data.transpose(1, 0, 2), requires_grad=False), None, 2, 1
        ).abs().mean(), [x]),
        "power_stack": (lambda: power_stack(x * 0.1, 3).tanh().mean(), [x]),
        "sqrt": (lambda: ((x * x) + 1.0).sqrt().mean(), [x]),
        "matmul": (lambda: (x @ m).tanh().mean(), [x]),
        "concat": (lambda: concat([x, x * 2.0], axis=0).tanh().mean(), [x]),
        "frames": (lambda: frames1d(x.reshape(1, -1), 16, 8).tanh().mean(), [x]),
        # odd (15) and even (16) transform lengths: only the even one has a Nyquist bin
        "power_spectrum": (lambda: (power_spectrum(x).mean()
                                    + power_spectrum(frames1d(x.reshape(1, -1), 16, 8)).mean()), [x]),
        "mul_broadcast": (lambda: (x * row).mean(), [x]),
        "add_broadcast": (lambda: (x + col).tanh().mean(), [x]),
        "conv_fused": (lambda: conv1d(x * 0.3, w3, b, 2, 2, q=3, tanh=True).mean(), [x, w3, b]),
        "tconv_fused": (lambda: transposed_conv1d(x * 0.3, wt3, b, 2, 1, q=3, tanh=True).mean(),
                        [x, wt3, b]),
    }
    for name, (make, params) in cases.items():
        err = fd_gradcheck(make, params, rng, n_points=25)
        assert err < 1e-4, f"{name}: fd mismatch {err}"


def test_fused_convs_check_power_order_and_channels():
    x = np.zeros((2, 10), dtype=np.float32)
    for conv, w in ((conv1d, np.zeros((3, 6, 3), np.float32)),
                    (transposed_conv1d, np.zeros((6, 3, 3), np.float32))):
        assert conv(x, w, q=3).data.shape[0] == 3
        with pytest.raises(ShapeError, match="power order 2"):
            conv(x, w, q=2)
        for bad in (0, 1.5):
            with pytest.raises(ValueError, match="positive integer"):
                conv(x, w, q=bad)


def test_random_graph_gradcheck():
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((2, 12)), requires_grad=True, dtype=np.float64)
    w1 = Tensor(rng.standard_normal((3, 2, 3)), requires_grad=True, dtype=np.float64)
    w2 = Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True, dtype=np.float64)

    def loss():
        h = conv1d(x, w1, None, stride=1, padding=1).tanh()
        h = transposed_conv1d(h, w2, None, stride=2, padding=1)
        return (h * h).mean()

    assert fd_gradcheck(loss, [x, w1, w2], rng, n_points=30) < 1e-4


TCONV_SHAPES = ("c_in,c_out,length,k,stride,padding", [
    (128, 64, 128, 4, 2, 1),   # the U-Net decoder's first stage
    (32, 1, 2048, 4, 2, 1),    # and its last
    (3, 2, 7, 5, 3, 0),
    (2, 3, 5, 1, 4, 0),        # K < stride: gaps between taps
    (1, 2, 1, 6, 2, 2),
])


@pytest.mark.parametrize(*TCONV_SHAPES)
def test_transposed_conv_grads_equal_per_tap_gather(c_in, c_out, length, k, stride, padding):
    # the backward gathers gfull[:, r::stride] rows; taking them tap by tap
    # must give bit-identical weight and input gradients
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((c_in, length)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((c_in, c_out, k)).astype(np.float32), requires_grad=True)
    out = transposed_conv1d(x, w, None, stride, padding)
    g = rng.standard_normal(out.data.shape).astype(np.float32)
    out.backward(g)
    l_full = (length - 1) * stride + k
    gfull = np.zeros((c_out, l_full), dtype=np.float32)
    gfull[:, padding : l_full - padding] = g
    rows = tap_gather_loop(gfull, k, stride, length)
    assert np.array_equal(w.grad, (x.data @ rows.T).reshape(c_in, c_out, k))
    assert np.array_equal(x.grad, w.data.reshape(c_in, c_out * k) @ rows)


@pytest.mark.parametrize(*TCONV_SHAPES)
def test_transposed_conv_output_equals_per_tap_scatter(c_in, c_out, length, k, stride, padding):
    # one += per tap into zeros, then the bias, gives the same bits as the
    # kernel's per-phase assign-then-add
    rng = np.random.default_rng(31)
    x = rng.standard_normal((c_in, length)).astype(np.float32)
    w = rng.standard_normal((c_in, c_out, k)).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32)
    cols = (w.reshape(c_in, c_out * k).T @ x).reshape(c_out, k, length)
    l_full = (length - 1) * stride + k
    full = np.zeros((c_out, l_full), dtype=np.float32)
    for r in range(k):
        full[:, r : r + stride * (length - 1) + 1 : stride] += cols[:, r]
    out = transposed_conv1d(x, w, b, stride, padding).data
    assert np.array_equal(out, full[:, padding : l_full - padding] + b[:, None])


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("c_out,length", [
    (16, 256),                 # 128 windows: taken as cols @ g.T
    (16, 32),                  # 16 windows
    (64, 256),                 # 64 output channels
])
def test_conv1d_weight_gradient_is_g_times_columns(c_out, length, q):
    # the weight gradient is g @ cols.T in either operand order; a tolerance,
    # as a BLAS may sum the two orders differently (both were bit-equal here)
    rng = np.random.default_rng(37)
    c_in, k, stride, padding = 3, 7, 2, 3
    x = rng.standard_normal((c_in, length)).astype(np.float32)
    w = Tensor(rng.standard_normal((c_out, q * c_in, k)).astype(np.float32), requires_grad=True)
    out = conv1d(x, w, None, stride, padding, q=q)
    g = rng.standard_normal(out.data.shape).astype(np.float32)
    out.backward(g)
    powers = [x]
    for _ in range(q - 1):
        powers.append(powers[-1] * x)
    xp = np.pad(np.concatenate(powers), ((0, 0), (padding, padding)))
    l_out = g.shape[1]
    cols = np.stack([xp[:, t : t + stride * (l_out - 1) + 1 : stride] for t in range(k)], axis=1)
    want = (g @ cols.reshape(q * c_in * k, l_out).T).reshape(w.data.shape)
    assert w.grad.flags.c_contiguous
    np.testing.assert_allclose(w.grad, want, rtol=1e-6, atol=1e-4)


def test_frozen_conv_weights_keep_no_columns_for_backward():
    # a conv node keeps its input, weights and output, and backward forms the
    # im2col columns and input powers again, whether or not the weights
    # train; the other gradients do not depend on it
    rng = np.random.default_rng(29)
    x_data = rng.standard_normal((3, 50)).astype(np.float32)
    b_data = rng.standard_normal(4).astype(np.float32)
    for op, w_shape in ((conv1d, (4, 6, 5)), (transposed_conv1d, (6, 4, 5))):
        w_data = rng.standard_normal(w_shape).astype(np.float32)
        grads = {}
        for frozen in (False, True):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=not frozen)
            b = Tensor(b_data, requires_grad=True)
            out = op(x, w, b, stride=2, padding=2, q=2)
            held = [cell.cell_contents for cell in out._backward.__closure__]
            for v in held:
                if isinstance(v, np.ndarray):
                    assert any(np.shares_memory(v, t.data) for t in (x, w, out)), (op, v.shape)
            out.tanh().mean().backward()
            grads[frozen] = (x.grad, b.grad)
        assert all(np.array_equal(a, b) for a, b in zip(grads[False], grads[True]))


def test_forward_is_bit_reproducible():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 64)).astype(np.float32)
    w = rng.standard_normal((5, 3, 7)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    first = conv1d(x, w, b, stride=2, padding=3).data
    for _ in range(3):
        again = conv1d(x, w, b, stride=2, padding=3).data
        assert np.array_equal(first, again)


def test_finite_inputs_give_finite_outputs():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 40)).astype(np.float32)
    w = rng.standard_normal((4, 2, 5)).astype(np.float32)
    out = conv1d(x, w, None, 2, 2).tanh()
    out2 = transposed_conv1d(out, rng.standard_normal((4, 1, 4)).astype(np.float32), None, 2, 1)
    assert np.isfinite(out2.data).all()


def test_grad_accumulates_across_shared_nodes():
    x = Tensor([2.0], requires_grad=True)
    y = x * x  # d/dx = 2x = 4
    y.backward(np.ones(1))
    assert float(x.grad[0]) == 4.0


def _graph_nodes(root):
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def _leaf(rng, shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def _twice(rng):
    x = _leaf(rng, (2, 8))
    return [x], x + x


def _concat_skip(rng):
    x, w = _leaf(rng, (2, 8)), _leaf(rng, (2, 8))
    return [x, w], concat([(x * w).tanh(), x])


def _two_leaves(rng):
    a, b = _leaf(rng, (2, 8)), _leaf(rng, (2, 8))
    return [a, b], a + b


@pytest.mark.parametrize("build", [_twice, _concat_skip, _two_leaves])
def test_leaf_gradients_own_their_memory(build):
    # interior nodes may pass their gradients on without a copy; a leaf's
    # .grad must still be its own array after backward()
    rng = np.random.default_rng(21)
    leaves, root = build(rng)
    seed = rng.standard_normal(root.data.shape).astype(np.float32)
    root.backward(seed)
    nodes = _graph_nodes(root)
    for leaf in leaves:
        assert leaf.grad is not None
        assert not np.shares_memory(leaf.grad, seed)
        for node in nodes:
            assert not np.shares_memory(leaf.grad, node.data)
            if node is not leaf and node.grad is not None:
                assert not np.shares_memory(leaf.grad, node.grad)
