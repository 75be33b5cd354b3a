import numpy as np
import pytest

from opvib.selfonn import (
    OperationalLayer,
    OperationalLayerConfig,
    generative_forward,
    init_generative_weights,
    to_gemm_layout,
    to_paper_layout,
    transposed_generative_forward,
)
from opvib.tensor import ShapeError, Tensor, conv1d, transposed_conv1d
from util import fd_gradcheck


def test_generative_direct_evaluation():
    # K=2, Q=2, single channel: (0.5 - 1.0) + (0.25 + 0) = -0.25
    w = np.zeros((2, 1, 1, 2))
    w[0, 0, 0, 0] = 1.0
    w[0, 0, 0, 1] = 2.0
    w[1, 0, 0, 0] = 1.0
    out = generative_forward(Tensor([[0.5, -0.5]]), Tensor(w), Tensor([0.0]))
    assert np.allclose(out.data, [[-0.25]])


def test_q1_reduces_to_plain_convolution():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        length = int(rng.integers(k, k + 20))
        y = rng.uniform(-1, 1, (c_in, length)).astype(np.float32)
        w = rng.standard_normal((1, c_out, c_in, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        gen = generative_forward(Tensor(y), Tensor(w), Tensor(b)).data
        ref = conv1d(Tensor(y), Tensor(w[0]), Tensor(b)).data
        assert np.abs(gen - ref).max() < 1e-6


def test_zero_input_yields_bias_broadcast():
    w = np.random.default_rng(0).standard_normal((3, 2, 1, 4)).astype(np.float32)
    b = np.array([0.25, -1.5], dtype=np.float32)
    out = generative_forward(Tensor(np.zeros((1, 9), dtype=np.float32)), Tensor(w), Tensor(b))
    assert np.allclose(out.data, b[:, None] * np.ones((2, out.data.shape[1])))


def test_monotone_capacity_zero_q2_slice_equals_q1():
    rng = np.random.default_rng(4)
    y = rng.uniform(-1, 1, (2, 16)).astype(np.float32)
    w1 = rng.standard_normal((1, 3, 2, 3)).astype(np.float32)
    w2 = np.concatenate([w1, np.zeros_like(w1)], axis=0)
    b = rng.standard_normal(3).astype(np.float32)
    out1 = generative_forward(Tensor(y), Tensor(w1), Tensor(b), 1, 1).data
    out2 = generative_forward(Tensor(y), Tensor(w2), Tensor(b), 1, 1).data
    assert np.array_equal(out1, out2)


def test_transposed_q1_reduces_to_plain_transposed_conv():
    rng = np.random.default_rng(9)
    y = rng.uniform(-1, 1, (3, 8)).astype(np.float32)
    w = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)   # (Q, out, in, K)
    gen = transposed_generative_forward(Tensor(y), Tensor(w), None, 2, 1).data
    ref = transposed_conv1d(Tensor(y), Tensor(w[0].transpose(1, 0, 2)), None, 2, 1).data
    assert np.abs(gen - ref).max() < 1e-6


def test_transposed_zero_weights_is_bias_only():
    w = np.zeros((2, 3, 2, 4), dtype=np.float32)   # (Q, out, in, K)
    b = np.array([0.5, -0.25, 2.0], dtype=np.float32)
    y = np.random.default_rng(0).uniform(-1, 1, (2, 6)).astype(np.float32)
    out = transposed_generative_forward(Tensor(y), Tensor(w), Tensor(b), 2, 1).data
    assert np.array_equal(out, np.repeat(b[:, None], out.shape[1], axis=1))


def test_strided_layer_shape_formulas():
    cfg = OperationalLayerConfig(1, 4, kernel=7, q=2, stride=2, padding=3)
    layer = OperationalLayer(cfg, np.random.default_rng(0))
    assert layer.config.output_length(16) == 8
    out = layer(Tensor(np.random.default_rng(1).uniform(-1, 1, (1, 16)).astype(np.float32)))
    assert out.data.shape == (4, 8)

    tcfg = OperationalLayerConfig(4, 1, kernel=4, q=2, stride=2, padding=1, transposed=True)
    tlayer = OperationalLayer(tcfg, np.random.default_rng(0))
    assert tlayer.config.output_length(8) == 16
    assert tlayer(out).data.shape == (1, 16)


def test_same_padding_stride1_preserves_length():
    cfg = OperationalLayerConfig(1, 2, kernel=5, q=3, stride=1, padding=2)
    layer = OperationalLayer(cfg, np.random.default_rng(2))
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (1, 33)).astype(np.float32))
    assert layer(x).data.shape == (2, 33)


def test_activation_none_equals_raw_generative_forward():
    cfg = OperationalLayerConfig(2, 3, kernel=3, q=2, stride=1, padding=1, activation="none")
    layer = OperationalLayer(cfg, np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, (2, 12)).astype(np.float32))
    paper = to_paper_layout(layer.weights.data, cfg.q)
    raw = generative_forward(x, paper, layer.biases, 1, 1).data
    assert np.array_equal(layer(x).data, raw)


def test_layers_equal_the_paper_form_reference():
    # the stored GEMM-layout kernels, laid back out as (Q, out, in, K), give the
    # paper-form forward bit for bit, strided and transposed, with tanh
    rng = np.random.default_rng(13)
    cases = [
        (OperationalLayerConfig(3, 5, kernel=7, q=3, stride=2, padding=3), generative_forward),
        (OperationalLayerConfig(4, 2, kernel=4, q=3, stride=2, padding=1, transposed=True),
         transposed_generative_forward),
    ]
    for cfg, reference in cases:
        layer = OperationalLayer(cfg, rng)
        layer.biases.data[:] = rng.standard_normal(cfg.out_channels)
        x = Tensor(rng.uniform(-1, 1, (cfg.in_channels, 32)).astype(np.float32))
        paper = to_paper_layout(layer.weights.data, cfg.q, cfg.transposed)
        assert paper.shape == (cfg.q, cfg.out_channels, cfg.in_channels, cfg.kernel)
        assert np.array_equal(to_gemm_layout(paper, cfg.transposed), layer.weights.data)
        expected = reference(x, paper, layer.biases, cfg.stride, cfg.padding).tanh().data
        assert np.array_equal(layer(x).data, expected)


def test_layer_weights_feed_the_conv_directly():
    # no re-layout node between the trainable kernels and the conv
    for transposed in (False, True):
        cfg = OperationalLayerConfig(2, 3, kernel=4, q=2, stride=2, padding=1,
                                     transposed=transposed, activation="none")
        layer = OperationalLayer(cfg, np.random.default_rng(14))
        out = layer(Tensor(np.random.default_rng(15).uniform(-1, 1, (2, 16)).astype(np.float32)))
        assert any(parent is layer.weights for parent in out._parents)
        assert layer.weights.shape == ((4, 3, 4) if transposed else (3, 4, 4))


def test_tanh_layer_output_bounded_by_unit_interval():
    cfg = OperationalLayerConfig(1, 4, kernel=9, q=3, stride=1, padding=4)
    layer = OperationalLayer(cfg, np.random.default_rng(7))
    x = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, 64)).astype(np.float32))
    assert np.all(np.abs(layer(x).data) < 1.0)
    layer.weights.data *= 50.0  # saturation may round to exactly 1.0 in float32
    assert np.all(np.abs(layer(x).data) <= 1.0)


def test_preactivation_bound_from_bounded_inputs():
    # |y| <= 1 implies |pre-activation| <= sum|w| + |b| per output channel
    rng = np.random.default_rng(10)
    cfg = OperationalLayerConfig(2, 3, kernel=5, q=3, stride=1, padding=2, activation="none")
    layer = OperationalLayer(cfg, rng)
    y = rng.uniform(-1, 1, (2, 40)).astype(np.float32)
    out = layer(Tensor(y)).data
    # weights are (out, Q*in, K): sum every coefficient feeding one output channel
    bound = np.abs(layer.weights.data).sum(axis=(1, 2)) + np.abs(layer.biases.data)
    assert np.all(np.abs(out) <= bound[:, None] + 1e-6)


def test_channel_mismatch_raises_shape_error():
    cfg = OperationalLayerConfig(3, 2, kernel=3, q=2)
    layer = OperationalLayer(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((2, 10), dtype=np.float32)))


def test_gradients_reach_every_q_slice_and_bias():
    rng = np.random.default_rng(12)
    y = Tensor(rng.uniform(-1, 1, (2, 14)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((3, 4, 2, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
    err = fd_gradcheck(lambda: generative_forward(y, w, b, 2, 1).tanh().mean(), [y, w, b], rng)
    assert err < 1e-4
    assert np.any(w.grad[0] != 0) and np.any(w.grad[1] != 0) and np.any(w.grad[2] != 0)

    wt = Tensor(rng.standard_normal((3, 2, 2, 4)), requires_grad=True, dtype=np.float64)
    err_t = fd_gradcheck(
        lambda: transposed_generative_forward(y, wt, None, 2, 1).tanh().mean(), [y, wt], rng)
    assert err_t < 1e-4


def test_init_scale_follows_fan_in():
    cfg = OperationalLayerConfig(8, 4, kernel=5, q=3)
    weights, biases = init_generative_weights(np.random.default_rng(1), cfg)
    bound = 1.0 / np.sqrt(8 * 5 * 3)
    assert np.abs(weights).max() <= bound
    assert np.array_equal(biases, np.zeros(4, dtype=np.float32))
    assert weights.shape == (3, 4, 8, 5)
    # a layer keeps the same draw, re-laid out once to (out, Q*in, K)
    layer = OperationalLayer(cfg, np.random.default_rng(1))
    assert layer.weights.shape == (4, 3 * 8, 5)
    assert np.array_equal(layer.weights.data, to_gemm_layout(weights))

