import numpy as np
import pytest

from opvib.optim import Adam
from opvib.tensor import ShapeError, Tensor


def param(data, grad=None):
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    t.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
    return t


def test_first_step_magnitude_approximates_lr():
    p = param(np.zeros(1), np.ones(1))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert abs(p.data[0] + 0.1) < 1e-8
    assert opt.t == 1


def test_zero_gradient_leaves_parameters_untouched():
    p = param(np.full(3, 0.7), np.zeros(3))
    Adam([p], lr=0.1).step()
    assert np.array_equal(p.data, np.full(3, 0.7))


def test_equal_gradients_move_identically():
    p = param([1.0, 1.0], [0.3, 0.3])
    opt = Adam([p], lr=0.01)
    for _ in range(5):
        opt.step()
    assert p.data[0] == p.data[1]


def test_step_counter_and_moment_invariants():
    rng = np.random.default_rng(0)
    p = param(rng.standard_normal((4, 3)))
    opt = Adam([p], lr=1e-3)
    for i in range(7):
        p.grad = rng.standard_normal((4, 3))
        opt.step()
        assert opt.t == i + 1
        assert np.all(opt.v[0] >= 0.0)
        assert opt.m[0].shape == p.data.shape


def test_shape_mismatch_is_structured_error():
    good = param(np.zeros(2), np.ones(2))
    bad = param(np.zeros(3), np.zeros(4))
    opt = Adam([good, bad], lr=0.1)
    with pytest.raises(ShapeError, match="parameter 1"):
        opt.step()
    # nothing moved and no step was counted
    assert opt.t == 0
    assert np.array_equal(good.data, np.zeros(2))


def test_adam_wrapper_reads_tensor_grads():
    t = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([t], lr=0.5)
    (t * 2.0).mean().backward()
    opt.step()
    assert np.all(t.data < 0.0)
    opt.zero_grad()
    assert t.grad is None


def test_adam_wrapper_fresh_state_no_grad_is_noop():
    t = Tensor(np.full(2, 0.3), requires_grad=True)
    Adam([t], lr=0.5).step()  # missing grads count as zeros
    assert np.array_equal(t.data, np.full(2, 0.3))


def test_steps_equal_the_update_written_out():
    rng = np.random.default_rng(3)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    shapes = [(3, 2), (4,), (2, 2, 2)]
    dtypes = [np.float32, np.float64, np.float32]
    params = [Tensor(rng.standard_normal(s).astype(d), requires_grad=True)
              for s, d in zip(shapes, dtypes)]
    expected = [p.data.copy() for p in params]
    m = [np.zeros_like(a) for a in expected]
    v = [np.zeros_like(a) for a in expected]
    opt = Adam(params, lr=lr)
    for t in range(1, 5):
        grads = [rng.standard_normal(s).astype(d) for s, d in zip(shapes, dtypes)]
        grads[1] = None                           # a parameter with no gradient this step
        if t == 3:
            grads[0] = None
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, g in enumerate(grads):
            g = np.zeros_like(expected[i]) if g is None else g
            m[i] = m[i] * b1 + (1.0 - b1) * g
            v[i] = v[i] * b2 + (1.0 - b2) * (g * g)
            expected[i] = expected[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
        for p, want in zip(params, expected):
            assert p.data.dtype == want.dtype
            assert np.array_equal(p.data, want)
        for got, want in zip(opt.m + opt.v, m + v):
            assert np.array_equal(got, want)
    assert opt.t == 4
