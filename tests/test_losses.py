import numpy as np
import pytest

from opvib.losses import (
    loss_class,
    loss_stft,
    loss_time,
    loss_total,
    stft_magnitude,
)
from opvib.signal import hann_window, stft
from opvib.tensor import ShapeError, Tensor
from util import brute_dft, fd_gradcheck


def test_time_loss_examples():
    y = np.array([1.0, -1.0, 0.0, 0.0])
    assert loss_time(y, y).item() == 0.0
    assert loss_time(y, np.zeros(4)).item() == 0.5
    s = np.array([0.2, 0.1, -0.4, 0.0])
    assert loss_time(y, s).item() == loss_time(s, y).item()


def test_time_loss_length_mismatch():
    with pytest.raises(ShapeError):
        loss_time(np.zeros(4), np.zeros(5))


def test_stft_loss_zero_for_identical_segments():
    x = np.random.default_rng(0).standard_normal(512)
    assert loss_stft(stft_magnitude(x), x).item() == 0.0


def test_stft_loss_of_sinusoid_vs_silence_matches_brute_dft():
    n = 256
    y = np.cos(2 * np.pi * 8 * np.arange(n) / n)
    # against silence the loss is the mean magnitude of y's own spectrum;
    # the softened magnitude sqrt(m^2 + 1e-12) offsets each bin by <= 1e-6
    oracle_mag = np.abs(brute_dft(y * hann_window(n)))
    expected = float(oracle_mag.mean())
    got = loss_stft(stft_magnitude(y), np.zeros(n)).item()
    assert abs(got - expected) < 1e-6


def test_stft_loss_nonnegative_and_short_segment_errors():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.standard_normal(300), rng.standard_normal(300)
        assert loss_stft(stft_magnitude(a), b).item() >= 0.0
    with pytest.raises(ShapeError):
        loss_stft(stft_magnitude(np.zeros(100)), np.zeros(100))
    with pytest.raises(ShapeError):
        loss_stft(np.zeros(300), np.zeros(300))    # a raw segment is not a spectrogram


def test_class_loss_examples():
    assert loss_class([0.4, -0.4], [0.4, -0.4]).item() == 0.0
    assert loss_class([1.0, -1.0], [-1.0, 1.0]).item() == 4.0
    a, b = np.array([0.3, -0.7]), np.array([-0.1, 0.5])
    assert loss_class(a, b).item() == loss_class(-a, -b).item()


def test_total_composition():
    assert loss_total(0.2, 0.3, 0.1, lam=100.0) == pytest.approx(50.1)
    assert loss_total(0.2, 0.3, 0.1, lam=0.0) == pytest.approx(0.1)
    assert loss_total(0.0, 0.0, 0.0) == 0.0


def test_total_linear_in_lambda():
    t, s, c = 0.17, 0.29, 0.05
    l1 = loss_total(t, s, c, lam=10.0)
    l2 = loss_total(t, s, c, lam=20.0)
    assert l2 - l1 == pytest.approx(10.0 * (t + s))


def test_losses_zero_iff_equal():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(512)
    s = y + 1e-3 * rng.standard_normal(512)
    assert loss_time(y, s).item() > 0.0
    assert loss_stft(stft_magnitude(y), s).item() > 0.0
    assert loss_class([1.0, 0.0], [1.0, 1e-6]).item() > 0.0


def test_magnitude_path_matches_fft_stft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(640)
    mag = stft_magnitude(Tensor(x)).data
    ref = np.abs(stft(x))
    assert np.abs(mag - ref).max() < 1e-10


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(512)
    synth = Tensor(rng.standard_normal(512), requires_grad=True, dtype=np.float64)
    assert fd_gradcheck(lambda: loss_time(y, synth), [synth], rng, n_points=50) < 1e-4
    # spectral path differentiates through the softened magnitude
    assert fd_gradcheck(lambda: loss_stft(stft_magnitude(y), synth), [synth], rng, n_points=50) < 1e-4
    scores = Tensor(rng.standard_normal(2), requires_grad=True, dtype=np.float64)
    assert fd_gradcheck(lambda: loss_class([0.2, -0.8], scores), [scores], rng) < 1e-4


def test_total_gradient_flows_through_all_terms():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(512)
    synth = Tensor(rng.standard_normal(512), requires_grad=True, dtype=np.float64)
    proj = Tensor(np.random.default_rng(6).standard_normal((512, 2)) * 0.01)

    def full_loss():
        t = loss_time(y, synth)
        s = loss_stft(stft_magnitude(y), synth)
        c = loss_class([0.1, -0.1], (synth.reshape(1, -1) @ proj).reshape(-1))
        return loss_total(t, s, c, lam=100.0)

    assert fd_gradcheck(full_loss, [synth], rng, n_points=40) < 1e-4
