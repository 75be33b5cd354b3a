import numpy as np
import pytest

from opvib.signal import (
    DegenerateSegmentWarning,
    Signal,
    hann_window,
    normalize_segment,
    segment_signal,
    spectrogram,
    stft,
)
from util import brute_dft


def test_normalize_maps_extremes_to_unit_interval():
    assert np.allclose(normalize_segment(np.array([0.0, 5.0, 10.0])), [-1.0, 0.0, 1.0])
    assert np.allclose(normalize_segment(np.array([2.0, 4.0])), [-1.0, 1.0])


@pytest.mark.parametrize("values", [[-32768, 0, 32767], [-128, 0, 127], [-100, 0, 100]])
def test_normalize_integer_extremes_do_not_wrap(values):
    # raw PCM: subtracted in its own dtype, the range would overflow
    x = np.array(values, dtype=np.int16 if min(values) < -128 else np.int8)
    lo, hi = min(values), max(values)
    want = np.array([2.0 * (v - lo) / (hi - lo) - 1.0 for v in values], dtype=np.float32)
    with np.errstate(all="raise"):
        out = normalize_segment(x)
    assert out.dtype == np.float32
    assert np.array_equal(out, want)


def test_normalize_degenerate_segment_flags_and_zeros():
    with pytest.warns(DegenerateSegmentWarning):
        out = normalize_segment(np.array([-3.0, -3.0, -3.0]))
    assert np.array_equal(out, np.zeros(3))


def test_normalize_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        normalize_segment(np.array([]))
    with pytest.raises(ValueError):
        normalize_segment(np.array([1.0, np.nan]))


def test_normalize_idempotent_on_full_range_input():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 100)
    x[0], x[1] = -1.0, 1.0
    assert np.abs(normalize_segment(normalize_segment(x)) - normalize_segment(x)).max() < 1e-7


def test_segmentation_counts():
    s = Signal(np.arange(10_000, dtype=np.float32), 1000.0)
    assert len(segment_signal(s)) == 10
    s2 = Signal(np.arange(10_500, dtype=np.float32), 1000.0)
    assert len(segment_signal(s2)) == 10           # trailing half segment dropped


def test_segmentation_covers_prefix_exactly():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(2_567).astype(np.float32)
    s = Signal(samples, 256.0)
    segs = segment_signal(s)
    joined = np.concatenate(segs)
    assert np.array_equal(joined, samples[: len(segs) * 256])


def test_too_short_signal_warns_and_returns_empty():
    with pytest.warns(UserWarning):
        out = segment_signal(Signal(np.zeros(10, dtype=np.float32), 1000.0))
    assert out == []


def test_hann_closed_form():
    assert np.allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5])
    for n in (2, 8, 256, 1000):
        assert hann_window(n)[0] == 0.0
    assert abs(hann_window(256).mean() - 0.5) < 1e-3


def test_stft_sinusoid_peak_and_leakage_match_brute_dft():
    n = 256
    x = np.cos(2 * np.pi * 8 * np.arange(n) / n)
    frames = stft(x)
    assert frames.shape == (1, 129)
    mags = np.abs(frames[0])
    assert int(np.argmax(mags)) == 8
    oracle = brute_dft(x * hann_window(n))
    assert np.abs(frames[0] - oracle).max() < 1e-8


def test_stft_zero_and_constant_signals():
    assert np.all(stft(np.zeros(512)) == 0)
    frames = stft(np.ones(256))
    window = hann_window(256)
    assert abs(np.abs(frames[0, 0]) - window.sum()) < 1e-9
    # periodic Hann of a constant leaks only into the two adjacent bins
    assert np.abs(frames[0, 1]) > 1.0
    assert np.all(np.abs(frames[0, 3:]) < 1e-10)


def test_stft_shorter_than_fft_size_errors():
    with pytest.raises(ValueError, match="shorter than FFT size"):
        stft(np.zeros(100))


def test_stft_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(640), rng.standard_normal(640)
    lhs = stft(2.5 * x - 1.5 * y)
    rhs = 2.5 * stft(x) - 1.5 * stft(y)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_stft_frame_count_and_determinism():
    x = np.random.default_rng(3).standard_normal(4096)
    frames = stft(x)
    assert frames.shape[0] == (4096 - 256) // 128 + 1 == 31
    assert np.array_equal(frames, stft(x))


def test_windowed_parseval_per_frame():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1024)
    n = 256
    window = hann_window(n)
    for t in range((1024 - n) // 128 + 1):
        frame = window * x[t * 128 : t * 128 + n]
        full = np.fft.fft(frame)
        lhs = float(np.sum(np.abs(full) ** 2))
        rhs = n * float(np.sum(frame ** 2))
        assert abs(lhs - rhs) <= 1e-6 * rhs


def test_spectrogram_is_squared_magnitude():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(512)
    spec = spectrogram(x)
    assert np.all(spec >= 0)
    assert np.abs(spec - np.abs(stft(x)) ** 2).max() < 1e-10
    assert np.all(spectrogram(np.zeros(512)) == 0)
    assert np.abs(spectrogram(2.0 * x) - 4.0 * spec).max() < 1e-8


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        Signal(np.array([np.inf]), 100.0)
