"""Segmentation, normalization, Hann windowing, STFT and spectrograms.

All functions are pure and operate on plain numpy arrays; the sample rate
travels separately (or inside :class:`Signal`).  Every short-time transform
uses one geometry: :data:`N_FFT`-sample frames every :data:`HOP` samples,
times the periodic Hann window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, frames1d, power_spectrum

__all__ = [
    "Signal",
    "SegmentPair",
    "DegenerateSegmentWarning",
    "normalize_segment",
    "segment_signal",
    "hann_window",
    "windowed_frames",
    "stft",
    "spectrogram",
    "N_FFT",
    "HOP",
]

# the STFT frame length and the step between frames, in samples
N_FFT = 256
HOP = 128


class DegenerateSegmentWarning(UserWarning):
    """A constant segment cannot be min-max scaled; zeros were returned."""


@dataclass
class Signal:
    """A mono sample stream plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.samples = arr.reshape(-1)
        if not self.sample_rate_hz > 0 or not np.isfinite(self.sample_rate_hz):
            raise ValueError(f"sample rate must be positive and finite, got {self.sample_rate_hz}")
        if not np.isfinite(self.samples).all():
            raise ValueError("signal samples must be finite")


@dataclass
class SegmentPair:
    """One normalized sound segment, its paired vibration segment, and a label."""

    sound: np.ndarray
    vibration: np.ndarray
    label: str
    speed: float = 0.0
    sample_rate_hz: float = 0.0

    def __post_init__(self):
        if self.label not in ("healthy", "faulty"):
            raise ValueError(f"label must be 'healthy' or 'faulty', got {self.label!r}")
        if self.sound.shape != self.vibration.shape:
            raise ValueError(
                f"sound/vibration length mismatch: {self.sound.shape} vs {self.vibration.shape}"
            )


def normalize_segment(x):
    """Scale a segment linearly so its minimum maps to -1 and maximum to +1.

    A constant segment is degenerate for min-max scaling: all zeros are
    returned and a :class:`DegenerateSegmentWarning` is emitted (silent
    stretches must not abort a pipeline).
    """
    out, degenerate = _normalize_with_flag(x)
    if degenerate:
        warnings.warn("degenerate (constant) segment mapped to zeros", DegenerateSegmentWarning,
                      stacklevel=2)
    return out


def _normalize_with_flag(x):
    """:func:`normalize_segment` without the warning, as ``(segment, degenerate)``."""
    x = np.asarray(x)
    dtype = x.dtype
    if not np.issubdtype(dtype, np.floating):
        # integer samples, raw PCM among them, would wrap if subtracted in their own dtype
        x, dtype = x.astype(np.float64), np.float32
    if x.size == 0:
        raise ValueError("cannot normalize an empty segment")
    if not np.isfinite(x).all():
        raise ValueError("cannot normalize a segment containing NaN/Inf")
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x, dtype=dtype), True
    return (2.0 * (x - lo) / (hi - lo) - 1.0).astype(dtype, copy=False), False


def segment_signal(s: Signal, seg_seconds=1.0):
    """Cut a signal into non-overlapping fixed-length windows.

    The trailing partial window is discarded; a too-short signal yields an
    empty list with a warning rather than an error.
    """
    seg_len = int(round(seg_seconds * s.sample_rate_hz))
    if seg_len < 1:
        raise ValueError("a segment must cover at least one sample")
    n = s.samples.size
    if n < seg_len:
        warnings.warn(
            f"signal of {n} samples is shorter than one {seg_len}-sample segment",
            stacklevel=2,
        )
        return []
    return [s.samples[i * seg_len : (i + 1) * seg_len].copy() for i in range(n // seg_len)]


def hann_window(n):
    """Periodic (DFT-even) Hann window: w[k] = 0.5*(1 - cos(2*pi*k/n))."""
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def windowed_frames(x):
    """Frames ``x[t*HOP : t*HOP + N_FFT]`` times the periodic Hann window,
    a differentiable ``(frames, N_FFT)`` :class:`~opvib.tensor.Tensor` in
    the dtype of ``x``.

    :func:`stft`, :func:`spectrogram` and :func:`opvib.losses.stft_magnitude`
    all frame through here, so the transform the tests check is the one the loss trains on.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.size < N_FFT:
        raise ShapeError(f"segment shorter than FFT size: {x.data.size} < {N_FFT}")
    return frames1d(x, N_FFT, HOP) * hann_window(N_FFT).astype(x.dtype)


def stft(x):
    """Short-time Fourier transform, returning ``(frames, N_FFT//2 + 1)`` complex bins.

    Frame t covers ``x[t*HOP : t*HOP + N_FFT]``, computed in float64.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return np.fft.rfft(windowed_frames(x).data, axis=1)


def spectrogram(x):
    """Squared-magnitude STFT; entries are non-negative."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return power_spectrum(windowed_frames(x)).data
