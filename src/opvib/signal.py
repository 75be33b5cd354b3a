"""Segmentation, normalization, Hann windowing, STFT and spectrograms.

All functions are pure and operate on plain numpy arrays; the sample rate
travels separately (or inside :class:`Signal`).
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
    "num_stft_frames",
]


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

    @property
    def duration_seconds(self):
        return self.samples.size / self.sample_rate_hz


@dataclass
class SegmentPair:
    """One normalized sound segment, its paired vibration segment, and a label."""

    sound: np.ndarray
    vibration: np.ndarray
    label: str
    machine_id: str = ""
    speed: float = 0.0
    load: str = ""
    sensor_id: str = ""
    degenerate: bool = False
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
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot normalize an empty segment")
    if not np.isfinite(x).all():
        raise ValueError("cannot normalize a segment containing NaN/Inf")
    lo = x.min()
    hi = x.max()
    if hi == lo:
        warnings.warn("degenerate (constant) segment mapped to zeros", DegenerateSegmentWarning,
                      stacklevel=2)
        return np.zeros_like(x, dtype=x.dtype if np.issubdtype(x.dtype, np.floating) else np.float32)
    return (2.0 * (x - lo) / (hi - lo) - 1.0).astype(
        x.dtype if np.issubdtype(x.dtype, np.floating) else np.float32
    )


def segment_signal(s: Signal, seg_seconds=1.0, hop_seconds=None):
    """Cut a signal into fixed-length windows (non-overlapping by default).

    The trailing partial window is discarded; a too-short signal yields an
    empty list with a warning rather than an error.
    """
    if hop_seconds is None:
        hop_seconds = seg_seconds
    seg_len = int(round(seg_seconds * s.sample_rate_hz))
    hop_len = int(round(hop_seconds * s.sample_rate_hz))
    if seg_len < 1 or hop_len < 1:
        raise ValueError("segment and hop must cover at least one sample")
    n = s.samples.size
    if n < seg_len:
        warnings.warn(
            f"signal of {n} samples is shorter than one {seg_len}-sample segment",
            stacklevel=2,
        )
        return []
    count = (n - seg_len) // hop_len + 1
    return [s.samples[i * hop_len : i * hop_len + seg_len].copy() for i in range(count)]


def hann_window(n):
    """Periodic (DFT-even) Hann window: w[k] = 0.5*(1 - cos(2*pi*k/n))."""
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def num_stft_frames(length, n_fft=256, hop=128):
    return (length - n_fft) // hop + 1


def windowed_frames(x, n_fft=256, hop=128, window=None):
    """Frames ``x[t*hop : t*hop + n_fft]`` times the window, a differentiable
    ``(frames, n_fft)`` :class:`~opvib.tensor.Tensor` in the dtype of ``x``.

    The window defaults to the periodic Hann.  :func:`stft`,
    :func:`spectrogram` and :func:`opvib.losses.stft_magnitude` all frame
    through here, so the transform the tests check is the one the loss trains on.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.size < n_fft:
        raise ShapeError(f"segment shorter than FFT size: {x.data.size} < {n_fft}")
    window = hann_window(n_fft) if window is None else np.asarray(window)
    if window.shape != (n_fft,):
        raise ShapeError(f"window shape {window.shape} != ({n_fft},)")
    return frames1d(x, n_fft, hop) * window.astype(x.dtype)


def stft(x, n_fft=256, hop=128, window=None):
    """Short-time Fourier transform, returning ``(frames, n_fft//2 + 1)`` complex bins.

    Frame t covers ``x[t*hop : t*hop + n_fft]``, computed in float64; the
    window defaults to the periodic Hann.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return np.fft.rfft(windowed_frames(x, n_fft, hop, window).data, axis=1)


def spectrogram(x, n_fft=256, hop=128, window=None):
    """Squared-magnitude STFT; entries are non-negative."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return power_spectrum(windowed_frames(x, n_fft, hop, window)).data
