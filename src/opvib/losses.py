"""Training losses for the sound-to-vibration transformer.

Three terms enter the objective:

* time-domain mean absolute error between target and synthesized segments,
* mean absolute error between their magnitude short-time spectra, and
* mean squared difference between the cascaded classifier's scores for the
  real and the synthesized vibration.

The combined objective is ``class_mse + lam * (time_l1 + stft_l1)``.  All
reductions are means so the weight keeps the same meaning across segment
lengths.  The spectral path is built from differentiable primitives (frame
slicing, windowing, the power spectrum ``|rfft|^2`` of
:func:`opvib.tensor.power_spectrum`, and a softened magnitude
``sqrt(|X|^2 + eps)`` that avoids the gradient singularity at empty bins).
It is the single-resolution case of the STFT loss of Parallel WaveGAN
(Yamamoto, Song & Kim, ICASSP 2020).
"""

from __future__ import annotations

from .signal import windowed_frames
from .tensor import ShapeError, Tensor, power_spectrum

__all__ = [
    "stft_magnitude",
    "loss_time",
    "loss_stft",
    "loss_class",
    "loss_total",
    "MAGNITUDE_EPS",
]

MAGNITUDE_EPS = 1e-12


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def stft_magnitude(x):
    """Differentiable magnitude spectrogram, shape ``(frames, N_FFT//2 + 1)``."""
    return (power_spectrum(windowed_frames(x)) + MAGNITUDE_EPS).sqrt()


def loss_time(y, synth):
    """Mean absolute error between two equal-length segments."""
    y = _as_tensor(y)
    synth = _as_tensor(synth)
    if y.data.size != synth.data.size:
        raise ShapeError(
            f"segment length mismatch: {y.data.shape} vs {synth.data.shape}"
        )
    return (y.reshape(-1) - synth.reshape(-1)).abs().mean()


def loss_stft(target, synth):
    """Mean absolute error between the magnitude spectrogram ``target``, computed
    beforehand by :func:`stft_magnitude` so a fixed target is transformed once,
    and that of the segment ``synth``."""
    target = _as_tensor(target)
    ms = stft_magnitude(synth)
    if target.data.shape != ms.data.shape:
        raise ShapeError(f"spectrogram shape mismatch: {target.data.shape} vs {ms.data.shape}")
    return (target - ms).abs().mean()


def loss_class(score_real, score_synth):
    """Mean squared difference between the two classifier score vectors."""
    a = _as_tensor(score_real)
    b = _as_tensor(score_synth)
    d = a.reshape(-1) - b.reshape(-1)
    return (d * d).mean()


def loss_total(time_l1, stft_l1, class_mse, lam=100.0):
    """Weighted combination ``class_mse + lam * (time_l1 + stft_l1)``.

    Works on floats and on tensors (in which case gradients flow through
    every term).
    """
    return class_mse + lam * (time_l1 + stft_l1)

