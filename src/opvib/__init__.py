"""opvib: sound-to-vibration transformation and bearing fault detection
with 1D operational (generative-neuron) networks, built on a small
numpy autodiff core."""

import os as _os
import sys as _sys

# BLAS reads its thread-count variables once, when numpy loads it, so only
# their values from before that tell how many threads BLAS runs; None when
# numpy was imported first and those values are unknown
_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_ENV_AT_LOAD = (None if "numpy" in _sys.modules
                     else {name: _os.environ.get(name) for name in _PIN_VARS})

__version__ = "0.1.0"

from .tensor import (
    Tensor,
    ShapeError,
    UsageError,
    no_grad,
    concat,
    conv1d,
    transposed_conv1d,
    power_stack,
    frames1d,
    power_spectrum,
)
from .optim import Adam, AdamState, adam_step
from .selfonn import (
    OperationalLayer,
    OperationalLayerConfig,
    generative_forward,
    transposed_generative_forward,
)
from .signal import (
    DegenerateSegmentWarning,
    SegmentPair,
    Signal,
    hann_window,
    normalize_segment,
    segment_signal,
    spectrogram,
    stft,
)
from .losses import (
    LossBreakdown,
    loss_class,
    loss_stft,
    loss_time,
    loss_total,
    stft_magnitude,
)
from .models import (
    CLASS_TARGETS,
    CheckpointError,
    ConfigError,
    FaultClassifier,
    OpUNet,
    load_checkpoint,
    parameter_count,
    predict_label,
    save_checkpoint,
)
from .dataio import (
    DataError,
    DatasetManifest,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    load_recording,
    load_segment_pairs,
    write_wav,
)
from .training import (
    DataSplit,
    TrainConfig,
    run_experiment,
    split_dataset,
    train_fault_detector,
    train_transformer,
)
from .evaluation import (
    MetricsReport,
    benchmark_inference,
    compute_metrics,
    real_time_factor,
)
