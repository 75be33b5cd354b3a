"""opvib: sound-to-vibration transformation and bearing fault detection
with 1D operational (generative-neuron) networks, built on a small
numpy autodiff core."""

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
from .optim import Adam
from .selfonn import OperationalLayer, OperationalLayerConfig
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
