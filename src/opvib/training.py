"""Dataset splitting and the two-stage training protocol.

The fault detector is pre-trained on real vibration segments with an MSE
objective against tanh-range targets.  The transformer is then trained with
the detector cascaded behind it and frozen: each batch minimizes
``class_mse + lam * (time_l1 + stft_l1)`` where the class term compares the
frozen detector's scores for the real and the synthesized vibration.  The
real vibration's spectrogram, and the detector's scores for it, are
computed once per pair and call.  The weights with the best validation
total are returned; writing them to a checkpoint is the caller's job.

Both stages run one loop, ``_fit``, on the runtime of :mod:`opvib.parallel`.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .evaluation import compute_metrics
from .losses import loss_class, loss_stft, loss_time, loss_total, stft_magnitude
from .models import CLASS_TARGETS, ConfigError, FaultClassifier, OpUNet, predict_label
from .parallel import _pinned_workers, _SampleParallel
from .tensor import no_grad

__all__ = [
    "TrainConfig",
    "DataSplit",
    "split_dataset",
    "train_fault_detector",
    "train_transformer",
    "classify_pairs",
    "run_experiment",
]


# seconds of data that split_dataset gives to training and then to validation
TRAIN_SECONDS = 2100.0
VAL_SECONDS = 800.0


@dataclass
class TrainConfig:
    batch_size: int = 8
    max_iterations: int = 1000
    classifier_epochs: int = 50
    learning_rate: float = 1e-4
    lam: float = 100.0
    seed: int = 0
    val_interval: int = 25

    def __post_init__(self):
        for name in ("batch_size", "max_iterations", "classifier_epochs", "val_interval", "seed"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")


@dataclass
class DataSplit:
    train: list
    val: list
    test: list
    held_out_speed: float

    def __post_init__(self):
        ids_train = {id(p) for p in self.train}
        ids_val = {id(p) for p in self.val}
        ids_test = {id(p) for p in self.test}
        if ids_train & ids_val or ids_train & ids_test or ids_val & ids_test:
            raise ValueError("train/val/test lists must be pairwise disjoint")
        for name, part in (("train", self.train), ("val", self.val)):
            for p in part:
                if p.speed == self.held_out_speed:
                    raise ValueError(f"{name} split contains a held-out-speed segment")
        for p in self.test:
            if p.speed != self.held_out_speed:
                raise ValueError("test split contains a non-held-out-speed segment")


def split_dataset(records, held_out_speed, train_seconds=TRAIN_SECONDS, val_seconds=VAL_SECONDS):
    """Chronological split with one speed setting spared for testing.

    All held-out-speed segments form the test set.  Of the remaining
    1-second segments, in order, the first ``int(train_seconds)`` go to
    training and the next ``int(val_seconds)`` to validation; any surplus is unused.
    """
    for name, value in (("train_seconds", train_seconds), ("val_seconds", val_seconds)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    speeds = sorted({r.speed for r in records})
    if held_out_speed not in speeds:
        raise ValueError(
            f"held-out speed {held_out_speed} not present; available speeds: {speeds}"
        )
    test = [r for r in records if r.speed == held_out_speed]
    rest = [r for r in records if r.speed != held_out_speed]
    n_train = int(train_seconds)
    n_val = int(val_seconds)
    return DataSplit(rest[:n_train], rest[n_train:n_train + n_val], test, held_out_speed)


def _batches(n, batch_size, rng):
    """Shuffled index batches; the last short batch is kept."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _batch_mean(losses):
    """Mean of per-sample loss arrays in their own dtype, summed in sample order."""
    total = sum(losses[1:], losses[0])
    return float(total * np.asarray(1.0 / len(losses), dtype=total.dtype))


def _require_finite(where, values):
    """Stop a run whose loss went NaN/Inf; such weights must never be kept as "best"."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{where}: {name} is not finite ({value}); training stopped")


def _fit(model, cfg, workers, sample_loss, evaluate, val_count, rounds, reduce, val_columns,
         line, log):
    """The training loop of both stages; returns ``(model, history)``.

    Each round ``(where, head, batches, validate)`` takes one Adam step per
    batch, and ``reduce`` turns the steps' values into the round's as they
    come.  A round that validates (the first does) averages ``val_columns``
    over ``evaluate``'s ``val_count`` items; the lowest first column's weights are kept.
    """
    params = [t for _, t in model.parameters()]
    history = []
    best = None
    with _SampleParallel(params, cfg, workers, sample_loss, evaluate) as engine:
        for where, head, batches, validate in rounds:
            values = reduce(engine.step(batch) for batch in batches)
            _require_finite(where, values)
            if validate:
                items = engine.workers.map("eval", range(val_count))
                val = {name: sum(col) / val_count for name, col in zip(val_columns, zip(*items))}
                _require_finite(where, val)
                if best is None or val[val_columns[0]] < best[0]:
                    best = (val[val_columns[0]], [t.data.copy() for t in params])
            history.append({**head, **values, **val})
            if log:
                log(line.format_map(history[-1]))
        # the best weights take the parameters off the shared row, so the
        # engine's exit copies none of them
        for t, data in zip(params, best[1]):
            t.data = data
    return model, history


def train_fault_detector(train, val, cfg: TrainConfig, log=None):
    """Pre-train the classifier on labeled vibration segments.

    The segment length is the pairs'.  Returns ``(model, history)`` where
    the model carries the epoch weights with the lowest validation MSE and
    history holds one entry per epoch.
    """
    labels = {p.label for p in train}
    if len(labels) < 2:
        raise ValueError(
            f"detector training needs both classes, got only {sorted(labels)}"
        )
    lengths = {p.vibration.size for p in [*train, *val]}
    if len(lengths) > 1:
        raise ValueError(f"training and validation segments differ in length: {sorted(lengths)}")
    model = FaultClassifier(l_seg=lengths.pop(), seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    val_pairs = val if val else train

    def sample_loss(i):
        pair = train[i]
        loss = loss_class(CLASS_TARGETS[pair.label], model(pair.vibration.reshape(1, -1)))
        return loss, loss.data

    def evaluate(i):
        pair = val_pairs[i]
        with no_grad():
            scores = model(pair.vibration.reshape(1, -1))
            return (loss_class(CLASS_TARGETS[pair.label], scores).item(),
                    100.0 * (predict_label(scores) == pair.label))

    def reduce(steps):
        return {"train_mse": sum(_batch_mean(losses) * len(losses) for losses in steps) / len(train)}

    epochs = ((f"epoch {epoch}", {"epoch": epoch}, _batches(len(train), cfg.batch_size, rng), True)
              for epoch in range(cfg.classifier_epochs))
    with _pinned_workers(cfg) as workers:
        return _fit(model, cfg, workers, sample_loss, evaluate, len(val_pairs), epochs, reduce,
                    ("val_mse", "val_accuracy"),
                    "epoch={epoch} train_mse={train_mse:.6f} val_mse={val_mse:.6f} "
                    "val_acc={val_accuracy:.2f}", log)


def train_transformer(train, val, cfg: TrainConfig, detector: FaultClassifier,
                      log=None, model=None):
    """Cascaded training of the sound-to-vibration transformer.

    The frozen detector scores both the real and the synthesized vibration;
    only the transformer's parameters are updated.  The segment length and
    dtype are the detector's, and a ``model`` or pairs of another length, or
    a ``model`` of another dtype, are a :class:`ConfigError`.  Returns
    ``(model, history)`` with the best-validation-total weights restored.
    """
    if not train:
        raise ValueError("transformer training needs at least one training pair, got none")
    if model is None:
        model = OpUNet(l_seg=detector.l_seg, seed=cfg.seed)
    if model.dtype != detector.dtype:
        raise ConfigError(f"the detector is {detector.dtype} and the model {model.dtype}; "
                          f"training runs in one dtype")
    lengths = {model.l_seg} | {p.sound.size for p in [*train, *val]}
    if lengths != {detector.l_seg}:
        raise ConfigError(f"the detector expects {detector.l_seg}-sample segments; "
                          f"the model and pairs have {sorted(lengths)}")

    rng = np.random.default_rng(cfg.seed)
    val_pairs = val if val else train

    def sample_loss(i):
        sample = _sample_losses(model, detector, train[i], train_fixed[i])
        return loss_total(*sample, cfg.lam), [t.item() for t in sample]

    def evaluate(i):
        with no_grad():
            sample = _sample_losses(model, detector, val_pairs[i], val_fixed[i])
            return (loss_total(*(t.item() for t in sample), cfg.lam),)

    def reduce(steps):
        (items,) = steps
        time_l1, stft_l1, class_mse = (sum(col) / len(items) for col in zip(*items))
        return {"time": time_l1, "stft": stft_l1, "class": class_mse,
                "total": loss_total(time_l1, stft_l1, class_mse, cfg.lam)}

    # one round per batch, over as many epochs as the iterations take
    batches = (b for _ in itertools.count() for b in _batches(len(train), cfg.batch_size, rng))
    iterations = ((f"iteration {it}", {"iter": it}, [batch],
                   it == 1 or it % cfg.val_interval == 0 or it == cfg.max_iterations)
                  for it, batch in zip(range(1, cfg.max_iterations + 1), batches))
    with _pinned_workers(cfg) as workers, _frozen([t for _, t in detector.parameters()]):
        # computed before the workers fork, so they inherit them, and on the
        # BLAS thread count the steps use
        train_fixed = _pair_constants(train, detector)
        val_fixed = _pair_constants(val_pairs, detector)
        return _fit(model, cfg, workers, sample_loss, evaluate, len(val_pairs), iterations,
                    reduce, ("val_total",),
                    "iter={iter} time={time:.6f} stft={stft:.6f} class={class:.6f} "
                    "total={total:.6f} val_total={val_total:.6f}", log)


@contextlib.contextmanager
def _frozen(tensors):
    """Hold ``requires_grad`` off on ``tensors``; restore the flags after."""
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, saved):
            t.requires_grad = flag


def _pair_constants(pairs, detector):
    """What the losses need of each pair's real vibration, as ``(magnitude, scores)``.

    Neither its magnitude spectrogram nor the frozen detector's scores for
    it change during a run, so both are computed once per call.
    """
    with no_grad():
        return [(stft_magnitude(p.vibration).data, detector(p.vibration.reshape(1, -1)).data)
                for p in pairs]


def _sample_losses(model, detector, pair, fixed):
    """Time, spectral and class loss tensors of one pair, as ``(time, stft, class)``.

    ``fixed`` is the pair's entry from :func:`_pair_constants`.  The class
    term compares the detector's scores for the synthesized vibration with
    its scores for the real vibration.
    """
    magnitude, real_scores = fixed
    synth = model(pair.sound.reshape(1, -1))
    return (loss_time(pair.vibration, synth), loss_stft(magnitude, synth),
            loss_class(real_scores, detector(synth)))


def classify_pairs(detector, pairs, transformer=None):
    """Detector predictions over segments; with a transformer, classify the
    vibration synthesized from each segment's sound instead of the real one."""
    preds = []
    with no_grad():
        for pair in pairs:
            if transformer is None:
                vib = pair.vibration.reshape(1, -1)
            else:
                vib = transformer(pair.sound.reshape(1, -1))
            preds.append(predict_label(detector(vib)))
    return preds, [pair.label for pair in pairs]


def run_experiment(cfg: TrainConfig, split: DataSplit, log=None):
    """Full protocol on ``split``: train the detector on real vibration,
    train the cascaded transformer, then score the detector on (a) the real
    test vibration and (b) the transformer-synthesized test vibration.

    Returns a dict with both metrics reports and the real-vs-synthesized
    accuracy gap.
    """
    detector, det_history = train_fault_detector(split.train, split.val, cfg, log=log)
    transformer, tr_history = train_transformer(split.train, split.val, cfg, detector, log=log)

    report_real = compute_metrics(*classify_pairs(detector, split.test))
    report_synth = compute_metrics(*classify_pairs(detector, split.test, transformer))
    return {
        "real": report_real,
        "synthesized": report_synth,
        "accuracy_gap": abs(report_real.accuracy - report_synth.accuracy),
        "split": split,
        "detector": detector,
        "transformer": transformer,
        "detector_history": det_history,
        "transformer_history": tr_history,
    }
