"""Dataset splitting and the two-stage training protocol.

The fault detector is pre-trained on real vibration segments with an MSE
objective against tanh-range targets.  The transformer is then trained with
the detector cascaded behind it and frozen: each batch minimizes
``class_mse + lam * (time_l1 + stft_l1)`` where the class term compares the
frozen detector's scores for the real and the synthesized vibration.  The
checkpoint with the best validation total is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import compute_metrics
from .losses import LossBreakdown, loss_class, loss_stft, loss_time, loss_total
from .models import (
    CLASS_TARGETS,
    ConfigError,
    FaultClassifier,
    OpUNet,
    predict_label,
    save_checkpoint,
)
from .optim import Adam
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


@dataclass
class TrainConfig:
    batch_size: int = 8
    max_iterations: int = 1000
    classifier_epochs: int = 50
    learning_rate: float = 1e-4
    lam: float = 100.0
    seed: int = 0
    l_seg: int = 4096
    checkpoint_dir: str | None = None
    train_seconds: float = 2100.0
    val_seconds: float = 800.0
    val_interval: int = 25
    iterations_are_epochs: bool = False
    freeze_detector: bool = True
    class_loss_mode: str = "paired"   # or "target": score vs the label's tanh target

    def __post_init__(self):
        for name in ("batch_size", "max_iterations", "classifier_epochs", "l_seg", "val_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.class_loss_mode not in ("paired", "target"):
            raise ValueError(f"class_loss_mode must be 'paired' or 'target', got {self.class_loss_mode!r}")


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


def split_dataset(records, held_out_speed, train_seconds=2100.0, val_seconds=800.0,
                  seg_seconds=1.0):
    """Chronological split with one speed setting spared for testing.

    All held-out-speed segments form the test set.  Of the remaining
    segments, in order, the first ``train_seconds`` worth go to training and
    the next ``val_seconds`` worth to validation; any surplus is unused.
    """
    speeds = sorted({r.speed for r in records})
    if held_out_speed not in speeds:
        raise ValueError(
            f"held-out speed {held_out_speed} not present; available speeds: {speeds}"
        )
    test = [r for r in records if r.speed == held_out_speed]
    rest = [r for r in records if r.speed != held_out_speed]
    n_train = int(train_seconds / seg_seconds)
    n_val = int(val_seconds / seg_seconds)
    return DataSplit(rest[:n_train], rest[n_train:n_train + n_val], test, held_out_speed)


def _batches(n, batch_size, rng):
    """Shuffled index batches; the last short batch is kept."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _batch_mean(terms):
    """Mean of per-sample loss tensors, summed in sample order."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total / len(terms)


def _require_finite(where, values):
    """Stop a run whose loss went NaN/Inf; such weights must never be kept as "best"."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{where}: {name} is not finite ({value}); training stopped")


def train_fault_detector(train, val, cfg: TrainConfig, log=None):
    """Pre-train the classifier on labeled vibration segments.

    Returns ``(model, history)`` where the model carries the epoch weights
    with the lowest validation MSE and history holds one entry per epoch.
    """
    labels = {p.label for p in train}
    if len(labels) < 2:
        raise ValueError(
            f"detector training needs both classes, got only {sorted(labels)}"
        )
    model = FaultClassifier(l_seg=cfg.l_seg, seed=cfg.seed)
    params = [t for _, t in model.parameters()]
    opt = Adam(params, lr=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history = []
    best = None

    for epoch in range(cfg.classifier_epochs):
        train_mse = 0.0
        for batch in _batches(len(train), cfg.batch_size, rng):
            opt.zero_grad()
            terms = [
                loss_class(CLASS_TARGETS[train[i].label], model(train[i].vibration.reshape(1, -1)))
                for i in batch
            ]
            batch_loss = _batch_mean(terms)
            batch_loss.backward()
            opt.step()
            train_mse += batch_loss.item() * len(terms)
        train_mse /= len(train)
        _require_finite(f"epoch {epoch}", {"train_mse": train_mse})

        val_mse, val_acc = _detector_validation(model, val if val else train)
        _require_finite(f"epoch {epoch}", {"val_mse": val_mse})
        history.append({"epoch": epoch, "train_mse": train_mse,
                        "val_mse": val_mse, "val_accuracy": val_acc})
        if best is None or val_mse < best[0]:
            best = (val_mse, epoch, [t.data.copy() for t in params])
        if log:
            log(f"epoch={epoch} train_mse={train_mse:.6f} val_mse={val_mse:.6f} "
                f"val_acc={val_acc:.2f}")

    for t, data in zip(params, best[2]):
        t.data = data
    if cfg.checkpoint_dir:
        save_checkpoint(model, f"{cfg.checkpoint_dir}/detector_best.opvb",
                        meta={"seed": cfg.seed, "epoch": best[1], "val_mse": best[0]})
    return model, history


def _detector_validation(model, pairs):
    mse = 0.0
    correct = 0
    with no_grad():
        for p in pairs:
            scores = model(p.vibration.reshape(1, -1))
            mse += loss_class(CLASS_TARGETS[p.label], scores).item()
            correct += predict_label(scores) == p.label
    return mse / len(pairs), 100.0 * correct / len(pairs)


def train_transformer(train, val, cfg: TrainConfig, detector: FaultClassifier,
                      log=None, model=None):
    """Cascaded training of the sound-to-vibration transformer.

    The detector is applied to both the real and the synthesized vibration;
    only the transformer's parameters are updated (the detector stays
    frozen unless ``cfg.freeze_detector`` is False).  Returns
    ``(model, history)`` with the best-validation-total weights restored.
    """
    if detector.l_seg != cfg.l_seg:
        raise ConfigError(
            f"detector expects segments of {detector.l_seg} samples, config says {cfg.l_seg}"
        )
    if model is None:
        model = OpUNet(l_seg=cfg.l_seg, seed=cfg.seed)
    elif model.l_seg != cfg.l_seg:
        raise ConfigError(f"model l_seg {model.l_seg} != config l_seg {cfg.l_seg}")

    params = [t for _, t in model.parameters()]
    det_params = [t for _, t in detector.parameters()]
    saved_flags = [t.requires_grad for t in det_params]
    if cfg.freeze_detector:
        for t in det_params:
            t.requires_grad = False
        opt = Adam(params, lr=cfg.learning_rate)
    else:
        opt = Adam(params + det_params, lr=cfg.learning_rate)

    rng = np.random.default_rng(cfg.seed)
    batches_per_epoch = max(1, (len(train) + cfg.batch_size - 1) // cfg.batch_size)
    total_iters = (cfg.max_iterations * batches_per_epoch
                   if cfg.iterations_are_epochs else cfg.max_iterations)

    history = []
    best = None
    val_total = float("nan")
    it = 0
    try:
        while it < total_iters:
            for batch in _batches(len(train), cfg.batch_size, rng):
                if it >= total_iters:
                    break
                opt.zero_grad()
                terms = []
                items = []
                for i in batch:
                    sample = _sample_losses(model, detector, train[i], cfg)
                    terms.append(loss_total(*sample, cfg.lam))
                    items.append([t.item() for t in sample])
                batch_loss = _batch_mean(terms)
                batch_loss.backward()
                opt.step()
                it += 1

                n = len(terms)
                bd = LossBreakdown.from_components(*(sum(col) / n for col in zip(*items)), cfg.lam)
                _require_finite(f"iteration {it}", {"time": bd.time_l1, "stft": bd.stft_l1,
                                                    "class": bd.class_mse})
                if it == 1 or it % cfg.val_interval == 0 or it == total_iters:
                    val_total = _transformer_validation(model, detector, val if val else train, cfg)
                    _require_finite(f"iteration {it}", {"val_total": val_total})
                    if best is None or val_total < best[0]:
                        best = (val_total, it, [t.data.copy() for t in params])
                        if cfg.checkpoint_dir:
                            save_checkpoint(model, f"{cfg.checkpoint_dir}/transformer_best.opvb",
                                            meta={"seed": cfg.seed, "iteration": it,
                                                  "val_loss": val_total})
                history.append({"iter": it, "time": bd.time_l1, "stft": bd.stft_l1,
                                "class": bd.class_mse, "total": bd.total,
                                "val_total": val_total})
                if log:
                    log(f"iter={it} time={bd.time_l1:.6f} stft={bd.stft_l1:.6f} "
                        f"class={bd.class_mse:.6f} total={bd.total:.6f} val_total={val_total:.6f}")
    finally:
        for t, flag in zip(det_params, saved_flags):
            t.requires_grad = flag

    if best is not None:
        for t, data in zip(params, best[2]):
            t.data = data
    return model, history


def _sample_losses(model, detector, pair, cfg):
    """Time, spectral and class loss tensors of one pair, as ``(time, stft, class)``.

    The class term compares the detector's scores for the synthesized
    vibration with its scores for the real vibration (``paired``) or with the
    label's tanh target (``target``).
    """
    synth = model(pair.sound.reshape(1, -1))
    t_loss = loss_time(pair.vibration, synth)
    s_loss = loss_stft(pair.vibration, synth)
    score_s = detector(synth)
    if cfg.class_loss_mode == "paired":
        with no_grad():
            score_y = detector(pair.vibration.reshape(1, -1))
        c_loss = loss_class(score_y.data, score_s)
    else:
        c_loss = loss_class(CLASS_TARGETS[pair.label], score_s)
    return t_loss, s_loss, c_loss


def _transformer_validation(model, detector, pairs, cfg):
    total = 0.0
    with no_grad():
        for pair in pairs:
            t_loss, s_loss, c_loss = (t.item() for t in _sample_losses(model, detector, pair, cfg))
            total += loss_total(t_loss, s_loss, c_loss, cfg.lam)
    return total / len(pairs)


def classify_pairs(detector, pairs, transformer=None):
    """Detector predictions over segments; with a transformer, classify the
    vibration synthesized from each segment's sound instead of the real one."""
    preds = []
    labels = []
    with no_grad():
        for pair in pairs:
            if transformer is None:
                vib = pair.vibration.reshape(1, -1)
            else:
                vib = transformer(pair.sound.reshape(1, -1))
            preds.append(predict_label(detector(vib)))
            labels.append(pair.label)
    return preds, labels


def run_experiment(cfg: TrainConfig, pairs, held_out_speed, log=None,
                   detector=None, transformer=None):
    """Full protocol: train the detector on real vibration, train the
    cascaded transformer, then score the detector on (a) the real test
    vibration and (b) the transformer-synthesized test vibration.

    Returns a dict with both metrics reports and the real-vs-synthesized
    accuracy gap.
    """
    split = split_dataset(pairs, held_out_speed, cfg.train_seconds, cfg.val_seconds)
    if not split.test:
        raise ValueError(f"no test segments at held-out speed {held_out_speed}")
    det_history = None
    if detector is None:
        detector, det_history = train_fault_detector(split.train, split.val, cfg, log=log)
    tr_history = None
    if transformer is None:
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
