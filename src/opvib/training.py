"""Dataset splitting and the two-stage training protocol.

The fault detector is pre-trained on real vibration segments with an MSE
objective against tanh-range targets.  The transformer is then trained with
the detector cascaded behind it and frozen: each batch minimizes
``class_mse + lam * (time_l1 + stft_l1)`` where the class term compares the
frozen detector's scores for the real and the synthesized vibration.  The
real vibration's spectrogram, and a frozen detector's scores for it, are
computed once per pair and call.  The checkpoint with the best validation
total is returned.

Both loops are sample-parallel.  Each sample gets its own backward pass
with the seed ``1/n``, its gradient lands in its own slot of one shared
arena, and the slots are summed in sample order before one Adam
update; validation values are summed in sample order too.  The calling
process is worker 0 and forked children take the rest of each batch, so
the result is the same for any worker count.  Children are forked only
when BLAS is verified single-threaded (see ``_worker_count``).
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from . import _BLAS_ENV_AT_LOAD
from .evaluation import compute_metrics
from .losses import LossBreakdown, loss_class, loss_magnitude, loss_time, loss_total, stft_magnitude
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
    "WorkerError",
    "blas_single_threaded",
    "TrainConfig",
    "DataSplit",
    "split_dataset",
    "train_fault_detector",
    "train_transformer",
    "classify_pairs",
    "run_experiment",
]


# the default worker count never exceeds this: two workers is all that has
# been measured to pay, on a 2-core machine
_MAX_DEFAULT_WORKERS = 2


class WorkerError(RuntimeError):
    """A forked training worker raised or died; the message carries its error."""


def blas_single_threaded():
    """True when BLAS is verified to run one thread in this process.

    That is so when ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
    ``MKL_NUM_THREADS`` all read 1 before numpy loaded its BLAS; a value set
    after that has no effect on BLAS and does not count.
    """
    return _BLAS_ENV_AT_LOAD is not None and all(v == "1" for v in _BLAS_ENV_AT_LOAD.values())


def _can_fork():
    return "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus():
    # sched_getaffinity is Linux-only; macOS has fork but not it
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    for name, value in (("train_seconds", train_seconds), ("val_seconds", val_seconds)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    if not (np.isfinite(seg_seconds) and seg_seconds > 0):
        raise ValueError(f"seg_seconds must be finite and positive, got {seg_seconds}")
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


def _batch_mean(losses):
    """Mean of per-sample loss arrays in their own dtype, summed in sample order."""
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return float(total * np.asarray(1.0 / len(losses), dtype=total.dtype))


def _require_finite(where, values):
    """Stop a run whose loss went NaN/Inf; such weights must never be kept as "best"."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{where}: {name} is not finite ({value}); training stopped")


def _worker_count(cfg):
    """Processes that share each batch and validation pass, the caller included.

    ``min(2, usable CPUs, batch_size)`` when BLAS is verified
    single-threaded and the platform can fork, else 1.  The training result
    does not depend on it.
    """
    if not (blas_single_threaded() and _can_fork()):
        # with multithreaded BLAS, two processes only fight over the cores
        return 1
    return min(_MAX_DEFAULT_WORKERS, _usable_cpus(), cfg.batch_size)


def _shared(shape, dtype):
    """A zeroed array on an anonymous shared mapping, which forked children share."""
    dtype = np.dtype(dtype)
    # the array keeps the mapping alive; it is unmapped with the last view of it
    shared = mmap.mmap(-1, max(1, int(np.prod(shape))) * dtype.itemsize)
    return np.frombuffer(shared, dtype, count=int(np.prod(shape))).reshape(shape)


class _Arena:
    """The trained parameters and their per-sample gradients in shared memory.

    The parameters of each dtype form one flat row, with one gradient row
    per batch position in ``grad_dtype``, the dtype their backward passes
    produce.  The parameters are rebound as views into their row, so forked
    workers read every update.  ``release`` rebinds them to private copies.
    """

    def __init__(self, params, slots, grad_dtype):
        self.params = params
        self.grads = []
        self.spans = []                 # (gradient rows, span) per parameter
        for dtype in dict.fromkeys(t.dtype for t in params):
            group = [t for t in params if t.dtype == dtype]
            flat = _shared(sum(t.data.size for t in group), dtype)
            grads = _shared((slots, flat.size), grad_dtype)
            start = 0
            for t in group:
                view = flat[start : start + t.data.size].reshape(t.data.shape)
                view[...] = t.data
                t.data = view
                self.spans.append((grads, slice(start, start + view.size)))
                start += view.size
            self.grads.append(grads)
        # a gradient left over from before the call must not join the first sample's
        self.drop_grads()

    def store_grads(self, pos):
        """Move each parameter's gradient into row ``pos`` (0 where none)."""
        for t, (grads, span) in zip(self.params, self.spans):
            if t.grad is None:
                grads[pos, span] = 0
            elif t.grad.dtype != grads.dtype:
                raise ConfigError(f"a {t.grad.dtype} gradient reached a {grads.dtype} arena")
            else:
                grads[pos, span] = t.grad.reshape(-1)
            t.grad = None

    def sum_grads(self, n):
        """``((g0 + g1) + g2) + ...`` over the first ``n`` rows, handed to
        each parameter as its ``grad``."""
        for grads in self.grads:
            for row in grads[1:n]:
                np.add(grads[0], row, out=grads[0])
        for t, (grads, span) in zip(self.params, self.spans):
            t.grad = grads[0, span].reshape(t.data.shape)

    def drop_grads(self):
        for t in self.params:
            t.grad = None

    def release(self):
        for t in self.params:
            t.data = t.data.copy()


def _died(k, proc):
    proc.join(1.0)
    return WorkerError(f"training worker {k} died (exit code {proc.exitcode})")


class _Workers:
    """Run named tasks over a list of items, split across processes.

    A task maps an iterable of items to the list of their results.  Worker
    0 is the calling process; workers 1.. are children forked at
    construction, which inherit the tasks, the data and the arena, and take
    only small messages over a pipe: a task name with the items, and back
    the results or the error.  Worker ``k`` takes item ``k`` first; after
    that each worker claims the next unclaimed item through a counter in
    shared memory.  So a worker that the machine slows down takes fewer
    items rather than holding up the others at the end of a batch.  ``map``
    returns results in item order.  Forking, not spawning, is what lets the
    children share the arena and skip pickling the models and data.  The
    only other threads are BLAS's, and OpenBLAS shuts its pool down before
    a fork (``pthread_atfork``).
    """

    def __init__(self, count, tasks):
        self.tasks = tasks
        self.children = []
        if count < 2:
            return
        context = multiprocessing.get_context("fork")
        self.lock = context.Lock()
        self.next = _shared((1,), np.int64)     # the next item to claim
        try:
            for k in range(1, count):
                conn, child_conn = context.Pipe()
                proc = context.Process(target=self._serve, args=(k, child_conn), daemon=True)
                proc.start()
                # the parent keeps no copy of the child's end, so a dead
                # child reads as EOF rather than a hang
                child_conn.close()
                self.children.append((proc, conn))
        except BaseException:
            self.close()
            raise

    def _claim(self, k, items, taken):
        """Item ``k``, then each next unclaimed item; their indices go to ``taken``."""
        while k < len(items):
            taken.append(k)
            yield items[k]
            with self.lock:
                k = int(self.next[0])
                self.next[0] = k + 1

    def _run(self, k, name, items):
        taken = []
        results = self.tasks[name](self._claim(k, items, taken))
        return taken, results

    def _serve(self, k, conn):
        # Ctrl-C reaches the whole process group; the parent stops its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            try:
                job = conn.recv()
            except EOFError:                    # the parent is gone
                return
            if job is None:
                return
            try:
                reply = ("ok", self._run(k, *job))
            except Exception:
                conn.send(("error", traceback.format_exc()))
                return
            conn.send(reply)

    def map(self, name, items):
        items = list(items)
        if not self.children:
            return self.tasks[name](items)
        # every worker's first item is its own, so claims start after them
        self.next[0] = 1 + len(self.children)
        busy = [(k, proc, conn) for k, (proc, conn) in enumerate(self.children, start=1)
                if k < len(items)]
        for k, proc, conn in busy:
            try:
                conn.send((name, items))
            except OSError:
                raise _died(k, proc) from None
        results = [None] * len(items)
        replies = [self._run(0, name, items)]
        for k, proc, conn in busy:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                raise _died(k, proc) from None
            if status != "ok":
                raise WorkerError(f"training worker {k} failed:\n{payload}")
            replies.append(payload)
        for taken, values in replies:
            for i, value in zip(taken, values):
                results[i] = value
        return results

    def close(self):
        """Stop every child; idle ones exit at once, the rest are killed."""
        for _, conn in self.children:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc, _ in self.children:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.children = []


class _SampleParallel:
    """Data-parallel steps with a result that does not depend on the worker count.

    ``sample_loss(i)`` returns training sample ``i``'s loss tensor and the
    values to report for it; ``evaluate(i)`` the values of validation item
    ``i``.  Both run on whichever worker holds the item.
    """

    def __init__(self, params, cfg, sample_loss, evaluate, grad_dtype):
        self.sample_loss = sample_loss
        self.arena = _Arena(params, cfg.batch_size, grad_dtype)
        # one Adam array per parameter, as a flat update over a whole row
        # gives the same bits but allocates row-sized temporaries each step
        self.opt = Adam(params, lr=cfg.learning_rate)
        try:
            self.workers = _Workers(_worker_count(cfg), {
                "train": self._backward,
                "eval": lambda items: [evaluate(i) for i in items],
            })
        except BaseException:
            self.arena.release()
            raise

    def _backward(self, jobs):
        """Backward passes over the batch positions this worker claims; returns their values."""
        values = []
        for pos, i, n in jobs:
            loss, value = self.sample_loss(i)
            loss.backward(np.asarray(1.0 / n, dtype=loss.dtype))
            self.arena.store_grads(pos)
            values.append(value)
        return values

    def step(self, batch):
        """One Adam update over ``batch``; returns each sample's values in order."""
        n = len(batch)
        values = self.workers.map("train", [(pos, int(i), n) for pos, i in enumerate(batch)])
        self.arena.sum_grads(n)
        try:
            self.opt.step()
        finally:
            # the summed gradients must not meet the next batch's first sample
            self.arena.drop_grads()
        return values

    def evaluate(self, count):
        return self.workers.map("eval", range(count))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.workers.close()
        finally:
            self.arena.release()


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
    rng = np.random.default_rng(cfg.seed)
    val_pairs = val if val else train
    history = []
    best = None

    def sample_loss(i):
        pair = train[i]
        loss = loss_class(CLASS_TARGETS[pair.label], model(pair.vibration.reshape(1, -1)))
        return loss, loss.data

    def evaluate(i):
        pair = val_pairs[i]
        with no_grad():
            scores = model(pair.vibration.reshape(1, -1))
            return loss_class(CLASS_TARGETS[pair.label], scores).item(), predict_label(scores) == pair.label

    grad_dtype = np.result_type(np.float32, model.dtype)
    with _SampleParallel(params, cfg, sample_loss, evaluate, grad_dtype) as engine:
        for epoch in range(cfg.classifier_epochs):
            train_mse = 0.0
            for batch in _batches(len(train), cfg.batch_size, rng):
                losses = engine.step(batch)
                train_mse += _batch_mean(losses) * len(losses)
            train_mse /= len(train)
            _require_finite(f"epoch {epoch}", {"train_mse": train_mse})

            mse = 0.0
            correct = 0
            for value, hit in engine.evaluate(len(val_pairs)):
                mse += value
                correct += hit
            val_mse, val_acc = mse / len(val_pairs), 100.0 * correct / len(val_pairs)
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
    trained = params if cfg.freeze_detector else params + det_params

    rng = np.random.default_rng(cfg.seed)
    batches_per_epoch = max(1, (len(train) + cfg.batch_size - 1) // cfg.batch_size)
    total_iters = (cfg.max_iterations * batches_per_epoch
                   if cfg.iterations_are_epochs else cfg.max_iterations)
    val_pairs = val if val else train
    # computed before the workers fork, so they inherit them
    train_fixed = _pair_constants(train, detector, cfg)
    val_fixed = _pair_constants(val_pairs, detector, cfg)

    def sample_loss(i):
        sample = _sample_losses(model, detector, train[i], train_fixed[i], cfg)
        return loss_total(*sample, cfg.lam), [t.item() for t in sample]

    def evaluate(i):
        with no_grad():
            sample = _sample_losses(model, detector, val_pairs[i], val_fixed[i], cfg)
            return loss_total(*(t.item() for t in sample), cfg.lam)

    # the float32 segments and targets meet every parameter in the loss graph
    grad_dtype = np.result_type(np.float32, model.dtype, detector.dtype)
    history = []
    best = None
    val_total = float("nan")
    it = 0
    with _frozen(det_params, cfg.freeze_detector), \
            _SampleParallel(trained, cfg, sample_loss, evaluate, grad_dtype) as engine:
        while it < total_iters:
            for batch in _batches(len(train), cfg.batch_size, rng):
                if it >= total_iters:
                    break
                items = engine.step(batch)
                it += 1

                n = len(items)
                bd = LossBreakdown.from_components(*(sum(col) / n for col in zip(*items)), cfg.lam)
                _require_finite(f"iteration {it}", {"time": bd.time_l1, "stft": bd.stft_l1,
                                                    "class": bd.class_mse})
                if it == 1 or it % cfg.val_interval == 0 or it == total_iters:
                    val_total = 0.0
                    for value in engine.evaluate(len(val_pairs)):
                        val_total += value
                    val_total /= len(val_pairs)
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

    if best is not None:
        for t, data in zip(params, best[2]):
            t.data = data
    return model, history


@contextlib.contextmanager
def _frozen(tensors, freeze):
    """Hold ``requires_grad`` off on ``tensors`` when ``freeze``; restore the flags after."""
    saved = [t.requires_grad for t in tensors]
    if freeze:
        for t in tensors:
            t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, saved):
            t.requires_grad = flag


def _pair_constants(pairs, detector, cfg):
    """What the losses need of each pair's real vibration, as ``(magnitude, scores)``.

    Its magnitude spectrogram never changes during a run, and neither do a
    frozen detector's scores for it, which the ``paired`` class term
    compares against; so both are computed once per call.  ``scores`` is
    None where the detector's are not needed or change every step.
    """
    fixed_scores = cfg.class_loss_mode == "paired" and cfg.freeze_detector
    with no_grad():
        return [(stft_magnitude(p.vibration).data,
                 detector(p.vibration.reshape(1, -1)).data if fixed_scores else None)
                for p in pairs]


def _sample_losses(model, detector, pair, fixed, cfg):
    """Time, spectral and class loss tensors of one pair, as ``(time, stft, class)``.

    ``fixed`` is the pair's entry from :func:`_pair_constants`.  The class
    term compares the detector's scores for the synthesized vibration with
    its scores for the real vibration (``paired``) or with the label's tanh
    target (``target``).
    """
    magnitude, real_scores = fixed
    synth = model(pair.sound.reshape(1, -1))
    t_loss = loss_time(pair.vibration, synth)
    s_loss = loss_magnitude(magnitude, synth)
    score_s = detector(synth)
    if cfg.class_loss_mode == "target":
        return t_loss, s_loss, loss_class(CLASS_TARGETS[pair.label], score_s)
    if real_scores is None:                     # an unfrozen detector changes every step
        with no_grad():
            real_scores = detector(pair.vibration.reshape(1, -1)).data
    return t_loss, s_loss, loss_class(real_scores, score_s)


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
