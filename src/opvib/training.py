"""Dataset splitting and the two-stage training protocol.

The fault detector is pre-trained on real vibration segments with an MSE
objective against tanh-range targets.  The transformer is then trained with
the detector cascaded behind it and frozen: each batch minimizes
``class_mse + lam * (time_l1 + stft_l1)`` where the class term compares the
frozen detector's scores for the real and the synthesized vibration.  The
real vibration's spectrogram, and the detector's scores for it, are
computed once per pair and call.  The weights with the best validation
total are returned; writing them to a checkpoint is the caller's job.

Both loops are sample-parallel.  Each sample gets its own backward pass
with the seed ``1/n``, and its gradient joins one shared running sum in
sample order, ``((g0 + g1) + g2) + ...``, which takes memory for one
gradient whatever the batch; one Adam update follows.  Validation values
are summed in sample order too.  The calling process is worker 0 and
forked children take the rest of each batch, so the result is the same
for any worker count.  numpy's BLAS is held at one thread for the whole
call where it can be (``one_blas_thread``), and children fork only then.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .evaluation import compute_metrics
from .losses import loss_class, loss_stft, loss_time, loss_total, stft_magnitude
from .models import CLASS_TARGETS, ConfigError, FaultClassifier, OpUNet, predict_label
from .optim import Adam
from .tensor import no_grad

__all__ = [
    "WorkerError",
    "one_blas_thread",
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


def _can_fork():
    return "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus():
    # sched_getaffinity is Linux-only; macOS has fork but not it
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        for name in ("batch_size", "max_iterations", "classifier_epochs", "val_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
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
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return float(total * np.asarray(1.0 / len(losses), dtype=total.dtype))


def _require_finite(where, values):
    """Stop a run whose loss went NaN/Inf; such weights must never be kept as "best"."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{where}: {name} is not finite ({value}); training stopped")


# BLAS thread-count (getter, setter) names; numpy's own wheels export the first
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)


@functools.cache
def _blas_threads():
    """The ``(get, set)`` thread-count functions of numpy's BLAS, or None.
    ``dlsym`` on numpy's ``_multiarray_umath`` extension also searches the BLAS it links."""
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:                         # numpy 1.x
        from numpy.core import _multiarray_umath as ext
    lib = ctypes.CDLL(ext.__file__)
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread; yields whether the count then reads 1,
    False also for a BLAS without a known setter.  The caller's count is
    restored on exit, also on an exception."""
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    saved = get()
    try:
        put(1)
        yield get() == 1
    finally:
        put(saved)


def _worker_count(cfg, pinned):
    """Processes that share each batch and validation pass, the caller included.

    ``min(2, usable CPUs, batch_size)`` when BLAS is held at one thread
    (``pinned``) and the platform can fork, else 1: two processes that each
    run a multithreaded BLAS only fight over the cores.  At a given BLAS
    thread count the training result does not depend on it.
    """
    if not (pinned and _can_fork()):
        return 1
    return min(_MAX_DEFAULT_WORKERS, _usable_cpus(), cfg.batch_size)


@contextlib.contextmanager
def _pinned_workers(cfg):
    """Holds BLAS at one thread until exit where it can, and yields the
    worker count; so the children fork with one thread, and the whole call
    computes on one whatever the count."""
    with one_blas_thread() as pinned:
        yield _worker_count(cfg, pinned)


def _shared(shape, dtype):
    """A zeroed array on an anonymous shared mapping, which forked children share."""
    dtype = np.dtype(dtype)
    # the array keeps the mapping alive; it is unmapped with the last view of it
    shared = mmap.mmap(-1, max(1, int(np.prod(shape))) * dtype.itemsize)
    return np.frombuffer(shared, dtype, count=int(np.prod(shape))).reshape(shape)


class _Arena:
    """The trained parameters and their batch gradient in shared memory.

    The parameters form one flat row, and their gradient one more row of
    the same dtype: the sum ``((g0 + g1) + g2) + ...`` of the batch, folded
    in position order.  The parameters are rebound as views into their
    row, so forked workers read every update; ``release`` rebinds them.
    """

    def __init__(self, params):
        dtypes = {t.dtype for t in params}
        if len(dtypes) != 1:
            raise ConfigError(f"trained parameters of several dtypes: {sorted(map(str, dtypes))}")
        self.params = params
        flat = _shared(sum(t.data.size for t in params), dtypes.pop())
        self.grad = _shared(flat.size, flat.dtype)
        self.spans = []
        start = 0
        for t in params:
            view = flat[start : start + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self.spans.append(slice(start, start + view.size))
            start += view.size
        # a gradient left over from before the call must not join the first sample's
        self.drop_grads()

    def fold(self, pos, grads):
        """Copy ``grads`` into the sum row for position 0, else add them; None adds zeros."""
        for g, span in zip(grads, self.spans):
            if g is not None and g.dtype != self.grad.dtype:
                raise ConfigError(f"a {g.dtype} gradient reached a {self.grad.dtype} arena")
            row = self.grad[span]
            g = 0 if g is None else g.reshape(-1)
            if pos == 0:
                row[...] = g
            else:
                np.add(row, g, out=row)

    def use_grads(self):
        """Hand each parameter its view of the sum row as its ``grad``."""
        for t, span in zip(self.params, self.spans):
            t.grad = self.grad[span].reshape(t.data.shape)

    def drop_grads(self):
        for t in self.params:
            t.grad = None

    def release(self):
        for t in self.params:
            t.data = t.data.copy()


def _reply(k, proc, conn):
    try:
        status, payload = conn.recv()
    except (EOFError, OSError):
        proc.join(1.0)
        raise WorkerError(f"training worker {k} died (exit code {proc.exitcode})") from None
    if status != "ok":
        raise WorkerError(f"training worker {k} failed:\n{payload}")
    return payload


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
                proc = context.Process(target=self._serve, args=(k, child_conn, conn), daemon=True)
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

    def _serve(self, k, conn, parent_end):
        # Ctrl-C reaches the whole process group; the parent stops its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # the fork copied the parent's ends of this child's pipe and of the
        # earlier children's; closed here, the parent's death reads as EOF
        parent_end.close()
        for _, other in self.children:
            other.close()
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
        for _, _, conn in busy:
            # a dead child's reply below tells of its death
            with contextlib.suppress(OSError):
                conn.send((name, items))
        replies = [self._run(0, name, items)]
        for k, proc, conn in busy:
            # a child waiting for a dead child's turn never replies
            while not conn.poll(0.1):
                self.check()
            replies.append(_reply(k, proc, conn))
        results = [None] * len(items)
        for taken, values in replies:
            for i, value in zip(taken, values):
                results[i] = value
        return results

    def check(self):
        """Raise the failure of a child that has exited."""
        for k, (proc, conn) in enumerate(self.children, start=1):
            if proc.exitcode is not None:
                _reply(k, proc, conn)

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

    def __init__(self, params, cfg, workers, sample_loss, evaluate):
        self.sample_loss = sample_loss
        self.arena = _Arena(params)
        self.caller = os.getpid()
        self.turn = _shared((1,), np.int64)     # the next batch position to fold
        # one process takes every turn in order and never waits
        self.turned = (multiprocessing.get_context("fork") if workers > 1 else threading).Condition()
        # one Adam array per parameter, as a flat update over a whole row
        # gives the same bits but allocates row-sized temporaries each step
        self.opt = Adam(params, lr=cfg.learning_rate)
        try:
            self.workers = _Workers(workers, {
                "train": self._backward,
                "eval": lambda items: [evaluate(i) for i in items],
            })
        except BaseException:
            self.arena.release()
            raise

    def _backward(self, jobs):
        """Backward passes over the batch positions this worker claims; returns their values."""
        values, early = [], []
        for pos, i, n in jobs:
            loss, value = self.sample_loss(i)
            loss.backward(np.asarray(1.0 / n, dtype=loss.dtype))
            values.append(value)
            early.append((pos, [t.grad for t in self.arena.params]))
            self.arena.drop_grads()
            # one gradient may wait for its turn; a second makes this worker wait
            while early and (len(early) > 1 or self.turn[0] == early[0][0]):
                self._fold(*early.pop(0))
        for pos, grads in early:
            self._fold(pos, grads)
        return values

    def _fold(self, pos, grads):
        """Fold position ``pos``'s gradients into the arena once its turn has come."""
        with self.turned:
            while self.turn[0] != pos:
                self.turned.wait(0.1)
                # the caller raises a failed child's error; a child exits with the caller
                if os.getpid() == self.caller:
                    self.workers.check()
                elif self.turn[0] < 0 or os.getppid() != self.caller:
                    raise SystemExit
        self.arena.fold(pos, grads)
        with self.turned:
            self.turn[0] = pos + 1
            self.turned.notify_all()

    def step(self, batch):
        """One Adam update over ``batch``; returns each sample's values in order."""
        n = len(batch)
        self.turn[0] = 0
        values = self.workers.map("train", [(pos, int(i), n) for pos, i in enumerate(batch)])
        self.arena.use_grads()
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
        self.turn[0] = -1                       # a child waiting for a turn stops
        try:
            self.workers.close()
        finally:
            self.arena.release()


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

    with _pinned_workers(cfg) as workers, \
            _SampleParallel(params, cfg, workers, sample_loss, evaluate) as engine:
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
                best = (val_mse, [t.data.copy() for t in params])
            if log:
                log(f"epoch={epoch} train_mse={train_mse:.6f} val_mse={val_mse:.6f} "
                    f"val_acc={val_acc:.2f}")

    for t, data in zip(params, best[1]):
        t.data = data
    return model, history


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

    params = [t for _, t in model.parameters()]

    rng = np.random.default_rng(cfg.seed)
    val_pairs = val if val else train

    def sample_loss(i):
        sample = _sample_losses(model, detector, train[i], train_fixed[i])
        return loss_total(*sample, cfg.lam), [t.item() for t in sample]

    def evaluate(i):
        with no_grad():
            sample = _sample_losses(model, detector, val_pairs[i], val_fixed[i])
            return loss_total(*(t.item() for t in sample), cfg.lam)

    history = []
    best = None
    val_total = float("nan")
    it = 0
    with _pinned_workers(cfg) as workers, _frozen([t for _, t in detector.parameters()]):
        # computed before the workers fork, so they inherit them, and on the
        # BLAS thread count the steps use
        train_fixed = _pair_constants(train, detector)
        val_fixed = _pair_constants(val_pairs, detector)
        with _SampleParallel(params, cfg, workers, sample_loss, evaluate) as engine:
            while it < cfg.max_iterations:
                for batch in _batches(len(train), cfg.batch_size, rng):
                    if it >= cfg.max_iterations:
                        break
                    items = engine.step(batch)
                    it += 1

                    time_l1, stft_l1, class_mse = (sum(col) / len(items) for col in zip(*items))
                    _require_finite(f"iteration {it}", {"time": time_l1, "stft": stft_l1,
                                                        "class": class_mse})
                    total = loss_total(time_l1, stft_l1, class_mse, cfg.lam)
                    if it == 1 or it % cfg.val_interval == 0 or it == cfg.max_iterations:
                        val_total = 0.0
                        for value in engine.evaluate(len(val_pairs)):
                            val_total += value
                        val_total /= len(val_pairs)
                        _require_finite(f"iteration {it}", {"val_total": val_total})
                        if best is None or val_total < best[0]:
                            best = (val_total, [t.data.copy() for t in params])
                    history.append({"iter": it, "time": time_l1, "stft": stft_l1,
                                    "class": class_mse, "total": total, "val_total": val_total})
                    if log:
                        log(f"iter={it} time={time_l1:.6f} stft={stft_l1:.6f} "
                            f"class={class_mse:.6f} total={total:.6f} val_total={val_total:.6f}")

    if best is not None:
        for t, data in zip(params, best[1]):
            t.data = data
    return model, history


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
