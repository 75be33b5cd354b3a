import contextlib
import copy
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from opvib import optim, parallel, training
from opvib.dataio import SyntheticSpec, generate_synthetic, load_segment_pairs
from opvib.losses import loss_class, loss_total
from opvib.models import CLASS_TARGETS, ConfigError, FaultClassifier, OpUNet, parameter_count
from opvib.parallel import WorkerError
from opvib.selfonn import OperationalLayer
from opvib.signal import SegmentPair
from opvib.tensor import conv1d, power_stack, transposed_conv1d
from opvib.training import (
    DataSplit,
    TrainConfig,
    classify_pairs,
    split_dataset,
    train_fault_detector,
    train_transformer,
)
from util import (
    THREAD_VARS,
    fake_blas_threads,
    joined_graph_training,
    opvib_subprocess_env,
    per_sample_detector_training,
)

# small-rate datasets keep the training tests fast; the stride chain and the
# U-Net both accept 256-sample segments
RATE = 256.0


def tiny_pair(label, speed, idx=0):
    rng = np.random.default_rng(idx)
    return SegmentPair(
        sound=rng.uniform(-1, 1, 4).astype(np.float32),
        vibration=rng.uniform(-1, 1, 4).astype(np.float32),
        label=label,
        speed=speed,
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    spec = SyntheticSpec(
        seed=31, num_healthy=20, num_faulty=20, sample_rate=RATE,
        base_freqs=(24.0, 52.0), fault_freq=64.0, fault_repeat_hz=8.0,
    )
    manifest = generate_synthetic(spec, tmp_path_factory.mktemp("smallds"))
    return load_segment_pairs(manifest)


def test_split_respects_held_out_speed():
    records = [tiny_pair("healthy", s, i) for i, s in enumerate([480, 680, 1010] * 6)]
    split = split_dataset(records, 1010, train_seconds=8, val_seconds=2)
    assert all(p.speed == 1010 for p in split.test)
    assert len(split.test) == 6
    assert all(p.speed != 1010 for p in split.train + split.val)
    assert len(split.train) == 8 and len(split.val) == 2


def test_split_boundaries_scale():
    records = ([tiny_pair("healthy", 480, i) for i in range(2900)]
               + [tiny_pair("faulty", 1010, i) for i in range(10)])
    split = split_dataset(records, 1010)
    assert len(split.train) == 2100
    assert len(split.val) == 800
    assert len(split.test) == 10


def test_split_disjointness_enforced():
    records = [tiny_pair("healthy", 480, i) for i in range(4)]
    shared = records[0]
    with pytest.raises(ValueError, match="disjoint"):
        DataSplit([shared], [shared], [], held_out_speed=999.0)


def test_split_unknown_speed_lists_available():
    records = [tiny_pair("healthy", s, i) for i, s in enumerate([480, 680])]
    with pytest.raises(ValueError) as err:
        split_dataset(records, 1010)
    assert "480" in str(err.value) and "680" in str(err.value)


@pytest.mark.parametrize("kwargs,name", [
    ({"train_seconds": float("inf")}, "train_seconds"),
    ({"val_seconds": float("nan")}, "val_seconds"),
    ({"train_seconds": -3.0}, "train_seconds"),
    ({"val_seconds": -2.0}, "val_seconds"),
])
def test_split_rejects_bad_durations(kwargs, name):
    # a negative count used to slice from the end, and inf/NaN died in int()
    records = [tiny_pair("healthy", s, i) for i, s in enumerate([480, 680, 1010] * 8)]
    with pytest.raises(ValueError, match=name):
        split_dataset(records, 1010, **{"train_seconds": 8, "val_seconds": 2, **kwargs})


@pytest.mark.parametrize("kwargs,name", [
    ({"lam": -5.0}, "lam"),
    ({"lam": float("inf")}, "lam"),
    ({"lam": float("nan")}, "lam"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"learning_rate": float("inf")}, "learning_rate"),
    ({"learning_rate": 0.0}, "learning_rate"),
    ({"val_interval": 2.5}, "val_interval"),
    ({"batch_size": True}, "batch_size"),
    ({"max_iterations": 3.7}, "max_iterations"),
    ({"classifier_epochs": 2.0}, "classifier_epochs"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
])
def test_config_rejects_bad_lam_and_learning_rate(kwargs, name):
    # a negative lam trained the U-Net to maximize the time and spectral error;
    # a fractional val_interval validated at its multiples only, and batch_size
    # True trained at batch 1
    with pytest.raises(ValueError, match=name):
        TrainConfig(**kwargs)


def test_config_accepts_zero_lam():
    assert TrainConfig(lam=0).lam == 0


def test_detector_overfits_separable_data(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=2, classifier_epochs=50)
    model, history = train_fault_detector(split.train, split.val, cfg)
    assert len(history) == cfg.classifier_epochs
    preds, labels = classify_pairs(model, split.train)
    assert preds == labels  # 100% training accuracy within the epoch budget


def test_detector_training_is_seed_deterministic(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    cfg = TrainConfig(seed=5, classifier_epochs=3)
    _, h1 = train_fault_detector(split.train, split.val, cfg)
    _, h2 = train_fault_detector(split.train, split.val, cfg)
    assert h1 == h2


def test_detector_rejects_single_class(small_dataset):
    only_healthy = [p for p in small_dataset if p.label == "healthy"][:6]
    cfg = TrainConfig(seed=0, classifier_epochs=1)
    with pytest.raises(ValueError, match="both classes"):
        train_fault_detector(only_healthy, [], cfg)


@pytest.fixture(scope="module")
def trained_detector(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=2, classifier_epochs=12)
    model, _ = train_fault_detector(split.train, split.val, cfg)
    return model, split


def _use_workers(monkeypatch, count):
    monkeypatch.setattr(parallel, "_worker_count", lambda cfg, pinned: count)


def _transformer_with_nan_bias(trained_detector):
    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=3)
    bias = dict(model.parameters())["decoder.4.biases"]
    bias.data[0] = np.nan
    cfg = TrainConfig(seed=3, max_iterations=4, val_interval=2)
    with pytest.raises(ValueError, match=r"^iteration 1: time is not finite"):
        train_transformer(split.train, split.val, cfg, detector, model=model)


def _detector_with_nan_sample(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    train = list(split.train)
    vibration = train[3].vibration.copy()
    vibration[100] = np.nan
    train[3] = SegmentPair(train[3].sound, vibration, train[3].label, speed=train[3].speed)
    cfg = TrainConfig(seed=5, classifier_epochs=3)
    with pytest.raises(ValueError, match=r"^epoch 0: train_mse is not finite"):
        train_fault_detector(train, split.val, cfg)


def test_transformer_stops_on_non_finite_loss(trained_detector):
    _transformer_with_nan_bias(trained_detector)


def test_detector_stops_on_non_finite_loss(small_dataset):
    _detector_with_nan_sample(small_dataset)


def test_non_finite_loss_stops_two_workers_and_leaves_no_child(small_dataset, trained_detector,
                                                               monkeypatch):
    _use_workers(monkeypatch, 2)
    _transformer_with_nan_bias(trained_detector)
    assert multiprocessing.active_children() == []
    _detector_with_nan_sample(small_dataset)
    assert multiprocessing.active_children() == []


# -- sample-parallel workers -------------------------------------------------------


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, rather than hang it, if the block outlasts ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _weights(model):
    return [t.data for _, t in model.parameters()]


def test_transformer_result_does_not_depend_on_worker_count(trained_detector, monkeypatch):
    detector, split = trained_detector
    runs = []
    for workers in (1, 2, 3):                  # 3 splits a batch of 8 unevenly
        _use_workers(monkeypatch, workers)
        cfg = TrainConfig(seed=14, max_iterations=3, val_interval=2)
        with _deadline(120):
            model, history = train_transformer(split.train, split.val, cfg, detector)
        runs.append((history, _weights(model)))
        assert multiprocessing.active_children() == []
    for history, weights in runs[1:]:
        assert history == runs[0][0]
        assert all(np.array_equal(a, b) for a, b in zip(weights, runs[0][1]))


def test_detector_result_does_not_depend_on_worker_count(small_dataset, monkeypatch):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    runs = []
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        cfg = TrainConfig(seed=15, classifier_epochs=3)
        with _deadline(120):
            model, history = train_fault_detector(split.train, split.val, cfg)
        runs.append((history, _weights(model)))
        assert multiprocessing.active_children() == []
    for history, weights in runs[1:]:
        assert history == runs[0][0]
        assert all(np.array_equal(a, b) for a, b in zip(weights, runs[0][1]))


def test_training_equals_joined_graph(trained_detector, monkeypatch):
    # each parameter takes one gradient per sample, and the joined graph
    # accumulated them in sample order too, so every update is the same bits;
    # the reference recomputes each pair's spectrogram and detector scores,
    # over 2 epochs (3 batches each) with 4 validation passes, so a constant
    # computed once per pair is reused in training and in validation
    detector, split = trained_detector
    assert -(-len(split.train) // 8) == 3
    cfg = TrainConfig(seed=16, max_iterations=6, val_interval=2)
    ref_model = OpUNet(l_seg=int(RATE), seed=16)
    ref = joined_graph_training(split.train, split.val, cfg, detector, ref_model)
    assert len({entry["val_total"] for entry in ref}) == 4
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        model, history = train_transformer(split.train, split.val, cfg, detector,
                                           model=OpUNet(l_seg=int(RATE), seed=16))
        assert history == ref
        for a, b in zip(_weights(model), _weights(ref_model)):
            assert np.array_equal(a, b)


def test_detector_training_equals_per_sample_backward(small_dataset, monkeypatch):
    # the arena folds each sample's gradient in sample order and Adam steps
    # over chunks of the row; a leaf's own accumulation and one Adam array per
    # parameter give the same bits, over 3 epochs of batches of 8, 8 and 4
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=24, classifier_epochs=3)
    with parallel.one_blas_thread():
        ref_model, ref = per_sample_detector_training(split.train, split.val, cfg)
    assert len({entry["val_mse"] for entry in ref}) == 3
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        model, history = train_fault_detector(split.train, split.val, cfg)
        assert history == ref
        for a, b in zip(_weights(model), _weights(ref_model)):
            assert np.array_equal(a, b)


def test_fused_layers_train_as_the_unfused_composition(trained_detector, monkeypatch):
    # every operational layer is one fused conv node; composing it again as
    # power_stack -> conv -> tanh nodes gives the same bits, for the U-Net's
    # layers trained behind the frozen detector and the detector's trained alone
    calls = []

    def unfused(layer, y):
        calls.append(layer)
        c = layer.config
        conv = transposed_conv1d if c.transposed else conv1d
        return conv(power_stack(y, c.q), layer.weights, layer.biases, c.stride, c.padding).tanh()

    detector, split = trained_detector
    cfg = TrainConfig(seed=18, max_iterations=3, val_interval=2, classifier_epochs=2)
    runs = []
    for call in (OperationalLayer.__call__, unfused):
        monkeypatch.setattr(OperationalLayer, "__call__", call)
        model, history = train_transformer(split.train, split.val, cfg, detector)
        det, det_history = train_fault_detector(split.train, split.val, cfg)
        runs.append((history + det_history, _weights(model) + _weights(det)))
    assert {layer.config.transposed for layer in calls} == {False, True}
    assert runs[1][0] == runs[0][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[1][1], runs[0][1]))


@pytest.mark.parametrize("failure", ["raises", "dies"])
def test_worker_failure_reaches_the_caller(trained_detector, monkeypatch, failure):
    detector, split = trained_detector
    caller = os.getpid()
    real_loss_stft = training.loss_stft

    # the spectral loss runs for every training sample, in whichever worker holds it
    def loss_stft(*args):
        if os.getpid() != caller:
            if failure == "dies":
                os._exit(7)
            raise RuntimeError("spectral loss failed in a worker")
        return real_loss_stft(*args)

    monkeypatch.setattr(training, "loss_stft", loss_stft)
    _use_workers(monkeypatch, 2)
    cfg = TrainConfig(seed=17, max_iterations=2)
    expected = "spectral loss failed in a worker" if failure == "raises" else r"exit code 7"
    with _deadline(60), pytest.raises(WorkerError, match=expected):
        train_transformer(split.train, split.val, cfg, detector)
    assert multiprocessing.active_children() == []
    assert all(t.requires_grad for _, t in detector.parameters())


def test_a_slow_worker_takes_fewer_items():
    # each worker starts on its own item and then claims the next free one,
    # so a child the machine slows down does not hold the others up
    caller = os.getpid()

    def task(items):
        done = []
        for i in items:
            if os.getpid() != caller:
                time.sleep(0.2)
            done.append((i, os.getpid() == caller))
        return done

    workers = parallel._Workers(2, {"task": task})
    try:
        with _deadline(60):
            results = workers.map("task", range(10))
    finally:
        workers.close()
    assert [i for i, _ in results] == list(range(10))
    assert [i for i, by_caller in results if not by_caller] == [1]
    assert multiprocessing.active_children() == []


def test_a_child_busy_when_the_caller_closes_stops_quietly(tmp_path, capfd):
    # the caller leaves in the middle of a task (Ctrl-C, say): the child
    # claims no further item, finds the pipe closed and exits cleanly
    caller = os.getpid()
    log = tmp_path / "done"

    def slow(items):
        for i in items:
            if os.getpid() != caller:
                time.sleep(0.2)
                with open(log, "a") as f:
                    f.write(f"{i}\n")
        return []

    workers = parallel._Workers(2, {"task": slow})
    proc, conn = workers.children[0]
    workers.next[0] = 2                         # as map starts the claims
    conn.send(("task", list(range(10))))
    time.sleep(0.1)
    with _deadline(30):
        workers.close()
    assert proc.exitcode == 0
    assert len(log.read_text().split()) <= 2
    assert capfd.readouterr().err == ""


def _running(pid):
    """Whether ``pid`` is a live process; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self") or not parallel._can_fork(),
                    reason="needs fork and /proc")
def test_a_worker_exits_when_its_parent_is_killed(tmp_path):
    # the parent writes its child's pid to a file: its stdout would not
    # close while an orphaned child holds it open
    pid_file = tmp_path / "child.pid"
    script = f"""
import os, time
from opvib import parallel
workers = parallel._Workers(2, {{}})
with open({str(pid_file) + ".tmp"!r}, "w") as f:
    f.write(str(workers.children[0][0].pid))
os.replace({str(pid_file) + ".tmp"!r}, {str(pid_file)!r})
time.sleep(120)
"""
    parent = subprocess.Popen([sys.executable, "-c", script], env=opvib_subprocess_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() and parent.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pid_file.exists(), f"the parent wrote no pid (exit code {parent.poll()})"
        child = int(pid_file.read_text())
        parent.kill()
        parent.wait(10)
        deadline = time.monotonic() + 10
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(child), "the worker outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(10)
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)


def _graph_mib(build):
    """MiB that the graph ``build()`` returns holds, by tracemalloc, after a warm-up call."""
    build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = build()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert graph.requires_grad
    return held / 2**20


def test_a_stock_training_sample_graph_keeps_no_derived_buffers():
    # the graph of one stock-size (4096-sample) sample keeps the layers'
    # inputs and outputs, not the im2col columns or input powers backward
    # can form again: about 1.4 MiB cascaded and 0.06 MiB for the detector,
    # against 5.9 and 1.8 MiB with those buffers kept
    rng = np.random.default_rng(0)
    pair = SegmentPair(rng.uniform(-1, 1, 4096).astype(np.float32),
                       rng.uniform(-1, 1, 4096).astype(np.float32), "faulty")
    model, detector = OpUNet(seed=0), FaultClassifier(seed=0)
    lam = TrainConfig().lam
    with training._frozen([t for _, t in detector.parameters()]):
        fixed = training._pair_constants([pair], detector)[0]
        cascaded = _graph_mib(
            lambda: loss_total(*training._sample_losses(model, detector, pair, fixed), lam))
    assert cascaded < 2.0
    scores = _graph_mib(lambda: loss_class(CLASS_TARGETS[pair.label],
                                           detector(pair.vibration.reshape(1, -1))))
    assert scores < 0.25


def test_adam_steps_once_per_update_in_the_caller(small_dataset, monkeypatch):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    steps = []
    real_step = optim.Adam.step

    def step(opt):
        steps.append(os.getpid())
        real_step(opt)

    monkeypatch.setattr(optim.Adam, "step", step)
    _use_workers(monkeypatch, 2)
    cfg = TrainConfig(seed=18, classifier_epochs=2)
    train_fault_detector(split.train, split.val, cfg)
    assert steps == [os.getpid()] * (2 * 3)    # 20 pairs -> batches of 8, 8, 4


class _Halt(Exception):
    pass


def test_an_exception_from_adam_step_leaves_no_worker(trained_detector, monkeypatch):
    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=19)
    before = [t.data.copy() for _, t in model.parameters()]

    def step(opt):
        raise _Halt

    monkeypatch.setattr(optim.Adam, "step", step)
    _use_workers(monkeypatch, 2)
    cfg = TrainConfig(seed=19, max_iterations=2)
    with pytest.raises(_Halt):
        train_transformer(split.train, split.val, cfg, detector, model=model)
    assert multiprocessing.active_children() == []
    # the parameters are the model's own arrays again, and were not stepped
    for (_, t), orig in zip(model.parameters(), before):
        assert t.data.base is None and np.array_equal(t.data, orig)


def _caller_late_at_position_0(monkeypatch, log, seconds, then=None):
    """The caller starts each batch's position 0 ``seconds`` late, then calls
    ``then``; every worker appends ``"pid position"`` to ``log`` once it is
    done with a position, its gradient folded or waiting for its turn."""
    caller = os.getpid()
    real_backward = parallel._SampleParallel._backward

    def backward(self, jobs):
        def late(jobs):
            for pos, i, n in jobs:
                if pos == 0 and os.getpid() == caller:
                    time.sleep(seconds)
                    if then:
                        then()
                yield pos, i, n
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {pos}\n")
        return real_backward(self, late(jobs))

    monkeypatch.setattr(parallel._SampleParallel, "_backward", backward)


def _done(log):
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_gradients_done_out_of_turn_are_summed_in_sample_order(trained_detector, monkeypatch,
                                                               tmp_path):
    # the child is done with position 1 before the caller starts position 0,
    # in every batch, and the weights are still those of one worker
    detector, split = trained_detector
    cfg = TrainConfig(seed=24, max_iterations=3, val_interval=2)
    log = tmp_path / "done"
    _caller_late_at_position_0(monkeypatch, log, 0.2)
    runs = []
    for workers in (1, 2):
        log.unlink(missing_ok=True)
        _use_workers(monkeypatch, workers)
        with _deadline(60):
            model, history = train_transformer(split.train, split.val, cfg, detector)
        runs.append((history, _weights(model)))
    assert runs[1][0] == runs[0][0]
    assert all(np.array_equal(a, b) for a, b in zip(runs[1][1], runs[0][1]))
    done = _done(log)
    assert [pid for pid, pos in done if pos == 0] == [os.getpid()] * 3
    firsts = [k for k, (_, pos) in enumerate(done) if pos == 0]
    seconds = [k for k, (_, pos) in enumerate(done) if pos == 1]
    assert len(seconds) == 3 and all(b < a for a, b in zip(firsts, seconds))


def test_the_arena_holds_one_gradient_row_whatever_the_batch(small_dataset, monkeypatch):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    size = parameter_count(FaultClassifier(l_seg=int(RATE)))
    real_shared = parallel._shared
    _use_workers(monkeypatch, 2)
    for batch_size in (8, 32):
        made = []

        def shared(shape, dtype):
            array = real_shared(shape, dtype)
            made.append(array)
            return array

        monkeypatch.setattr(parallel, "_shared", shared)
        cfg = TrainConfig(seed=22, batch_size=batch_size, classifier_epochs=1)
        train_fault_detector(split.train, split.val, cfg)
        # the parameter row, the gradient row and two int64 counters
        assert sorted(a.nbytes for a in made) == [8, 8, 4 * size, 4 * size]


def test_a_successful_call_copies_nothing_out_of_the_arena(small_dataset, monkeypatch):
    # the best weights replace the parameters' views of the shared row before
    # the engine exits, so its release finds nothing left to copy
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    real_release = parallel._Arena.release
    kept = []

    def release(self):
        before = [t.data for t in self.params]
        real_release(self)
        kept.append(all(t.data is b and b.base is None for t, b in zip(self.params, before)))

    monkeypatch.setattr(parallel._Arena, "release", release)
    train_fault_detector(split.train, split.val, TrainConfig(seed=22, classifier_epochs=2))
    assert kept == [True]


def test_a_caller_failing_while_a_child_waits_for_its_turn_stops_the_child(trained_detector,
                                                                           monkeypatch, tmp_path):
    # the child is done with positions 1 and 2 and waits for the turn of 1,
    # which needs the caller's position 0, when the caller raises instead
    detector, split = trained_detector
    log = tmp_path / "done"

    def halt():
        raise _Halt

    _caller_late_at_position_0(monkeypatch, log, 0.5, then=halt)
    _use_workers(monkeypatch, 2)
    with _deadline(5), pytest.raises(_Halt):
        train_transformer(split.train, split.val, TrainConfig(seed=23, max_iterations=2),
                          detector)
    assert multiprocessing.active_children() == []
    assert [pos for _, pos in _done(log)] == [1]


def test_stale_gradients_do_not_reach_the_first_update(trained_detector, monkeypatch):
    # a gradient left on a parameter before the call (a manual backward, a
    # gradient check) must not be added into the first sample's
    detector, split = trained_detector
    cfg = TrainConfig(seed=20, max_iterations=1)
    ref_model = OpUNet(l_seg=int(RATE), seed=20)
    joined_graph_training(split.train, split.val, cfg, detector, ref_model)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        model, det = OpUNet(l_seg=int(RATE), seed=20), copy.deepcopy(detector)
        for _, t in model.parameters() + det.parameters():
            t.grad = np.ones_like(t.data)
        train_transformer(split.train, split.val, cfg, det, model=model)
        for a, b in zip(_weights(model) + _weights(det), _weights(ref_model) + _weights(detector)):
            assert np.array_equal(a, b)


def test_detector_of_another_dtype_is_a_config_error(trained_detector, monkeypatch):
    # training runs in one dtype; the mismatch is refused before BLAS is
    # pinned or a worker is forked
    _, split = trained_detector
    detector = FaultClassifier(l_seg=int(RATE), seed=21, dtype=np.float64)
    monkeypatch.setattr(training, "_pinned_workers", None)
    for model in (None, OpUNet(l_seg=int(RATE), seed=21)):
        with pytest.raises(ConfigError, match="float64 and the model float32"):
            train_transformer(split.train, split.val, TrainConfig(max_iterations=1), detector,
                              model=model)


def test_trained_parameters_of_two_dtypes_are_a_config_error(trained_detector):
    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=21)
    bias = dict(model.parameters())["decoder.4.biases"]
    bias.data = bias.data.astype(np.float64)
    with pytest.raises(ConfigError, match="several dtypes"):
        train_transformer(split.train, split.val, TrainConfig(max_iterations=1), detector,
                          model=model)


def _pinned_count(cfg):
    with parallel._pinned_workers(cfg) as count:
        return count


def test_default_worker_count_needs_verified_blas_pinning(monkeypatch):
    get, put = fake_blas_threads(takes=True)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: (get, put))
    assert _pinned_count(TrainConfig()) == min(2, parallel._usable_cpus())
    with parallel._pinned_workers(TrainConfig(batch_size=1)) as count:
        assert count == 1 and get() == 1        # one worker computes pinned too
    assert get() == 2                           # and the count is restored
    # a setter that does not take, and no setter at all
    monkeypatch.setattr(parallel, "_blas_threads", lambda: fake_blas_threads(takes=False))
    assert _pinned_count(TrainConfig()) == 1
    monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    assert _pinned_count(TrainConfig()) == 1


def test_default_worker_count_without_fork_or_affinity(monkeypatch):
    monkeypatch.setattr(parallel, "_blas_threads", lambda: fake_blas_threads(takes=True))
    # macOS can fork but has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pinned_count(TrainConfig()) == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _pinned_count(TrainConfig()) == 1


@pytest.mark.skipif(parallel._blas_threads() is None,
                    reason="numpy's BLAS has no thread setter opvib knows")
def test_blas_thread_count_is_restored_after_a_raising_call(small_dataset, monkeypatch):
    get, put = parallel._blas_threads()
    saved = get()
    _use_workers(monkeypatch, 2)
    seen = []

    class Stop(Exception):
        pass

    def stop(opt):                              # how perfbench ends a run
        seen.append(get())
        raise Stop

    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=15, classifier_epochs=3)
    put(2)
    try:
        monkeypatch.setattr(optim.Adam, "step", stop)
        with pytest.raises(Stop):
            train_fault_detector(split.train, split.val, cfg)
        assert seen == [1]                      # pinned while the workers ran
        assert get() == 2
        assert multiprocessing.active_children() == []
    finally:
        put(saved)


@pytest.mark.skipif(parallel._usable_cpus() < 2 or not parallel._can_fork()
                    or parallel._blas_threads() is None,
                    reason="needs 2 CPUs, fork and a BLAS thread setter")
def test_two_workers_without_thread_variables_match_one(tmp_path):
    # a process started with no thread variable set, as library calls are; at
    # 4096 samples an unpinned OpenBLAS runs some detector products on 2
    # threads, with other bits than on 1, so 1 worker must compute pinned too
    env = opvib_subprocess_env()
    for name in THREAD_VARS:
        env.pop(name, None)
    script = f"""
import json, sys
import numpy as np
from opvib import parallel, training
from opvib.dataio import SyntheticSpec, generate_synthetic, load_segment_pairs
from opvib.models import FaultClassifier

def split(out, **spec):
    spec = SyntheticSpec(seed=31, num_healthy=12, num_faulty=12, **spec)
    pairs = load_segment_pairs(generate_synthetic(spec, out))
    return training.split_dataset(pairs, 1010.0, train_seconds=12, val_seconds=4)

small = split(sys.argv[1] + "/small", sample_rate={RATE}, base_freqs=(24.0, 52.0),
              fault_freq=64.0, fault_repeat_hz=8.0)
stock = split(sys.argv[1] + "/stock")
cfg = training.TrainConfig(seed=14, max_iterations=3, val_interval=2, classifier_epochs=1)
counts = []

class Spy(parallel._Workers):
    def __init__(self, count, tasks):
        counts.append(count)
        super().__init__(count, tasks)

parallel._Workers = Spy
default_count = parallel._worker_count
get, _ = parallel._blas_threads()
before = get()

def same_for_one_worker(train):
    runs = []
    for forced in (None, 1):
        parallel._worker_count = (lambda cfg, pinned: forced) if forced else default_count
        model, history = train()
        runs.append((history, [t.data for _, t in model.parameters()]))
    return (runs[0][0] == runs[1][0]
            and all(np.array_equal(a, b) for a, b in zip(runs[0][1], runs[1][1])))

same = [same_for_one_worker(lambda: training.train_transformer(
            small.train, small.val, cfg, FaultClassifier(l_seg={int(RATE)}, seed=2))),
        same_for_one_worker(lambda: training.train_fault_detector(stock.train, stock.val, cfg))]
print(json.dumps({{"counts": counts, "threads": [before, get()], "same": same}}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["counts"] == [2, 1, 2, 1]
    assert result["threads"][0] == result["threads"][1]
    assert result["same"] == [True, True]


def test_transformer_freezes_detector(small_dataset, trained_detector):
    detector, split = trained_detector
    before = [t.data.copy() for _, t in detector.parameters()]
    cfg = TrainConfig(seed=3, max_iterations=6, val_interval=3)
    train_transformer(split.train, split.val, cfg, detector)
    for (_, t), orig in zip(detector.parameters(), before):
        assert np.array_equal(t.data, orig)
    assert all(t.requires_grad for _, t in detector.parameters())


def test_transformer_detector_length_mismatch_is_config_error(trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=0, max_iterations=1)
    with pytest.raises(ConfigError, match=r"expects 256-sample segments; .* \[256, 512\]"):
        train_transformer(split.train, split.val, cfg, detector, model=OpUNet(l_seg=512))
    with pytest.raises(ConfigError, match=r"expects 512-sample segments; .* \[256, 512\]"):
        train_transformer(split.train, split.val, cfg, FaultClassifier(l_seg=512))


def test_detector_rejects_segments_of_two_lengths(trained_detector):
    _, split = trained_detector
    short = [SegmentPair(p.sound[:128], p.vibration[:128], p.label, speed=p.speed)
             for p in split.val]
    with pytest.raises(ValueError, match=r"differ in length: \[128, 256\]"):
        train_fault_detector(split.train, short, TrainConfig(classifier_epochs=1))


def test_transformer_log_line_format(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=3, max_iterations=4, val_interval=2)
    lines = []
    train_transformer(split.train, split.val, cfg, detector, log=lines.append)
    pattern = (r"^iter=\d+ time=\d+\.\d{6} stft=\d+\.\d{6} class=\d+\.\d{6} "
               r"total=\d+\.\d{6} val_total=\d+\.\d{6}$")
    assert len(lines) == 4
    for line in lines:
        assert re.match(pattern, line), line


def test_detector_log_line_format(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    cfg = TrainConfig(seed=5, classifier_epochs=3)
    lines = []
    train_fault_detector(split.train, split.val, cfg, log=lines.append)
    pattern = r"^epoch=\d+ train_mse=\d+\.\d{6} val_mse=\d+\.\d{6} val_acc=\d+\.\d{2}$"
    assert len(lines) == 3
    for line in lines:
        assert re.match(pattern, line), line


def test_detector_returns_the_best_epochs_weights(small_dataset):
    # a run stopped at the best epoch ends on the weights a longer run restores
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=0, classifier_epochs=7, learning_rate=0.05)
    model, history = train_fault_detector(split.train, split.val, cfg)
    best = int(np.argmin([h["val_mse"] for h in history]))
    assert best < cfg.classifier_epochs - 1
    stopped, _ = train_fault_detector(split.train, split.val,
                                      TrainConfig(seed=0, classifier_epochs=best + 1,
                                                  learning_rate=0.05))
    assert all(np.array_equal(a, b) for a, b in zip(_weights(model), _weights(stopped)))


def test_transformer_returns_the_best_validated_weights(trained_detector):
    # validation at iterations 1, 2, 4 and 6; the best is not the last
    detector, split = trained_detector
    cfg = TrainConfig(seed=3, max_iterations=6, val_interval=2, learning_rate=0.1)
    model, history = train_transformer(split.train, split.val, cfg, detector)
    best = history[int(np.argmin([h["val_total"] for h in history]))]["iter"]
    assert best < cfg.max_iterations
    stopped, _ = train_transformer(split.train, split.val,
                                   TrainConfig(seed=3, max_iterations=best, val_interval=2,
                                               learning_rate=0.1), detector)
    assert all(np.array_equal(a, b) for a, b in zip(_weights(model), _weights(stopped)))


def _with_nan_vibration(pairs, k):
    pairs = list(pairs)
    vibration = pairs[k].vibration.copy()
    vibration[10] = np.nan
    pairs[k] = SegmentPair(pairs[k].sound, vibration, pairs[k].label, speed=pairs[k].speed)
    return pairs


def test_non_finite_validation_stops_both_stages(trained_detector):
    detector, split = trained_detector
    val = _with_nan_vibration(split.val, 1)
    with pytest.raises(ValueError, match=r"^epoch 0: val_mse is not finite"):
        train_fault_detector(split.train, val, TrainConfig(seed=5, classifier_epochs=3))
    with pytest.raises(ValueError, match=r"^iteration 1: val_total is not finite"):
        train_transformer(split.train, val, TrainConfig(seed=3, max_iterations=3), detector)


def test_transformer_history_and_best_bookkeeping(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=4, max_iterations=8, val_interval=4)
    model, history = train_transformer(split.train, split.val, cfg, detector)
    assert [h["iter"] for h in history] == list(range(1, 9))
    vals = [h["val_total"] for h in history]
    assert all(np.isfinite(v) for v in vals)
    # the reported best never increases as training progresses
    best_so_far = np.minimum.accumulate(vals)
    assert best_so_far[-1] <= best_so_far[0]


def test_transformer_seed_determinism(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=6, max_iterations=3, val_interval=2)
    m1, h1 = train_transformer(split.train, split.val, cfg, detector)
    m2, h2 = train_transformer(split.train, split.val, cfg, detector)
    assert h1 == h2
    for (_, a), (_, b) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_one_step_touches_every_transformer_parameter(small_dataset, trained_detector):
    from opvib.models import OpUNet
    from opvib.optim import Adam

    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=9)
    params = [t for _, t in model.parameters()]
    before = [t.data.copy() for t in params]
    for t in params:
        t.grad = np.ones_like(t.data)
    Adam(params, lr=1e-3).step()
    changed = sum(int(np.sum(a != t.data)) for a, t in zip(before, params))
    assert changed == parameter_count(model)


def test_detector_memorizes_one_pair_per_class(small_dataset):
    one_each = [next(p for p in small_dataset if p.label == "healthy"),
                next(p for p in small_dataset if p.label == "faulty")]
    cfg = TrainConfig(seed=1, classifier_epochs=40, batch_size=2)
    model, _ = train_fault_detector(one_each, one_each, cfg)
    preds, labels = classify_pairs(model, one_each)
    assert preds == labels


def test_run_experiment_schema(small_dataset):
    from opvib.training import run_experiment

    cfg = TrainConfig(seed=13, classifier_epochs=15, max_iterations=10, val_interval=5)
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    result = run_experiment(cfg, split)
    for key in ("real", "synthesized", "accuracy_gap", "split", "detector", "transformer"):
        assert key in result
    for report in (result["real"], result["synthesized"]):
        assert set(report.per_class) == {"healthy", "faulty"}
        for block in report.per_class.values():
            assert set(block) == {"sensitivity", "precision", "f1"}
    assert result["accuracy_gap"] == abs(result["real"].accuracy - result["synthesized"].accuracy)


def test_keeps_last_short_batch(small_dataset, trained_detector):
    detector, split = trained_detector
    # 20 train pairs with batch 8 -> batches of 8, 8, 4; one epoch = 3 updates
    cfg = TrainConfig(seed=10, max_iterations=3, val_interval=3, batch_size=8)
    _, history = train_transformer(split.train, split.val, cfg, detector)
    assert len(history) == 3
