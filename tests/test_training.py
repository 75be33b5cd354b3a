import contextlib
import copy
import multiprocessing
import os
import re
import signal
import time

import numpy as np
import pytest

from opvib import optim, training
from opvib.dataio import SyntheticSpec, generate_synthetic, load_segment_pairs
from opvib.models import ConfigError, FaultClassifier, OpUNet, parameter_count
from opvib.signal import SegmentPair
from opvib.training import (
    DataSplit,
    TrainConfig,
    WorkerError,
    classify_pairs,
    split_dataset,
    train_fault_detector,
    train_transformer,
)
from util import joined_graph_training

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
    ({"seg_seconds": 0.0}, "seg_seconds"),
    ({"seg_seconds": -1.0}, "seg_seconds"),
])
def test_split_rejects_bad_durations(kwargs, name):
    # a negative count used to slice from the end, and inf/NaN died in int()
    records = [tiny_pair("healthy", s, i) for i, s in enumerate([480, 680, 1010] * 8)]
    with pytest.raises(ValueError, match=name):
        split_dataset(records, 1010, **{"train_seconds": 8, "val_seconds": 2, **kwargs})


def test_detector_overfits_separable_data(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=2, classifier_epochs=50, l_seg=int(RATE))
    model, history = train_fault_detector(split.train, split.val, cfg)
    assert len(history) == cfg.classifier_epochs
    preds, labels = classify_pairs(model, split.train)
    assert preds == labels  # 100% training accuracy within the epoch budget


def test_detector_training_is_seed_deterministic(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    cfg = TrainConfig(seed=5, classifier_epochs=3, l_seg=int(RATE))
    _, h1 = train_fault_detector(split.train, split.val, cfg)
    _, h2 = train_fault_detector(split.train, split.val, cfg)
    assert h1 == h2


def test_detector_rejects_single_class(small_dataset):
    only_healthy = [p for p in small_dataset if p.label == "healthy"][:6]
    cfg = TrainConfig(seed=0, classifier_epochs=1, l_seg=int(RATE))
    with pytest.raises(ValueError, match="both classes"):
        train_fault_detector(only_healthy, [], cfg)


@pytest.fixture(scope="module")
def trained_detector(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    cfg = TrainConfig(seed=2, classifier_epochs=12, l_seg=int(RATE))
    model, _ = train_fault_detector(split.train, split.val, cfg)
    return model, split


def _use_workers(monkeypatch, count):
    monkeypatch.setattr(training, "_worker_count", lambda cfg: count)


def _transformer_with_nan_bias(trained_detector):
    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=3)
    bias = dict(model.parameters())["decoder.4.biases"]
    bias.data[0] = np.nan
    cfg = TrainConfig(seed=3, max_iterations=4, val_interval=2, l_seg=int(RATE))
    with pytest.raises(ValueError, match=r"^iteration 1: time is not finite"):
        train_transformer(split.train, split.val, cfg, detector, model=model)


def _detector_with_nan_sample(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    train = list(split.train)
    vibration = train[3].vibration.copy()
    vibration[100] = np.nan
    train[3] = SegmentPair(train[3].sound, vibration, train[3].label, speed=train[3].speed)
    cfg = TrainConfig(seed=5, classifier_epochs=3, l_seg=int(RATE))
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


@pytest.mark.parametrize("mode,freeze", [("paired", True), ("paired", False),
                                         ("target", True), ("target", False)])
def test_transformer_result_does_not_depend_on_worker_count(trained_detector, monkeypatch,
                                                            mode, freeze):
    detector, split = trained_detector
    runs = []
    for workers in (1, 2, 3):                  # 3 splits a batch of 8 unevenly
        _use_workers(monkeypatch, workers)
        det = copy.deepcopy(detector)
        cfg = TrainConfig(seed=14, max_iterations=3, val_interval=2, l_seg=int(RATE),
                          class_loss_mode=mode, freeze_detector=freeze)
        with _deadline(120):
            model, history = train_transformer(split.train, split.val, cfg, det)
        runs.append((history, _weights(model) + _weights(det)))
        assert multiprocessing.active_children() == []
    for history, weights in runs[1:]:
        assert history == runs[0][0]
        assert all(np.array_equal(a, b) for a, b in zip(weights, runs[0][1]))


def test_detector_result_does_not_depend_on_worker_count(small_dataset, monkeypatch):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    runs = []
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        cfg = TrainConfig(seed=15, classifier_epochs=3, l_seg=int(RATE))
        with _deadline(120):
            model, history = train_fault_detector(split.train, split.val, cfg)
        runs.append((history, _weights(model)))
        assert multiprocessing.active_children() == []
    for history, weights in runs[1:]:
        assert history == runs[0][0]
        assert all(np.array_equal(a, b) for a, b in zip(weights, runs[0][1]))


@pytest.mark.parametrize("mode,freeze", [("paired", True), ("paired", False),
                                         ("target", True), ("target", False)])
def test_training_equals_joined_graph(trained_detector, monkeypatch, mode, freeze):
    # each parameter takes one gradient per sample, and the joined graph
    # accumulated them in sample order too, so every update is the same bits;
    # the reference recomputes each pair's spectrogram and detector scores,
    # over 2 epochs (3 batches each) with 4 validation passes, so a constant
    # computed once per pair is reused in training and in validation
    detector, split = trained_detector
    assert -(-len(split.train) // 8) == 3
    cfg = TrainConfig(seed=16, max_iterations=6, val_interval=2, l_seg=int(RATE),
                      class_loss_mode=mode, freeze_detector=freeze)
    ref_model, ref_det = OpUNet(l_seg=int(RATE), seed=16), copy.deepcopy(detector)
    ref = joined_graph_training(split.train, split.val, cfg, ref_det, ref_model)
    assert len({entry["val_total"] for entry in ref}) == 4
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        det = copy.deepcopy(detector)
        model, history = train_transformer(split.train, split.val, cfg, det,
                                           model=OpUNet(l_seg=int(RATE), seed=16))
        assert history == ref
        for a, b in zip(_weights(model) + _weights(det), _weights(ref_model) + _weights(ref_det)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("failure", ["raises", "dies"])
def test_worker_failure_reaches_the_caller(trained_detector, monkeypatch, failure):
    detector, split = trained_detector
    caller = os.getpid()
    real_loss_magnitude = training.loss_magnitude

    # the spectral loss runs for every training sample, in whichever worker holds it
    def loss_magnitude(*args):
        if os.getpid() != caller:
            if failure == "dies":
                os._exit(7)
            raise RuntimeError("spectral loss failed in a worker")
        return real_loss_magnitude(*args)

    monkeypatch.setattr(training, "loss_magnitude", loss_magnitude)
    _use_workers(monkeypatch, 2)
    cfg = TrainConfig(seed=17, max_iterations=2, l_seg=int(RATE))
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

    workers = training._Workers(2, {"task": task})
    try:
        with _deadline(60):
            results = workers.map("task", range(10))
    finally:
        workers.close()
    assert [i for i, _ in results] == list(range(10))
    assert [i for i, by_caller in results if not by_caller] == [1]
    assert multiprocessing.active_children() == []


def test_adam_steps_once_per_update_in_the_caller(small_dataset, monkeypatch):
    split = split_dataset(small_dataset, 1010.0, train_seconds=20, val_seconds=6)
    steps = []
    real_step = optim.Adam.step

    def step(opt):
        steps.append(os.getpid())
        real_step(opt)

    monkeypatch.setattr(optim.Adam, "step", step)
    _use_workers(monkeypatch, 2)
    cfg = TrainConfig(seed=18, classifier_epochs=2, l_seg=int(RATE))
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
    cfg = TrainConfig(seed=19, max_iterations=2, l_seg=int(RATE))
    with pytest.raises(_Halt):
        train_transformer(split.train, split.val, cfg, detector, model=model)
    assert multiprocessing.active_children() == []
    # the parameters are the model's own arrays again, and were not stepped
    for (_, t), orig in zip(model.parameters(), before):
        assert t.data.base is None and np.array_equal(t.data, orig)


@pytest.mark.parametrize("freeze", [True, False])
def test_stale_gradients_do_not_reach_the_first_update(trained_detector, monkeypatch, freeze):
    # a gradient left on a parameter before the call (a manual backward, a
    # gradient check) must not be added into the first sample's
    detector, split = trained_detector
    cfg = TrainConfig(seed=20, max_iterations=1, l_seg=int(RATE), freeze_detector=freeze)
    ref_model, ref_det = OpUNet(l_seg=int(RATE), seed=20), copy.deepcopy(detector)
    joined_graph_training(split.train, split.val, cfg, ref_det, ref_model)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        model, det = OpUNet(l_seg=int(RATE), seed=20), copy.deepcopy(detector)
        for _, t in model.parameters() + det.parameters():
            t.grad = np.ones_like(t.data)
        train_transformer(split.train, split.val, cfg, det, model=model)
        for a, b in zip(_weights(model) + _weights(det), _weights(ref_model) + _weights(ref_det)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("freeze", [True, False])
def test_detector_of_another_dtype_trains_as_with_per_array_adam(trained_detector, monkeypatch,
                                                                 freeze):
    # a float64 detector makes the float32 U-Net's gradients float64
    _, split = trained_detector
    cfg = TrainConfig(seed=21, max_iterations=1, l_seg=int(RATE), freeze_detector=freeze)
    detector = FaultClassifier(l_seg=int(RATE), seed=21, dtype=np.float64)
    ref_model, ref_det = OpUNet(l_seg=int(RATE), seed=21), copy.deepcopy(detector)
    ref = joined_graph_training(split.train, split.val, cfg, ref_det, ref_model)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        model, det = OpUNet(l_seg=int(RATE), seed=21), copy.deepcopy(detector)
        _, history = train_transformer(split.train, split.val, cfg, det, model=model)
        assert history == ref
        for a, b in zip(_weights(model) + _weights(det), _weights(ref_model) + _weights(ref_det)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_default_worker_count_needs_verified_blas_pinning(monkeypatch):
    pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    monkeypatch.setattr(training, "_BLAS_ENV_AT_LOAD", pinned)
    assert training._worker_count(TrainConfig()) == min(2, training._usable_cpus())
    assert training._worker_count(TrainConfig(batch_size=1)) == 1
    monkeypatch.setattr(training, "_BLAS_ENV_AT_LOAD", dict(pinned, OMP_NUM_THREADS="2"))
    assert training._worker_count(TrainConfig()) == 1
    monkeypatch.setattr(training, "_BLAS_ENV_AT_LOAD", None)   # numpy loaded first
    assert training._worker_count(TrainConfig()) == 1


def test_default_worker_count_without_fork_or_affinity(monkeypatch):
    pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    monkeypatch.setattr(training, "_BLAS_ENV_AT_LOAD", pinned)
    # macOS can fork but has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert training._worker_count(TrainConfig()) == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert training._worker_count(TrainConfig()) == 1


def test_transformer_freezes_detector(small_dataset, trained_detector):
    detector, split = trained_detector
    before = [t.data.copy() for _, t in detector.parameters()]
    cfg = TrainConfig(seed=3, max_iterations=6, val_interval=3, l_seg=int(RATE))
    train_transformer(split.train, split.val, cfg, detector)
    for (_, t), orig in zip(detector.parameters(), before):
        assert np.array_equal(t.data, orig)
    assert all(t.requires_grad for _, t in detector.parameters())


def test_transformer_detector_length_mismatch_is_config_error(trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=0, max_iterations=1, l_seg=512)
    with pytest.raises(ConfigError):
        train_transformer(split.train, split.val, cfg, detector)


def test_transformer_log_line_format(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=3, max_iterations=4, val_interval=2, l_seg=int(RATE))
    lines = []
    train_transformer(split.train, split.val, cfg, detector, log=lines.append)
    pattern = (r"^iter=\d+ time=\d+\.\d{6} stft=\d+\.\d{6} class=\d+\.\d{6} "
               r"total=\d+\.\d{6} val_total=\d+\.\d{6}$")
    assert len(lines) == 4
    for line in lines:
        assert re.match(pattern, line), line


def test_transformer_history_and_best_bookkeeping(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=4, max_iterations=8, val_interval=4, l_seg=int(RATE))
    model, history = train_transformer(split.train, split.val, cfg, detector)
    assert [h["iter"] for h in history] == list(range(1, 9))
    vals = [h["val_total"] for h in history]
    assert all(np.isfinite(v) for v in vals)
    # the reported best never increases as training progresses
    best_so_far = np.minimum.accumulate(vals)
    assert best_so_far[-1] <= best_so_far[0]


def test_transformer_seed_determinism(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=6, max_iterations=3, val_interval=2, l_seg=int(RATE))
    m1, h1 = train_transformer(split.train, split.val, cfg, detector)
    m2, h2 = train_transformer(split.train, split.val, cfg, detector)
    assert h1 == h2
    for (_, a), (_, b) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_transformer_epoch_iteration_reading(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=7, max_iterations=2, val_interval=50, l_seg=int(RATE),
                      iterations_are_epochs=True, batch_size=8)
    _, history = train_transformer(split.train, split.val, cfg, detector)
    batches_per_epoch = (len(split.train) + 7) // 8
    assert len(history) == 2 * batches_per_epoch


def test_transformer_target_class_loss_mode(small_dataset, trained_detector):
    detector, split = trained_detector
    cfg = TrainConfig(seed=8, max_iterations=2, val_interval=2, l_seg=int(RATE),
                      class_loss_mode="target")
    _, history = train_transformer(split.train, split.val, cfg, detector)
    assert len(history) == 2


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
    cfg = TrainConfig(seed=1, classifier_epochs=40, batch_size=2, l_seg=int(RATE))
    model, _ = train_fault_detector(one_each, one_each, cfg)
    preds, labels = classify_pairs(model, one_each)
    assert preds == labels


def test_periodic_checkpoints_written(small_dataset, trained_detector, tmp_path):
    detector, split = trained_detector
    cfg = TrainConfig(seed=12, max_iterations=4, val_interval=2, l_seg=int(RATE),
                      checkpoint_dir=str(tmp_path))
    train_transformer(split.train, split.val, cfg, detector)
    assert (tmp_path / "transformer_best.opvb").exists()
    from opvib.models import load_checkpoint
    model, meta = load_checkpoint(tmp_path / "transformer_best.opvb")
    assert meta["seed"] == 12 and "val_loss" in meta


def test_run_experiment_schema(small_dataset):
    from opvib.training import run_experiment

    cfg = TrainConfig(seed=13, classifier_epochs=15, max_iterations=10, val_interval=5,
                      l_seg=int(RATE), train_seconds=20, val_seconds=6)
    result = run_experiment(cfg, small_dataset, held_out_speed=1010.0)
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
    cfg = TrainConfig(seed=10, max_iterations=3, val_interval=3, batch_size=8,
                      l_seg=int(RATE))
    _, history = train_transformer(split.train, split.val, cfg, detector)
    assert len(history) == 3
