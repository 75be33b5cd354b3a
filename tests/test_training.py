import re

import numpy as np
import pytest

from opvib.dataio import SyntheticSpec, generate_synthetic, load_segment_pairs
from opvib.models import ConfigError, parameter_count
from opvib.signal import SegmentPair
from opvib.training import (
    DataSplit,
    TrainConfig,
    classify_pairs,
    split_dataset,
    train_fault_detector,
    train_transformer,
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


def test_transformer_stops_on_non_finite_loss(small_dataset, trained_detector):
    from opvib.models import OpUNet

    detector, split = trained_detector
    model = OpUNet(l_seg=int(RATE), seed=3)
    bias = dict(model.parameters())["decoder.4.biases"]
    bias.data[0] = np.nan
    cfg = TrainConfig(seed=3, max_iterations=4, val_interval=2, l_seg=int(RATE))
    with pytest.raises(ValueError, match=r"^iteration 1: time is not finite"):
        train_transformer(split.train, split.val, cfg, detector, model=model)


def test_detector_stops_on_non_finite_loss(small_dataset):
    split = split_dataset(small_dataset, 1010.0, train_seconds=10, val_seconds=4)
    train = list(split.train)
    vibration = train[3].vibration.copy()
    vibration[100] = np.nan
    train[3] = SegmentPair(train[3].sound, vibration, train[3].label, speed=train[3].speed)
    cfg = TrainConfig(seed=5, classifier_epochs=3, l_seg=int(RATE))
    with pytest.raises(ValueError, match=r"^epoch 0: train_mse is not finite"):
        train_fault_detector(train, split.val, cfg)


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
