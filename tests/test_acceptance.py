"""End-to-end acceptance suite.

Every test here implements one release criterion at its stated tolerance
and prints the measured values (visible with ``pytest -s``); the terminal
summary lists one pass/fail line per criterion.  The two training
criteria run the full pipeline on seeded synthetic datasets and take a
few minutes each.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from opvib.dataio import SyntheticSpec, generate_synthetic, load_segment_pairs
from opvib.evaluation import benchmark_inference, compute_metrics, real_time_factor
from opvib.losses import loss_class, loss_stft, loss_time, stft_magnitude
from opvib.models import OpUNet, parameter_count
from opvib.optim import Adam
from opvib.selfonn import to_gemm_layout
from opvib.signal import hann_window, spectrogram, stft
from opvib.tensor import Tensor, conv1d, no_grad, transposed_conv1d
from opvib.training import TrainConfig, classify_pairs, split_dataset, train_fault_detector, train_transformer
from util import brute_confusion, brute_dft, fd_gradcheck, generative_reference, opvib_subprocess_env


# -- criterion 1: gradient correctness -------------------------------------------


def test_a01_gradients_match_finite_differences_everywhere():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()

    x = Tensor(rng.standard_normal((3, 40)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
    wt = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True, dtype=np.float64)
    gw = Tensor(to_gemm_layout(rng.standard_normal((3, 4, 3, 5))), requires_grad=True, dtype=np.float64)
    y_ref = rng.standard_normal(512)
    synth = Tensor(rng.standard_normal(512), requires_grad=True, dtype=np.float64)
    scores = Tensor(rng.standard_normal(2), requires_grad=True, dtype=np.float64)

    cases = {
        "conv1d": (lambda: conv1d(x, w, b, stride=2, padding=2).tanh().mean(), [x, w, b], 34),
        "transposed_conv1d": (lambda: transposed_conv1d(x, wt, None, 2, 1).tanh().mean(), [x, wt], 50),
        "generative_reference": (lambda: generative_reference(x * 0.2, gw, b, 2, 2).tanh().mean(),
                                 [x, gw, b], 34),
        "tanh": (lambda: x.tanh().mean(), [x], 100),
        "loss_time": (lambda: loss_time(y_ref, synth), [synth], 100),
        "loss_stft": (lambda: loss_stft(stft_magnitude(y_ref), synth), [synth], 100),
        "loss_class": (lambda: loss_class([0.4, -0.2], scores), [scores], 100),
    }
    for name, (make, params, points) in cases.items():
        err = fd_gradcheck(make, params, rng, n_points=points)
        print(f"  {name}: worst relative error {err:.3e}")
        assert err < 1e-4, f"{name} gradient mismatch: {err}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 1 (gradient correctness): PASS in {elapsed:.1f}s")
    assert elapsed < 60.0


# -- criterion 2: first-order layers reduce to plain convolutions ----------------


def test_a02_q1_layer_equals_plain_convolution():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        c_in = int(rng.integers(1, 6))
        c_out = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 3))
        length = int(rng.integers(k + 1, k + 40))
        y = rng.uniform(-1, 1, (c_in, length)).astype(np.float32)
        w = rng.standard_normal((1, c_out, c_in, k)).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32)
        gen = generative_reference(Tensor(y), to_gemm_layout(w), Tensor(bias), stride, pad).data
        ref = conv1d(Tensor(y), Tensor(w[0]), Tensor(bias), stride, pad).data
        worst = max(worst, float(np.abs(gen - ref).max()))
    print(f"criterion 2 (Q=1 reduction): max abs difference {worst:.2e} over 50 configs")
    assert worst < 1e-6


# -- criterion 3: STFT against a brute-force DFT oracle ---------------------------


def test_a03_stft_matches_brute_force_oracle_at_integer_bins():
    n, hop = 256, 128
    window = hann_window(n)
    for k in (1, 8, 64):
        # sine probe: a cosine at k=1 ties bins 0 and 1 exactly under the
        # periodic Hann, so the peak would be ambiguous
        x = np.sin(2 * np.pi * k * np.arange(n) / n)
        frames = stft(x)
        mags = np.abs(frames[0])
        peak = int(np.argmax(mags))
        oracle = brute_dft(x * window)
        leak_err = float(np.abs(frames[0] - oracle).max())
        print(f"  bin {k}: peak at {peak}, oracle deviation {leak_err:.2e}")
        assert peak == k
        assert leak_err <= 1e-8
    print("criterion 3 (STFT oracle): PASS")


# -- criterion 4: convolution/transposed-convolution adjointness ------------------


def test_a04_adjoint_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    checked = 0
    while checked < 120:
        k = int(rng.integers(1, 10))
        stride = int(rng.choice([1, 2, 4]))
        pad = int(rng.integers(0, 4))
        l_out = int(rng.integers(1, 30))
        length = (l_out - 1) * stride + k - 2 * pad
        if length < 1 or k > length + 2 * pad:
            continue
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        y = rng.standard_normal((c_out, l_out))
        lhs = float((conv1d(x, w, None, stride, pad).data * y).sum())
        rhs = float((transposed_conv1d(y, w, None, stride, pad).data * x).sum())
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        checked += 1
    print(f"criterion 4 (adjoint identity): worst relative deviation {worst:.2e}")
    assert worst <= 1e-10


# -- criteria 5 and 10: overfit surrogate and reproducibility ---------------------


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    """Full cascaded pipeline on 32 seeded pairs at the training defaults."""
    t0 = time.perf_counter()
    spec = SyntheticSpec(seed=11, num_healthy=16, num_faulty=16)
    manifest = generate_synthetic(spec, tmp_path_factory.mktemp("overfit_data"))
    pairs = load_segment_pairs(manifest)
    assert len(pairs) == 32 and pairs[0].sound.size == 4096
    train, val = pairs[:24], pairs[24:]

    cfg = TrainConfig(seed=11)  # batch 8, lr 1e-4, lam 100, 1000 iterations
    assert (cfg.batch_size, cfg.learning_rate, cfg.lam, cfg.max_iterations) == (8, 1e-4, 100.0, 1000)
    detector, _ = train_fault_detector(train, val, cfg)
    model, history = train_transformer(train, val, cfg, detector)
    return {"pairs": pairs, "model": model, "history": history,
            "minutes": (time.perf_counter() - t0) / 60.0}


@pytest.mark.slow
def test_a05_overfit_reduces_time_loss_tenfold(overfit_run):
    history = overfit_run["history"]
    initial = history[0]["time"]
    final = float(np.mean([h["time"] for h in history[-10:]]))
    ratio = final / initial
    print(f"criterion 5a (overfit): time L1 {initial:.4f} -> {final:.4f} "
          f"(ratio {ratio:.3f}, budget 0.10) in {overfit_run['minutes']:.1f} min")
    assert ratio <= 0.10
    assert overfit_run["minutes"] < 15.0


@pytest.mark.slow
def test_a05_overfit_synthesis_matches_spectral_peaks(overfit_run):
    model = overfit_run["model"]
    matched = total = 0
    with no_grad():
        for pair in overfit_run["pairs"]:
            synth = model(Tensor(pair.sound.reshape(1, -1))).data[0].astype(np.float64)
            target = pair.vibration.astype(np.float64)
            peaks_s = spectrogram(synth).argmax(axis=1)
            peaks_t = spectrogram(target).argmax(axis=1)
            matched += int(np.sum(peaks_s == peaks_t))
            total += peaks_s.size
    rate = 100.0 * matched / total
    print(f"criterion 5b (overfit): spectral peak bins match on {matched}/{total} "
          f"frames = {rate:.1f}% (threshold 95%)")
    assert rate >= 95.0


# -- criterion 6: detection gap between real and synthesized vibration ------------


@pytest.fixture(scope="session")
def detection_gap_run(tmp_path_factory):
    t0 = time.perf_counter()
    spec = SyntheticSpec(seed=23, num_healthy=150, num_faulty=150)
    manifest = generate_synthetic(spec, tmp_path_factory.mktemp("gap_data"))
    pairs = load_segment_pairs(manifest)
    split = split_dataset(pairs, held_out_speed=1010.0, train_seconds=180, val_seconds=20)
    assert len(split.train) + len(split.val) == 200 and len(split.test) == 100

    cfg_det = TrainConfig(seed=23)  # classifier: 50 epochs at lr 1e-4
    detector, _ = train_fault_detector(split.train, split.val, cfg_det)
    cfg_tr = TrainConfig(seed=23, max_iterations=800, val_interval=50)
    transformer, _ = train_transformer(split.train, split.val, cfg_tr, detector)

    report_real = compute_metrics(*classify_pairs(detector, split.test))
    report_synth = compute_metrics(*classify_pairs(detector, split.test, transformer))
    return {"real": report_real, "synth": report_synth,
            "minutes": (time.perf_counter() - t0) / 60.0}


@pytest.mark.slow
def test_a06_detection_gap_between_real_and_synthesized(detection_gap_run):
    acc_real = detection_gap_run["real"].accuracy
    acc_synth = detection_gap_run["synth"].accuracy
    gap = abs(acc_real - acc_synth)
    print(f"criterion 6 (detection gap): real {acc_real:.2f}%, synthesized {acc_synth:.2f}%, "
          f"gap {gap:.2f} pts (budget 2.0; original-study reference gap 0.4) "
          f"in {detection_gap_run['minutes']:.1f} min")
    assert acc_real >= 95.0
    assert gap <= 2.0
    assert detection_gap_run["minutes"] < 20.0


# -- criterion 7: metrics against a brute-force counting oracle -------------------


def test_a07_metrics_match_counting_oracle():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        preds = [("faulty" if v else "healthy") for v in rng.integers(0, 2, n)]
        labels = [("faulty" if v else "healthy") for v in rng.integers(0, 2, n)]
        rep = compute_metrics(preds, labels)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == brute_confusion(preds, labels)
    f1 = 2 * 100.0 * 99.12 / (100.0 + 99.12)
    print(f"criterion 7 (metrics oracle): 1000 random vectors exact; "
          f"sens 100 / prec 99.12 -> F1 {f1:.2f} (expected 99.56)")
    assert round(f1, 2) == 99.56


# -- criterion 8: single-segment inference latency --------------------------------


def test_a08_inference_latency_faster_than_real_time():
    model = OpUNet()  # default architecture, 4096-sample segments
    segment = np.random.default_rng(108).uniform(-1, 1, 4096).astype(np.float32)
    median_ms = benchmark_inference(model, segment, repetitions=50)
    rtf = real_time_factor(median_ms)
    print(f"criterion 8 (latency): median {median_ms:.2f} ms per 1 s segment, "
          f"real-time factor {rtf:.0f}x (gate < 100 ms; original-study reference ~6.5 ms)")
    assert median_ms < 100.0
    assert rtf > 10.0


# -- criterion 9: parameter accounting ---------------------------------------------


def test_a09_parameter_count_and_budget():
    model = OpUNet()
    count = parameter_count(model)
    params = [t for _, t in model.parameters()]
    before = [t.data.copy() for t in params]
    for t in params:
        t.grad = np.ones_like(t.data)
    Adam(params, lr=1e-3).step()
    changed = sum(int(np.sum(a != t.data)) for a, t in zip(before, params))
    print(f"criterion 9 (parameters): {count} total, {changed} mutated by one step; "
          f"target band {int(377_000 * 0.85)}..{int(377_000 * 1.15)}")
    print(model.describe())
    assert changed == count
    assert abs(count - 377_000) <= 0.15 * 377_000


# -- criterion 10: byte-identical reproducible runs --------------------------------


def _reproducible_pipeline(workdir, seed):
    env = opvib_subprocess_env()
    base = [sys.executable, "-m", "opvib"]
    common = ["--reproducible", "--seed", str(seed)]

    def run(args):
        proc = subprocess.run(base + args + common, cwd=workdir, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        return proc.stdout

    run(["gen-synthetic", "--healthy", "8", "--faulty", "8",
         "--sample-rate", "256", "--out", "data"])
    run(["train-detector", "--manifest", "data/manifest.tsv", "--out", "det.opvb",
         "--epochs", "4", "--train-seconds", "8", "--val-seconds", "3"])
    run(["train-transformer", "--manifest", "data/manifest.tsv", "--detector", "det.opvb",
         "--out", "tr.opvb", "--iters", "6", "--val-interval", "3",
         "--train-seconds", "8", "--val-seconds", "3"])
    run(["evaluate", "--detector", "det.opvb", "--manifest", "data/manifest.tsv",
         "--split", "test", "--out-dir", "reports"])
    run(["evaluate", "--detector", "det.opvb", "--manifest", "data/manifest.tsv",
         "--transformer", "tr.opvb", "--split", "test", "--out-dir", "reports"])
    run(["synthesize", "--model", "tr.opvb", "--sound", "data/seg0000_sound.wav",
         "--out", "synth.wav"])

    outputs = {}
    for rel in ("det.opvb", "tr.opvb", "synth.wav",
                "reports/metrics_real.json", "reports/metrics_real.txt",
                "reports/metrics_synthesized.json", "data/manifest.tsv"):
        outputs[rel] = (workdir / rel).read_bytes()
    for wav in sorted((workdir / "data").glob("*.wav")):
        outputs[f"data/{wav.name}"] = wav.read_bytes()
    return outputs


@pytest.mark.slow
def test_a10_reproducible_runs_are_byte_identical(tmp_path):
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    out_a = _reproducible_pipeline(run_a, seed=5)
    out_b = _reproducible_pipeline(run_b, seed=5)
    assert out_a.keys() == out_b.keys()
    diffs = [k for k in out_a if out_a[k] != out_b[k]]
    print(f"criterion 10 (determinism): {len(out_a)} artifacts compared, "
          f"{len(diffs)} differ {diffs}")
    assert not diffs


# -- optional criterion 11: real benchmark recordings ------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    "OPVIB_BENCH_MANIFEST" not in os.environ,
    reason="real benchmark recordings not available (set OPVIB_BENCH_MANIFEST)",
)
def test_a11_real_dataset_accuracy_near_reference_rows():
    from opvib.training import run_experiment

    pairs = load_segment_pairs(os.environ["OPVIB_BENCH_MANIFEST"])
    held_out = float(os.environ.get("OPVIB_BENCH_HELD_OUT_SPEED",
                                    max(p.speed for p in pairs)))
    result = run_experiment(TrainConfig(seed=0), split_dataset(pairs, held_out))
    acc = result["real"].accuracy
    print(f"criterion 11 (real data): accuracy {acc:.2f}%, gap {result['accuracy_gap']:.2f}")
    assert min(abs(acc - 99.70), abs(acc - 97.56)) <= 2.0
