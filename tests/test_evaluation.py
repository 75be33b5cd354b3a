import json
import statistics
import types

import numpy as np
import pytest

from opvib import evaluation
from opvib.evaluation import MetricsReport, benchmark_inference, compute_metrics, real_time_factor
from opvib.models import OpUNet
from util import brute_confusion


def test_table_spot_value():
    # sensitivity 100% with precision 99.12% gives F1 = 99.56% (2 decimals)
    report = MetricsReport(0, 0, 0, 0, 0.0, {"healthy": {}, "faulty": {}})
    f1 = 2 * 100.0 * 99.12 / (100.0 + 99.12)
    assert round(f1, 2) == 99.56


def test_all_correct_predictions():
    preds = ["faulty", "healthy", "faulty", "healthy"]
    rep = compute_metrics(preds, list(preds))
    assert rep.accuracy == 100.0
    assert rep.per_class["healthy"]["f1"] == 100.0
    assert rep.per_class["faulty"]["f1"] == 100.0


def test_hand_counted_example():
    preds = ["faulty", "faulty", "healthy", "healthy"]
    labels = ["faulty", "healthy", "healthy", "healthy"]
    rep = compute_metrics(preds, labels)
    assert rep.accuracy == 75.0
    assert rep.per_class["faulty"]["sensitivity"] == 100.0
    assert rep.per_class["faulty"]["precision"] == 50.0
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 1, 2, 0)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        preds = [("faulty" if b else "healthy") for b in rng.integers(0, 2, n)]
        labels = [("faulty" if b else "healthy") for b in rng.integers(0, 2, n)]
        rep = compute_metrics(preds, labels)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == brute_confusion(preds, labels)
        assert rep.total == n


def test_swapping_positive_class_swaps_blocks_keeps_accuracy():
    rng = np.random.default_rng(1)
    preds = [("faulty" if b else "healthy") for b in rng.integers(0, 2, 50)]
    labels = [("faulty" if b else "healthy") for b in rng.integers(0, 2, 50)]
    rep = compute_metrics(preds, labels)
    flip = {"faulty": "healthy", "healthy": "faulty"}
    rep_sw = compute_metrics([flip[p] for p in preds], [flip[l] for l in labels])
    assert rep.accuracy == rep_sw.accuracy
    assert rep.per_class["faulty"] == rep_sw.per_class["healthy"]
    assert rep.per_class["healthy"] == rep_sw.per_class["faulty"]


def test_zero_support_metrics_are_none_not_zero():
    rep = compute_metrics(["healthy", "healthy"], ["healthy", "healthy"])
    assert rep.per_class["faulty"]["sensitivity"] is None
    assert rep.per_class["faulty"]["precision"] is None
    assert rep.per_class["faulty"]["f1"] is None
    assert rep.accuracy == 100.0
    assert "n/a" in rep.to_table()


def test_input_validation():
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics(["healthy"], ["healthy", "faulty"])
    with pytest.raises(ValueError):
        compute_metrics(["broken"], ["healthy"])


def test_json_is_canonical_and_parses():
    rep = compute_metrics(["faulty", "healthy"], ["faulty", "faulty"])
    payload = json.loads(rep.to_json())
    assert payload["accuracy"] == 50.0
    assert payload["counts"] == {"tp": 1, "fp": 0, "tn": 0, "fn": 1}
    assert payload["healthy"]["sensitivity"] is None   # no healthy support
    assert payload["healthy"]["precision"] == 0.0      # one healthy prediction, wrong
    assert rep.to_json() == rep.to_json()


@pytest.fixture(scope="module")
def small_model():
    return OpUNet(l_seg=256, seed=0)


def test_benchmark_reports_positive_median(small_model):
    segment = np.zeros(256, dtype=np.float32)
    ms = benchmark_inference(small_model, segment, repetitions=15, warmup=2)
    assert ms > 0.0
    assert real_time_factor(ms, seg_seconds=1.0) == 1000.0 / ms


def test_benchmark_is_reasonably_stable(monkeypatch):
    # a scripted clock: each forward pass takes the next listed duration, so
    # the result is exact whatever the load on the host
    def bench(warmup_ms, timed_ms):
        durations = iter(warmup_ms + timed_ms)
        clock = {"now": 0.0, "calls": 0, "reads": []}

        def model(x):
            clock["calls"] += 1
            clock["now"] += next(durations) / 1e3

        def perf_counter():
            clock["reads"].append(clock["calls"])
            return clock["now"]

        monkeypatch.setattr(evaluation, "time", types.SimpleNamespace(perf_counter=perf_counter))
        ms = benchmark_inference(model, np.zeros(8, dtype=np.float32),
                                 repetitions=len(timed_ms), warmup=len(warmup_ms))
        assert clock["calls"] == len(warmup_ms) + len(timed_ms)
        return ms, clock["reads"]

    warmup = [1e3] * 3
    timed = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    ms, reads = bench(warmup, timed)
    assert ms == pytest.approx(statistics.median(timed), rel=1e-6)
    # one repetition 100x slower does not move the median
    slow = [100.0 * t if t == max(timed) else t for t in timed]
    assert bench(warmup, slow)[0] == pytest.approx(ms, rel=1e-6)
    # the clock is read only after the warm-up calls, twice per repetition
    assert reads == [len(warmup) + i + j for i in range(len(timed)) for j in (0, 1)]


def test_benchmark_rejects_too_few_repetitions(small_model):
    with pytest.raises(ValueError):
        benchmark_inference(small_model, np.zeros(256, dtype=np.float32), repetitions=9)
