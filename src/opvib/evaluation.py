"""Confusion-matrix metrics and the single-segment inference benchmark.

The positive class is ``faulty``.  Metrics are reported per class as
percentages; a metric whose denominator is zero (no support) is reported
as ``None`` and rendered as ``n/a`` rather than 0 or 100, so averages are
never silently inflated.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, no_grad

__all__ = ["MetricsReport", "compute_metrics", "benchmark_inference", "real_time_factor"]

_CLASSES = ("healthy", "faulty")


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus derived percentages (positive class = faulty)."""

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    per_class: dict

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    def to_json(self):
        payload = {
            "counts": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "accuracy": self.accuracy,
            "healthy": self.per_class["healthy"],
            "faulty": self.per_class["faulty"],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_table(self, title="metrics"):
        def fmt(v):
            return "   n/a" if v is None else f"{v:6.2f}"

        h = self.per_class["healthy"]
        f = self.per_class["faulty"]
        lines = [
            f"{title}",
            f"{'':14s}{'Accuracy':>9s}{'Sens(%)':>9s}{'Prec(%)':>9s}{'F1(%)':>9s}"
            f"{'Sens(%)':>9s}{'Prec(%)':>9s}{'F1(%)':>9s}",
            f"{'':14s}{'':9s}{'healthy':>27s}{'faulty':>27s}",
            f"{'':14s}{self.accuracy:9.2f}"
            f"{fmt(h['sensitivity']):>9s}{fmt(h['precision']):>9s}{fmt(h['f1']):>9s}"
            f"{fmt(f['sensitivity']):>9s}{fmt(f['precision']):>9s}{fmt(f['f1']):>9s}",
        ]
        return "\n".join(lines)


def _ratio(num, den):
    return None if den == 0 else 100.0 * num / den


def _f1(prec, sens):
    if prec is None or sens is None or prec + sens == 0:
        return None
    return 2.0 * prec * sens / (prec + sens)


def compute_metrics(predictions, labels):
    """Counts and per-class sensitivity/precision/F1 from parallel label lists."""
    if len(predictions) == 0:
        raise ValueError("cannot compute metrics over zero segments")
    if len(predictions) != len(labels):
        raise ValueError(
            f"prediction/label length mismatch: {len(predictions)} vs {len(labels)}"
        )
    for value in (*predictions, *labels):
        if value not in _CLASSES:
            raise ValueError(f"labels must be in {_CLASSES}, got {value!r}")

    tp = fp = tn = fn = 0
    for pred, lab in zip(predictions, labels):
        if pred == "faulty" and lab == "faulty":
            tp += 1
        elif pred == "faulty" and lab == "healthy":
            fp += 1
        elif pred == "healthy" and lab == "healthy":
            tn += 1
        else:
            fn += 1

    total = tp + fp + tn + fn
    faulty_sens = _ratio(tp, tp + fn)
    faulty_prec = _ratio(tp, tp + fp)
    healthy_sens = _ratio(tn, tn + fp)
    healthy_prec = _ratio(tn, tn + fn)
    per_class = {
        "healthy": {"sensitivity": healthy_sens, "precision": healthy_prec,
                    "f1": _f1(healthy_prec, healthy_sens)},
        "faulty": {"sensitivity": faulty_sens, "precision": faulty_prec,
                   "f1": _f1(faulty_prec, faulty_sens)},
    }
    return MetricsReport(tp, fp, tn, fn, 100.0 * (tp + tn) / total, per_class)


def benchmark_inference(model, segment, repetitions=50, warmup=5):
    """Median wall-clock milliseconds for one single-segment forward pass."""
    if repetitions < 10:
        raise ValueError(f"need at least 10 repetitions, got {repetitions}")
    x = np.asarray(segment, dtype=np.float32).reshape(1, -1)
    with no_grad():
        for _ in range(warmup):
            model(Tensor(x))
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            model(Tensor(x))
            times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def real_time_factor(median_ms):
    """How many times faster than real time a 1-second segment is synthesized."""
    return 1000.0 / median_ms
