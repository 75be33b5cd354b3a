"""Spans around opvib's public entry points, installed from outside the package.

The tracer replaces each entry point named in ``ENTRY_POINTS`` with a timing
wrapper, in every ``opvib`` module namespace that holds it (so ``from .tensor
import conv1d`` bindings are covered too), and restores the originals on
exit.  Nothing under ``src/`` is edited.

Each span is ``[name, start_ns, end_ns, parent, op, phase]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the number of
operations the harness had completed when the span opened, and ``phase``
either ``"setup"`` or ``"ops"``.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

import numpy as np

# (module, attribute path, span name); classes are patched on every alias of
# the method in the class dict, so ``__call__ = forward`` is covered.
ENTRY_POINTS = [
    ("signal", "normalize_segment", "signal.normalize_segment"),
    ("dataio", "generate_synthetic", "dataio.generate_synthetic"),
    ("dataio", "load_segment_pairs", "dataio.load_segment_pairs"),
    ("models", "save_checkpoint", "models.save_checkpoint"),
    ("models", "load_checkpoint", "models.load_checkpoint"),
    ("models", "OpUNet.forward", "models.OpUNet.forward"),
    ("models", "FaultClassifier.forward", "models.FaultClassifier.forward"),
    ("models", "DenseLayer.__call__", "models.detector.dense"),
    ("selfonn", "OperationalLayer.__call__", "selfonn.OperationalLayer"),
    ("tensor", "conv1d", "tensor.conv1d"),
    ("tensor", "transposed_conv1d", "tensor.transposed_conv1d"),
    ("tensor", "power_stack", "tensor.power_stack"),
    ("tensor", "frames1d", "tensor.frames1d"),
    ("tensor", "Tensor.backward", "tensor.Tensor.backward"),
    ("losses", "loss_time", "losses.loss_time"),
    ("losses", "loss_stft", "losses.loss_stft"),
    ("losses", "loss_class", "losses.loss_class"),
    ("optim", "Adam.step", "optim.Adam.step"),
    ("training", "train_transformer", "training.train_transformer"),
    ("training", "train_fault_detector", "training.train_fault_detector"),
]

HARNESS_SPAN = "harness.speed_kernel"
MODULES = ("signal", "dataio", "models", "selfonn", "tensor", "losses", "optim", "training")
OPUNET_LAYERS = [f"opunet.{part}.{i}" for part in ("encoder", "decoder") for i in range(5)]
DETECTOR_LAYERS = [f"detector.oplayers.{i}" for i in range(5)]


def _conv_work(span, args, out):
    """Computed forward work of one conv call: (flops, compulsory bytes moved).

    conv1d weights are (C_out, C_in, K) and each output position costs
    C_out*C_in*K MACs; transposed_conv1d weights are (C_in, C_out, K) and
    each input position costs as much.  Bytes count the input, the weights
    and the output once each.
    """
    x, w = (a.data if hasattr(a, "data") else np.asarray(a) for a in args[:2])
    positions = out.data.shape[1] if span == "tensor.conv1d" else x.shape[1]
    return 2.0 * w.size * positions, (x.size + w.size + out.data.size) * out.data.itemsize


def _opvib_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "opvib" or name.startswith("opvib."))]


class Tracer:
    """Wraps the entry points while active and records spans and counts."""

    def __init__(self, clock):
        self.clock = clock
        self.phase = "setup"
        self.spans = []
        self._stack = []
        self._undo = []
        self._layer_names = {}
        self._versions = {}          # id(model) -> weight version
        self._model_params = {}      # id(model) -> set of parameter ids
        self._models = {}
        # counts cover the ``ops`` phase only
        self.seen_inputs = set()
        self.detector_calls = 0
        self.detector_repeats = 0
        self.work = {"tensor.conv1d": [0.0, 0.0], "tensor.transposed_conv1d": [0.0, 0.0]}

    # -- model bookkeeping -------------------------------------------------------

    def _see(self, model, prefix):
        """On first sight, name a model's operational layers after its
        parameter names and start its weight version at 0."""
        if id(model) in self._models:
            return
        self._models[id(model)] = model      # held so the id is not reused
        named = dict(model.parameters())
        for layer in getattr(model, "encoder", []) + getattr(model, "decoder", []) + \
                getattr(model, "oplayers", []):
            for name, tensor in named.items():
                if tensor is layer.weights:
                    self._layer_names[id(layer)] = f"{prefix}.{name.rsplit('.', 1)[0]}"
        self._versions[id(model)] = 0
        self._model_params[id(model)] = {id(t) for t in named.values()}

    # -- install / remove --------------------------------------------------------

    def __enter__(self):
        import opvib
        for mod_name, path, span in ENTRY_POINTS:
            module = getattr(opvib, mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(original, span)
                for attr, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, attr, wrapper)
                        self._undo.append((cls, attr, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, span)
                for m in _opvib_modules():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        # the harness's speed kernel runs between operations, sometimes inside
        # a ``train_*`` span: give it a span of its own so no layer's self
        # time includes it
        self.clock.calibrate = self._wrap(self.clock.calibrate, HARNESS_SPAN)
        self._undo.append((self.clock, "calibrate", None))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap(self, fn, span):
        tracer = self
        special = {
            "selfonn.OperationalLayer": tracer._layer_span,
            "models.OpUNet.forward": tracer._opunet_call,
            "models.FaultClassifier.forward": tracer._detector_call,
            "optim.Adam.step": tracer._adam_step,
        }.get(span)
        costed = span in self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = special(args) if special else span
            index = len(tracer.spans)
            record = [name, time.perf_counter_ns(), 0,
                      tracer._stack[-1] if tracer._stack else -1,
                      tracer.clock.completed, tracer.phase]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if costed and tracer.phase == "ops":
                flops, moved = _conv_work(span, args, out)
                tracer.work[span][0] += flops
                tracer.work[span][1] += moved
            return out

        return wrapper

    def _layer_span(self, args):
        return "selfonn." + self._layer_names.get(id(args[0]), "OperationalLayer")

    def _opunet_call(self, args):
        self._see(args[0], "opunet")
        return "models.OpUNet.forward"

    def _detector_call(self, args):
        model, x = args[0], args[1]
        self._see(model, "detector")
        if self.phase == "ops":
            data = np.ascontiguousarray(x.data if hasattr(x, "data") else np.asarray(x))
            key = (id(model), self._versions[id(model)],
                   hashlib.blake2b(data.tobytes(), digest_size=16).digest())
            self.detector_calls += 1
            if key in self.seen_inputs:
                self.detector_repeats += 1
            else:
                self.seen_inputs.add(key)
        return "models.FaultClassifier.forward"

    def _adam_step(self, args):
        # a step on a model's parameters starts a new weight version, so a
        # detector input only counts as a repeat under unchanged weights
        ids = {id(p) for p in args[0].params}
        for model_id, params in self._model_params.items():
            if params & ids:
                self._versions[model_id] += 1
        return "optim.Adam.step"

    # -- aggregation ------------------------------------------------------------

    def summary(self, n_ops):
        """Per-layer metrics: ms per operation for the ``ops`` phase, per call for setup."""
        incl = {}
        self_ns = {m: 0 for m in MODULES}
        setup = {}
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, _op, phase) in enumerate(self.spans):
            dur = end - start
            if phase == "setup":
                calls, total = setup.get(name, (0, 0))
                setup[name] = (calls + 1, total + dur)
                continue
            calls, total = incl.get(name, (0, 0))
            incl[name] = (calls + 1, total + dur)
            module = name.split(".", 1)[0]
            if module in self_ns:
                self_ns[module] += dur - child_ns[i]

        def per_op_ms(name):
            return incl.get(name, (0, 0))[1] / 1e6 / n_ops

        def per_call(name, scale):
            calls, total = setup.get(name, (0, 0))
            return total / scale / calls if calls else 0.0

        m = {}
        for layer in OPUNET_LAYERS + DETECTOR_LAYERS:
            m[f"selfonn.{layer}.fwd_ms"] = (per_op_ms(f"selfonn.{layer}"), "ms")
        m["models.OpUNet.forward_ms"] = (per_op_ms("models.OpUNet.forward"), "ms")
        m["models.FaultClassifier.forward_ms"] = (per_op_ms("models.FaultClassifier.forward"), "ms")
        m["models.detector.dense.fwd_ms"] = (per_op_ms("models.detector.dense"), "ms")
        m["models.FaultClassifier.calls"] = (self.detector_calls / n_ops, "count/op")
        m["models.FaultClassifier.repeat_input_frac"] = (
            self.detector_repeats / self.detector_calls if self.detector_calls else 0.0, "fraction")
        m["models.load_checkpoint_ms"] = (per_call("models.load_checkpoint", 1e6), "ms")
        m["models.save_checkpoint_ms"] = (per_call("models.save_checkpoint", 1e6), "ms")
        for op in ("conv1d", "transposed_conv1d", "power_stack", "frames1d"):
            m[f"tensor.{op}.fwd_ms"] = (per_op_ms(f"tensor.{op}"), "ms")
        m["tensor.Tensor.backward_ms"] = (per_op_ms("tensor.Tensor.backward"), "ms")
        for op in ("conv1d", "transposed_conv1d"):
            flops, moved = self.work[f"tensor.{op}"]
            m[f"tensor.{op}.calls"] = (incl.get(f"tensor.{op}", (0, 0))[0] / n_ops, "count/op")
            m[f"tensor.{op}.gflop"] = (flops / 1e9 / n_ops, "GFLOP/op")
            m[f"tensor.{op}.mb_moved"] = (moved / 1e6 / n_ops, "MB/op")
        for fn in ("loss_time", "loss_stft", "loss_class"):
            m[f"losses.{fn}_ms"] = (per_op_ms(f"losses.{fn}"), "ms")
        m["optim.Adam.step_ms"] = (per_op_ms("optim.Adam.step"), "ms")
        m["signal.normalize_segment_ms"] = (per_op_ms("signal.normalize_segment"), "ms")
        m["dataio.generate_synthetic_s"] = (per_call("dataio.generate_synthetic", 1e9), "s")
        m["dataio.load_segment_pairs_s"] = (per_call("dataio.load_segment_pairs", 1e9), "s")
        for module in MODULES:
            if module == "dataio":          # runs only during set-up
                continue
            m[f"{module}.self_ms"] = (self_ns[module] / 1e6 / n_ops, "ms")
        return m

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "phase"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
