"""Command-line front-end.

Subcommands cover the full workflow: synthetic dataset generation,
detector pre-training, cascaded transformer training, sound-to-vibration
synthesis, Table-style evaluation, and the inference latency benchmark.

Every command accepts ``--seed``, ``--reproducible`` and ``--config FILE``
(plain ``key=value`` lines).  Explicit flags override the config file,
which overrides built-in defaults; the fully resolved configuration is
echoed before the command runs.  Exit codes: 0 success, 1 runtime failure,
2 invalid flags.

``--reproducible`` pins the BLAS to one thread, through threadpoolctl when
it is installed and otherwise through the thread-count environment
variables, which count only when they read 1 before numpy loaded; the
echoed configuration names the method (``pinning=``).  When neither can
take effect the command exits 2 rather than run unpinned.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import _PIN_VARS
from .dataio import DataError, SyntheticSpec, generate_synthetic, load_recording, load_segment_pairs, write_wav
from .evaluation import benchmark_inference, compute_metrics, real_time_factor
from .models import (
    CheckpointError,
    ConfigError,
    FaultClassifier,
    OpUNet,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .signal import Signal
from .training import (
    TrainConfig,
    blas_single_threaded,
    classify_pairs,
    split_dataset,
    train_fault_detector,
    train_transformer,
)

_COMMON_DEFAULTS = {"seed": 0}

_TRAIN = TrainConfig()
_SPEC = SyntheticSpec()

# the CLI writes 60 + 60 segments by default, more than SyntheticSpec's 16 + 16
_DEFAULTS = {
    "gen-synthetic": {
        "healthy": 60, "faulty": 60, "out": None, "sample_rate": _SPEC.sample_rate,
        "noise_level": _SPEC.noise_level, "fault_freq": _SPEC.fault_freq,
        "fault_amp": _SPEC.fault_amp,
    },
    "train-detector": {
        "manifest": None, "out": None, "held_out_speed": None,
        "epochs": _TRAIN.classifier_epochs, "batch_size": _TRAIN.batch_size,
        "lr": _TRAIN.learning_rate, "train_seconds": _TRAIN.train_seconds,
        "val_seconds": _TRAIN.val_seconds, "l_seg": None,
    },
    "train-transformer": {
        "manifest": None, "detector": None, "out": None, "held_out_speed": None,
        "iters": _TRAIN.max_iterations, "batch_size": _TRAIN.batch_size,
        "lr": _TRAIN.learning_rate, "lam": _TRAIN.lam,
        "train_seconds": _TRAIN.train_seconds, "val_seconds": _TRAIN.val_seconds,
        "val_interval": _TRAIN.val_interval, "class_loss": _TRAIN.class_loss_mode,
        "joint": not _TRAIN.freeze_detector,
    },
    "synthesize": {"model": None, "sound": None, "out": None},
    "evaluate": {
        "detector": None, "manifest": None, "transformer": None, "split": "test",
        "held_out_speed": None, "train_seconds": _TRAIN.train_seconds,
        "val_seconds": _TRAIN.val_seconds, "out_dir": None,
    },
    "benchmark": {"model": None, "reps": 50, "json": False},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opvib",
        description="Sound-to-vibration transformation and bearing fault detection "
                    "with 1D operational networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # config-file values are parsed by the subcommand's own flag types
        p.set_defaults(subparser=p)
        p.add_argument("--seed", type=int, default=None, help="run seed (default: 0)")
        p.add_argument("--reproducible", action="store_true",
                       help="single-threaded, byte-deterministic mode")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file overriding built-in defaults")

    d = _DEFAULTS["gen-synthetic"]
    p = sub.add_parser("gen-synthetic", help="write a deterministic synthetic paired dataset")
    common(p)
    p.add_argument("--healthy", type=int, default=None, help=f"healthy segment count (default: {d['healthy']})")
    p.add_argument("--faulty", type=int, default=None, help=f"faulty segment count (default: {d['faulty']})")
    p.add_argument("--out", type=str, default=None, help="output directory (required)")
    p.add_argument("--sample-rate", dest="sample_rate", type=float, default=None,
                   help=f"sample rate in Hz (default: {d['sample_rate']})")
    p.add_argument("--noise-level", dest="noise_level", type=float, default=None,
                   help=f"Gaussian noise sigma (default: {d['noise_level']})")
    p.add_argument("--fault-freq", dest="fault_freq", type=float, default=None,
                   help=f"fault harmonic frequency in Hz (default: {d['fault_freq']})")
    p.add_argument("--fault-amp", dest="fault_amp", type=float, default=None,
                   help=f"fault harmonic amplitude (default: {d['fault_amp']})")

    d = _DEFAULTS["train-detector"]
    p = sub.add_parser("train-detector", help="pre-train the fault classifier on real vibration")
    common(p)
    p.add_argument("--manifest", type=str, default=None, help="dataset manifest (required)")
    p.add_argument("--out", type=str, default=None, help="checkpoint output path (required)")
    p.add_argument("--held-out-speed", dest="held_out_speed", type=float, default=None,
                   help="speed spared for testing (default: highest speed present)")
    p.add_argument("--epochs", type=int, default=None, help=f"training epochs (default: {d['epochs']})")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help=f"mini-batch size (default: {d['batch_size']})")
    p.add_argument("--lr", type=float, default=None, help=f"learning rate (default: {d['lr']})")
    p.add_argument("--train-seconds", dest="train_seconds", type=float, default=None,
                   help=f"seconds of data for training (default: {d['train_seconds']})")
    p.add_argument("--val-seconds", dest="val_seconds", type=float, default=None,
                   help=f"seconds of data for validation (default: {d['val_seconds']})")
    p.add_argument("--l-seg", dest="l_seg", type=int, default=None,
                   help="segment length in samples (default: inferred from data)")

    d = _DEFAULTS["train-transformer"]
    p = sub.add_parser("train-transformer", help="train the cascaded sound-to-vibration transformer")
    common(p)
    p.add_argument("--manifest", type=str, default=None, help="dataset manifest (required)")
    p.add_argument("--detector", type=str, default=None,
                   help="pre-trained detector checkpoint (required)")
    p.add_argument("--out", type=str, default=None, help="checkpoint output path (required)")
    p.add_argument("--held-out-speed", dest="held_out_speed", type=float, default=None,
                   help="speed spared for testing (default: highest speed present)")
    p.add_argument("--iters", type=int, default=None,
                   help=f"mini-batch updates (default: {d['iters']})")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                   help=f"mini-batch size (default: {d['batch_size']})")
    p.add_argument("--lr", type=float, default=None, help=f"learning rate (default: {d['lr']})")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help=f"weight on time+spectral terms (default: {d['lam']})")
    p.add_argument("--train-seconds", dest="train_seconds", type=float, default=None,
                   help=f"seconds of data for training (default: {d['train_seconds']})")
    p.add_argument("--val-seconds", dest="val_seconds", type=float, default=None,
                   help=f"seconds of data for validation (default: {d['val_seconds']})")
    p.add_argument("--val-interval", dest="val_interval", type=int, default=None,
                   help=f"iterations between validation passes (default: {d['val_interval']})")
    p.add_argument("--class-loss", dest="class_loss", choices=("paired", "target"), default=None,
                   help=f"class term compares detector scores on real vs synthesized "
                        f"('paired') or synthesized vs label target ('target') "
                        f"(default: {d['class_loss']})")
    p.add_argument("--joint", action="store_true", default=None,
                   help="also update the detector (ablation; default: frozen)")

    p = sub.add_parser("synthesize", help="transform a sound recording into a vibration recording")
    common(p)
    p.add_argument("--model", type=str, default=None, help="transformer checkpoint (required)")
    p.add_argument("--sound", type=str, default=None, help="input sound WAV/CSV (required)")
    p.add_argument("--out", type=str, default=None, help="output vibration WAV (required)")

    d = _DEFAULTS["evaluate"]
    p = sub.add_parser("evaluate", help="score the detector on real or synthesized vibration")
    common(p)
    p.add_argument("--detector", type=str, default=None, help="detector checkpoint (required)")
    p.add_argument("--manifest", type=str, default=None, help="dataset manifest (required)")
    p.add_argument("--transformer", type=str, default=None,
                   help="transformer checkpoint; when given, evaluation runs on "
                        "synthesized vibration (default: real vibration)")
    p.add_argument("--split", choices=("test", "val", "train", "all"), default=None,
                   help=f"which split to score (default: {d['split']})")
    p.add_argument("--held-out-speed", dest="held_out_speed", type=float, default=None,
                   help="speed spared for testing (default: highest speed present)")
    p.add_argument("--train-seconds", dest="train_seconds", type=float, default=None,
                   help=f"split boundary (default: {d['train_seconds']})")
    p.add_argument("--val-seconds", dest="val_seconds", type=float, default=None,
                   help=f"split boundary (default: {d['val_seconds']})")
    p.add_argument("--out-dir", dest="out_dir", type=str, default=None,
                   help="directory for metrics JSON + table files (default: print only)")

    d = _DEFAULTS["benchmark"]
    p = sub.add_parser("benchmark", help="median single-segment inference latency")
    common(p)
    p.add_argument("--model", type=str, default=None, help="transformer checkpoint (required)")
    p.add_argument("--reps", type=int, default=None,
                   help=f"timed repetitions, at least 10 (default: {d['reps']})")
    p.add_argument("--json", action="store_true", default=None,
                   help="emit the report as JSON")

    return parser


def _read_config_file(path):
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(parser, action, raw):
    """A config-file string parsed as the flag ``action`` parses its argument."""
    if action.nargs == 0:                      # a store_true switch
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:
        parser.error(f"config value {action.dest}={raw!r}: invalid {action.type.__name__} value")
    if action.choices is not None and value not in action.choices:
        parser.error(f"config value {action.dest}={raw!r}: choose from "
                     f"{', '.join(map(repr, action.choices))}")
    return value


def _resolve(args, command):
    """flags > config file > defaults; returns the effective option dict."""
    defaults = dict(_DEFAULTS[command], **_COMMON_DEFAULTS)
    config = _read_config_file(args.config) if args.config else {}
    actions = {a.dest: a for a in args.subparser._actions}
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = _coerce(args.subparser, actions[key], config[key])
        else:
            resolved[key] = default
    return resolved


def _echo(opts, reproducible, pinning):
    keys = sorted(opts)
    rendered = " ".join(f"{k}={opts[k]}" for k in keys)
    suffix = f" pinning={pinning}" if pinning else ""
    print(f"config: {rendered} reproducible={reproducible}{suffix}")


def _require(parser, opts, *names):
    for name in names:
        if opts.get(name) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _default_held_out(pairs, value):
    if value is not None:
        return float(value)
    return max(p.speed for p in pairs)


def _load_kind(path, kind, klass):
    model, meta = load_checkpoint(path)
    if not isinstance(model, klass):
        raise DataError(f"{path}: checkpoint holds a {model.KIND}, expected a {kind}")
    return model, meta


# -- commands -------------------------------------------------------------------


def _cmd_gen_synthetic(opts):
    spec = SyntheticSpec(
        seed=opts["seed"], num_healthy=opts["healthy"], num_faulty=opts["faulty"],
        sample_rate=opts["sample_rate"], noise_level=opts["noise_level"],
        fault_freq=opts["fault_freq"], fault_amp=opts["fault_amp"],
    )
    manifest = generate_synthetic(spec, opts["out"])
    healthy = sum(1 for e in manifest.entries if e.label == "healthy")
    faulty = len(manifest.entries) - healthy
    print(f"wrote {len(manifest.entries)} segment pairs ({healthy} healthy, {faulty} faulty)")
    print(f"manifest: {manifest.path}")
    return 0


def _cmd_train_detector(opts):
    pairs = load_segment_pairs(opts["manifest"])
    held_out = _default_held_out(pairs, opts["held_out_speed"])
    l_seg = opts["l_seg"] or pairs[0].sound.size
    if l_seg != pairs[0].sound.size:
        raise DataError(f"--l-seg {l_seg} does not match the data's {pairs[0].sound.size}")
    split = split_dataset(pairs, held_out, opts["train_seconds"], opts["val_seconds"])
    cfg = TrainConfig(batch_size=opts["batch_size"], classifier_epochs=opts["epochs"],
                      learning_rate=opts["lr"], seed=opts["seed"], l_seg=l_seg,
                      train_seconds=opts["train_seconds"], val_seconds=opts["val_seconds"])
    model, history = train_fault_detector(split.train, split.val, cfg, log=print)
    best = min(history, key=lambda h: h["val_mse"])
    save_checkpoint(model, opts["out"], meta={
        "seed": opts["seed"], "epoch": best["epoch"], "val_mse": best["val_mse"],
        "held_out_speed": held_out, "l_seg": l_seg,
        "sample_rate_hz": pairs[0].sample_rate_hz,
    })
    print(f"best epoch {best['epoch']}: val_mse={best['val_mse']:.6f} "
          f"val_acc={best['val_accuracy']:.2f}%")
    print(f"checkpoint: {opts['out']}")
    return 0


def _cmd_train_transformer(opts):
    detector, det_meta = _load_kind(opts["detector"], "fault_classifier", FaultClassifier)
    pairs = load_segment_pairs(opts["manifest"])
    held_out = _default_held_out(pairs, opts["held_out_speed"])
    if detector.l_seg != pairs[0].sound.size:
        raise DataError(
            f"detector expects {detector.l_seg}-sample segments but the dataset "
            f"provides {pairs[0].sound.size}-sample segments"
        )
    split = split_dataset(pairs, held_out, opts["train_seconds"], opts["val_seconds"])
    cfg = TrainConfig(batch_size=opts["batch_size"], max_iterations=opts["iters"],
                      learning_rate=opts["lr"], lam=opts["lam"], seed=opts["seed"],
                      l_seg=detector.l_seg, val_interval=opts["val_interval"],
                      train_seconds=opts["train_seconds"], val_seconds=opts["val_seconds"],
                      freeze_detector=not opts["joint"], class_loss_mode=opts["class_loss"])
    model, history = train_transformer(split.train, split.val, cfg, detector, log=print)
    print(model.describe())
    best = min(history, key=lambda h: h["val_total"])
    save_checkpoint(model, opts["out"], meta={
        "seed": opts["seed"], "iteration": best["iter"], "val_loss": best["val_total"],
        "held_out_speed": held_out, "l_seg": model.l_seg,
        "sample_rate_hz": pairs[0].sample_rate_hz,
        "detector": str(opts["detector"]),
    })
    print(f"best iteration {best['iter']}: val_total={best['val_total']:.6f}")
    print(f"checkpoint: {opts['out']}")
    return 0


def _cmd_synthesize(opts):
    from .dataio import _normalize_with_flag
    from .tensor import Tensor, no_grad

    model, meta = _load_kind(opts["model"], "opunet", OpUNet)
    sound = load_recording(opts["sound"])
    l_seg = model.l_seg
    expected_rate = float(meta.get("sample_rate_hz", l_seg))
    if int(round(sound.sample_rate_hz)) != int(round(expected_rate)):
        raise DataError(
            f"{opts['sound']}: sample rate {sound.sample_rate_hz:g} Hz does not match the "
            f"model's {expected_rate:g} Hz (segment length {l_seg}); resample first"
        )
    samples = sound.samples.astype(np.float32)
    n = samples.size
    padded = samples
    if n % l_seg:
        padded = np.concatenate([samples, np.zeros(l_seg - n % l_seg, dtype=np.float32)])
    out = np.empty_like(padded)
    degenerate = 0
    with no_grad():
        for start in range(0, padded.size, l_seg):
            seg = padded[start:start + l_seg]
            norm, flag = _normalize_with_flag(seg)
            degenerate += flag
            out[start:start + l_seg] = model(Tensor(norm.reshape(1, -1))).data[0]
    write_wav(opts["out"], Signal(out[:n], sound.sample_rate_hz))
    print(f"synthesized {padded.size // l_seg} segments "
          f"({degenerate} degenerate) -> {opts['out']}")
    return 0


def _cmd_evaluate(opts):
    detector, _ = _load_kind(opts["detector"], "fault_classifier", FaultClassifier)
    transformer = None
    if opts["transformer"]:
        transformer, _ = _load_kind(opts["transformer"], "opunet", OpUNet)
    pairs = load_segment_pairs(opts["manifest"])
    held_out = _default_held_out(pairs, opts["held_out_speed"])
    if opts["split"] == "all":
        subset = pairs
    else:
        split = split_dataset(pairs, held_out, opts["train_seconds"], opts["val_seconds"])
        subset = getattr(split, opts["split"])
    if not subset:
        raise DataError(f"split {opts['split']!r} is empty")
    report = compute_metrics(*classify_pairs(detector, subset, transformer))
    source = "synthesized" if transformer else "real"
    title = f"{source} vibration, split={opts['split']}, n={report.total}"
    print(report.to_table(title))
    if opts["out_dir"]:
        out_dir = Path(opts["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"metrics_{source}.json").write_text(report.to_json() + "\n", encoding="utf-8")
        (out_dir / f"metrics_{source}.txt").write_text(report.to_table(title) + "\n", encoding="utf-8")
        print(f"reports written to {out_dir}")
    return 0


def _cmd_benchmark(opts, parser):
    if opts["reps"] < 10:
        parser.error("--reps must be at least 10")
    model, _ = _load_kind(opts["model"], "opunet", OpUNet)
    rng = np.random.default_rng(opts["seed"])
    segment = rng.uniform(-1.0, 1.0, model.l_seg).astype(np.float32)
    median_ms = benchmark_inference(model, segment, opts["reps"])
    rtf = real_time_factor(median_ms, seg_seconds=1.0)
    if opts["json"]:
        print(json.dumps({"median_ms": median_ms, "real_time_factor": rtf,
                          "repetitions": opts["reps"],
                          "parameters": parameter_count(model)}, sort_keys=True))
    else:
        print(f"median inference: {median_ms:.2f} ms per 1-second segment "
              f"({opts['reps']} reps)")
        print(f"real-time factor: {rtf:.1f}x")
    return 0


# Set on the re-executed process so that entry() re-executes at most once.
_REEXEC_GUARD = "OPVIB_PIN_REEXEC"


def _pinning_method():
    """How BLAS can be held to one thread in this process, or None."""
    if importlib.util.find_spec("threadpoolctl") is not None:
        return "threadpoolctl"
    if blas_single_threaded():
        return "env"
    return None


@contextlib.contextmanager
def _thread_limits(pinning):
    if pinning != "threadpoolctl":
        yield
        return
    from threadpoolctl import threadpool_limits

    with threadpool_limits(limits=1):
        yield


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    opts = _resolve(args, command)

    if command == "gen-synthetic":
        if (opts["healthy"] or 0) + (opts["faulty"] or 0) < 1:
            parser.error("--healthy and --faulty cannot both be zero")
        _require(parser, opts, "out")
    elif command == "train-detector":
        _require(parser, opts, "manifest", "out")
    elif command == "train-transformer":
        _require(parser, opts, "manifest", "detector", "out")
    elif command == "synthesize":
        _require(parser, opts, "model", "sound", "out")
    elif command == "evaluate":
        _require(parser, opts, "detector", "manifest")
    elif command == "benchmark":
        _require(parser, opts, "model")

    pinning = _pinning_method() if args.reproducible else None
    if args.reproducible and pinning is None:
        parser.error("--reproducible cannot pin BLAS to one thread: threadpoolctl is not "
                     f"installed and {', '.join(_PIN_VARS)} did not all read 1 when numpy "
                     "loaded; run through the opvib command or `python -m opvib`, or set "
                     "them before starting")
    _echo(opts, args.reproducible, pinning)
    try:
        with _thread_limits(pinning):
            if command == "gen-synthetic":
                return _cmd_gen_synthetic(opts)
            if command == "train-detector":
                return _cmd_train_detector(opts)
            if command == "train-transformer":
                return _cmd_train_transformer(opts)
            if command == "synthesize":
                return _cmd_synthesize(opts)
            if command == "evaluate":
                return _cmd_evaluate(opts)
            if command == "benchmark":
                return _cmd_benchmark(opts, parser)
            parser.error(f"unknown command {command!r}")
    except (DataError, CheckpointError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    """Console entry point.

    Without threadpoolctl, ``--reproducible`` pins BLAS through ``_PIN_VARS``.
    numpy has already loaded its BLAS by now, so the process re-executes
    itself once with them set.
    """
    argv = sys.argv[1:]
    if (_build_parser().parse_args(argv).reproducible and _pinning_method() is None
            and _REEXEC_GUARD not in os.environ):
        env = dict(os.environ, **dict.fromkeys(_PIN_VARS, "1"), **{_REEXEC_GUARD: "1"})
        try:
            os.execve(sys.executable, [sys.executable, "-m", "opvib", *argv], env)
        except OSError as exc:
            print(f"error: cannot re-execute with BLAS pinned: {exc}", file=sys.stderr)
    sys.exit(main(argv))


if __name__ == "__main__":
    entry()
