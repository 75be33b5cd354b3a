"""Command-line front-end.

Subcommands cover the full workflow: synthetic dataset generation,
detector pre-training, cascaded transformer training, sound-to-vibration
synthesis, Table-style evaluation, and the inference latency benchmark.

Every command accepts ``--seed``, ``--reproducible`` and ``--config FILE``
(plain ``key=value`` lines, one key per option of the command).  Explicit
flags override the config file, which overrides built-in defaults; the
fully resolved configuration is echoed before the command runs.  Exit
codes: 0 success, 1 runtime failure, 2 invalid flags or config keys.

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

_TRAIN = TrainConfig()
_SPEC = SyntheticSpec()

# flags that steer the run rather than the command: neither echoed nor config keys
_RUN_FLAGS = ("help", "config", "reproducible")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opvib",
        description="Sound-to-vibration transformation and bearing fault detection "
                    "with 1D operational networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_TRAIN.seed, help="run seed (default: %(default)s)")
    common.add_argument("--reproducible", action="store_true",
                        help="single-threaded, byte-deterministic mode")
    common.add_argument("--config", help="key=value file overriding built-in defaults")

    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--manifest", help="dataset manifest (required)")
    split.add_argument("--held-out-speed", type=float,
                       help="speed spared for testing (default: highest speed present)")
    split.add_argument("--train-seconds", type=float, default=_TRAIN.train_seconds,
                       help="seconds of data for training (default: %(default)s)")
    split.add_argument("--val-seconds", type=float, default=_TRAIN.val_seconds,
                       help="seconds of data for validation (default: %(default)s)")

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--batch-size", type=int, default=_TRAIN.batch_size,
                     help="mini-batch size (default: %(default)s)")
    fit.add_argument("--lr", type=float, default=_TRAIN.learning_rate,
                     help="learning rate (default: %(default)s)")

    def command(name, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[common, *parents])
        # _parse types and applies a config file through the subcommand's own flags
        p.set_defaults(subparser=p)
        return p

    p = command("gen-synthetic", "write a deterministic synthetic paired dataset")
    # the CLI writes 60 + 60 segments by default, more than SyntheticSpec's 16 + 16
    p.add_argument("--healthy", type=int, default=60, help="healthy segment count (default: %(default)s)")
    p.add_argument("--faulty", type=int, default=60, help="faulty segment count (default: %(default)s)")
    p.add_argument("--out", help="output directory (required)")
    p.add_argument("--sample-rate", type=float, default=_SPEC.sample_rate,
                   help="sample rate in Hz (default: %(default)s)")
    p.add_argument("--noise-level", type=float, default=_SPEC.noise_level,
                   help="Gaussian noise sigma (default: %(default)s)")
    p.add_argument("--fault-freq", type=float, default=_SPEC.fault_freq,
                   help="fault harmonic frequency in Hz (default: %(default)s)")
    p.add_argument("--fault-amp", type=float, default=_SPEC.fault_amp,
                   help="fault harmonic amplitude (default: %(default)s)")

    p = command("train-detector", "pre-train the fault classifier on real vibration", split, fit)
    p.add_argument("--out", help="checkpoint output path (required)")
    p.add_argument("--epochs", type=int, default=_TRAIN.classifier_epochs,
                   help="training epochs (default: %(default)s)")
    p.add_argument("--l-seg", type=int, help="segment length in samples (default: inferred from data)")

    p = command("train-transformer", "train the cascaded sound-to-vibration transformer", split, fit)
    p.add_argument("--detector", help="pre-trained detector checkpoint (required)")
    p.add_argument("--out", help="checkpoint output path (required)")
    p.add_argument("--iters", type=int, default=_TRAIN.max_iterations,
                   help="mini-batch updates (default: %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=_TRAIN.lam,
                   help="weight on time+spectral terms (default: %(default)s)")
    p.add_argument("--val-interval", type=int, default=_TRAIN.val_interval,
                   help="iterations between validation passes (default: %(default)s)")
    p.add_argument("--class-loss", choices=("paired", "target"), default=_TRAIN.class_loss_mode,
                   help="class term compares detector scores on real vs synthesized "
                        "('paired') or synthesized vs label target ('target') "
                        "(default: %(default)s)")
    p.add_argument("--joint", action="store_true", default=not _TRAIN.freeze_detector,
                   help="also update the detector (ablation; default: frozen)")

    p = command("synthesize", "transform a sound recording into a vibration recording")
    p.add_argument("--model", help="transformer checkpoint (required)")
    p.add_argument("--sound", help="input sound WAV/CSV (required)")
    p.add_argument("--out", help="output vibration WAV (required)")

    p = command("evaluate", "score the detector on real or synthesized vibration", split)
    p.add_argument("--detector", help="detector checkpoint (required)")
    p.add_argument("--transformer",
                   help="transformer checkpoint; when given, evaluation runs on "
                        "synthesized vibration (default: real vibration)")
    p.add_argument("--split", choices=("test", "val", "train", "all"), default="test",
                   help="which split to score (default: %(default)s)")
    p.add_argument("--out-dir", help="directory for metrics JSON + table files (default: print only)")

    p = command("benchmark", "median single-segment inference latency")
    p.add_argument("--model", help="transformer checkpoint (required)")
    p.add_argument("--reps", type=int, default=50,
                   help="timed repetitions, at least 10 (default: %(default)s)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

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
        if raw.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            parser.error(f"config value {action.dest}={raw!r}: expected true or false")
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:
        parser.error(f"config value {action.dest}={raw!r}: invalid {action.type.__name__} value")
    if action.choices is not None and value not in action.choices:
        parser.error(f"config value {action.dest}={raw!r}: choose from "
                     f"{', '.join(map(repr, action.choices))}")
    return value


def _parse(parser, argv):
    """flags > config file > defaults; returns the namespace and the command's options."""
    args = parser.parse_args(argv)
    sub = args.subparser
    actions = {a.dest: a for a in sub._actions if a.dest not in _RUN_FLAGS}
    if args.config:
        config = _read_config_file(args.config)
        unknown = [key for key in config if key not in actions]
        if unknown:
            sub.error(f"config keys that are not options of {args.command}: {', '.join(unknown)} "
                      f"(options: {', '.join(sorted(actions))})")
        sub.set_defaults(**{key: _coerce(sub, actions[key], raw) for key, raw in config.items()})
        args = parser.parse_args(argv)
    return args, {dest: getattr(args, dest) for dest in actions}


def _echo(opts, reproducible, pinning):
    keys = sorted(opts)
    rendered = " ".join(f"{k}={opts[k]}" for k in keys)
    suffix = f" pinning={pinning}" if pinning else ""
    print(f"config: {rendered} reproducible={reproducible}{suffix}")


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


def _cmd_train_detector(opts):
    pairs = load_segment_pairs(opts["manifest"])
    held_out = _default_held_out(pairs, opts["held_out_speed"])
    l_seg = pairs[0].sound.size if opts["l_seg"] is None else opts["l_seg"]
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


def _cmd_benchmark(opts):
    if opts["reps"] < 10:
        raise argparse.ArgumentError(None, "--reps must be at least 10")
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


# command: (handler, options it cannot run without)
_COMMANDS = {
    "gen-synthetic": (_cmd_gen_synthetic, ("out",)),
    "train-detector": (_cmd_train_detector, ("manifest", "out")),
    "train-transformer": (_cmd_train_transformer, ("manifest", "detector", "out")),
    "synthesize": (_cmd_synthesize, ("model", "sound", "out")),
    "evaluate": (_cmd_evaluate, ("detector", "manifest")),
    "benchmark": (_cmd_benchmark, ("model",)),
}


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
    args, opts = _parse(parser, argv)
    handler, required = _COMMANDS[args.command]
    if args.command == "gen-synthetic" and (min(opts["healthy"], opts["faulty"]) < 0
                                            or opts["healthy"] + opts["faulty"] < 1):
        parser.error("--healthy and --faulty cannot be negative or both zero")
    for name in required:
        if opts[name] is None:
            parser.error(f"--{name.replace('_', '-')} is required")

    pinning = _pinning_method() if args.reproducible else None
    if args.reproducible and pinning is None:
        parser.error("--reproducible cannot pin BLAS to one thread: threadpoolctl is not "
                     f"installed and {', '.join(_PIN_VARS)} did not all read 1 when numpy "
                     "loaded; run through the opvib command or `python -m opvib`, or set "
                     "them before starting")
    _echo(opts, args.reproducible, pinning)
    try:
        with _thread_limits(pinning):
            handler(opts)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
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
