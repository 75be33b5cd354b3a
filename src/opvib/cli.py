"""Command-line front-end.

Subcommands cover the full workflow: synthetic dataset generation,
detector pre-training, cascaded transformer training, sound-to-vibration
synthesis, Table-style evaluation, and the inference latency benchmark.

Every command accepts ``--seed``.  An argument ``@FILE`` is replaced by
the arguments in FILE, one per line (such as ``--batch-size=4``; blank and
``#`` lines are skipped), so each is parsed and checked by its flag, and a
later argument overrides an earlier one.  Any argument that starts with
``@`` is read as a file name.  The fully resolved configuration is echoed
before the command runs.  Exit codes: 0 success, 1 runtime failure, 2
invalid flags or argument files.

Every command holds numpy's BLAS at one thread while it runs, through the
BLAS's own thread setter (``opvib.parallel.one_blas_thread``), and
restores the caller's count after.  The echo ends ``pinned=True`` when the
pin took, and ``pinned=False`` when no setter was found or it did not take.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dataio import DataError, SyntheticSpec, generate_synthetic, load_recording, load_segment_pairs, write_wav
from .evaluation import benchmark_inference, compute_metrics, real_time_factor
from .models import (
    FaultClassifier,
    OpUNet,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .parallel import WorkerError, one_blas_thread
from .signal import Signal
from .training import (
    TRAIN_SECONDS,
    VAL_SECONDS,
    TrainConfig,
    classify_pairs,
    split_dataset,
    train_fault_detector,
    train_transformer,
)

_TRAIN = TrainConfig()
_SPEC = SyntheticSpec()


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line):
        """One argument per line of an @FILE; blank and ``#`` lines are skipped."""
        line = arg_line.strip()
        return [line] if line and not line.startswith("#") else []


def _build_parser():
    parser = _Parser(
        prog="opvib",
        fromfile_prefix_chars="@",
        description="Sound-to-vibration transformation and bearing fault detection "
                    "with 1D operational networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_TRAIN.seed, help="run seed (default: %(default)s)")

    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--manifest", help="dataset manifest (required)")
    split.add_argument("--held-out-speed", type=float,
                       help="speed spared for testing (default: highest speed present)")
    split.add_argument("--train-seconds", type=float, default=TRAIN_SECONDS,
                       help="seconds of data for training (default: %(default)s)")
    split.add_argument("--val-seconds", type=float, default=VAL_SECONDS,
                       help="seconds of data for validation (default: %(default)s)")

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--batch-size", type=int, default=_TRAIN.batch_size,
                     help="mini-batch size (default: %(default)s)")
    fit.add_argument("--lr", type=float, default=_TRAIN.learning_rate,
                     help="learning rate (default: %(default)s)")

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=[common, *parents],
                              epilog="@FILE reads arguments from FILE, one per line (such as "
                                     "--seed=7); a later argument overrides an earlier one")

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

    p = command("train-transformer", "train the cascaded sound-to-vibration transformer", split, fit)
    p.add_argument("--detector", help="pre-trained detector checkpoint (required)")
    p.add_argument("--out", help="checkpoint output path (required)")
    p.add_argument("--iters", type=int, default=_TRAIN.max_iterations,
                   help="mini-batch updates (default: %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=_TRAIN.lam,
                   help="weight on time+spectral terms (default: %(default)s)")
    p.add_argument("--val-interval", type=int, default=_TRAIN.val_interval,
                   help="iterations between validation passes (default: %(default)s)")

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


def _echo(opts, pinned):
    keys = sorted(opts)
    rendered = " ".join(f"{k}={opts[k]}" for k in keys)
    print(f"config: {rendered} pinned={pinned}")


def _load_pairs(opts):
    """The manifest's segment pairs, and the held-out speed: the option's, else the highest."""
    pairs = load_segment_pairs(opts["manifest"])
    if not pairs:
        raise DataError(f"{opts['manifest']}: the manifest gave no 1-second segment pairs")
    held_out = opts["held_out_speed"]
    return pairs, max(p.speed for p in pairs) if held_out is None else float(held_out)


def _load_kind(path, klass):
    model, meta = load_checkpoint(path)
    if not isinstance(model, klass):
        raise DataError(f"{path}: checkpoint holds a {model.KIND}, expected a {klass.KIND}")
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
    pairs, held_out = _load_pairs(opts)
    split = split_dataset(pairs, held_out, opts["train_seconds"], opts["val_seconds"])
    cfg = TrainConfig(batch_size=opts["batch_size"], classifier_epochs=opts["epochs"],
                      learning_rate=opts["lr"], seed=opts["seed"])
    model, history = train_fault_detector(split.train, split.val, cfg, log=print)
    best = min(history, key=lambda h: h["val_mse"])
    save_checkpoint(model, opts["out"], meta={
        "seed": opts["seed"], "epoch": best["epoch"], "val_mse": best["val_mse"],
        "held_out_speed": held_out, "l_seg": model.l_seg,
        "sample_rate_hz": pairs[0].sample_rate_hz,
    })
    print(f"best epoch {best['epoch']}: val_mse={best['val_mse']:.6f} "
          f"val_acc={best['val_accuracy']:.2f}%")
    print(f"checkpoint: {opts['out']}")


def _cmd_train_transformer(opts):
    detector, det_meta = _load_kind(opts["detector"], FaultClassifier)
    pairs, held_out = _load_pairs(opts)
    split = split_dataset(pairs, held_out, opts["train_seconds"], opts["val_seconds"])
    cfg = TrainConfig(batch_size=opts["batch_size"], max_iterations=opts["iters"],
                      learning_rate=opts["lr"], lam=opts["lam"], seed=opts["seed"],
                      val_interval=opts["val_interval"])
    model, history = train_transformer(split.train, split.val, cfg, detector, log=print)
    print(model.describe())
    best = min(history, key=lambda h: h["val_total"])
    save_checkpoint(model, opts["out"], meta={
        "seed": opts["seed"], "iteration": best["iter"], "val_loss": best["val_total"],
        "held_out_speed": held_out, "l_seg": model.l_seg,
        "sample_rate_hz": pairs[0].sample_rate_hz,
        "detector_sha256": hashlib.sha256(Path(opts["detector"]).read_bytes()).hexdigest(),
    })
    print(f"best iteration {best['iter']}: val_total={best['val_total']:.6f}")
    print(f"checkpoint: {opts['out']}")


def _cmd_synthesize(opts):
    from .signal import _normalize_with_flag
    from .tensor import Tensor, no_grad

    model, meta = _load_kind(opts["model"], OpUNet)
    sound = load_recording(opts["sound"])
    l_seg = model.l_seg
    expected_rate = meta.get("sample_rate_hz", l_seg)
    if isinstance(expected_rate, bool) or not isinstance(expected_rate, (int, float)) \
            or not 0 < expected_rate < math.inf:
        raise DataError(f"{opts['model']}: checkpoint meta sample_rate_hz={expected_rate!r} "
                        f"is not a finite, positive number")
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
    detector, _ = _load_kind(opts["detector"], FaultClassifier)
    transformer = None
    if opts["transformer"]:
        transformer, _ = _load_kind(opts["transformer"], OpUNet)
    pairs, held_out = _load_pairs(opts)
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
    model, _ = _load_kind(opts["model"], OpUNet)
    rng = np.random.default_rng(opts["seed"])
    segment = rng.uniform(-1.0, 1.0, model.l_seg).astype(np.float32)
    median_ms = benchmark_inference(model, segment, opts["reps"])
    rtf = real_time_factor(median_ms)
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


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:  # argparse turns only an OSError into a usage error
        parser.error(f"cannot decode an @FILE: {exc}")
    except RecursionError:
        parser.error("an @FILE includes itself, directly or through another @FILE")
    opts = {k: v for k, v in vars(args).items() if k != "command"}
    handler, required = _COMMANDS[args.command]
    if args.command == "gen-synthetic" and (min(opts["healthy"], opts["faulty"]) < 0
                                            or opts["healthy"] + opts["faulty"] < 1):
        parser.error("--healthy and --faulty cannot be negative or both zero")
    for name in required:
        if opts[name] is None:
            parser.error(f"--{name.replace('_', '-')} is required")

    with one_blas_thread() as pinned:
        _echo(opts, pinned)
        try:
            handler(opts)
        except argparse.ArgumentError as exc:
            parser.error(str(exc))
        except (ValueError, OSError, WorkerError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def entry():
    """Console entry point."""
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
