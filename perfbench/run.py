"""Benchmark of opvib's three hot paths: monitoring, cascaded training, detector training.

Run from the repository root:

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 30 --trace 0

Workloads (one process, one closed-loop client, BLAS pinned to one thread):

* ``monitor``: one 1-s sound segment -> ``normalize_segment`` -> ``OpUNet``
  -> ``FaultClassifier`` -> ``predict_label`` under ``no_grad``.
* ``train``: one Adam update of ``train_transformer`` (stock ``TrainConfig``).
* ``detector_train``: one Adam update of ``train_fault_detector``.

``--trace 0`` measures the end-to-end metrics; their times are scaled to a
nominal machine speed by a fixed numpy kernel timed around every operation
(DESIGN.md, "Scaling to the nominal speed").  ``--trace 1`` runs an
untraced phase for the overhead base, then a fixed number of operations
with spans around the public entry points, and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  A full record (metrics, checks, fingerprint) is written under
``--out``.  See DESIGN.md for the rationale.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# The load is one client on one thread: pin every BLAS/OpenMP pool before
# numpy is imported (threadpoolctl is not available to do it later).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("monitor", "train", "detector_train")
SAMPLE_RATE = 4096.0
PAIRS_PER_CLASS = 36        # 72 one-second pairs, 24 per speed
HELD_OUT_SPEED = 1010.0
TRAIN_SECONDS = 32          # 4 full batches of 8 per epoch
VAL_SECONDS = 16
SETUP_SAMPLES = 7           # this process plus six set-up-only children
WARMUP_OPS = {"monitor": 30, "train": 3, "detector_train": 8}
WARMUP_S = 1.0              # and at least this long, so clocks and caches settle
TRACED_OPS = {"monitor": 400, "train": 50, "detector_train": 200}
TRACED_LIMIT_S = 60.0       # a traced phase stops here even if short of its ops
CHECK_EVERY = 200           # monitor ops kept for the float64 reference check
REF_TOL = {"opunet": 1e-5, "detector": 1e-5}

# Speed kernel (DESIGN.md, "Scaling to the nominal speed").  The shared host
# runs the same code up to 1.6x slower or faster from one second to the next,
# so each operation's wall time is scaled by the time a fixed numpy kernel
# takes around it.  Elementwise transcendentals over an L2-sized float32 array
# plus a small float32 matmul tracked the operations' slowdowns best.
# SPEED_NOMINAL_S is a constant near the kernel's median time on the
# development machine, so scaled times read close to wall times there.
SPEED_ELEMENTS = 20_000
SPEED_REPEAT = 6            # elementwise rounds per kernel run
SPEED_MATMULS = 2           # 256x256 @ 256x128 float32 products per kernel run
SPEED_NOMINAL_S = 0.6e-3
SPEED_WINDOW_S = 0.05       # an operation's scale: kernel runs within about this of it
SETUP_SPEED_RUNS = 10       # kernel runs before and again after a set-up


class Stop(Exception):
    """Raised at an operation boundary once the phase has run its course."""


class SpeedKernel:
    """A fixed numpy kernel that calls nothing in opvib; a call returns its wall time."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(-3.0, 3.0, SPEED_ELEMENTS, dtype=np.float32)
        self.a = np.empty_like(self.x)
        self.b = np.empty_like(self.x)
        grid = np.linspace(-1.0, 1.0, 256 * 256, dtype=np.float32).reshape(256, 256)
        self.m = grid
        self.n = np.ascontiguousarray(grid[:, :128])
        self.p = np.empty((256, 128), dtype=np.float32)

    def _elementwise(self):
        np, x, a, b = self.np, self.x, self.a, self.b
        np.tanh(x, out=a)
        np.sin(x, out=b)
        np.multiply(a, x, out=a)
        np.add(a, b, out=a)

    def __call__(self):
        # an untimed pass first, so the timed one finds the arrays in cache
        # whatever the operation before left there
        self._elementwise()
        self.np.matmul(self.m, self.n, out=self.p)
        t = time.perf_counter()
        for _ in range(SPEED_REPEAT):
            self._elementwise()
        for _ in range(SPEED_MATMULS):
            self.np.matmul(self.m, self.n, out=self.p)
        return time.perf_counter() - t


class OpClock:
    """Timestamps operation ends, discards warm-up, and says when a phase is done.

    Warm-up lasts at least ``warmup_ops`` operations and ``warmup_s``
    seconds after ``start()``.  The timed window opens when it ends and is
    done after ``seconds`` or ``max_ops`` timed operations, whichever
    comes first.  The speed kernel runs at ``start()`` and after every
    operation end, outside the operation's time.  ``stats`` scales each
    timed operation by the median kernel time around it: the runs on either
    side of it, and more on each side while they lie within
    ``SPEED_WINDOW_S``.
    """

    def __init__(self, kernel, warmup_ops=0, warmup_s=0.0, seconds=None, max_ops=None):
        self.kernel = kernel
        self.warmup_ops = warmup_ops
        self.warmup_s = warmup_s
        self.seconds = seconds
        self.max_ops = max_ops
        self.seen = 0               # operations finished, warm-up included
        self.completed = 0          # timed operations finished
        self.latencies = []         # wall seconds
        self.kernels = []           # kernel seconds; [i] and [i + 1] bracket op i
        self.start()

    def start(self):
        self.begun = time.perf_counter()
        self.warm = not (self.warmup_ops or self.warmup_s)
        self.calibrate()
        self._open_window(self.last)

    def calibrate(self):
        """Run the speed kernel; the next implicit start is after it."""
        self.kernel_s = self.kernel()
        self.last = time.perf_counter()

    def _open_window(self, now):
        self.kernels = [self.kernel_s]
        self.deadline = now + self.seconds if self.seconds and self.warm else None

    def end(self, started=None):
        """Mark an operation end; ``started`` defaults to the previous end."""
        now = time.perf_counter()
        lat = now - (self.last if started is None else started)
        self.seen += 1
        self.calibrate()
        if not self.warm:
            if self.seen >= self.warmup_ops and now - self.begun >= self.warmup_s:
                self.warm = True
                self._open_window(self.last)
            return
        self.latencies.append(lat)
        self.kernels.append(self.kernel_s)
        self.completed += 1

    @property
    def finished(self):
        return self.completed > 0 and (
            (self.deadline is not None and self.last >= self.deadline)
            or (self.max_ops is not None and self.completed >= self.max_ops))

    def stats(self, segs_per_op, scaled=True):
        """(p50 ms, p90 ms, segments per second of operation time)."""
        lats = self.latencies
        if scaled:
            h = int(SPEED_WINDOW_S / statistics.median(lats))
            lats = [lat * SPEED_NOMINAL_S / statistics.median(self.kernels[max(0, i - h):i + 2 + h])
                    for i, lat in enumerate(lats)]
        return (statistics.median(lats) * 1e3, _p90(lats) * 1e3,
                len(lats) * segs_per_op / sum(lats))


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# -- set-up ---------------------------------------------------------------------


def prepare(workload, seed, workdir):
    """Synthetic data, segment pairs and both models, built, saved and reloaded."""
    import numpy as np
    from opvib import dataio, models, signal, training

    manifest = dataio.generate_synthetic(
        dataio.SyntheticSpec(seed=seed, num_healthy=PAIRS_PER_CLASS, num_faulty=PAIRS_PER_CLASS,
                             sample_rate=SAMPLE_RATE),
        workdir / "data")
    pairs = dataio.load_segment_pairs(manifest)
    split = training.split_dataset(pairs, HELD_OUT_SPEED, TRAIN_SECONDS, VAL_SECONDS)
    paths = {"opunet": workdir / "opunet.opvb", "detector": workdir / "detector.opvb"}
    models.save_checkpoint(models.OpUNet(seed=seed), paths["opunet"], meta={"seed": seed})
    models.save_checkpoint(models.FaultClassifier(seed=seed), paths["detector"], meta={"seed": seed})
    setup = {"seed": seed, "split": split, "paths": paths}
    setup["opunet"], _ = models.load_checkpoint(paths["opunet"])
    setup["detector"], _ = models.load_checkpoint(paths["detector"])
    if workload == "monitor":
        setup["recording"] = signal.Signal(
            np.concatenate([dataio.load_recording(e.sound_path).samples for e in manifest.entries]),
            SAMPLE_RATE)
    return setup


def timed_prepare(workload, seed, workdir, kernel, tracer=None):
    """``prepare`` plus (wall seconds since interpreter start, speed scale).

    The scale is the nominal kernel time over the median of kernel runs made
    just before and just after ``prepare``.
    """
    runs = [kernel() for _ in range(SETUP_SPEED_RUNS)]
    with tracer or contextlib.nullcontext():
        setup = prepare(workload, seed, workdir)
    wall = time.perf_counter() - _T_START
    runs += [kernel() for _ in range(SETUP_SPEED_RUNS)]
    return setup, wall, SPEED_NOMINAL_S / statistics.median(runs)


def setup_only(workload, seed):
    workdir = _workdir()
    try:
        _, wall, scale = timed_prepare(workload, seed, workdir, SpeedKernel())
        print(json.dumps({"setup_s": wall, "scale": scale}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workdir():
    path = BENCH_DIR / "_work" / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_setup_times(workload, seed, n):
    """(wall s, speed scale) of the set-up of ``n`` fresh processes."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((sample["setup_s"], sample["scale"]))
    return times


# -- workloads --------------------------------------------------------------------


def monitor_stream(recording):
    """Endless 1-s segments; each pass re-cuts the recording at a new offset,
    so no segment's bytes repeat within a run."""
    from opvib import signal

    n = recording.samples.size
    seg = int(SAMPLE_RATE)
    for p in range(seg):
        offset = (p * 1361) % seg          # 1361 is odd: offsets differ for p < 4096
        sig = signal.Signal(recording.samples[offset:n], recording.sample_rate_hz)
        yield from signal.segment_signal(sig, 1.0)


def run_monitor(setup, clock, stream, state):
    import numpy as np
    from opvib import models, signal, tensor

    unet, det = setup["opunet"], setup["detector"]
    clock.start()
    with tensor.no_grad():
        for raw in stream:
            started = time.perf_counter()
            try:
                norm = signal.normalize_segment(raw)
                vib = unet.forward(tensor.Tensor(norm.reshape(1, -1)))
                scores = det.forward(vib)
                models.predict_label(scores)
            except Exception as exc:  # a raising operation counts as failed
                clock.end(started)
                state["failed"] += 1
                state["errors"].append(repr(exc))
            else:
                clock.end(started)
                out = vib.data
                if not (out.shape == (1, 4096) and np.isfinite(out).all()
                        and np.abs(out).max() <= 1.0 and scores.data.shape == (2,)
                        and np.isfinite(scores.data).all()):
                    state["failed"] += 1
                if clock.seen % CHECK_EVERY == 1:
                    state["kept"].append((norm, out.copy(), scores.data.copy()))
            if clock.finished:
                return


def _float64_copy(model):
    from opvib import models

    arch = model.architecture()
    klass = type(model)
    if klass is models.OpUNet:
        twin = klass(l_seg=arch["l_seg"], channels=tuple(arch["channels"]), kernel=arch["kernel"],
                     decoder_kernel=arch["decoder_kernel"], q=arch["q"], dtype="float64")
    else:
        twin = klass(l_seg=arch["l_seg"], hidden_channels=arch["hidden_channels"],
                     dense_hidden=arch["dense_hidden"], q=arch["q"], dtype="float64")
    for (_, dst), (_, src) in zip(twin.parameters(), model.parameters()):
        dst.data = src.data.astype("float64")
    return twin


def monitor_reference_check(setup, kept):
    """Re-run kept segments through float64 copies of the weights; returns
    (max deviations, number of segments out of tolerance)."""
    import numpy as np
    from opvib import tensor

    unet64, det64 = _float64_copy(setup["opunet"]), _float64_copy(setup["detector"])
    worst = {"opunet": 0.0, "detector": 0.0}
    bad = 0
    with tensor.no_grad():
        for norm, out, scores in kept:
            vib64 = unet64.forward(tensor.Tensor(norm.astype("float64").reshape(1, -1)))
            s64 = det64.forward(vib64)
            d_u = float(np.max(np.abs(vib64.data - out)))
            d_d = float(np.max(np.abs(s64.data - scores)))
            worst["opunet"] = max(worst["opunet"], d_u)
            worst["detector"] = max(worst["detector"], d_d)
            bad += d_u > REF_TOL["opunet"] or d_d > REF_TOL["detector"]
    return worst, bad


_LOG_FIELD = re.compile(r"(\w+)=(\S+)")


def run_training(workload, setup, clock, state, tracer=None):
    """One ``train_*`` call; the clock marks each ``Adam.step`` end and stops it."""
    import numpy as np
    from opvib import models, optim, training

    seed = setup["seed"]
    split = setup["split"]
    original_step = optim.Adam.step
    seen = {}

    def step(opt):
        if "before" not in seen:
            seen["before"] = [p.data.copy() for p in opt.params]
            seen["params"] = opt.params
        original_step(opt)
        clock.end()
        if clock.finished:
            raise Stop

    def log(line):
        values = [float(v) for _, v in _LOG_FIELD.findall(line)]
        if not all(np.isfinite(values)):
            state["failed"] += 1
            state["errors"].append(f"non-finite loss term: {line}")

    det, _ = models.load_checkpoint(setup["paths"]["detector"])
    unet = None
    if workload == "train":
        unet, _ = models.load_checkpoint(setup["paths"]["opunet"])
        cfg = training.TrainConfig(max_iterations=10 ** 9, seed=seed)
    else:
        cfg = training.TrainConfig(classifier_epochs=10 ** 9, seed=seed)
    if tracer:
        tracer.phase = "ops"        # checkpoint loads above count as set-up
    det_before = [t.data.copy() for _, t in det.parameters()]
    optim.Adam.step = step
    clock.start()
    try:
        if workload == "train":
            training.train_transformer(split.train, split.val, cfg, det, log=log, model=unet)
        else:
            training.train_fault_detector(split.train, split.val, cfg, log=log)
    except Stop:
        pass
    finally:
        optim.Adam.step = original_step
    params = seen.get("params", [])
    finite = all(np.isfinite(p.data).all() for p in params)
    changed = any(not np.array_equal(p.data, b) for p, b in zip(params, seen.get("before", [])))
    problems = []
    if not params or not finite:
        problems.append("trained parameters are not all finite")
    if not changed:
        problems.append("trained parameters did not change")
    if workload == "train":
        if any(not np.array_equal(t.data, b) for (_, t), b in zip(det.parameters(), det_before)):
            problems.append("frozen detector weights changed")
        if any(t.requires_grad is False for _, t in det.parameters()):
            problems.append("detector requires_grad flags were not restored")
    return problems


def run_phase(workload, setup, clock, state, tracer=None):
    """Drive one phase; returns run-level check problems."""
    if workload == "monitor":
        if tracer:
            tracer.phase = "ops"
        run_monitor(setup, clock, state["stream"], state)
        return []
    return run_training(workload, setup, clock, state, tracer)


# -- fingerprint ---------------------------------------------------------------


def fingerprint(seed):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "opvib").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_pinning": "environment variables set before numpy import",
        "git_revision": rev,
        "seed": seed,
        "src_opvib_lines": src_lines,
    }


# -- main ----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(BENCH_DIR / "results"),
                    help="directory for the run record and the span file")
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: run the set-up once and print its time")
    args = ap.parse_args(argv)

    if not (SRC / "opvib" / "__init__.py").is_file():
        print(f"error: no opvib package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opvib  # noqa: F401  (import time belongs to set-up)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    import spans

    workdir = _workdir()
    try:
        kernel = SpeedKernel()
        tclock = tracer = None
        if args.trace:
            tclock = OpClock(kernel, seconds=TRACED_LIMIT_S, max_ops=TRACED_OPS[args.workload])
            tracer = spans.Tracer(tclock)
        setup, setup_s, scale = timed_prepare(args.workload, args.seed, workdir, kernel, tracer)
        setup_samples = [(setup_s, scale)]
        state = {"failed": 0, "errors": [], "kept": []}
        if args.workload == "monitor":
            state["stream"] = monitor_stream(setup["recording"])
        segs_per_op = 1 if args.workload == "monitor" else 8

        # half the set-up samples before the timed window and half after, so
        # they do not all fall in one speed spell of the machine
        before = (SETUP_SAMPLES - 1) // 2
        if not args.trace:
            setup_samples += child_setup_times(args.workload, args.seed, before)
        clock = OpClock(kernel, WARMUP_OPS[args.workload], WARMUP_S,
                        seconds=args.seconds / 2 if args.trace else args.seconds)
        problems = run_phase(args.workload, setup, clock, state)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "monitor":
            worst, bad = monitor_reference_check(setup, state["kept"])
            state["failed"] += bad
            state["reference_max_abs_dev"] = worst
            if bad:
                problems.append(f"{bad} kept segments deviate from the float64 reference")
        if not args.trace:
            setup_samples += child_setup_times(args.workload, args.seed,
                                               SETUP_SAMPLES - 1 - before)
        n = clock.completed
        attempted = n
        p50_ms, p90_ms, throughput = clock.stats(segs_per_op)
        wall = dict(zip(("latency_p50_ms", "latency_p90_ms", "throughput_segments_per_s"),
                        clock.stats(segs_per_op, scaled=False)))
        wall["setup_s"] = statistics.median(w for w, _ in setup_samples)
        if args.trace:
            with tracer:
                problems += run_phase(args.workload, setup, tclock, state, tracer)
            attempted += tclock.completed
            metrics = tracer.summary(max(tclock.completed, 1))
            traced_p50 = tclock.stats(segs_per_op)[0]
            metrics["trace_overhead_frac"] = (traced_p50 / p50_ms - 1.0, "fraction")
            metrics["trace.traced_latency_p50_ms"] = (traced_p50, "ms")
            metrics["trace.untraced_latency_p50_ms"] = (p50_ms, "ms")
        else:
            metrics = {
                "latency_p50_ms": (p50_ms, "ms"),
                "latency_p90_ms": (p90_ms, "ms"),
                "throughput_segments_per_s": (throughput, "1/s"),
                "setup_s": (statistics.median(w * k for w, k in setup_samples), "s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
        failed = state["failed"]
        if problems:
            failed = attempted
        correct = failed == 0 and not problems

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "samples": n, "segments_per_op": segs_per_op,
            "wall": wall, "speed_nominal_s": SPEED_NOMINAL_S,
            "traced_ops": tclock.completed if args.trace else None,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "problems": problems, "errors": state["errors"][:10],
            "reference_max_abs_dev": state.get("reference_max_abs_dev"),
            "reference_tolerance": REF_TOL if args.workload == "monitor" else None,
            "fingerprint": fingerprint(args.seed),
        }
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if tracer:
            tracer.write(out / f"{stem}-spans.jsonl")

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"timed operations {n} ({segs_per_op} segment(s) each)")
        if not args.trace:
            print("  times are scaled to the nominal speed kernel; wall values in brackets")
        for name, (value, unit) in metrics.items():
            raw = f"  ({wall[name]:.6g} wall)" if name in wall and not args.trace else ""
            print(f"  {name:<44} {value:14.6g} {unit}{raw}")
        print(f"  {'failed_frac':<44} {record['failed_frac']:14.6g} fraction "
              f"({failed} of {attempted} operations)")
        if record["reference_max_abs_dev"]:
            print(f"  float64 reference max |dev|: {record['reference_max_abs_dev']} "
                  f"(tolerance {REF_TOL}, {len(state['kept'])} segments)")
        print(f"checks: {'PASS' if correct else 'FAIL'}" + "".join(f"; {p}" for p in problems))
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
