import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from opvib import cli, parallel, training
from opvib.dataio import load_recording, write_wav
from opvib.models import OpUNet, load_checkpoint, save_checkpoint
from opvib.signal import Signal
from util import THREAD_VARS, fake_blas_threads, opvib_subprocess_env

RATE = 256  # small segments keep CLI round trips fast

GEN = ["gen-synthetic", "--sample-rate", str(RATE), "--seed", "5"]


def run(argv):
    """main() may return an int or raise SystemExit (argparse errors)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def args_file(tmp_path, *lines):
    """``@PATH`` of an argument file in ``tmp_path`` holding ``lines``, one per line."""
    path = tmp_path / "run.args"
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    rc = run(GEN + ["--healthy", "12", "--faulty", "12", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def detector_ckpt(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "det.opvb"
    rc = run(["train-detector", "--manifest", str(dataset / "manifest.tsv"),
              "--out", str(path), "--epochs", "6", "--seed", "5",
              "--train-seconds", "12", "--val-seconds", "4"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def transformer_ckpt(dataset, detector_ckpt, tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "tr.opvb"
    rc = run(["train-transformer", "--manifest", str(dataset / "manifest.tsv"),
              "--detector", str(detector_ckpt), "--out", str(path),
              "--iters", "6", "--val-interval", "3", "--seed", "5",
              "--train-seconds", "12", "--val-seconds", "4"])
    assert rc == 0
    return path


def test_every_subcommand_help_exits_zero(capsys):
    for cmd in ("gen-synthetic", "train-detector", "train-transformer",
                "synthesize", "evaluate", "benchmark"):
        assert run([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "@FILE" in out and "default" in out


def test_gen_synthetic_writes_expected_counts(dataset, capsys):
    files = sorted(p.name for p in dataset.iterdir())
    assert "manifest.tsv" in files
    assert sum(1 for f in files if f.endswith(".wav")) == 48


def test_gen_synthetic_repeat_is_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(GEN + ["--healthy", "3", "--faulty", "3", "--out", str(a)]) == 0
    assert run(GEN + ["--healthy", "3", "--faulty", "3", "--out", str(b)]) == 0
    for fa in sorted(a.iterdir()):
        assert fa.read_bytes() == (b / fa.name).read_bytes()


def test_gen_synthetic_zero_counts_exit_2(tmp_path):
    assert run(GEN + ["--healthy", "0", "--faulty", "0", "--out", str(tmp_path)]) == 2


def test_gen_synthetic_negative_count_exit_2(tmp_path, capsys):
    assert run(GEN + ["--healthy", "-5", "--faulty", "6", "--out", str(tmp_path)]) == 2
    assert "negative" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("level", ["-0.5", "nan"])
def test_gen_synthetic_bad_noise_level_exits_1(tmp_path, capsys, level):
    out = tmp_path / "d"
    assert run(GEN + ["--noise-level", level, "--out", str(out)]) == 1
    assert "non-negative noise level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["3", "0.4"])
def test_gen_synthetic_segments_shorter_than_fir_taps_exit_1(tmp_path, capsys, rate):
    # these printed numpy's "operands could not be broadcast" and "a cannot
    # be empty" and left an empty output directory behind
    out = tmp_path / "d"
    assert run(["gen-synthetic", "--sample-rate", rate, "--out", str(out)]) == 1
    assert "shorter than the 5 FIR taps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--train-seconds", "inf"), ("--val-seconds", "nan"),
                                        ("--train-seconds", "-3"), ("--val-seconds", "-2")])
def test_bad_split_seconds_exit_1(dataset, tmp_path, capsys, flag, value):
    argv = ["train-detector", "--manifest", str(dataset / "manifest.tsv"),
            "--out", str(tmp_path / "det.opvb"), "--epochs", "1", flag, value]
    assert run(argv) == 1
    assert f"{flag[2:].replace('-', '_')} must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "det.opvb").exists()


@pytest.mark.parametrize("argv,line,message", [
    (["train-transformer", "--joint"], None, "unrecognized arguments: --joint"),
    (["train-detector", "--l-seg", str(RATE)], None, f"unrecognized arguments: --l-seg {RATE}"),
    (["train-transformer"], "--class-loss=target", "unrecognized arguments: --class-loss=target"),
], ids=["joint", "l_seg", "class_loss"])
def test_removed_training_options_exit_2(tmp_path, capsys, argv, line, message):
    # training always runs with the detector frozen, the paired class term and
    # the data's segment length, so none of them is an option
    if line:
        argv = argv + [args_file(tmp_path, line)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_missing_manifest_is_runtime_failure(tmp_path):
    rc = run(["train-detector", "--manifest", str(tmp_path / "nope.tsv"),
              "--out", str(tmp_path / "x.opvb")])
    assert rc == 1


@pytest.mark.parametrize("command", ["train-detector", "train-transformer", "evaluate"])
def test_manifest_without_pairs_exits_1(detector_ckpt, tmp_path, capsys, command):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# a header line and no rows\n")
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "x.opvb")]
    if command != "train-detector":
        argv += ["--detector", str(detector_ckpt)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}: the manifest gave no 1-second segment pairs" in err
    assert not (tmp_path / "x.opvb").exists()


def test_train_transformer_with_no_training_pairs_exits_1(dataset, detector_ckpt, tmp_path):
    # in a child process with a timeout, so a training loop that never ends
    # fails the test rather than hanging the suite
    out = tmp_path / "t.opvb"
    proc = subprocess.run(
        [sys.executable, "-m", "opvib", "train-transformer", "--manifest",
         str(dataset / "manifest.tsv"), "--detector", str(detector_ckpt), "--out", str(out),
         "--train-seconds", "0"],
        env=opvib_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "error: transformer training needs at least one training pair" in proc.stderr
    assert not out.exists()


def test_train_transformer_requires_detector_flag(dataset, tmp_path):
    rc = run(["train-transformer", "--manifest", str(dataset / "manifest.tsv"),
              "--out", str(tmp_path / "t.opvb")])
    assert rc == 2


def test_transformer_emits_per_iteration_loss_lines(dataset, detector_ckpt, tmp_path, capsys):
    rc = run(["train-transformer", "--manifest", str(dataset / "manifest.tsv"),
              "--detector", str(detector_ckpt), "--out", str(tmp_path / "t.opvb"),
              "--iters", "2", "--lambda", "50", "--seed", "1",
              "--train-seconds", "8", "--val-seconds", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iter=1 time=" in out and "iter=2 time=" in out
    assert "val_total=" in out


def test_negative_lambda_exits_1(dataset, detector_ckpt, tmp_path, capsys):
    rc = run(["train-transformer", "--manifest", str(dataset / "manifest.tsv"),
              "--detector", str(detector_ckpt), "--out", str(tmp_path / "t.opvb"),
              "--iters", "1", "--lambda", "-5"])
    assert rc == 1
    assert "error: lam must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "t.opvb").exists()


def test_transformer_file_does_not_depend_on_the_detector_directory(dataset, detector_ckpt,
                                                                   tmp_path):
    # the transformer's meta names its detector by content, not by path
    files = []
    for where in ("a", "b/c"):
        det = tmp_path / where / "det.opvb"
        det.parent.mkdir(parents=True)
        det.write_bytes(detector_ckpt.read_bytes())
        out = tmp_path / where / "t.opvb"
        assert run(["train-transformer", "--manifest", str(dataset / "manifest.tsv"),
                    "--detector", str(det), "--out", str(out), "--iters", "2", "--seed", "5",
                    "--train-seconds", "8", "--val-seconds", "4"]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    _, meta = load_checkpoint(out)
    assert meta["detector_sha256"] == hashlib.sha256(detector_ckpt.read_bytes()).hexdigest()


def test_synthesize_round_trip_preserves_duration(dataset, transformer_ckpt, tmp_path):
    src = dataset / "seg0000_sound.wav"
    out = tmp_path / "synth.wav"
    assert run(["synthesize", "--model", str(transformer_ckpt),
                "--sound", str(src), "--out", str(out)]) == 0
    original = load_recording(src)
    synth = load_recording(out)
    assert synth.samples.size == original.samples.size
    assert synth.sample_rate_hz == original.sample_rate_hz
    assert np.all(np.abs(synth.samples) <= 1.0)


def test_synthesize_pads_partial_tail(transformer_ckpt, tmp_path):
    src = tmp_path / "odd.wav"
    write_wav(src, Signal(np.random.default_rng(0).uniform(-1, 1, RATE + 40).astype(np.float32), RATE))
    out = tmp_path / "synth.wav"
    assert run(["synthesize", "--model", str(transformer_ckpt),
                "--sound", str(src), "--out", str(out)]) == 0
    assert load_recording(out).samples.size == RATE + 40


def test_synthesize_counts_constant_segments(transformer_ckpt, tmp_path, capsys):
    sound = np.random.default_rng(1).uniform(-1, 1, 3 * RATE).astype(np.float32)
    sound[RATE : 2 * RATE] = 0.5
    write_wav(tmp_path / "s.wav", Signal(sound, RATE))
    assert run(["synthesize", "--model", str(transformer_ckpt),
                "--sound", str(tmp_path / "s.wav"), "--out", str(tmp_path / "y.wav")]) == 0
    assert "synthesized 3 segments (1 degenerate)" in capsys.readouterr().out


def test_synthesize_rate_mismatch_exits_1(transformer_ckpt, tmp_path, capsys):
    src = tmp_path / "wrong_rate.wav"
    write_wav(src, Signal(np.zeros(RATE, dtype=np.float32), RATE * 2))
    rc = run(["synthesize", "--model", str(transformer_ckpt),
              "--sound", str(src), "--out", str(tmp_path / "y.wav")])
    assert rc == 1
    assert "sample rate" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [None, "abc", [4096], float("nan"), float("inf"), float("-inf")],
                         ids=["null", "string", "list", "NaN", "Infinity", "-Infinity"])
def test_synthesize_bad_meta_sample_rate_exits_1(tmp_path, capsys, rate):
    model = tmp_path / "tr.opvb"
    save_checkpoint(OpUNet(l_seg=RATE), model, meta={"sample_rate_hz": rate})
    src = tmp_path / "in.wav"
    write_wav(src, Signal(np.zeros(RATE, dtype=np.float32), RATE))
    rc = run(["synthesize", "--model", str(model), "--sound", str(src),
              "--out", str(tmp_path / "y.wav")])
    assert rc == 1
    assert "sample_rate_hz" in capsys.readouterr().err
    assert not (tmp_path / "y.wav").exists()


def test_evaluate_real_and_synthesized_rows(dataset, detector_ckpt, transformer_ckpt, tmp_path, capsys):
    common = ["evaluate", "--detector", str(detector_ckpt),
              "--manifest", str(dataset / "manifest.tsv"),
              "--split", "test", "--out-dir", str(tmp_path)]
    assert run(common) == 0
    real_out = capsys.readouterr().out
    assert "real vibration" in real_out
    assert run(common + ["--transformer", str(transformer_ckpt)]) == 0
    syn_out = capsys.readouterr().out
    assert "synthesized vibration" in syn_out
    real = json.loads((tmp_path / "metrics_real.json").read_text())
    syn = json.loads((tmp_path / "metrics_synthesized.json").read_text())
    for payload in (real, syn):
        assert set(payload) == {"accuracy", "counts", "healthy", "faulty"}
    assert (tmp_path / "metrics_real.txt").exists()


def test_benchmark_json_and_reps_validation(transformer_ckpt, capsys):
    assert run(["benchmark", "--model", str(transformer_ckpt), "--reps", "5"]) == 2
    capsys.readouterr()
    assert run(["benchmark", "--model", str(transformer_ckpt), "--reps", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["median_ms"] > 0
    assert payload["real_time_factor"] > 0
    assert payload["repetitions"] == 10


def test_config_file_overrides_defaults_and_flags_override_config(tmp_path, capsys):
    args = args_file(tmp_path, "--healthy=4", "--faulty=2", "--noise-level=0.01")
    out = tmp_path / "d"
    # position decides: the file beats the --faulty before it, the --healthy
    # after it beats the file, and the file beats the defaults
    assert run(GEN + ["--faulty", "9", args, "--healthy", "1", "--out", str(out)]) == 0
    echo = capsys.readouterr().out.splitlines()[0].split()
    assert {"healthy=1", "faulty=2", "noise_level=0.01"} <= set(echo)
    wavs = sum(1 for p in out.iterdir() if p.suffix == ".wav")
    assert wavs == 2 * (1 + 2)


def _every_option():
    """(command, flag, value) for each option of each subcommand; a switch's value is None."""
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    for command, parser in commands.items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            if action.nargs == 0:
                value = None
            elif action.choices:
                value = next(c for c in action.choices if c != action.default)
            else:
                value = {int: "7", float: "0.25", None: "elsewhere"}[action.type]
            yield pytest.param(command, action.option_strings[0], value,
                               id=f"{command}-{action.dest}")


@pytest.mark.parametrize("command,flag,value", _every_option())
def test_file_option_echoes_like_its_flag(tmp_path, monkeypatch, capsys, command, flag, value):
    # the required paths name missing files, so each command fails fast after
    # its echo; gen-synthetic fails on its 3-sample segments before it writes
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: fake_blas_threads(takes=True))
    _, required = cli._COMMANDS[command]
    base = [command] + [arg for name in required for arg in (f"--{name.replace('_', '-')}", "missing")]
    if command == "gen-synthetic":
        base += ["--sample-rate", "3"]
    given = [flag] if value is None else [flag, value]
    echoes = []
    for argv in (base, base + [args_file(tmp_path, "=".join(given))], base + given):
        rc = run(argv)
        echoes.append((rc, capsys.readouterr().out.splitlines()[0]))
    assert echoes[1] == echoes[2] and echoes[1][1] != echoes[0][1]
    assert echoes[1][0] in (1, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.args"]


def test_config_file_skips_blank_and_comment_lines(tmp_path, capsys):
    args = args_file(tmp_path, "", "# a comment", "   ", "--reps=20", "  # indented", "--json")
    assert run(["benchmark", "--model", str(tmp_path / "m.opvb"), args]) == 1
    echo = capsys.readouterr().out.splitlines()[0].split()
    assert {"reps=20", "json=True"} <= set(echo)


def test_config_switch_takes_no_value(tmp_path, capsys):
    # a switch is a bare --json line; under the former key=value reader a
    # misspelt switch value read as false
    args = args_file(tmp_path, "--json=ture")
    assert run(["benchmark", "--model", str(tmp_path / "m.opvb"), args]) == 2
    captured = capsys.readouterr()
    assert "argument --json: ignored explicit argument 'ture'" in captured.err
    assert not captured.out


def test_reproducible_in_config_file_pins_blas(tmp_path, monkeypatch, capsys):
    get, put = fake_blas_threads(takes=True)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: (get, put))
    during = []
    _, required = cli._COMMANDS["gen-synthetic"]
    monkeypatch.setitem(cli._COMMANDS, "gen-synthetic", (lambda opts: during.append(get()), required))
    argv = GEN + [args_file(tmp_path, "--reproducible"), "--out", str(tmp_path / "d")]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" reproducible=True")
    assert during == [1] and get() == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    args = tmp_path / "nofile.args"
    out = tmp_path / "d"
    assert run(GEN + [f"@{args}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"No such file or directory: '{args}'" in captured.err
    assert not captured.out and not out.exists()


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(GEN + [args_file(tmp_path, "--healthy=1", "garbage line"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: garbage line" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("line", ["bach_size=4", "reproducible=1", "config=other.cfg",
                                  "--bach-size=4", "--config=other.cfg"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    # a key=value line of the former config format is no argument, and an
    # option the command does not have is refused alike
    out = tmp_path / "d"
    assert run(GEN + [args_file(tmp_path, "--healthy=1", line), "--faulty", "1",
                      "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {line}" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("content,message", [
    (b"--noise-level=loud\n", r"argument --noise-level: invalid float value: 'loud'"),
    # argparse reads an @FILE in the locale's encoding, which is UTF-8 here;
    # from Python 3.12 it escapes the byte, and the int parse refuses it
    (b"--healthy=\xff\n", r"cannot decode an @FILE|argument --healthy: invalid int value"),
    (b"--healthy=1\n@run.args\n", r"an @FILE includes itself"),
], ids=["bad_value", "not_utf8", "includes_itself"])
def test_bad_config_file_exits_2(tmp_path, monkeypatch, capsys, content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.args").write_bytes(content)
    assert run(GEN + ["@run.args", "--out", "d"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and re.search(message, captured.err)
    assert not captured.out and not (tmp_path / "d").exists()


def test_cli_import_loads_no_scipy():
    # importing scipy.io took 60% of a start-up; WAV I/O needs only numpy
    proc = subprocess.run([sys.executable, "-c", "import sys, opvib.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=opvib_subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_resolved_config_is_echoed(dataset, capsys):
    run(["evaluate", "--detector", "missing.opvb", "--manifest", str(dataset / "manifest.tsv")])
    out = capsys.readouterr().out
    assert out.startswith("config:")


@pytest.mark.skipif(parallel._blas_threads() is None,
                    reason="numpy's BLAS has no thread setter opvib knows")
def test_reproducible_pins_blas_in_process_and_restores_it(tmp_path):
    # started with no thread variable set: the command itself holds BLAS at
    # one thread while it runs, and hands the caller's count back after
    env = opvib_subprocess_env()
    for name in THREAD_VARS:
        env.pop(name, None)
    script = ("import sys\n"
              "from opvib import cli, parallel\n"
              "get, _ = parallel._blas_threads()\n"
              "handler, required = cli._COMMANDS['gen-synthetic']\n"
              "def spy(opts):\n"
              "    print('during', get())\n"
              "    handler(opts)\n"
              "cli._COMMANDS['gen-synthetic'] = (spy, required)\n"
              "before = get()\n"
              "code = cli.main(sys.argv[1:])\n"
              "print('threads', before, get())\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script] + GEN
                          + ["--healthy", "1", "--faulty", "1", "--out", "d", "--reproducible"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("config:") and lines[0].endswith(" reproducible=True")
    assert lines[1] == "during 1"
    _, before, after = lines[-1].split()
    assert before == after


def test_reproducible_without_a_pinning_method_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    assert run(GEN + ["--healthy", "1", "--faulty", "1", "--out", str(tmp_path),
                      "--reproducible"]) == 2
    assert "cannot pin BLAS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_reproducible_refuses_a_blas_pin_that_does_not_take(tmp_path, monkeypatch, capsys):
    # a setter that is found but leaves the count at 2 must not pass for a pin
    get, put = fake_blas_threads(takes=False)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: (get, put))
    assert run(GEN + ["--healthy", "1", "--faulty", "1", "--out", str(tmp_path),
                      "--reproducible"]) == 2
    assert "cannot pin BLAS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert get() == 2
    with parallel._pinned_workers(training.TrainConfig()) as workers:
        assert workers == 1
