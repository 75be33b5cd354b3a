import json
import subprocess
import sys

import numpy as np
import pytest

from opvib import cli, training
from opvib.dataio import load_recording, write_wav
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
        assert "--seed" in out and "--config" in out and "default" in out


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


def test_l_seg_zero_is_not_inferred_from_data(dataset, tmp_path, capsys):
    argv = ["train-detector", "--manifest", str(dataset / "manifest.tsv"),
            "--out", str(tmp_path / "det.opvb"), "--epochs", "1", "--l-seg", "0"]
    assert run(argv) == 1
    assert f"--l-seg 0 does not match the data's {RATE}" in capsys.readouterr().err


def test_missing_manifest_is_runtime_failure(tmp_path):
    rc = run(["train-detector", "--manifest", str(tmp_path / "nope.tsv"),
              "--out", str(tmp_path / "x.opvb")])
    assert rc == 1


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


def test_synthesize_rate_mismatch_exits_1(transformer_ckpt, tmp_path, capsys):
    src = tmp_path / "wrong_rate.wav"
    write_wav(src, Signal(np.zeros(RATE, dtype=np.float32), RATE * 2))
    rc = run(["synthesize", "--model", str(transformer_ckpt),
              "--sound", str(src), "--out", str(tmp_path / "y.wav")])
    assert rc == 1
    assert "sample rate" in capsys.readouterr().err


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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("healthy=4\nfaulty=2\nnoise-level=0.01\n")
    out = tmp_path / "d"
    assert run(GEN + ["--config", str(cfg), "--healthy", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    # flag beats config, config beats default
    assert "healthy=1" in text and "faulty=2" in text and "noise_level=0.01" in text
    wavs = sum(1 for p in out.iterdir() if p.suffix == ".wav")
    assert wavs == 2 * (1 + 2)


@pytest.mark.parametrize("key,flag,value", [("l_seg", "--l-seg", str(RATE)),
                                            ("held_out_speed", "--held-out-speed", "680")])
def test_config_value_parses_like_its_flag(dataset, tmp_path, capsys, key, flag, value):
    # options whose default is None used to keep the config file's string
    argv = ["train-detector", "--manifest", str(dataset / "manifest.tsv"),
            "--out", str(tmp_path / "det.opvb"), "--epochs", "1",
            "--train-seconds", "12", "--val-seconds", "4"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run(argv + ["--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out.splitlines()[0]
    assert run(argv + [flag, value]) == 0
    assert from_config == capsys.readouterr().out.splitlines()[0]

    cfg.write_text(f"{key}=fast\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    assert f"config value {key}='fast'" in capsys.readouterr().err


def test_config_switch_value_must_be_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("json=ture\n")
    # a misspelt switch value used to read as false
    assert run(["benchmark", "--model", str(tmp_path / "m.opvb"), "--config", str(cfg)]) == 2
    assert "config value json='ture': expected true or false" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nofile.cfg"
    assert run(["benchmark", "--model", str(tmp_path / "m.opvb"), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"cannot read config file {cfg}" in captured.err
    assert not captured.out


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps=20\ngarbage line\n")
    assert run(["benchmark", "--model", str(tmp_path / "m.opvb"), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"config file {cfg}:2: expected key=value, got 'garbage line'" in captured.err
    assert not captured.out


@pytest.mark.parametrize("line", ["bach_size=4", "reproducible=1", "config=other.cfg"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"healthy=1\n{line}\n")
    out = tmp_path / "d"
    assert run(GEN + ["--config", str(cfg), "--faulty", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"not options of gen-synthetic: {line.split('=')[0]}" in captured.err
    assert not captured.out and not out.exists()


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


@pytest.mark.skipif(training._blas_threads() is None,
                    reason="numpy's BLAS has no thread setter opvib knows")
def test_reproducible_pins_blas_in_process_and_restores_it(tmp_path):
    # started with no thread variable set: the command itself holds BLAS at
    # one thread while it runs, and hands the caller's count back after
    env = opvib_subprocess_env()
    for name in THREAD_VARS:
        env.pop(name, None)
    script = ("import sys\n"
              "from opvib import cli, training\n"
              "get, _ = training._blas_threads()\n"
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
    monkeypatch.setattr(training, "_blas_threads", lambda: None)
    assert run(GEN + ["--healthy", "1", "--faulty", "1", "--out", str(tmp_path),
                      "--reproducible"]) == 2
    assert "cannot pin BLAS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_reproducible_refuses_a_blas_pin_that_does_not_take(tmp_path, monkeypatch, capsys):
    # a setter that is found but leaves the count at 2 must not pass for a pin
    get, put = fake_blas_threads(takes=False)
    monkeypatch.setattr(training, "_blas_threads", lambda: (get, put))
    assert run(GEN + ["--healthy", "1", "--faulty", "1", "--out", str(tmp_path),
                      "--reproducible"]) == 2
    assert "cannot pin BLAS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert get() == 2
    assert training._worker_count(training.TrainConfig()) == 1
