"""The quick demos run to completion, in child processes, against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from util import opvib_subprocess_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 03 trains end to end for close to a minute, so it is left out
@pytest.mark.parametrize("name,expected", [
    ("01_generative_neurons", "Q=1 layer vs plain conv, max |diff|: 0.0"),
    ("02_spectral_analysis", "only faulty segments"),
    ("04_checkpoints_and_latency", "reloaded forward pass bit-identical: True"),
])
def test_demo_runs(name, expected, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                          env=opvib_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
