"""Smoke runs of the scripts under scripts/: each one exits 0 on tiny inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--trials", "1", "--R", "5", "--K", "3", "--nc", "3", "--n", "200"]
ARGS = {
    "null_calibration.py": TINY,
    "overlap_sweep.py": TINY + ["--planted", "1"],
    # R=20 leaves both planted components significant, so mixture fits them
    "output_digests.py": ["--K", "6", "--nc", "3", "--planted", "2", "--n", "300", "--R", "20"],
    "planted_demo.py": ["--outdir", "demo"],  # written under the tmp_path cwd
}


@pytest.mark.parametrize("script", sorted(ARGS))
def test_script_runs(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *ARGS[script]],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
