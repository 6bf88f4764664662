"""Smoke runs of the scripts under scripts/: each one exits 0 on tiny inputs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = SCRIPTS.parent / "bench"
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


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_shapes_are_the_benchmark_workloads(monkeypatch):
    # `output_digests.py --shape W` checks the bytes of benchmark workload W;
    # both modules pin BLAS threads in os.environ and the script extends
    # sys.path, so both are restored afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    digests = _load(SCRIPTS / "output_digests.py", "output_digests")
    bench = _load(BENCH / "run.py", "bench_run")
    assert set(digests.SHAPES) == {"paper", "fmri", "null-wide"}
    for name, sizes in digests.SHAPES.items():
        w = bench.WORKLOADS[name]
        assert sizes == (w.K, w.nc, w.planted, w.n, w.R)
