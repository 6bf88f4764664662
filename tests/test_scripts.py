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


def _digests_and_bench(monkeypatch):
    # both modules pin BLAS threads in os.environ and the script extends
    # sys.path, so both are restored afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    return _load(SCRIPTS / "output_digests.py", "output_digests"), _load(BENCH / "run.py", "bench_run")


def test_digest_shapes_are_the_benchmark_workloads(monkeypatch):
    # `output_digests.py --shape W` checks the bytes of benchmark workload W
    digests, bench = _digests_and_bench(monkeypatch)
    assert set(digests.SHAPES) | {"restarts"} == set(bench.WORKLOADS)
    for name, sizes in digests.SHAPES.items():
        w = bench.WORKLOADS[name]
        assert sizes == (w.K, w.nc, w.planted, w.n, w.R)
    w = bench.WORKLOADS["restarts"]
    assert digests.RESTARTS == (w.p, w.n, w.sources, w.q, w.restarts, w.R, w.sigma)


def test_restarts_digests_cover_the_data_every_ica_output_and_the_report(monkeypatch, tmp_path):
    digests, _ = _digests_and_bench(monkeypatch)
    found = digests.restarts_digests(str(tmp_path), 12, 600, 3, 4, 2, 10, 1.0, seed=1)
    runs = [f"out/ica{i:02d}/{name}" for i in range(2)
            for name in ("components.rnm", "mean.rnm", "mixing.rnm", "model.txt")]
    assert list(found) == ["inputs/data.rnm", "inputs/manifest.txt", *runs,
                           "out/report/report.txt", "out/report/report.txt.null.rnm"]
