"""Smoke runs of the scripts under scripts/ on tiny inputs, and checks of
bench_pairs.py with fakes for its exporter and runner, so no benchmark runs."""

import importlib.util
import os
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


def test_group_digests_cover_every_block_and_every_ica_output(monkeypatch, tmp_path):
    digests, _ = _digests_and_bench(monkeypatch)
    found = digests.group_digests(str(tmp_path), 12, 600, 3, 4, 2, 10, 1.0, seed=1)
    assert list(found) == [*(f"inputs/data{i}.rnm" for i in range(4)),
                           *(f"out/group/{name}" for name in ("components.rnm", "mean.rnm", "mixing.rnm", "model.txt"))]


def test_group_digests_equal_the_first_restarts(monkeypatch, tmp_path):
    # the 4 row blocks are one stack, so ica on them writes the bytes that
    # ica on the whole data writes at the same seed
    digests, _ = _digests_and_bench(monkeypatch)
    group = digests.group_digests(str(tmp_path / "group"), 12, 600, 3, 4, 2, 10, 1.0, seed=1)
    restarts = digests.restarts_digests(str(tmp_path / "restarts"), 12, 600, 3, 4, 2, 10, 1.0, seed=1)
    names = ("components.rnm", "mean.rnm", "mixing.rnm", "model.txt")
    assert [group[f"out/group/{name}"] for name in names] == [restarts[f"out/ica00/{name}"] for name in names]


def _bench_pairs(monkeypatch, values, bad=None):
    """bench_pairs with its exporter and runner replaced by fakes: the
    k-th run of a side reads values[side][k] as raicarn_s. Returns the
    module and the list of (side, seed) runs it makes."""
    pairs = _load(SCRIPTS / "bench_pairs.py", "bench_pairs")
    calls = []
    monkeypatch.setattr(pairs, "export", lambda rev, root: ("/x/parent", "/x/change"))

    def run_one(directory, workload, seed):
        side = os.path.basename(directory)
        value = values[side][sum(s == side for s, _ in calls)]
        calls.append((side, seed))
        line = {"correct": (side, len(calls)) != bad, "attempted": 3, "failed": 0,
                "metrics": {"raicarn_s": {"value": value, "unit": "s"},
                            "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}
        return 0, line, ""

    monkeypatch.setattr(pairs, "run_one", run_one)
    return pairs, calls


def test_bench_pairs_alternates_order_and_seed_and_summarises(monkeypatch, capsys):
    values = {"parent": [0.10, 0.12, 0.11, 0.13], "change": [0.09, 0.13, 0.10, 0.12]}
    pairs, calls = _bench_pairs(monkeypatch, values)
    assert pairs.main(["--parent", "HEAD", "--workload", "paper", "--pairs", "4"]) == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2248), ("parent", 2248)] * 2
    out = capsys.readouterr().out
    assert "  raicarn_s: 0.115 -> 0.11, lower in 3 of 4, IQR 0.015\n" in out
    assert "  peak_rss_mb: 40 -> 40, lower in 0 of 4, IQR 0\n" in out
    assert "  change: raicarn_s=0.13 peak_rss_mb=40\n" in out


def test_bench_pairs_stops_at_an_incorrect_run(monkeypatch, capsys):
    values = {"parent": [0.1] * 4, "change": [0.1] * 4}
    pairs, calls = _bench_pairs(monkeypatch, values, bad=("change", 3))
    assert pairs.main(["--parent", "HEAD", "--workload", "paper", "--pairs", "4"]) == 1
    assert calls == [("parent", 1), ("change", 1), ("change", 2248)]
    assert "change run of pair 2" in capsys.readouterr().err
