"""Self-tests of the benchmark at tiny sizes.

Run with:  PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

with open(os.path.join(run.REPO, "BENCHMARK.json")) as _f:
    CONTRACT = json.load(_f)

TINY = {
    "paper": run.Planted(K=6, nc=4, planted=2, n=1000, R=20, mixture=True),
    "fmri": run.Planted(K=6, nc=5, planted=2, n=1000, R=20, mixture=True),
    "null-wide": run.Planted(K=6, nc=6, planted=2, n=300, R=10, mixture=False),
    "restarts": run.Restarts(p=40, n=2000, sources=3, q=8, restarts=6, R=20, sigma=0.5),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    run.import_package()
    monkeypatch.setattr(run, "WORKLOADS", TINY)


def _declared(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_matches_the_code():
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(TINY)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    line, detail = run.run(workload, seed=3, seconds=0, trace=trace, work=str(tmp_path))
    assert line["correct"], detail
    assert line["failed"] == 0 and line["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared(kind)
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    run.print_detail(line, detail)
    printed = {line.split()[0]: line.split()[2:4]
               for line in capsys.readouterr().out.splitlines() if line.startswith("  ")}
    for name, unit in _declared(kind).items():
        assert printed[name][1] == unit
    assert printed["error_rate"] == ["0.0", "ratio"]
    assert set(detail["digests"]) == {"report.txt", "null_pool"}


def _swap_first_members(report_path):
    """Exchange the run-1 member of the two top-ranked components."""
    with open(report_path) as f:
        lines = f.read().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("members = ")]
    a, b = (lines[i].split(" = ")[1].split() for i in rows[:2])
    a[0], b[0] = b[0], a[0]
    lines[rows[0]] = "members = " + " ".join(a)
    lines[rows[1]] = "members = " + " ".join(b)
    with open(report_path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["paper", "restarts"])
def test_corrupted_report_counts_as_an_error(workload, tmp_path, monkeypatch):
    command = run.Session.command

    def corrupting(self, argv):
        ok = command(self, argv)
        if argv[0] == "raicarn":
            _swap_first_members(os.path.join(argv[argv.index("--out") + 1], "report.txt"))
        return ok

    monkeypatch.setattr(run.Session, "command", corrupting)
    line, detail = run.run(workload, seed=3, seconds=0, trace=0, work=str(tmp_path))
    assert not line["correct"]
    assert line["failed"] > 0
    assert detail["error_rate"] > 0


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.span("cli.raicarn") as root:
        with tracer.span("null.run_raicar_n"):
            with tracer.span("raicar.compute_crcm"):
                pass
    spans = tracer.subtree(root)
    selfs = self_times(spans)
    assert set(selfs) == {"cli", "null", "raicar"}
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert all(v >= 0 for v in selfs.values())


def test_tracing_is_undone():
    from raicarn import null

    original = null.match_components
    tracer = Tracer()
    run.install_tracing(tracer)
    assert null.match_components is not original
    tracer.unwrap_all()
    assert null.match_components is original


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark files cannot run it."""
    shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_command_counts_without_a_wrong_output(tmp_path, monkeypatch):
    """A command that exits non-zero is a failure, not a wrong output."""
    command = run.Session.command

    def missing_report(self, argv):
        if argv[0] == "mixture":
            argv = [str(tmp_path / "missing.txt") if a.endswith("report.txt") else a
                    for a in argv]
        return command(self, argv)

    monkeypatch.setattr(run.Session, "command", missing_report)
    line, detail = run.run("paper", seed=3, seconds=0, trace=0, work=str(tmp_path))
    assert line["correct"]
    assert line["failed"] == 1
    assert detail["error_rate"] == 1 / line["attempted"]
