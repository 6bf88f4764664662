"""RAICAR-N benchmark: times the real CLI, in-process, on four workloads.

Usage:
    python3 bench/run.py --workload paper --seed 1 --seconds 10 --trace 0

One single-threaded process drives ``raicarn.cli.main(argv)`` as a closed
loop with one client: each command starts when the previous one returns.
The inputs are generated from ``--seed`` and written to disk; the program
sees only those files. The pipeline is repeated until ``--seconds`` would
be exceeded (at least once) and every timing is a median over the repeats.

``--trace 0`` patches nothing and reports the end-to-end metrics.
``--trace 1`` first repeats the pipeline untraced for half the time, then
wraps the package's public functions (see `install_tracing`) and repeats
it traced; it reports per-layer metrics, each layer's self time, and the
tracing overhead as traced minus untraced ``pipeline_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give every
metric with its unit and sample count, the machine facts and the output
digests; the same detail, and the spans of a traced run, are written under
``.bench_work/results/``. See ``bench/README.md`` for the workloads.
"""

import os

# BLAS pools must be sized before numpy is first imported; with more than
# one thread the stage times move about 3x between runs on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from io import StringIO  # noqa: E402

from tracing import Tracer, self_times  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".bench_work")

# Later perf PRs must also hold their claims on this seed, which was not
# used while the benchmark was tuned.
HELD_OUT_SEED = 2248

P_CRIT = "0.05"
SETUP_REPS = 3
# A true source counts as recovered when every member map of some
# significant component correlates with it at least this strongly.
# Unit-variance noise on every sensor caps |r| near 1/sqrt(2) = 0.707; the
# seed code reaches 0.628-0.674 on the weakest source of seeds 1-10, and a
# misassigned member scores near 0 (see README.md).
SOURCE_MATCH_MIN = 0.5


@dataclass(frozen=True)
class Planted:
    """``simulate`` inputs, then ``raicarn`` and optionally ``mixture``."""

    K: int
    nc: int
    planted: int
    n: int
    R: int
    mixture: bool
    overlap: float = 0.9


@dataclass(frozen=True)
class Restarts:
    """One noisy Laplacian mixture, ``restarts`` x ``ica``, then ``raicarn``."""

    p: int
    n: int
    sources: int
    q: int
    restarts: int
    R: int
    sigma: float = 1.0


# Each workload is sized so that a different layer dominates; README.md
# gives the reasons in full. No workload runs `plan-groups` (grouping) or
# reads a `--config` file (config): both finish in microseconds and no
# user waits on them.
WORKLOADS = {
    # Acceptance-test shape, N=160: per-call Python overhead in the greedy
    # loop and the EM dominates, not arithmetic. The EM's iteration count
    # moves the mixture time 2x between seeds (0.45-1.0 s), so R=1000, not
    # the demo's 100, keeps that from setting the run-to-run spread.
    "paper": Planted(K=20, nc=8, planted=3, n=2000, R=1000, mixture=True),
    # fMRI-like: CRCM GEMM, 160 MB of run files read twice, EM on 20000
    # locations.
    "fmri": Planted(K=50, nc=20, planted=3, n=20000, R=100, mixture=True),
    # N=2000: the greedy argmax over N^2 per null replicate dominates;
    # mixture does no work.
    "null-wide": Planted(K=50, nc=40, planted=4, n=2000, R=50, mixture=False),
    # The paper's use case: fixed-point ICA restarts; the only ICA
    # workload. q=16 over-specifies 8 sources so far that every restart
    # runs all 500 iterations on every seed tried; at q=12 the restarts of
    # a third of the seeds converge in 20-250 and the time moves 3x.
    # n=10000 and R=1000 give three repeats of a 2 s `raicarn` per run; at
    # n=20000, R=100 its one 0.4 s sample per run spread over a quarter of
    # its median.
    "restarts": Restarts(p=100, n=10000, sources=8, q=16, restarts=10, R=1000),
}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "raicarn_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics with their units; "computed" counts come from the
# input shapes, "counted" ones from the objects the program returned.
PER_LAYER = {
    "raicar.compute_crcm_s": "s",
    "raicar.crcm_gflop": "GFLOP",  # computed: 2 N^2 n per CRCM
    "raicar.match_and_score_s": "s",
    "raicar.match_components_s": "s",
    "null.null_distribution_s": "s",
    "null.replicate_s": "s",
    "null.argmax_cells": "count",  # computed: R n_C N^2 per null
    "null.permute_crcm_s": "s",
    "types.crcm_init_s": "s",
    "io.load_runs_s": "s",
    "io.bytes_read": "bytes",  # computed: header + 8 rows cols per matrix read
    "io.write_matrix_s": "s",
    "io.write_report_s": "s",
    "io.read_report_s": "s",
    "ica.pca_reduce_s": "s",
    "ica.fastica_s": "s",
    "ica.fastica_iters": "count",  # counted: FastIcaResult.n_iters
    "ica.converged_frac": "ratio",  # counted: FastIcaResult.converged
    "ica.residual_sd_s": "s",
    "mixture.normalize_maps_s": "s",
    "mixture.group_tstat_s": "s",
    "mixture.fit_mixture_s": "s",
    "mixture.em_iters": "count",  # counted: len(MixtureFit.loglik_trace)
    "mixture.em_converged_frac": "ratio",  # counted: MixtureFit.converged
    "mixture.classify_voxels_s": "s",
    "mixture.histogram_data_s": "s",
    "synth.planted_runset_s": "s",
    "cli.ica_s": "s",
    "cli.raicarn_s": "s",
    "cli.mixture_s": "s",
    "cli.self_s": "s",
    "io.self_s": "s",
    "ica.self_s": "s",
    "raicar.self_s": "s",
    "null.self_s": "s",
    "mixture.self_s": "s",
    "types.self_s": "s",
    "synth.self_s": "s",
    "trace.overhead_s": "s",
}


class Session:
    """Runs CLI commands in-process and counts attempts and failures.

    ``failed`` counts commands that exited non-zero or whose output failed
    its check; ``wrong`` counts only the latter, outputs that exist and are
    wrong, which is what makes a run incorrect.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times = {}  # command name -> list of seconds

    def command(self, argv) -> bool:
        from raicarn import cli

        name = argv[0]
        span = self.tracer.span(f"cli.{name}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                rc = e.code
            except Exception:  # a traceback is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = 1
        self.times.setdefault(name, []).append(time.perf_counter() - t0)
        self.attempted += 1
        if rc != 0:
            self.fail(f"raicarn {' '.join(argv)} exited with {rc}")
        return rc == 0

    def fail(self, message, wrong=False):
        self.failed += 1
        self.wrong += wrong
        print(f"FAILED: {message}", file=sys.stderr)


class Case:
    """One input set of a workload, in its own directory."""

    def __init__(self, name, spec, seed, directory):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.dir = directory
        self.inputs = os.path.join(self.dir, "inputs")
        self.out = os.path.join(self.dir, "out")
        self.report = os.path.join(self.out, "report", "report.txt")
        self.digests = None
        self.sources = None
        self.weakest_source_r = None

    # -- set-up: generate and write the inputs ---------------------------

    def setup(self, session):
        shutil.rmtree(self.inputs, ignore_errors=True)
        w = self.spec
        if isinstance(w, Planted):
            session.command([
                "simulate", "--K", str(w.K), "--nc", str(w.nc), "--planted", str(w.planted),
                "--overlap", repr(w.overlap), "--n", str(w.n), "--seed", str(self.seed),
                "--out", self.inputs,
            ])
            return
        from raicarn import io, synth

        os.makedirs(self.inputs)
        S = synth.gen_sources(w.sources, w.n, "laplacian", self.seed)
        Y, _, _ = synth.gen_mixture(S, w.p, w.sigma, self.seed + 1)
        io.write_matrix(Y, os.path.join(self.inputs, "data.rnm"))
        io.write_manifest(
            [os.path.join(os.pardir, "out", f"ica{i:02d}", "components.rnm")
             for i in range(w.restarts)],
            os.path.join(self.inputs, "manifest.txt"),
        )
        self.sources = S

    # -- the timed pipeline ---------------------------------------------

    def pipeline(self, session) -> float:
        """Run every command of the workload once; returns its wall time.
        Output checks run after the clock stops."""
        shutil.rmtree(self.out, ignore_errors=True)
        w = self.spec
        seed = str(self.seed)
        manifest = os.path.join(self.inputs, "manifest.txt")
        t0 = time.perf_counter()
        if isinstance(w, Restarts):
            data = os.path.join(self.inputs, "data.rnm")
            for i in range(w.restarts):
                session.command([
                    "ica", data, "--q", str(w.q), "--seed", str(self.seed * 1000 + i),
                    "--out", os.path.join(self.out, f"ica{i:02d}"),
                ])
        raicarn_ok = session.command([
            "raicarn", manifest, "--R", str(w.R), "--pcrit", P_CRIT, "--seed", seed,
            "--threads", "1", "--out", os.path.dirname(self.report),
        ])
        mixture_ok = isinstance(w, Planted) and w.mixture and session.command([
            "mixture", "--report", self.report, "--manifest", manifest, "--seed", seed,
            "--out", os.path.join(self.out, "mixture"),
        ])
        elapsed = time.perf_counter() - t0
        if raicarn_ok:
            self.check_report(session)
        if mixture_ok:
            self.check_mixture(session)
        return elapsed

    # -- correctness -----------------------------------------------------

    def check_report(self, session):
        import checks

        w = self.spec
        if isinstance(w, Planted):
            error = checks.check_planted(self.report, os.path.join(self.inputs, "truth.txt"))
        else:
            components = [os.path.join(self.out, f"ica{i:02d}", "components.rnm")
                          for i in range(w.restarts)]
            error, best = checks.check_restarts(
                self.report, components, self.sources, SOURCE_MATCH_MIN)
            if best is not None:
                self.weakest_source_r = float(best.min())
        if error is None:
            digests = {
                "report.txt": checks.sha256(self.report),
                "null_pool": checks.sha256(self.report + ".null.rnm"),
            }
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                error = "report or null pool differs between repeats of one seed"
        if error is not None:
            session.fail(f"{self.name} seed {self.seed}: {error}", wrong=True)

    def check_mixture(self, session):
        import checks

        error = checks.check_mixture(os.path.join(self.out, "mixture"), self.report, self.spec.n)
        if error is not None:
            session.fail(f"{self.name} seed {self.seed}: {error}", wrong=True)


# -- measurement --------------------------------------------------------

def repeat(seconds, once):
    """Call ``once`` at least once, and again while another call is
    expected to end within ``seconds``; returns the results."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def run_pipeline(case, session):
    """Run the pipeline once; returns its time and the mean time of each
    command in it."""
    marks = {name: len(times) for name, times in session.times.items()}
    sample = {"pipeline_s": case.pipeline(session)}
    for name, times in session.times.items():
        new = times[marks.get(name, 0):]
        if new:
            sample[f"{name}_s"] = sum(new) / len(new)
    return sample


def summarize(values):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (when there are enough samples for one)."""
    out = {"median": statistics.median(values), "n": len(values), "samples": list(values)}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(case, seconds, import_s):
    session = Session()
    setups = [_timed(lambda: case.setup(session)) for _ in range(SETUP_REPS)]
    samples = repeat(seconds, lambda: run_pipeline(case, session))
    details = {"setup_s": summarize([import_s + s for s in setups])}
    details["setup_s"]["import_s"] = import_s
    for name in samples[0]:
        details[name] = summarize([b[name] for b in samples])
    details["peak_rss_mb"] = {"median": peak_rss_mb(), "n": 1}
    metrics = {k: details[k]["median"] for k in END_TO_END}
    return session, metrics, details


def measure_traced(case, seconds):
    session = Session()
    case.setup(session)
    untraced = repeat(seconds / 2, lambda: case.pipeline(session))

    tracer = Tracer()
    session.tracer = tracer
    install_tracing(tracer)
    try:
        with tracer.span("bench.setup") as setup_root:
            case.setup(session)
        roots = []

        def traced_pipeline():
            with tracer.span("bench.pipeline") as root:
                t = case.pipeline(session)
            roots.append(root)
            return t

        traced = repeat(seconds / 2, traced_pipeline)
    finally:
        tracer.unwrap_all()

    setup_spans = tracer.subtree(setup_root)
    synth = {
        "synth.planted_runset_s": sum(s.duration for s in setup_spans
                                      if s.name == "synth.planted_runset"),
        "synth.self_s": self_times(setup_spans).get("synth", 0.0),
    }
    rows = [{**layer_metrics(tracer.subtree(root)), **synth} for root in roots]
    metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER if k in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    details = {
        "untraced_pipeline_s": summarize(untraced),
        "traced_pipeline_s": summarize(traced),
        "spans": len(tracer.spans),
    }
    return session, metrics, details, tracer


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def layer_metrics(spans):
    """Per-layer metrics of one traced pipeline."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def frac(name, key):
        returned = [s.attrs[key] for s in spans if s.name == name and key in s.attrs]
        return sum(returned) / len(returned) if returned else 0.0

    def per_call(name):
        calls = [s.duration for s in spans if s.name == name]
        return sum(calls) / len(calls) if calls else 0.0

    null_s = total("null.null_distribution")
    R = attr_sum("null.null_distribution", "R")
    selfs = self_times(spans)
    out = {
        "raicar.compute_crcm_s": total("raicar.compute_crcm"),
        "raicar.crcm_gflop": attr_sum("raicar.compute_crcm", "gflop"),
        "raicar.match_and_score_s": total("raicar.match_and_score"),
        "raicar.match_components_s": total("raicar.match_components"),
        "null.null_distribution_s": null_s,
        "null.replicate_s": null_s / R if R else 0.0,
        "null.argmax_cells": attr_sum("null.null_distribution", "argmax_cells"),
        "null.permute_crcm_s": total("null.permute_crcm"),
        "types.crcm_init_s": total("types.Crcm"),
        "io.load_runs_s": total("io.load_runs"),
        "io.bytes_read": attr_sum("io.read_matrix", "bytes"),
        "io.write_matrix_s": total("io.write_matrix"),
        "io.write_report_s": total("io.write_report"),
        "io.read_report_s": total("io.read_report"),
        "ica.pca_reduce_s": total("ica.pca_reduce"),
        "ica.fastica_s": total("ica.fastica"),
        "ica.fastica_iters": attr_sum("ica.fastica", "iters"),
        "ica.converged_frac": frac("ica.fastica", "converged"),
        "ica.residual_sd_s": total("ica.residual_sd"),
        "mixture.normalize_maps_s": total("mixture.normalize_maps"),
        "mixture.group_tstat_s": total("mixture.group_tstat"),
        "mixture.fit_mixture_s": total("mixture.fit_mixture"),
        "mixture.em_iters": attr_sum("mixture.fit_mixture", "iters"),
        "mixture.em_converged_frac": frac("mixture.fit_mixture", "converged"),
        "mixture.classify_voxels_s": total("mixture.classify_voxels"),
        "mixture.histogram_data_s": total("mixture.histogram_data"),
        "cli.ica_s": per_call("cli.ica"),
        "cli.raicarn_s": per_call("cli.raicarn"),
        "cli.mixture_s": per_call("cli.mixture"),
    }
    for layer in ("cli", "io", "ica", "raicar", "null", "mixture", "types"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def install_tracing(tracer):
    """Wrap every public function the CLI reaches, at the module attribute
    where its caller looks it up (``from x import f`` binds a second name)."""
    from raicarn import cli, ica, io, mixture, null, raicar, synth

    def crcm_work(span, args, G):
        span.attrs["gflop"] = 2.0 * (G.K * G.n_C) ** 2 * args[0].n / 1e9

    def null_work(span, args, pool):
        G, cfg = args[1], args[2]
        span.attrs["R"] = cfg.R
        span.attrs["argmax_cells"] = cfg.R * G.n_C * (G.K * G.n_C) ** 2

    def matrix_bytes(span, args, m):
        span.attrs["bytes"] = 12 + 8 * m.shape[0] * m.shape[1]

    def ica_iters(span, args, res):
        span.attrs["iters"] = res.n_iters
        span.attrs["converged"] = bool(res.converged)

    def em_iters(span, args, fit):
        span.attrs["iters"] = len(fit.loglik_trace)
        span.attrs["converged"] = bool(fit.converged)

    table = [
        (synth, "planted_runset", "synth.planted_runset", None),
        (synth, "gen_sources", "synth.gen_sources", None),
        (synth, "gen_mixture", "synth.gen_mixture", None),
        (io, "load_runs", "io.load_runs", None),
        (io, "read_manifest", "io.read_manifest", None),
        (io, "read_matrix", "io.read_matrix", matrix_bytes),
        (io, "write_matrix", "io.write_matrix", None),
        (io, "write_manifest", "io.write_manifest", None),
        (io, "write_report", "io.write_report", None),
        (io, "read_report", "io.read_report", None),
        (io, "write_text", "io.write_text", None),
        (io, "validate_run_collection", "types.validate_run_collection", None),
        (io, "MatchedComponent", "types.MatchedComponent", None),
        (io, "ReproducibilityReport", "types.ReproducibilityReport", None),
        (cli, "run_single_ica", "ica.run_single_ica", None),
        (cli, "residual_sd", "ica.residual_sd", None),
        (cli, "z_scale", "ica.z_scale", None),
        (ica, "center", "ica.center", None),
        (ica, "pca_reduce", "ica.pca_reduce", None),
        (ica, "fastica", "ica.fastica", ica_iters),
        (ica, "IcaModel", "types.IcaModel", None),
        (cli, "run_raicar_n", "null.run_raicar_n", None),
        (null, "null_distribution", "null.null_distribution", null_work),
        (null, "permute_crcm", "null.permute_crcm", None),
        (null, "p_values", "null.p_values", None),
        (null, "compute_crcm", "raicar.compute_crcm", crcm_work),
        (null, "match_and_score", "raicar.match_and_score", None),
        (null, "match_components", "raicar.match_components", None),
        (null, "Crcm", "types.Crcm", None),
        (null, "ReproducibilityReport", "types.ReproducibilityReport", None),
        (raicar, "match_components", "raicar.match_components", None),
        (raicar, "align_signs", "raicar.align_signs", None),
        (raicar, "similarity_matrix", "raicar.similarity_matrix", None),
        (raicar, "normalized_reproducibility", "raicar.normalized_reproducibility", None),
        (raicar, "Crcm", "types.Crcm", None),
        (raicar, "MatchedComponent", "types.MatchedComponent", None),
        (mixture, "normalize_maps", "mixture.normalize_maps", None),
        (mixture, "group_tstat", "mixture.group_tstat", None),
        (mixture, "fit_mixture", "mixture.fit_mixture", em_iters),
        (mixture, "classify_voxels", "mixture.classify_voxels", None),
        (mixture, "responsibilities", "mixture.responsibilities", None),
        (mixture, "histogram_data", "mixture.histogram_data", None),
    ]
    for owner, attr, name, on_result in table:
        tracer.wrap(owner, attr, name, on_result)


# -- machine facts and output ------------------------------------------

def machine_facts():
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": _blas_threads(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu"] = next(line.split(":", 1)[1].strip()
                                for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    with contextlib.suppress(KeyError, TypeError):  # show_config differs across numpy versions
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    return facts


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the pinned
    environment value."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_package():
    """Import the checkout's own ``raicarn``; returns the import time."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import raicarn
    import raicarn.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(raicarn.__file__)) != os.path.join(SRC, "raicarn"):
        raise ImportError(f"raicarn imported from {raicarn.__file__}, not from {SRC}")
    return elapsed


def run(workload, seed, seconds, trace, import_s=0.0, work=WORK):
    """Measure one workload; returns (result line dict, detail dict)."""
    case = Case(workload, WORKLOADS[workload], seed, os.path.join(work, workload))
    shutil.rmtree(case.dir, ignore_errors=True)
    tracer = None
    with contextlib.redirect_stdout(StringIO()):  # the commands' own progress lines
        if trace:
            session, metrics, details, tracer = measure_traced(case, seconds)
            units = PER_LAYER
        else:
            session, metrics, details = measure_untraced(case, seconds, import_s)
            units = END_TO_END
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_facts(),
        "metrics": details,
        "error_rate": session.failed / session.attempted,
        "digests": case.digests,
        "weakest_source_r": case.weakest_source_r,
    }
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as f:
        json.dump(detail, f, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    shutil.rmtree(case.dir, ignore_errors=True)
    line = {
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return line, detail


def print_detail(line, detail):
    print(f"machine: {json.dumps(detail['machine'])}")
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}")
    values = {k: (m["value"], m["unit"]) for k, m in line["metrics"].items()}
    for name, d in detail["metrics"].items():
        if isinstance(d, dict):
            values.setdefault(name, (d["median"], "s"))
    for name, (value, unit) in values.items():
        extra = detail["metrics"].get(name, {})
        tail = " ".join(f"{k}={v!r}" for k, v in extra.items() if k not in ("median", "samples"))
        print(f"  {name} = {value!r} {unit} {tail}".rstrip())
    print(f"  error_rate = {detail['error_rate']!r} ratio "
          f"({line['failed']} of {line['attempted']} commands)")
    for name, h in (detail["digests"] or {}).items():
        print(f"  sha256 {name} = {h}")
    if detail["weakest_source_r"] is not None:
        print(f"  weakest source |r| = {detail['weakest_source_r']!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        import_s = import_package()
    except ImportError as e:
        print(f"error: cannot import raicarn from {SRC}: {e}", file=sys.stderr)
        return 2
    line, detail = run(args.workload, args.seed, args.seconds, args.trace, import_s)
    print_detail(line, detail)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
