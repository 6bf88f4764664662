"""Command-line pipeline driver.

Every subcommand is deterministic under fixed flags and seed; seeds are
mandatory on stochastic subcommands. Exit codes: 0 success, 1 runtime or
I/O failure, 2 usage or validation error.
"""

import argparse
import os
import sys

import numpy as np

from . import grouping, io, synth
from .config import NONLINEARITIES, SECTION_KEYS, IcaConfig, MixtureConfig, NullConfig
from .errors import DegenerateDataError, DomainError, RaicarnError, ShapeMismatchError
from .ica import residual_sd, run_single_ica, stack_group, z_scale
from .null import run_raicar_n

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (RaicarnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="raicarn",
        description="Reproducibility analysis of repeated spatial-map decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic run collection")
    p.add_argument("--K", type=int, required=True, help="number of runs")
    p.add_argument("--nc", type=int, required=True, help="components per run")
    p.add_argument("--planted", type=int, required=True, help="reproducible components")
    p.add_argument("--overlap", type=float, default=0.9, help="planted cross-run correlation target")
    p.add_argument("--n", type=int, required=True, help="locations per map")
    p.add_argument("--family", default="laplacian", choices=synth.SOURCE_FAMILIES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ica", help="single or group decomposition of data matrices")
    p.add_argument("data", nargs="+", help="input matrix file(s)")
    p.add_argument("--q", type=int, help="model order")
    p.add_argument("--nonlinearity", choices=NONLINEARITIES)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--group", action="store_true", help="stack inputs time-wise before decomposing")
    p.add_argument("--raw", action="store_true", help="emit raw component maps instead of z-scaled")
    p.add_argument("--config", help="pipeline config file supplying defaults")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ica)

    p = sub.add_parser("raicarn", help="reproducibility analysis with permutation p-values")
    p.add_argument("manifest", help="run manifest file")
    p.add_argument("--R", type=int, help="null replicates")
    p.add_argument("--pcrit", type=float, dest="p_crit", help="significance cutoff")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help="ignored: replicates run serially")
    p.add_argument("--config", help="pipeline config file supplying defaults")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_raicarn)

    p = sub.add_parser("plan-groups", help="choose a group size and sample groups")
    p.add_argument("--N", type=int, required=True, help="subject count")
    p.add_argument("--alpha", type=float, required=True, help="pair co-occurrence cap")
    # K > 50 gives equivalent results in practice; 50 is a default, not a cap.
    p.add_argument("--K", type=int, default=50, help="number of groups (default 50)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan_groups)

    p = sub.add_parser("mixture", help="tail-mixture display of significant components")
    p.add_argument("--report", required=True, help="reproducibility report file")
    p.add_argument("--manifest", required=True, help="run manifest the report was computed from")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="ignored: the fit is deterministic")
    p.add_argument("--config", help="pipeline config file supplying defaults")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mixture)

    return parser


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _settings(args, section) -> dict:
    """The ``--config`` file's [section], overridden by the flags given;
    the config class supplies every default and checks every bound."""
    settings = io.load_pipeline_config(args.config)[section] if args.config is not None else {}
    for key in SECTION_KEYS[section]:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


def cmd_simulate(args) -> int:
    spec = synth.PlantSpec(
        n=args.n, n_C=args.nc, K=args.K, n_planted=args.planted,
        overlap=args.overlap, noise_kind=args.family, seed=args.seed,
    )
    out = _outdir(args)
    run_files, labels = [], [[] for _ in range(spec.n_planted)]
    # each run is written as soon as it is drawn, so one run is held at a time
    for r, (maps, slots) in enumerate(synth.planted_runs(spec)):
        name = f"run{r:02d}.rnm"
        io.write_matrix(maps, os.path.join(out, name))
        run_files.append(name)
        for b, slot in enumerate(slots):
            labels[b].append(slot)
    io.write_manifest(run_files, os.path.join(out, "manifest.txt"))
    lines = ["# planted ground truth (1-based run:component pairs per base map)"]
    for b, per_run in enumerate(labels, start=1):
        slots = " ".join(f"{r + 1}:{c + 1}" for r, c in enumerate(per_run))
        lines.append(f"base{b} = {slots}")
    io.write_text(os.path.join(out, "truth.txt"), lines)
    print(f"wrote {spec.K} runs to {out}")
    return EXIT_OK


def cmd_ica(args) -> int:
    settings = _settings(args, "ica")
    if "q" not in settings:
        raise UsageError("model order --q is required (flag or config)")
    cfg = IcaConfig(**settings, seed=args.seed)
    if not args.group and len(args.data) != 1:
        raise UsageError("single-run mode takes exactly one data file (use --group)")
    # the datasets are dropped once stacked, so the stack is the one copy
    # held through the fit and residual_sd
    Y = (stack_group([io.read_matrix(p) for p in args.data]) if args.group
         else io.read_matrix(args.data[0]))
    model = run_single_ica(Y, cfg)
    out = _outdir(args)
    maps = model.S if args.raw else z_scale(model.S, residual_sd(Y, model))
    io.write_matrix(maps, os.path.join(out, "components.rnm"))
    io.write_matrix(model.A, os.path.join(out, "mixing.rnm"))
    io.write_matrix(model.mu[None, :], os.path.join(out, "mean.rnm"))
    io.write_text(
        os.path.join(out, "model.txt"),
        [
            "# decomposition summary",
            f"q = {model.q}",
            f"sigma2 = {model.sigma2!r}",
            f"converged = {'true' if model.converged else 'false'}",
            f"iterations = {model.n_iters}",
            f"stopped = {model.stopped}",
            f"scaled = {'raw' if args.raw else 'z'}",
        ],
    )
    print(f"wrote {model.q} components to {out}")
    return EXIT_OK


def cmd_raicarn(args) -> int:
    cfg = NullConfig(**_settings(args, "null"), seed=args.seed)
    report = run_raicar_n(io.open_runs(args.manifest), cfg)
    out = _outdir(args)
    io.write_report(report, os.path.join(out, "report.txt"))
    n_sig = int(report.significant.sum())
    print(f"{n_sig} of {report.n_C} components significant at p < {cfg.p_crit}")
    return EXIT_OK


def cmd_plan_groups(args) -> int:
    plan = grouping.plan_groups(args.N, args.alpha, args.K, args.seed)
    out = _outdir(args)
    lines = [
        "# group sampling plan",
        f"N = {plan.N}",
        f"alpha_max = {plan.alpha_max!r}",
        f"L = {plan.L}",
        f"K = {plan.K}",
        f"pair_probability = {grouping.pair_probability(plan.N, plan.L)!r}",
    ]
    for g in plan.groups:
        lines.append("group = " + " ".join(str(s + 1) for s in g))
    io.write_text(os.path.join(out, "plan.txt"), lines)
    print(f"L = {plan.L}, {plan.K} groups written to {out}")
    return EXIT_OK


def cmd_mixture(args) -> int:
    # imported on use: the other commands start without its half megabyte
    from . import mixture

    cfg = MixtureConfig(**_settings(args, "mixture"))
    if args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    report = io.read_report(args.report)
    runs = io.open_runs(args.manifest)
    for mc in report.matched:
        if len(mc.members) != runs.K or any(not 0 <= comp < runs.n_C for _, comp, _ in mc.members):
            raise ShapeMismatchError(
                f"{args.report}: report does not fit the {runs.K} runs of "
                f"{runs.n_C} components in {args.manifest}"
            )
    # Read the member maps of the significant components, and only those,
    # before anything is written; one component's maps are held at a time,
    # and only its t-map and degenerate mask are kept.
    fitted = []
    for rank, (mc, sig) in enumerate(zip(report.matched, report.significant), start=1):
        if not sig:
            continue
        maps = runs.rows((run, comp) for run, comp, _ in mc.members)
        maps *= np.array([sign for _, _, sign in mc.members], dtype=np.float64)[:, None]
        normalized = mixture.normalize_maps(maps)
        del maps
        fitted.append((rank, *mixture.group_tstat(normalized)))
        del normalized
    out = _outdir(args)
    n_degenerate = 0
    for rank, t_map, degenerate in fitted:
        prefix = os.path.join(out, f"comp{rank:02d}")
        lines = [
            "# tail-mixture fit parameters",
            f"rank = {rank}",
            f"degenerate_locations = {int(degenerate.sum())}",
        ]
        try:
            fit = mixture.fit_mixture(t_map, cfg)
        except DegenerateDataError:
            # Too few locations or no spread to model: everything null.
            n_degenerate += 1
            labels = np.zeros(t_map.shape[0], dtype=np.int8)
            lines.append("degenerate = true")
        else:
            labels = mixture.classify_voxels(fit, t_map)
            labels[degenerate] = mixture.LABEL_NULL
            io.write_matrix(mixture.histogram_data(fit, t_map, bins=args.bins), prefix + "_hist.rnm")
            lines += [
                f"weights = {fit.weights[0]!r} {fit.weights[1]!r} {fit.weights[2]!r}",
                f"t = {fit.t_params[0]!r} {fit.t_params[1]!r} {fit.t_params[2]!r}",
                f"gamma_pos = {fit.gamma_pos[0]!r} {fit.gamma_pos[1]!r} {fit.gamma_pos[2]!r}",
                f"gamma_neg = {fit.gamma_neg[0]!r} {fit.gamma_neg[1]!r} {fit.gamma_neg[2]!r}",
                f"converged = {'true' if fit.converged else 'false'}",
                f"iterations = {len(fit.loglik_trace)}",
            ]
        io.write_matrix(t_map[None, :], prefix + "_tstat.rnm")
        io.write_matrix(labels[None, :].astype(np.float64), prefix + "_labels.rnm")
        io.write_text(prefix + "_fit.txt", lines)
    print(f"fitted {len(fitted) - n_degenerate} of {len(fitted)} significant component(s) "
          f"to {out}; {n_degenerate} degenerate")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
