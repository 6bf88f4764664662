"""End-to-end acceptance criteria.

Each test exercises one headline behavior at its stated tolerance and time
budget and prints a single PASS/FAIL line (run with `pytest -s` to see them
on success).
"""

import itertools
import math
import os
import time

import numpy as np
from scipy import stats
from scipy.optimize import linear_sum_assignment

from raicarn import io
from raicarn.cli import main
from raicarn.grouping import max_group_size, pair_probability
from raicarn.ica import IcaConfig, run_single_ica
from raicarn.mixture import fit_mixture
from raicarn.null import NullConfig, run_raicar_n
from raicarn.raicar import compute_crcm, match_components, normalized_reproducibility
from raicarn.synth import PlantSpec, gen_mixture, gen_sources, planted_runset
from raicarn.types import RunCollection


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_group_planner_exact():
    start = time.monotonic()
    L = max_group_size(23, 0.05)
    p = pair_probability(23, 5)
    exact = math.comb(21, 3) / math.comb(23, 5)
    elapsed = time.monotonic() - start
    ok = L == 5 and abs(p - 1330 / 33649) < 1e-12 and abs(p - exact) < 1e-12 and elapsed < 1.0
    _verdict(
        "group planner",
        ok,
        f"L={L}, P={p:.12f} vs 1330/33649={1330 / 33649:.12f}, {elapsed:.3f}s",
    )


def test_planted_reproducibility_detection():
    start = time.monotonic()
    cfg = NullConfig(R=100, seed=0, p_crit=0.05)
    successes = 0
    for trial in range(20):
        rc, labels = planted_runset(
            PlantSpec(n=2000, n_C=8, K=20, n_planted=3, overlap=0.9, seed=1000 + trial)
        )
        report = run_raicar_n(rc, cfg)
        planted_sets = [frozenset((r, c) for r, c in enumerate(per_run)) for per_run in labels]
        top3 = [
            frozenset((r, c) for r, c, _s in mc.members) for mc in report.matched[:3]
        ]
        top3_are_planted = set(top3) == set(planted_sets)
        top3_significant = bool(report.significant[:3].all())
        fillers_quiet = int((~report.significant[3:]).sum()) >= 4
        if top3_are_planted and top3_significant and fillers_quiet:
            successes += 1
    elapsed = time.monotonic() - start
    ok = successes >= 18 and elapsed < 120.0
    _verdict("planted detection", ok, f"{successes}/20 trials, {elapsed:.1f}s")


def test_exact_p_value_on_identical_runs():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    run = rng.standard_normal((8, 500))
    rc = RunCollection(np.stack([run] * 10))
    report = run_raicar_n(rc, NullConfig(R=100, seed=0, p_crit=0.05))
    top = report.matched[0].reproducibility
    strict = report.null_sample.max() < 1.0
    elapsed = time.monotonic() - start
    ok = abs(top - 1.0) < 1e-12 and strict and abs(report.p_values[0] - 1 / 801) < 1e-15
    ok = ok and elapsed < 30.0
    _verdict(
        "exact p-value",
        ok,
        f"top rep={top}, p={report.p_values[0]:.6f} (1/801={1 / 801:.6f}), "
        f"null max={report.null_sample.max():.3f}, {elapsed:.1f}s",
    )


def test_null_validity_under_h0():
    start = time.monotonic()
    cfg = NullConfig(R=100, seed=0, p_crit=0.05)
    n_sig = 0
    n_total = 0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        rc = RunCollection(rng.standard_normal((10, 10, 1000)))
        report = run_raicar_n(rc, cfg)
        n_sig += int(report.significant.sum())
        n_total += report.n_C
    frac = n_sig / n_total
    elapsed = time.monotonic() - start
    ok = 0.0 <= frac <= 0.15 and elapsed < 120.0
    _verdict("null validity", ok, f"fraction p<0.05 = {frac:.3f} over 20 trials, {elapsed:.1f}s")


def _exhaustive_best(G, K, n_C):
    best = -1.0
    for perms in itertools.product(itertools.permutations(range(n_C)), repeat=K - 1):
        alignment = [tuple(range(n_C))] + [tuple(p) for p in perms]
        total = 0.0
        for slot in range(n_C):
            idx = [r * n_C + alignment[r][slot] for r in range(K)]
            H = np.abs(G.signed)[np.ix_(idx, idx)].copy()
            np.fill_diagonal(H, 1.0)
            total += normalized_reproducibility(H)
        best = max(best, total)
    return best


def test_greedy_matching_vs_exhaustive_oracle():
    start = time.monotonic()
    # instances drawn from the planted generative model (random run/slot
    # counts, random overlap, random number of reproducible slots); on
    # structureless iid noise the greedy heuristic is optimal far less often
    rng = np.random.default_rng(3)
    optimal = 0
    bijections = 0
    for i in range(200):
        K = int(rng.integers(2, 4))
        n_C = int(rng.integers(2, 4))
        n_planted = int(rng.integers(1, n_C + 1))
        overlap = float(rng.uniform(0.6, 0.95))
        rc, _ = planted_runset(
            PlantSpec(n=500, n_C=n_C, K=K, n_planted=n_planted, overlap=overlap, seed=10_000 + i)
        )
        G = compute_crcm(rc)
        matched = match_components(G)
        used = [m for members, _ in matched for m in members]
        if len(set(used)) == K * n_C:
            bijections += 1
        total = 0.0
        for members, _anchor in matched:
            idx = [r * n_C + c for r, c in members]
            H = np.abs(G.signed)[np.ix_(idx, idx)].copy()
            np.fill_diagonal(H, 1.0)
            total += normalized_reproducibility(H)
        if total >= _exhaustive_best(G, K, n_C) - 1e-9:
            optimal += 1
    elapsed = time.monotonic() - start
    ok = optimal >= 190 and bijections == 200 and elapsed < 30.0
    _verdict(
        "greedy vs oracle",
        ok,
        f"optimal {optimal}/200, bijection {bijections}/200, {elapsed:.1f}s",
    )


def _aligned_min_corr(S_a, S_b):
    q = S_a.shape[0]
    C = np.abs(np.corrcoef(S_a, S_b)[:q, q:])
    rows, cols = linear_sum_assignment(-C)
    return C[rows, cols].min()


def test_ica_recovery_and_identifiability():
    start = time.monotonic()
    recovered = 0
    for seed in range(20):
        S = gen_sources(4, 5000, "laplacian", seed=3000 + seed)
        Y, _, _ = gen_mixture(S, p=20, sigma=0.1, seed=4000 + seed)
        model = run_single_ica(Y, IcaConfig(q=4, seed=0))
        if _aligned_min_corr(S, model.S) > 0.95:
            recovered += 1
    S = gen_sources(4, 5000, "laplacian", seed=5000)
    Y, _, _ = gen_mixture(S, p=20, sigma=0.1, seed=5001)
    m1 = run_single_ica(Y, IcaConfig(q=4, seed=1))
    m2 = run_single_ica(Y, IcaConfig(q=4, seed=2))
    agreement = _aligned_min_corr(m1.S, m2.S)
    elapsed = time.monotonic() - start
    ok = recovered >= 19 and agreement > 0.9 and elapsed < 60.0
    _verdict(
        "ica recovery",
        ok,
        f"{recovered}/20 seeds > 0.95, cross-seed agreement {agreement:.3f}, {elapsed:.1f}s",
    )


def test_mixture_null_and_planted_behavior():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    pure = stats.t.rvs(20.0, size=100_000, random_state=rng)
    fit_null = fit_mixture(pure)
    tail_weight = fit_null.weights[1] + fit_null.weights[2]

    planted = np.concatenate([
        stats.t.rvs(20.0, size=90_000, random_state=rng),
        2.0 + stats.gamma.rvs(4.0, scale=1.0, size=10_000, random_state=rng),
    ])
    fit_planted = fit_mixture(planted)
    w_pos_err = abs(fit_planted.weights[1] - 0.10)

    monotone = all(
        (np.diff(f.loglik_trace) >= -1e-8).all() for f in (fit_null, fit_planted)
    )
    elapsed = time.monotonic() - start
    ok = tail_weight < 0.02 and w_pos_err <= 0.03 and monotone and elapsed < 60.0
    _verdict(
        "mixture behavior",
        ok,
        f"null tails {tail_weight:.4f}, planted w_pos {fit_planted.weights[1]:.4f}, "
        f"monotone {monotone}, {elapsed:.1f}s",
    )


def test_cli_determinism_and_formats(tmp_path):
    start = time.monotonic()
    outputs = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}"
        rep = tmp_path / f"rep_{tag}"
        assert main([
            "simulate", "--K", "6", "--nc", "3", "--planted", "2", "--overlap", "0.95",
            "--n", "600", "--seed", "11", "--out", str(sim),
        ]) == 0
        assert main([
            "raicarn", str(sim / "manifest.txt"), "--R", "30", "--seed", "4",
            "--out", str(rep),
        ]) == 0
        blob = b""
        for d in (sim, rep):
            for name in sorted(os.listdir(d)):
                blob += name.encode() + (d / name).read_bytes()
        outputs.append(blob)
    identical = outputs[0] == outputs[1]

    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 13))
    io.write_matrix(m, tmp_path / "rt.rnm")
    round_trips = io.read_matrix(tmp_path / "rt.rnm").tobytes() == m.tobytes()
    elapsed = time.monotonic() - start
    ok = identical and round_trips
    _verdict(
        "determinism and formats",
        ok,
        f"pipeline reruns identical={identical}, matrix round-trip={round_trips}, {elapsed:.1f}s",
    )
