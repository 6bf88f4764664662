"""SHA-256 of every file that simulate -> raicarn -> mixture writes.

Runs the three CLI commands for one shape and seed in a temporary
directory, then prints one "digest  path" line per file written and a
combined digest over those lines. The restarts shape instead writes one
noisy mixture, runs ica on it once per restart and raicarn on the
restarts, and digests the data and every file those commands write. The
group shape splits the restarts data into 4 row blocks, runs ica --group
on them once, and digests the blocks and every file it writes. Two
checkouts that print the same combined digest wrote the same bytes, so a
change meant to keep the output bits is checked by one command on each. Given several shapes or
seeds, it runs every (shape, seed) pair in turn and prints only one
combined digest line per pair, labelled with the shape and seed.

BLAS runs on one thread, because the thread count can change the order of
a product's sums and with it the last bits of the CRCM. Compare digests
only between processes with the same BLAS thread count and the same numpy
SIMD dispatch: with AVX-512 dispatch disabled (NPY_DISABLE_CPU_FEATURES),
numpy's log and exp round differently, and mixture's fit and histogram
files change.

Usage: python3 scripts/output_digests.py --shape paper --seed 1
       python3 scripts/output_digests.py --shape fmri --seed 2248
       python3 scripts/output_digests.py --shape null-wide --seed 1
       python3 scripts/output_digests.py --shape restarts --seed 1 2248
       python3 scripts/output_digests.py --shape group --seed 1 2248
       python3 scripts/output_digests.py --shape paper null-wide fmri --seed 1 2248
       python3 scripts/output_digests.py --K 4 --nc 3 --planted 1 --n 300 --R 5
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from raicarn import io, synth  # noqa: E402
from raicarn.cli import main as cli  # noqa: E402

# (K, nc, planted, n, R), the shapes of the benchmark's paper, fmri and
# null-wide workloads; the benchmark skips mixture on null-wide, this runs it
SHAPES = {
    "paper": (20, 8, 3, 2000, 1000),
    "fmri": (50, 20, 3, 20000, 100),
    "null-wide": (50, 40, 4, 2000, 50),
}

# (p, n, sources, q, restarts, R, sigma), the shape of the benchmark's
# restarts workload; the flags above do not apply to it
RESTARTS = (100, 10000, 8, 16, 10, 1000, 1.0)

# row blocks that the group shape splits the restarts data into
GROUP_BLOCKS = 4


def _run(root, steps, dirs):
    """Run the CLI steps, then {path under root: SHA-256} of every file
    in dirs, in that order."""
    # the commands' own messages go to stderr, so stdout holds only digests
    with contextlib.redirect_stdout(sys.stderr):
        for argv in steps:
            if cli(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
    found = {}
    for d in dirs:
        for name in sorted(os.listdir(os.path.join(root, d))):
            with open(os.path.join(root, d, name), "rb") as f:
                found[f"{d}/{name}"] = hashlib.sha256(f.read()).hexdigest()
    return found


def digests(root, K, nc, planted, n, R, seed):
    """{path under root: SHA-256} of every file the pipeline writes."""
    manifest = os.path.join(root, "sim", "manifest.txt")
    report = os.path.join(root, "rep", "report.txt")
    steps = [
        ["simulate", "--K", str(K), "--nc", str(nc), "--planted", str(planted),
         "--n", str(n), "--seed", str(seed), "--out", os.path.join(root, "sim")],
        ["raicarn", manifest, "--R", str(R), "--seed", str(seed),
         "--out", os.path.join(root, "rep")],
        ["mixture", "--report", report, "--manifest", manifest,
         "--out", os.path.join(root, "mix")],
    ]
    return _run(root, steps, ("sim", "rep", "mix"))


def restarts_digests(root, p, n, sources, q, restarts, R, sigma, seed):
    """{path under root: SHA-256} of the data and of every file that the
    restarts' ica runs and raicarn write, set up, seeded and laid out as in
    the benchmark's restarts workload."""
    inputs = os.path.join(root, "inputs")
    data = os.path.join(inputs, "data.rnm")
    manifest = os.path.join(inputs, "manifest.txt")
    os.makedirs(inputs)
    S = synth.gen_sources(sources, n, "laplacian", seed)
    Y, _, _ = synth.gen_mixture(S, p, sigma, seed + 1)
    io.write_matrix(Y, data)
    runs = [os.path.join("out", f"ica{i:02d}") for i in range(restarts)]
    io.write_manifest([os.path.join(os.pardir, r, "components.rnm") for r in runs], manifest)
    steps = [["ica", data, "--q", str(q), "--seed", str(seed * 1000 + i),
              "--out", os.path.join(root, r)] for i, r in enumerate(runs)]
    report = os.path.join("out", "report")
    steps.append(["raicarn", manifest, "--R", str(R), "--pcrit", "0.05", "--seed", str(seed),
                  "--threads", "1", "--out", os.path.join(root, report)])
    return _run(root, steps, ("inputs", *runs, report))


def group_digests(root, p, n, sources, q, restarts, R, sigma, seed):
    """{path under root: SHA-256} of the restarts data, split into 4 row
    blocks written as separate datasets, and of every file that one
    ``ica --group`` run on them writes, seeded as the first restart."""
    inputs = os.path.join(root, "inputs")
    os.makedirs(inputs)
    S = synth.gen_sources(sources, n, "laplacian", seed)
    Y, _, _ = synth.gen_mixture(S, p, sigma, seed + 1)
    data = [os.path.join(inputs, f"data{i}.rnm") for i in range(GROUP_BLOCKS)]
    for i, path in enumerate(data):
        io.write_matrix(Y[i * p // GROUP_BLOCKS : (i + 1) * p // GROUP_BLOCKS], path)
    out = os.path.join("out", "group")
    steps = [["ica", *data, "--group", "--q", str(q), "--seed", str(seed * 1000),
              "--out", os.path.join(root, out)]]
    return _run(root, steps, ("inputs", out))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", nargs="+", choices=sorted([*SHAPES, "restarts", "group"]), default=["paper"],
                    help="benchmark shapes and group; the flags below override the sizes of all "
                         "but restarts and group")
    for flag in ("K", "nc", "planted", "n", "R"):
        ap.add_argument(f"--{flag}", type=int)
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    args = ap.parse_args()
    pairs = [(shape, seed) for shape in args.shape for seed in args.seed]
    for shape, seed in pairs:
        with tempfile.TemporaryDirectory() as root:
            if shape in ("restarts", "group"):
                found = (restarts_digests if shape == "restarts" else group_digests)(root, *RESTARTS, seed)
            else:
                sizes = [given if given is not None else default
                         for given, default in zip((args.K, args.nc, args.planted, args.n, args.R),
                                                   SHAPES[shape])]
                found = digests(root, *sizes, seed)
            lines = [f"{h}  {path}" for path, h in found.items()]
        combined = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        if len(pairs) == 1:
            print("\n".join(lines))
            print(f"{combined}  (combined)")
        else:
            print(f"{combined}  (combined) {shape} seed {seed}", flush=True)
