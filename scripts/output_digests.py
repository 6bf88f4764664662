"""SHA-256 of every file that simulate -> raicarn -> mixture writes.

Runs the three CLI commands for one shape and seed in a temporary
directory, then prints one "digest  path" line per file written and a
combined digest over those lines. Two checkouts that print the same
combined digest wrote the same bytes, so a change meant to keep the
output bits is checked by one command on each.

BLAS runs on one thread, because the thread count can change the order of
a product's sums and with it the last bits of the CRCM.

Usage: python3 scripts/output_digests.py --shape paper --seed 1
       python3 scripts/output_digests.py --shape fmri --seed 2248
       python3 scripts/output_digests.py --shape null-wide --seed 1
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

from raicarn.cli import main as cli  # noqa: E402

# (K, nc, planted, n, R), the shapes of the benchmark's paper, fmri and
# null-wide workloads; the benchmark skips mixture on null-wide, this runs it
SHAPES = {
    "paper": (20, 8, 3, 2000, 1000),
    "fmri": (50, 20, 3, 20000, 100),
    "null-wide": (50, 40, 4, 2000, 50),
}


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
    # the commands' own messages go to stderr, so stdout holds only digests
    with contextlib.redirect_stdout(sys.stderr):
        for argv in steps:
            if cli(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
    found = {}
    for d in ("sim", "rep", "mix"):
        for name in sorted(os.listdir(os.path.join(root, d))):
            with open(os.path.join(root, d, name), "rb") as f:
                found[f"{d}/{name}"] = hashlib.sha256(f.read()).hexdigest()
    return found


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper",
                    help="benchmark shape; the flags below override its sizes")
    for flag in ("K", "nc", "planted", "n", "R"):
        ap.add_argument(f"--{flag}", type=int)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sizes = [given if given is not None else default
             for given, default in zip((args.K, args.nc, args.planted, args.n, args.R),
                                       SHAPES[args.shape])]
    with tempfile.TemporaryDirectory() as root:
        lines = [f"{h}  {path}" for path, h in digests(root, *sizes, args.seed).items()]
    print("\n".join(lines))
    combined = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{combined}  (combined)")
