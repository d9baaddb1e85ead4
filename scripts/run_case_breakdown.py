#!/usr/bin/env python3
"""Per-case occurrence breakdown of the symmetry-enhanced traversal.

Runs the symmetry driver on one cluster and writes the case/count/percent
CSV (both all-task and leaf-task granularity), mirroring the occurrence-by-
symmetry-block measurement.

Usage: python scripts/run_case_breakdown.py [--n 70] [--seed 3]
                                            [--tau-2e 1e-10] [--tau-ovlp 1e-13]
                                            [--outdir results]
"""

import argparse
import pathlib
import sys

from hexfock import DensityModel, InvalidArgumentError, build_density, \
    build_exchange_symmetric, generate_cluster, hilbert_order
from hexfock.cli import RunConfig
from hexfock.quadtree import build_matrix_tree, build_pair_tree, build_partition


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=70)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--tau-2e", type=float, default=1e-10, dest="tau_2e")
    ap.add_argument("--tau-ovlp", type=float, default=1e-13, dest="tau_ovlp")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    if args.n < 1:
        ap.error(f"--n must be >= 1, got {args.n}")
    try:
        RunConfig(tau_2e=args.tau_2e, tau_ovlp=args.tau_ovlp).validate()
    except InvalidArgumentError as exc:
        ap.error(str(exc))
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name
        ap.error(f"--outdir {args.outdir!r}: {exc}")

    system = generate_cluster(args.n, seed=args.seed)
    system, _ = hilbert_order(system)
    partition = build_partition(system)
    pairs = build_pair_tree(system, partition, tau_ovlp=args.tau_ovlp)
    P = build_matrix_tree(build_density(system, DensityModel()), partition)
    _, counters = build_exchange_symmetric(pairs, P, args.tau_2e,
                                           evaluate=False)

    for leaf_only, name in ((False, "cases_all_tasks.csv"),
                            (True, "cases_leaf_tasks.csv")):
        path = outdir / name
        path.write_text(counters.case_breakdown_csv(leaf_only=leaf_only))
        print(f"wrote {path}")
    print(counters.case_breakdown_csv(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
