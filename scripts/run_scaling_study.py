#!/usr/bin/env python3
"""Scaling study over water-like clusters in two screening regimes.

Reproduces the complexity-onset measurement: ERI shell-quartet counts (the
machine-independent cost observable) for the naive and symmetry drivers over
a size series, one CSV per regime, plus a log-log slope summary on stdout.

Usage: python scripts/run_scaling_study.py [--sizes 10,20,30,50,70]
                                           [--seed 3] [--outdir results]
"""

import argparse
import csv
import math
import pathlib
import sys

from hexfock import InvalidArgumentError
from hexfock.cli import RunConfig, scaling_series

REGIMES = ((1e-8, 1e-11), (1e-10, 1e-13))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10,20,30,50,70")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    try:
        sizes = [int(t) for t in args.sizes.split(",")]
        RunConfig(seed=args.seed).validate(sizes)
    except (ValueError, InvalidArgumentError) as exc:
        ap.error(f"--sizes {args.sizes!r}: {exc}")
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name
        ap.error(f"--outdir {args.outdir!r}: {exc}")

    for tau_2e, tau_ovlp in REGIMES:
        config = RunConfig(system=f"water:{sizes[-1]}", tau_2e=tau_2e,
                           tau_ovlp=tau_ovlp, seed=args.seed)
        path = outdir / f"scaling_{tau_2e:.0e}_{tau_ovlp:.0e}.csv"
        with open(path, "w", newline="") as fh:
            scaling_series(config, sizes, fh)
        print(f"wrote {path}")

        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["mode"] == "symmetry"]
        print(f"regime ({tau_2e:g}, {tau_ovlp:g}): incremental log-log "
              "slopes of eri_quartets vs N")
        for prev, cur in zip(rows, rows[1:]):
            slope = (math.log(int(cur["eri_quartets"])
                              / int(prev["eri_quartets"]))
                     / math.log(int(cur["n_functions"])
                                / int(prev["n_functions"])))
            print(f"  N {prev['n_functions']:>4} -> {cur['n_functions']:>4}: "
                  f"{slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
