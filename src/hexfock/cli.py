"""Command-line harness: single exchange builds and scaling series.

Single runs emit a JSON report (validated against the shipped
``report_schema.json``); ``--series`` runs the naive and symmetry drivers
over a list of cluster sizes and emits a CSV whose counter columns are the
machine-independent scaling observables (timings are secondary and
hardware-dependent).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from .basis import (FormatError, InvalidArgumentError, UnsupportedElementError,
                    generate_cluster, hilbert_order, load_xyz)
from .density import DEFAULT_GAMMA, DensityModel, build_density
from .exchange_naive import build_exchange_naive
from .exchange_symmetry import CASE_LABELS, build_exchange_symmetric
from .oracle import compare, dense_exchange, dense_exchange_screened
from .quadtree import (DEFAULT_LEAF_SIZE, build_matrix_tree, build_pair_tree,
                       build_partition)

SCHEMA_VERSION = 2
MODES = ("naive", "symmetry", "dense", "dense-screened")
BOUND_MODES = ("schwarz", "literal")
ORDERINGS = ("hilbert", "input")
DEFAULT_SEED = 3

# Largest system, in shells, that --mode or --reference dense/dense-screened
# accepts. The dense oracle's time grows as n_shells^4: it took 12.7 s of
# CPU time at 72 shells (water:18) on a 2-core x86-64 box, so 180 shells
# (water:45) take about 8 minutes and water:70 (280 shells) about 50.
DENSE_MAX_SHELLS = 180

SERIES_COLUMNS = (
    ["n", "n_functions", "mode", "tau_2e", "tau_ovlp", "wall_seconds",
     "eri_quartets", "leaf_contractions", "tasks_culled"]
    + [f"case_{label}" for label in CASE_LABELS]
    + ["naive_symmetry_time_ratio"]
)


@dataclass
class RunConfig:
    system: str = "water:10"
    density: str = f"exp:gamma={DEFAULT_GAMMA}"
    tau_2e: float = 1e-8
    tau_ovlp: float = 1e-11
    leaf_size: int = DEFAULT_LEAF_SIZE
    mode: str = "symmetry"
    bound: str = "schwarz"
    order: str = "hilbert"
    seed: int = DEFAULT_SEED
    reference: str | None = None
    out: str | None = None

    def validate(self) -> None:
        if self.tau_2e < 0.0:
            raise InvalidArgumentError("--tau-2e must be >= 0")
        if self.tau_ovlp < 0.0:
            raise InvalidArgumentError("--tau-ovlp must be >= 0")
        if self.leaf_size < 1:
            raise InvalidArgumentError("--leaf-size must be >= 1")
        if self.mode not in MODES:
            raise InvalidArgumentError(
                f"--mode must be one of {MODES}, got {self.mode!r}")
        if self.reference is not None and self.reference not in MODES:
            raise InvalidArgumentError(
                f"--reference must be one of {MODES}, got {self.reference!r}")
        if self.bound not in BOUND_MODES:
            raise InvalidArgumentError(
                f"--bound must be one of {BOUND_MODES}, got {self.bound!r}")
        if self.order not in ORDERINGS:
            raise InvalidArgumentError(
                f"--order must be one of {ORDERINGS}, got {self.order!r}")
        _parse_system_spec(self.system)
        _parse_density_spec(self.density)


def _parse_system_spec(spec: str):
    kind, sep, arg = spec.partition(":")
    if kind == "water":
        if not sep or not arg.isdigit() or int(arg) < 1:
            raise InvalidArgumentError(
                "--system water:N requires a positive integer N")
        return ("water", int(arg))
    if kind == "xyz":
        if not sep or not arg:
            raise InvalidArgumentError("--system xyz:PATH requires a path")
        return ("xyz", arg)
    raise InvalidArgumentError(
        f"--system must be water:N or xyz:PATH, got {spec!r}")


def _parse_density_spec(spec: str):
    kind, sep, arg = spec.partition(":")
    if kind == "exp":
        gamma = DEFAULT_GAMMA
        if sep:
            key, eq, val = arg.partition("=")
            if key != "gamma" or not eq:
                raise InvalidArgumentError(
                    "--density exp takes the form exp:gamma=G")
            try:
                gamma = float(val)
            except ValueError:
                raise InvalidArgumentError(
                    f"--density gamma is not a number: {val!r}") from None
        return DensityModel(kind="exp_decay", gamma=gamma)
    if kind == "file":
        if not sep or not arg:
            raise InvalidArgumentError("--density file:PATH requires a path")
        return DensityModel(kind="file", path=arg)
    raise InvalidArgumentError(
        f"--density must be exp:gamma=G or file:PATH, got {spec!r}")


def _build_inputs(config: RunConfig, n_override: int | None = None):
    """Materialize (system, n_molecules, P) for a config; applies ordering."""
    kind, arg = _parse_system_spec(config.system)
    if kind == "water":
        n_molecules = arg if n_override is None else n_override
        system = generate_cluster(n_molecules, seed=config.seed)
    else:
        if n_override is not None:
            raise InvalidArgumentError(
                "--series requires a water:N system (sizes replace N)")
        n_molecules = None
        try:
            system = load_xyz(arg)
        except (OSError, FormatError, UnsupportedElementError) as exc:
            raise InvalidArgumentError(f"--system xyz: {exc}") from exc
    model = _parse_density_spec(config.density)
    if model.kind == "file":
        # file densities are indexed in the input shell order; load first,
        # then permute rows/columns alongside any reordering
        try:
            P = build_density(system, model)
        except OSError as exc:
            raise InvalidArgumentError(f"--density file: {exc}") from exc
        if config.order == "hilbert":
            system, perm = hilbert_order(system)
            P = P[np.ix_(perm, perm)]
        return system, n_molecules, P
    if config.order == "hilbert":
        system, _ = hilbert_order(system)
    return system, n_molecules, build_density(system, model)


def _execute(config: RunConfig, mode: str, system, P):
    """Run one driver/oracle; returns (K, counters_dict, case_occurrences)."""
    if mode == "dense":
        K = dense_exchange(system, P)
        return K, {}, {label: 0 for label in CASE_LABELS}
    if mode == "dense-screened":
        K, skipped = dense_exchange_screened(system, P, config.tau_2e,
                                             mode=config.bound)
        return K, {"skipped_bound_sum": skipped}, \
            {label: 0 for label in CASE_LABELS}
    partition = build_partition(system, leaf_size=config.leaf_size)
    pairs = build_pair_tree(system, partition, tau_ovlp=config.tau_ovlp)
    P_tree = build_matrix_tree(P, partition)
    if mode == "naive":
        K, counters = build_exchange_naive(
            pairs, pairs, P_tree, config.tau_2e, mode=config.bound)
        return K, counters.to_dict(), {label: 0 for label in CASE_LABELS}
    K, counters = build_exchange_symmetric(
        pairs, P_tree, config.tau_2e, mode=config.bound)
    d = counters.to_dict()
    return K, d, d["case_tasks"]


def run(config: RunConfig) -> dict:
    """Execute one configured build and return the report dictionary."""
    config.validate()
    system, n_molecules, P = _build_inputs(config)
    for flag, mode in (("--mode", config.mode),
                       ("--reference", config.reference)):
        if mode in ("dense", "dense-screened") \
                and system.n_shells > DENSE_MAX_SHELLS:
            raise InvalidArgumentError(
                f"{flag} {mode}: the system has {system.n_shells} shells, "
                f"above the dense-oracle limit of {DENSE_MAX_SHELLS} shells")
    t0 = time.perf_counter()
    K, counters, cases = _execute(config, config.mode, system, P)
    wall = time.perf_counter() - t0
    k_frobenius = float(np.linalg.norm(K))  # not finite if any K entry is not
    ledger = counters.get("culled_bound_ledger",
                          counters.get("skipped_bound_sum", 0.0))
    if not (math.isfinite(k_frobenius) and math.isfinite(ledger)):
        raise InvalidArgumentError(
            f"density magnitude max|P| = {float(np.abs(P).max()):.3e} "
            "overflows double precision in K, its norm or the culled-bound "
            "ledger; rescale the density")
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": asdict(config),
        "system": {
            "n_molecules": n_molecules,
            "n_shells": system.n_shells,
            "n_functions": system.n_functions,
        },
        "mode": config.mode,
        "wall_seconds": wall,
        "k_frobenius": k_frobenius,
        "counters": counters,
        "case_occurrences": cases,
        "comparison": None,
    }
    if config.reference is not None:
        K_ref, _, _ = _execute(config, config.reference, system, P)
        report["comparison"] = {"reference_mode": config.reference,
                                **compare(K, K_ref).to_dict()}
    return report


def scaling_series(config: RunConfig, sizes, stream) -> None:
    """Write the scaling CSV for ascending cluster sizes to ``stream``.

    One row per (size, mode) with the configured screening regime; both
    drivers run at each size so the naive/symmetry time ratio is available.
    A failure mid-series leaves the rows written so far in place and appends
    a trailing error record.
    """
    config.validate()
    sizes = list(sizes)
    if not sizes:
        raise InvalidArgumentError("--series requires at least one size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidArgumentError("--series sizes must be strictly ascending")
    writer = csv.writer(stream)
    writer.writerow(SERIES_COLUMNS)
    for n in sizes:
        try:
            system, _, P = _build_inputs(config, n_override=n)
            results = {}
            for mode in ("naive", "symmetry"):
                t0 = time.perf_counter()
                _, counters, cases = _execute(config, mode, system, P)
                results[mode] = (time.perf_counter() - t0, counters, cases)
        except Exception as exc:
            writer.writerow(["ERROR", f"size {n}: {exc}"])
            # a mid-series failure is a runtime failure even when the root
            # cause is an input problem only visible at this size
            raise RuntimeError(f"series failed at size {n}: {exc}") from exc
        ratio = results["naive"][0] / max(results["symmetry"][0], 1e-12)
        for mode in ("naive", "symmetry"):
            wall, counters, cases = results[mode]
            culled = counters["tasks_culled_screening"] \
                + counters["tasks_culled_absent"]
            writer.writerow(
                [n, system.n_functions, mode, repr(config.tau_2e),
                 repr(config.tau_ovlp), f"{wall:.6f}",
                 counters["eri_shell_quartets"],
                 counters["leaf_contractions"], culled]
                + [cases[label] for label in CASE_LABELS]
                + [f"{ratio:.6f}"])


def load_report_schema() -> dict:
    """The JSON schema every emitted report must validate against."""
    text = resources.files("hexfock").joinpath("report_schema.json").read_text()
    return json.loads(text)


def _parse_sizes(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgumentError(
            f"--series must be a comma-separated integer list, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hexfock",
        description="Recursive Fock-exchange builder and scaling harness")
    p.add_argument("--tau-2e", type=float, default=1e-8, dest="tau_2e",
                   help="two-electron screening threshold (default 1e-8)")
    p.add_argument("--tau-ovlp", type=float, default=1e-11, dest="tau_ovlp",
                   help="overlap pruning threshold (default 1e-11)")
    p.add_argument("--leaf-size", type=int, default=DEFAULT_LEAF_SIZE,
                   dest="leaf_size", help="max shells per tree leaf")
    p.add_argument("--mode", default="symmetry", choices=MODES)
    p.add_argument("--bound", default="schwarz", choices=BOUND_MODES,
                   help="screening bound form")
    p.add_argument("--order", default="hilbert", choices=ORDERINGS,
                   help="shell ordering")
    p.add_argument("--system", default="water:10",
                   help="water:N (synthetic cluster) or xyz:PATH")
    p.add_argument("--density", default=f"exp:gamma={DEFAULT_GAMMA}",
                   help="exp:gamma=G or file:PATH")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--reference", default=None, choices=MODES,
                   help="also run this mode and report a comparison")
    p.add_argument("--out", default=None,
                   help="output path (JSON report, or CSV with --series)")
    p.add_argument("--series", default=None,
                   help='comma-separated cluster sizes, e.g. "10,30,50"')
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        system=args.system, density=args.density, tau_2e=args.tau_2e,
        tau_ovlp=args.tau_ovlp, leaf_size=args.leaf_size, mode=args.mode,
        bound=args.bound, order=args.order, seed=args.seed,
        reference=args.reference, out=args.out)
    try:
        config.validate()
        sizes = _parse_sizes(args.series) if args.series is not None else None
        if sizes is not None and not sizes:
            raise InvalidArgumentError("--series requires at least one size")
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if sizes is not None:
            if config.out:
                with open(config.out, "w", newline="") as fh:
                    scaling_series(config, sizes, fh)
            else:
                scaling_series(config, sizes, sys.stdout)
        else:
            report = run(config)
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
            if config.out:
                with open(config.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, partial outputs preserved
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
