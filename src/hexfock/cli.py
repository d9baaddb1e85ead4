"""Command-line harness: single exchange builds and scaling series.

Single runs emit a JSON report in the shape of the shipped
``report_schema.json`` (the tests validate reports against it; ``run`` does
not); ``--series`` runs the naive and symmetry drivers over a list of
cluster sizes and emits a CSV whose counter columns are the
machine-independent scaling observables (timings are secondary and
hardware-dependent).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
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

SCHEMA_VERSION = 3
MODES = ("naive", "symmetry", "dense", "dense-screened")
ORDERINGS = ("hilbert", "input")

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
    """Every run setting with its default; the parser takes its defaults here."""

    system: str = "water:10"
    density: str = f"exp:gamma={DEFAULT_GAMMA}"
    tau_2e: float = 1e-8
    tau_ovlp: float = 1e-11
    leaf_size: int = DEFAULT_LEAF_SIZE
    mode: str = "symmetry"
    order: str = "hilbert"
    seed: int = 3
    reference: str | None = None
    out: str | None = None

    def validate(self, sizes=None) -> None:
        """Raise InvalidArgumentError naming the flag of the first bad setting;
        ``sizes``, when given, are the --series sizes that replace N of water:N.
        """
        for flag, tau in (("--tau-2e", self.tau_2e),
                          ("--tau-ovlp", self.tau_ovlp)):
            if not (math.isfinite(tau) and tau >= 0.0):
                raise InvalidArgumentError(
                    f"{flag} must be a finite number >= 0, got {tau!r}")
        if self.leaf_size < 1:
            raise InvalidArgumentError("--leaf-size must be >= 1")
        if self.mode not in MODES:
            raise InvalidArgumentError(
                f"--mode must be one of {MODES}, got {self.mode!r}")
        if self.reference is not None and self.reference not in MODES:
            raise InvalidArgumentError(
                f"--reference must be one of {MODES}, got {self.reference!r}")
        if self.order not in ORDERINGS:
            raise InvalidArgumentError(
                f"--order must be one of {ORDERINGS}, got {self.order!r}")
        kind, _ = _parse_system_spec(self.system)
        _parse_density_spec(self.density)
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise InvalidArgumentError(
                f"--out {self.out!r}: its directory does not exist")
        if self.out and os.path.isdir(self.out):
            raise InvalidArgumentError(f"--out {self.out!r} is a directory")
        if sizes is None:
            return
        if not sizes:
            raise InvalidArgumentError("--series requires at least one size")
        if not all(isinstance(n, int) and n >= 1 for n in sizes):
            raise InvalidArgumentError(
                f"--series sizes must be integers >= 1, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidArgumentError("--series sizes must be strictly ascending")
        if kind != "water":
            raise InvalidArgumentError(
                "--series requires a water:N system (sizes replace N)")
        if self.reference is not None:
            raise InvalidArgumentError("--reference cannot be used with --series")


def _parse_system_spec(spec: str):
    kind, sep, arg = spec.partition(":")
    if kind == "water":
        if not sep or not arg.isdecimal() or int(arg) < 1:
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
        try:
            return DensityModel(kind="exp_decay", gamma=gamma)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"--density {exc}") from None
    if kind == "file":
        if not sep or not arg:
            raise InvalidArgumentError("--density file:PATH requires a path")
        return DensityModel(kind="file", path=arg)
    raise InvalidArgumentError(
        f"--density must be exp:gamma=G or file:PATH, got {spec!r}")


def _build_inputs(config: RunConfig):
    """Materialize (system, n_molecules, P) for a config; applies ordering."""
    kind, arg = _parse_system_spec(config.system)
    if kind == "water":
        n_molecules = arg
        system = generate_cluster(n_molecules, seed=config.seed)
    else:
        n_molecules = None
        try:
            system = load_xyz(arg)
        except (OSError, UnicodeDecodeError, FormatError,
                UnsupportedElementError) as exc:
            raise InvalidArgumentError(f"--system xyz: {exc}") from exc
    # P is built in input shell order, the order file densities are indexed
    # in, then permuted alongside any reordering
    try:
        P = build_density(system, _parse_density_spec(config.density))
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"--density file: {exc}") from exc
    if config.order == "hilbert":
        system, perm = hilbert_order(system)
        P = P[np.ix_(perm, perm)]
    return system, n_molecules, P


def _execute(config: RunConfig, mode: str, system, P):
    """Run one driver/oracle; returns (K, counters_dict, case_occurrences)."""
    counters = {}
    if mode == "dense":
        K = dense_exchange(system, P)
    elif mode == "dense-screened":
        K, skipped = dense_exchange_screened(system, P, config.tau_2e)
        counters = {"skipped_bound_sum": skipped}
    else:
        root = build_partition(system, leaf_size=config.leaf_size)
        pairs = build_pair_tree(system, root, tau_ovlp=config.tau_ovlp)
        P_tree = build_matrix_tree(P, root)
        if mode == "naive":
            K, c = build_exchange_naive(pairs, pairs, P_tree, config.tau_2e)
        else:
            K, c = build_exchange_symmetric(pairs, P_tree, config.tau_2e)
        counters = c.to_dict()
    return K, counters, counters.get("case_tasks",
                                     dict.fromkeys(CASE_LABELS, 0))


class _Overflow(InvalidArgumentError):
    """A density whose K, K's norm or culled-bound ledger overflows."""


def _checked(config: RunConfig, mode: str, system, P):
    """_execute with overflow checked, the one path of single runs and
    series; returns (K, counters_dict, case_occurrences, wall seconds, K's
    Frobenius norm). Raises _Overflow, an InvalidArgumentError, when K's
    norm or the culled-bound ledger is not finite: P's magnitude overflows
    double precision on the way."""
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):  # checked below
        K, counters, cases = _execute(config, mode, system, P)
        wall = time.perf_counter() - t0
        k_frobenius = float(np.linalg.norm(K))  # not finite if K overflows
    ledger = counters.get("culled_bound_ledger",
                          counters.get("skipped_bound_sum", 0.0))
    if not (math.isfinite(k_frobenius) and math.isfinite(ledger)):
        raise _Overflow(
            f"density magnitude max|P| = {float(np.abs(P).max()):.3e} "
            "overflows double precision in K, its norm or the culled-bound "
            "ledger; rescale the density")
    return K, counters, cases, wall, k_frobenius


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
    K, counters, cases, wall, k_frobenius = _checked(config, config.mode,
                                                     system, P)
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
        K_ref = _checked(config, config.reference, system, P)[0]
        report["comparison"] = {"reference_mode": config.reference,
                                **asdict(compare(K, K_ref))}
    return report


def scaling_series(config: RunConfig, sizes, stream) -> None:
    """Write the scaling CSV for ascending cluster sizes to ``stream``.

    One row per (size, mode) with the configured screening regime; both
    drivers run at each size so the naive/symmetry time ratio is available.
    A failure mid-series leaves the rows written so far in place and appends
    a trailing error record; it is raised as a RuntimeError, except an
    overflowing density, raised as the single run raises it (_checked).
    """
    sizes = list(sizes)
    config.validate(sizes)
    writer = csv.writer(stream)
    writer.writerow(SERIES_COLUMNS)
    for n in sizes:
        try:
            system, _, P = _build_inputs(replace(config, system=f"water:{n}"))
            results = {mode: _checked(config, mode, system, P)[1:]
                       for mode in ("naive", "symmetry")}
        except Exception as exc:
            writer.writerow(["ERROR", f"size {n}: {exc}"])
            if isinstance(exc, _Overflow):
                raise
            # a mid-series failure is a runtime failure even when the root
            # cause is an input problem only visible at this size
            raise RuntimeError(f"series failed at size {n}: {exc}") from exc
        ratio = results["naive"][2] / max(results["symmetry"][2], 1e-12)
        for mode in ("naive", "symmetry"):
            counters, cases, wall, _ = results[mode]
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
    d = RunConfig()
    p = argparse.ArgumentParser(
        prog="hexfock",
        description="Recursive Fock-exchange builder and scaling harness")
    p.add_argument("--tau-2e", type=float, default=d.tau_2e, dest="tau_2e",
                   help="two-electron screening threshold (default %(default)s)")
    p.add_argument("--tau-ovlp", type=float, default=d.tau_ovlp, dest="tau_ovlp",
                   help="overlap pruning threshold (default %(default)s)")
    p.add_argument("--leaf-size", type=int, default=d.leaf_size,
                   dest="leaf_size", help="max shells per tree leaf")
    p.add_argument("--mode", default=d.mode, choices=MODES)
    p.add_argument("--order", default=d.order, choices=ORDERINGS,
                   help="shell ordering")
    p.add_argument("--system", default=d.system,
                   help="water:N (synthetic cluster) or xyz:PATH")
    p.add_argument("--density", default=d.density,
                   help="exp:gamma=G or file:PATH")
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--reference", default=d.reference, choices=MODES,
                   help="also run this mode and report a comparison")
    p.add_argument("--out", default=d.out,
                   help="output path (JSON report, or CSV with --series)")
    p.add_argument("--series", default=None,
                   help='comma-separated cluster sizes, e.g. "10,30,50"')
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    series = args.pop("series")
    config = RunConfig(**args)
    try:
        sizes = None if series is None else _parse_sizes(series)
        config.validate(sizes)
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
