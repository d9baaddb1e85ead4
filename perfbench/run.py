"""Exchange-build benchmark for hexfock.

    python3 perfbench/run.py --workload scf-w24 --seed 3 --seconds 34 --trace 0

Run it from a checkout; it imports hexfock from the checkout's ``src/``.
One invocation runs one workload (see ``workloads.py``) in this fresh
interpreter and prints one line per metric, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run repeats cycles until ``--seconds`` are used (at least one round). A
cycle sets up the pair tree of one geometry from scratch, times one cold K
build on it (leaf caches empty) and then one warm build on the same tree;
rounds visit every geometry once, in turn, so each metric samples the whole
run. Each metric is the median over a geometry's
cycles, averaged over geometries. Every build of a geometry uses one
density, with gamma drawn from the workload seed near 2.0, so all builds of
a geometry repeat the same inputs and the gate demands identical driver
counters across them.

With ``--trace 0`` the metrics are end to end (``setup_s``, ``k_cold_s``,
``k_warm_s``, ``peak_rss_mb``). With ``--trace 1`` the same schedule runs
under the span recorder of ``tracer.py`` and the metrics are per layer; the
spans are written to ``perfbench/out/``. After the timed work, and outside
every timed region, each K passes the correctness gate of ``gate.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

if not (ROOT / "src" / "hexfock" / "__init__.py").is_file():
    sys.exit(f"error: hexfock sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from hexfock import (basis, density, exchange_naive,  # noqa: E402
                     exchange_symmetry, integrals, quadtree)

import gate  # noqa: E402
from tracer import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GAMMA_CENTER = 2.0
GAMMA_HALF_WIDTH = 0.02
MAX_ROUNDS = 50

DRIVER_FUNCTION = {"symmetry": "exchange_symmetry.build_exchange_symmetric",
                   "naive": "exchange_naive.build_exchange_naive"}
DRIVER_COUNTERS = ("tasks_visited", "tasks_culled_screening",
                   "tasks_culled_absent", "leaf_contractions",
                   "eri_shell_quartets", "quartets_culled_leaf")
SYMMETRY_ONLY_COUNTERS = ("links_culled_screening", "links_culled_absent")


def environment(seed: int) -> dict:
    """What the numbers were measured on; no setting here is overridden."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS NumPy loaded, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# -- tracing -----------------------------------------------------------------

def _fills(node, canonical=False):
    # leaf_cache keeps one entry per orientation in node.cache
    cache = node.cache
    return float(cache is None or ("canon" if canonical else "full") not in cache)


def install_wrappers(rec: SpanRecorder) -> None:
    """Wrap every traced library name where its caller looks it up."""
    for driver in (exchange_symmetry, exchange_naive):
        rec.wrap(driver, "eri_cross", "integrals.eri_cross",
                 lambda bra, ket: bra.n_pairs * ket.n_pairs)
        rec.wrap(driver, "eri_elementwise", "integrals.eri_elementwise",
                 lambda bra, ket, ia, ib: len(ia))
        rec.wrap(driver, "leaf_cache", "quadtree.leaf_cache", _fills)
    rec.wrap(exchange_symmetry, "symmetrize_final",
             "exchange_symmetry.symmetrize_final")
    # diagonal_values reaches eri_elementwise through the integrals module
    rec.wrap(integrals, "eri_elementwise", "integrals.eri_elementwise",
             lambda bra, ket, ia, ib: len(ia))
    rec.wrap(integrals, "boys_f0", "integrals.boys_f0",
             lambda t: float(np.size(t)))
    rec.wrap(integrals, "overlap", "integrals.overlap")
    rec.wrap(quadtree, "build_pair_data", "integrals.build_pair_data",
             lambda shells, pair_list: len(pair_list))
    rec.wrap(quadtree, "diagonal_values", "integrals.diagonal_values")
    rec.wrap(quadtree, "shell_overlap_matrix", "quadtree.shell_overlap_matrix")


def _call(rec, name, fn, *args, **kwargs):
    """Call fn, inside a span called ``name`` when tracing."""
    if rec is None:
        return fn(*args, **kwargs)
    with rec.span(name):
        return fn(*args, **kwargs)


class _Step:
    """Top-level span of one set-up or build; each starts a new run id."""

    def __init__(self, rec, kind, label):
        self.rec, self.kind, self.label = rec, kind, label

    def __enter__(self):
        if self.rec is not None:
            self.rec.begin_run(f"{self.kind}/{self.label}")
            self.idx = self.rec.open(self.kind)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        if self.rec is not None:
            self.rec.close(self.idx)
        return False


# -- the workload ------------------------------------------------------------

def density_gamma(seed: int, g: int) -> float:
    """Density decay of geometry g, drawn from the workload seed."""
    u = np.random.default_rng([seed, g]).random()
    return GAMMA_CENTER + GAMMA_HALF_WIDTH * (2.0 * u - 1.0)


def set_up(w, cluster_seed, rec=None):
    """Workload inputs to a ready pair tree, as ``hexfock.cli`` does it."""
    system = _call(rec, "basis.generate_cluster", basis.generate_cluster,
                   w.n_molecules, seed=cluster_seed)
    system, _ = _call(rec, "basis.hilbert_order", basis.hilbert_order, system)
    partition = _call(rec, "quadtree.build_partition", quadtree.build_partition,
                      system, leaf_size=w.leaf_size)
    pairs = _call(rec, "quadtree.build_pair_tree", quadtree.build_pair_tree,
                  system, partition, tau_ovlp=w.tau_ovlp)
    return system, partition, pairs


def build(w, system, partition, pairs, gamma, rec=None, evaluate=True):
    """One K build: density, density tree, driver (library defaults)."""
    P = _call(rec, "density.build_density", density.build_density,
              system, density.DensityModel(gamma=gamma))
    P_tree = _call(rec, "quadtree.build_matrix_tree", quadtree.build_matrix_tree,
                   P, partition)
    fn = DRIVER_FUNCTION[w.driver]
    if w.driver == "symmetry":
        K, counters = _call(rec, fn,
                            exchange_symmetry.build_exchange_symmetric,
                            pairs, P_tree, w.tau_2e, evaluate=evaluate)
    else:
        K, counters = _call(rec, fn, exchange_naive.build_exchange_naive,
                            pairs, pairs, P_tree, w.tau_2e, evaluate=evaluate)
    return K, counters.to_dict()


def _tree_stats(node):
    nodes = pruned = 0
    stack = [node]
    while stack:
        nd = stack.pop()
        nodes += 1
        pruned += nd.pruned
        stack.extend(nd.children.values())
    return nodes, pruned


def _build_times(geo, kind, traced) -> list[float]:
    return [b["seconds"] for b in geo["builds"]
            if b["kind"] == kind and b["traced"] == traced]


def new_geometry(w, seed: int, g: int) -> dict:
    """Inputs of geometry g of a run, and the lists its cycles fill."""
    return {"cluster": w.clusters[g], "gamma": density_gamma(seed, g),
            "setup_s": [], "builds": [], "tree": None}


def run_cycle(w, geo, g, rec=None) -> None:
    """One cycle on one geometry: a set-up, its cold build, one warm build.

    Every cycle of a geometry repeats the same inputs on a fresh pair tree,
    so each cycle gives one more set-up and cold-build sample. When tracing,
    the cycle adds a count-only pass and one warm build with the wrappers
    out, whose time against the traced warm builds is the tracing overhead.
    """
    label = f"{g}.{len(geo['setup_s'])}"
    with _Step(rec, "setup", label) as step:
        system, partition, pairs = set_up(w, geo["cluster"], rec)
    geo["setup_s"].append(step.seconds)
    geo["tree"] = _tree_stats(pairs)

    def timed_build(kind, rec):
        K = counters = error = None
        with _Step(rec, "build", label) as step:
            try:
                K, counters = build(w, system, partition, pairs, geo["gamma"],
                                    rec)
            except Exception:  # a build that raises is a failed build
                error = traceback.format_exc()
        geo["builds"].append({"kind": kind, "seconds": step.seconds, "K": K,
                              "counters": counters, "error": error,
                              "traced": rec is not None})

    timed_build("cold", rec)
    timed_build("warm", rec)
    if rec is not None:
        with _Step(rec, "count_only", label):
            build(w, system, partition, pairs, geo["gamma"], rec,
                  evaluate=False)
        rec.uninstall()
        try:
            timed_build("warm", None)
        finally:
            install_wrappers(rec)


def gate_geometry(w, geo, rng, perturb=None) -> list[list[str]]:
    """Problems of each build of one geometry (empty list: build passed).

    The reference K comes from the other driver on a pair tree set up again
    from the same inputs; ``rng`` samples its evaluated quartets for the ERI
    check. If the reference or the ERI sample raises, every build of the
    geometry fails with that traceback.
    """
    try:
        K_ref, eri_problems = reference(w, geo, rng)
    except Exception:  # no reference: no build of this geometry passes
        error = f"reference raised:\n{traceback.format_exc()}"
        return [[error] for _ in geo["builds"]]
    first = next((b["counters"] for b in geo["builds"] if b["error"] is None),
                 None)
    problems = []
    for b in geo["builds"]:
        if b["error"] is not None:
            problems.append([f"build raised:\n{b['error']}"])
            continue
        K = b["K"] if perturb is None else perturb(b["K"])
        p = gate.k_problems(K, K_ref, symmetric=w.driver == "symmetry")
        if b["counters"] != first:
            p.append("driver counters differ from the first build's")
        problems.append(p + eri_problems)
    return problems


def reference(w, geo, rng):
    """The other driver's K for geometry ``geo``, and the ERI-sample problems."""
    system, partition, pairs = set_up(w, geo["cluster"])
    P_tree = quadtree.build_matrix_tree(
        density.build_density(system, density.DensityModel(gamma=geo["gamma"])),
        partition)
    log = []
    if w.driver == "naive":
        K_ref, _ = exchange_symmetry.build_exchange_symmetric(
            pairs, P_tree, w.tau_2e, quartet_log=log)
    else:
        K_ref, _ = exchange_naive.build_exchange_naive(
            pairs, pairs, P_tree, w.tau_2e, quartet_log=log)
    picks = gate.sample_quartets(log, rng)
    return K_ref, gate.eri_problems(system.shells, picks,
                                    library_eris(system.shells, picks))


def library_eris(shells, quartets) -> dict:
    """hexfock's (mu nu|lam sig) for each quartet, from both ERI kernels."""
    if not quartets:
        return {}
    bra = integrals.build_pair_data(shells, [q[:2] for q in quartets])
    ket = integrals.build_pair_data(shells, [q[2:] for q in quartets])
    idx = np.arange(len(quartets))
    return {"eri_elementwise": integrals.eri_elementwise(bra, ket, idx, idx),
            "eri_cross": np.diag(integrals.eri_cross(bra, ket))}


def run_workload(w, seed: int, seconds: float, trace: bool, perturb=None) -> dict:
    """Run one workload; returns its metrics, samples and gate outcome.

    ``perturb``, when given, is applied to every timed K before the gate
    sees it; the self-test uses it to prove that a wrong K counts as failed.
    """
    rec = SpanRecorder() if trace else None
    if rec is not None:
        install_wrappers(rec)
    geos = [new_geometry(w, seed, g) for g in range(len(w.clusters))]
    try:
        t_start = time.perf_counter()
        rounds, last = 0, 0.0
        # a round is one cycle per geometry; rounds repeat while another
        # one is expected to end within --seconds
        while (rounds < MAX_ROUNDS
               and time.perf_counter() + last <= t_start + seconds):
            t0 = time.perf_counter()
            for g, geo in enumerate(geos):
                run_cycle(w, geo, g, rec)
            last = time.perf_counter() - t0
            rounds += 1
    finally:
        if rec is not None:
            rec.uninstall()
    # read before the gate's reference builds, which are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for g, geo in enumerate(geos):
        # the ERI sample is drawn from the workload seed too
        rng = np.random.default_rng([seed, g, 1])
        problems.extend(gate_geometry(w, geo, rng, perturb))
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        for msg in p:
            print(f"gate: build {i}: {msg}", file=sys.stderr)

    samples = {
        "setup_s": [geo["setup_s"] for geo in geos],
        "k_cold_s": [_build_times(geo, "cold", trace) for geo in geos],
        "k_warm_s": [_build_times(geo, "warm", trace) for geo in geos],
    }
    result = {
        "workload": w.name,
        "env": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "metrics": {},
    }
    if trace:
        result["metrics"] = layer_metrics(w, rec, geos)
        OUT_DIR.mkdir(exist_ok=True)
        rec.write(OUT_DIR / f"trace-{w.name}-seed{seed}.json.gz")
    else:
        # median over the cycles of each geometry, mean over geometries
        result["metrics"] = {
            name: (statistics.fmean(map(statistics.median, per_geo)), "s")
            for name, per_geo in samples.items()}
        result["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB")
    result["metrics"]["build_failure_ratio"] = (failed / attempted, "ratio")
    return result


def layer_metrics(w, rec, geos) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).

    Build-phase layers are means per traced build; set-up layers, count-only
    passes and leaf-cache fills are means per cycle (one set-up, one cold
    build). Layers a workload does not run read 0.
    """
    agg = rec.aggregate()
    traced = [b for geo in geos for b in geo["builds"] if b["traced"]]
    n_builds = len(traced)
    n_cycles = sum(len(geo["setup_s"]) for geo in geos)

    def get(kind, name, field="s"):
        return agg.get((kind, name), {}).get(field, 0.0)

    m = {}
    for drv, fn in DRIVER_FUNCTION.items():
        m[f"{fn}.s"] = (get("build", fn) / n_builds, "s")
        m[f"{fn}.self_s"] = (get("build", fn, "self_s") / n_builds, "s")
        m[f"{fn}.count_only_s"] = (get("count_only", fn) / n_cycles, "s")
        mod = fn.split(".")[0]
        ran = drv == w.driver
        names = DRIVER_COUNTERS + (SYMMETRY_ONLY_COUNTERS
                                   if drv == "symmetry" else ())
        for c in names:
            v = statistics.fmean(b["counters"][c] for b in traced) if ran else 0.0
            m[f"{mod}.{c}"] = (v, "count")
        visited = m[f"{mod}.tasks_visited"][0]
        culled = (m[f"{mod}.tasks_culled_screening"][0]
                  + m[f"{mod}.tasks_culled_absent"][0])
        leaves = m[f"{mod}.leaf_contractions"][0]
        m[f"{mod}.task_cull_ratio"] = (culled / visited if visited else 0.0,
                                       "ratio")
        m[f"{mod}.quartets_per_leaf"] = (
            m[f"{mod}.eri_shell_quartets"][0] / leaves if leaves else 0.0,
            "quartets/leaf")
    m["exchange_symmetry.symmetrize_final.s"] = (
        get("build", "exchange_symmetry.symmetrize_final") / n_builds, "s")

    m["integrals.eri_cross.s"] = (get("build", "integrals.eri_cross") / n_builds, "s")
    m["integrals.eri_cross.quartets"] = (
        get("build", "integrals.eri_cross", "count") / n_builds, "count")
    m["integrals.eri_elementwise.s"] = (
        get("build", "integrals.eri_elementwise") / n_builds, "s")
    m["integrals.eri_elementwise.self_s"] = (
        get("build", "integrals.eri_elementwise", "self_s") / n_builds, "s")
    m["integrals.eri_elementwise.quartets"] = (
        get("build", "integrals.eri_elementwise", "count") / n_builds, "count")
    m["integrals.boys_f0.s"] = (get("build", "integrals.boys_f0") / n_builds, "s")
    m["integrals.boys_f0.points"] = (
        get("build", "integrals.boys_f0", "count") / n_builds, "count")
    m["quadtree.leaf_cache.s"] = (get("build", "quadtree.leaf_cache") / n_builds, "s")
    m["quadtree.leaf_cache.calls"] = (
        get("build", "quadtree.leaf_cache", "calls") / n_builds, "count")
    m["quadtree.leaf_cache.fills"] = (
        get("build", "quadtree.leaf_cache", "count") / n_cycles, "count")
    m["density.build_density.s"] = (get("build", "density.build_density") / n_builds, "s")
    m["quadtree.build_matrix_tree.s"] = (
        get("build", "quadtree.build_matrix_tree") / n_builds, "s")

    for name in ("basis.generate_cluster", "basis.hilbert_order",
                 "quadtree.build_partition", "quadtree.shell_overlap_matrix",
                 "integrals.overlap", "integrals.build_pair_data",
                 "integrals.diagonal_values"):
        m[f"{name}.s"] = (get("setup", name) / n_cycles, "s")
    m["integrals.overlap.calls"] = (
        get("setup", "integrals.overlap", "calls") / n_cycles, "count")
    m["integrals.build_pair_data.pairs"] = (
        get("setup", "integrals.build_pair_data", "count") / n_cycles, "count")
    m["quadtree.build_pair_tree.self_s"] = (
        get("setup", "quadtree.build_pair_tree", "self_s") / n_cycles, "s")
    m["quadtree.build_pair_tree.nodes"] = (
        statistics.fmean(geo["tree"][0] for geo in geos), "count")
    m["quadtree.build_pair_tree.pruned"] = (
        statistics.fmean(geo["tree"][1] for geo in geos), "count")

    m["trace.overhead_s"] = (statistics.fmean(
        statistics.median(_build_times(geo, "warm", True))
        - statistics.median(_build_times(geo, "warm", False))
        for geo in geos), "s")
    return m


# -- output ------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report_lines(result: dict, trace: bool, spec: dict) -> list[str]:
    """A header, one line per metric, then the one-line JSON result.

    The JSON holds exactly the metrics ``spec`` lists for this mode.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    lines = [f"# workload {result['workload']} "
             f"env {json.dumps(result['env'], sort_keys=True)} "
             f"samples {json.dumps(result['samples'], sort_keys=True)}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value!r} {unit}")
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} != {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    lines.append(json.dumps({"correct": result["failed"] == 0,
                             "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": out}))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = load_spec()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    for line in report_lines(result, bool(args.trace), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
