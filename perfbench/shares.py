"""Per-layer share table from one traced run of each workload.

    python3 perfbench/shares.py [--seed 3] [--out perfbench/layer_shares.json]

Runs ``run.py --trace 1`` once per workload (each in a fresh interpreter,
for BENCHMARK.json's run_seconds), turns the per-layer metrics into shares of
build and set-up time, and checks the design intent the workloads were
chosen for. Later changes can point at a layer's share by name.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PARTS = ("basis.generate_cluster.s", "basis.hilbert_order.s",
               "quadtree.build_partition.s", "quadtree.shell_overlap_matrix.s",
               "integrals.build_pair_data.s", "integrals.diagonal_values.s",
               "quadtree.build_pair_tree.self_s")


def traced_metrics(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed the gate")
    return {k: v["value"] for k, v in result["metrics"].items()}


def shares(m: dict) -> dict:
    """Shares of one build (per traced build) and of one set-up."""
    drv = ("exchange_symmetry.build_exchange_symmetric"
           if m["exchange_symmetry.build_exchange_symmetric.s"]
           else "exchange_naive.build_exchange_naive")
    mod = drv.split(".")[0]
    build = (m[f"{drv}.s"] + m["density.build_density.s"]
             + m["quadtree.build_matrix_tree.s"])
    eri = m["integrals.eri_cross.s"] + m["integrals.eri_elementwise.s"]
    setup = sum(m[k] for k in SETUP_PARTS)
    return {
        "driver": drv,
        "build_s": build,
        "setup_s": setup,
        "tasks_visited": m[f"{mod}.tasks_visited"],
        "build_share": {
            f"{drv}.self_s": m[f"{drv}.self_s"] / build,
            "integrals.eri (cross + elementwise)": eri / build,
            "integrals.boys_f0.s": m["integrals.boys_f0.s"] / build,
            "quadtree.leaf_cache.s": m["quadtree.leaf_cache.s"] / build,
            "exchange_symmetry.symmetrize_final.s":
                m["exchange_symmetry.symmetrize_final.s"] / build,
            "density.build_density.s": m["density.build_density.s"] / build,
            "quadtree.build_matrix_tree.s":
                m["quadtree.build_matrix_tree.s"] / build,
        },
        "count_only_over_build": m[f"{drv}.count_only_s"] / build,
        "setup_share": {k: m[k] / setup for k in SETUP_PARTS},
        "setup_over_setup_plus_build": setup / (setup + build),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", default=str(BENCH_DIR / "layer_shares.json"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {w["name"]: shares(traced_metrics(w["name"], args.seed,
                                              spec["run_seconds"]))
             for w in spec["workloads"]}
    scf, leaf, scan = (table[w["name"]] for w in spec["workloads"])
    eri = "integrals.eri (cross + elementwise)"
    intent = {
        "scf and scan visit >= 1e4 tasks per build":
            scf["tasks_visited"] >= 1e4 and scan["tasks_visited"] >= 1e4,
        "leaf40 visits at most a few hundred tasks per build":
            leaf["tasks_visited"] <= 500,
        "ERI share of build time is higher on scf than on leaf40":
            scf["build_share"][eri] > leaf["build_share"][eri],
        "set-up share is highest on scan":
            scan["setup_over_setup_plus_build"]
            > max(scf["setup_over_setup_plus_build"],
                  leaf["setup_over_setup_plus_build"]),
    }
    doc = {"seed": args.seed, "run_seconds": spec["run_seconds"],
           "design_intent": intent, "workloads": table}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for claim, ok in intent.items():
        print(f"{'ok  ' if ok else 'FAIL'} {claim}")
    return 0 if all(intent.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
