"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload's shape on a water:5 cluster, untraced and traced, and
fails (exit 1) unless every metric BENCHMARK.json names is printed with its
unit, every build passes the gate, the tracer puts back every name it
wrapped, and a deliberately perturbed K counts as a failed build.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import WORKLOADS

TINY_MOLECULES = 5
TINY_SECONDS = 0.2
SEED = 1


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAIL: {what}")


def perturb(K):
    """A K that is wrong by far more than the gate's tolerance."""
    bad = K.copy()
    bad[0, -1] += 1e-9 * max(1.0, float(abs(K).max()))
    return bad


def traced_names():
    mods = (run.exchange_symmetry, run.exchange_naive, run.integrals,
            run.quadtree)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}


def check_printed(name: str, trace: bool, result: dict, spec: dict) -> None:
    lines = run.report_lines(result, trace, spec)
    printed = set(lines[1:-1])
    last = json.loads(lines[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(last)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(last["metrics"]) == {m["name"] for m in wanted},
          f"{name}: metrics in the result differ from BENCHMARK.json")
    for m in wanted:
        got = last["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}")
        check(f"{m['name']} {got['value']!r} {m['unit']}" in printed,
              f"{name}: no line prints {m['name']} with its unit")
    check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
          f"{name}: gate failed a correct build")


def main() -> int:
    spec = run.load_spec()
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    before = traced_names()
    for w in WORKLOADS.values():
        tiny = dataclasses.replace(w, n_molecules=TINY_MOLECULES)
        for trace in (False, True):
            result = run.run_workload(tiny, SEED, TINY_SECONDS, trace)
            check_printed(w.name, trace, result, spec)
            check(traced_names() == before,
                  f"{w.name}: a wrapped name was not restored")
        bad = run.run_workload(tiny, SEED, TINY_SECONDS, False, perturb=perturb)
        check(bad["failed"] == bad["attempted"] >= 1,
              f"{w.name}: perturbed K passed the gate")
        check(bad["metrics"]["build_failure_ratio"][0] == 1.0,
              f"{w.name}: build_failure_ratio ignores failed builds")
        print(f"selftest: {w.name}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
