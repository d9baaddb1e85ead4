"""The benchmark's workloads: which inputs one run builds, and why.

Every workload drives the library the way ``hexfock.cli`` does for one run
(generate_cluster -> hilbert_order -> build_partition -> build_pair_tree ->
build_density -> build_matrix_tree -> driver), with library defaults.

The clusters are fixed per workload and the workload seed draws the density
(and the gate's ERI sample). Random water clusters of these sizes differ by
up to 2x in build time from one cluster seed to the next, and even 0.1 Bohr
displacements move task counts by up to a third, which would swamp any
change a run is meant to detect. Sizes are chosen so that a run, with the
gate's reference builds, fits in about 40 s on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_molecules: int
    tau_2e: float
    tau_ovlp: float
    leaf_size: int
    driver: str        # "symmetry" or "naive"
    clusters: tuple    # cluster seed of each geometry


WORKLOADS = {w.name: w for w in (
    # Production SCF regime at the default leaf size: ~1.6e4 tasks and ~10
    # quartets per leaf task, so traversal and the Boys/ERI kernel dominate.
    Workload(
        name="scf-w24",
        why="SCF: repeated symmetry-driver builds on one pair tree; stresses "
            "traversal, Boys/ERI kernel and leaf-cache reuse",
        n_molecules=24, tau_2e=1e-8, tau_ovlp=1e-11, leaf_size=10,
        driver="symmetry", clusters=(3,)),
    # Few, large leaves at tight thresholds: 110 tasks, 100 leaf tasks, each
    # screening dense 4-slot bound blocks and scattering with dense
    # indicator matmuls; a kernel that scales with kept quartets gains here.
    Workload(
        name="leaf40-tight-w24",
        why="leaf size 40 at tight thresholds: ~100 leaf tasks dominated by "
            "leaf screening and dense scatter; traversal and ERIs are small",
        n_molecules=24, tau_2e=1e-10, tau_ovlp=1e-13, leaf_size=40,
        driver="symmetry", clusters=(3,)),
    # Geometry scan at loose thresholds: two clusters, each set up from
    # scratch, so set-up (overlap matrix, pair tree) is its largest share;
    # the only workload on the naive driver.
    Workload(
        name="scan-naive-w30",
        why="geometry scan on the naive driver: set-up per geometry is a large "
            "share; runs exchange_naive and its full-orientation leaf caches",
        n_molecules=30, tau_2e=1e-6, tau_ovlp=1e-9, leaf_size=10,
        driver="naive", clusters=(3, 4)),
)}
