import math

import numpy as np
import pytest

from hexfock.basis import Atom, BasisSystem, GaussianShell, generate_cluster
from hexfock.integrals import InvalidArgumentError, eri_quartet, overlap
from hexfock.quadtree import (build_matrix_tree, build_pair_tree,
                              build_partition, dump_tree_csv, dump_tree_text,
                              shell_overlap_matrix)

from conftest import build_setup


def _line_system(n_shells, spacing=1.0, exponent=1.0):
    shells = [GaussianShell(center=[i * spacing, 0.0, 0.0],
                            primitives=[(exponent, 1.0)])
              for i in range(n_shells)]
    for i, sh in enumerate(shells):
        sh.function_offset = i
    atoms = [Atom("H", sh.center) for sh in shells]
    return BasisSystem(shells=shells, atoms=atoms)


# ---------------------------------------------------------------- partition

def test_partition_single_leaf_when_small():
    system = _line_system(10)
    part = build_partition(system, leaf_size=10)
    assert part.root.is_leaf
    assert part.root.n_functions == 10
    assert len(part.levels) == 1


def test_partition_thirteen_shells_midpoint_split():
    system = _line_system(13)
    part = build_partition(system, leaf_size=10)
    root = part.root
    assert not root.is_leaf
    # boundaries 6 and 7 are equidistant from the midpoint 6.5; the tie
    # breaks to the left boundary, yielding a 6/7 function split
    sizes = (root.left.n_functions, root.right.n_functions)
    assert sorted(sizes) == [6, 7]
    assert sizes == (6, 7)
    assert all(leaf.n_functions <= 10 for leaf in part.leaves)


def test_partition_covers_all_shells_once():
    _, pairs, _, _ = build_setup(4)
    system = generate_cluster(4, seed=3)
    part = build_partition(system, leaf_size=10)
    covered = []
    for leaf in part.leaves:
        covered.extend(range(leaf.shell_lo, leaf.shell_hi))
    assert covered == list(range(system.n_shells))


def test_partition_leaf_size_below_shell_size_rejected():
    system = _line_system(4)
    with pytest.raises(InvalidArgumentError):
        build_partition(system, leaf_size=0)


def test_partition_deterministic():
    system = generate_cluster(6, seed=5)
    p1 = build_partition(system, leaf_size=10)
    p2 = build_partition(system, leaf_size=10)
    spans1 = [(s.shell_lo, s.shell_hi, s.fn_lo, s.fn_hi)
              for lvl in p1.levels for s in lvl]
    spans2 = [(s.shell_lo, s.shell_hi, s.fn_lo, s.fn_hi)
              for lvl in p2.levels for s in lvl]
    assert spans1 == spans2


def test_partition_depth_scales_logarithmically():
    system = generate_cluster(30, seed=3)
    part = build_partition(system, leaf_size=10)
    n = system.n_functions
    assert len(part.levels) - 1 <= math.ceil(math.log2(n / 10)) + 1


# ---------------------------------------------------------------- matrix tree

def test_matrix_tree_zero_matrix():
    system = _line_system(12)
    part = build_partition(system, leaf_size=4)
    tree = build_matrix_tree(np.zeros((12, 12)), part)
    assert tree.norm == 0.0
    assert not tree.children


def test_matrix_tree_identity_offdiag_absent():
    system = _line_system(12)
    part = build_partition(system, leaf_size=4)
    tree = build_matrix_tree(np.eye(12), part)

    def walk(node):
        if node.is_leaf:
            assert node.row is node.col
            return
        for (a, b), ch in node.children.items():
            walk(ch)
        assert (0, 1) not in node.children
        assert (1, 0) not in node.children

    walk(tree)
    assert np.array_equal(tree.dense(), np.eye(12))


def test_matrix_tree_roundtrip_bitwise():
    rng = np.random.default_rng(17)
    system = _line_system(40)
    part = build_partition(system, leaf_size=7)
    m = rng.normal(size=(40, 40))
    tree = build_matrix_tree(m, part)
    assert np.array_equal(tree.dense(), m)


def test_matrix_tree_dimension_mismatch():
    system = _line_system(12)
    part = build_partition(system, leaf_size=4)
    with pytest.raises(InvalidArgumentError):
        build_matrix_tree(np.zeros((11, 11)), part)


def test_matrix_tree_norm_telescoping():
    rng = np.random.default_rng(23)
    system = _line_system(33)
    part = build_partition(system, leaf_size=6)
    tree = build_matrix_tree(rng.normal(size=(33, 33)), part)

    def walk(node):
        if node.is_leaf:
            assert node.norm == pytest.approx(np.linalg.norm(node.leaf),
                                              rel=1e-12)
            return
        child_sq = math.fsum(ch.norm ** 2 for ch in node.children.values())
        assert abs(node.norm ** 2 - child_sq) <= 1e-10 * node.norm ** 2
        for ch in node.children.values():
            walk(ch)

    walk(tree)


# ---------------------------------------------------------------- pair tree

def test_pair_tree_zero_threshold_nothing_pruned():
    system, pairs, _, _ = build_setup(2, tau_ovlp=0.0)

    def walk(node):
        assert not node.pruned
        for ch in node.children.values():
            walk(ch)

    walk(pairs)


def test_pair_tree_far_clusters_pruned():
    left = _line_system(8)
    right = _line_system(8)
    shells = list(left.shells)
    for sh in right.shells:
        shells.append(GaussianShell(center=sh.center + [100.0, 0.0, 0.0],
                                    primitives=list(sh.primitives)))
    for i, sh in enumerate(shells):
        sh.function_offset = i
    system = BasisSystem(shells=shells,
                         atoms=[Atom("H", s.center) for s in shells])
    part = build_partition(system, leaf_size=8)
    tree = build_pair_tree(system, part, tau_ovlp=1e-13)
    # the top-level cross blocks separate the two clusters entirely
    assert tree.child(0, 1).pruned
    assert tree.child(1, 0).pruned
    assert not tree.child(0, 0).pruned
    assert not tree.child(1, 1).pruned


def test_pair_tree_pruning_soundness():
    system, pairs, _, _ = build_setup(5, tau_ovlp=1e-11)
    s_abs = np.abs(shell_overlap_matrix(system))

    def walk(node):
        if node.pruned:
            block = s_abs[node.row.shell_lo:node.row.shell_hi,
                          node.col.shell_lo:node.col.shell_hi]
            assert block.max() < 1e-11
            return
        for ch in node.children.values():
            walk(ch)

    walk(pairs)


def test_pair_tree_survivors_match_brute_force_scan():
    system, pairs, _, _ = build_setup(10, tau_ovlp=1e-11)
    s_abs = np.abs(shell_overlap_matrix(system))

    surviving = set()

    def walk(node):
        if node.pruned:
            return
        if node.is_leaf:
            for i in range(node.row.shell_lo, node.row.shell_hi):
                for j in range(node.col.shell_lo, node.col.shell_hi):
                    surviving.add((i, j))
            return
        for ch in node.children.values():
            walk(ch)

    walk(pairs)
    # every pair with overlap >= threshold must live in a surviving leaf
    required = {(i, j) for i in range(system.n_shells)
                for j in range(system.n_shells) if s_abs[i, j] >= 1e-11}
    assert required <= surviving


def test_pair_tree_diag_norm_telescoping():
    _, pairs, _, _ = build_setup(3, tau_ovlp=0.0)

    def walk(node):
        if node.is_leaf or node.pruned:
            return
        live = [ch for ch in node.children.values() if not ch.pruned]
        child_sq = math.fsum(ch.diag_norm ** 2 for ch in live)
        assert abs(node.diag_norm ** 2 - child_sq) \
            <= 1e-10 * max(node.diag_norm ** 2, 1e-300)
        for ch in live:
            walk(ch)

    walk(pairs)


def test_pair_tree_leaf_diag_matches_quartets():
    system, pairs, _, _ = build_setup(1, tau_ovlp=0.0)
    assert pairs.is_leaf  # 4 functions fit one leaf

    sh = system.shells
    for i in range(system.n_shells):
        for j in range(system.n_shells):
            a, b = min(i, j), max(i, j)
            ref = eri_quartet(sh[a], sh[b], sh[a], sh[b]).values[0, 0, 0, 0]
            assert pairs.diag[i, j] == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------- dumps

def test_tree_dumps_smoke():
    system, pairs, P_tree, _ = build_setup(2, tau_ovlp=1e-11)
    text = dump_tree_text(pairs)
    assert "norm=" in text
    csv_text = dump_tree_csv(P_tree)
    lines = csv_text.splitlines()
    assert lines[0] == "level,row_lo,row_hi,col_lo,col_hi,norm,pruned"
    assert len(lines) > 1
