import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexfock import (build_exchange_naive, build_exchange_symmetric,
                     exchange_naive, hilbert_order, integrals, quadtree)
from hexfock.basis import Atom, BasisSystem, GaussianShell, generate_cluster
from hexfock.integrals import (InvalidArgumentError, build_pair_data,
                               diagonal_values, eri_quartet, overlap)
from hexfock.quadtree import (_PAIR_CHUNK, _candidate_pairs,
                              build_matrix_tree, build_pair_tree,
                              build_partition, flatten, shell_overlap_matrix)

from conftest import build_setup, leaf_spans


def _line_system(n_shells, spacing=1.0, exponent=1.0):
    shells = [GaussianShell(center=[i * spacing, 0.0, 0.0],
                            primitives=[(exponent, 1.0)])
              for i in range(n_shells)]
    atoms = [Atom("H", sh.center) for sh in shells]
    return BasisSystem(shells=shells, atoms=atoms)


def _depth(span):
    return 0 if span.is_leaf else 1 + max(_depth(span.left), _depth(span.right))


# ---------------------------------------------------------------- partition

def test_partition_single_leaf_when_small():
    system = _line_system(10)
    root = build_partition(system, leaf_size=10)
    assert root.is_leaf
    assert root.n_functions == 10
    assert leaf_spans(root) == [root]


def test_partition_thirteen_shells_midpoint_split():
    system = _line_system(13)
    root = build_partition(system, leaf_size=10)
    assert not root.is_leaf
    # shells 6 and 7 are equidistant from the midpoint 6.5; the split takes
    # the left one, yielding a 6/7 shell split
    sizes = (root.left.n_functions, root.right.n_functions)
    assert sorted(sizes) == [6, 7]
    assert sizes == (6, 7)
    assert all(leaf.n_functions <= 10 for leaf in leaf_spans(root))


def test_partition_covers_all_shells_once():
    _, pairs, _, _ = build_setup(4)
    system = generate_cluster(4, seed=3)
    root = build_partition(system, leaf_size=10)
    covered = []
    for leaf in leaf_spans(root):
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
    spans1 = [(s.shell_lo, s.shell_hi) for s in leaf_spans(p1)]
    spans2 = [(s.shell_lo, s.shell_hi) for s in leaf_spans(p2)]
    assert spans1 == spans2


def test_partition_depth_scales_logarithmically():
    system = generate_cluster(30, seed=3)
    root = build_partition(system, leaf_size=10)
    n = system.n_functions
    assert _depth(root) <= math.ceil(math.log2(n / 10)) + 1


# ---------------------------------------------------------------- matrix tree

def _assert_leaves_tile(tree, m):
    """Each leaf block of ``tree`` is bitwise its slice of ``m``, and ``m``
    is zero outside the leaf blocks."""
    rest = m.copy()
    for node in flatten(tree)[0]:
        if node.is_leaf:
            block = (slice(node.row.shell_lo, node.row.shell_hi),
                     slice(node.col.shell_lo, node.col.shell_hi))
            assert node.leaf.tobytes() == m[block].tobytes()
            rest[block] = 0.0
    assert not rest.any()


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
    _assert_leaves_tile(tree, np.eye(12))


def test_matrix_tree_roundtrip_bitwise():
    rng = np.random.default_rng(17)
    system = _line_system(40)
    part = build_partition(system, leaf_size=7)
    m = rng.normal(size=(40, 40))
    tree = build_matrix_tree(m, part)
    _assert_leaves_tile(tree, m)


def test_matrix_tree_dimension_mismatch():
    system = _line_system(12)
    part = build_partition(system, leaf_size=4)
    with pytest.raises(InvalidArgumentError):
        build_matrix_tree(np.zeros((11, 11)), part)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_tree_rejects_non_finite_entries(bad):
    # a NaN entry fails every leaf prefilter test (nan > tau is False), so
    # it once dropped out of K and left a NaN ledger; an infinite one gave
    # a non-finite K
    _, pairs, _, P = build_setup(3, tau_ovlp=1e-11, leaf_size=3)
    P = P.copy()
    P[0, 1] = P[1, 0] = bad
    with pytest.raises(InvalidArgumentError,
                       match=rf"entry \(0, 1\) is {bad!r}; .* finite"):
        build_matrix_tree(P, pairs.row)


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
    system = BasisSystem(shells=shells,
                         atoms=[Atom("H", s.center) for s in shells])
    part = build_partition(system, leaf_size=8)
    tree = build_pair_tree(system, part, tau_ovlp=1e-13)
    # the top-level cross blocks separate the two clusters entirely
    assert tree.children[(0, 1)].pruned
    assert tree.children[(1, 0)].pruned
    assert not tree.children[(0, 0)].pruned
    assert not tree.children[(1, 1)].pruned


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_pair_tree_rejects_negative_or_nan_tau_ovlp(tau):
    # either would prune nothing, silently
    system = generate_cluster(3, seed=3)
    part = build_partition(system, leaf_size=3)
    with pytest.raises(InvalidArgumentError, match="tau_ovlp"):
        build_pair_tree(system, part, tau_ovlp=tau)


def test_pair_tree_pruning_soundness():
    # pruned iff the block's largest overlap is below tau_ovlp
    system, pairs, _, _ = build_setup(5, tau_ovlp=1e-11)
    s_abs = np.abs(shell_overlap_matrix(system))

    def walk(node):
        block = s_abs[node.row.shell_lo:node.row.shell_hi,
                      node.col.shell_lo:node.col.shell_hi]
        assert node.pruned == (block.max() < 1e-11)
        if node.pruned:
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


def test_shell_overlap_matrix_matches_scalar_overlap():
    # 40 shells: 820 pairs, more than one overlap pass
    rng = np.random.default_rng(17)
    shells = [GaussianShell(center=rng.normal(scale=4.0, size=3),
                            primitives=list(zip(rng.uniform(0.1, 100.0, n),
                                                rng.uniform(0.2, 1.0, n))))
              for n in (3, 1, 1, 3, 2, 1, 1, 1) * 5]
    s = shell_overlap_matrix(BasisSystem(shells=shells, atoms=[]))
    assert np.array_equal(s, s.T)
    for i in range(40):
        for j in range(i, 40):
            assert s[i, j] == overlap(shells[i], shells[j])


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


@pytest.mark.parametrize("leaf_size,kinds", [
    (3, {"diagonal", "upper", "lower", "ragged"}),
    (10, {"diagonal", "upper", "lower"}),
])
def test_pair_tree_leaf_diag_matches_own_canonical_table(leaf_size, kinds):
    # reference: (ij|ij) of the leaf's own pair table sorted to i <= j; the
    # system-wide pass must give each leaf exactly these values, and mirrored
    # leaves exactly transposed ones
    system, pairs, _, _ = build_setup(5, tau_ovlp=0.0, leaf_size=leaf_size)
    leaves = {}

    def walk(node):
        if node.is_leaf:
            leaves[node.row.shell_lo, node.col.shell_lo] = node
        for ch in node.children.values():
            walk(ch)

    walk(pairs)
    seen = set()
    for (r, c), node in leaves.items():
        ii, jj = np.mgrid[node.row.shell_lo:node.row.shell_hi,
                          node.col.shell_lo:node.col.shell_hi]
        canon = np.sort(np.column_stack((ii.ravel(), jj.ravel())), axis=1)
        ref = diagonal_values(build_pair_data(system.shells, canon))
        assert np.array_equal(node.diag, ref.reshape(ii.shape))
        assert np.array_equal(node.diag, leaves[c, r].diag.T)
        seen.add("diagonal" if r == c else "upper" if r < c else "lower")
        if ii.shape[0] != ii.shape[1]:
            seen.add("ragged")
    assert seen == kinds


def _surviving_leaves(node):
    """Non-pruned leaves of a pair tree, in build order."""
    if node.pruned:
        return []
    if node.is_leaf:
        return [node]
    return [leaf for ch in node.children.values()
            for leaf in _surviving_leaves(ch)]


def test_pair_table_ids_index_the_root_table():
    # the root's table holds each canonical (i <= j) pair once, and every
    # place of a surviving leaf names its pair's id there, a mirrored place
    # its mirror's. The tables of leaf_cache's index of the tree, by slot
    # (t.slot of each surviving leaf's node), in both orientations:
    # orientation 0 has a row per row shell (density index) and a column
    # per col shell (free index), orientation 1 the other way round. Each
    # pair row is a permutation of the leaf's grid row (grid column) of
    # ids, ordered so that sq, the Schwarz factor at each place, does not
    # increase along it; tail holds sq's suffix sums; m counts the leaf's
    # pairs; flip marks exactly the places whose row shell comes after their
    # col shell, on every leaf; the padding up to the longest leaf span w is
    # zero
    system, pairs, _, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    table = pairs.pairs
    assert (table.i_shell <= table.j_shell).all()
    assert len(set(zip(table.i_shell.tolist(), table.j_shell.tolist()))) \
        == table.n_pairs
    nodes = flatten(pairs)[0]
    t = exchange_naive.leaf_cache(pairs)
    w = t.width
    leaves = [nodes[i] for i in np.flatnonzero(t.slot >= 0)]
    n = len(leaves)
    assert np.array_equal(t.slot[t.slot >= 0], np.arange(n))
    assert t.sq.shape == t.pair.shape == t.flip.shape == (n, 2, w, w)
    assert t.flip.dtype == bool
    assert t.tail.shape == (n, 2, w, w + 1) and t.m.shape == (n,)
    assert ({id(leaf) for leaf in leaves}
            == {id(leaf) for leaf in _surviving_leaves(pairs)})
    by_span = {(leaf.row.shell_lo, leaf.col.shell_lo): leaf for leaf in leaves}
    for s, leaf in enumerate(leaves):
        assert not leaf.pruned
        nr, nc = leaf.row.n_functions, leaf.col.n_functions
        ii, jj = np.mgrid[leaf.row.shell_lo:leaf.row.shell_hi,
                          leaf.col.shell_lo:leaf.col.shell_hi]
        ids = leaf.ids
        assert ids.shape == (nr, nc)
        assert np.array_equal(table.i_shell[ids], np.minimum(ii, jj))
        assert np.array_equal(table.j_shell[ids], np.maximum(ii, jj))
        mirror = by_span[leaf.col.shell_lo, leaf.row.shell_lo]
        assert np.array_equal(ids, mirror.ids.T)
        sq, pair, tail = t.sq[s], t.pair[s], t.tail[s]
        flip = t.flip[s]
        q = np.sqrt(leaf.diag)
        assert t.m[s] == nr * nc
        for o, (grid, below) in enumerate(((ids, ii > jj), (ids.T, (ii > jj).T))):
            a, b = grid.shape
            # each place of the sorted row, as its place in the unsorted one
            at = np.array([[np.flatnonzero(grid[r] == x)[0] for x in row]
                           for r, row in enumerate(pair[o, :a, :b])])
            assert np.array_equal(np.sort(at, axis=1),
                                  np.broadcast_to(np.arange(b), (a, b)))
            assert np.array_equal(sq[o, :a, :b],
                                  np.take_along_axis((q, q.T)[o], at, axis=1))
            assert np.array_equal(flip[o, :a, :b],
                                  np.take_along_axis(below, at, axis=1))
            for x in (sq, pair, flip):
                assert not x[o, a:].any() and not x[o, :, b:].any()
        assert (np.diff(sq, axis=2) <= 0).all()
        suffix = np.stack([sq[..., k:].sum(axis=2)
                           for k in range(w + 1)], axis=2)
        np.testing.assert_allclose(tail, suffix, rtol=1e-14, atol=0)
    assert any(leaf.row is leaf.col for leaf in leaves) and t.flip.any()
    assert any(leaf.row.shell_lo > leaf.col.shell_lo for leaf in leaves)
    assert any(leaf.row.n_functions != leaf.col.n_functions
               for leaf in leaves)


def test_chunked_pair_table_equals_one_build():
    # the root's table is built in _PAIR_CHUNK-sized pieces; joined, they
    # must be bitwise one build_pair_data call over the same pair list: the
    # canonical places of the live blocks, the blocks row-major by (row
    # leaf, col leaf) and each block's grid row-major
    system, pairs, _, _ = build_setup(14, tau_ovlp=1e-11, leaf_size=3)
    grids = []
    for leaf in sorted(_surviving_leaves(pairs),
                       key=lambda lf: (lf.row.shell_lo, lf.col.shell_lo)):
        ii, jj = np.mgrid[leaf.row.shell_lo:leaf.row.shell_hi,
                          leaf.col.shell_lo:leaf.col.shell_hi]
        grid = np.column_stack((ii.ravel(), jj.ravel()))
        grids.append(grid[grid[:, 0] <= grid[:, 1]])
    pair_list = np.concatenate(grids)
    assert len(pair_list) > 2 * _PAIR_CHUNK
    want = build_pair_data(system.shells, pair_list)
    got = pairs.pairs
    for name in ("i_shell", "j_shell", "offsets", "p", "center", "weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_fully_pruned_tree_has_an_empty_pair_table():
    # every overlap of normalized shells is at most 1, so all is pruned;
    # the drivers still run on the empty table
    system = _line_system(4, spacing=100.0)
    part = build_partition(system, leaf_size=2)
    tree = build_pair_tree(system, part, tau_ovlp=2.0)
    assert tree.pruned
    assert tree.pairs.n_pairs == 0
    assert list(tree.pairs.offsets) == [0]
    P_tree = build_matrix_tree(np.eye(4), part)
    K, c = build_exchange_naive(tree, tree, P_tree)
    assert not K.any() and c.eri_shell_quartets == 0
    K, c = build_exchange_symmetric(tree, P_tree)
    assert not K.any() and c.eri_shell_quartets == 0


def test_tree_builds_leave_no_reference_cycles():
    # a cycle would keep the builds' arrays alive until the cyclic collector
    # runs; plain recursion leaves none
    system, _, _, P = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    gc.collect()
    gc.disable()
    try:
        part = build_partition(system, leaf_size=3)
        build_pair_tree(system, part, tau_ovlp=1e-11)
        build_matrix_tree(P, part)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------ candidates and set-up work

_PRIMITIVES = st.lists(st.tuples(st.floats(0.1, 100.0), st.floats(0.2, 1.0)),
                       min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.one_of(_PRIMITIVES, st.sampled_from(
                    [[(0.27, 1.0)], [(1.24, 1.0)], [(0.1, 0.5), (100.0, 1.0)]])),
                          st.integers(0, 7)),
                min_size=1, max_size=14),
       st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-6]),
       st.integers(0, 2 ** 32 - 1))
def test_candidate_pairs_hold_every_pair_reaching_tau(specs, tau, seed):
    # shells on one of 8 random sites, so some share a center and some
    # share a class; every canonical pair with |S| >= tau is a candidate
    sites = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(8, 3))
    shells = [GaussianShell(center=sites[site], primitives=prims)
              for prims, site in specs]
    system = BasisSystem(shells=shells, atoms=[])
    n = len(shells)
    s_abs = np.abs(shell_overlap_matrix(system))
    cand = _candidate_pairs(shells, tau)
    assert np.all(cand[:, 0] <= cand[:, 1])
    got = set(map(tuple, cand.tolist()))
    assert len(got) == len(cand)
    need = {(i, j) for i in range(n) for j in range(i, n)
            if s_abs[i, j] >= tau}
    assert need <= got
    if tau == 0.0:
        assert len(got) == n * (n + 1) // 2


def test_pair_tree_set_up_follows_the_pairs_that_can_survive(monkeypatch):
    # overlaps only for candidates; primitive pair data only for the
    # canonical (i <= j) pairs of surviving leaves, each once
    system, _ = hilbert_order(generate_cluster(30, seed=3))
    part = build_partition(system, leaf_size=10)
    seen = {"overlaps": 0, "pair_data": 0}

    def counted(name, real):
        def call(shells, pair_list):
            seen[name] += len(pair_list)
            return real(shells, pair_list)
        return call

    monkeypatch.setattr(integrals, "pair_overlaps",
                        counted("overlaps", integrals.pair_overlaps))
    monkeypatch.setattr(quadtree, "build_pair_data",
                        counted("pair_data", quadtree.build_pair_data))
    tree = build_pair_tree(system, part, tau_ovlp=1e-9)
    n = system.n_shells
    assert seen["overlaps"] < n * (n + 1) // 2 / 3
    canonical = sum(
        int(np.sum(leaf.row.shell_lo + np.arange(leaf.row.n_functions)[:, None]
                   <= leaf.col.shell_lo + np.arange(leaf.col.n_functions)))
        for leaf in _surviving_leaves(tree))
    assert seen["pair_data"] == canonical == 6094
