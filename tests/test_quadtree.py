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
from hexfock.quadtree import (_PRIM_CHUNK, _candidate_pairs,
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


def test_chunked_pair_table_equals_one_build(monkeypatch):
    # the root's table is built in passes of whole pairs, each as many as
    # fit in _PRIM_CHUNK primitive pairs, or one pair that holds more;
    # joined, they must be bitwise one build_pair_data call over the same
    # pair list: the canonical places of the live blocks, the blocks
    # row-major by (row leaf, col leaf) and each block's grid row-major.
    # The real chunk makes three passes at water:30; a chunk of 4 is below
    # a 9-primitive pair, which then is a pass alone
    passes = []

    def recorded(shells, pair_list):
        passes.append(build_pair_data(shells, pair_list))
        return passes[-1]

    monkeypatch.setattr(quadtree, "build_pair_data", recorded)
    for n_molecules, chunk in ((30, _PRIM_CHUNK), (14, 4)):
        monkeypatch.setattr(quadtree, "_PRIM_CHUNK", chunk)
        passes.clear()
        system, pairs, _, _ = build_setup(n_molecules, tau_ovlp=1e-11,
                                          leaf_size=3)
        grids = []
        for leaf in sorted(_surviving_leaves(pairs),
                           key=lambda lf: (lf.row.shell_lo, lf.col.shell_lo)):
            ii, jj = np.mgrid[leaf.row.shell_lo:leaf.row.shell_hi,
                              leaf.col.shell_lo:leaf.col.shell_hi]
            grid = np.column_stack((ii.ravel(), jj.ravel()))
            grids.append(grid[grid[:, 0] <= grid[:, 1]])
        pair_list = np.concatenate(grids)
        want = build_pair_data(system.shells, pair_list)
        assert want.offsets[-1] > 2 * chunk and len(passes) > 2
        assert all(p.offsets[-1] <= chunk or p.n_pairs == 1 for p in passes)
        assert all(p.offsets[-1] + q.offsets[1] > chunk
                   for p, q in zip(passes, passes[1:]))
        assert any(p.offsets[-1] > chunk for p in passes) == (chunk == 4)
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
    # runs; plain recursion leaves none, and neither do a pair tree's views,
    # every one of them made (flatten reads each view's children)
    system, _, _, P = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    gc.collect()
    gc.disable()
    try:
        part = build_partition(system, leaf_size=3)
        tree = build_pair_tree(system, part, tau_ovlp=1e-11)
        assert len(flatten(tree)[0]) == len(tree._arrays.leaf)
        exchange_naive.leaf_cache(tree)
        del tree
        build_matrix_tree(P, part)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------- array-built tree and its views

class _RefNode:
    """A node of the recursive reference build: what a view shows."""

    def __init__(self, row, col):
        self.row, self.col, self.children = row, col, {}
        self.is_leaf = row.is_leaf and col.is_leaf
        self.diag_norm = self.rowsum_max = self.colsum_max = 0.0
        self.pruned = False
        self.ids = self.diag = None


def _rss(values):
    return math.sqrt(math.fsum(v * v for v in values))


def _frobenius(block):
    with np.errstate(over="ignore"):
        squares = block.astype(float) ** 2
    return math.sqrt(math.fsum(squares.ravel().tolist()))


def _build_pairs(row, col, live, leaf_of, base, ids, q):
    """The pair tree as one recursion built it, one object per node: pruned
    iff its slice of ``live`` is all False; a surviving leaf takes its
    blocks of ``ids`` and ``q``, from its first place in ``base``, as
    ``ids`` and ``diag``, a live node its norms from its children's on the
    way up."""
    node = _RefNode(row, col)
    rows = slice(leaf_of[row.shell_lo], leaf_of[row.shell_hi - 1] + 1)
    cols = slice(leaf_of[col.shell_lo], leaf_of[col.shell_hi - 1] + 1)
    if not live[rows, cols].any():
        node.pruned = True
        return node
    if node.is_leaf:
        shape = (row.n_functions, col.n_functions)
        at = base[rows.start, cols.start]
        grid = slice(at, at + shape[0] * shape[1])
        node.ids = ids[grid].reshape(shape)
        d = node.diag = q[grid].reshape(shape)
        node.diag_norm = _frobenius(d)
        node.rowsum_max = float(d.sum(axis=1).max())
        node.colsum_max = float(d.sum(axis=0).max())
        return node
    grid = [[_build_pairs(r, c, live, leaf_of, base, ids, q)
             for c in col.children()]
            for r in row.children()]
    node.children = {(a, b): ch for a, chs in enumerate(grid)
                     for b, ch in enumerate(chs)}
    # a pruned child's norms are 0, which leaves each exact sum unchanged
    node.diag_norm = _rss(ch.diag_norm for ch in node.children.values())
    node.rowsum_max = max(math.fsum(ch.rowsum_max for ch in chs)
                          for chs in grid)
    node.colsum_max = max(math.fsum(ch.colsum_max for ch in chs)
                          for chs in zip(*grid))
    return node


def _node_record(node):
    return (node.row.shell_lo, node.row.shell_hi, node.col.shell_lo,
            node.col.shell_hi, node.is_leaf, node.pruned,
            *(float.hex(x) for x in (node.diag_norm, node.rowsum_max,
                                     node.colsum_max)))


def _assert_tree_matches_reference(system, leaf_size, tau):
    # the array-built tree, through its node arrays and through its views,
    # bitwise the recursive build over the same liveness table and places
    part = build_partition(system, leaf_size=leaf_size)
    tree = build_pair_tree(system, part, tau_ovlp=tau)
    leaves = leaf_spans(part)
    leaf_of, live = quadtree._live_blocks(system.shells, leaves, tau)
    _, base, ids, q = quadtree._pair_table(system.shells, leaves, live)
    ref_nodes, ref_child = flatten(_build_pairs(part, part, live,
                                                leaf_of.tolist(), base, ids, q))
    nodes, child = flatten(tree)
    arrays = tree._arrays
    assert child.tobytes() == ref_child.tobytes()
    assert arrays.child.tobytes() == ref_child.tobytes()
    assert [_node_record(n) for n in nodes] \
        == [_node_record(n) for n in ref_nodes]
    for name, attr in (("diag_norm", "diag_norm"), ("rowsum", "rowsum_max"),
                       ("colsum", "colsum_max")):
        assert list(map(float.hex, getattr(arrays, name).tolist())) \
            == [float.hex(getattr(n, attr)) for n in ref_nodes]
    assert arrays.pruned.tolist() == [n.pruned for n in ref_nodes]
    assert arrays.leaf.tolist() == [n.is_leaf for n in ref_nodes]
    for node, ref in zip(nodes, ref_nodes):
        assert (node.ids is None) == (ref.ids is None)
        if ref.ids is not None:
            for a, b in ((node.ids, ref.ids), (node.diag, ref.diag)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
    return tree


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 16),
       st.sampled_from([1, 2, 3, 10, 40]),
       st.sampled_from([0.0, 1e-11, 1e-6, 2.0]))
def test_pair_tree_arrays_equal_the_recursive_build(n_molecules, seed,
                                                    leaf_size, tau):
    system, _ = hilbert_order(generate_cluster(n_molecules, seed=seed))
    tree = _assert_tree_matches_reference(system, leaf_size, tau)
    assert tree.pruned == (tau == 2.0)


@pytest.mark.parametrize("tau", [0.0, 1e-11, 1e-6, 2.0])
def test_ragged_pair_tree_equals_the_recursive_build(tau):
    # 13 shells at leaf 3: leaves of 3, 3, 3, 2 and 2 shells at depths 2
    # and 3, so one level holds leaf and inner spans, and blocks of four
    # shapes
    system = _line_system(13, spacing=2.0)
    part = build_partition(system, leaf_size=3)
    assert [lf.n_functions for lf in leaf_spans(part)] == [3, 3, 3, 2, 2]
    tree = _assert_tree_matches_reference(system, 3, tau)
    pruned = [n.pruned for n in flatten(tree)[0]]
    assert pruned[0] == (tau == 2.0)
    assert any(pruned) == (tau > 0.0)


def test_pair_tree_views_are_made_once_and_kept():
    _, tree, _, _ = build_setup(5, tau_ovlp=1e-11, leaf_size=3)
    assert tree._children is None  # no child view before the first access
    children = tree.children
    assert tree.children is children
    for key, child in children.items():
        assert tree.children[key] is child
        assert child.children is child.children
        for grandchild_key, grandchild in child.children.items():
            assert child.children[grandchild_key] is grandchild


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_a_child_view_is_not_a_root(driver):
    # only the root's view holds the pair table and the engine's index, even
    # after a build has made that index; a diagonal child with a density
    # tree over its own span passes the partition check, and both drivers
    # reject it as not a root
    _, tree, P_tree, P = build_setup(5, tau_ovlp=1e-11, leaf_size=3)
    build_exchange_symmetric(tree, P_tree, 1e-8)
    assert tree.pairs is not None and tree.cache is not None
    sub = tree.children[(0, 0)]
    assert all(n.pairs is None and n.cache is None
               for n in flatten(sub)[0])
    lo, hi = sub.row.shell_lo, sub.row.shell_hi
    P_sub = build_matrix_tree(P[lo:hi, lo:hi], sub.row)
    with pytest.raises(InvalidArgumentError, match="roots of pair trees"):
        if driver == "naive":
            build_exchange_naive(sub, sub, P_sub)
        else:
            build_exchange_symmetric(sub, P_sub)


def _flattened_index(root):
    """exchange_naive._PairIndex's arrays as they were built from one
    flatten pass over the tree's node objects, here its views."""
    nodes, child = flatten(root)
    x = {"child": child}
    x["row"], x["col"] = np.array([(n.row.shell_lo, n.col.shell_lo)
                                   for n in nodes], dtype=np.intp).T
    x["leaf"], x["pruned"] = np.array([(n.is_leaf, n.pruned)
                                       for n in nodes]).T
    f, x["rowsum"], x["colsum"] = np.array(
        [(n.diag_norm, n.rowsum_max, n.colsum_max) for n in nodes]).T
    x["f"] = np.sqrt(f)
    leaves = np.flatnonzero(x["leaf"] & ~x["pruned"])
    x["slot"] = np.full(len(nodes), -1, dtype=np.intp)
    x["slot"][leaves] = np.arange(len(leaves))
    w = max(s.n_functions for s in leaf_spans(root.row))
    shape = (len(leaves), 2, w, w)
    sq = np.zeros(shape)
    pair = np.zeros(shape, dtype=np.int32)
    size = np.zeros((len(leaves), 2), dtype=np.intp)
    for s, leaf in enumerate(nodes[i] for i in leaves.tolist()):
        q = np.sqrt(leaf.diag)
        nr, nc = size[s] = q.shape
        sq[s, 0, :nr, :nc], sq[s, 1, :nc, :nr] = q, q.T
        pair[s, 0, :nr, :nc], pair[s, 1, :nc, :nr] = leaf.ids, leaf.ids.T
    xs, n = np.arange(w), root.row.shell_hi
    rows = np.where(xs < size[:, :1], x["row"][leaves, None] + xs, -1)
    cols = np.where(xs < size[:, 1:], x["col"][leaves, None] + xs, n)
    flip = np.stack((rows[:, :, None] > cols[:, None, :],
                     cols[:, :, None] < rows[:, None, :]), axis=1)
    x["m"] = size.prod(axis=1)
    order = np.argsort(-sq, axis=3, kind="stable")
    x["sq"] = np.take_along_axis(sq, order, axis=3)
    x["pair"] = np.take_along_axis(pair, order, axis=3)
    x["flip"] = np.take_along_axis(flip, order, axis=3)
    x["tail"] = np.zeros(shape[:3] + (w + 1,))
    x["tail"][..., :-1] = np.cumsum(x["sq"][..., ::-1], axis=3)[..., ::-1]
    return x


@pytest.mark.parametrize("leaf_size", [3, 10, 40])
@pytest.mark.parametrize("n_molecules", [10, 24, 30])
def test_pair_index_equals_one_flatten_over_the_views(n_molecules, leaf_size):
    # the engine's index reads the node arrays directly; each of its arrays
    # is bytewise what one flatten pass over the node views gives
    _, tree, _, _ = build_setup(n_molecules, tau_ovlp=1e-11,
                                leaf_size=leaf_size)
    index = exchange_naive.leaf_cache(tree)
    want = _flattened_index(tree)
    assert index.width == max(lf.n_functions for lf in leaf_spans(tree.row))
    for name, b in want.items():
        a = getattr(index, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


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
