"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

Spans are shell ranges; with one function per s shell they are also the
row and column ranges of every matrix block.

Norms are accumulated with math.fsum (correctly rounded), so the cached norm
of a block and of its transpose are bit-identical. Screening decisions in the
traversal drivers rely on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrals
from .basis import BasisSystem
from .integrals import (InvalidArgumentError, PairData, build_pair_data,
                        diagonal_values)


def _rss(values) -> float:
    return math.sqrt(math.fsum(v * v for v in values))


def _frobenius(block: np.ndarray) -> float:
    return math.sqrt(math.fsum((block.astype(float) ** 2).ravel().tolist()))


@dataclass
class Span:
    """Contiguous shell range; a node of the bisection tree."""

    shell_lo: int
    shell_hi: int
    left: "Span | None" = None
    right: "Span | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n_functions(self) -> int:
        return self.shell_hi - self.shell_lo

    def children(self):
        """Sub-spans for simultaneous descent; a leaf stands in for itself."""
        return (self,) if self.is_leaf else (self.left, self.right)

    def __repr__(self):
        return f"Span(shells {self.shell_lo}:{self.shell_hi})"


DEFAULT_LEAF_SIZE = 10


def build_partition(system: BasisSystem, leaf_size: int = DEFAULT_LEAF_SIZE) -> Span:
    """Root span of a recursive bisection at the midpoint shell, the left one
    of two.

    Splitting stops once a span holds at most ``leaf_size`` shells.
    """
    if leaf_size < 1:
        raise InvalidArgumentError("leaf_size must be >= 1")

    def split(lo, hi):
        node = Span(lo, hi)
        if hi - lo > leaf_size:
            mid = (lo + hi) // 2
            node.left = split(lo, mid)
            node.right = split(mid, hi)
        return node

    return split(0, system.n_shells)


class _Block:
    """Node over a (row span, col span) block: a leaf when both spans are
    leaves, else its children are keyed by (row child, col child) index."""

    __slots__ = ("row", "col", "children", "is_leaf")

    def __init__(self, row: Span, col: Span, children: dict):
        self.row = row
        self.col = col
        self.children = children
        self.is_leaf = row.is_leaf and col.is_leaf

    def child(self, a: int, b: int):
        # ragged descent: a leaf stands in for itself when a sibling span
        # still splits at this level
        if self.is_leaf:
            return self if (a, b) == (0, 0) else None
        return self.children.get((a, b))


class MatrixQuadtree(_Block):
    """Quadtree block of a dense matrix; absent children are exact zeros."""

    __slots__ = ("norm", "leaf")

    def __init__(self, row: Span, col: Span, norm: float, children=None, leaf=None):
        super().__init__(row, col, children or {})
        self.norm = norm
        self.leaf = leaf

    def dense(self) -> np.ndarray:
        out = np.zeros((self.row.n_functions, self.col.n_functions))
        _fill_dense(self, out, self.row.shell_lo, self.col.shell_lo)
        return out


def _fill_dense(node, out, row0, col0):
    if node.is_leaf:
        r, c = node.row, node.col
        out[r.shell_lo - row0:r.shell_hi - row0,
            c.shell_lo - col0:c.shell_hi - col0] = node.leaf
        return
    for ch in node.children.values():
        _fill_dense(ch, out, row0, col0)


def build_matrix_tree(dense: np.ndarray, root: Span) -> MatrixQuadtree:
    """Quadtree over ``dense`` on the partition ``root``; blocks of norm 0
    are absent."""
    dense = np.asarray(dense, dtype=float)
    n = root.n_functions
    if dense.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix shape {dense.shape} does not match partition size {n}")

    def build(row: Span, col: Span):
        if row.is_leaf and col.is_leaf:
            block = dense[row.shell_lo:row.shell_hi, col.shell_lo:col.shell_hi]
            norm = _frobenius(block)
            if norm == 0.0:  # exactly zero, or its squares underflow
                return None
            return MatrixQuadtree(row, col, norm, leaf=block)
        children = {}
        for a, r in enumerate(row.children()):
            for b, c in enumerate(col.children()):
                ch = build(r, c)
                if ch is not None:
                    children[(a, b)] = ch
        if not children:
            return None
        norm = _rss(ch.norm for ch in children.values())
        return MatrixQuadtree(row, col, norm, children=children)

    tree = build(root, root)
    del build  # a reference cycle that would keep dense (see build_pair_tree)
    if tree is None:
        # all-zero matrix: keep an explicit root with norm 0 and no children
        tree = MatrixQuadtree(root, root, 0.0,
                              leaf=dense if root.is_leaf else None)
    return tree


class ShellPairNode(_Block):
    """Node of the bra/ket shell-pair quadtree with cached screening norms.

    diag_norm is the Frobenius norm of the diagonal ERI entries (ab|ab) over
    the pair span; rowsum_max / colsum_max are (upper bounds on) the largest
    row/column sum of that diagonal block, used for the a-posteriori culled
    error ledger.
    """

    __slots__ = ("diag_norm", "rowsum_max", "colsum_max", "pruned", "pairs",
                 "base", "diag", "cache")

    def __init__(self, row: Span, col: Span):
        super().__init__(row, col, {})
        self.diag_norm = 0.0
        self.rowsum_max = 0.0
        self.colsum_max = 0.0
        self.pruned = False
        self.pairs = None   # at the root: PairData of all surviving leaves
        self.base = 0       # at a surviving leaf: its first id in that table
        self.diag = None    # its block of the system's (ab|ab) matrix
        self.cache = None   # driver-level leaf scratch (see leaf_cache)


# Canonical pairs per pass, in the overlap and the (ij|ij) pass alike. Small
# passes keep the primitive-pair temporaries small: one pass over all pairs
# raised the benchmark's peak RSS by 1.6-2.5 MB at water:24-30, 512-pair
# passes by at most 0.4 MB.
_PAIR_CHUNK = 512


def _pair_matrix(system: BasisSystem, values) -> np.ndarray:
    """Exactly symmetric matrix of values(shells, pair_list) over i <= j."""
    n = system.n_shells
    iu, ju = np.triu_indices(n)
    m = np.zeros((n, n))
    for lo in range(0, len(iu), _PAIR_CHUNK):
        i, j = iu[lo:lo + _PAIR_CHUNK], ju[lo:lo + _PAIR_CHUNK]
        v = values(system.shells, np.column_stack((i, j)))
        m[i, j] = v
        m[j, i] = v
    return m


def shell_overlap_matrix(system: BasisSystem) -> np.ndarray:
    """Exactly symmetric matrix of contracted shell-shell overlaps."""
    return _pair_matrix(system, integrals.pair_overlaps)


def build_pair_tree(system: BasisSystem, root: Span,
                    tau_ovlp: float = 0.0) -> ShellPairNode:
    """Shell-pair quadtree on the partition ``root`` with overlap pruning and
    cached diagonal norms.

    A node is pruned iff every shell-pair overlap magnitude in its span is
    below tau_ovlp; pruned subtrees are not expanded. The root's ``pairs``
    table holds the pairs of every surviving leaf, each leaf's (row shell, col
    shell) grid row-major from its ``base``, in leaf order; a one-leaf tree's
    pair i*n + j is shell pair (i, j). A negative or NaN tau_ovlp raises
    InvalidArgumentError.
    """
    if not tau_ovlp >= 0.0:
        raise InvalidArgumentError(f"tau_ovlp must be non-negative, got {tau_ovlp!r}")
    s_abs = np.abs(shell_overlap_matrix(system))
    # one canonical pass, so mirrored leaves get exactly transposed blocks
    q = _pair_matrix(system, lambda shells, pair_list:
                     diagonal_values(build_pair_data(shells, pair_list)))
    grids = []  # each surviving leaf's pair list
    n_pairs = 0

    def build(row: Span, col: Span) -> ShellPairNode:
        nonlocal n_pairs
        node = ShellPairNode(row, col)
        block = np.s_[row.shell_lo:row.shell_hi, col.shell_lo:col.shell_hi]
        if s_abs[block].max() < tau_ovlp:
            node.pruned = True
            return node
        if node.is_leaf:
            ii, jj = np.mgrid[block]
            grids.append(np.column_stack((ii.ravel(), jj.ravel())))
            node.base = n_pairs
            n_pairs += len(grids[-1])
            d = node.diag = q[block]
            node.diag_norm = _frobenius(d)
            node.rowsum_max = float(d.sum(axis=1).max())
            node.colsum_max = float(d.sum(axis=0).max())
            return node
        rowkids = row.children()
        colkids = col.children()
        for a in range(len(rowkids)):
            for b in range(len(colkids)):
                node.children[(a, b)] = build(rowkids[a], colkids[b])
        # a child holds the block's largest overlap, so one is always live
        live = [ch for ch in node.children.values() if not ch.pruned]
        node.diag_norm = _rss(ch.diag_norm for ch in live)
        node.rowsum_max = max(
            math.fsum(node.children[(a, b)].rowsum_max for b in range(len(colkids)))
            for a in range(len(rowkids)))
        node.colsum_max = max(
            math.fsum(node.children[(a, b)].colsum_max for a in range(len(rowkids)))
            for b in range(len(colkids)))
        return node

    tree = build(root, root)
    # the recursive closure is a reference cycle; unbroken, it would keep
    # s_abs, q and grids until the cyclic collector runs
    del build
    tree.pairs = _pair_table(system.shells, np.concatenate(
        [np.empty((0, 2), dtype=np.intp)] + grids))
    return tree


def _pair_table(shells, pair_list) -> PairData:
    """build_pair_data(shells, pair_list), built _PAIR_CHUNK pairs at a time
    into arrays of the full table's size: set-up then holds the table and
    one piece, not the temporaries of one call over every pair or a second
    copy made by joining the pieces."""
    n_prim = np.array([len(sh.exponents) for sh in shells])
    offsets = np.zeros(len(pair_list) + 1, dtype=np.intp)
    np.cumsum(n_prim[pair_list[:, 0]] * n_prim[pair_list[:, 1]],
              out=offsets[1:])
    n = offsets[-1]
    table = PairData(i_shell=pair_list[:, 0].copy(),
                     j_shell=pair_list[:, 1].copy(), offsets=offsets,
                     p=np.empty(n), center=np.empty((n, 3)),
                     weight=np.empty(n))
    for lo in range(0, len(pair_list), _PAIR_CHUNK):
        piece = build_pair_data(shells, pair_list[lo:lo + _PAIR_CHUNK])
        at = slice(offsets[lo], offsets[lo] + len(piece.p))
        table.p[at] = piece.p
        table.center[at] = piece.center
        table.weight[at] = piece.weight
    return table


def leaf_cache(node: ShellPairNode, canonical: bool = False) -> dict:
    """Pair ids and screening factors of a leaf pair node.

    m is the number of pairs a walk covers. Each table below has one row per
    density index, over the row span then the col span, and one column per
    free index (the other shell of the pair), zero-padded to the longer span.
    sq holds the Schwarz factor (ij|ij)^1/2, pair the pair's id in the tree
    root's pair table (the node's base plus its row-major place in the
    node's grid); sqmax and sqsum reduce sq over the free index.
    bra_free and ket_free hold 1 + the global shell of the free index, which
    is the K row of a bra and the K column of a ket, or 0, the discard: a
    transposed diagonal node's i == j pairs go there, as the untransposed
    orientation covers them. canonical=True restricts a diagonal node to its
    upper-triangular (i <= j) pairs: its factors are zero below the
    diagonal, so no bound there is kept and each adds 0 to the ledger.
    Cached in ``node.cache`` under "canon" or "full", one entry per
    orientation.
    """
    if node.cache is None:
        node.cache = {}
    key = "canon" if canonical else "full"
    cached = node.cache.get(key)
    if cached is None:
        q = np.sqrt(node.diag)
        nr, nc = q.shape
        diagonal = node.row is node.col
        m = nr * nc
        if canonical and diagonal:
            q = np.triu(q)
            m = nr * (nr + 1) // 2

        # rows: density index over the row span, then over the col span;
        # columns: the free index, zero-padded to the longer span
        shape = (nr + nc, max(nr, nc))
        sq = np.zeros(shape)
        sq[:nr, :nc] = q
        sq[nr:, :nr] = q.T
        grid = node.base + np.arange(nr * nc).reshape(nr, nc)
        pair, bra_free, ket_free = idx = np.zeros((3,) + shape, dtype=np.intp)
        pair[:nr, :nc] = grid
        pair[nr:, :nr] = grid.T
        # a density index on the row span leaves a free index on the col
        # span, and vice versa
        idx[1:, :nr, :nc] = 1 + node.col.shell_lo + np.arange(nc)
        idx[1:, nr:, :nr] = 1 + node.row.shell_lo + np.arange(nr)
        if diagonal:
            i = np.arange(nr)
            bra_free[i, i] = 0       # mu == nu, transposed
            ket_free[nr + i, i] = 0  # lam == sig, transposed
        cached = {"m": m, "sq": sq, "sqmax": sq.max(axis=1),
                  "sqsum": sq.sum(axis=1), "pair": pair,
                  "bra_free": bra_free, "ket_free": ket_free}
        node.cache[key] = cached
    return cached
