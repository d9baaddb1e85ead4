"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

Spans are shell ranges; with one function per s shell they are also the
row and column ranges of every matrix block.

Norms are accumulated with math.fsum (correctly rounded), so the cached norm
of a block and of its transpose are bit-identical. Screening decisions in the
traversal drivers rely on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import integrals
from .basis import BasisSystem
from .integrals import InvalidArgumentError, build_pair_data, diagonal_values


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


@dataclass
class Partition:
    root: Span
    leaf_size: int

    @property
    def leaves(self):
        out = []

        def walk(s):
            if s.is_leaf:
                out.append(s)
            else:
                walk(s.left)
                walk(s.right)

        walk(self.root)
        return out


DEFAULT_LEAF_SIZE = 10


def build_partition(system: BasisSystem, leaf_size: int = DEFAULT_LEAF_SIZE) -> Partition:
    """Recursive bisection at the midpoint shell, the left one of two.

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

    return Partition(root=split(0, system.n_shells), leaf_size=leaf_size)


class MatrixQuadtree:
    """Quadtree block of a dense matrix; absent children are exact zeros."""

    __slots__ = ("row", "col", "norm", "children", "leaf")

    def __init__(self, row: Span, col: Span, norm: float, children=None, leaf=None):
        self.row = row
        self.col = col
        self.norm = norm
        self.children = children or {}
        self.leaf = leaf

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def child(self, a: int, b: int):
        # ragged descent: a leaf stands in for itself when a sibling span
        # still splits at this level
        if self.is_leaf:
            return self if (a, b) == (0, 0) else None
        return self.children.get((a, b))

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


def build_matrix_tree(dense: np.ndarray, partition: Partition) -> MatrixQuadtree:
    """Quadtree over ``dense``; blocks of norm 0 are absent."""
    dense = np.asarray(dense, dtype=float)
    n = partition.root.n_functions
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

    root = build(partition.root, partition.root)
    if root is None:
        # all-zero matrix: keep an explicit root with norm 0 and no children
        root = MatrixQuadtree(partition.root, partition.root, 0.0,
                              leaf=dense if partition.root.is_leaf else None)
    return root


class ShellPairNode:
    """Node of the bra/ket shell-pair quadtree with cached screening norms.

    diag_norm is the Frobenius norm of the diagonal ERI entries (ab|ab) over
    the pair span; rowsum_max / colsum_max are (upper bounds on) the largest
    row/column sum of that diagonal block, used for the a-posteriori culled
    error ledger.
    """

    __slots__ = ("row", "col", "diag_norm", "rowsum_max", "colsum_max",
                 "pruned", "children", "pairs", "diag", "cache")

    def __init__(self, row: Span, col: Span):
        self.row = row
        self.col = col
        self.diag_norm = 0.0
        self.rowsum_max = 0.0
        self.colsum_max = 0.0
        self.pruned = False
        self.children = {}
        self.pairs = None   # PairData at surviving leaves
        self.diag = None    # (ab|ab) matrix, shape (row shells, col shells)
        self.cache = None   # driver-level leaf scratch (see leaf_cache)

    @property
    def is_leaf(self) -> bool:
        return self.row.is_leaf and self.col.is_leaf

    def child(self, a: int, b: int):
        if self.is_leaf:
            return self if (a, b) == (0, 0) else None
        return self.children.get((a, b))


# Shell pairs per overlap pass. Small passes keep the primitive-pair
# temporaries small: one pass over all pairs raised the benchmark's peak RSS
# by 1.6-2.5 MB at water:24-30, 512-pair passes by at most 0.4 MB.
_OVERLAP_CHUNK = 512


def shell_overlap_matrix(system: BasisSystem) -> np.ndarray:
    """Exactly symmetric matrix of contracted shell-shell overlaps."""
    n = system.n_shells
    iu, ju = np.triu_indices(n)
    s = np.zeros((n, n))
    for lo in range(0, len(iu), _OVERLAP_CHUNK):
        i, j = iu[lo:lo + _OVERLAP_CHUNK], ju[lo:lo + _OVERLAP_CHUNK]
        v = integrals.pair_overlaps(system.shells, np.column_stack((i, j)))
        s[i, j] = v
        s[j, i] = v
    return s


def build_pair_tree(system: BasisSystem, partition: Partition,
                    tau_ovlp: float = 0.0) -> ShellPairNode:
    """Shell-pair quadtree with overlap pruning and cached diagonal norms.

    A node is pruned iff every shell-pair overlap magnitude in its span is
    below tau_ovlp; pruned subtrees are not expanded.
    """
    s_abs = np.abs(shell_overlap_matrix(system))
    shells = system.shells

    def build(row: Span, col: Span) -> ShellPairNode:
        node = ShellPairNode(row, col)
        block_max = s_abs[row.shell_lo:row.shell_hi, col.shell_lo:col.shell_hi].max()
        if block_max < tau_ovlp:
            node.pruned = True
            return node
        if node.is_leaf:
            ii, jj = np.meshgrid(np.arange(row.shell_lo, row.shell_hi),
                                 np.arange(col.shell_lo, col.shell_hi),
                                 indexing="ij")
            pair_list = np.column_stack((ii.ravel(), jj.ravel()))
            node.pairs = build_pair_data(shells, pair_list)
            # diagonal values are evaluated in canonical (i <= j) orientation so
            # that mirrored blocks cache bit-identical screening inputs
            canon = build_pair_data(shells, np.sort(pair_list, axis=1))
            d = diagonal_values(canon).reshape(
                row.shell_hi - row.shell_lo, col.shell_hi - col.shell_lo)
            node.diag = d
            node.diag_norm = _frobenius(d)
            node.rowsum_max = float(d.sum(axis=1).max())
            node.colsum_max = float(d.sum(axis=0).max())
            return node
        rowkids = row.children()
        colkids = col.children()
        for a in range(len(rowkids)):
            for b in range(len(colkids)):
                node.children[(a, b)] = build(rowkids[a], colkids[b])
        live = [ch for ch in node.children.values() if not ch.pruned]
        if not live:
            node.pruned = True
            node.children = {}
            return node
        node.diag_norm = _rss(ch.diag_norm for ch in live)
        node.rowsum_max = max(
            math.fsum(node.children[(a, b)].rowsum_max for b in range(len(colkids)))
            for a in range(len(rowkids)))
        node.colsum_max = max(
            math.fsum(node.children[(a, b)].colsum_max for a in range(len(rowkids)))
            for b in range(len(colkids)))
        return node

    return build(partition.root, partition.root)


def leaf_cache(node: ShellPairNode, canonical: bool = False) -> dict:
    """Pair table, diagonal values and canonical mask of a leaf pair node.

    Every entry is laid out on the node's full (row shells, col shells) pair
    grid, row-major. canonical=True restricts a diagonal node to its
    upper-triangular (i <= j) pairs, the canonical orientation, through
    ``mask``; elsewhere ``mask`` is None and every pair counts. Entries:
    pd (PairData of the grid), q ((ij|ij) grid, canonical orientation),
    sq (its square root), mask, m (number of pairs the mask keeps). Cached
    on the node, one entry per orientation.
    """
    if node.cache is None:
        node.cache = {}
    key = "canon" if canonical else "full"
    cached = node.cache.get(key)
    if cached is None:
        q = node.diag
        mask = None
        if canonical and node.row is node.col:
            mask = np.triu(np.ones(q.shape, dtype=bool))
        cached = {"pd": node.pairs, "q": q, "sq": np.sqrt(q), "mask": mask,
                  "m": q.size if mask is None else int(np.count_nonzero(mask))}
        node.cache[key] = cached
    return cached
