"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

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
    """Contiguous shell/function range; a node of the bisection tree."""

    shell_lo: int
    shell_hi: int
    fn_lo: int
    fn_hi: int
    left: "Span | None" = None
    right: "Span | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n_functions(self) -> int:
        return self.fn_hi - self.fn_lo

    def children(self):
        """Sub-spans for simultaneous descent; a leaf stands in for itself."""
        return (self,) if self.is_leaf else (self.left, self.right)

    def __repr__(self):
        return f"Span(shells {self.shell_lo}:{self.shell_hi}, fns {self.fn_lo}:{self.fn_hi})"


@dataclass
class Partition:
    root: Span
    leaf_size: int

    @property
    def levels(self):
        """Span lists per depth; ragged leaves repeat at deeper levels."""
        out = []
        frontier = [self.root]
        while True:
            out.append(frontier)
            if all(s.is_leaf for s in frontier):
                return out
            frontier = [c for s in frontier for c in
                        ((s,) if s.is_leaf else (s.left, s.right))]

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
    """Recursive bisection at the shell boundary nearest the function midpoint.

    Ties between equidistant boundaries break left. Splitting stops once a
    span holds at most ``leaf_size`` functions.
    """
    sizes = [sh.n_functions for sh in system.shells]
    if leaf_size < max(sizes, default=1):
        raise InvalidArgumentError("leaf_size must be >= the largest shell")
    cum = np.concatenate([[0], np.cumsum(sizes)]).astype(int)

    def split(shell_lo, shell_hi):
        node = Span(shell_lo, shell_hi, int(cum[shell_lo]), int(cum[shell_hi]))
        if node.n_functions <= leaf_size:
            return node
        mid = (node.fn_lo + node.fn_hi) / 2.0
        boundaries = np.arange(shell_lo + 1, shell_hi)
        dist = np.abs(cum[boundaries] - mid)
        b = int(boundaries[int(np.argmin(dist))])  # argmin takes first => left tie-break
        node.left = split(shell_lo, b)
        node.right = split(b, shell_hi)
        return node

    return Partition(root=split(0, len(sizes)), leaf_size=leaf_size)


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
        _fill_dense(self, out, self.row.fn_lo, self.col.fn_lo)
        return out


def _fill_dense(node, out, row0, col0):
    if node.is_leaf:
        r, c = node.row, node.col
        out[r.fn_lo - row0:r.fn_hi - row0, c.fn_lo - col0:c.fn_hi - col0] = node.leaf
        return
    for ch in node.children.values():
        _fill_dense(ch, out, row0, col0)


def build_matrix_tree(dense: np.ndarray, partition: Partition,
                      zero_drop: float = 0.0) -> MatrixQuadtree:
    """Quadtree over ``dense``; children with norm <= zero_drop are dropped.

    With the default zero_drop = 0 only exactly-zero blocks are absent.
    """
    dense = np.asarray(dense, dtype=float)
    n = partition.root.n_functions
    if dense.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix shape {dense.shape} does not match partition size {n}")

    def build(row: Span, col: Span):
        if row.is_leaf and col.is_leaf:
            block = dense[row.fn_lo:row.fn_hi, col.fn_lo:col.fn_hi]
            if not np.any(block):
                return None
            norm = _frobenius(block)
            if norm <= zero_drop:
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
        self.cache = None   # driver-level leaf scratch (scatter indicators)

    @property
    def is_leaf(self) -> bool:
        return self.row.is_leaf and self.col.is_leaf

    def child(self, a: int, b: int):
        if self.is_leaf:
            return self if (a, b) == (0, 0) else None
        return self.children.get((a, b))


def shell_overlap_matrix(system: BasisSystem) -> np.ndarray:
    """Exactly symmetric matrix of contracted shell-shell overlaps."""
    n = system.n_shells
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            v = integrals.overlap(system.shells[i], system.shells[j])
            s[i, j] = v
            s[j, i] = v
    return s


def build_pair_tree(system: BasisSystem, partition: Partition,
                    tau_ovlp: float = 0.0,
                    overlap_matrix: np.ndarray | None = None) -> ShellPairNode:
    """Shell-pair quadtree with overlap pruning and cached diagonal norms.

    A node is pruned iff every shell-pair overlap magnitude in its span is
    below tau_ovlp; pruned subtrees are not expanded.
    """
    s_abs = np.abs(shell_overlap_matrix(system) if overlap_matrix is None
                   else overlap_matrix)
    shells = system.shells

    def build(row: Span, col: Span) -> ShellPairNode:
        node = ShellPairNode(row, col)
        block_max = s_abs[row.shell_lo:row.shell_hi, col.shell_lo:col.shell_hi].max()
        if block_max < tau_ovlp:
            node.pruned = True
            return node
        if node.is_leaf:
            pair_list = [(i, j)
                         for i in range(row.shell_lo, row.shell_hi)
                         for j in range(col.shell_lo, col.shell_hi)]
            node.pairs = build_pair_data(shells, pair_list)
            # diagonal values are evaluated in canonical (i <= j) orientation so
            # that mirrored blocks cache bit-identical screening inputs
            canon = build_pair_data(shells, [(min(i, j), max(i, j))
                                             for i, j in pair_list])
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


def _subset_pairs(pd, idx: np.ndarray):
    """PairData restricted to the selected pair indices."""
    from .integrals import PairData
    idx = np.asarray(idx, dtype=np.intp)
    lens = pd.offsets[idx + 1] - pd.offsets[idx]
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.intp)
    if len(idx):
        gather = np.concatenate([np.arange(pd.offsets[t], pd.offsets[t + 1])
                                 for t in idx])
    else:
        gather = np.empty(0, dtype=np.intp)
    return PairData(
        i_shell=pd.i_shell[idx], j_shell=pd.j_shell[idx],
        i_fn=pd.i_fn[idx], j_fn=pd.j_fn[idx],
        offsets=offsets, p=pd.p[gather],
        center=pd.center[gather], weight=pd.weight[gather])


def leaf_cache(node: ShellPairNode, canonical: bool = False) -> dict:
    """Pair table, diagonal values and scatter indicators for a leaf pair node.

    canonical=True restricts a diagonal node to its upper-triangular pairs
    (the canonical orientation); off-diagonal nodes are unaffected. Entries:
    pd (PairData), q (per-pair (ij|ij) in canonical orientation), i_rel/j_rel
    (function indices relative to the spans), ri/rj (pair -> function
    indicator matrices), wdi (0 where i == j, else 1). Cached on the node;
    rebuilding under a concurrent race is idempotent.
    """
    if node.cache is None:
        node.cache = {}
    key = "canon" if canonical else "full"
    cached = node.cache.get(key)
    if cached is not None:
        return cached
    pd = node.pairs
    row, col = node.row, node.col
    q = node.diag.ravel()
    if canonical and row is col:
        ns = row.shell_hi - row.shell_lo
        keep = np.asarray([x * ns + y for x in range(ns) for y in range(x, ns)],
                          dtype=np.intp)
        pd = _subset_pairs(pd, keep)
        q = q[keep]
    m = pd.n_pairs
    i_rel = pd.i_fn - row.fn_lo
    j_rel = pd.j_fn - col.fn_lo
    ri = np.zeros((m, row.n_functions))
    ri[np.arange(m), i_rel] = 1.0
    rj = np.zeros((m, col.n_functions))
    rj[np.arange(m), j_rel] = 1.0
    wdi = ((pd.i_shell != pd.j_shell).astype(float) if row is col
           else np.ones(m))
    cached = {"pd": pd, "q": q, "i_rel": i_rel, "j_rel": j_rel,
              "ri": ri, "rj": rj, "wdi": wdi}
    node.cache[key] = cached
    return cached


def _walk(node, level=0):
    yield level, node
    children = getattr(node, "children", None) or {}
    for key in sorted(children):
        yield from _walk(children[key], level + 1)


def dump_tree_text(node) -> str:
    """Indented text dump of a matrix or pair tree, for inspection."""
    lines = []
    for level, nd in _walk(node):
        norm = getattr(nd, "norm", None)
        if norm is None:
            norm = nd.diag_norm
        pruned = getattr(nd, "pruned", False)
        lines.append("  " * level +
                     f"[{nd.row.fn_lo}:{nd.row.fn_hi}) x [{nd.col.fn_lo}:{nd.col.fn_hi})"
                     f" norm={norm:.6e}" + (" PRUNED" if pruned else ""))
    return "\n".join(lines)


def dump_tree_csv(node) -> str:
    """Flat CSV dump: level, row_span, col_span, norm, pruned."""
    lines = ["level,row_lo,row_hi,col_lo,col_hi,norm,pruned"]
    for level, nd in _walk(node):
        norm = getattr(nd, "norm", None)
        if norm is None:
            norm = nd.diag_norm
        pruned = getattr(nd, "pruned", False)
        lines.append(f"{level},{nd.row.fn_lo},{nd.row.fn_hi},"
                     f"{nd.col.fn_lo},{nd.col.fn_hi},{norm!r},{int(pruned)}")
    return "\n".join(lines)
