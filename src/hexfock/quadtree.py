"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

Spans are shell ranges; with one function per s shell they are also the
row and column ranges of every matrix block.

Norms are accumulated with math.fsum (correctly rounded), so the cached norm
of a block and of its transpose are bit-identical. Screening decisions in the
traversal drivers rely on that.

Shell-pair tree set-up works on the pairs that can survive: overlaps only
for the candidate pairs a sweep finds within a provable radius, and
(ij|ij) values and primitive pair data only for the canonical pairs of the
surviving leaves. ``shell_overlap_matrix`` forms the dense overlap matrix
for callers that want it; the pair tree does not use it.
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
    with np.errstate(over="ignore"):  # an overflowing norm is inf
        squares = block.astype(float) ** 2
    return math.sqrt(math.fsum(squares.ravel().tolist()))


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

# Relative slack on each candidate radius, so that rounding in the bound,
# the distances or the overlaps can only add candidates.
_RADIUS_MARGIN = 1e-6

# Center pairs tested per piece of the candidate sweep.
_SWEEP_CHUNK = 1 << 14


def shell_overlap_matrix(system: BasisSystem) -> np.ndarray:
    """Exactly symmetric matrix of contracted shell-shell overlaps."""
    n = system.n_shells
    iu, ju = np.triu_indices(n)
    m = np.zeros((n, n))
    for lo in range(0, len(iu), _PAIR_CHUNK):
        i, j = iu[lo:lo + _PAIR_CHUNK], ju[lo:lo + _PAIR_CHUNK]
        v = integrals.pair_overlaps(system.shells, np.column_stack((i, j)))
        m[i, j] = v
        m[j, i] = v
    return m


def _candidate_pairs(shells, tau_ovlp: float) -> np.ndarray:
    """Canonical (i <= j) shell pairs that can have |S_ij| >= tau_ovlp.

    Shells with the same exponents and weights form a class. For classes a
    and b, |S| <= C_ab exp(-mu_min r^2) with C_ab = sum |w_i w_j| (pi/p)^1.5
    and mu_min = min alpha_i beta_j / p over their primitive pairs, so no
    pair farther apart than r^2 = ln(C_ab / tau_ovlp) / mu_min reaches
    tau_ovlp. A sweep over the centers sorted by x tests only the pairs
    whose x distance is within the largest class radius, each against its
    own class radius; diagonal pairs are always kept. At tau_ovlp = 0 every
    radius is infinite and every pair is kept. Sorted row-major.
    """
    kinds = {}
    cls = np.array([kinds.setdefault((sh.exponents.tobytes(),
                                      sh.weights.tobytes()), len(kinds))
                    for sh in shells], dtype=np.intp)
    reps = [shells[k] for k in np.unique(cls, return_index=True)[1]]
    log_c = np.empty((len(reps), len(reps)))
    mu_min = np.empty_like(log_c)
    for a, sa in enumerate(reps):
        for b, sb in enumerate(reps):
            ea, eb = sa.exponents[:, None], sb.exponents[None, :]
            p = ea + eb
            c = np.sum(np.abs(sa.weights[:, None] * sb.weights[None, :])
                       * (np.pi / p) ** 1.5)
            log_c[a, b] = math.log(c)
            mu_min[a, b] = (ea * eb / p).min()
    with np.errstate(divide="ignore"):  # tau_ovlp = 0: every radius is inf
        log_tau = np.log(tau_ovlp)
    r2 = np.maximum(log_c - log_tau + _RADIUS_MARGIN, 0.0) / mu_min \
        * (1.0 + _RADIUS_MARGIN)
    centers = np.array([sh.center for sh in shells]).reshape(-1, 3)
    order = np.argsort(centers[:, 0], kind="stable")
    x = centers[order, 0]
    # sorted center k meets the centers after it up to reach[k]
    reach = np.searchsorted(
        x, x + math.sqrt(r2.max()) * (1.0 + _RADIUS_MARGIN), side="right")
    count = reach - np.arange(len(x)) - 1
    start = np.cumsum(count) - count
    diag = np.arange(len(shells))
    found = [np.column_stack((diag, diag))]
    total = int(count.sum())
    for lo in range(0, total, _SWEEP_CHUNK):
        flat = np.arange(lo, min(lo + _SWEEP_CHUNK, total))
        k = np.searchsorted(start, flat, side="right") - 1
        i, j = order[k], order[k + 1 + flat - start[k]]
        with np.errstate(over="ignore"):  # r^2 = inf is beyond every radius
            d = centers[i] - centers[j]
            keep = np.vecdot(d, d) <= r2[cls[i], cls[j]]
        found.append(np.sort(np.column_stack((i[keep], j[keep])), axis=1))
    cand = np.concatenate(found)
    return cand[np.lexsort((cand[:, 1], cand[:, 0]))]


def build_pair_tree(system: BasisSystem, root: Span,
                    tau_ovlp: float = 0.0) -> ShellPairNode:
    """Shell-pair quadtree on the partition ``root`` with overlap pruning and
    cached diagonal norms.

    A node is pruned iff every shell-pair overlap magnitude in its span is
    below tau_ovlp; pruned subtrees are not expanded. Overlaps are evaluated
    only for the candidate pairs of ``_candidate_pairs``, as every other
    pair is provably below tau_ovlp; a node survives iff it holds a leaf
    block with a candidate at or above tau_ovlp. The (ij|ij) values and the
    root's pair table come from one pass over the canonical pairs of the
    surviving leaves (``_pair_table``). The root's ``pairs`` table holds the
    pairs of every surviving leaf, each leaf's (row shell, col shell) grid
    row-major from its ``base``, in leaf order; a one-leaf tree's pair
    i*n + j is shell pair (i, j). No n x n array is formed. A negative or
    NaN tau_ovlp raises InvalidArgumentError.
    """
    if not tau_ovlp >= 0.0:
        raise InvalidArgumentError(f"tau_ovlp must be non-negative, got {tau_ovlp!r}")
    shells = system.shells
    cand = _candidate_pairs(shells, tau_ovlp)
    s_abs = np.concatenate([np.empty(0)] + [
        np.abs(integrals.pair_overlaps(shells, cand[lo:lo + _PAIR_CHUNK]))
        for lo in range(0, len(cand), _PAIR_CHUNK)])
    # first shell of each shell's leaf; a leaf block is keyed by the first
    # shells of its row and col leaves, in both orientations
    leaf_lo = np.repeat(*np.array([(s.shell_lo, s.n_functions)
                                   for s in _leaves(root)], dtype=np.intp).T)
    i, j = cand[~(s_abs < tau_ovlp)].T
    n = system.n_shells
    keys = np.unique(np.concatenate((leaf_lo[i] * n + leaf_lo[j],
                                     leaf_lo[j] * n + leaf_lo[i])))
    leaves = []  # surviving leaves, in build order
    n_pairs = 0

    def build(row: Span, col: Span, blocks) -> ShellPairNode:
        # blocks: (row leaf, col leaf) first shells of the live leaf blocks
        # inside this node
        nonlocal n_pairs
        node = ShellPairNode(row, col)
        if not blocks.size:
            node.pruned = True
            return node
        if node.is_leaf:
            leaves.append(node)
            node.base = n_pairs
            n_pairs += row.n_functions * col.n_functions
            return node
        row_lo, col_lo = blocks
        for a, r in enumerate(row.children()):
            in_r = (row_lo >= r.shell_lo) & (row_lo < r.shell_hi)
            for b, c in enumerate(col.children()):
                inside = in_r & (col_lo >= c.shell_lo) & (col_lo < c.shell_hi)
                node.children[(a, b)] = build(r, c, blocks[:, inside])
        return node

    tree = build(root, root, np.array((keys // n, keys % n)))
    # the recursive closure is a reference cycle; unbroken, it would keep
    # its arrays until the cyclic collector runs
    del build
    tree.pairs = _pair_table(shells, leaves)
    _set_norms(tree)
    return tree


def _leaves(span: Span) -> list:
    return [span] if span.is_leaf else _leaves(span.left) + _leaves(span.right)


def _set_norms(node: ShellPairNode):
    """diag_norm, rowsum_max and colsum_max of a live node, from its leaves'
    diag blocks up."""
    if node.pruned:
        return
    if node.is_leaf:
        d = node.diag
        node.diag_norm = _frobenius(d)
        node.rowsum_max = float(d.sum(axis=1).max())
        node.colsum_max = float(d.sum(axis=0).max())
        return
    for ch in node.children.values():
        _set_norms(ch)
    nr, nc = len(node.row.children()), len(node.col.children())
    # a live node holds a live leaf block, so one child is always live
    node.diag_norm = _rss(ch.diag_norm for ch in node.children.values()
                          if not ch.pruned)
    node.rowsum_max = max(
        math.fsum(node.children[(a, b)].rowsum_max for b in range(nc))
        for a in range(nr))
    node.colsum_max = max(
        math.fsum(node.children[(a, b)].colsum_max for a in range(nr))
        for b in range(nc))


def _pair_table(shells, leaves) -> PairData:
    """Root pair table over the grids of ``leaves``, and each leaf's diag.

    build_pair_data and then diagonal_values run once per canonical (i <= j)
    pair of the table, _PAIR_CHUNK pairs at a time, and each piece is
    copied into arrays of the full table's size: set-up then holds the
    table and one piece, not the temporaries of one call over every pair
    or a second copy made by joining the pieces. A pair (i, j) and its
    mirror (j, i) share p, center and weight, which are symmetric in the
    two primitives, so the mirror takes the canonical rows in transposed
    primitive order and the table is bytewise build_pair_data over its
    pair list. Each leaf's diag is its grid's row-major block of one
    (ij|ij) array over the table, so mirrored leaves are exact transposes.
    """
    n_prim = np.array([len(sh.exponents) for sh in shells], dtype=np.intp)
    base_at = {(lf.row.shell_lo, lf.col.shell_lo): lf.base for lf in leaves}
    r0, c0, nr, nc, base, mirror_base = np.array(
        [(lf.row.shell_lo, lf.col.shell_lo, lf.row.n_functions,
          lf.col.n_functions, lf.base, base_at[lf.col.shell_lo, lf.row.shell_lo])
         for lf in leaves], dtype=np.intp).reshape(-1, 6).T
    leaf = np.repeat(np.arange(len(leaves)), nr * nc)
    k = np.arange(len(leaf)) - base[leaf]
    i_shell = r0[leaf] + k // nc[leaf]
    j_shell = c0[leaf] + k % nc[leaf]
    # each canonical pair's id in the table, and its mirror's
    own = np.flatnonzero(i_shell <= j_shell)
    leaf = leaf[own]
    mirrored = (mirror_base[leaf] + (j_shell[own] - c0[leaf]) * nr[leaf]
                + i_shell[own] - r0[leaf])
    del leaf, k
    offsets = np.zeros(len(i_shell) + 1, dtype=np.intp)
    np.cumsum(n_prim[i_shell] * n_prim[j_shell], out=offsets[1:])
    n = offsets[-1]
    table = PairData(i_shell=i_shell, j_shell=j_shell, offsets=offsets,
                     p=np.empty(n), center=np.empty((n, 3)),
                     weight=np.empty(n))
    q = np.empty(len(i_shell))
    for lo in range(0, len(own), _PAIR_CHUNK):
        ids = own[lo:lo + _PAIR_CHUNK]
        mids = mirrored[lo:lo + _PAIR_CHUNK]
        piece = build_pair_data(shells, np.column_stack((i_shell[ids],
                                                         j_shell[ids])))
        q[ids] = q[mids] = diagonal_values(piece)
        pair = np.repeat(np.arange(piece.n_pairs), np.diff(piece.offsets))
        k = np.arange(len(piece.p)) - piece.offsets[pair]
        nb = n_prim[j_shell[ids]][pair]
        # row-major (alpha_i, beta_j) in the pair's own block, (beta_j,
        # alpha_i) in its mirror's
        for rows in (offsets[ids][pair] + k,
                     offsets[mids][pair] + k % nb * n_prim[i_shell[ids]][pair]
                     + k // nb):
            table.p[rows] = piece.p
            table.center[rows] = piece.center
            table.weight[rows] = piece.weight
    for lf in leaves:
        shape = (lf.row.n_functions, lf.col.n_functions)
        lf.diag = q[lf.base:lf.base + shape[0] * shape[1]].reshape(shape)
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
