"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

Spans are shell ranges; with one function per s shell they are also the
row and column ranges of every matrix block.

Norms are accumulated with math.fsum (correctly rounded), so the cached norm
of a block and of its transpose are bit-identical. Screening decisions in the
traversal drivers rely on that.

Shell-pair tree set-up works on the pairs that can survive: overlaps only
for the candidate pairs a sweep finds within a provable radius, then a
(leaves x leaves) table of the live leaf blocks. The root's pair table,
with (ij|ij) values and primitive pair data for the canonical pairs of the
live blocks only, is laid out from that table, and one recursion prunes,
places and normalizes every node. ``shell_overlap_matrix`` forms the dense
overlap matrix for callers that want it; the pair tree does not use it.
The exchange engine keeps what it derives from a pair tree, one index
object (exchange_naive.leaf_cache), in the root's ``cache`` only.
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
    return _split(0, system.n_shells, leaf_size)


def _split(lo: int, hi: int, leaf_size: int) -> Span:
    node = Span(lo, hi)
    if hi - lo > leaf_size:
        mid = (lo + hi) // 2
        node.left = _split(lo, mid, leaf_size)
        node.right = _split(mid, hi, leaf_size)
    return node


class _Block:
    """Node over a (row span, col span) block: a leaf when both spans are
    leaves, else its children are keyed by (row child, col child) index."""

    __slots__ = ("row", "col", "children", "is_leaf")

    def __init__(self, row: Span, col: Span, children: dict):
        self.row = row
        self.col = col
        self.children = children
        self.is_leaf = row.is_leaf and col.is_leaf


class MatrixQuadtree(_Block):
    """Quadtree block of a dense matrix; absent children are exact zeros."""

    __slots__ = ("norm", "leaf")

    def __init__(self, row: Span, col: Span, norm: float, children=None, leaf=None):
        super().__init__(row, col, children or {})
        self.norm = norm
        self.leaf = leaf


def flatten(root: _Block):
    """The nodes under ``root``, parents first, and each one's child ids: row
    x holds at 2 * a + b the id of child (a, b), -1 where there is none, and
    a leaf stands in for itself at 0."""
    nodes = [root]
    for node in nodes:
        nodes.extend(node.children.values())
    index = {id(node): i for i, node in enumerate(nodes)}
    child = np.full((len(nodes), 4), -1, dtype=np.intp)
    for i, node in enumerate(nodes):
        child[i, 0] = i if node.is_leaf else -1
        for (a, b), ch in node.children.items():
            child[i, 2 * a + b] = index[id(ch)]
    return nodes, child


def build_matrix_tree(dense: np.ndarray, root: Span) -> MatrixQuadtree:
    """Quadtree over ``dense`` on the partition ``root``; blocks of norm 0
    are absent."""
    dense = np.asarray(dense, dtype=float)
    n = root.n_functions
    if dense.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix shape {dense.shape} does not match partition size {n}")
    tree = _build_matrix(dense, root, root)
    if tree is None:
        # all-zero matrix: keep an explicit root with norm 0 and no children
        tree = MatrixQuadtree(root, root, 0.0,
                              leaf=dense if root.is_leaf else None)
    return tree


def _build_matrix(dense: np.ndarray, row: Span, col: Span):
    if row.is_leaf and col.is_leaf:
        block = dense[row.shell_lo:row.shell_hi, col.shell_lo:col.shell_hi]
        norm = _frobenius(block)
        if norm == 0.0:  # exactly zero, or its squares underflow
            return None
        return MatrixQuadtree(row, col, norm, leaf=block)
    children = {}
    for a, r in enumerate(row.children()):
        for b, c in enumerate(col.children()):
            ch = _build_matrix(dense, r, c)
            if ch is not None:
                children[(a, b)] = ch
    if not children:
        return None
    norm = _rss(ch.norm for ch in children.values())
    return MatrixQuadtree(row, col, norm, children=children)


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
        # at a surviving leaf: the first id of its block in that table, whose
        # blocks run row-major by (row leaf, col leaf)
        self.base = 0
        self.diag = None    # its block of the system's (ab|ab) matrix
        # at the root: the engine's index of the tree (exchange_naive.leaf_cache)
        self.cache = None


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
    pair is provably below tau_ovlp. A (row leaf, col leaf) block is live
    iff it or its mirror holds a candidate at or above tau_ovlp. The root's
    pair table and (ij|ij) values are laid out from that (leaves x leaves)
    liveness table (``_pair_table``), and one recursion (``_build_pairs``)
    then builds the tree. No n x n array is formed. A negative or NaN
    tau_ovlp raises InvalidArgumentError.
    """
    if not tau_ovlp >= 0.0:
        raise InvalidArgumentError(f"tau_ovlp must be non-negative, got {tau_ovlp!r}")
    shells = system.shells
    cand = _candidate_pairs(shells, tau_ovlp)
    s_abs = np.concatenate([np.empty(0)] + [
        np.abs(integrals.pair_overlaps(shells, cand[lo:lo + _PAIR_CHUNK]))
        for lo in range(0, len(cand), _PAIR_CHUNK)])
    leaves = leaf_spans(root)
    leaf_of = np.repeat(np.arange(len(leaves)), [lf.n_functions for lf in leaves])
    i, j = cand[~(s_abs < tau_ovlp)].T
    live = np.zeros((len(leaves), len(leaves)), dtype=bool)
    live[leaf_of[i], leaf_of[j]] = True
    live |= live.T
    table, base, q = _pair_table(shells, leaves, live)
    tree = _build_pairs(root, root, live, leaf_of.tolist(), base, q)
    tree.pairs = table
    return tree


def leaf_spans(span: Span) -> list:
    return [span] if span.is_leaf else leaf_spans(span.left) + leaf_spans(span.right)


def _build_pairs(row: Span, col: Span, live, leaf_of, base, q) -> ShellPairNode:
    """Pair node over (row, col), pruned iff its slice of ``live`` is all
    False; a surviving leaf takes its ``base`` and its grid of ``q`` as
    ``diag``, a live node its norms from its children's on the way up."""
    node = ShellPairNode(row, col)
    rows = slice(leaf_of[row.shell_lo], leaf_of[row.shell_hi - 1] + 1)
    cols = slice(leaf_of[col.shell_lo], leaf_of[col.shell_hi - 1] + 1)
    if not live[rows, cols].any():
        node.pruned = True
        return node
    if node.is_leaf:
        node.base = int(base[rows.start, cols.start])
        shape = (row.n_functions, col.n_functions)
        d = node.diag = q[node.base:node.base + shape[0] * shape[1]].reshape(shape)
        node.diag_norm = _frobenius(d)
        node.rowsum_max = float(d.sum(axis=1).max())
        node.colsum_max = float(d.sum(axis=0).max())
        return node
    grid = [[_build_pairs(r, c, live, leaf_of, base, q) for c in col.children()]
            for r in row.children()]
    node.children = {(a, b): ch for a, chs in enumerate(grid)
                     for b, ch in enumerate(chs)}
    # a pruned child's norms are 0, which leaves each exact sum unchanged
    node.diag_norm = _rss(ch.diag_norm for ch in node.children.values())
    node.rowsum_max = max(math.fsum(ch.rowsum_max for ch in chs) for chs in grid)
    node.colsum_max = max(math.fsum(ch.colsum_max for ch in chs)
                          for chs in zip(*grid))
    return node


def _pair_table(shells, leaves, live):
    """Root pair table over the live blocks of ``live``, each block's first
    id in it as a (leaves x leaves) array, and each pair's (ij|ij) value.

    Each block's (row shell, col shell) grid is row-major from its first id,
    the blocks row-major by (row leaf, col leaf); a one-leaf tree's pair
    i*n + j is shell pair (i, j). build_pair_data and then diagonal_values
    run once per canonical (i <= j) pair of the table, _PAIR_CHUNK pairs at
    a time, and each piece is copied into arrays of the full table's size:
    set-up then holds the table and one piece, not the temporaries of one
    call over every pair or a second copy made by joining the pieces. A pair
    (i, j) and its mirror (j, i) share p, center and weight, which are
    symmetric in the two primitives, so the mirror takes the canonical rows
    in transposed primitive order and the table is bytewise build_pair_data
    over its pair list. Each leaf's diag is its grid's row-major block of q,
    so mirrored leaves are exact transposes.
    """
    n_prim = np.array([len(sh.exponents) for sh in shells], dtype=np.intp)
    first, size = np.array([(lf.shell_lo, lf.n_functions) for lf in leaves],
                           dtype=np.intp).T
    rl, cl = np.nonzero(live)
    r0, c0, nr, nc = first[rl], first[cl], size[rl], size[cl]
    count = nr * nc
    base = np.zeros(live.shape, dtype=np.intp)
    base[rl, cl] = start = np.cumsum(count) - count
    block = np.repeat(np.arange(len(rl)), count)
    k = np.arange(len(block)) - start[block]
    i_shell = r0[block] + k // nc[block]
    j_shell = c0[block] + k % nc[block]
    # each canonical pair's id in the table, and its mirror's
    own = np.flatnonzero(i_shell <= j_shell)
    block = block[own]
    mirrored = (base[cl, rl][block] + (j_shell[own] - c0[block]) * nr[block]
                + i_shell[own] - r0[block])
    del block, k
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
    return table, base, q
