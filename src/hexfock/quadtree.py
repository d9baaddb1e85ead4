"""Ragged-bisection partitions and quadtrees over matrices and shell pairs.

Spans are shell ranges; with one function per s shell they are also the
row and column ranges of every matrix block.

Both quadtrees are node arrays with no per-node object (the
quadtree-as-arrays layout of Bock and Challacombe), formed from a (leaves
x leaves) table of their blocks by the same two passes: top down, level by
level, for the nodes (_levels), and bottom up for the norms (_bottom_up).
Norms are math.fsum sums (correctly rounded), so a block and its
transpose have bit-identical norms; the drivers' screening relies on
that. Nodes are views over the arrays: the root's is made with the tree,
each other on its parent's first ``children`` access, and kept. The
matrix tree holds its nonzero leaf blocks, zero-padded, and the exchange
walk reads its arrays as they are.

Shell-pair tree set-up works on the pairs that can survive: overlaps only
for the candidate pairs a sweep finds within a provable radius, then the
table of the live leaf blocks, from which the root's pair table is laid
out: the primitive pair data of each canonical (i <= j) pair of the live
blocks once, with each leaf place's id in it and (ij|ij) value. The
exchange engine reads the pair tree's arrays, not its views, into one
index object (exchange_naive.leaf_cache), kept in the root's ``cache``
only. ``shell_overlap_matrix`` forms the dense overlap matrix for callers
that want it; the pair tree does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from types import SimpleNamespace

import numpy as np

from . import integrals
from .basis import BasisSystem
from .integrals import (InvalidArgumentError, PairData, build_pair_data,
                        diagonal_values)


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


class _NodeView:
    """View of one (row span, col span) node of a quadtree's node arrays."""

    __slots__ = ("row", "col", "is_leaf", "_arrays", "_node", "_children")

    def __init__(self, arrays, node: int, row: Span, col: Span):
        self._arrays, self._node, self._children = arrays, node, None
        self.row, self.col = row, col
        self.is_leaf = row.is_leaf and col.is_leaf

    @property
    def children(self) -> dict:
        """Child views by (row child, col child) index, made once: none
        under a leaf, nor where ``child`` is -1."""
        if self._children is None:
            rows, cols = self.row.children(), self.col.children()
            child = ([] if self.is_leaf
                     else self._arrays.child[self._node].tolist())
            self._children = {
                (k >> 1, k & 1): type(self)(self._arrays, ch, rows[k >> 1],
                                            cols[k & 1])
                for k, ch in enumerate(child) if ch >= 0}
        return self._children


class MatrixQuadtree(_NodeView):
    """View of one node of a matrix quadtree (build_matrix_tree); an absent
    block is in no ``children``. ``norm`` is its block's Frobenius norm,
    ``leaf`` at a leaf the block, a view of the tree's padded blocks. The
    root's view holds the table of each leaf block's slot, -1 if absent."""

    __slots__ = ("norm", "leaf", "_slots")

    def __init__(self, arrays, node: int, row: Span, col: Span, slots=None):
        super().__init__(arrays, node, row, col)
        self.norm = float(arrays.norm[node])
        self.leaf = (arrays.blocks[arrays.slot[node], :row.n_functions,
                                   :col.n_functions] if self.is_leaf else None)
        self._slots = slots


def build_matrix_tree(dense: np.ndarray, root: Span) -> MatrixQuadtree:
    """Quadtree over ``dense``, the matrix of the shells of the partition
    ``root`` (row and col 0 are shell root.shell_lo); returns its root's
    view. A NaN or infinite entry raises InvalidArgumentError.

    Leaf norms come from zero-padded blocks, about _PLACE_PIECE entries at a
    time; a leaf block of norm 0 (zero, or its squares underflow) is absent,
    as is an inner block with no child, but the root. The node arrays are
    what the exchange walk reads: order ``n``, ``child`` (_levels), each
    node's ``norm`` and ``slot`` (-1 but at a leaf), and ``blocks``, the
    padded leaf blocks, row-major by (row leaf, col leaf).
    """
    dense = np.asarray(dense, dtype=float)
    n = root.n_functions
    if dense.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix shape {dense.shape} does not match partition size {n}")
    if not np.isfinite(dense).all():
        i, j = np.argwhere(~np.isfinite(dense))[0].tolist()
        raise InvalidArgumentError(
            f"matrix entry ({i}, {j}) is {float(dense[i, j])}; entries must be finite")
    first, size = np.array([(lf.shell_lo - root.shell_lo, lf.n_functions)
                            for lf in leaf_spans(root)], dtype=np.intp).T
    m, w = len(first), int(size.max())
    own = np.arange(w) < size[:, None]  # a leaf's own padded rows (cols)
    at = first[:, None] + np.minimum(np.arange(w), size[:, None] - 1)

    def blocks(r, c):  # the zero-padded blocks (r[i], c[i])
        return np.where(own[r, :, None] & own[c, None, :],
                        dense[at[r, :, None], at[c, None, :]], 0.0)

    leaf_norm = np.zeros((m, m))
    step = max(1, _PLACE_PIECE // w ** 2)
    for lo in range(0, m * m, step):  # block (r, c) is r * m + c
        piece = np.arange(lo, min(lo + step, m * m))
        with np.errstate(over="ignore"):  # a square past the largest double is inf
            sq = blocks(*np.divmod(piece, m)).reshape(len(piece), -1) ** 2
        some = np.flatnonzero(sq.any(axis=1))  # the others' norms are 0
        leaf_norm.flat[piece[some]] = np.sqrt(list(map(_fsum, sq[some].tolist())))
    live = (leaf_norm > 0.0) | (m == 1)  # a leaf root keeps its block
    slots = np.where(live, np.cumsum(live).reshape(m, m) - 1, -1)
    t = _levels(root, live)
    keep = np.r_[True, ~t.pruned[1:]]  # the root, and no absent block
    new = np.cumsum(keep) - 1
    child = np.where((t.child >= 0) & keep[t.child], new[t.child], -1)[keep]
    leaf, rl, cl = t.leaf[keep], t.rl[keep], t.cl[keep]
    norm = np.where(leaf, leaf_norm[rl, cl], 0.0)
    with np.errstate(over="ignore"):  # an overflowing norm is inf
        for node, ch in _bottom_up(child, ~leaf,
                                   np.r_[0, np.cumsum(keep)][t.start]):
            sq = np.where(ch >= 0, norm[ch] ** 2, 0.0).tolist()
            norm[node] = np.sqrt(list(map(_fsum, sq)))
    arrays = SimpleNamespace(n=n, child=child, norm=norm,
                             slot=np.where(leaf, slots[rl, cl], -1),
                             blocks=blocks(*np.nonzero(live)))
    return MatrixQuadtree(arrays, 0, root, root, slots)


class ShellPairNode(_NodeView):
    """View of one node of a shell-pair quadtree (_pair_nodes): it reads
    its node's flags and norms once. The root's view holds the pair table
    (``pairs``) and the engine's index (``cache``); no other view does.

    diag_norm is the Frobenius norm of the diagonal ERI entries (ab|ab)
    over the pair span; rowsum_max / colsum_max are (upper bounds on) the
    largest row/column sum of that diagonal block, used for the
    a-posteriori culled error ledger. A surviving leaf's ``ids`` and
    ``diag`` are its places' ids in the root's pair table and their (ab|ab)
    values, views of the tree's flat per-place arrays.
    """

    __slots__ = ("pruned", "diag_norm", "rowsum_max", "colsum_max", "ids",
                 "diag", "pairs", "cache")

    def __init__(self, arrays: SimpleNamespace, node: int, row: Span,
                 col: Span, pairs: PairData | None = None):
        super().__init__(arrays, node, row, col)
        self.pruned = bool(arrays.pruned[node])
        self.diag_norm = float(arrays.diag_norm[node])
        self.rowsum_max = float(arrays.rowsum[node])
        self.colsum_max = float(arrays.colsum[node])
        self.ids = self.diag = None  # at a surviving leaf: see above
        at = int(arrays.at[node])
        if at >= 0:
            shape = (row.n_functions, col.n_functions)
            grid = slice(at, at + shape[0] * shape[1])
            self.ids = arrays.ids[grid].reshape(shape)
            self.diag = arrays.q[grid].reshape(shape)
        self.pairs = pairs  # at the root: PairData of its canonical pairs
        # at the root: the engine's index of the tree (exchange_naive.leaf_cache)
        self.cache = None


# Candidate pairs per overlap pass, and at most primitive pairs per pass of
# the root table's build_pair_data. Small passes keep the primitive-pair
# temporaries small: one pass over all pairs raised the benchmark's peak RSS
# by 1.6-2.5 MB at water:24-30, 512-pair passes by at most 0.4 MB.
_PAIR_CHUNK = 512
_PRIM_CHUNK = 4096

# Places (matrix entries) per piece of the trees' leaf norms and sums: a
# piece's Python floats and gathered blocks stay near 2 MB.
_PLACE_PIECE = 1 << 16

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
    cached diagonal norms; returns its root's view.

    A node is pruned iff every shell-pair overlap magnitude in its span is
    below tau_ovlp; pruned subtrees are not expanded. Overlaps are evaluated
    only for the candidate pairs of ``_candidate_pairs``, as every other
    pair is provably below tau_ovlp. A (row leaf, col leaf) block is live
    iff it or its mirror holds a candidate at or above tau_ovlp
    (``_live_blocks``). The root's pair table, which holds each canonical
    pair once, each leaf place's id in it and (ij|ij) value
    (``_pair_table``), and the node arrays (``_pair_nodes``) are formed
    from that liveness table, with no n x n array. A negative or NaN
    tau_ovlp, or a partition that does not span exactly the system's
    shells, raises InvalidArgumentError.
    """
    if not tau_ovlp >= 0.0:
        raise InvalidArgumentError(f"tau_ovlp must be non-negative, got {tau_ovlp!r}")
    if (root.shell_lo, root.shell_hi) != (0, system.n_shells):
        raise InvalidArgumentError(
            f"the partition spans shells {root.shell_lo}:{root.shell_hi}, "
            f"the system has shells 0:{system.n_shells}")
    leaves = leaf_spans(root)
    live = _live_blocks(system.shells, leaves, tau_ovlp)
    table, base, ids, q = _pair_table(system.shells, leaves, live)
    return ShellPairNode(_pair_nodes(root, live, base, ids, q), 0, root, root,
                         pairs=table)


def _live_blocks(shells, leaves, tau_ovlp: float):
    """The (leaves x leaves) liveness table: a block is live iff it or its
    mirror holds a candidate pair whose overlap magnitude is at or above
    tau_ovlp."""
    cand = _candidate_pairs(shells, tau_ovlp)
    s_abs = np.concatenate([np.empty(0)] + [
        np.abs(integrals.pair_overlaps(shells, cand[lo:lo + _PAIR_CHUNK]))
        for lo in range(0, len(cand), _PAIR_CHUNK)])
    leaf_of = np.repeat(np.arange(len(leaves)), [lf.n_functions for lf in leaves])
    i, j = cand[~(s_abs < tau_ovlp)].T
    live = np.zeros((len(leaves), len(leaves)), dtype=bool)
    live[leaf_of[i], leaf_of[j]] = True
    return live | live.T


def leaf_spans(span: Span) -> list:
    return [span] if span.is_leaf else leaf_spans(span.left) + leaf_spans(span.right)


def _levels(root: Span, live) -> SimpleNamespace:
    """The nodes of a quadtree on the partition ``root`` from the (leaves x
    leaves) table ``live``, a level at a time: each child, by (a, b), of
    the unpruned inner nodes above. A node is a (row span, col span)
    block: first shells ``row`` and ``col``, lengths ``nr`` and ``nc``,
    first leaves ``rl`` and ``cl``. It is pruned iff its slice of ``live``
    is all False (by a summed-area table), a ``leaf`` iff both spans are,
    and ``child`` holds at 2 * a + b the id of child (a, b), -1 if none, a
    leaf its own id at 0. ``start`` holds each level's first node, then
    the node count."""
    leaf_lo = [leaf.shell_lo for leaf in leaf_spans(root)]
    # the partition's spans, parents first: first shell, length, first and
    # end leaf, and child span ids (a leaf's own id, then -1)
    spans = [root]
    for span in spans:
        if not span.is_leaf:
            spans += [span.left, span.right]
    sid = {id(span): k for k, span in enumerate(spans)}
    kid = np.array([(k, -1) if span.is_leaf
                    else (sid[id(span.left)], sid[id(span.right)])
                    for k, span in enumerate(spans)], dtype=np.intp)
    lo, size = np.array([(span.shell_lo, span.n_functions) for span in spans],
                        dtype=np.intp).T
    first, end = np.searchsorted(leaf_lo, lo), np.searchsorted(leaf_lo, lo + size)
    n_live = np.zeros((len(live) + 1,) * 2, dtype=np.intp)
    np.cumsum(np.cumsum(live, axis=0), axis=1, out=n_live[1:, 1:])
    r = c = np.zeros(1, dtype=np.intp)  # this level's row and col span ids
    levels = []
    n = 0  # nodes above this level
    while len(r):
        pruned = (n_live[end[r], end[c]] - n_live[first[r], end[c]]
                  - n_live[end[r], first[c]] + n_live[first[r], first[c]]) == 0
        leaf = (kid[r, 1] < 0) & (kid[c, 1] < 0)
        grow = ((kid[r, :, None] >= 0) & (kid[c, None, :] >= 0)
                & ~(pruned | leaf)[:, None, None])
        t, a, b = np.nonzero(grow)
        child = np.full((len(r), 4), -1, dtype=np.intp)
        child[t, 2 * a + b] = n + len(r) + np.arange(len(t))
        child[leaf, 0] = n + np.flatnonzero(leaf)
        levels.append((r, c, child, leaf, pruned))
        n += len(r)
        r, c = kid[r[t], a], kid[c[t], b]
    r, c, child, leaf, pruned = map(np.concatenate, zip(*levels))
    return SimpleNamespace(row=lo[r], col=lo[c], nr=size[r], nc=size[c],
                           rl=first[r], cl=first[c], child=child, leaf=leaf,
                           pruned=pruned,
                           start=np.cumsum([0] + [len(x[0]) for x in levels]))


def _fsum(squares) -> float:
    """math.fsum, exact, so a block and its transpose have one norm; inf
    where finite squares sum past the largest double (math.fsum raises)."""
    try:
        return math.fsum(squares)
    except OverflowError:
        return math.inf


def _bottom_up(child, inner, start):
    """Each level's ``inner`` nodes and child ids, deepest first (``start``
    as _levels gives it): both trees' bottom-up norm pass."""
    for lo, hi in reversed(list(pairwise(start.tolist()))):
        node = lo + np.flatnonzero(inner[lo:hi])
        yield node, child[node]


def _pair_nodes(root: Span, live, base, ids, q) -> SimpleNamespace:
    """The pair tree's node arrays (_levels), with ``at``, a surviving leaf's
    first place in ``ids`` and ``q`` (else -1), and norms: 0 at a pruned
    node, a surviving leaf's from its block (_leaf_values), an inner
    node's from its children's, each row (col) sum of at most two terms by
    IEEE addition, which is what fsum gives there."""
    t = _levels(root, live)
    n = len(t.child)
    t.at, t.ids, t.q = np.full(n, -1, dtype=np.intp), ids, q
    live_leaf = np.flatnonzero(t.leaf & ~t.pruned)
    rl, cl = t.rl[live_leaf], t.cl[live_leaf]
    at = t.at[live_leaf] = base[rl, cl]
    norms = np.zeros((3, n))
    norms[:, live_leaf] = _leaf_values(q, at, t.nr[live_leaf],
                                       t.nc[live_leaf], base[cl, rl])
    diag_norm, rowsum, colsum = t.diag_norm, t.rowsum, t.colsum = norms
    with np.errstate(over="ignore"):  # an overflowing norm or sum is inf
        for node, ch in _bottom_up(t.child, ~(t.leaf | t.pruned), t.start):
            has = ch >= 0
            sq = np.where(has, diag_norm[ch] ** 2, 0.0).tolist()
            diag_norm[node] = np.sqrt(list(map(_fsum, sq)))
            # by child (a, b) at 2 * a + b: each row a's sum over b, each
            # col b's over a, with 0 for an absent child; the sums are not
            # negative, so a 0 term or row changes neither a sum nor a max
            x = np.where(has, rowsum[ch], 0.0)
            rowsum[node] = (x[:, 0::2] + x[:, 1::2]).max(axis=1)
            x = np.where(has, colsum[ch], 0.0)
            colsum[node] = (x[:, :2] + x[:, 2:]).max(axis=1)
    return t


def _leaf_values(q, at, nr, nc, mirror):
    """diag_norm, rowsum_max and colsum_max of each surviving leaf, the (nr
    x nc) block of ``q`` from place ``at``, whose mirror block starts at
    place ``mirror``.

    The norm is sqrt(fsum) of the block's squares, summed for the blocks
    on and above the diagonal only, which come first in place order: fsum
    is exact, so a mirrored block, the transpose, has the same one. The
    sums are each block's own row-major ``d.sum(axis=1).max()`` and
    ``d.sum(axis=0).max()``, taken over a stack of the blocks of one shape
    at a time, which adds the same terms in the same order. Both work in
    pieces of about _PLACE_PIECE places.
    """
    norm, rowsum, colsum = np.empty((3, len(at)))
    own = np.flatnonzero(at <= mirror)
    own = own[np.argsort(at[own])]
    cut = np.flatnonzero(np.diff(at[own] // _PLACE_PIECE)) + 1
    for piece in np.split(own, cut) if len(own) else ():
        lo, hi = at[piece[0]], at[piece[-1]] + nr[piece[-1]] * nc[piece[-1]]
        with np.errstate(over="ignore"):  # an overflowing norm is inf
            sq = (q[lo:hi] ** 2).tolist()
        ends = at[piece] - lo, at[piece] - lo + nr[piece] * nc[piece]
        norm[piece] = np.sqrt([_fsum(sq[a:b]) for a, b in
                               zip(*(x.tolist() for x in ends))])
    other = np.flatnonzero(at > mirror)
    norm[other] = norm[own[np.searchsorted(at[own], mirror[other])]]
    for a, b in set(zip(nr.tolist(), nc.tolist())):
        same = np.flatnonzero((nr == a) & (nc == b))
        step = max(1, _PLACE_PIECE // (a * b))
        for lo in range(0, len(same), step):
            piece = same[lo:lo + step]
            d = q[at[piece, None] + np.arange(a * b)].reshape(-1, a, b)
            rowsum[piece] = d.sum(axis=2).max(axis=1)
            colsum[piece] = d.sum(axis=1).max(axis=1)
    return norm, rowsum, colsum


def _pair_table(shells, leaves, live):
    """Root pair table over the live blocks of ``live``, each block's first
    place as a (leaves x leaves) array, and each place's pair id and (ij|ij)
    value.

    A place is a (row shell, col shell) of a live block: each block's grid
    is row-major from its first place, the blocks row-major by (row leaf,
    col leaf). The table holds each canonical (i <= j) pair once, numbered
    in the order of its own place, and a place (j, i) takes the id of its
    mirror (i, j). build_pair_data runs over passes of whole pairs of the
    table holding at most _PRIM_CHUNK primitive pairs (a pair with more is
    a pass alone), each piece copied into arrays of the full table's size:
    set-up then holds the table and one piece, not the temporaries of one
    call over every pair or a second copy made by joining the pieces, and
    the table is bytewise build_pair_data over its pair list.
    diagonal_values then runs once over the whole table; it bounds its own
    passes, and rounds each value as the pair alone rounds it. Each leaf's
    diag is its grid's row-major block of the places' values, so mirrored
    leaves are exact transposes.
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
    # each canonical pair's own place, and its mirror's
    own = np.flatnonzero(i_shell <= j_shell)
    block = block[own]
    mirrored = (base[cl, rl][block] + (j_shell[own] - c0[block]) * nr[block]
                + i_shell[own] - r0[block])
    ids = np.empty(len(i_shell), dtype=np.intp)
    ids[own] = ids[mirrored] = np.arange(len(own))
    i_shell, j_shell = i_shell[own], j_shell[own]
    del block, k, own, mirrored
    offsets = np.zeros(len(i_shell) + 1, dtype=np.intp)
    np.cumsum(n_prim[i_shell] * n_prim[j_shell], out=offsets[1:])
    n = offsets[-1]
    table = PairData(i_shell=i_shell, j_shell=j_shell, offsets=offsets,
                     p=np.empty(n), center=np.empty((n, 3)),
                     weight=np.empty(n))
    lo = 0
    while lo < len(i_shell):
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + _PRIM_CHUNK,
                                             side="right")) - 1)
        piece = build_pair_data(shells, np.column_stack((i_shell[lo:hi],
                                                         j_shell[lo:hi])))
        rows = slice(offsets[lo], offsets[hi])
        table.p[rows] = piece.p
        table.center[rows] = piece.center
        table.weight[rows] = piece.weight
        lo = hi
    return table, base, ids, diagonal_values(table)[ids]
