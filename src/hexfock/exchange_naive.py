"""Hextree traversal engine for the exchange matrix, and its naive driver.

A task is a (bra pair node, ket pair node) pair carrying one or more density
links. Each link is a slot (transpose_bra, transpose_ket) plus the density
node it points at: slot (False, False) contracts P[nu,lam] into K[mu,sig],
and a transposed side swaps that pair's two indices in both the density
gather and the K sink. A task is culled when a pair node is overlap-pruned,
or when every link is absent or fails the blocked Almlof-Ahlrichs bound;
otherwise it expands into the child tasks of the blocked contraction, each
surviving link following its own density child.

The walk runs in bounded array passes over flattened trees: frontier pieces
of tasks are screened per link in vector form, and leaf tasks in groups
over padded per-leaf factor tables. A leaf task's work follows the quartets
it keeps, not its (mu nu|lam sig) block: a density entry culled on its
largest factors is summed in closed form, the others are tested per
quartet. Kept quartets, as ids into the pair trees' root tables, are
evaluated _ERI_BATCH at a time and added to K one at a time in walk order;
a transposed i == j pair adds nothing (its untransposed one covers it).

The naive driver is this engine with one untransposed link over all ordered
pairs; exchange_symmetry runs it with four links over canonical pairs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

# eri_cross is not called here (Traversal.flush calls eri_elementwise); it
# stays bound only because perfbench/run.py's tracer wraps it on both driver
# modules.
from .integrals import InvalidArgumentError, eri_cross, eri_elementwise
from .quadtree import (MatrixQuadtree, ShellPairNode, flatten, leaf_cache,
                       leaf_spans)

# Union quartets per eri_elementwise call: large enough that the kernel's
# per-call cost vanishes (a water:24 build at leaf 10 makes 14 calls, not
# 3,227), small enough that its temporaries stay near 1 MB.
_ERI_BATCH = 4096

# Quartets a leaf task's screening expands per piece (16 MB of bounds); no
# leaf task of the benchmark workloads, at most 1.13 M quartets, needs two.
_SCREEN_CHUNK = 1 << 21

# Tasks per frontier piece of the walk. A piece's temporaries and the pieces
# awaiting expansion, one per tree level, are (tasks x links) arrays of 8
# bytes: 128 KB each at 2^12 tasks with four links.
_WALK_PIECE = 1 << 12

# Density entries a slice of leaf tasks prefilters at once, and quartets a
# group of whole leaf tasks expands at once: 2^14 float64 bounds are 128 KB.
_LEAF_GROUP = 1 << 14


class LogicError(RuntimeError):
    """Internal traversal invariant violated; indicates a driver bug."""


@dataclass
class TraversalCounters:
    tasks_visited: int = 0
    tasks_culled_screening: int = 0
    tasks_culled_absent: int = 0
    leaf_contractions: int = 0
    eri_shell_quartets: int = 0
    quartets_culled_leaf: int = 0
    tasks_expanded: int = 0
    children_spawned: int = 0
    culled_bound_ledger: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def screening_bound(f_bra, p, f_ket):
    """Almlof-Ahlrichs bound, exact under the bra/ket swap as f_bra * f_ket
    commutes; p scales that product in place, so must not broadcast past it."""
    bound = f_bra * f_ket
    bound *= p
    return bound


def check_screening(tau_2e: float) -> None:
    """Reject a negative or NaN threshold."""
    if not tau_2e >= 0.0:
        raise InvalidArgumentError(f"tau_2e must be non-negative, got {tau_2e!r}")


def screening_test(bra_norm: float, p_norm: float, ket_norm: float,
                   tau_2e: float) -> bool:
    """True when the blocked Almlof-Ahlrichs bound says: cull this task.

    The bra and ket diagonal-block Frobenius norms enter as their square
    roots, the Schwarz form |(ab|cd)| <= (ab|ab)^1/2 (cd|cd)^1/2.
    """
    check_screening(tau_2e)
    if bra_norm < 0.0 or p_norm < 0.0 or ket_norm < 0.0:
        raise InvalidArgumentError("screening norms must be non-negative")
    return screening_bound(math.sqrt(bra_norm), p_norm,
                           math.sqrt(ket_norm)) <= tau_2e


def culled_task_bound(bra_sum, p_norm, ket_sum):
    """Rigorous max-abs bound on the K contribution of culled tasks, per
    element: |sum_qr P_qr (pq|rs)| <= ||P||_F * sqrt(sum_q (pq|pq)) *
    sqrt(sum_r (rs|rs)) via Cauchy-Schwarz over (q, r); the sums are bounded
    by the bra's rowsum_max (colsum_max if transposed) and the ket's
    colsum_max (rowsum_max if transposed)."""
    return (0.5 * p_norm * np.sqrt(np.maximum(bra_sum, 0.0))
            * np.sqrt(np.maximum(ket_sum, 0.0)))


def check_driver_args(bra, ket, p, tau_2e: float) -> None:
    """check_screening, then reject trees over different partitions and
    pair nodes that are not tree roots (only a root holds a pair table)."""
    check_screening(tau_2e)
    roots = {id(bra.row), id(bra.col), id(ket.row), id(ket.col), id(p.row), id(p.col)}
    if len(roots) != 1:
        raise InvalidArgumentError("bra, ket and P must be built over the same partition")
    if bra.pairs is None or ket.pairs is None:
        raise InvalidArgumentError("bra and ket must be roots of pair trees")


class _PairArrays:
    """Node arrays of a pair tree, cached in its root's ``flat`` by its first
    build; holding no node, the cache makes no cycle. A span is named by its
    first shell, unique on its tree level. Live leaves have factor-table
    slots, canonical ones (row span not after col span) first."""

    def __init__(self, root: ShellPairNode):
        nodes, self.child = flatten(root)
        self.row, self.col = np.array([(n.row.shell_lo, n.col.shell_lo)
                                       for n in nodes], dtype=np.intp).T
        self.leaf, self.pruned = np.array([(n.is_leaf, n.pruned)
                                           for n in nodes]).T
        f, self.rowsum, self.colsum = np.array(
            [(n.diag_norm, n.rowsum_max, n.colsum_max) for n in nodes]).T
        self.f = np.sqrt(f)
        live = np.flatnonzero(self.leaf & ~self.pruned)
        upper = self.row[live] <= self.col[live]
        self.leaves = np.concatenate((live[upper], live[~upper]))  # by slot
        self.slot = np.full(len(nodes), -1, dtype=np.intp)
        self.slot[self.leaves] = np.arange(len(live))
        self.nr = np.array([nodes[i].row.n_functions for i in self.leaves],
                           dtype=np.intp)
        self.n_canon = int(upper.sum())
        # the longest leaf span: tables pad the free index to it
        self.width = max(s.n_functions for s in leaf_spans(root.row))
        self.tables = {}


def _density_arrays(P: MatrixQuadtree, width: int) -> SimpleNamespace:
    """A density tree's flatten() child ids (-1: an absent block), norms,
    and leaf blocks zero-padded to width x width, indexed by leaf slot."""
    nodes, child = flatten(P)
    leaves = [n for n in nodes if n.is_leaf]
    blocks = np.zeros((len(leaves), width, width))
    for block, n in zip(blocks, leaves):
        block[:n.leaf.shape[0], :n.leaf.shape[1]] = n.leaf
    return SimpleNamespace(child=child, norm=np.array([n.norm for n in nodes]),
                           slot=np.cumsum([n.is_leaf for n in nodes]) - 1,
                           blocks=blocks)


class Traversal:
    """One build's K accumulator and counters, and how it walks.

    ``case_label`` (exchange_symmetry._case_index), when given, makes the
    walk canonical (upper-triangular child keys and leaf pairs only) and
    turns on SymmetryCounters' per-link and per-case tallies. ``quartet_log``
    collects every evaluated shell quartet."""

    def __init__(self, bra: ShellPairNode, ket: ShellPairNode, tau_2e: float,
                 evaluate: bool, counters: TraversalCounters,
                 case_label=None, quartet_log: list | None = None):
        self.K = np.zeros((bra.row.n_functions,) * 2)
        for root in (bra, ket):
            if root.flat is None:
                root.flat = _PairArrays(root)
        self.roots = (bra, ket)
        self.bra, self.ket = bra.flat, ket.flat
        self.buffer = []     # unions and kept quartets not yet evaluated
        self.n_buffered = 0  # quartets in their unions
        self.c, self.tau_2e, self.evaluate = counters, tau_2e, evaluate
        self.case_label, self.canonical = case_label, case_label is not None
        self.qlog, self.nodes = quartet_log, {}  # flatten() nodes, by root

    def walk(self, P: MatrixQuadtree, slots) -> None:
        """Visit every task from the roots, with a link to P's root per slot
        (transpose_bra, transpose_ket), then flush."""
        self.P = _density_arrays(P, self.bra.width)
        self.tb, self.tk = np.array(slots, dtype=bool).reshape(-1, 2).T
        root = np.zeros(1, dtype=np.intp)
        self._walk(root, root, np.zeros((1, len(slots)), dtype=np.intp))
        self.flush(final=True)
        self.P = None  # its leaf blocks are as large as P

    def _walk(self, b, k, links):
        """Visit a piece, then walk its inner tasks' children, _WALK_PIECE //
        16 parents at a time: memory follows the tree depth, not its width."""
        b, k, links = self._visit(b, k, links)
        step = max(1, _WALK_PIECE // 16)
        for lo in range(0, len(b), step):
            s = slice(lo, lo + step)
            self._walk(*self._children(b[s], k[s], links[s]))

    def _visit(self, b, k, links):
        """Screen a piece of tasks (bra ids, ket ids, link states), contract
        its leaf tasks; return its live inner tasks, dead links set to -2."""
        c, bt, kt = self.c, self.bra, self.ket
        c.tasks_visited += len(b)
        ok = ~(bt.pruned[b] | kt.pruned[k])
        c.tasks_culled_absent += len(b) - int(ok.sum())
        b, k, links = b[ok], k[ok], links[ok]
        present = links >= 0
        norm = self.P.norm[np.where(present, links, 0)]
        bound = screening_bound(np.broadcast_to(bt.f[b][:, None], links.shape),
                                norm,
                                np.broadcast_to(kt.f[k][:, None], links.shape))
        screened = present & (bound <= self.tau_2e)
        live = present & ~screened
        t, l = np.nonzero(screened)
        c.culled_bound_ledger += float(culled_task_bound(
            np.where(self.tb[l], bt.colsum[b[t]], bt.rowsum[b[t]]), norm[t, l],
            np.where(self.tk[l], kt.rowsum[k[t]], kt.colsum[k[t]])).sum())
        del present, norm, bound, t, l
        if self.canonical:
            c.links_culled_absent += int((links == -1).sum())
            c.links_culled_screening += int(screened.sum())
        alive = live.any(axis=1)
        n_screened = int((screened.any(axis=1) & ~alive).sum())
        c.tasks_culled_screening += n_screened
        c.tasks_culled_absent += len(b) - int(alive.sum()) - n_screened
        complete = (links[alive] != -1).all(axis=1)
        b, k, links = b[alive], k[alive], np.where(live, links, -2)[alive]
        leaf = bt.leaf[b] & kt.leaf[k]
        if self.canonical:
            label = self.case_label(bt.row[b], bt.col[b], kt.row[k], kt.col[k],
                                    b == k, complete)
            for counts, x in ((c.case_tasks, label),
                              (c.case_leaf_tasks, label[leaf])):
                tally = np.bincount(x, minlength=len(counts)).tolist()
                for name, n in zip(counts, tally):
                    counts[name] += n
        c.leaf_contractions += int(leaf.sum())
        bl, kl, ll = bt.slot[b[leaf]], kt.slot[k[leaf]], links[leaf]
        A, B = self._tables(0, bl), self._tables(1, kl)
        step = max(1, _LEAF_GROUP // (2 * bt.width) ** 2)  # density entries
        for lo in range(0, len(bl), step):
            s = slice(lo, lo + step)
            self._screen(A, B, bl[s], kl[s], ll[s])
        inner = ~leaf
        c.tasks_expanded += int(inner.sum())
        return b[inner], k[inner], links[inner]

    def _children(self, b, k, links):
        """Child tasks of inner tasks, per parent by bra key then ket key,
        each live link following its density child."""
        bt, kt = self.bra, self.ket
        bc, kc = bt.child[b], kt.child[k]
        vb, vk = bc >= 0, kc >= 0
        if self.canonical:
            vb[:, 2] &= bt.row[b] != bt.col[b]
            vk[:, 2] &= kt.row[k] != kt.col[k]
        t, bpos, kpos = np.nonzero(vb[:, :, None] & vk[:, None, :])
        self.c.children_spawned += len(t)
        parent = links[t]
        # density child (a or cc, d or bb) of bra key (a, cc), ket key (d, bb)
        dpos = (2 * np.where(self.tb, bpos[:, None] >> 1, bpos[:, None] & 1)
                + np.where(self.tk, kpos[:, None] & 1, kpos[:, None] >> 1))
        child = self.P.child[np.maximum(parent, 0), dpos]
        return bc[t, bpos], kc[t, kpos], np.where(parent >= 0, child, -2)

    def _tables(self, side: int, slots) -> dict:
        """Side's leaf_cache tables in the walk's orientation by slot, padded
        to 2 * width density rows and width free columns; the rows of
        ``slots`` are filled through leaf_cache where no build has yet."""
        tree, root = (self.bra, self.ket)[side], self.roots[side]
        if self.canonical not in tree.tables:
            n = tree.n_canon if self.canonical else len(tree.nr)
            w = tree.width
            # int32 pair ids: a root table of 2^31 pairs would fill 100 GB
            tree.tables[self.canonical] = dict(
                sq=np.zeros((n, 2 * w, w)), sqmax=np.zeros((n, 2 * w)),
                sqsum=np.zeros((n, 2 * w)), m=np.zeros(n, dtype=np.intp),
                pair=np.zeros((n, 2 * w, w), dtype=np.int32),
                filled=np.zeros(n, bool))
        t = tree.tables[self.canonical]
        new = np.unique(slots[~t["filled"][slots]])
        if len(new) and id(root) not in self.nodes:
            self.nodes[id(root)] = flatten(root)[0]
        for s in new.tolist():
            cache = leaf_cache(self.nodes[id(root)][tree.leaves[s]],
                               canonical=self.canonical)
            for key in ("sq", "pair", "sqmax", "sqsum"):
                t[key][s][tuple(map(slice, cache[key].shape))] = cache[key]
            t["m"][s] = cache["m"]
        t["filled"][new] = True
        return t

    def _screen(self, A, B, bl, kl, links):
        """Screen a slice of leaf tasks. Each live link's leaf block fills a
        block of a task's density p over its tables' rows: a transposed bra
        its row span (rows from 0), else its col span (from nr); a transposed
        ket its col span (columns from nl), else its row span. An entry whose
        screening_bound on the largest free factors is within tau keeps no
        quartet (rounding is monotone) and adds |p| * (sum fb) * (sum fk) to
        the ledger. Whole tasks are grouped by _LEAF_GROUP quartets of
        candidate expansion."""
        c, tau, w = self.c, self.tau_2e, self.bra.width
        nr, nl = self.bra.nr[bl], self.ket.nr[kl]
        p, ar = np.zeros((len(bl), 2 * w, 2 * w)), np.arange(w)
        for l, (tb, tk) in enumerate(zip(self.tb, self.tk)):
            t = np.flatnonzero(links[:, l] >= 0)
            rows = np.where(tb, 0, nr[t])[:, None, None] + ar[:, None]
            cols = np.where(tk, nl[t], 0)[:, None, None] + ar
            p[t[:, None, None], rows, cols] += \
                self.P.blocks[self.P.slot[links[t, l]]]
        pa = np.abs(p)
        keep = screening_bound(A["sqmax"][bl][:, :, None], pa,
                               B["sqmax"][kl][:, None, :]) > tau
        t, d1, d2 = np.nonzero(keep)
        pc = pa[t, d1, d2]
        pa[keep] = 0.0
        c.culled_bound_ledger += 0.5 * float(
            (A["sqsum"][bl][:, :, None] * pa * B["sqsum"][kl][:, None, :]).sum())
        # per candidate: its rows in the bra's and the ket's tables, whether
        # its bra and its ket are transposed, and its density weight
        cand = (bl[t] * 2 * w + d1, kl[t] * 2 * w + d2, d1 < nr[t],
                d2 >= nl[t], p[t, d1, d2])
        del p, pa, keep, d1, d2
        # each task's first candidate; a group ends where the expansion before
        # a task crosses a multiple of _LEAF_GROUP; a larger task is alone in one
        first = np.searchsorted(t, np.arange(len(bl) + 1))
        big = np.diff(first) * w * w >= _LEAF_GROUP
        ends = np.flatnonzero((np.diff(first[:-1] * w * w // _LEAF_GROUP) > 0)
                              | big[1:] | big[:-1]) + 1
        first = first[np.r_[0, ends, len(bl)]]
        live = (links >= 0).sum(axis=1)
        c.quartets_culled_leaf += int((live * A["m"][bl] * B["m"][kl]).sum())
        for g in map(slice, first[:-1], first[1:]):
            self._group(A, B, [x[g] for x in cand], pc[g])

    def _group(self, A, B, group, pc):
        """Test each quartet of a group's candidates, in pieces of
        _SCREEN_CHUNK (the direct-SCF test: the kept set does not depend on
        leaf blocking); count the kept quartets' union of root-table ids and
        buffer it with each one's place in it, transposes and weight."""
        rb, rk, tb, tk, weight = group
        tau, w = self.tau_2e, self.bra.width
        sq_b, sq_k = A["sq"].reshape(-1, w), B["sq"].reshape(-1, w)
        step = max(1, _SCREEN_CHUNK // (w * w))
        kept = []
        for lo in range(0, len(rb) or 1, step):
            s = slice(lo, lo + step)
            # (candidate, free bra index, free ket index)
            bound = screening_bound(sq_b[rb[s]][:, :, None], pc[s, None, None],
                                    sq_k[rk[s]][:, None, :])
            keep = bound > tau
            self.c.culled_bound_ledger += 0.5 * float(bound.sum(where=~keep))
            j, f1, f2 = np.nonzero(keep)
            kept.append((j + lo, f1, f2))
        del bound, keep
        c, f1, f2 = kept[0] if len(kept) == 1 else map(np.concatenate,
                                                        zip(*kept))
        self.c.quartets_culled_leaf -= len(c)
        quartet = (A["pair"].reshape(-1, w)[rb[c], f1].astype(np.intp)
                   * self.roots[1].pairs.n_pairs
                   + B["pair"].reshape(-1, w)[rk[c], f2])
        # sorted and scanned here, as np.unique's per-call cost exceeds a
        # small group's whole screening
        order = quartet.argsort()
        quartet = quartet[order]
        first = np.ones(len(quartet), dtype=bool)
        np.not_equal(quartet[1:], quartet[:-1], out=first[1:])
        union = quartet[first]
        self.c.eri_shell_quartets += len(union)
        if self.evaluate and len(union):
            c = c[order]
            self.buffer.append((union, self.n_buffered + np.cumsum(first) - 1,
                                tb[c], tk[c], weight[c]))
            self.n_buffered += len(union)
            if self.n_buffered >= _ERI_BATCH:
                self.flush()

    def flush(self, final: bool = False):
        """Evaluate the buffered unions, _ERI_BATCH quartets per call (the
        rest waits unless ``final``), and add each kept quartet to K at row
        mu (nu if the bra is transposed) and column sig (lam if the ket is),
        dropping a transposed i == j pair, one at a time in walk order: K is
        the same for every batch size."""
        size = _ERI_BATCH
        m = self.n_buffered if final else self.n_buffered // size * size
        if not m:
            return
        union, at, tb, tk, weight = map(np.concatenate, zip(*self.buffer))
        self.buffer = []
        pb, pk = self.roots[0].pairs, self.roots[1].pairs
        ia, ib = np.divmod(union[:m], pk.n_pairs)
        e = -0.5 * np.concatenate([
            eri_elementwise(pb, pk, ia[lo:lo + size], ib[lo:lo + size])
            for lo in range(0, m, size)])
        mu, nu, lam, sig = (pb.i_shell[ia], pb.j_shell[ia],
                            pk.i_shell[ib], pk.j_shell[ib])
        if self.qlog is not None:
            self.qlog.extend(zip(mu.tolist(), nu.tolist(), lam.tolist(),
                                 sig.tolist()))
        # K rows and columns, untransposed then transposed; -1 drops i == j
        cut = np.searchsorted(at, m)
        self.buffer = [(union[m:], at[cut:] - m, tb[cut:], tk[cut:],
                        weight[cut:])]
        self.n_buffered -= m
        a, tb, tk = at[:cut], tb[:cut], tk[:cut]
        row = np.concatenate((mu, np.where(mu == nu, -1, nu)))[a + m * tb]
        col = np.concatenate((sig, np.where(lam == sig, -1, lam)))[a + m * tk]
        keep = (row >= 0) & (col >= 0)
        np.add.at(self.K.reshape(-1), (row * len(self.K) + col)[keep],
                  (e[a] * weight[:cut])[keep])


def build_exchange_naive(bra: ShellPairNode, ket: ShellPairNode,
                         P: MatrixQuadtree, tau_2e: float = 0.0,
                         quartet_log: list | None = None,
                         evaluate: bool = True):
    """Exchange matrix K = -1/2 sum P_nl (mn|ls) by naive hextree traversal.

    One untransposed density link over every ordered bra and ket pair.
    Returns (K, TraversalCounters). With tau_2e = tau_ovlp = 0 the result
    matches the dense oracle up to floating-point reassociation.
    quartet_log, when given, collects every evaluated shell quartet
    (mu, nu, lam, sig); only sensible for small systems. evaluate=False
    walks the task tree and fills counters without computing integrals
    (K stays zero).
    """
    check_driver_args(bra, ket, P, tau_2e)
    t = Traversal(bra, ket, tau_2e, evaluate, TraversalCounters(),
                  quartet_log=quartet_log)
    t.walk(P, [(False, False)])
    return t.K, t.c
