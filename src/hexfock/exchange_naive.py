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
of tasks are screened per link in vector form, and leaf tasks in groups,
each live link over its own density leaf block, against factor tables
that leaf_cache builds once per pair tree and kind, for every live leaf,
laid out by orientation (density index on the row span, or on the col
span), each row of factors sorted in descending order. A leaf task's
work follows the quartets it keeps, not its (mu nu|lam sig) block: a
density entry culled on its largest factors is summed in closed form; for
each other entry a range query finds the box of free bra and free ket
indices that can pass, a prefix of each sorted row, and only that box is
tested per quartet, the rest summed in closed form. Kept quartets,
as ids into the pair trees' root tables, are evaluated _ERI_BATCH at a time
and added to K one at a time in walk order; a transposed i == j pair adds
nothing (its untransposed one covers it).

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
from .quadtree import MatrixQuadtree, ShellPairNode, flatten, leaf_spans

# Union quartets per eri_elementwise call: large enough that the kernel's
# per-call cost vanishes (a water:24 build at leaf 10 makes 14 calls, not
# 3,227), small enough that its temporaries stay near 1 MB.
_ERI_BATCH = 4096

# Box quartets a leaf task's screening expands per piece: each holds about
# 64 bytes of indices, factors and bound, so a piece stays near 16 MB.
_SCREEN_CHUNK = 1 << 18

# Tasks per frontier piece of the walk. A piece's temporaries and the pieces
# awaiting expansion, one per tree level, are (tasks x links) arrays of 8
# bytes: 128 KB each at 2^12 tasks with four links.
_WALK_PIECE = 1 << 12

# Density entries a slice of leaf tasks prefilters at once (2^14 float64
# bounds are 128 KB), and four times the box quartets a group of whole leaf
# tasks expands at once: most box quartets are kept, and a kept one also
# carries its pair ids, its place in the union and its ERI-buffer entry.
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
        self.n_canon = int(upper.sum())
        # the longest leaf span: tables pad the free index to it
        self.width = max(s.n_functions for s in leaf_spans(root.row))


def leaf_cache(root: ShellPairNode, canonical: bool = False) -> dict:
    """Pair ids and screening factors of a pair tree's live leaves, by
    _PairArrays slot: the canonical slots only, or all of them.

    m is the number of pairs a walk covers per slot. Each table is laid out
    by slot and orientation, (slots, 2, w, w) with w the longest leaf span:
    orientation 0 has one row per density index on the leaf's row span and
    one column per free index (the col shell), orientation 1 is its
    transpose, and both are zero-padded. sq holds the Schwarz factor
    (ij|ij)^1/2, each row sorted in descending order (stable), and pair the
    id in the root's pair table (the leaf's base plus the grid's row-major
    place) of the pair at each sq entry. tail, (slots, 2, w, w + 1), holds
    sq's suffix sums along each row: tail[..., k] = sum over f >= k of
    sq[..., f], so tail[..., w] = 0. Sorted rows make the engine's range
    query a prefix of each row. canonical=True restricts a diagonal leaf to
    its upper-triangular (i <= j) pairs: its factors are zero below the
    diagonal, so no bound there is kept and each adds 0 to the ledger.
    Built once per tree and kind, with the tree's ``flat`` node arrays
    where it has none yet, and kept in ``root.cache`` under "canon" or
    "full"; no other node holds a cache.
    """
    if root.flat is None:
        root.flat = _PairArrays(root)
    if root.cache is None:
        root.cache = {}
    key = "canon" if canonical else "full"
    if key not in root.cache:
        tree, nodes = root.flat, flatten(root)[0]
        slots = tree.leaves[:tree.n_canon if canonical else None]
        shape = (len(slots), 2, tree.width, tree.width)
        sq = np.zeros(shape)
        # int32 pair ids: a root table of 2^31 pairs would fill 100 GB
        pair = np.zeros(shape, dtype=np.int32)
        m = np.zeros(len(slots), dtype=np.intp)
        for s, leaf in enumerate(nodes[i] for i in slots.tolist()):
            q = np.sqrt(leaf.diag)
            nr, nc = q.shape
            m[s] = nr * nc
            if canonical and leaf.row is leaf.col:
                q, m[s] = np.triu(q), nr * (nr + 1) // 2
            grid = leaf.base + np.arange(nr * nc).reshape(nr, nc)
            sq[s, 0, :nr, :nc], sq[s, 1, :nc, :nr] = q, q.T
            pair[s, 0, :nr, :nc], pair[s, 1, :nc, :nr] = grid, grid.T
        order = np.argsort(-sq, axis=3, kind="stable")
        sq = np.take_along_axis(sq, order, axis=3)
        pair = np.take_along_axis(pair, order, axis=3)
        del order
        tail = np.zeros(shape[:3] + (shape[3] + 1,))
        tail[..., :-1] = np.cumsum(sq[..., ::-1], axis=3)[..., ::-1]
        root.cache[key] = {"m": m, "sq": sq, "tail": tail, "pair": pair}
    return root.cache[key]


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
        self.case_label, self.canonical = case_label, case_label is not None
        # the leaf tables of each side, one leaf_cache call per distinct root
        self.A = leaf_cache(bra, canonical=self.canonical)
        self.B = (self.A if ket is bra
                  else leaf_cache(ket, canonical=self.canonical))
        self.roots = (bra, ket)
        self.bra, self.ket = bra.flat, ket.flat
        self.buffer = []     # unions and kept quartets not yet evaluated
        self.n_buffered = 0  # quartets in their unions
        self.c, self.tau_2e, self.evaluate = counters, tau_2e, evaluate
        self.qlog = quartet_log

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
        # density entries: width x width per link
        step = max(1, _LEAF_GROUP // (links.shape[1] * bt.width ** 2))
        for lo in range(0, len(bl), step):
            s = slice(lo, lo + step)
            self._screen(bl[s], kl[s], ll[s])
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

    def _screen(self, bl, kl, links):
        """Screen a slice of leaf tasks, each live link over its own density
        leaf block, whose rows are its bra's density index and columns its
        ket's: the bra reads its tables in orientation 1 - tb (the density
        index on its col span unless transposed), the ket in orientation tk.
        An entry whose screening_bound on the largest free factors (each
        sorted row's first) is within tau keeps no quartet (rounding is
        monotone) and adds |p| * (sum fb) * (sum fk) to the ledger. Each
        other entry is a candidate: _edges finds its box, and whole tasks
        are grouped by _LEAF_GROUP // 4 box quartets for _group."""
        c, tau, w, A, B = self.c, self.tau_2e, self.bra.width, self.A, self.B
        t, l = np.nonzero(links >= 0)  # by task, then link
        p = self.P.blocks[self.P.slot[links[t, l]]]
        # each live link's bra and ket table, as (slot, orientation) rows
        ob, ok = bl[t] * 2 + 1 - self.tb[l], kl[t] * 2 + self.tk[l]
        pa = np.abs(p)
        # by density index: the largest free factor (its sorted row's first)
        # and the sum of its row
        sq_b, sq_k = A["sq"].reshape(-1, w, w), B["sq"].reshape(-1, w, w)
        keep = screening_bound(sq_b[ob, :, :1], pa,
                               sq_k[ok, :, 0][:, None]) > tau
        i, d1, d2 = np.nonzero(keep)
        pc = pa[i, d1, d2]
        pa[keep] = 0.0
        tail_b = A["tail"].reshape(-1, w, w + 1)
        tail_k = B["tail"].reshape(-1, w, w + 1)
        c.culled_bound_ledger += 0.5 * float(
            (tail_b[ob, :, :1] * pa * tail_k[ok, :, 0][:, None]).sum())
        rb, rk, weight = ob[i] * w + d1, ok[i] * w + d2, p[i, d1, d2]
        del p, pa, keep, d1, d2
        nb, nk = self._edges(rb, rk, pc)
        # per candidate: its rows in the bra's and the ket's tables, whether
        # its bra and its ket are transposed, its density weight and |weight|
        # and its box
        cand = (rb, rk, self.tb[l[i]], self.tk[l[i]], weight, pc, nb, nk)
        # each task's first candidate; a group ends where the boxes before a
        # task cross a multiple of _LEAF_GROUP // 4 quartets; a larger task
        # is alone in one
        group = max(1, _LEAF_GROUP // 4)
        first = np.searchsorted(t[i], np.arange(len(bl) + 1))
        before = np.r_[0, np.cumsum(nb * nk)][first]
        big = np.diff(before) >= group
        ends = np.flatnonzero((np.diff(before[:-1] // group) > 0)
                              | big[1:] | big[:-1]) + 1
        first = first[np.r_[0, ends, len(bl)]]
        c.quartets_culled_leaf += int((A["m"][bl[t]] * B["m"][kl[t]]).sum())
        for g in map(slice, first[:-1], first[1:]):
            self._group(*[x[g] for x in cand])
            if self.n_buffered >= _ERI_BATCH:
                self.flush()

    def _edges(self, rb, rk, pc):
        """The range query: each candidate's box of free indices, with bra
        row a, ket row b and weight |p|, _LEAF_GROUP // width candidates at
        a time. nb = #(screening_bound(a, |p|, b[0]) > tau) and nk =
        #(screening_bound(a[0], |p|, b) > tau) count prefixes of the sorted
        rows, as rounding is monotone, and every quartet outside the nb x nk
        box fails its own test. Their bounds add |p| * (tail_a[nb] *
        tail_b[0] + (sum_{f<nb} a) * tail_b[nk]) to the ledger: positive
        terms only, so no subtraction can cancel."""
        tau, w, A, B = self.tau_2e, self.bra.width, self.A, self.B
        sq_b, sq_k = A["sq"].reshape(-1, w), B["sq"].reshape(-1, w)
        tail_b = A["tail"].reshape(-1, w + 1)
        tail_k = B["tail"].reshape(-1, w + 1)
        nb, nk = np.empty((2, len(pc)), dtype=np.intp)
        step = max(1, _LEAF_GROUP // w)
        for lo in range(0, len(pc), step):
            s = slice(lo, lo + step)
            a, b, pw = sq_b[rb[s]], sq_k[rk[s]], pc[s, None]
            in_b = screening_bound(a, pw, b[:, :1]) > tau
            nb[s] = in_b.sum(axis=1)
            nk[s] = (screening_bound(a[:, :1], pw, b) > tau).sum(axis=1)
            self.c.culled_bound_ledger += 0.5 * float((pc[s] * (
                tail_b[rb[s], nb[s]] * tail_k[rk[s], 0]
                + a.sum(axis=1, where=in_b) * tail_k[rk[s], nk[s]])).sum())
        return nb, nk

    def _group(self, rb, rk, tb, tk, weight, pc, nb, nk):
        """Test each quartet in the boxes of a group's candidates with
        screening_bound, in pieces of whole candidates of about
        _SCREEN_CHUNK quartets (the direct-SCF test: the kept set does not
        depend on leaf blocking); count the kept quartets' union of
        root-table ids and buffer it with each one's place in it,
        transposes and weight."""
        tau, w, A, B = self.tau_2e, self.bra.width, self.A, self.B
        sq_b, sq_k = A["sq"].reshape(-1, w), B["sq"].reshape(-1, w)
        box = nb * nk
        start = np.r_[0, np.cumsum(box)]  # each candidate's first quartet
        cut = np.flatnonzero(np.diff(start[:-1] // _SCREEN_CHUNK)) + 1
        kept = []
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(rb)]):
            # (candidate, free bra index, free ket index), row-major per box
            j = np.repeat(np.arange(lo, hi), box[lo:hi])
            f1, f2 = np.divmod(np.arange(start[lo], start[hi]) - start[j],
                               nk[j])
            bound = screening_bound(sq_b[rb[j], f1], pc[j], sq_k[rk[j], f2])
            keep = bound > tau
            self.c.culled_bound_ledger += 0.5 * float(bound.sum(where=~keep))
            kept.append((j[keep], f1[keep], f2[keep]))
        del j, bound, keep
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

    def flush(self, final: bool = False):
        """Evaluate the buffered unions, _ERI_BATCH quartets per call (the
        rest waits unless ``final``), and after each call add its kept
        quartets to K at row mu (nu if the bra is transposed) and column
        sig (lam if the ket is), dropping a transposed i == j pair, one at
        a time in walk order: K is the same for every batch size."""
        size = _ERI_BATCH
        m = self.n_buffered if final else self.n_buffered // size * size
        if not m:
            return
        union, at, tb, tk, weight = map(np.concatenate, zip(*self.buffer))
        # each batch's first kept quartet; the last cut starts the rest
        cut = np.searchsorted(at, np.r_[0:m:size, m])
        rest = slice(cut[-1], None)
        self.buffer = [(union[m:], at[rest] - m, tb[rest], tk[rest],
                        weight[rest])]
        self.n_buffered -= m
        pb, pk = self.roots[0].pairs, self.roots[1].pairs
        for lo, k in zip(range(0, m, size), map(slice, cut[:-1], cut[1:])):
            ia, ib = np.divmod(union[lo:lo + size], pk.n_pairs)
            e = -0.5 * eri_elementwise(pb, pk, ia, ib)
            mu, nu, lam, sig = (pb.i_shell[ia], pb.j_shell[ia],
                                pk.i_shell[ib], pk.j_shell[ib])
            if self.qlog is not None:
                self.qlog.extend(zip(mu.tolist(), nu.tolist(), lam.tolist(),
                                     sig.tolist()))
            # K rows and columns, untransposed then transposed; -1 drops
            # i == j
            a, n = at[k] - lo, len(ia)
            row = np.concatenate((mu, np.where(mu == nu, -1, nu)))
            col = np.concatenate((sig, np.where(lam == sig, -1, lam)))
            row, col = row[a + n * tb[k]], col[a + n * tk[k]]
            keep = (row >= 0) & (col >= 0)
            np.add.at(self.K.reshape(-1), (row * len(self.K) + col)[keep],
                      (e[a] * weight[k])[keep])


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
