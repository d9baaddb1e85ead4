"""Hextree traversal engine for the exchange matrix, and its naive driver.

A task is a (bra pair node, ket pair node) pair carrying one or more density
links. Each link is a slot (transpose_bra, transpose_ket) plus the density
node it points at: slot (False, False) contracts P[nu,lam] into K[mu,sig],
and a transposed side swaps that pair's two indices in both the density
gather and the K sink. A task is culled when a pair node is overlap-pruned,
or when every link is absent or fails the blocked Almlof-Ahlrichs bound;
otherwise it expands into the child tasks of the blocked contraction, each
surviving link following its own density child. A leaf task's quartets
are the (mu nu|lam sig) block over the four leaf shell spans, but its work
follows the quartets it keeps: each density entry of a link is first
prefiltered with the largest factors its quartets can have, only the
surviving entries are expanded and tested per quartet, and the culled bound
of the pruned entries is summed in closed form. The leaf task then buffers
the union of its links' kept quartets, as ids into the pair trees' root
tables, with each kept quartet's density weight and the orientation of
its bra and ket. Once the buffered unions reach _ERI_BATCH quartets, one
eri_elementwise call evaluates them all; each kept quartet's K row and
column are the free shells of its pairs in the root tables, and one
np.add.at adds every contribution to K, one at a time in walk order, so
K is the same for every batch size. A transposed i == j pair adds
nothing: its untransposed orientation covers it.

The naive driver is this engine with one untransposed link over all ordered
pairs; exchange_symmetry runs it with four links over canonical pairs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# eri_cross is not called here (Traversal.flush calls eri_elementwise); it
# stays bound only because perfbench/run.py's tracer wraps it on both driver
# modules.
from .integrals import InvalidArgumentError, eri_cross, eri_elementwise
from .quadtree import MatrixQuadtree, ShellPairNode, leaf_cache

# Kept quartets buffered before one eri_elementwise call: large enough that
# the kernel's per-call cost vanishes (a water:24 build at leaf 10 makes 14
# calls, not 3,227), small enough that its temporaries stay near 1 MB.
_ERI_BATCH = 4096

# Quartets a leaf task's screening expands per piece (16 MB of bounds); no
# leaf task of the benchmark workloads, at most 1.13 M quartets, needs two.
_SCREEN_CHUNK = 1 << 21


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


def culled_task_bound(bra: ShellPairNode, p_norm: float, ket: ShellPairNode,
                      transpose_bra: bool = False,
                      transpose_ket: bool = False) -> float:
    """Rigorous max-abs bound on the K contribution of one culled task.

    |sum_qr P_qr (pq|rs)| <= ||P||_F * sqrt(sum_q (pq|pq)) * sqrt(sum_r (rs|rs))
    via Cauchy-Schwarz over (q, r); the row/column sums are bounded by the
    cached per-node maxima.
    """
    bra_sum = bra.colsum_max if transpose_bra else bra.rowsum_max
    ket_sum = ket.rowsum_max if transpose_ket else ket.colsum_max
    return 0.5 * p_norm * math.sqrt(max(bra_sum, 0.0)) * math.sqrt(max(ket_sum, 0.0))


def check_driver_args(bra, ket, p, tau_2e: float) -> None:
    """check_screening, then reject trees over different partitions and
    pair nodes that are not tree roots (only a root holds a pair table)."""
    check_screening(tau_2e)
    roots = {id(bra.row), id(bra.col), id(ket.row), id(ket.col), id(p.row), id(p.col)}
    if len(roots) != 1:
        raise InvalidArgumentError("bra, ket and P must be built over the same partition")
    if bra.pairs is None or ket.pairs is None:
        raise InvalidArgumentError("bra and ket must be roots of pair trees")


def _child_keys(node: ShellPairNode, canonical: bool):
    nr = len(node.row.children())
    nc = len(node.col.children())
    if canonical and node.row is node.col:
        return [(a, b) for a in range(nr) for b in range(a, nc)]
    return [(a, b) for a in range(nr) for b in range(nc)]


class Traversal:
    """One traversal's K accumulator and counters, and how it walks.

    ``case_label(b, k, present)``, when given, makes the walk canonical:
    both sides keep only canonical (upper-triangular) child keys and leaf
    pairs. It labels each surviving task from the presence flags of its
    links (exchange_symmetry.classify_quartet) and turns on the per-link
    and per-case tallies, which need SymmetryCounters. ``quartet_log``,
    when given, collects every evaluated shell quartet. Bra pair ids index
    ``bra``'s root table and ket pair ids ``ket``'s; after the walk, flush()
    evaluates what the last leaf tasks left buffered, and K is the exchange
    matrix.
    """

    def __init__(self, bra: ShellPairNode, ket: ShellPairNode, tau_2e: float,
                 evaluate: bool, counters: TraversalCounters,
                 case_label=None, quartet_log: list | None = None):
        n = bra.row.n_functions
        self.K = np.zeros((n, n))
        self.bra_pairs = bra.pairs
        self.ket_pairs = ket.pairs
        self.buffer = []     # leaf tasks' unions and scatters not yet evaluated
        self.n_buffered = 0  # quartets in their unions
        self.c = counters
        self.tau_2e = tau_2e
        self.evaluate = evaluate
        self.canonical = case_label is not None
        self.case_label = case_label
        self.qlog = quartet_log

    def visit(self, b, k, links):
        c = self.c
        c.tasks_visited += 1
        if b.pruned or k.pruned:
            c.tasks_culled_absent += 1
            return
        fb, fk = math.sqrt(b.diag_norm), math.sqrt(k.diag_norm)
        live = []
        n_absent = n_screened = 0
        for link in links:
            tb, tk, ref = link
            if ref is None:
                n_absent += 1
            elif screening_bound(fb, ref.norm, fk) <= self.tau_2e:
                n_screened += 1
                c.culled_bound_ledger += culled_task_bound(b, ref.norm, k, tb, tk)
            else:
                live.append(link)
        if self.case_label is not None:
            c.links_culled_absent += n_absent
            c.links_culled_screening += n_screened
        if not live:
            if n_screened:
                c.tasks_culled_screening += 1
            else:
                c.tasks_culled_absent += 1
            return
        at_leaf = b.is_leaf and k.is_leaf
        if self.case_label is not None:
            present = [ref is not None for _, _, ref in links]
            label = self.case_label(b, k, present)
            c.case_tasks[label] += 1
            if at_leaf:
                c.case_leaf_tasks[label] += 1
        if at_leaf:
            c.leaf_contractions += 1
            self._contract(b, k, live)
            return
        c.tasks_expanded += 1
        kkeys = _child_keys(k, self.canonical)
        # fixed child order (bra, then ket) for deterministic fp sums; links
        # that died here are dropped, while an absent density child stays
        # as None so the child task counts it
        for a, cc in _child_keys(b, self.canonical):
            bch = b.child(a, cc)
            for d, bb in kkeys:
                c.children_spawned += 1
                self.visit(bch, k.child(d, bb), [
                    (tb, tk, ref.child(a if tb else cc, bb if tk else d))
                    for tb, tk, ref in live])

    def _contract(self, b, k, live):
        """Leaf task: screen every link on its candidate density entries
        (_screen), then buffer for flush() the union of kept quartets and,
        for each kept quartet, its index in the union, whether its bra and
        its ket are transposed, and its density weight.

        The links' density leaves are the blocks of one array whose rows
        run over the bra's row span then its col span, and whose columns
        over the ket's; a link's transposes pick its block (a transposed
        bra its row span, a transposed ket its col span), as they pick the
        rows of leaf_cache's tables.
        """
        c = self.c
        A = leaf_cache(b, canonical=self.canonical)
        B = leaf_cache(k, canonical=self.canonical)
        nr, nl = b.row.n_functions, k.row.n_functions
        # each side's row span, then its col span
        bra = (slice(0, nr), slice(nr, len(A["sq"])))
        ket = (slice(0, nl), slice(nl, len(B["sq"])))
        p = np.zeros((len(A["sq"]), len(B["sq"])))
        for tb, tk, ref in live:
            p[bra[not tb], ket[tk]] = ref.leaf
        ledger, d1, d2, f1, f2 = _screen(A, B, p, self.tau_2e)
        c.quartets_culled_leaf += len(live) * A["m"] * B["m"] - len(d1)
        c.culled_bound_ledger += 0.5 * float(ledger)
        if not len(d1):
            return
        # the union of the links' kept quartets, in (bra id, ket id) order;
        # sorted and scanned here, as np.unique's per-call cost exceeds a
        # small leaf's whole screening
        n_ket = self.ket_pairs.n_pairs
        quartet = A["pair"][d1, f1] * n_ket + B["pair"][d2, f2]
        order = quartet.argsort()
        quartet = quartet[order]
        first = np.empty(len(quartet), dtype=bool)
        first[0] = True
        np.not_equal(quartet[1:], quartet[:-1], out=first[1:])
        union = quartet[first]
        c.eri_shell_quartets += len(union)
        if not self.evaluate:
            return
        self.buffer.append((union, self.n_buffered + np.cumsum(first) - 1,
                            (d1 < nr)[order], (d2 >= nl)[order],
                            p[d1, d2][order]))
        self.n_buffered += len(union)
        if self.n_buffered >= _ERI_BATCH:
            self.flush()

    def flush(self):
        """Evaluate the buffered unions with one eri_elementwise call, then
        add each kept quartet's contribution to K, one at a time in walk
        order, at K row mu (nu if the bra is transposed) and column sig
        (lam if the ket is transposed); a transposed i == j pair is dropped.
        """
        if not self.buffer:
            return
        union, at, tb, tk, weight = (np.concatenate(r)
                                     for r in zip(*self.buffer))
        pb, pk = self.bra_pairs, self.ket_pairs
        ia, ib = np.divmod(union, pk.n_pairs)
        e = -0.5 * eri_elementwise(pb, pk, ia, ib)
        mu, nu, lam, sig = (pb.i_shell[ia], pb.j_shell[ia],
                            pk.i_shell[ib], pk.j_shell[ib])
        if self.qlog is not None:
            self.qlog.extend(zip(mu.tolist(), nu.tolist(), lam.tolist(),
                                 sig.tolist()))
        # K rows and columns, untransposed then transposed; -1 drops i == j
        u = len(union)
        row = np.concatenate((mu, np.where(mu == nu, -1, nu)))[at + u * tb]
        col = np.concatenate((sig, np.where(lam == sig, -1, lam)))[at + u * tk]
        keep = (row >= 0) & (col >= 0)
        np.add.at(self.K.reshape(-1), (row * len(self.K) + col)[keep],
                  (e[at] * weight)[keep])
        self.buffer = []
        self.n_buffered = 0


def _screen(A: dict, B: dict, p: np.ndarray, tau: float):
    """Kept quartets of a leaf task, and the bound sum of the culled ones.

    p is the density over the rows of A's and B's tables; a quartet's
    screening_bound takes the sq (Schwarz) factors. A density entry can keep
    a quartet only if its bound on the maxima of the factors over the free
    indices exceeds tau: rounding is monotone, so this prefilter loses no kept
    quartet. Only the candidate entries are expanded over the free indices and
    tested per quartet (_expand), the conventional direct-SCF test, which
    makes the kept set independent of leaf blocking; beyond _SCREEN_CHUNK
    quartets they are expanded in pieces, so no temporary grows with the
    leaf size. The culled sum is |p| * (sum fb) * (sum fk) in closed form for
    a pruned entry, plus the culled quartets' bounds of the candidates.
    Returns (culled sum, density indices d1, d2 and free indices f1, f2 of
    each kept quartet); no candidate-sized array outlives the call.
    """
    pa = np.abs(p)
    cand = screening_bound(A["sqmax"][:, None], pa, B["sqmax"]) > tau
    d1, d2 = np.nonzero(cand)
    pc = pa[d1, d2][:, None, None]
    pa[cand] = 0.0
    ledger = A["sqsum"] @ pa @ B["sqsum"]
    if not len(d1):
        return ledger, d1, d2, d1, d2
    n_free = A["sq"].shape[1] * B["sq"].shape[1]
    if len(d1) * n_free <= _SCREEN_CHUNK:
        return _expand(A, B, d1, d2, pc, ledger, tau)
    step = max(1, _SCREEN_CHUNK // n_free)
    kept = []
    for lo in range(0, len(d1), step):
        ledger, *piece = _expand(A, B, d1[lo:lo + step], d2[lo:lo + step],
                                 pc[lo:lo + step], ledger, tau)
        kept.append(piece)
    return (ledger, *(np.concatenate(r) for r in zip(*kept)))


def _expand(A, B, d1, d2, pc, ledger, tau):
    """_screen's per-quartet test of candidate entries (d1, d2) of density
    magnitude pc: ledger plus the culled bounds, and the kept quartets."""
    # (candidate, free bra index, free ket index)
    bound = screening_bound(A["sq"][d1][:, :, None], pc, B["sq"][d2][:, None, :])
    keep = bound > tau
    ledger += bound.sum(where=~keep)
    j, f1, f2 = np.nonzero(keep)
    return ledger, d1[j], d2[j], f1, f2


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
    t.visit(bra, ket, [(False, False, P)])
    t.flush()
    return t.K, t.c
