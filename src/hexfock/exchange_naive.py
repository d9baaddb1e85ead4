"""Hextree traversal engine for the exchange matrix, and its naive driver.

A task is a (bra pair node, ket pair node) pair carrying one or more density
links. Each link is a slot (transpose_bra, transpose_ket) plus the density
node it points at: slot (False, False) contracts P[nu,lam] into K[mu,sig],
and a transposed side swaps that pair's two indices in both the density
gather and the K sink. A task is culled when a pair node is overlap-pruned,
or when every link is absent or fails the blocked Almlof-Ahlrichs bound;
otherwise it expands into the child tasks of the blocked contraction, each
surviving link following its own density child. A leaf task's quartets
are one (mu nu|lam sig) block over the four leaf shell spans: it screens
every link per quartet against a broadcast view of the link's density leaf,
evaluates the ERIs once over the union of kept quartets and scatters each
link into its K block by summing out the two density indices.

The naive driver is this engine with one untransposed link over all ordered
pairs; exchange_symmetry runs it with four links over canonical pairs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# eri_cross is not called here (leaves use eri_elementwise); it stays bound
# only because perfbench/run.py's tracer wraps it on both driver modules.
from .integrals import InvalidArgumentError, eri_cross, eri_elementwise
from .quadtree import MatrixQuadtree, ShellPairNode, leaf_cache


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


def _sorted_product(a: float, b: float, c: float) -> float:
    # multiply in value order so transposed blocks yield bit-identical bounds
    lo, mid, hi = sorted((a, b, c))
    return lo * mid * hi


def screening_test(bra_norm: float, p_norm: float, ket_norm: float,
                   tau_2e: float, mode: str = "schwarz") -> bool:
    """True when the blocked Almlof-Ahlrichs bound says: cull this task.

    literal multiplies the diagonal-block Frobenius norms as-is; schwarz
    takes their square roots first (the provably sound form).
    """
    if bra_norm < 0.0 or p_norm < 0.0 or ket_norm < 0.0:
        raise InvalidArgumentError("screening norms must be non-negative")
    if mode == "schwarz":
        bra_norm = math.sqrt(bra_norm)
        ket_norm = math.sqrt(ket_norm)
    elif mode != "literal":
        raise InvalidArgumentError(f"unknown screening mode {mode!r}")
    return _sorted_product(bra_norm, p_norm, ket_norm) <= tau_2e


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


def check_driver_args(bra, ket, p, tau_2e: float, mode: str) -> None:
    """Reject a negative or NaN threshold, an unknown bound or mismatched trees."""
    if not tau_2e >= 0.0:
        raise InvalidArgumentError(f"tau_2e must be non-negative, got {tau_2e!r}")
    if mode not in ("schwarz", "literal"):
        raise InvalidArgumentError(f"unknown screening mode {mode!r}")
    roots = {id(bra.row), id(bra.col), id(ket.row), id(ket.col), id(p.row), id(p.col)}
    if len(roots) != 1:
        raise InvalidArgumentError("bra, ket and P must be built over the same partition")


# Index turning a link's density leaf into a view on the (mu, nu, lam, sig)
# quartet block, per (transpose_bra, transpose_ket) slot.
_ALL = slice(None)
_DENSITY_VIEW = {(False, False): (None, _ALL, _ALL, None),   # P[nu, lam]
                 (True, False): (_ALL, None, _ALL, None),    # P[mu, lam]
                 (False, True): (None, _ALL, None, _ALL),    # P[nu, sig]
                 (True, True): (_ALL, None, None, _ALL)}     # P[mu, sig]


def _child_keys(node: ShellPairNode, canonical: bool):
    nr = len(node.row.children())
    nc = len(node.col.children())
    if canonical and node.row is node.col:
        return [(a, b) for a in range(nr) for b in range(a, nc)]
    return [(a, b) for a in range(nr) for b in range(nc)]


class Traversal:
    """One traversal's K accumulator and counters, and how it walks.

    ``canonical`` restricts both sides to canonical (upper-triangular) child
    keys and leaf pairs. ``case_label(b, k)``, when given, labels each
    surviving task whose links are all present (any absent link makes it
    SPARSE) and turns on the per-link and per-case tallies, which need
    SymmetryCounters. ``quartet_log``, when given, collects every evaluated
    shell quartet.
    """

    def __init__(self, n: int, tau_2e: float, mode: str, evaluate: bool,
                 counters: TraversalCounters, canonical: bool = False,
                 case_label=None, quartet_log: list | None = None):
        self.K = np.zeros((n, n))
        self.c = counters
        self.tau_2e = tau_2e
        self.schwarz = mode == "schwarz"
        self.evaluate = evaluate
        self.canonical = canonical
        self.case_label = case_label
        self.qlog = quartet_log

    def visit(self, b, k, links):
        c = self.c
        c.tasks_visited += 1
        if b.pruned or k.pruned:
            c.tasks_culled_absent += 1
            return
        if self.schwarz:
            fb = math.sqrt(b.diag_norm)
            fk = math.sqrt(k.diag_norm)
        else:
            fb = b.diag_norm
            fk = k.diag_norm
        live = []
        n_absent = n_screened = 0
        for link in links:
            tb, tk, ref = link
            if ref is None:
                n_absent += 1
            elif _sorted_product(fb, ref.norm, fk) <= self.tau_2e:
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
            label = "SPARSE" if n_absent else self.case_label(b, k)
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
        """Leaf task: per-link per-quartet screening, ERI evaluation over the
        union of kept quartets, then one scatter per link.

        The leaf's quartets are one (mu, nu, lam, sig) block over the four
        shell spans; each link's density block is a broadcast view of its
        leaf, and its scatter sums the density's bra axis, then its ket
        axis. The per-quartet test is the conventional direct-SCF form of
        the blocked bound; it keeps tau_2e's meaning at quartet granularity
        and makes the quartet counter independent of leaf blocking.
        """
        c = self.c
        A = leaf_cache(b, canonical=self.canonical)
        B = leaf_cache(k, canonical=self.canonical)
        nr, nc = A["q"].shape
        nl, ns = B["q"].shape
        fb = (A["sq"] if self.schwarz else A["q"])[:, :, None, None]
        fk = B["sq"] if self.schwarz else B["q"]
        kept = []
        union = None
        for tb, tk, ref in live:
            pg = ref.leaf[_DENSITY_VIEW[tb, tk]]
            bound = (fb * np.abs(pg)) * fk
            # NaN outside the canonical pairs: neither kept nor culled there
            if A["mask"] is not None:
                bound[~A["mask"]] = np.nan
            if B["mask"] is not None:
                bound[:, :, ~B["mask"]] = np.nan
            keep = bound > self.tau_2e
            kept.append((tb, tk, pg, keep))
            union = keep if union is None else union | keep
            ncull = A["m"] * B["m"] - int(np.count_nonzero(keep))
            if ncull:
                c.quartets_culled_leaf += ncull
                cull = bound <= self.tau_2e
                if not self.schwarz:
                    bound = (A["sq"][:, :, None, None] * np.abs(pg)) * B["sq"]
                # row-major over the masked grid: the canonical pair order
                c.culled_bound_ledger += 0.5 * float(bound[cull].sum())
        nkeep = int(np.count_nonzero(union))
        c.eri_shell_quartets += nkeep
        if not self.evaluate or nkeep == 0:
            return
        ia, ib = np.nonzero(union.reshape(nr * nc, nl * ns))
        e = np.zeros((nr * nc, nl * ns))
        e[ia, ib] = eri_elementwise(A["pd"], B["pd"], ia, ib)
        if self.qlog is not None:
            self.qlog.extend(zip(
                A["pd"].i_shell[ia].tolist(), A["pd"].j_shell[ia].tolist(),
                B["pd"].i_shell[ib].tolist(), B["pd"].j_shell[ib].tolist()))
        base = (-0.5 * e).reshape(nr, nc, nl, ns)
        for tb, tk, pg, keep in kept:
            w = base * pg
            if keep is not union:  # e is already zero outside the union
                w *= keep
            # on a diagonal pair node the untransposed orientation already
            # covers the i == j pairs
            if tb and b.row is b.col:
                w[range(nr), range(nr)] = 0.0
            if tk and k.row is k.col:
                w[:, :, range(nl), range(nl)] = 0.0
            rows = b.col if tb else b.row
            cols = k.row if tk else k.col
            self.K[rows.shell_lo:rows.shell_hi, cols.shell_lo:cols.shell_hi] += \
                w.sum(axis=0 if tb else 1).sum(axis=2 if tk else 1)


def build_exchange_naive(bra: ShellPairNode, ket: ShellPairNode,
                         P: MatrixQuadtree, tau_2e: float = 0.0,
                         mode: str = "schwarz", quartet_log: list | None = None,
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
    check_driver_args(bra, ket, P, tau_2e, mode)
    t = Traversal(bra.row.n_functions, tau_2e, mode, evaluate,
                  TraversalCounters(), quartet_log=quartet_log)
    t.visit(bra, ket, [(False, False, P)])
    return t.K, t.c
