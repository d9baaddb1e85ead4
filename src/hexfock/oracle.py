"""Brute-force exchange references and matrix comparison utilities.

The references share the drivers' integral code, so a disagreement points at
traversal or symmetry logic. ``dense_exchange`` evaluates every quartet with
``eri_cross``; ``dense_exchange_screened`` evaluates the quartets it keeps
with ``eri_elementwise`` and screens on the pair table and (ij|ij) values of
the one-leaf pair tree, under the drivers' screening contract
(``exchange_naive.check_screening``). Time grows as n_shells**4. Memory is
bounded by _PRIM_BUDGET until a single bra pair against every ket pair
exceeds it (about water:20); beyond that it grows as n_shells**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem
from .exchange_naive import check_screening, screening_bound
from .integrals import (InvalidArgumentError, PairData, build_pair_data,
                        eri_cross, eri_elementwise)
from .quadtree import build_pair_tree, build_partition

# Both oracles walk the bra pairs in consecutive chunks, each evaluated
# against every ket pair at once; a chunk spans at most this many primitive
# combinations (and at least one bra pair), which bounds their memory.
_PRIM_BUDGET = 1 << 17


@dataclass
class ComparisonReport:
    max_abs_diff: float
    frobenius_diff: float
    relative_frobenius: float
    worst_row: int
    worst_col: int

    def to_dict(self) -> dict:
        return {
            "max_abs_diff": self.max_abs_diff,
            "frobenius_diff": self.frobenius_diff,
            "relative_frobenius": self.relative_frobenius,
            "worst_row": self.worst_row,
            "worst_col": self.worst_col,
        }


def _all_pairs(system: BasisSystem):
    n = system.n_shells
    return [(i, j) for i in range(n) for j in range(n)]


def _bra_chunks(pd: PairData):
    """Consecutive pair ranges [lo, hi) of ``pd`` whose primitive
    combinations with every pair of ``pd`` stay within _PRIM_BUDGET."""
    limit = _PRIM_BUDGET // max(len(pd.p), 1)
    lo = 0
    while lo < pd.n_pairs:
        hi = int(np.searchsorted(pd.offsets, pd.offsets[lo] + limit,
                                 side="right")) - 1
        hi = min(max(hi, lo + 1), pd.n_pairs)
        yield lo, hi
        lo = hi


def dense_exchange(system: BasisSystem, P: np.ndarray) -> np.ndarray:
    """K_ms = -1/2 sum_nl P_nl (mn|ls) over every shell quartet, unscreened."""
    n = system.n_shells
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise InvalidArgumentError("density dimension does not match system")
    pairs = _all_pairs(system)
    ket = build_pair_data(system.shells, pairs)
    K = np.zeros((n, n))
    for lo, hi in _bra_chunks(ket):
        bra = build_pair_data(system.shells, pairs[lo:hi])
        v = eri_cross(bra, ket).reshape(hi - lo, n, n)  # (a, lam, sig)
        contrib = -0.5 * np.einsum("als,al->as", v, P[bra.j_shell])
        np.add.at(K, bra.i_shell, contrib)
    return K


def dense_exchange_screened(system: BasisSystem, P: np.ndarray, tau_2e: float,
                            mode: str = "schwarz", quartet_log: list | None = None):
    """Per-shell-quartet screened reference (the direct-SCF baseline).

    A quartet (mn|ls) is evaluated iff the drivers' bound
    screening_bound(f(Q_mn), |P_nl|, f(Q_ls)) exceeds tau_2e. tau_2e and mode
    pass the drivers' check_screening. Returns (K, skipped_bound_sum);
    quartet_log, when given, collects the evaluated (mu, nu, lam, sig) tuples.
    """
    check_screening(tau_2e, mode)
    n = system.n_shells
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise InvalidArgumentError("density dimension does not match system")
    tree = build_pair_tree(system, build_partition(system, leaf_size=n))
    pd = tree.pairs  # one leaf at base 0: pair a = i * n + j, row-major
    f = np.sqrt(tree.diag) if mode == "schwarz" else tree.diag  # of (ij|ij)
    p_abs = np.abs(P)
    K = np.zeros((n, n))
    skipped = 0.0
    for lo, hi in _bra_chunks(pd):
        # bound[a,k,l] of quartet (ij|kl), bra pair a = i * n + j
        bound = screening_bound(f.ravel()[lo:hi, None, None],
                                p_abs[np.arange(lo, hi) % n, :, None], f)
        keep = bound > tau_2e
        skipped += float(bound[~keep].sum())
        a, k, l = np.nonzero(keep)
        a += lo
        i, j = a // n, a % n
        vals = eri_elementwise(pd, pd, a, k * n + l)
        np.add.at(K, (i, l), -0.5 * P[j, k] * vals)
        if quartet_log is not None:
            quartet_log.extend(zip(i.tolist(), j.tolist(), k.tolist(),
                                   l.tolist()))
    return K, 0.5 * skipped


def compare(A: np.ndarray, B: np.ndarray) -> ComparisonReport:
    """Elementwise difference metrics between two same-shaped matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch {A.shape} vs {B.shape}")
    diff = np.abs(A - B)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    frob = float(np.linalg.norm(A - B))
    ref = float(np.linalg.norm(B))
    rel = frob / ref if ref > 0.0 else (0.0 if frob == 0.0 else math.inf)
    return ComparisonReport(
        max_abs_diff=float(diff[worst]),
        frobenius_diff=frob,
        relative_frobenius=rel,
        worst_row=int(worst[0]),
        worst_col=int(worst[1]),
    )
