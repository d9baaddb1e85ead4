"""Overlap and two-electron repulsion integrals over contracted s-type Gaussians.

Everything here is stateless and vectorized at shell-pair granularity: a
flattened table of primitive pair data (PairData) is precomputed per block of
shell pairs, and ERI evaluation reduces to elementwise math over primitive
pair combinations followed by segment sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .basis import GaussianShell, InvalidArgumentError

TWO_PI_POW_2_5 = 2.0 * math.pi ** 2.5

# Series/closed-form switch for the F0 kernel; continuity across the switch
# is covered by tests.
_F0_SWITCH = 12.0
_F0_SERIES_TERMS = 70


def boys_f0(t):
    """Boys function F0(t) = int_0^1 exp(-t u^2) du.

    Accepts a scalar or ndarray, t >= 0. Uses the double-factorial series
    below t=12 and the erf closed form above.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise InvalidArgumentError("boys_f0 requires t >= 0")
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.empty_like(t_arr)

    small = t_arr < _F0_SWITCH
    if np.any(small):
        ts = t_arr[small]
        # F0(t) = exp(-t) * sum_k (2t)^k / (2k+1)!!
        acc = np.ones_like(ts)
        term = np.ones_like(ts)
        two_t = 2.0 * ts
        for k in range(1, _F0_SERIES_TERMS):
            term = term * two_t / (2 * k + 1)
            acc += term
        out[small] = np.exp(-ts) * acc
    if np.any(~small):
        tl = t_arr[~small]
        st = np.sqrt(tl)
        out[~small] = 0.5 * np.sqrt(np.pi) * erf(st) / st
    return float(out[0]) if scalar else out


def overlap(a: GaussianShell, b: GaussianShell) -> float:
    """Contracted overlap (a|b) between two normalized s shells."""
    r2 = float(np.dot(a.center - b.center, a.center - b.center))
    ea, eb = a.exponents[:, None], b.exponents[None, :]
    p = ea + eb
    s = (np.pi / p) ** 1.5 * np.exp(-ea * eb / p * r2)
    return float(np.sum(a.weights[:, None] * b.weights[None, :] * s))


@dataclass
class EriQuartetBlock:
    """Dense ERI block over one (bra pair) x (ket pair) shell quartet."""

    values: np.ndarray  # shape (n_mu, n_nu, n_lam, n_sig); all 1 for s shells
    mu: int
    nu: int
    lam: int
    sig: int


@dataclass
class PairData:
    """Flattened primitive pair table for an ordered list of shell pairs.

    For shell pair (A, B) and primitives (alpha, beta), each primitive pair
    carries the Gaussian-product exponent p = alpha + beta, the product
    center, and the weight K = w_a * w_b * exp(-alpha*beta/p * |A-B|^2).
    ``offsets`` delimits each pair's primitive block (length n_pairs + 1).
    """

    i_shell: np.ndarray
    j_shell: np.ndarray
    i_fn: np.ndarray
    j_fn: np.ndarray
    offsets: np.ndarray
    p: np.ndarray
    center: np.ndarray  # (n_prim, 3)
    weight: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.i_shell)


def build_pair_data(shells, pair_list) -> PairData:
    """Precompute primitive pair data for ``pair_list`` of (i, j) shell ids."""
    i_sh, j_sh, i_fn, j_fn = [], [], [], []
    offsets = [0]
    ps, cs, ws = [], [], []
    for i, j in pair_list:
        a, b = shells[i], shells[j]
        ea, eb = a.exponents[:, None], b.exponents[None, :]
        p = (ea + eb).ravel()
        ab = (ea * eb).ravel()
        r2 = float(np.dot(a.center - b.center, a.center - b.center))
        w = (a.weights[:, None] * b.weights[None, :]).ravel() * np.exp(-ab / p * r2)
        ctr = (ea[..., None] * a.center + eb[..., None] * b.center).reshape(-1, 3)
        ctr /= p[:, None]
        i_sh.append(i)
        j_sh.append(j)
        i_fn.append(a.function_offset)
        j_fn.append(b.function_offset)
        offsets.append(offsets[-1] + len(p))
        ps.append(p)
        cs.append(ctr)
        ws.append(w)
    if ps:
        p_all = np.concatenate(ps)
        c_all = np.concatenate(cs)
        w_all = np.concatenate(ws)
    else:
        p_all = np.empty(0)
        c_all = np.empty((0, 3))
        w_all = np.empty(0)
    return PairData(
        i_shell=np.asarray(i_sh, dtype=np.intp),
        j_shell=np.asarray(j_sh, dtype=np.intp),
        i_fn=np.asarray(i_fn, dtype=np.intp),
        j_fn=np.asarray(j_fn, dtype=np.intp),
        offsets=np.asarray(offsets, dtype=np.intp),
        p=p_all,
        center=c_all,
        weight=w_all,
    )


def _prim_cross(p1, c1, w1, p2, c2, w2):
    """Primitive (ss|ss) values for every bra-prim x ket-prim combination."""
    pq = p1[:, None] * p2[None, :]
    psum = p1[:, None] + p2[None, :]
    d = c1[:, None, :] - c2[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    t = pq / psum * r2
    f0 = boys_f0(t.ravel()).reshape(t.shape)
    return TWO_PI_POW_2_5 / (pq * np.sqrt(psum)) * w1[:, None] * w2[None, :] * f0


def eri_cross(bra: PairData, ket: PairData) -> np.ndarray:
    """Contracted ERIs (bra_a | ket_b) for all pairs a, b; shape (nA, nB)."""
    if bra.n_pairs == 0 or ket.n_pairs == 0:
        return np.zeros((bra.n_pairs, ket.n_pairs))
    m = _prim_cross(bra.p, bra.center, bra.weight, ket.p, ket.center, ket.weight)
    m = np.add.reduceat(m, bra.offsets[:-1], axis=0)
    m = np.add.reduceat(m, ket.offsets[:-1], axis=1)
    return m


def eri_elementwise(bra: PairData, ket: PairData, idx_a, idx_b) -> np.ndarray:
    """Contracted ERIs (bra_a | ket_b) for selected index pairs only.

    Grouped by primitive-count category so each group vectorizes with a
    fixed (n, na, nb) shape.
    """
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    out = np.zeros(len(idx_a))
    na = bra.offsets[idx_a + 1] - bra.offsets[idx_a]
    nb = ket.offsets[idx_b + 1] - ket.offsets[idx_b]
    for ca in np.unique(na):
        for cb in np.unique(nb):
            sel = np.nonzero((na == ca) & (nb == cb))[0]
            if len(sel) == 0:
                continue
            ga = bra.offsets[idx_a[sel], None] + np.arange(ca)[None, :]
            gb = ket.offsets[idx_b[sel], None] + np.arange(cb)[None, :]
            p1, w1, c1 = bra.p[ga], bra.weight[ga], bra.center[ga]
            p2, w2, c2 = ket.p[gb], ket.weight[gb], ket.center[gb]
            pq = p1[:, :, None] * p2[:, None, :]
            psum = p1[:, :, None] + p2[:, None, :]
            d = c1[:, :, None, :] - c2[:, None, :, :]
            r2 = np.einsum("nijk,nijk->nij", d, d)
            f0 = boys_f0((pq / psum * r2).ravel()).reshape(pq.shape)
            vals = TWO_PI_POW_2_5 / (pq * np.sqrt(psum)) * f0
            vals *= w1[:, :, None] * w2[:, None, :]
            out[sel] = vals.sum(axis=(1, 2))
    return out


def eri_quartet(mu: GaussianShell, nu: GaussianShell,
                lam: GaussianShell, sig: GaussianShell) -> EriQuartetBlock:
    """Contracted (mu nu | lam sig) as a dense 4-index block (1x1x1x1 for s)."""
    bra = build_pair_data([mu, nu], [(0, 1)])
    ket = build_pair_data([lam, sig], [(0, 1)])
    val = eri_cross(bra, ket)[0, 0]
    return EriQuartetBlock(values=np.full((1, 1, 1, 1), val),
                           mu=0, nu=1, lam=0, sig=1)


def diagonal_values(pairs: PairData) -> np.ndarray:
    """Per-pair diagonal ERIs (ab|ab) for every pair in the table."""
    idx = np.arange(pairs.n_pairs)
    return eri_elementwise(pairs, pairs, idx, idx)


def pair_diagonal_norm(shells, pair_list) -> float:
    """Frobenius norm of the diagonal ERI entries (ab|ab) over a pair span."""
    pairs = build_pair_data(shells, pair_list)
    d = diagonal_values(pairs)
    return math.sqrt(math.fsum(v * v for v in d))
