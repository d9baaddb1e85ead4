"""Overlap and two-electron repulsion integrals over contracted s-type Gaussians.

Everything here is stateless and vectorized at shell-pair granularity: a
flattened table of primitive pair data (PairData) is precomputed per block of
shell pairs, and ERI evaluation reduces to elementwise math over primitive
pair combinations followed by segment sums. eri_elementwise, the kernel of
both drivers and of the Schwarz diagonals, does that math in flat 1-D passes
over primitive quartets, bounded in size, and rounds each contracted value
the same whatever call it is evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .basis import GaussianShell, InvalidArgumentError

TWO_PI_POW_2_5 = 2.0 * math.pi ** 2.5

# Below this t, F0 is its Taylor series 1 - t/3 + t^2/10; the first term
# dropped, t^3/42, is below 3e-20 relative there. The closed form itself is
# 0/0 at t = 0.
_F0_TINY = 1e-6
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)

# Primitive quartets one pass of eri_elementwise evaluates at once. A pass
# holds about 128 bytes of temporaries per primitive quartet (ids, center
# differences, exponents, the Boys function's arrays), so it stays near 2 MB
# however many primitives the call's quartets have.
_ERI_PIECE = 1 << 14


def boys_f0(t):
    """Boys function F0(t) = int_0^1 exp(-t u^2) du.

    Accepts a scalar or ndarray, t >= 0; a negative or NaN t raises
    InvalidArgumentError. Uses the erf closed form
    F0(t) = sqrt(pi / t) erf(sqrt(t)) / 2, and its Taylor series below
    t = 1e-6.
    """
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    # NaN fails every comparison, so it joins the small-t branch and is
    # rejected there, with no extra pass over the whole array
    tiny = ~(t_arr >= _F0_TINY)
    st = np.sqrt(np.maximum(t_arr, _F0_TINY))
    out = erf(st)
    out *= _HALF_SQRT_PI
    out /= st
    if tiny.any():
        tt = t_arr[tiny]
        if not np.all(tt >= 0.0):
            raise InvalidArgumentError("boys_f0 requires t >= 0, not NaN")
        out[tiny] = 1.0 - tt / 3.0 + tt * tt / 10.0
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
    offsets: np.ndarray
    p: np.ndarray
    center: np.ndarray  # (n_prim, 3)
    weight: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.i_shell)


def _primitive_pairs(shells, pair_list):
    """Primitive pairs of each (i, j) shell pair, row-major over (alpha_i, beta_j).

    Returns ``offsets`` (each pair's block, length n_pairs + 1) and, per
    primitive pair, the two exponents, the two weights, the two shell centers
    and |A - B|^2. Only the shells ``pair_list`` names are read.
    """
    ij = np.asarray(pair_list, dtype=np.intp).reshape(-1, 2)
    used, local = np.unique(ij, return_inverse=True)
    li, lj = local.reshape(ij.shape).T
    sub = [shells[k] for k in used]
    n_prim = np.array([len(sh.exponents) for sh in sub], dtype=np.intp)
    first = np.cumsum(n_prim) - n_prim
    exps = np.concatenate([np.empty(0)] + [sh.exponents for sh in sub])
    wts = np.concatenate([np.empty(0)] + [sh.weights for sh in sub])
    centers = np.array([sh.center for sh in sub]).reshape(-1, 3)
    nb = n_prim[lj]
    count = n_prim[li] * nb
    offsets = np.zeros(len(ij) + 1, dtype=np.intp)
    np.cumsum(count, out=offsets[1:])
    pair = np.repeat(np.arange(len(ij)), count)
    k = np.arange(offsets[-1]) - offsets[pair]
    a = first[li][pair] + k // nb[pair]
    b = first[lj][pair] + k % nb[pair]
    ca, cb = centers[li], centers[lj]
    # vecdot rounds like the np.dot of one shell pair's center difference;
    # centers too far apart for it give r2 = inf, and so weight 0
    with np.errstate(over="ignore"):
        r2 = np.vecdot(ca - cb, ca - cb)[pair]
    return offsets, exps[a], exps[b], wts[a], wts[b], ca[pair], cb[pair], r2


def build_pair_data(shells, pair_list) -> PairData:
    """Precompute primitive pair data for ``pair_list`` of (i, j) shell ids."""
    ij = np.asarray(pair_list, dtype=np.intp).reshape(-1, 2)
    offsets, ea, eb, wa, wb, ca, cb, r2 = _primitive_pairs(shells, ij)
    p = ea + eb
    # the midpoint plus a shift along B - A: exact when A == B, and bitwise
    # the same for the pair (j, i)
    center = 0.5 * (ca + cb) + (0.5 * (eb - ea) / p)[:, None] * (cb - ca)
    i_shell, j_shell = ij.T.copy()
    return PairData(i_shell=i_shell, j_shell=j_shell, offsets=offsets,
                    p=p, center=center,
                    weight=wa * wb * np.exp(-(ea * eb) / p * r2))


def pair_overlaps(shells, pair_list) -> np.ndarray:
    """Contracted overlaps (a|b) of every (i, j) shell pair in ``pair_list``.

    Each value is rounded as ``overlap`` rounds it.
    """
    offsets, ea, eb, wa, wb, _, _, r2 = _primitive_pairs(shells, pair_list)
    p = ea + eb
    s = wa * wb * ((np.pi / p) ** 1.5 * np.exp(-ea * eb / p * r2))
    count = np.diff(offsets)
    out = np.empty(len(count))
    for c in np.unique(count):
        # a row sum of c contiguous values adds them in np.sum's order
        sel = np.nonzero(count == c)[0]
        out[sel] = s[offsets[sel, None] + np.arange(c)].sum(axis=1)
    return out


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

    The quartets are sorted once, stably, by primitive count na * nb, cast
    to the smallest unsigned type that holds the largest count (NumPy
    radix-sorts keys of up to 16 bits). Each
    count's primitive quartets, row-major over (bra primitive, ket
    primitive), are evaluated in flat passes of whole quartets, at most
    _ERI_PIECE primitive quartets each, and summed as one (n, count) array
    along its rows. Every value is rounded as one quartet alone rounds it,
    whatever else the call holds.
    """
    idx_a = np.asarray(idx_a, dtype=np.intp)
    idx_b = np.asarray(idx_b, dtype=np.intp)
    out = np.zeros(len(idx_a))
    oa, ob = bra.offsets[idx_a], ket.offsets[idx_b]
    nb = ket.offsets[idx_b + 1] - ob
    count = (bra.offsets[idx_a + 1] - oa) * nb
    order = np.argsort(count.astype(np.min_scalar_type(count.max(initial=0))),
                       kind="stable")
    cuts = np.flatnonzero(np.diff(count[order])) + 1
    for group in np.split(order, cuts) if len(order) else ():
        c = count[group[0]]
        k = np.arange(c)
        step = max(1, _ERI_PIECE // c)
        for lo in range(0, len(group), step):
            sel = group[lo:lo + step]
            pa, pb = np.divmod(k, nb[sel, None])
            pa += oa[sel, None]
            pb += ob[sel, None]
            pa, pb = pa.ravel(), pb.ravel()
            d = np.take(bra.center, pa, axis=0)
            d -= np.take(ket.center, pb, axis=0)
            r2 = np.einsum("ij,ij->i", d, d)
            p1, p2 = np.take(bra.p, pa), np.take(ket.p, pb)
            pq = p1 * p2
            psum = p1 + p2
            f0 = boys_f0(pq / psum * r2)
            vals = TWO_PI_POW_2_5 / (pq * np.sqrt(psum)) * f0
            vals *= np.take(bra.weight, pa) * np.take(ket.weight, pb)
            out[sel] = vals.reshape(len(sel), c).sum(axis=1)
    return out


def eri_quartet(mu: GaussianShell, nu: GaussianShell,
                lam: GaussianShell, sig: GaussianShell) -> EriQuartetBlock:
    """Contracted (mu nu | lam sig) as a dense 4-index block (1x1x1x1 for s)."""
    bra = build_pair_data([mu, nu], [(0, 1)])
    ket = build_pair_data([lam, sig], [(0, 1)])
    val = eri_cross(bra, ket)[0, 0]
    return EriQuartetBlock(values=np.full((1, 1, 1, 1), val))


def diagonal_values(pairs: PairData) -> np.ndarray:
    """Per-pair diagonal ERIs (ab|ab) for every pair in the table."""
    idx = np.arange(pairs.n_pairs)
    return eri_elementwise(pairs, pairs, idx, idx)
