"""Correctness gate for every K the benchmark times.

A build passes when its K is finite (and, for the symmetry driver, exactly
symmetric), agrees with the other driver's K for the same inputs within the
criterion-2 tolerance, and reports the same driver counters as every other
build of the same inputs. Independently of ``hexfock.integrals``, which both
drivers share, a seeded sample of evaluated shell quartets is checked against
a closed-form (ss|ss) written here on top of ``scipy.special.erf``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

# max|dK| / max(1, max|K_ref|) between the two drivers (acceptance criterion 2)
K_AGREEMENT_TOL = 1e-11
# relative error of a contracted (ss|ss) against the closed form; both
# kernels agree with it to ~1e-14 on these workloads
ERI_REL_TOL = 1e-11
ERI_SAMPLE_SIZE = 64


def k_problems(K: np.ndarray, K_ref: np.ndarray, symmetric: bool) -> list[str]:
    """Reasons this K fails the gate; empty when it passes."""
    problems = []
    if not np.all(np.isfinite(K)):
        problems.append("K is not finite")
    elif symmetric and not np.array_equal(K, K.T):
        problems.append("K is not exactly symmetric")
    scale = max(1.0, float(np.max(np.abs(K_ref))))
    err = float(np.max(np.abs(K - K_ref))) / scale
    if not err <= K_AGREEMENT_TOL:
        problems.append(f"K differs from the other driver by {err:.3e}")
    return problems


def _boys_f0_closed(t: np.ndarray) -> np.ndarray:
    """F0(t) = sqrt(pi / t) erf(sqrt(t)) / 2, with its series near t = 0."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    st = np.sqrt(np.where(small, 1.0, t))
    return np.where(small, 1.0 - t / 3.0, 0.5 * math.sqrt(math.pi) * erf(st) / st)


def _pair_primitives(a, b):
    """Gaussian-product exponents, centers and weights of shell pair (a|b)."""
    ea, eb = a.exponents[:, None], b.exponents[None, :]
    p = ea + eb
    r2 = float(np.sum((a.center - b.center) ** 2))
    w = a.weights[:, None] * b.weights[None, :] * np.exp(-ea * eb / p * r2)
    ctr = (ea[..., None] * a.center + eb[..., None] * b.center) / p[..., None]
    return p.ravel(), ctr.reshape(-1, 3), w.ravel()


def eri_closed_form(shells, mu: int, nu: int, lam: int, sig: int) -> float:
    """Contracted (mu nu | lam sig) over s shells, from the closed form."""
    p, P, wp = _pair_primitives(shells[mu], shells[nu])
    q, Q, wq = _pair_primitives(shells[lam], shells[sig])
    pq = p[:, None] * q[None, :]
    psum = p[:, None] + q[None, :]
    r2 = np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=-1)
    vals = 2.0 * math.pi ** 2.5 / (pq * np.sqrt(psum)) \
        * _boys_f0_closed(pq / psum * r2)
    return float(np.sum(wp[:, None] * wq[None, :] * vals))


def sample_quartets(quartets, rng) -> list:
    """A seeded sample of ``ERI_SAMPLE_SIZE`` quartets from a driver's log."""
    n = min(ERI_SAMPLE_SIZE, len(quartets))
    return [tuple(quartets[int(i)])
            for i in rng.choice(len(quartets), size=n, replace=False)]


def eri_problems(shells, quartets, values: dict) -> list[str]:
    """Compare each kernel's values for ``quartets`` with the closed form.

    ``values`` maps a kernel name to its (mu nu|lam sig) per quartet.
    """
    if not quartets:
        return ["no evaluated quartets to sample"]
    refs = [eri_closed_form(shells, *q) for q in quartets]
    problems = []
    for kernel, got in values.items():
        for q, ref, v in zip(quartets, refs, got):
            if not abs(v - ref) <= ERI_REL_TOL * abs(ref):
                problems.append(
                    f"{kernel} {q}: {v!r} vs closed form {ref!r}")
    return problems
