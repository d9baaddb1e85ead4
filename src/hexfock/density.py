"""Symmetric density matrices with controllable decay.

Stands in for converged SCF densities: either an exponential distance-decay
model over shell centers, or a plain-text file (first line N, then N*N
row-major values, N = number of shells), symmetrized on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem
from .integrals import InvalidArgumentError

DEFAULT_GAMMA = 2.0  # 1/Bohr; insulator-like decay, screening bites at desk scale


@dataclass
class DensityModel:
    kind: str = "exp_decay"     # exp_decay | file
    gamma: float = DEFAULT_GAMMA
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("exp_decay", "file"):
            raise InvalidArgumentError(f"unknown density kind {self.kind!r}")
        if self.kind == "exp_decay" and not (
                math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidArgumentError(
                f"gamma must be finite and positive, got {self.gamma!r}")
        if self.kind == "file" and not self.path:
            raise InvalidArgumentError("file density requires a path")


def build_density(system: BasisSystem, model: DensityModel) -> np.ndarray:
    """Symmetric n_shells x n_shells density; P_ij = exp(-gamma * |r_i - r_j|)."""
    n = system.n_functions
    if model.kind == "file":
        p = load_density_file(model.path)
        if p.shape != (n, n):
            raise InvalidArgumentError(
                f"density file is {p.shape[0]}x{p.shape[1]}, system has {n} shells")
        return p
    centers = np.array([sh.center for sh in system.shells]).reshape(n, 3)
    d = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    dist = np.maximum(dist, dist.T)  # exact symmetry regardless of fp noise
    return np.exp(-model.gamma * dist)


def load_density_file(path) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidArgumentError("empty density file")
    try:
        n = int(tokens[0])
        vals = np.asarray([float(t) for t in tokens[1:]])
    except ValueError as exc:
        raise InvalidArgumentError(f"density file: {exc}") from None
    if n < 0:
        raise InvalidArgumentError(f"density file declares N={n}; N must be >= 0")
    if vals.size != n * n:
        raise InvalidArgumentError(
            f"density file declares N={n} but holds {vals.size} values")
    if not np.all(np.isfinite(vals)):
        raise InvalidArgumentError("density file holds NaN or infinite values")
    p = vals.reshape(n, n)
    return 0.5 * (p + p.T)


def save_density_file(path, p: np.ndarray) -> None:
    n = p.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in p:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
