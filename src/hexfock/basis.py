"""Atoms, contracted s-type Gaussian shells, synthetic clusters, Hilbert ordering.

An s shell is exactly one basis function, so shell and function indices are
one index space: shell k is row and column k of every density and K matrix.

Geometry generation is deterministic: all randomness flows through a
splitmix64 generator seeded by the caller, so identical inputs reproduce
byte-identical systems across platforms.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

BOHR_PER_ANGSTROM = 1.8897259886

# STP water number density, 0.0334 molecules / Angstrom^3, in Bohr^-3.
WATER_NUMBER_DENSITY = 0.0334 / BOHR_PER_ANGSTROM ** 3

OH_DISTANCE = 1.81          # Bohr
HOH_ANGLE = math.radians(104.5)
MIN_HEAVY_SEPARATION = 4.0  # Bohr

# Built-in shell table: heavy centers get a tight contracted s shell plus a
# diffuse one, light centers a single s shell.
HEAVY_SHELLS = [
    [(130.7093, 0.15432897), (23.8089, 0.53532814), (6.4436, 0.44463454)],
    [(0.27, 1.0)],
]
LIGHT_SHELLS = [[(1.24, 1.0)]]

DEFAULT_SHELL_TABLE = {"O": HEAVY_SHELLS, "H": LIGHT_SHELLS}

# load_xyz rejects a coordinate whose product with this exceeds DBL_MAX, so
# the sum and the difference of two shell centers are always finite
_TWICE_MAX_EXPONENT = 2.0 * max(e for table in DEFAULT_SHELL_TABLE.values()
                                for prims in table for e, _ in prims)

HILBERT_BITS = 10  # lattice bits per axis for hilbert_order


class InvalidArgumentError(ValueError):
    pass


class FormatError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedElementError(ValueError):
    pass


@dataclass
class Atom:
    element: str
    position: np.ndarray  # (3,), Bohr

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if not np.all(np.isfinite(self.position)):
            raise InvalidArgumentError("atom position must be finite")


@dataclass
class GaussianShell:
    """Contracted s-type Gaussian shell, normalized to unit self-overlap.

    ``weights`` are the contraction coefficients folded with primitive norms
    and the overall normalization, so plain exp(-alpha r^2) primitives
    weighted by them integrate directly.
    """

    center: np.ndarray
    primitives: list  # [(exponent, coefficient), ...]
    exponents: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.exponents = np.asarray([e for e, _ in self.primitives], dtype=float)
        coefs = np.asarray([c for _, c in self.primitives], dtype=float)
        if np.any(self.exponents <= 0.0):
            raise InvalidArgumentError("shell exponents must be positive")
        w = coefs * (2.0 * self.exponents / np.pi) ** 0.75
        p = self.exponents[:, None] + self.exponents[None, :]
        s = np.sum(w[:, None] * w[None, :] * (np.pi / p) ** 1.5)
        self.weights = w / math.sqrt(s)


@dataclass
class BasisSystem:
    shells: list
    atoms: list

    @property
    def n_functions(self) -> int:
        """Basis functions; one per s shell."""
        return len(self.shells)

    @property
    def n_shells(self) -> int:
        return len(self.shells)


class SplitMix64:
    """splitmix64 PRNG; fixed across implementations for reproducibility."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def unit_vector(self) -> np.ndarray:
        # rejection sampling in the unit ball avoids trig / Box-Muller
        while True:
            v = np.array([2.0 * self.uniform() - 1.0 for _ in range(3)])
            n2 = float(np.dot(v, v))
            if 1e-8 < n2 <= 1.0:
                return v / math.sqrt(n2)


def _shells_for(element: str, center, normalized: dict) -> list:
    """The shell table's shells of ``element`` at ``center``.

    ``normalized`` maps each element met so far to its shells at the origin,
    so one caller normalizes each table entry once; the shells it returns
    share those exponent and weight arrays.
    """
    if element not in DEFAULT_SHELL_TABLE:
        raise UnsupportedElementError(f"no shells defined for element {element!r}")
    if element not in normalized:
        normalized[element] = [
            GaussianShell(center=np.zeros(3), primitives=list(prims))
            for prims in DEFAULT_SHELL_TABLE[element]]
    shells = []
    for proto in normalized[element]:
        sh = copy.copy(proto)
        sh.center = np.array(center, dtype=float)
        shells.append(sh)
    return shells


def _sample_in_sphere(rng: SplitMix64, radius: float) -> np.ndarray:
    while True:
        v = np.array([(2.0 * rng.uniform() - 1.0) * radius for _ in range(3)])
        if np.dot(v, v) <= radius * radius:
            return v


def generate_cluster(n_molecules: int, seed: int) -> BasisSystem:
    """Deterministic synthetic water-like cluster at roughly STP number density.

    Heavy centers are packed with a minimum separation of 4 Bohr, each with
    two light satellites at 1.81 Bohr and a 104.5 degree angle. A sampled
    center is tested against all placed ones at once, with the distances
    rounded as np.linalg.norm rounds one of them.
    """
    if n_molecules < 1:
        raise InvalidArgumentError("n_molecules must be >= 1")
    rng = SplitMix64(seed)
    volume = n_molecules / WATER_NUMBER_DENSITY
    radius = (3.0 * volume / (4.0 * math.pi)) ** (1.0 / 3.0)

    centers = np.zeros((n_molecules, 3))
    for placed in range(1, n_molecules):
        for _ in range(100000):
            cand = _sample_in_sphere(rng, radius)
            d = centers[:placed] - cand
            if np.all(np.sqrt(np.vecdot(d, d)) >= MIN_HEAVY_SEPARATION):
                break
        else:
            raise InvalidArgumentError(
                "packing failed; density/min-distance constraints unsatisfiable")
        centers[placed] = cand

    atoms, shells, normalized = [], [], {}
    for ctr in centers:
        e1 = rng.unit_vector()
        raw = rng.unit_vector()
        e2 = raw - np.dot(raw, e1) * e1
        while np.linalg.norm(e2) < 1e-8:
            raw = rng.unit_vector()
            e2 = raw - np.dot(raw, e1) * e1
        e2 /= np.linalg.norm(e2)
        h1 = ctr + OH_DISTANCE * e1
        h2 = ctr + OH_DISTANCE * (math.cos(HOH_ANGLE) * e1 + math.sin(HOH_ANGLE) * e2)
        atoms.append(Atom("O", ctr))
        atoms.append(Atom("H", h1))
        atoms.append(Atom("H", h2))
        shells.extend(_shells_for("O", ctr, normalized))
        shells.extend(_shells_for("H", h1, normalized))
        shells.extend(_shells_for("H", h2, normalized))
    return BasisSystem(shells=shells, atoms=atoms)


def load_xyz(path) -> BasisSystem:
    """Load a standard XYZ file (Angstrom) and attach shells per element."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError("empty file", 1)
    try:
        natoms = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise FormatError(f"bad atom-count line {lines[0]!r}", 1)
    if natoms < 1:
        raise FormatError(f"atom count must be >= 1, got {natoms}", 1)
    if len(lines) < natoms + 2:
        raise FormatError(f"expected {natoms} atom lines, file has {len(lines) - 2}",
                          len(lines))
    atoms, shells, normalized = [], [], {}
    for k in range(natoms):
        ln = k + 3
        parts = lines[k + 2].split()
        if len(parts) < 4:
            raise FormatError(f"expected 'El x y z', got {lines[k + 2]!r}", ln)
        element = parts[0]
        try:
            pos = np.array([float(v) for v in parts[1:4]])
        except ValueError:
            raise FormatError(f"bad coordinate in {lines[k + 2]!r}", ln)
        if not np.all(np.isfinite(pos)):
            raise FormatError(f"non-finite coordinate in {lines[k + 2]!r}", ln)
        with np.errstate(over="ignore"):  # an inf product is out of range
            pos *= BOHR_PER_ANGSTROM
            huge = np.abs(pos).max() * _TWICE_MAX_EXPONENT > np.finfo(float).max
        if huge:
            raise FormatError(f"coordinate in {lines[k + 2]!r} is so large "
                              "that shell-pair centers overflow", ln)
        atoms.append(Atom(element, pos))
        shells.extend(_shells_for(element, pos, normalized))
    return BasisSystem(shells=shells, atoms=atoms)


def _hilbert_keys(lattice: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert index of each row of an (n, 3) integer lattice array, by the
    transposed-bits (Skilling) algorithm run on all rows at once."""
    x = [col.astype(np.int64) for col in np.asarray(lattice).reshape(-1, 3).T]
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(3):
            high = (x[i] & q) != 0
            # a set bit inverts x[0]'s low bits, a clear one exchanges them
            # with x[i]'s
            t = np.where(high, 0, (x[0] ^ x[i]) & p)
            x[0] ^= np.where(high, p, 0) | t
            x[i] ^= t
        q >>= 1
    for i in range(1, 3):
        x[i] ^= x[i - 1]
    t = np.zeros_like(x[0])
    q = m
    while q > 1:
        t ^= np.where((x[2] & q) != 0, q - 1, 0)
        q >>= 1
    h = np.zeros_like(x[0])
    for b in range(bits - 1, -1, -1):
        for i in range(3):
            h = (h << 1) | (((x[i] ^ t) >> b) & 1)
    return h


def hilbert_order(system: BasisSystem):
    """Stably sort shells by the Hilbert index of their centers.

    Centers are scaled onto a 2^HILBERT_BITS lattice per axis, and every
    lattice point's key comes from one vectorized pass. Returns (reordered
    system, permutation) where permutation[k] is the old shell position now
    at k; use it to reorder externally supplied matrices.
    """
    centers = np.array([sh.center for sh in system.shells])
    lo = centers.min(axis=0)
    extent = centers.max(axis=0) - lo
    side = (1 << HILBERT_BITS) - 1
    lattice = np.zeros_like(centers, dtype=np.int64)
    for ax in range(3):
        if extent[ax] > 0.0:
            lattice[:, ax] = np.rint((centers[:, ax] - lo[ax]) / extent[ax] * side)
    perm = np.argsort(_hilbert_keys(lattice, HILBERT_BITS), kind="stable")
    return BasisSystem(shells=[system.shells[k] for k in perm],
                       atoms=system.atoms), perm
