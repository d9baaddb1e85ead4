import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexfock import (Atom, BasisSystem, FormatError, InvalidArgumentError,
                     UnsupportedElementError, generate_cluster, hilbert_order,
                     load_xyz)
from hexfock.basis import (BOHR_PER_ANGSTROM, HILBERT_BITS, GaussianShell,
                           OH_DISTANCE, SplitMix64, _hilbert_keys,
                           hilbert_index_3d)
from hexfock.integrals import overlap


def test_single_molecule_geometry_is_fixed():
    system = generate_cluster(1, seed=99)
    assert len(system.atoms) == 3
    o, h1, h2 = system.atoms
    assert o.element == "O" and h1.element == "H" and h2.element == "H"
    assert math.isclose(np.linalg.norm(h1.position - o.position), OH_DISTANCE)
    assert math.isclose(np.linalg.norm(h2.position - o.position), OH_DISTANCE)
    # O carries two shells, each H one; 1 function per s shell
    assert system.n_shells == 4
    assert system.n_functions == 4


def test_generate_cluster_deterministic():
    a = generate_cluster(10, seed=7)
    b = generate_cluster(10, seed=7)
    assert len(a.shells) == len(b.shells)
    for sa, sb in zip(a.shells, b.shells):
        assert np.array_equal(sa.center, sb.center)
        assert sa.primitives == sb.primitives


def test_generate_cluster_zero_molecules_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_cluster(0, seed=1)


def test_minimum_heavy_separation():
    system = generate_cluster(30, seed=1)
    heavies = np.array([a.position for a in system.atoms if a.element == "O"])
    assert len(heavies) == 30
    d = np.linalg.norm(heavies[:, None, :] - heavies[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 4.0


def test_load_xyz_single_atom(tmp_path):
    path = tmp_path / "one.xyz"
    path.write_text("1\ncomment\nO 0 0 0\n")
    system = load_xyz(path)
    assert len(system.atoms) == 1
    assert np.allclose(system.atoms[0].position, 0.0)


def test_load_xyz_unit_conversion(tmp_path):
    path = tmp_path / "conv.xyz"
    path.write_text("1\n\nH 1.0 0 0\n")
    system = load_xyz(path)
    assert math.isclose(system.atoms[0].position[0], BOHR_PER_ANGSTROM)


def test_load_xyz_malformed_count(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("not_a_number\n\nO 0 0 0\n")
    with pytest.raises(FormatError) as err:
        load_xyz(path)
    assert err.value.line == 1


def test_load_xyz_unknown_element(tmp_path):
    path = tmp_path / "unk.xyz"
    path.write_text("1\n\nXx 0 0 0\n")
    with pytest.raises(UnsupportedElementError):
        load_xyz(path)


def test_hilbert_order_idempotent():
    system = generate_cluster(5, seed=11)
    once, perm1 = hilbert_order(system)
    twice, perm2 = hilbert_order(once)
    assert list(perm2) == list(range(once.n_shells))
    for sa, sb in zip(once.shells, twice.shells):
        assert np.array_equal(sa.center, sb.center)


def test_hilbert_order_stable_for_identical_centers():
    sh = [GaussianShell(center=np.zeros(3), primitives=[(1.0 + i, 1.0)])
          for i in range(3)]
    system = BasisSystem(shells=sh, atoms=[Atom("H", np.zeros(3))] * 3)
    ordered, perm = hilbert_order(system)
    assert list(perm) == [0, 1, 2]


def test_hilbert_corner_indices_match_reference():
    # 8 unit-cube corners: indices must be distinct and cover one curve pass
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    idx = [hilbert_index_3d(np.array(c), 1) for c in corners]
    assert sorted(idx) == list(range(8))


def _scalar_hilbert_index(coords, bits):
    """Reference: Skilling's transposed-bits algorithm on one point, in
    Python integers."""
    x = [int(c) for c in coords]
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(3):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, 3):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[2] & q:
            t ^= q - 1
        q >>= 1
    h = 0
    for b in range(bits - 1, -1, -1):
        for i in range(3):
            h = (h << 1) | (((x[i] ^ t) >> b) & 1)
    return h


@pytest.mark.parametrize("bits", [1, 2, 5, HILBERT_BITS])
def test_hilbert_keys_match_scalar_reference(bits):
    rng = np.random.default_rng(bits)
    lattice = rng.integers(0, 1 << bits, size=(500, 3))
    lattice[:8] = (1 << bits) - 1  # the far corner, and some repeats
    lattice[:4, 1] = 0
    want = [_scalar_hilbert_index(pt, bits) for pt in lattice]
    assert _hilbert_keys(lattice, bits).tolist() == want


def test_splitmix64_reference_values():
    # first outputs for seed 1234567 from the published splitmix64 recurrence
    rng = SplitMix64(1234567)
    first = rng.next_u64()
    rng2 = SplitMix64(1234567)
    assert rng2.next_u64() == first
    assert 0.0 <= SplitMix64(42).uniform() < 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100.0),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 32))
def test_shell_normalization_unit_self_overlap(exponents, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.2, 1.0, size=len(exponents))
    shell = GaussianShell(center=rng.normal(size=3),
                          primitives=list(zip(exponents, coeffs)))
    assert abs(overlap(shell, shell) - 1.0) <= 1e-12


GOLDEN_SYSTEMS = json.loads(
    (Path(__file__).parent / "data" / "generated_systems.json").read_text())


def system_digest(n_molecules, seed):
    """sha256 of a generated cluster's shell centers, exponents and weights,
    shell by shell, then of its Hilbert permutation."""
    system = generate_cluster(n_molecules, seed=seed)
    _, perm = hilbert_order(system)
    h = hashlib.sha256()
    for sh in system.shells:
        for a in (sh.center, sh.exponents, sh.weights):
            h.update(np.asarray(a, dtype="<f8").tobytes())
    h.update(np.asarray(perm, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("size", sorted(GOLDEN_SYSTEMS, key=lambda k: int(k[6:])))
def test_generated_systems_match_golden_digests(size):
    # pins the packing test, the shell normalization and the Hilbert keys
    # byte for byte, seeds 0-9 at each size
    n = int(size.removeprefix("water:"))
    got = {str(seed): system_digest(n, seed) for seed in range(10)}
    assert got == GOLDEN_SYSTEMS[size]
