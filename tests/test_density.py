import numpy as np
import pytest

from hexfock import DensityModel, build_density, generate_cluster
from hexfock.density import load_density_file, save_density_file
from hexfock.integrals import InvalidArgumentError


def test_gamma_infinity_limit_is_diagonal():
    system = generate_cluster(2, seed=1)
    P = build_density(system, DensityModel(gamma=1e6))
    n = system.n_functions
    # off-diagonal entries between distinct centers vanish; same-center
    # blocks (zero distance) stay at the diagonal value
    centers = np.array([sh.center for sh in system.shells])
    for i in range(n):
        for j in range(n):
            if np.array_equal(centers[i], centers[j]):
                assert P[i, j] == 1.0
            else:
                assert P[i, j] == 0.0


def test_same_center_functions_get_diagonal_value():
    system = generate_cluster(1, seed=2)
    P = build_density(system, DensityModel(gamma=0.7))
    # the two O shells share a center -> full diagonal value off-diagonal
    o_shells = [k for k, sh in enumerate(system.shells)
                if np.array_equal(sh.center, system.atoms[0].position)]
    assert len(o_shells) == 2
    i, j = o_shells
    assert P[i, j] == 1.0
    assert P[i, i] == 1.0


def test_density_exactly_symmetric():
    system = generate_cluster(5, seed=3)
    P = build_density(system, DensityModel())
    assert np.array_equal(P, P.T)


def test_density_monotone_decay_with_distance():
    system = generate_cluster(10, seed=3)
    P = build_density(system, DensityModel(gamma=0.5))
    n = system.n_functions
    centers = np.array([sh.center for sh in system.shells])
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    iu = np.triu_indices(n, k=1)
    order = np.argsort(d[iu])
    vals = P[iu][order]
    assert np.all(np.diff(vals) <= 1e-15)


def test_density_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    p = rng.normal(size=(6, 6))
    p = 0.5 * (p + p.T)
    path = tmp_path / "dens.txt"
    save_density_file(path, p)
    loaded = load_density_file(path)
    assert np.array_equal(loaded, p)


def test_density_file_symmetrized_on_load(tmp_path):
    p = np.array([[1.0, 2.0], [4.0, 3.0]])
    path = tmp_path / "asym.txt"
    save_density_file(path, p)
    loaded = load_density_file(path)
    assert np.array_equal(loaded, 0.5 * (p + p.T))


def test_density_file_dimension_mismatch(tmp_path):
    system = generate_cluster(1, seed=1)  # 4 functions
    path = tmp_path / "wrong.txt"
    save_density_file(path, np.eye(3))
    with pytest.raises(InvalidArgumentError):
        build_density(system, DensityModel(kind="file", path=str(path)))


def test_density_file_value_count_mismatch(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n1.0 2.0 3.0\n")
    with pytest.raises(InvalidArgumentError):
        load_density_file(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(InvalidArgumentError):
        load_density_file(empty)


def test_invalid_density_models():
    with pytest.raises(InvalidArgumentError):
        DensityModel(kind="weird")
    with pytest.raises(InvalidArgumentError):
        DensityModel(gamma=0.0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="gamma"):
            DensityModel(gamma=gamma)
    with pytest.raises(InvalidArgumentError):
        DensityModel(kind="file", path=None)
