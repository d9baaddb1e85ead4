import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hexfock import (DensityModel, build_density, build_exchange_naive,
                     build_exchange_symmetric, compare, dense_exchange,
                     dense_exchange_screened, generate_cluster)
from hexfock.basis import Atom, BasisSystem, GaussianShell
from hexfock.exchange_naive import screening_bound
from hexfock.integrals import InvalidArgumentError, eri_quartet
from hexfock.quadtree import build_pair_tree, build_partition

from conftest import build_setup


def _single_shell_system():
    sh = GaussianShell(center=[0.0, 0.0, 0.0], primitives=[(1.0, 1.0)])
    return BasisSystem(shells=[sh], atoms=[Atom("H", sh.center)])


def test_dense_zero_density():
    system = generate_cluster(1, seed=1)
    K = dense_exchange(system, np.zeros((4, 4)))
    assert not np.any(K)


def test_dense_single_shell_one_term():
    system = _single_shell_system()
    sh = system.shells[0]
    q = eri_quartet(sh, sh, sh, sh).values[0, 0, 0, 0]
    P = np.array([[0.8]])
    K = dense_exchange(system, P)
    assert K[0, 0] == pytest.approx(-0.5 * 0.8 * q, rel=1e-13)


def test_dense_output_symmetric():
    system = generate_cluster(1, seed=5)
    rng = np.random.default_rng(0)
    P = rng.normal(size=(4, 4))
    P = 0.5 * (P + P.T)
    K = dense_exchange(system, P)
    assert np.abs(K - K.T).max() <= 1e-13


def test_dense_dimension_mismatch():
    system = generate_cluster(1, seed=1)
    with pytest.raises(InvalidArgumentError):
        dense_exchange(system, np.eye(3))
    with pytest.raises(InvalidArgumentError):
        dense_exchange_screened(system, np.eye(3), 0.0)


@pytest.mark.parametrize("tau_2e", [math.nan, -1.0],
                         ids=["nan-schwarz-tau_2e", "-1.0-schwarz-tau_2e"])
def test_screened_rejects_what_the_drivers_reject(tau_2e):
    # the screened oracle runs the drivers' screening contract; without it
    # a NaN threshold skips every quartet, returning K = 0
    system = generate_cluster(2, seed=3)
    P = build_density(system, DensityModel())
    with pytest.raises(InvalidArgumentError, match="tau_2e"):
        dense_exchange_screened(system, P, tau_2e)


def test_screened_zero_threshold_equals_dense():
    system = generate_cluster(2, seed=3)
    rng = np.random.default_rng(2)
    n = system.n_functions
    P = rng.normal(size=(n, n))
    P = 0.5 * (P + P.T)
    K_ref = dense_exchange(system, P)
    K, skipped = dense_exchange_screened(system, P, 0.0)
    assert np.abs(K - K_ref).max() <= 1e-13
    assert skipped == 0.0


def test_screened_infinite_threshold_zero_matrix():
    system = generate_cluster(1, seed=1)
    P = np.eye(4)
    K, skipped = dense_exchange_screened(system, P, math.inf)
    assert not np.any(K)
    assert skipped > 0.0


def test_screened_error_bounded_by_skipped_sum():
    system = generate_cluster(3, seed=3)
    n = system.n_functions
    rng = np.random.default_rng(11)
    P = rng.normal(size=(n, n))
    P = 0.5 * (P + P.T)
    K_ref = dense_exchange(system, P)
    for tau in (1e-8, 1e-5, 1e-3):
        K, skipped = dense_exchange_screened(system, P, tau)
        assert np.abs(K - K_ref).max() <= skipped + 1e-15


def test_screened_quartet_log():
    system = generate_cluster(1, seed=1)
    P = np.full((4, 4), 0.5)
    log = []
    dense_exchange_screened(system, P, 0.0, quartet_log=log)
    ns = system.n_shells
    assert len(log) == ns ** 4
    assert all(len(t) == 4 for t in log)


@pytest.mark.parametrize("oracle", [
    dense_exchange,
    lambda system, P: dense_exchange_screened(system, P, 1e-8),
], ids=["dense", "dense-screened"])
def test_oracle_peak_memory_bounded(oracle):
    # water:12 (48 shells): unchunked, dense held ~600 MB and dense-screened
    # an n_shells**4 bound array (~96 MB) at once
    system = generate_cluster(12, seed=3)
    P = build_density(system, DensityModel())
    tracemalloc.start()
    try:
        oracle(system, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


def test_compare_cases():
    r = compare(np.zeros((4, 4)), np.eye(4))
    assert r.max_abs_diff == 1.0
    assert r.frobenius_diff == pytest.approx(2.0)
    assert r.relative_frobenius == pytest.approx(1.0)
    same = compare(np.eye(3), np.eye(3))
    assert same.max_abs_diff == 0.0
    assert same.frobenius_diff == 0.0
    assert same.relative_frobenius == 0.0
    with pytest.raises(InvalidArgumentError):
        compare(np.eye(3), np.eye(4))


def test_compare_worst_element_location():
    a = np.zeros((3, 3))
    b = np.zeros((3, 3))
    b[2, 1] = -4.0
    r = compare(a, b)
    assert (r.worst_row, r.worst_col) == (2, 1)
    assert r.max_abs_diff == 4.0
    # the report's comparison fields, in this order
    assert list(asdict(r)) == ["max_abs_diff", "frobenius_diff",
                               "relative_frobenius", "worst_row", "worst_col"]


def _tied_threshold(system, P, kind, rank):
    """A tau_2e at a tie, from the drivers' screening_bound. "quartet": the
    rank-th largest quartet bound. "mirror": the rank-th largest bound in
    bra-then-ket order, (f_bra * |P|) * f_ket, among the quartets whose
    mirror (sig lam|nu mu) rounds larger in that order; a product that is
    not exact under the bra/ket swap culls such a quartet and keeps its
    mirror. "entry": one float below the rank-th largest density-entry
    bound, the largest bound of the entry's quartets, which is also the
    value the leaf prefilter computes for that entry. "edge" (at) and
    "below-edge" (one float below): the rank-th largest edge bound
    screening_bound(f[mu,nu], |P[nu,lam]|, max_sig f[lam,sig]), the test
    that bounds a density entry's box of free bra indices in the leaf
    kernel's range query."""
    q = build_pair_tree(system, build_partition(system,
                                                leaf_size=system.n_shells)).diag
    f = np.sqrt(q)
    if kind in ("edge", "below-edge"):
        bound = screening_bound(f[:, :, None], np.abs(P)[None],
                                f.max(axis=1)[None, None, :])
        edge = float(np.sort(bound, axis=None)[-rank])
        return edge if kind == "edge" else float(np.nextafter(edge, 0.0))
    if kind == "mirror":
        ordered = f[:, :, None, None] * np.abs(P)[None, :, :, None] * f
        return float(np.sort(
            ordered[ordered.transpose(3, 2, 1, 0) > ordered])[-rank])
    if kind == "quartet":
        bound = screening_bound(f[:, :, None, None],
                                np.abs(P)[None, :, :, None], f)
        return float(np.sort(bound, axis=None)[-rank])
    bound = screening_bound(f.max(axis=0)[:, None], np.abs(P),
                            f.max(axis=1))
    return float(np.nextafter(np.sort(bound, axis=None)[-rank], 0.0))


@pytest.mark.parametrize("n,leaf_size,tau_2e,quartets", [
    # the ids name the Schwarz bound, which every build screens with
    pytest.param(10, 10, 1e-8, 23966, id="10-10-1e-08-schwarz-23966"),
    pytest.param(10, 4, 1e-6, 9514, id="10-4-1e-06-schwarz-9514"),
    pytest.param(8, 40, 1e-10, 29842, id="8-40-1e-10-schwarz-29842"),
    # tau_2e at a realised bound culls the tied quartets, a tied mirror
    # pair together (leaf 40); at ragged leaf 3 it sits where the
    # bra-then-ket product rounds a quartet and its mirror apart, which the
    # swap-exact bound keeps together; one float below an entry's largest
    # bound keeps that quartet, which the leaf prefilter, having no safety
    # margin, must pass on (leaf 40, and leaf 3); at and one float below
    # an edge bound, the leaf 40 range query's box edge (one leaf spans
    # every shell), drops and keeps the quartet at that edge
    pytest.param(8, 40, ("quartet", 10_000), 9998, id="at-tie-leaf40"),
    pytest.param(8, 40, ("entry", 300), 4714, id="below-tie-leaf40"),
    pytest.param(8, 40, ("edge", 3_000), 12548, id="at-edge-leaf40"),
    pytest.param(8, 40, ("below-edge", 3_000), 12550,
                 id="below-edge-leaf40"),
    pytest.param(5, 3, ("mirror", 1_000), 8786, id="at-tie-leaf3"),
    pytest.param(5, 3, ("entry", 100), 1538, id="below-tie-leaf3"),
])
def test_screened_log_equals_naive_driver_log(n, leaf_size, tau_2e,
                                              quartets):
    # at tau_ovlp = 0 the naive driver keeps exactly the direct-SCF quartets:
    # both screen every quartet on the same (ij|ij) values
    system, pairs, P_tree, P = build_setup(n, tau_ovlp=0.0,
                                           leaf_size=leaf_size)
    if isinstance(tau_2e, tuple):
        tau_2e = _tied_threshold(system, P, *tau_2e)
    log = []
    build_exchange_naive(pairs, pairs, P_tree, tau_2e, quartet_log=log)
    ref = []
    dense_exchange_screened(system, P, tau_2e, quartet_log=ref)
    assert len(log) == len(ref) == quartets
    assert set(log) == set(ref)
    # every screening decision treats a quartet and its bra/ket mirror
    # alike, so the symmetry driver's K passes symmetrize_final
    assert {(d, c, b, a) for a, b, c, d in log} == set(log)
    build_exchange_symmetric(pairs, P_tree, tau_2e)
