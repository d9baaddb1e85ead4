import numpy as np
import pytest

from hexfock import (CASE_LABELS, DensityModel, LogicError, build_density,
                     build_exchange_naive, build_exchange_symmetric,
                     dense_exchange, generate_cluster, hilbert_order,
                     symmetrize_final)
from hexfock.exchange_symmetry import _case_index
from hexfock.integrals import InvalidArgumentError
from hexfock.quadtree import (build_matrix_tree, build_pair_tree,
                              build_partition)

from conftest import build_setup


@pytest.fixture(scope="module")
def deep_pairs():
    # 40 functions -> two interior levels; leaf spans L0..L3 in order
    _, pairs, _, _ = build_setup(10, tau_ovlp=0.0)
    assert not pairs.is_leaf
    assert not pairs.children[(0, 0)].is_leaf
    return pairs


def _leaf_pair(pairs, i, j):
    """Leaf pair node over (L_i, L_j) of the four ordered leaf spans."""
    return pairs.children[(i // 2, j // 2)].children[(i % 2, j % 2)]


# ------------------------------------------------------------ classification

def classify_quartet(bra, ket, present=(True, True, True, True)):
    """The engine's case label (_case_index) of one task (bra, ket)."""
    spans = (bra.row, bra.col, ket.row, ket.col)
    label = _case_index(*np.array([[s.shell_lo] for s in spans]),
                        np.array([bra is ket]), np.array([all(present)]))
    return CASE_LABELS[label[0]]


def test_classify_cases_by_span_relation(deep_pairs):
    lp = lambda i, j: _leaf_pair(deep_pairs, i, j)
    # separated spans and touching spans are the generic 4-sink case A
    assert classify_quartet(lp(0, 1), lp(2, 3)) == "A"
    assert classify_quartet(lp(2, 3), lp(0, 1)) == "A"  # mirrored
    assert classify_quartet(lp(0, 1), lp(1, 2)) == "A"  # nu == lam
    # one diagonal pair node
    assert classify_quartet(lp(0, 0), lp(1, 2)) == "B"
    assert classify_quartet(lp(0, 1), lp(2, 2)) == "B"
    # nested and interleaved four-distinct-span tasks
    assert classify_quartet(lp(0, 3), lp(1, 2)) == "C"
    assert classify_quartet(lp(1, 2), lp(0, 3)) == "C"
    assert classify_quartet(lp(0, 2), lp(1, 3)) == "D"
    # same node on both sides, off the diagonal or on it
    assert classify_quartet(lp(0, 1), lp(0, 1)) == "E"
    assert classify_quartet(lp(0, 0), lp(0, 0)) == "E"
    # shared row / column span coincidences
    assert classify_quartet(lp(0, 2), lp(0, 3)) == "F1"
    assert classify_quartet(lp(0, 2), lp(1, 2)) == "F2"
    # both pair nodes diagonal
    assert classify_quartet(lp(0, 0), lp(1, 1)) == "H"


def test_classify_case_a_has_four_valid_slots(deep_pairs):
    assert classify_quartet(_leaf_pair(deep_pairs, 0, 1),
                            _leaf_pair(deep_pairs, 2, 3),
                            present=(True, True, True, True)) == "A"


def test_classify_absent_link_demotes_to_sparse(deep_pairs):
    assert classify_quartet(_leaf_pair(deep_pairs, 0, 1),
                            _leaf_pair(deep_pairs, 2, 3),
                            present=(True, False, True, True)) == "SPARSE"


def test_classify_non_canonical_task_is_logic_error(deep_pairs):
    lower = deep_pairs.children[(1, 0)]  # row span after column span
    with pytest.raises(LogicError):
        classify_quartet(lower, deep_pairs.children[(1, 1)])
    with pytest.raises(LogicError):
        classify_quartet(deep_pairs.children[(0, 0)], lower)


# ------------------------------------------------------------ symmetrization

def test_symmetrize_final_paths():
    sym = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(symmetrize_final(sym), sym)
    slight = sym.copy()
    slight[0, 1] += 1e-12
    out = symmetrize_final(slight)
    assert np.array_equal(out, out.T)
    bad = sym.copy()
    bad[0, 1] += 1e-3
    with pytest.raises(LogicError):
        symmetrize_final(bad)
    # finite entries past max/2 fold to themselves, not to inf
    huge = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
    assert np.array_equal(symmetrize_final(huge), huge)


def test_symmetrize_tolerance_scales_with_k():
    # a 1e6-scaled density makes |K| ~ 3e6; rounding asymmetry of ~6e-10
    # used to trip the absolute 1e-10 tolerance
    system, _ = hilbert_order(generate_cluster(10, seed=3))
    P = 1e6 * build_density(system, DensityModel())
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, density=P)
    K_s, _ = build_exchange_symmetric(pairs, P_tree, tau_2e=1e-8)
    K_n, _ = build_exchange_naive(pairs, pairs, P_tree, tau_2e=1e-8)
    scale = max(1.0, np.abs(K_n).max())
    assert np.abs(K_s - K_n).max() <= 1e-11 * scale
    big = 1e6 * np.array([[1.0, 2.0], [2.0, 3.0]])
    big[0, 1] += 1.0  # asymmetry 1.0 against a limit of 3e-4
    with pytest.raises(LogicError):
        symmetrize_final(big)


# ------------------------------------------------------------ equivalence

def test_matches_naive_driver_exact_and_screened():
    for n, tau in ((2, 0.0), (3, 1e-9), (5, 1e-8)):
        _, pairs, P_tree, _ = build_setup(n)
        K_n, c_n = build_exchange_naive(pairs, pairs, P_tree, tau_2e=tau)
        K_s, c_s = build_exchange_symmetric(pairs, P_tree, tau_2e=tau)
        scale = max(1.0, np.abs(K_n).max())
        assert np.abs(K_s - K_n).max() <= 1e-11 * scale
        assert c_s.quartets_culled_leaf == c_n.quartets_culled_leaf


def test_identity_density_no_double_counting():
    # identity P zeroes most off-diagonal blocks, so absent-link (SPARSE)
    # handling is exercised; the dense oracle forces the correct K
    system = generate_cluster(3, seed=3)
    part = build_partition(system)
    pairs = build_pair_tree(system, part, tau_ovlp=0.0)
    n = system.n_functions
    P = np.eye(n)
    P_tree = build_matrix_tree(P, part)
    K, counters = build_exchange_symmetric(pairs, P_tree, tau_2e=0.0)
    K_ref = dense_exchange(system, P)
    assert np.abs(K - K_ref).max() <= 1e-11
    assert counters.links_culled_absent > 0
    assert counters.case_tasks["SPARSE"] > 0


def test_raw_accumulator_symmetric_by_construction():
    _, pairs, P_tree, _ = build_setup(1, tau_ovlp=0.0)
    K, _ = build_exchange_symmetric(pairs, P_tree, tau_2e=0.0)
    assert np.abs(K - K.T).max() == 0.0


# ------------------------------------------------------------ work reduction

def test_canonical_quartet_count_reduction():
    # with screening off the naive driver evaluates every ordered quartet
    # and the symmetric driver only canonical ones: ratio (2T/(T+1))^2
    # with T shells per side
    system, pairs, P_tree, _ = build_setup(3, tau_ovlp=0.0)
    _, c_n = build_exchange_naive(pairs, pairs, P_tree, tau_2e=0.0,
                                  evaluate=False)
    _, c_s = build_exchange_symmetric(pairs, P_tree, tau_2e=0.0,
                                      evaluate=False)
    ns = system.n_shells
    canon = ns * (ns + 1) // 2
    assert c_n.eri_shell_quartets == ns ** 4
    assert c_s.eri_shell_quartets == canon ** 2
    ratio = c_n.eri_shell_quartets / c_s.eri_shell_quartets
    assert ratio == pytest.approx((2 * ns / (ns + 1)) ** 2)


# ------------------------------------------------------------ counters

def test_case_count_conservation():
    for n, tau in ((3, 0.0), (5, 1e-8)):
        _, pairs, P_tree, _ = build_setup(n)
        _, c = build_exchange_symmetric(pairs, P_tree, tau_2e=tau,
                                        evaluate=False)
        assert sum(c.case_tasks.values()) == \
            c.leaf_contractions + c.tasks_expanded
        assert sum(c.case_leaf_tasks.values()) == c.leaf_contractions
        assert c.tasks_visited == (c.tasks_culled_screening
                                   + c.tasks_culled_absent
                                   + c.leaf_contractions + c.tasks_expanded)


def test_case_breakdown_csv_format():
    _, pairs, P_tree, _ = build_setup(3)
    _, c = build_exchange_symmetric(pairs, P_tree, tau_2e=0.0,
                                    evaluate=False)
    csv_text = c.case_breakdown_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "case,count,percent"
    assert len(lines) == 1 + len(CASE_LABELS)
    total_pct = 0.0
    for line, label in zip(lines[1:], CASE_LABELS):
        case, count, pct = line.split(",")
        assert case == label
        assert int(count) >= 0
        total_pct += float(pct)
    assert total_pct == pytest.approx(100.0, abs=0.01)


@pytest.mark.parametrize("n,leaf,tau,expected", [
    (10, 10, 1e-8, 14429), (10, 4, 1e-6, 6081), (6, 40, 1e-10, 9939)])
def test_quartet_log_is_canonical_image_of_naive_log(n, leaf, tau, expected):
    # every quartet the naive driver evaluates is evaluated exactly once by
    # the symmetry driver, in canonical pair orientation
    _, pairs, P_tree, _ = build_setup(n, tau_ovlp=1e-11, leaf_size=leaf)
    naive_log, sym_log = [], []
    build_exchange_naive(pairs, pairs, P_tree, tau, quartet_log=naive_log)
    _, c = build_exchange_symmetric(pairs, P_tree, tau, quartet_log=sym_log)
    assert len(sym_log) == len(set(sym_log)) == c.eri_shell_quartets == expected
    assert set(sym_log) == {(min(i, j), max(i, j), min(k, l), max(k, l))
                            for i, j, k, l in naive_log}


def test_quartet_log_and_validation():
    _, pairs, P_tree, _ = build_setup(1, tau_ovlp=0.0)
    log = []
    _, c = build_exchange_symmetric(pairs, P_tree, tau_2e=0.0,
                                    quartet_log=log)
    assert len(log) == c.eri_shell_quartets
    # canonical orientation: within each logged pair i <= j
    assert all(i <= j and k <= l for i, j, k, l in log)
    with pytest.raises(InvalidArgumentError):
        build_exchange_symmetric(pairs, P_tree, tau_2e=-1.0)
    with pytest.raises(InvalidArgumentError, match="tau_2e"):
        build_exchange_symmetric(pairs, P_tree, tau_2e=float("nan"))


# ------------------------------------------------------------ input checks

@pytest.mark.parametrize("evaluate", [True, False],
                         ids=["evaluated", "count-only"])
def test_asymmetric_density_is_rejected_up_front(evaluate):
    # an asymmetric P is an input problem, named by its worst entry, not a
    # symmetry-update bug caught after the walk by symmetrize_final
    _, pairs, _, P = build_setup(5, tau_ovlp=1e-11)
    bad = P.copy()
    bad[0, 1] += 0.3
    with pytest.raises(InvalidArgumentError,
                       match=r"not symmetric: \|P\[0, 1\] - P\[1, 0\]\| = 3\.000e-01"):
        build_exchange_symmetric(pairs, build_matrix_tree(bad, pairs.row),
                                 1e-8, evaluate=evaluate)
    # the rule is symmetrize_final's, relative to max(1, max|P|): a P that
    # is symmetric to rounding, at any scale, still passes
    for scale, nudge in ((1.0, 1e-11), (1e6, 1e-5)):
        near = scale * P
        near[2, 0] += nudge
        build_exchange_symmetric(pairs, build_matrix_tree(near, pairs.row),
                                 1e-8, evaluate=evaluate)
    big = 1e6 * P
    big[2, 0] += 1e-3
    with pytest.raises(InvalidArgumentError, match=r"P\[0, 2\] - P\[2, 0\]"):
        build_exchange_symmetric(pairs, build_matrix_tree(big, pairs.row),
                                 1e-8, evaluate=evaluate)
