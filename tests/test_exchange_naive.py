import math

import numpy as np
import pytest

from hexfock import (build_exchange_naive, dense_exchange, generate_cluster,
                     screening_test)
from hexfock.integrals import InvalidArgumentError
from hexfock.quadtree import (build_matrix_tree, build_pair_tree,
                              build_partition)

from conftest import build_setup


# ---------------------------------------------------------------- basics

def test_zero_density_yields_zero_exchange():
    _, pairs, _, _ = build_setup(2)
    system = generate_cluster(2, seed=3)
    part = build_partition(system)
    P_tree = build_matrix_tree(np.zeros((system.n_functions,) * 2), part)
    pairs2 = build_pair_tree(system, part, tau_ovlp=0.0)
    K, counters = build_exchange_naive(pairs2, pairs2, P_tree)
    assert not np.any(K)
    assert counters.leaf_contractions == 0


def test_infinite_threshold_culls_at_root():
    _, pairs, P_tree, _ = build_setup(2)
    K, counters = build_exchange_naive(pairs, pairs, P_tree,
                                       tau_2e=math.inf)
    assert not np.any(K)
    assert counters.tasks_visited == 1
    assert counters.tasks_culled_screening == 1
    assert counters.leaf_contractions == 0


def test_screening_test_trivial_cases():
    assert screening_test(0.0, 1.0, 1.0, 0.0)
    assert not screening_test(1.0, 1.0, 1.0, 1e-8)
    # the bra/ket factors enter as square roots: bound is 1e-4 * 1 * 1e-4
    assert screening_test(1e-8, 1.0, 1e-8, 1e-7)
    assert not screening_test(1e-8, 1.0, 1e-8, 1e-9)


def test_screening_test_errors():
    with pytest.raises(InvalidArgumentError):
        screening_test(-1.0, 1.0, 1.0, 0.0)
    # NaN compares false with every bound: it would keep every task
    with pytest.raises(InvalidArgumentError, match="tau_2e"):
        screening_test(1.0, 1.0, 1.0, math.nan)


def test_negative_tau_rejected():
    _, pairs, P_tree, _ = build_setup(1)
    with pytest.raises(InvalidArgumentError):
        build_exchange_naive(pairs, pairs, P_tree, tau_2e=-1.0)
    # NaN compares false with every bound: it would cull every quartet
    with pytest.raises(InvalidArgumentError, match="tau_2e"):
        build_exchange_naive(pairs, pairs, P_tree, tau_2e=math.nan)


def test_partition_mismatch_rejected():
    _, pairs_a, _, _ = build_setup(1)
    system = generate_cluster(1, seed=3)
    part = build_partition(system)
    P_tree = build_matrix_tree(np.eye(system.n_functions), part)
    with pytest.raises(InvalidArgumentError):
        build_exchange_naive(pairs_a, pairs_a, P_tree)


def test_pair_subtree_rejected():
    # a diagonal child with a density tree over its own span passes the
    # partition check, but only a tree root holds the pair table
    _, pairs, _, P = build_setup(5, leaf_size=3)
    sub = pairs.children[(0, 0)]
    lo, hi = sub.row.shell_lo, sub.row.shell_hi
    P_tree = build_matrix_tree(P[lo:hi, lo:hi], sub.row)
    with pytest.raises(InvalidArgumentError, match="roots of pair trees"):
        build_exchange_naive(sub, sub, P_tree)


# ---------------------------------------------------------------- exactness

def test_exact_against_dense_oracle():
    for n in (1, 2, 3):
        system, pairs, P_tree, P = build_setup(n, tau_ovlp=0.0)
        K, _ = build_exchange_naive(pairs, pairs, P_tree, tau_2e=0.0)
        K_ref = dense_exchange(system, P)
        assert np.abs(K - K_ref).max() <= 1e-11


def test_screened_error_within_culled_bound_ledger():
    system, pairs, P_tree, P = build_setup(5, tau_ovlp=0.0)
    K_exact, _ = build_exchange_naive(pairs, pairs, P_tree, tau_2e=0.0)
    for tau in (1e-10, 1e-8, 1e-6):
        K, counters = build_exchange_naive(pairs, pairs, P_tree, tau_2e=tau)
        err = np.abs(K - K_exact).max()
        assert err <= counters.culled_bound_ledger + 1e-15


def test_error_monotone_in_threshold_ladder():
    system, pairs, P_tree, P = build_setup(3, tau_ovlp=0.0)
    K_exact, _ = build_exchange_naive(pairs, pairs, P_tree, tau_2e=0.0)
    taus = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    errs = []
    for tau in taus:
        K, _ = build_exchange_naive(pairs, pairs, P_tree, tau_2e=tau)
        errs.append(float(np.linalg.norm(K - K_exact)))
    for looser, tighter in zip(errs, errs[1:]):
        assert tighter <= looser + 1e-15


# ------------------------------------------------------- structural checks

def test_hierarchical_consistency_of_culled_tasks():
    # any task culled by the blocked bound has all descendant bounds below
    # the parent bound (sub-multiplicativity of the cached norms); 40
    # shells at leaf 10 put every leaf two levels down, so a task's three
    # nodes are leaves, or have children, together
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=0.0)
    tau = 1e-6
    checked = 0

    def bound(b, p, k):
        return math.sqrt(b.diag_norm) * p.norm * math.sqrt(k.diag_norm)

    def descend(b, p, k, parent_bound):
        nonlocal checked
        if b is None or p is None or k is None or b.pruned or k.pruned:
            return
        assert bound(b, p, k) <= parent_bound * (1.0 + 1e-12)
        checked += 1
        if checked > 3000 or (b.is_leaf and k.is_leaf):
            return
        for a in range(len(b.row.children())):
            for cc in range(len(b.col.children())):
                for d in range(len(k.row.children())):
                    for bb in range(len(k.col.children())):
                        descend(b.children.get((a, cc)),
                                p.children.get((cc, d)),
                                k.children.get((d, bb)), parent_bound)

    def find_culled(b, p, k):
        if b is None or p is None or k is None or b.pruned or k.pruned:
            return
        if bound(b, p, k) <= tau:
            descend(b, p, k, bound(b, p, k))
            return
        if b.is_leaf and k.is_leaf:
            return
        for a in range(len(b.row.children())):
            for cc in range(len(b.col.children())):
                for d in range(len(k.row.children())):
                    for bb in range(len(k.col.children())):
                        find_culled(b.children.get((a, cc)),
                                    p.children.get((cc, d)),
                                    k.children.get((d, bb)))

    find_culled(pairs, P_tree, pairs)
    assert checked > 0


def test_counter_conservation():
    for n, tau in ((3, 0.0), (5, 1e-8), (5, 1e-6)):
        _, pairs, P_tree, _ = build_setup(n)
        _, c = build_exchange_naive(pairs, pairs, P_tree, tau_2e=tau)
        assert c.tasks_visited == (c.tasks_culled_screening
                                   + c.tasks_culled_absent
                                   + c.leaf_contractions + c.tasks_expanded)
        assert c.tasks_visited == c.children_spawned + 1
        assert c.tasks_visited >= c.leaf_contractions


def test_sequential_determinism():
    _, pairs, P_tree, _ = build_setup(3)
    K1, c1 = build_exchange_naive(pairs, pairs, P_tree, tau_2e=1e-9)
    K2, c2 = build_exchange_naive(pairs, pairs, P_tree, tau_2e=1e-9)
    assert np.array_equal(K1, K2)
    assert c1.to_dict() == c2.to_dict()


def test_evaluate_false_counts_without_integrals():
    _, pairs, P_tree, _ = build_setup(2)
    K, c_dry = build_exchange_naive(pairs, pairs, P_tree, tau_2e=1e-9,
                                    evaluate=False)
    assert not np.any(K)
    _, c_wet = build_exchange_naive(pairs, pairs, P_tree, tau_2e=1e-9)
    assert c_dry.to_dict() == c_wet.to_dict()


def test_quartet_log_collects_evaluated_quartets():
    _, pairs, P_tree, _ = build_setup(1, tau_ovlp=0.0)
    log = []
    _, c = build_exchange_naive(pairs, pairs, P_tree, tau_2e=0.0,
                                quartet_log=log)
    assert len(log) == c.eri_shell_quartets
    assert all(len(t) == 4 for t in log)


@pytest.mark.parametrize("tau", [0.0, 1e-8])
@pytest.mark.parametrize("leaf_size", [1, 3, 10, 40])
def test_naive_kept_quartets_never_repeat(leaf_size, tau):
    # the naive walk buffers and counts its kept quartets as they come, with
    # no sort and no union: with one untransposed link, each is its own
    # (task, density entry, free bra pair, free ket pair), so none may
    # repeat, with bra and ket on one tree or on two built separately
    system, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11,
                                           leaf_size=leaf_size)
    ket = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
    for k in (pairs, ket):
        log = []
        _, c = build_exchange_naive(pairs, k, P_tree, tau_2e=tau,
                                    quartet_log=log)
        assert c.eri_shell_quartets > 0
        assert len(log) == c.eri_shell_quartets
        assert len(set(log)) == len(log)
        del log
