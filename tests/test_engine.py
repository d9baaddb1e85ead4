"""Contract tests of the traversal engine both exchange drivers share."""

import gc
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexfock import (build_exchange_naive, build_exchange_symmetric,
                     dense_exchange, exchange_naive, exchange_symmetry,
                     generate_cluster)
from hexfock.exchange_naive import leaf_cache
from hexfock.integrals import eri_elementwise
from hexfock.quadtree import (build_matrix_tree, build_pair_tree,
                              build_partition)

from conftest import build_setup, end_worker, flatten, leaf_spans

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_counters.json").read_text())
GOLDEN_ASYMMETRIC = json.loads(
    (Path(__file__).parent / "data" / "golden_counters_asymmetric.json")
    .read_text())


def _count_only(n, driver, leaf_size):
    _, pairs, P_tree, _ = build_setup(n, tau_ovlp=1e-11, leaf_size=leaf_size)
    if driver == "naive":
        _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8,
                                    evaluate=False)
    else:
        _, c = build_exchange_symmetric(pairs, P_tree, 1e-8, evaluate=False)
    return c.to_dict()


# golden-row suffix -> leaf size
_VARIANTS = {"": 10, "leaf40": 40}


@pytest.mark.parametrize("case", ["10", "30", "10-leaf40", "30-leaf40"])
@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_counters_match_golden(case, driver):
    # golden values: count-only builds at (tau_2e, tau_ovlp) = (1e-8, 1e-11);
    # the leaf-10 rows were recorded before the two drivers shared one
    # engine, the leaf-40 rows before leaves were contracted as
    # (mu nu|lam sig) blocks
    n, _, variant = case.partition("-")
    got = _count_only(int(n), driver, _VARIANTS[variant])
    want = dict(GOLDEN[f"water:{n}/{variant}" if variant else f"water:{n}"][driver])
    assert got.keys() == want.keys()
    ledger = got.pop("culled_bound_ledger")
    assert ledger == pytest.approx(want.pop("culled_bound_ledger"), rel=1e-12)
    assert got == want


@pytest.mark.parametrize("case", sorted(GOLDEN_ASYMMETRIC))
def test_counters_match_golden_on_a_density_asymmetric_by_rounding(case):
    # P's entries above the diagonal one ulp up (the nonzero ones), or 9e-11
    # up: either P passes the symmetry check, but its mirrored density
    # blocks differ, and at 9e-11 a task's two orientations keep different
    # links and quartets. Each orientation of a canonical task is still
    # tallied from its own links, as when the two were walked apart: the
    # golden values are such a walk's, count-only at (tau_2e, tau_ovlp) =
    # (1e-8, 1e-11)
    nudge, system, leaf = case.split("/")
    n, leaf_size = int(system.removeprefix("water:")), int(leaf[4:])
    _, _, _, P = build_setup(n, tau_ovlp=1e-11, leaf_size=leaf_size)
    up = np.triu(np.ones(P.shape, dtype=bool), 1)
    if nudge == "ulp":
        up &= P != 0
        P[up] = np.nextafter(P[up], np.inf)
        assert 0 < np.abs(P - P.T).max() <= 1e-15
    else:
        P[up] += float(nudge)
    _, pairs, P_tree, _ = build_setup(n, tau_ovlp=1e-11, leaf_size=leaf_size,
                                      density=P)
    _, c = build_exchange_symmetric(pairs, P_tree, 1e-8, evaluate=False)
    got, want = c.to_dict(), dict(GOLDEN_ASYMMETRIC[case]["symmetry"])
    assert got.keys() == want.keys()
    ledger = got.pop("culled_bound_ledger")
    assert ledger == pytest.approx(want.pop("culled_bound_ledger"), rel=1e-12)
    assert got == want


def _swap_distinct(counters, log):
    """The swap-distinct quartets of a symmetry build, from its counters and
    quartet log: it keeps a quartet and its bra-ket mirror both, but a
    self-mirror quartet (bra pair = ket pair) only once."""
    self_mirror = sum(q[:2] == q[2:] for q in log)
    assert (counters.eri_shell_quartets + self_mirror) % 2 == 0
    return (counters.eri_shell_quartets + self_mirror) // 2


# quartets each driver keeps at water:10, (tau_2e, tau_ovlp) = (1e-8, 1e-11)
_KEPT_WATER10 = {"naive": 23966, "symmetry": 14429}


# the ids name the Schwarz bound, which every build screens with
@pytest.mark.parametrize("driver", ["naive", "symmetry"],
                         ids=["naive-schwarz", "symmetry-schwarz"])
def test_kept_quartets_do_not_depend_on_leaf_size(cluster_setup, driver):
    # every quartet is kept or culled by its own bound, so the leaf kernel's
    # candidate prefilter and blocking must not change the kept set, from
    # one-shell leaves to a single leaf over all 40 shells
    want = None
    for leaf_size in (1, 2, 3, 10, 40):
        _, pairs, P_tree, _ = cluster_setup(10, tau_ovlp=1e-11,
                                            leaf_size=leaf_size)
        log = []
        if driver == "naive":
            build_exchange_naive(pairs, pairs, P_tree, 1e-8, quartet_log=log)
        else:
            build_exchange_symmetric(pairs, P_tree, 1e-8, quartet_log=log)
        kept = set(log)
        assert len(kept) == len(log) == _KEPT_WATER10[driver]
        if want is None:
            want = kept
        assert kept == want, leaf_size


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_traced_names_see_every_evaluated_quartet(monkeypatch, driver):
    # perfbench/run.py wraps these names on both driver modules; the engine
    # must call them through those module globals, each call exactly once
    # one process: a forked worker would call its own copy of the wrappers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(5, tau_ovlp=1e-11)
    tally = {"quartets": 0, "leaf_cache": 0}

    def counting(fn, key, size):
        def wrapper(*args, **kwargs):
            tally[key] += size(*args)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (exchange_naive, exchange_symmetry):
        monkeypatch.setattr(mod, "eri_cross", counting(
            mod.eri_cross, "quartets", lambda b, k: b.n_pairs * k.n_pairs))
        monkeypatch.setattr(mod, "eri_elementwise", counting(
            mod.eri_elementwise, "quartets", lambda b, k, ia, ib: len(ia)))
        monkeypatch.setattr(mod, "leaf_cache", counting(
            mod.leaf_cache, "leaf_cache", lambda node: 1))
    for _ in range(2):
        tally.update(quartets=0, leaf_cache=0)
        if driver == "naive":
            _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8)
            evaluated = c.eri_shell_quartets
        else:
            log = []
            _, c = build_exchange_symmetric(pairs, P_tree, 1e-8,
                                            quartet_log=log)
            evaluated = _swap_distinct(c, log)
        assert c.eri_shell_quartets > 0
        assert tally["quartets"] == evaluated
        # every build reads the tree's leaf tables through one leaf_cache
        # call per distinct root; only the first fills them
        assert tally["leaf_cache"] == 1


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_leaf_eris_are_batched_across_leaf_tasks(monkeypatch, driver):
    # the engine buffers leaf tasks' kept quartets and evaluates them with
    # one eri_elementwise call per _ERI_BATCH of them, not one per leaf task
    # one process: a forked worker would call its own copy of the counter
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    sizes = []

    def counting(bra, ket, ia, ib):
        sizes.append(len(ia))
        return eri_elementwise(bra, ket, ia, ib)

    for mod in (exchange_naive, exchange_symmetry):
        monkeypatch.setattr(mod, "eri_elementwise", counting)
    if driver == "naive":
        _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8)
        quartets = c.eri_shell_quartets
    else:
        log = []
        _, c = build_exchange_symmetric(pairs, P_tree, 1e-8, quartet_log=log)
        quartets = _swap_distinct(c, log)
    assert sum(sizes) == quartets
    assert len(sizes) <= -(-quartets // exchange_naive._ERI_BATCH) + 1
    assert 10 * len(sizes) < c.leaf_contractions


@pytest.mark.parametrize("leaf_size", [1, 3, 10, 40])
def test_each_swap_distinct_quartet_is_evaluated_once(monkeypatch, leaf_size):
    # the symmetry driver walks a task and its bra-ket mirror as one, so a
    # quartet it keeps in both orientations is evaluated once per build, as
    # its swap-distinct key, lower pair id first
    # one process: a forked worker would call its own copy of the recorder
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=leaf_size)
    evaluated = []

    def recording(bra, ket, ia, ib):
        evaluated.extend(zip(ia.tolist(), ib.tolist()))
        return eri_elementwise(bra, ket, ia, ib)

    monkeypatch.setattr(exchange_naive, "eri_elementwise", recording)
    log = []
    _, c = build_exchange_symmetric(pairs, P_tree, 1e-8, quartet_log=log)
    assert len(evaluated) == len(set(evaluated))
    assert len(evaluated) == _swap_distinct(c, log)
    assert all(a <= b for a, b in evaluated)
    i, j = pairs.pairs.i_shell.tolist(), pairs.pairs.j_shell.tolist()
    assert ({tuple(sorted(((i[a], j[a]), (i[b], j[b]))))
             for a, b in evaluated}
            == {tuple(sorted((q[:2], q[2:]))) for q in log})


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_leaf_prefilter_bounds_one_block_per_live_link(monkeypatch, driver):
    # a leaf task's prefilter bounds each live link's width x width density
    # block on its own: the naive driver's one link, at most four for the
    # symmetry driver, never a (2 width) x (2 width) density per task
    # one process: a forked worker would call its own copy of the recorder
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    w = max(s.n_functions for s in leaf_spans(pairs.row))
    shapes, bound = [], exchange_naive.screening_bound

    def recording(f_bra, p, f_ket):
        shapes.append(np.shape(p))
        return bound(f_bra, p, f_ket)

    monkeypatch.setattr(exchange_naive, "screening_bound", recording)
    if driver == "naive":
        _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8)
    else:
        _, c = build_exchange_symmetric(pairs, P_tree, 1e-8)
    entries = sum(n * w * w for n, *block in shapes if block == [w, w])
    assert c.leaf_contractions > 0
    if driver == "naive":
        assert entries == c.leaf_contractions * w * w
    else:
        assert c.leaf_contractions * w * w <= entries
        assert entries <= 4 * c.leaf_contractions * w * w


@pytest.mark.parametrize("driver,per_quartet",
                         [("naive", 8), ("symmetry", 32)])
def test_leaf_screening_tests_follow_the_kept_quartets(monkeypatch, driver,
                                                       per_quartet):
    # one leaf over all of water:10 at leaf 40: a surviving density entry
    # tests only its box of free bra and ket indices, not every one of the
    # leaf's 40 x 40, so the bounds evaluated follow the quartets kept
    # one process: a forked worker would call its own copy of the counter
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=40)
    evaluated, bound = [0], exchange_naive.screening_bound

    def counting(f_bra, p, f_ket):
        result = bound(f_bra, p, f_ket)
        evaluated[0] += np.size(result)
        return result

    monkeypatch.setattr(exchange_naive, "screening_bound", counting)
    _, c = _build(driver, pairs, P_tree, evaluate=False)
    assert c.eri_shell_quartets > 0
    assert evaluated[0] <= per_quartet * c.eri_shell_quartets


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_k_does_not_depend_on_the_eri_batch(monkeypatch, driver):
    # a batch of one leaf task is leaf-by-leaf evaluation; batching must
    # not change one ERI, one addition to K or the quartet log
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    runs = []
    for batch in (1, exchange_naive._ERI_BATCH):
        monkeypatch.setattr(exchange_naive, "_ERI_BATCH", batch)
        end_worker()  # a kept worker would walk at the batch of its fork
        log = []
        if driver == "naive":
            K, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8,
                                        quartet_log=log)
        else:
            K, c = build_exchange_symmetric(pairs, P_tree, 1e-8,
                                            quartet_log=log)
        runs.append((K.tobytes(), c, log))
    assert runs[0] == runs[1]


def _build(driver, pairs, P_tree, **kwargs):
    if driver == "naive":
        return build_exchange_naive(pairs, pairs, P_tree, 1e-8, **kwargs)
    return build_exchange_symmetric(pairs, P_tree, 1e-8, **kwargs)


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_one_leaf_screening_memory_is_bounded(driver):
    # one leaf task over the whole system expands each candidate density
    # entry over every free bra and ket index; screened in pieces, its
    # temporaries stay bounded at any leaf size
    _, pairs, P_tree, _ = build_setup(20, tau_ovlp=1e-11, leaf_size=80)
    assert pairs.is_leaf
    tracemalloc.start()
    try:
        _, c = _build(driver, pairs, P_tree, evaluate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.leaf_contractions > 0 and c.eri_shell_quartets > 0
    assert peak <= 64 * 2 ** 20


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_screening_pieces_keep_the_same_quartets(monkeypatch, driver):
    # a one-leaf task screened in one piece, then in one piece per density
    # entry, keeps the same quartets in the same order; only the
    # culled-bound ledger may be summed differently
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=40)
    runs = []
    for piece in (1 << 62, 64):
        monkeypatch.setattr(exchange_naive, "_SCREEN_CHUNK", piece)
        end_worker()  # a kept worker would screen at the piece of its fork
        log = []
        K, c = _build(driver, pairs, P_tree, quartet_log=log)
        runs.append((K.tobytes(), log, c.to_dict()))
    (k0, log0, c0), (k1, log1, c1) = runs
    assert k0 == k1 and log0 == log1
    assert c1.pop("culled_bound_ledger") == pytest.approx(
        c0.pop("culled_bound_ledger"), rel=1e-14)
    assert c0 == c1


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_walk_pieces_do_not_change_the_result(monkeypatch, driver):
    # one-task frontier pieces and one-quartet leaf groups against the
    # defaults: the same tasks, tallies and kept quartets; K and the ledger
    # move by reassociation only
    _, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    runs = []
    for piece, group in ((1, 1), (exchange_naive._WALK_PIECE,
                                  exchange_naive._LEAF_GROUP)):
        monkeypatch.setattr(exchange_naive, "_WALK_PIECE", piece)
        monkeypatch.setattr(exchange_naive, "_LEAF_GROUP", group)
        end_worker()  # a kept worker would walk at the sizes of its fork
        log = []
        K, c = _build(driver, pairs, P_tree, quartet_log=log)
        runs.append((K, set(log), c.to_dict()))
    (k0, log0, c0), (k1, log1, c1) = runs
    assert log0 == log1 and len(log0) == c0["eri_shell_quartets"]
    assert np.abs(k0 - k1).max() <= 1e-14 * max(1.0, float(np.abs(k0).max()))
    assert c1.pop("culled_bound_ledger") == pytest.approx(
        c0.pop("culled_bound_ledger"), rel=1e-13)
    assert c0 == c1


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_walk_memory_is_bounded(monkeypatch, driver):
    # the frontier moves in pieces and leaf tasks are screened in bounded
    # groups, the leaf tables exist once, on the pair tree's root, and the
    # walk reads the density tree's own arrays, so an evaluated water:70
    # build at leaf 10 stays small; one unpieced frontier peaks far higher
    # one CPU: tracemalloc does not see a forked worker's memory, so both
    # shares of the split that builds take are walked in this process, the
    # second with a K of its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, pairs, P_tree, _ = build_setup(70, tau_ovlp=1e-11, leaf_size=10)
    tracemalloc.start()
    try:
        _, c = _build(driver, pairs, P_tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.leaf_contractions > 0 and c.eri_shell_quartets > 0
    assert peak <= 6 * 2 ** 20


def test_driver_builds_leave_no_reference_cycles():
    # the one index object cached on a pair tree's root, its node arrays
    # and leaf tables, holds no node, so a tree and everything its builds
    # cached go as soon as the last name does
    system, pairs, P_tree, _ = build_setup(10, tau_ovlp=1e-11, leaf_size=3)
    gc.collect()
    gc.disable()
    try:
        tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
        build_exchange_naive(tree, tree, P_tree, 1e-8)
        build_exchange_symmetric(tree, P_tree, 1e-8)
        assert set(tree.cache) == {"full"}
        index = tree.cache["full"]
        assert index.child is not None and index.sq is not None
        del index
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("order", [("naive", "symmetry"),
                                   ("symmetry", "naive")],
                         ids=["naive-first", "symmetry-first"])
def test_leaf_cache_keeps_one_table_set_on_the_root(monkeypatch, order):
    # perfbench/run.py counts leaf-table fills by reading root.cache for the
    # "full" key. Both drivers on one tree, in either order, give their
    # fresh-tree K and counters bit for bit, the first fills the one index
    # object once on the root and no other node, and every build reads back
    # the same object
    system, pairs, P_tree, _ = build_setup(5, tau_ovlp=1e-11, leaf_size=3)
    fresh = {}
    for driver in order:
        tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
        K, c = _build(driver, tree, P_tree)
        fresh[driver] = (K.tobytes(), c.to_dict())
    returned = []

    def recording(root):
        returned.append(leaf_cache(root))
        return returned[-1]

    monkeypatch.setattr(exchange_naive, "leaf_cache", recording)
    for _ in range(2):
        for driver in order:
            K, c = _build(driver, pairs, P_tree)
            assert (K.tobytes(), c.to_dict()) == fresh[driver]
    assert set(pairs.cache) == {"full"}
    assert [id(t) for t in returned] == [id(pairs.cache["full"])] * 4
    assert all(node.cache is None for node in flatten(pairs)[0][1:])


@pytest.mark.parametrize("order", [("naive", "symmetry"),
                                   ("symmetry", "naive")],
                         ids=["naive-first", "symmetry-first"])
def test_a_fresh_pair_tree_is_indexed_once(monkeypatch, order):
    # a pair tree's first build makes its one index object, node arrays and
    # leaf tables alike, from the tree's node arrays; later builds, by
    # either driver, read that object back. No build flattens anything:
    # neither tree gets a child view, and every walk's density is the
    # density tree's own node arrays
    system, pairs, P_tree, _ = build_setup(5, tau_ovlp=1e-11, leaf_size=3)
    tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
    indexed, densities = [], []

    def indexing(root):
        indexed.append(root)
        return index_type(root)

    def traversal(self, index, job):
        densities.append(job.P)
        init(self, index, job)

    index_type = exchange_naive._PairIndex
    init = exchange_naive.Traversal.__init__
    monkeypatch.setattr(exchange_naive, "_PairIndex", indexing)
    monkeypatch.setattr(exchange_naive.Traversal, "__init__", traversal)
    for driver, n in zip(order + order, (1, 0, 0, 0)):
        indexed.clear()
        densities.clear()
        _build(driver, tree, P_tree)
        assert len(indexed) == n and all(root is tree for root in indexed)
        assert densities and all(P is P_tree._arrays for P in densities)
    assert tree._children is None and P_tree._children is None


@st.composite
def _problems(draw):
    """A small cluster, a leaf size and a random symmetric density in which
    some leaf blocks are exactly zero (absent links, SPARSE tasks)."""
    n_mol = draw(st.integers(1, 3))
    system = generate_cluster(n_mol, seed=draw(st.integers(0, 2**16)))
    part = build_partition(system, leaf_size=draw(st.sampled_from([3, 4, 5])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = system.n_functions
    P = rng.normal(size=(n, n))
    P = P + P.T
    leaves = leaf_spans(part)
    drop = rng.random((len(leaves), len(leaves))) < draw(
        st.sampled_from([0.0, 0.3, 0.6]))
    for i, a in enumerate(leaves):
        for j, b in enumerate(leaves[:i + 1]):
            if drop[i, j]:
                P[a.shell_lo:a.shell_hi, b.shell_lo:b.shell_hi] = 0.0
                P[b.shell_lo:b.shell_hi, a.shell_lo:a.shell_hi] = 0.0
    pairs = build_pair_tree(system, part, tau_ovlp=0.0)
    return system, pairs, build_matrix_tree(P, part), P


@settings(max_examples=40, deadline=None)
@given(problem=_problems(), tau=st.sampled_from([1e-6, 1e-3, 1e-1]))
def test_drivers_agree_with_dense_and_ledger(problem, tau):
    system, pairs, P_tree, P = problem
    K_dense = dense_exchange(system, P)
    scale = max(1.0, float(np.abs(K_dense).max()))
    exact_n, _ = build_exchange_naive(pairs, pairs, P_tree, 0.0)
    exact_s, _ = build_exchange_symmetric(pairs, P_tree, 0.0)
    assert np.abs(exact_n - K_dense).max() <= 1e-11 * scale
    assert np.abs(exact_s - K_dense).max() <= 1e-11 * scale
    K_n, c_n = build_exchange_naive(pairs, pairs, P_tree, tau)
    K_s, c_s = build_exchange_symmetric(pairs, P_tree, tau)
    assert np.abs(K_n - K_s).max() <= 1e-11 * scale
    # each symmetry link-quartet at a leaf is exactly one naive quartet
    assert c_s.quartets_culled_leaf == c_n.quartets_culled_leaf
    # screening error is bounded by the ledger, up to reassociation rounding
    for K, c in ((K_n, c_n), (K_s, c_s)):
        err = float(np.abs(K - K_dense).max())
        assert err <= c.culled_bound_ledger + 1e-12 * scale
