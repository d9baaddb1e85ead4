"""Contract tests of the traversal engine both exchange drivers share."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexfock import (build_exchange_naive, build_exchange_symmetric,
                     dense_exchange, exchange_naive, exchange_symmetry,
                     generate_cluster)
from hexfock.quadtree import build_matrix_tree, build_pair_tree, build_partition

from conftest import build_setup

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_counters.json").read_text())


def _count_only(n, driver, leaf_size, mode):
    _, pairs, P_tree, _ = build_setup(n, tau_ovlp=1e-11, leaf_size=leaf_size)
    if driver == "naive":
        _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8, mode=mode,
                                    evaluate=False)
    else:
        _, c = build_exchange_symmetric(pairs, P_tree, 1e-8, mode=mode,
                                        evaluate=False)
    return c.to_dict()


# golden-row suffix -> (leaf size, screening bound)
_VARIANTS = {"": (10, "schwarz"), "leaf40": (40, "schwarz"),
             "literal": (10, "literal")}


@pytest.mark.parametrize("case", ["10", "30", "10-leaf40", "30-leaf40",
                                  "10-literal", "30-literal"])
@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_counters_match_golden(case, driver):
    # golden values: count-only builds at (tau_2e, tau_ovlp) = (1e-8, 1e-11);
    # the leaf-10 schwarz rows were recorded before the two drivers shared
    # one engine, the leaf-40 and literal rows before leaves were contracted
    # as (mu nu|lam sig) blocks
    n, _, variant = case.partition("-")
    got = _count_only(int(n), driver, *_VARIANTS[variant])
    want = dict(GOLDEN[f"water:{n}/{variant}" if variant else f"water:{n}"][driver])
    assert got.keys() == want.keys()
    ledger = got.pop("culled_bound_ledger")
    assert ledger == pytest.approx(want.pop("culled_bound_ledger"), rel=1e-12)
    assert got == want


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_traced_names_see_every_evaluated_quartet(monkeypatch, driver):
    # perfbench/run.py wraps these names on both driver modules; the engine
    # must call them through those module globals, each call exactly once
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
    if driver == "naive":
        _, c = build_exchange_naive(pairs, pairs, P_tree, 1e-8)
    else:
        _, c = build_exchange_symmetric(pairs, P_tree, 1e-8)
    assert c.eri_shell_quartets > 0
    assert tally["quartets"] == c.eri_shell_quartets
    assert tally["leaf_cache"] == 2 * c.leaf_contractions


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
    leaves = part.leaves
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
    # screening error is bounded by the ledger, up to reassociation rounding
    for K, c in ((K_n, c_n), (K_s, c_s)):
        err = float(np.abs(K - K_dense).max())
        assert err <= c.culled_bound_ledger + 1e-12 * scale
