import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from hexfock.basis import BasisSystem, GaussianShell
from hexfock.integrals import (TWO_PI_POW_2_5, InvalidArgumentError,
                               _F0_TINY, boys_f0, build_pair_data,
                               diagonal_values, eri_cross, eri_elementwise,
                               eri_quartet, overlap)
from hexfock.quadtree import build_pair_tree, build_partition

from conftest import quadrature_eri


def _shell(center, prims):
    return GaussianShell(center=np.asarray(center, dtype=float),
                         primitives=list(prims))


def _random_shell(rng, spread=3.0):
    nprim = int(rng.integers(1, 4))
    return _shell(rng.normal(scale=spread, size=3),
                  zip(rng.uniform(0.1, 20.0, nprim),
                      rng.uniform(0.2, 1.0, nprim)))


# ---------------------------------------------------------------- boys_f0

def test_boys_f0_pinned_values():
    assert boys_f0(0.0) == pytest.approx(1.0, abs=1e-14)
    assert boys_f0(1.0) == pytest.approx(0.7468241328, abs=1e-10)
    t = 100.0
    assert boys_f0(t) == pytest.approx(0.5 * math.sqrt(math.pi / t),
                                       rel=1e-12)


def test_boys_f0_matches_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    # the dense grid below t = 14 is where rounding errors of a summed
    # series would build up (a 70-term series reached 1.5e-15 near t = 11)
    t = np.concatenate([np.logspace(-14.0, 8.0, 1500),
                        np.linspace(1e-6, 14.0, 4000)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.sqrt(mpmath.pi / x)
                              * mpmath.erf(mpmath.sqrt(x)) / 2)
                        for x in map(mpmath.mpf, t)])
    assert np.max(np.abs(boys_f0(t) - ref) / ref) <= 1e-15


def test_boys_f0_at_zero_is_exact_and_quiet():
    assert boys_f0(0.0) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = boys_f0(np.array([0.0, 1e-300, 0.5, 0.0]))
    assert out[[0, 1, 3]].tolist() == [1.0, 1.0, 1.0]


def test_boys_f0_continuous_across_small_t_guard():
    below = np.nextafter(_F0_TINY, 0.0)
    lo, hi = boys_f0(np.array([below, _F0_TINY]))
    assert lo >= hi  # F0 decreases
    assert (lo - hi) / hi <= 1e-15


def test_boys_f0_matches_erf_closed_form_on_grid():
    t = np.linspace(1e-6, 40.0, 1000)
    ref = 0.5 * np.sqrt(np.pi / t) * erf(np.sqrt(t))
    got = boys_f0(t)
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_boys_f0_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        boys_f0(-1e-9)
    with pytest.raises(InvalidArgumentError):
        boys_f0(np.array([0.5, -0.5]))


def test_boys_f0_rejects_nan():
    # NaN fails t < 0 as it fails every comparison; it must not pass through
    # as a NaN value
    with pytest.raises(InvalidArgumentError):
        boys_f0(math.nan)
    with pytest.raises(InvalidArgumentError):
        boys_f0(np.array([0.5, math.nan, 2.0]))


def test_boys_f0_array_shape_and_scalar_type():
    out = boys_f0(np.array([0.0, 1.0, 50.0]))
    assert out.shape == (3,)
    assert isinstance(boys_f0(2.5), float)


# ---------------------------------------------------------------- overlap

def test_overlap_self_is_one():
    sh = _shell([0.3, -0.1, 2.0], [(130.7093, 0.154), (23.8089, 0.535),
                                   (6.4436, 0.445)])
    assert overlap(sh, sh) == pytest.approx(1.0, abs=1e-12)


def test_overlap_analytic_single_primitive():
    # normalized primitive pair: S = (2 sqrt(ab)/(a+b))^{3/2} exp(-abR^2/(a+b))
    a = _shell([0.0, 0.0, 0.0], [(0.5, 1.0)])
    b = _shell([1.0, 0.0, 0.0], [(0.5, 1.0)])
    assert overlap(a, b) == pytest.approx(0.7788007831, abs=1e-10)
    c = _shell([0.0, 0.0, 0.0], [(1.0, 1.0)])
    d = _shell([1.0, 0.0, 0.0], [(1.0, 1.0)])
    assert overlap(c, d) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_overlap_symmetric_and_decaying():
    a = _shell([0.0, 0.0, 0.0], [(1.24, 1.0)])
    b = _shell([50.0, 0.0, 0.0], [(0.27, 1.0)])
    assert overlap(a, b) == overlap(b, a)
    assert overlap(a, b) < 1e-30


# ---------------------------------------------------------------- pair table

def _pair_data_loop(shells, pair_list):
    """Reference pair table: one iteration per shell pair."""
    i_sh, j_sh = [], []
    offsets = [0]
    ps, cs, ws = [], [], []
    for i, j in pair_list:
        a, b = shells[i], shells[j]
        ea, eb = a.exponents[:, None], b.exponents[None, :]
        p = (ea + eb).ravel()
        ab = (ea * eb).ravel()
        r2 = float(np.dot(a.center - b.center, a.center - b.center))
        w = (a.weights[:, None] * b.weights[None, :]).ravel() * np.exp(-ab / p * r2)
        ctr = (0.5 * (a.center + b.center)
               + (0.5 * (eb - ea) / (ea + eb))[..., None]
               * (b.center - a.center)).reshape(-1, 3)
        i_sh.append(i)
        j_sh.append(j)
        offsets.append(offsets[-1] + len(p))
        ps.append(p)
        cs.append(ctr)
        ws.append(w)
    return (np.asarray(i_sh, dtype=np.intp), np.asarray(j_sh, dtype=np.intp),
            np.asarray(offsets, dtype=np.intp), np.concatenate(ps),
            np.concatenate(cs), np.concatenate(ws))


def test_build_pair_data_matches_per_pair_loop_bitwise():
    rng = np.random.default_rng(31)
    # 1- and 3-primitive shells, as in the built-in water basis
    shells = [_shell(rng.normal(scale=3.0, size=3),
                     zip(rng.uniform(0.1, 150.0, n), rng.uniform(0.2, 1.0, n)))
              for n in (1, 3, 1, 1, 3, 3, 1)]
    pair_list = [(i, j) for i in range(7) for j in range(7)]
    pair_list += [(int(rng.integers(7)), int(rng.integers(7)))
                  for _ in range(60)]
    pd = build_pair_data(shells, pair_list)
    ref = _pair_data_loop(shells, pair_list)
    got = (pd.i_shell, pd.j_shell, pd.offsets, pd.p, pd.center, pd.weight)
    for name, g, r in zip(("i_shell", "j_shell", "offsets", "p", "center",
                           "weight"), got, ref):
        assert g.shape == r.shape and g.dtype == r.dtype, name
        assert g.tobytes() == r.tobytes(), name
    # the same table from an (n, 2) index array
    arr = build_pair_data(shells, np.asarray(pair_list))
    assert arr.weight.tobytes() == pd.weight.tobytes()


def test_build_pair_data_empty_list():
    pd = build_pair_data([_shell([0.0, 0.0, 0.0], [(1.0, 1.0)])], [])
    assert pd.n_pairs == 0
    assert pd.offsets.tolist() == [0]
    assert pd.p.shape == (0,) and pd.weight.shape == (0,)
    assert pd.center.shape == (0, 3)


# ---------------------------------------------------------------- ERIs

def test_eri_quartet_bra_ket_swap_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sa, sb, sc, sd = (_random_shell(rng) for _ in range(4))
        v1 = eri_quartet(sa, sb, sc, sd).values[0, 0, 0, 0]
        v2 = eri_quartet(sc, sd, sa, sb).values[0, 0, 0, 0]
        assert abs(v1 - v2) <= 1e-13 * max(1.0, abs(v1))


def test_eri_quartet_within_pair_swap_symmetry():
    rng = np.random.default_rng(8)
    sa, sb, sc, sd = (_random_shell(rng) for _ in range(4))
    v = eri_quartet(sa, sb, sc, sd).values[0, 0, 0, 0]
    for perm in ((sb, sa, sc, sd), (sa, sb, sd, sc), (sb, sa, sd, sc)):
        w = eri_quartet(*perm).values[0, 0, 0, 0]
        assert abs(v - w) <= 1e-13 * max(1.0, abs(v))


def test_eri_far_separated_bra_pair_vanishes():
    a = _shell([0.0, 0.0, 0.0], [(0.27, 1.0)])
    b = _shell([50.0, 0.0, 0.0], [(0.27, 1.0)])
    c = _shell([0.0, 1.0, 0.0], [(1.24, 1.0)])
    v = eri_quartet(a, b, c, c).values[0, 0, 0, 0]
    assert abs(v) < 1e-20


def test_eri_quartet_matches_quadrature_oracle():
    rng = np.random.default_rng(12345)
    for _ in range(6):
        sa, sb, sc, sd = (_random_shell(rng) for _ in range(4))
        got = eri_quartet(sa, sb, sc, sd).values[0, 0, 0, 0]
        ref = quadrature_eri(sa, sb, sc, sd)
        assert abs(got - ref) <= 1e-8


def test_eri_same_center_unit_exponent_quartet():
    sh = _shell([0.0, 0.0, 0.0], [(1.0, 1.0)])
    got = eri_quartet(sh, sh, sh, sh).values[0, 0, 0, 0]
    ref = quadrature_eri(sh, sh, sh, sh)
    assert got == pytest.approx(ref, abs=1e-10)


def test_eri_cross_elementwise_quartet_consistency():
    rng = np.random.default_rng(99)
    shells = [_random_shell(rng) for _ in range(4)]
    pair_list = [(i, j) for i in range(4) for j in range(4)]
    pd = build_pair_data(shells, pair_list)
    full = eri_cross(pd, pd)
    ia = np.arange(pd.n_pairs).repeat(pd.n_pairs)
    ib = np.tile(np.arange(pd.n_pairs), pd.n_pairs)
    ew = eri_elementwise(pd, pd, ia, ib).reshape(pd.n_pairs, pd.n_pairs)
    assert np.allclose(full, ew, rtol=0, atol=1e-14)
    # spot-check one entry against the single-quartet path
    i, j, k, l = 1, 2, 3, 0
    a, b = i * 4 + j, k * 4 + l
    v = eri_quartet(shells[i], shells[j], shells[k], shells[l]).values[0, 0, 0, 0]
    assert full[a, b] == pytest.approx(v, rel=1e-13)


def _one_and_three_primitive_table():
    """Pair table over 1- and 3-primitive shells: pairs of 1, 3 and 9
    primitives, so quartets of 1, 3, 9, 27 and 81."""
    rng = np.random.default_rng(17)
    shells = [_shell(rng.normal(scale=2.0, size=3),
                     zip(rng.uniform(0.1, 20.0, n), rng.uniform(0.2, 1.0, n)))
              for n in (1, 3, 3, 1)]
    pairs = [(i, j) for i in range(4) for j in range(4)]
    return build_pair_data(shells, pairs)


def _eri_one(pd, a, b):
    """Reference (a|b): one quartet's (na, nb) primitive grid, in the
    kernel's order of operations."""
    ga = slice(pd.offsets[a], pd.offsets[a + 1])
    gb = slice(pd.offsets[b], pd.offsets[b + 1])
    p1, p2 = pd.p[ga][:, None], pd.p[gb][None, :]
    pq, psum = p1 * p2, p1 + p2
    d = pd.center[ga][:, None, :] - pd.center[gb][None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    vals = TWO_PI_POW_2_5 / (pq * np.sqrt(psum)) * boys_f0(pq / psum * r2)
    vals *= pd.weight[ga][:, None] * pd.weight[gb][None, :]
    return vals.sum()


def test_eri_elementwise_rounds_each_quartet_as_alone():
    # node.diag, the golden counters and the oracle's tie cases rest on each
    # value being rounded the same whatever else its call holds
    pd = _one_and_three_primitive_table()
    n_prim = np.diff(pd.offsets)
    ia = np.arange(pd.n_pairs).repeat(pd.n_pairs)
    ib = np.tile(np.arange(pd.n_pairs), pd.n_pairs)
    na, nb = n_prim[ia], n_prim[ib]
    assert set((na * nb).tolist()) == {1, 3, 9, 27, 81}
    assert np.any((na == 1) & (nb == 3)) and np.any((na == 3) & (nb == 1))
    alone = np.array([eri_elementwise(pd, pd, ia[[q]], ib[[q]])[0]
                      for q in range(len(ia))])
    whole = eri_elementwise(pd, pd, ia, ib)
    assert whole.tobytes() == alone.tobytes()
    ref = np.array([_eri_one(pd, a, b) for a, b in zip(ia, ib)])
    assert whole.tobytes() == ref.tobytes()
    perm = np.random.default_rng(3).permutation(len(ia))
    cuts = np.cumsum([1, 7, 33, 5, 91])
    split = np.concatenate([eri_elementwise(pd, pd, ia[part], ib[part])
                            for part in np.split(perm, cuts)])
    assert split.tobytes() == alone[perm].tobytes()
    assert eri_elementwise(pd, pd, ia[:0], ib[:0]).shape == (0,)


def test_eri_elementwise_count_past_uint16_rounds_as_alone():
    # the quartets' primitive counts are sorted as keys of the smallest
    # unsigned type that holds the largest; a quartet of two 16 x
    # 16-primitive pairs has 65,536 primitive quartets, one past uint16, so
    # this call sorts uint32 counts, and every value must still be rounded
    # as one quartet alone
    rng = np.random.default_rng(29)
    shells = [_shell(rng.normal(scale=2.0, size=3),
                     zip(rng.uniform(0.1, 20.0, n), rng.uniform(0.2, 1.0, n)))
              for n in (16, 16, 1, 3)]
    # pairs of 256, 1, 9 and 3 primitives
    pd = build_pair_data(shells, [(0, 1), (2, 2), (3, 3), (2, 3)])
    ia = np.array([1, 2, 0, 3, 1, 1, 0, 2])
    ib = np.array([1, 1, 0, 3, 2, 1, 0, 2])
    n_prim = np.diff(pd.offsets)
    assert (n_prim[ia] * n_prim[ib]).tolist() == [1, 9, 65536, 9, 9, 1,
                                                  65536, 81]
    alone = np.array([eri_elementwise(pd, pd, ia[[q]], ib[[q]])[0]
                      for q in range(len(ia))])
    whole = eri_elementwise(pd, pd, ia, ib)
    assert whole.tobytes() == alone.tobytes()
    ref = np.array([_eri_one(pd, a, b) for a, b in zip(ia, ib)])
    assert whole.tobytes() == ref.tobytes()


def test_eri_elementwise_worst_case_memory_is_bounded():
    # one call of 4,096 quartets of 9 x 9 primitives each (331,776 primitive
    # quartets) runs in bounded passes; one broadcast pass over all of them
    # peaks near 27 MiB
    pd = _one_and_three_primitive_table()
    nine = np.flatnonzero(np.diff(pd.offsets) == 9)
    rng = np.random.default_rng(8)
    ia, ib = rng.choice(nine, 4096), rng.choice(nine, 4096)
    tracemalloc.start()
    try:
        vals = eri_elementwise(pd, pd, ia, ib)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(vals > 0.0)
    assert peak <= 8 * 2 ** 20


def test_eri_elementwise_far_apart_is_zero_and_quiet():
    # |P - Q|^2 overflows to inf: F0 and the value are exactly 0, with no
    # RuntimeWarning on the way
    a = _shell([0.0, 0.0, 0.0], [(1.0, 1.0)])
    b = _shell([1e200, 0.0, 0.0], [(1.0, 1.0)])
    pd = build_pair_data([a, b], [(0, 0), (1, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = eri_elementwise(pd, pd, [0, 1], [1, 0])
    assert got.tolist() == [0.0, 0.0]


# ------------------------------------------------- diagonal norms / Schwarz

def _pair_tree(shells, leaf_size):
    system = BasisSystem(shells=shells, atoms=[])
    return build_pair_tree(system, build_partition(system, leaf_size))


def test_pair_diagonal_norm_single_pair():
    sh = _shell([0.0, 0.0, 0.0], [(1.0, 1.0)])
    v = eri_quartet(sh, sh, sh, sh).values[0, 0, 0, 0]
    assert _pair_tree([sh], 1).diag_norm == pytest.approx(v, rel=1e-13)


def test_pair_diagonal_norm_far_pair_tiny():
    a = _shell([0.0, 0.0, 0.0], [(0.27, 1.0)])
    b = _shell([50.0, 0.0, 0.0], [(0.27, 1.0)])
    assert _pair_tree([a, b], 1).children[(0, 1)].diag_norm <= 1e-20


def test_pair_diagonal_norm_matches_brute_force():
    # the leaf norm over all nine pairs, each (ij|ij) in (min, max) orientation
    rng = np.random.default_rng(4)
    shells = [_random_shell(rng) for _ in range(3)]
    vals = [eri_quartet(shells[min(i, j)], shells[max(i, j)],
                        shells[min(i, j)], shells[max(i, j)]).values[0, 0, 0, 0]
            for i in range(3) for j in range(3)]
    ref = math.sqrt(math.fsum(v * v for v in vals))
    assert _pair_tree(shells, 3).diag_norm == pytest.approx(ref, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_cauchy_schwarz_bound_holds(seed):
    rng = np.random.default_rng(seed)
    sa, sb, sc, sd = (_random_shell(rng) for _ in range(4))
    v = eri_quartet(sa, sb, sc, sd).values[0, 0, 0, 0]
    qb = eri_quartet(sa, sb, sa, sb).values[0, 0, 0, 0]
    qk = eri_quartet(sc, sd, sc, sd).values[0, 0, 0, 0]
    # below ~1e-280 the diagonal integrals underflow double precision while
    # the cross term may not have yet; the bound is untestable in floats there
    assume(qb > 1e-280 and qk > 1e-280)
    assert abs(v) <= math.sqrt(qb) * math.sqrt(qk) * (1.0 + 1e-12)


def test_diagonal_values_match_cross_diagonal():
    rng = np.random.default_rng(21)
    shells = [_random_shell(rng) for _ in range(3)]
    pair_list = [(i, j) for i in range(3) for j in range(3)]
    pd = build_pair_data(shells, pair_list)
    d = diagonal_values(pd)
    full = eri_cross(pd, pd)
    assert np.allclose(d, np.diag(full), rtol=1e-13, atol=0)
