"""Shared builders for the test suite.

``cluster_setup`` caches fully built inputs (system, pair tree, density and
its quadtree) keyed by construction parameters so the acceptance tests can
share expensive systems.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hexfock import (DensityModel, build_density, exchange_naive,
                     generate_cluster, hilbert_order)
from hexfock.quadtree import build_matrix_tree, build_pair_tree, build_partition

DEFAULT_SEED = 3


def end_worker():
    """End the engine's kept worker, if there is one."""
    exchange_naive._end_kept()


@pytest.fixture(autouse=True)
def _no_worker_outlives_a_test():
    # a kept worker is a snapshot of this process at its fork: left running,
    # one test's monkeypatched kernel or constant could walk in another
    # test's build
    yield
    end_worker()


def build_setup(n_molecules, seed=DEFAULT_SEED, tau_ovlp=0.0, gamma=None,
                leaf_size=10, order=True, density=None):
    """(system, pair tree, P quadtree, P dense) for a synthetic cluster."""
    system = generate_cluster(n_molecules, seed=seed)
    if order:
        system, _ = hilbert_order(system)
    root = build_partition(system, leaf_size=leaf_size)
    pairs = build_pair_tree(system, root, tau_ovlp=tau_ovlp)
    if density is None:
        model = DensityModel() if gamma is None else DensityModel(gamma=gamma)
        P = build_density(system, model)
    else:
        P = np.asarray(density, dtype=float)
    P_tree = build_matrix_tree(P, root)
    return system, pairs, P_tree, P


def write_density_file(path, p):
    """Write ``p`` as a density file: N, then the N*N values row-major,
    each as its repr, which reads back to the same float."""
    p = np.asarray(p, dtype=float)
    path.write_text(f"{len(p)}\n" + " ".join(map(repr, p.ravel().tolist()))
                    + "\n")


def flatten(root):
    """The nodes under ``root`` (a MatrixQuadtree or a ShellPairNode view),
    parents first, and each one's child ids: row x holds at 2 * a + b the
    id of child (a, b), -1 where there is none, and a leaf stands in for
    itself at 0. This is the layout of both trees' node arrays."""
    nodes = [root]
    for node in nodes:
        nodes.extend(node.children.values())
    index = {id(node): i for i, node in enumerate(nodes)}
    child = np.full((len(nodes), 4), -1, dtype=np.intp)
    for i, node in enumerate(nodes):
        child[i, 0] = i if node.is_leaf else -1
        for (a, b), ch in node.children.items():
            child[i, 2 * a + b] = index[id(ch)]
    return nodes, child


def leaf_spans(span):
    """Leaf spans under ``span``, left to right."""
    if span.is_leaf:
        return [span]
    return leaf_spans(span.left) + leaf_spans(span.right)


def quadrature_eri(sa, sb, sc, sd) -> float:
    """Independent (ss|ss) ERI reference via 1-D adaptive quadrature.

    Uses only the Gaussian product theorem and the integral identity
    1/r = (2/sqrt(pi)) * int_0^inf exp(-r^2 t^2) dt; every primitive-quartet
    term is an explicit t-integral evaluated by scipy.integrate.quad, so the
    reference shares no Boys-function or erf code with the implementation.
    """
    total = 0.0
    for al, wa in zip(sa.exponents, sa.weights):
        for be, wb in zip(sb.exponents, sb.weights):
            p = al + be
            rp = (al * sa.center + be * sb.center) / p
            r2ab = float(np.dot(sa.center - sb.center, sa.center - sb.center))
            kab = wa * wb * math.exp(-al * be / p * r2ab)
            for ga, wc in zip(sc.exponents, sc.weights):
                for de, wd in zip(sd.exponents, sd.weights):
                    q = ga + de
                    rq = (ga * sc.center + de * sd.center) / q
                    r2cd = float(np.dot(sc.center - sd.center,
                                        sc.center - sd.center))
                    kcd = wc * wd * math.exp(-ga * de / q * r2cd)
                    d2 = float(np.dot(rp - rq, rp - rq))

                    def integrand(t, p=p, q=q, d2=d2):
                        den = p * q + t * t * (p + q)
                        return math.pi ** 3 / den ** 1.5 \
                            * math.exp(-d2 * p * q * t * t / den)

                    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13,
                                  epsrel=1e-13)
                    total += kab * kcd * 2.0 / math.sqrt(math.pi) * val
    return total


@pytest.fixture(scope="session")
def cluster_setup():
    cache = {}

    def get(n_molecules, **kwargs):
        key = (n_molecules, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = build_setup(n_molecules, **kwargs)
        return cache[key]

    return get
