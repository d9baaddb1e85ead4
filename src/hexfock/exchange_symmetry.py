"""Exchange build exploiting the permutational redundancy of (mu nu|lam sig):
4-fold inside the bra and ket pairs, and the bra-ket swap.

The naive driver walks every ordered shell pair on both the bra and ket
side, so each distinct ERI value is evaluated up to eight times: once per
internal orientation of the bra pair and of the ket pair, and again with
bra and ket swapped. This driver restricts both sides to canonical
(upper-triangular) pairs, walks each task (B, K) and its bra-ket mirror
(K, B) as one, and evaluates each swap-distinct quartet once per build, as
(lower pair id | higher pair id). Each orientation scatters the value into
up to four K sub-blocks, so one evaluation reaches up to eight through the
task's links:

    slot 1: K[mu,sig] += c * P[nu,lam] * (mu nu|lam sig)    weight 1
    slot 2: K[nu,sig] += c * P[mu,lam] * (mu nu|lam sig)    weight [mu != nu]
    slot 3: K[mu,lam] += c * P[nu,sig] * (mu nu|lam sig)    weight [lam != sig]
    slot 4: K[nu,lam] += c * P[mu,sig] * (mu nu|lam sig)    weight [mu!=nu][lam!=sig]

with c = -1/2; P is gathered from the full symmetric density tree, so no
above-diagonal doubling factors arise. The indicator weights come from how
a diagonal leaf is read: there slots 2 and 4 (slots 3 and 4 for a diagonal
ket leaf) die, and the surviving slots run over the leaf's full pair grid,
a pair below the diagonal taking its canonical mirror's quartet with that
side transposed. A pair mu == nu thus enters once and any other pair of the
leaf in both orientations. Both orientations of a block task are walked,
by the mirror's own four links, which keeps K symmetric by construction
(enforced at the end by symmetrize_final); each is screened on its own,
and each counter tallies it on its own, so the counters are those of two
separate tasks. K is symmetric only for a symmetric P, and
symmetrize_final folds its two triangles into one, so a P that is not
symmetric by symmetrize_final's rule is rejected before the walk
(exchange_naive._check_symmetric).

The traversal is the engine of exchange_naive run with these four slots
over canonical pairs, and four more for each task's mirror (the naive
driver runs it with slot 1 alone over all ordered pairs). Each slot of
each orientation carries its own density-node link down the walk
and is screened with exchange_naive.screening_bound, as the naive driver
screens the corresponding permuted task chain: the bound commutes bra and
ket and transposed pair blocks cache bit-identical norms, so the surviving
contributions -- and hence K, up to reassociation rounding -- match the
naive driver at every threshold, ties included. An orientation dies only
when all four of its slots are dead, which is the same decision as
screening on the maximum participating density sub-block norm; a task
dies when both of its orientations have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# eri_cross, eri_elementwise and leaf_cache are not used here (the engine in
# exchange_naive calls its own leaf_cache, for the tree's one index object,
# and eri_elementwise, and never eri_cross); they stay bound in this module
# only because perfbench/run.py's tracer wraps them on both driver modules.
from .exchange_naive import (_SYMMETRY_TOL, LogicError, Traversal,
                             TraversalCounters, eri_cross, eri_elementwise,
                             leaf_cache)
from .quadtree import MatrixQuadtree, ShellPairNode

CASE_LABELS = ("A", "B", "C", "D", "E", "F1", "F2", "H", "SPARSE")

# (transpose_bra, transpose_ket) of slots 1-4 in the module docstring
_SLOT_TRANSPOSES = ((False, False), (True, False), (False, True), (True, True))


@dataclass
class SymmetryCounters(TraversalCounters):
    links_culled_screening: int = 0
    links_culled_absent: int = 0
    case_tasks: dict = field(default_factory=lambda: {c: 0 for c in CASE_LABELS})
    case_leaf_tasks: dict = field(default_factory=lambda: {c: 0 for c in CASE_LABELS})

    def case_breakdown_csv(self, leaf_only: bool = False) -> str:
        """Per-case occurrence table as ``case,count,percent`` rows."""
        counts = self.case_leaf_tasks if leaf_only else self.case_tasks
        total = sum(counts.values())
        lines = ["case,count,percent"]
        for label in CASE_LABELS:
            pct = 100.0 * counts[label] / total if total else 0.0
            lines.append(f"{label},{counts[label]},{pct:.4f}")
        return "\n".join(lines) + "\n"


def _case_index(mu, nu, lam, sig, same, present):
    """The case, as an index into CASE_LABELS, of each canonical task of a
    piece, from the first shells mu, nu, lam, sig of its four spans (which
    tell apart the spans of one tree level), whether bra and ket are one
    node and whether every density link is present. Raises LogicError when
    a bra or ket is out of canonical order (mu > nu or lam > sig), which
    only a traversal bug can cause. The cases, the first that applies:

    SPARSE: a link is absent (the task proceeds with the others).
    E: bra and ket are one node (diagonal or not).
    H: both pair nodes diagonal.
    B: exactly one pair node is diagonal; the indicator weights halve the
       complement.
    A: every sink block is already in canonical orientation, the generic
       4-fold update: separated spans (mu <= nu <= lam <= sig, or the
       bra/ket-swapped mirror), touching ones (nu = lam, or mu = sig)
       included, as P is gathered from the full symmetric density tree.
    F1: mu = lam coincidence (shared row span).
    F2: nu = sig coincidence (shared column span).
    C: nested spans (one pair's interval strictly inside the other's).
    D: interleaved spans (the two intervals overlap without nesting)."""
    if np.any((mu > nu) | (lam > sig)):
        raise LogicError("non-canonical task: pair spans out of order")
    bra_diag, ket_diag = mu == nu, lam == sig
    return np.select(
        [~present, same, bra_diag & ket_diag, bra_diag | ket_diag,
         (nu == lam) | (mu == sig), mu == lam, nu == sig,
         # four distinct spans: separated / nested / interleaved
         (nu < lam) | (sig < mu), (lam < mu) != (sig < nu)],
        [CASE_LABELS.index(c)
         for c in ("SPARSE", "E", "H", "B", "A", "F1", "F2", "A", "C")],
        default=CASE_LABELS.index("D"))


def symmetrize_final(K_raw: np.ndarray) -> np.ndarray:
    """Fold accumulated updates into an exactly symmetric K.

    The scattered updates populate both triangles independently, so any
    asymmetry beyond rounding means a missing or double-counted symmetry
    update; that is a driver bug, not an input problem, and raises
    LogicError. Rounding grows with the entries, so the limit is
    _SYMMETRY_TOL * max(1, max|K_raw|); an overflowed K_raw passes.
    """
    K_raw = np.asarray(K_raw, dtype=float)
    if not K_raw.size:
        return K_raw
    limit = _SYMMETRY_TOL * max(1.0, float(np.abs(K_raw).max()))
    with np.errstate(invalid="ignore"):  # an overflowed K: inf - inf is nan
        asym = float(np.abs(K_raw - K_raw.T).max())
    if asym > limit:
        raise LogicError(f"asymmetry {asym:.3e} exceeds {limit:.1e}; "
                         "symmetry update set is inconsistent")
    return 0.5 * K_raw + 0.5 * K_raw.T  # halved first: no finite sum overflows


def build_exchange_symmetric(pairs: ShellPairNode, P: MatrixQuadtree,
                             tau_2e: float = 0.0,
                             quartet_log: list | None = None,
                             evaluate: bool = True):
    """Exchange matrix via canonical-pair traversal with 4-way scatter.

    The traversal engine of exchange_naive with the four slots of
    _SLOT_TRANSPOSES, per orientation of each task. ``pairs`` is the same
    full shell-pair tree the naive driver uses; the canonical restriction
    is applied during traversal (upper-triangular child selection). The
    driver reads the naive driver's index of the tree from leaf_cache, so
    the cached norms and factors feeding the screening tests are shared
    with it bit for bit; a diagonal leaf drops its transposed slots and is
    read over its full pair grid, each pair below the diagonal evaluated as
    its canonical mirror, so each kept link-quartet is one quartet the
    naive driver keeps.
    Returns (K, SymmetryCounters); K passes through symmetrize_final.
    evaluate behaves as in build_exchange_naive; quartet_log collects each
    kept canonical quartet, in either orientation, once (an evaluated
    value serves both). A P that is not symmetric to within
    symmetrize_final's rule raises InvalidArgumentError naming its worst
    entry, for evaluated and count-only builds alike.
    """
    K, c = Traversal.walk(pairs, P, _SLOT_TRANSPOSES, tau_2e, evaluate,
                          SymmetryCounters, _case_index, quartet_log)
    return (symmetrize_final(K) if evaluate else K), c
