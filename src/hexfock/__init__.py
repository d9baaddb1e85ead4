"""Hierarchical Fock-exchange builder over quadtree-blocked shell pairs."""

from .basis import (Atom, BasisSystem, FormatError, GaussianShell,
                    InvalidArgumentError, SplitMix64, UnsupportedElementError,
                    generate_cluster, hilbert_order, load_xyz)
from .density import DensityModel, build_density
from .exchange_naive import (LogicError, TraversalCounters, build_exchange_naive,
                             culled_task_bound, screening_test)
from .exchange_symmetry import (CASE_LABELS, SymmetryCounters,
                                build_exchange_symmetric, symmetrize_final)
from .integrals import boys_f0, eri_cross, eri_quartet, overlap
from .oracle import compare, dense_exchange, dense_exchange_screened
from .quadtree import (MatrixQuadtree, ShellPairNode, Span, build_matrix_tree,
                       build_pair_tree, build_partition, shell_overlap_matrix)

__version__ = "0.1.0"
