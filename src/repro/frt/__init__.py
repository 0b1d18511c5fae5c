"""FRT metric tree embeddings from LE lists (Section 7).

Pipeline (Sections 7.1-7.4):

1. sample a uniformly random vertex order (permutation) and ``β ∈ [1, 2)``;
2. compute Least-Element lists — an MBF-like algorithm (Definition 7.3,
   Lemma 7.5) — either directly on ``G`` (``SPD(G)`` iterations, the
   Khan-et-al. regime) or on the simulated graph ``H`` through the oracle
   (``O(log² n)`` iterations, the paper's main result);
3. build the FRT tree from the LE lists (Lemma 7.2);
4. optionally map tree edges back to graph paths (Section 7.5).

Entry points:

- :func:`~repro.frt.lelists.compute_le_lists` /
  :func:`~repro.frt.lelists.compute_le_lists_via_oracle`
- :class:`~repro.frt.tree.FRTTree` and
  :func:`~repro.frt.tree.build_frt_tree`
- :class:`~repro.frt.forest.FRTForest` and
  :func:`~repro.frt.forest.build_frt_forest` (all ensemble trees in one
  vectorized pass)
- :func:`~repro.frt.embedding.sample_frt_tree` (direct) and
  :func:`~repro.frt.embedding.sample_frt_tree_via_oracle` (main result)
- :func:`~repro.frt.stretch.evaluate_stretch`
- :func:`~repro.frt.paths.tree_edge_to_graph_path`
"""

from repro.frt.lelists import compute_le_lists, compute_le_lists_via_oracle, le_lists_as_arrays
from repro.frt.tree import FRTTree, build_frt_tree
from repro.frt.forest import FRTForest, build_frt_forest
from repro.frt.embedding import (
    EmbeddingResult,
    sample_frt_tree,
    sample_frt_tree_via_oracle,
)
from repro.frt.stretch import StretchReport, evaluate_stretch
from repro.frt.paths import tree_edge_to_graph_path, reconstruct_graph_path
from repro.frt.ensemble import FRTEnsemble
from repro.frt.decomposition import HierarchicalDecomposition, decomposition_of

__all__ = [
    "compute_le_lists",
    "compute_le_lists_via_oracle",
    "le_lists_as_arrays",
    "FRTTree",
    "build_frt_tree",
    "FRTForest",
    "build_frt_forest",
    "EmbeddingResult",
    "sample_frt_tree",
    "sample_frt_tree_via_oracle",
    "StretchReport",
    "evaluate_stretch",
    "tree_edge_to_graph_path",
    "reconstruct_graph_path",
    "FRTEnsemble",
    "HierarchicalDecomposition",
    "decomposition_of",
]
