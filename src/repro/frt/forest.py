"""Batched FRT forest construction — all ensemble trees in one NumPy pass.

:func:`build_frt_tree` (the Lemma 7.2 reference implementation) walks the
vertices of one sample in a Python loop; for an ensemble of ``k`` samples
the batched pipeline would still pay ``k · n`` Python-level iterations
after the LE-list stage was vectorized.  :func:`build_frt_forest` removes
that tail: given the ensemble's LE lists as one
:class:`~repro.mbf.dense.BatchedFlatStates` plus per-sample ``(rank, beta)``
draws, it constructs every tree of the ensemble with a fixed number of
array operations per *level*:

1. **Level labels** — one flat
   :func:`~repro.mbf.dense.segmented_searchsorted` over the CSR ``dists``
   resolves ``labels[s, v, i] = v_i`` (the min-rank vertex within radius
   ``r_i^{(s)}`` of ``v``) for all samples, vertices, and levels at once.
2. **Ragged depths** — each sample has its own depth ``k_s`` (its ``beta``
   and root distance decide when the balls swallow the graph); levels are
   padded to ``k_max = max_s k_s``.  Padded levels replicate the root
   (radii beyond the root distance select the last list entry), so the
   padding is inert for distance queries.
3. **Node ids** — suffix → node-id assignment walks levels root-down once,
   fusing all samples per level through one :func:`numpy.unique` over
   composite ``(sample, parent_id, label)`` keys.  Per sample, the
   resulting ids, parents, levels, and leading vertices are *bit-identical*
   to the serial :func:`build_frt_tree` (pinned by
   ``tests/test_frt_forest.py``).

The resulting :class:`FRTForest` answers ensemble distance queries
(``distances`` / ``distance_upper_bounds`` / ``median_distances``) without
touching per-tree objects, and :meth:`FRTForest.tree` materializes any
sample as a standalone :class:`~repro.frt.tree.FRTTree` view whose
structure arrays — node ids included — equal the serial construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.frt.tree import FRTTree
from repro.mbf.dense import BatchedFlatStates, segmented_searchsorted
from repro.util.freeze import freeze, freeze_enabled

__all__ = ["FRTForest", "build_frt_forest"]

# Cap on the per-block element count of the (size, block, k_max+1) gathers
# behind lca_levels: keeps the transient memory of huge pair queries (e.g.
# all pairs at large n) bounded at a few tens of MiB instead of scaling the
# whole query by the ensemble size, without giving up vectorization.
_QUERY_BLOCK_ELEMS = 1 << 22


@dataclass
class FRTForest:
    """``size`` FRT trees over the same ``n`` vertices, stacked.

    Structure arrays (``k_max`` = maximum tree depth over samples;
    ``total_nodes`` = sum of per-sample node counts):

    - ``depths[s]`` — sample ``s``'s depth ``k_s`` (its root lives at
      level ``k_s``); levels above are padding,
    - ``level_ids[s, v, i]`` — node id of ``v``'s level-``i`` ancestor in
      sample ``s``; for ``i > depths[s]`` the root id is replicated,
    - ``radii[s, i] = beta_s · 2^i · scale`` (``i > depths[s]``: padding),
    - ``edge_weights[s, i]`` / ``cum_weights[s, ℓ]`` — per-sample level
      edge weights and their prefix sums (the serial convention),
    - ``node_offsets`` — CSR bounds of the per-sample node arrays:
      ``parent`` / ``node_level`` / ``node_leading`` of sample ``s`` live
      at ``[node_offsets[s]:node_offsets[s+1]]``, with *sample-local* node
      ids (the ids :attr:`level_ids` uses).
    """

    n: int
    size: int
    k_max: int
    scale: float
    betas: np.ndarray  # (size,)
    depths: np.ndarray  # (size,) int64
    radii: np.ndarray  # (size, k_max+1)
    edge_weights: np.ndarray  # (size, k_max)
    cum_weights: np.ndarray  # (size, k_max+1)
    level_ids: np.ndarray  # (size, n, k_max+1) int64
    node_offsets: np.ndarray  # (size+1,) int64
    parent: np.ndarray  # (total_nodes,) int64, sample-local ids
    node_level: np.ndarray  # (total_nodes,) int64
    node_leading: np.ndarray  # (total_nodes,) int64

    # -- basic structure -----------------------------------------------------

    def num_nodes(self, s: int) -> int:
        """Number of tree nodes of sample ``s``."""
        return int(self.node_offsets[s + 1] - self.node_offsets[s])

    @property
    def total_nodes(self) -> int:
        """Total nodes across all samples."""
        return int(self.parent.size)

    def tree(self, s: int) -> FRTTree:  # shape: -> object view
        """Sample ``s`` as a :class:`~repro.frt.tree.FRTTree` view.

        Bit-identical — all structure arrays, node ids included — to the
        serial ``build_frt_tree(lists.sample_states(s), ranks[s],
        betas[s], wmin)``.  The tree's arrays are zero-copy *views* into
        the forest's stacked storage, returned **read-only** (writing
        through one tree would silently corrupt all ``size`` samples and
        every server cache keyed on this forest's fingerprint; a write
        raises ``ValueError`` instead).  Storing one copy keeps an
        ensemble's memory flat even when every sample is materialized as
        a tree; ``.copy()`` an array if a sample needs mutating.
        """
        if not 0 <= s < self.size:
            raise IndexError(f"sample index {s} out of range [0, {self.size})")
        k = int(self.depths[s])
        lo, hi = self.node_offsets[s], self.node_offsets[s + 1]
        return FRTTree(
            n=self.n,
            k=k,
            beta=float(self.betas[s]),
            scale=self.scale,
            radii=freeze(self.radii[s, : k + 1]),
            edge_weights=freeze(self.edge_weights[s, :k]),
            cum_weights=freeze(self.cum_weights[s, : k + 1]),
            level_ids=freeze(self.level_ids[s, :, : k + 1]),
            parent=freeze(self.parent[lo:hi]),
            node_level=freeze(self.node_level[lo:hi]),
            node_leading=freeze(self.node_leading[lo:hi]),
        )

    def trees(self) -> list[FRTTree]:  # shape: -> object view
        """All samples as tree views (see :meth:`tree`)."""
        return [self.tree(s) for s in range(self.size)]

    # -- distances -------------------------------------------------------------

    def lca_levels(
        self, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:  # shape: -> (s, p) int64 owned
        """Per-sample lowest common ancestor levels, ``(size, P)``.

        Padded levels replicate the root id, so the argmax over the full
        padded axis equals each sample's own ``(k_s + 1)``-level argmax.
        Large pair sets are processed in blocks so the transient
        ``(size, block, k_max + 1)`` gathers stay at a few tens of MiB
        regardless of ``P`` (the per-tree loop this replaces only ever
        held one tree's slice at a time).
        """
        us = np.atleast_1d(np.asarray(us, dtype=np.int64))
        vs = np.atleast_1d(np.asarray(vs, dtype=np.int64))
        out = np.empty((self.size, us.size), dtype=np.int64)
        per_pair = self.size * (self.k_max + 1)
        block = max(1, _QUERY_BLOCK_ELEMS // per_pair)
        for lo in range(0, us.size, block):
            sl = slice(lo, lo + block)
            eq = self.level_ids[:, us[sl], :] == self.level_ids[:, vs[sl], :]
            out[:, sl] = np.argmax(eq, axis=2)
        return out

    def distances(self, us, vs) -> np.ndarray:  # shape: -> (s, p) float64 owned
        """``(size, P)`` matrix of tree distances — every sample, one pass.

        Bit-identical to stacking ``self.tree(s).distances(us, vs)`` over
        samples.
        """
        lvl = self.lca_levels(us, vs)
        return 2.0 * np.take_along_axis(self.cum_weights, lvl, axis=1)

    def distance_upper_bounds(
        self, us, vs
    ) -> np.ndarray:  # shape: -> (p,) float64 owned
        """Per-pair min over samples — dominating, tightening with size."""
        return self.distances(us, vs).min(axis=0)

    def median_distances(
        self, us, vs
    ) -> np.ndarray:  # shape: -> (p,) float64 owned
        """Per-pair median over samples — a robust, concentrated estimate."""
        return np.median(self.distances(us, vs), axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FRTForest(size={self.size}, n={self.n}, "
            f"depths={self.depths.min()}..{self.depths.max()}, "
            f"nodes={self.total_nodes})"
        )


def build_frt_forest(
    le_lists: BatchedFlatStates,  # shape: csr(k*n) frozen
    ranks: np.ndarray,  # shape: (k, n) int64 frozen
    betas: np.ndarray,  # shape: (k,) float64 frozen
    wmin: float,  # shape: scalar
) -> FRTForest:  # shape: -> object owned
    """Construct all ``k`` FRT trees of an ensemble in one vectorized pass.

    Parameters
    ----------
    le_lists:
        The ensemble's LE lists as one batch (sample ``s``'s lists w.r.t.
        ``ranks[s]``, entries per vertex ascending by distance, as produced
        by the batched dense engine or :meth:`HOracle.run_batch`).
    ranks:
        ``(k, n)`` matrix of random total orders, one row per sample.
    betas:
        ``(k,)`` FRT radius multipliers, each in ``[1, 2)``.
    wmin:
        A positive lower bound on the minimum pairwise distance (shared by
        all samples — they embed the same graph).

    Sample ``s`` of the result is bit-identical to the serial
    ``build_frt_tree(le_lists.sample_states(s), ranks[s], betas[s], wmin)``.
    """
    k, n = le_lists.k, le_lists.n
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.shape != (k, n):
        raise ValueError(f"ranks must have shape ({k}, {n})")
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (k,):
        raise ValueError(f"betas must have shape ({k},)")
    if np.any(betas < 1.0) or np.any(betas >= 2.0):
        raise ValueError("every beta must lie in [1, 2)")
    if wmin <= 0:
        raise ValueError("wmin must be positive")
    counts = le_lists.counts()
    if np.any(counts == 0):
        bad = int(np.argmax(counts == 0))
        raise ValueError(
            f"every vertex needs a non-empty LE list (connected input?); "
            f"sample {bad // n}, vertex {bad % n} is empty"
        )
    # The level extraction binary-searches each list; entries must be
    # ascending by distance within every segment (the engines' contract).
    interior = np.ones(le_lists.total, dtype=bool)
    interior[le_lists.offsets[:-1]] = False
    if np.any(np.diff(le_lists.dists, prepend=0.0)[interior] < 0):
        raise ValueError("LE-list entries must be ascending by distance")

    scale = wmin / 2.0
    # Per-sample root distance; each list's last entry is the sample's
    # global min-rank vertex.
    root_vertex, last_dists = le_lists.segment_last()
    root_dists = last_dists.max(axis=1)
    if np.any(root_vertex != root_vertex[:, :1]):
        bad = int(np.argmax(np.any(root_vertex != root_vertex[:, :1], axis=1)))
        raise ValueError(
            f"LE lists are not at their fixpoint (no common root in sample {bad})"
        )
    # Per-sample depths (the serial scalar formula, verbatim — ceil/log2 on
    # Python floats so ties at exact powers of two match bit for bit).
    depths = np.array(
        [
            1
            if rd <= 0  # single-vertex graph
            else max(1, math.ceil(math.log2(rd / (b * scale))))
            for rd, b in zip(root_dists.tolist(), betas.tolist())
        ],
        dtype=np.int64,
    )
    k_max = int(depths.max())
    # radii[s, i] = (beta_s * scale) * 2^i — the serial expression's
    # operation order, so each prefix equals the serial radii array.
    radii = (betas[:, None] * scale) * np.power(2.0, np.arange(k_max + 1))

    # Level labels: labels[s, v, i] = id of the last list entry of (s, v)
    # with dist <= radii[s, i], for all (s, v, i) in one flat searchsorted.
    queries = np.repeat(radii, n, axis=0)  # (k*n, k_max+1), row = segment
    pos = segmented_searchsorted(le_lists.offsets, le_lists.dists, queries) - 1
    if np.any(pos[:, 0] < 0):
        bad = int(np.argmax(pos[:, 0] < 0))
        raise ValueError(
            f"vertex {bad % n} (sample {bad // n}) lacks its own "
            "0-distance entry"
        )
    labels = le_lists.ids[le_lists.offsets[:-1, None] + pos].reshape(
        k, n, k_max + 1
    )
    if not np.array_equal(
        labels[:, :, 0], np.broadcast_to(np.arange(n), (k, n))
    ):
        raise ValueError(
            "level-0 centers are not the vertices themselves; "
            "wmin is not a lower bound on pairwise distances"
        )

    level_ids, node_offsets, parent, node_level, node_leading = _assign_node_ids(
        labels, depths
    )
    edge_weights = radii[:, 1:]
    cum_weights = np.concatenate(
        [np.zeros((k, 1)), np.cumsum(edge_weights, axis=1)], axis=1
    )
    if freeze_enabled():
        # REPRO_FREEZE sanitizer: the stacked storage is shared by every
        # tree view and server cache — freeze it so any later in-place
        # write hard-fails.  betas may alias the caller's array (asarray
        # above), so it is the one field copied before freezing.
        betas = freeze(betas.copy())
        for arr in (depths, radii, edge_weights, cum_weights, level_ids,
                    node_offsets, parent, node_level, node_leading):
            freeze(arr)
    return FRTForest(
        n=n,
        size=k,
        k_max=k_max,
        scale=scale,
        betas=betas,
        depths=depths,
        radii=radii,
        edge_weights=edge_weights,
        cum_weights=cum_weights,
        level_ids=level_ids,
        node_offsets=node_offsets,
        parent=parent,
        node_level=node_level,
        node_leading=node_leading,
    )


def _assign_node_ids(
    labels: np.ndarray, depths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Suffix → node-id assignment, all samples fused per level.

    Walks levels root-down (``j = k_max .. 0``).  A sample joins at its own
    root level ``j = depths[s]`` (ids from sorted root labels) and below
    that assigns ids by ``numpy.unique`` over composite
    ``(sample, parent_id * (n+1) + label)`` keys — sample-major, so each
    sample's group is sorted exactly like the serial per-sample
    ``np.unique``, and the serial id counters are reproduced bit for bit.
    Levels above a sample's depth stay padding: they are filled with the
    sample's root id after the walk.
    """
    k, n, levels = labels.shape
    k_max = levels - 1
    level_ids = np.empty((k, n, k_max + 1), dtype=np.int64)
    next_id = np.zeros(k, dtype=np.int64)
    # Node records, one chunk per (level, root-or-interior) assignment:
    # (sample, id, parent, level, leading) arrays, all sample-local ids.
    chunks: list[tuple[np.ndarray, ...]] = []

    def assign(samples: np.ndarray, keys: np.ndarray, base: int, j: int) -> None:
        """Assign ids for one level chunk across ``samples`` (rows of ``keys``).

        ``keys[r]`` holds row ``r``'s per-vertex suffix keys; ``base > 0``
        marks interior levels, where ``key = parent_id * base + label``
        (``base = n + 1 > label``, so decoding is exact); ``base = 0``
        marks root levels, where ``key = label``.  Fusing the row index
        into a sample-major composite keeps each sample's unique keys
        contiguous *and* sorted by key — exactly the serial per-sample
        ``np.unique`` order — so ids continue each sample's own counter.
        """
        rows = len(samples)
        stride = int(keys.max()) + 1
        if stride > np.iinfo(np.int64).max // max(rows, 1):
            raise OverflowError("composite suffix keys overflow int64")
        fused = np.arange(rows, dtype=np.int64)[:, None] * stride + keys
        uniq, inv = np.unique(fused.ravel(), return_inverse=True)
        row_of_uniq = uniq // stride
        group_sizes = np.bincount(row_of_uniq, minlength=rows)
        group_starts = np.concatenate([[0], np.cumsum(group_sizes[:-1])])
        ids = (
            next_id[samples][row_of_uniq]
            + np.arange(uniq.size)
            - group_starts[row_of_uniq]
        )
        level_ids[samples, :, j] = ids[inv].reshape(rows, n)
        local = uniq % stride
        if base > 0:
            parent = local // base
            leading = local % base
        else:
            parent = np.full(uniq.size, -1, dtype=np.int64)
            leading = local
        chunks.append(
            (
                samples[row_of_uniq],
                ids,
                parent,
                np.full(uniq.size, j, dtype=np.int64),
                leading,
            )
        )
        next_id[samples] += group_sizes

    for j in range(k_max, -1, -1):
        roots = np.flatnonzero(depths == j)
        if roots.size:
            assign(roots, labels[roots, :, j], 0, j)
        deeper = np.flatnonzero(depths > j)
        if deeper.size:
            combo = level_ids[deeper, :, j + 1] * (n + 1) + labels[deeper, :, j]
            assign(deeper, combo, n + 1, j)

    # Pad levels above each sample's depth with its root id (inert for
    # lca/argmax queries: the root level is always an ancestor match).
    col = np.minimum(np.arange(k_max + 1), depths[:, None])  # (k, k_max+1)
    level_ids = np.take_along_axis(
        level_ids, np.broadcast_to(col[:, None, :], level_ids.shape), axis=2
    )

    # Assemble per-sample node arrays: ids were handed out in creation
    # order, so one lexsort by (sample, id) reproduces the serial
    # root-down concatenation per sample.
    node_sample, node_id, parent, node_level, node_leading = (
        np.concatenate([c[f] for c in chunks]) for f in range(5)
    )
    order = np.lexsort((node_id, node_sample))
    node_offsets = np.concatenate([[0], np.cumsum(next_id)]).astype(np.int64)
    return (
        level_ids,
        node_offsets,
        parent[order],
        node_level[order],
        node_leading[order],
    )
