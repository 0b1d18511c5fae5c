"""Least-Element list computation (Definition 7.3, Sections 7.2-7.3).

The LE list of ``v`` w.r.t. a random vertex order is obtained from
``{(dist(v,w), w) : w ∈ V}`` by deleting every pair dominated by a
smaller-ordered, no-farther vertex.  Computing all LE lists is an MBF-like
algorithm over the distance-map semimodule with the
:class:`~repro.mbf.dense.LEFilter` projection; Lemma 7.6 bounds every
(intermediate) list length by ``O(log n)`` w.h.p.

Two drivers:

- :func:`compute_le_lists` — iterate on ``G`` itself until fixpoint
  (``SPD(G)`` iterations; Khan et al. [26]),
- :func:`compute_le_lists_via_oracle` — iterate on the simulated graph
  ``H`` through the :class:`~repro.oracle.HOracle` (``O(log² n)``
  iterations w.h.p.; the paper's Theorem 7.9 engine).

Each has a batched counterpart (:func:`compute_le_lists_batch`,
:func:`compute_le_lists_batch_via_oracle`) that computes the LE lists of
``k`` independent random orders in one vectorized pass;
``Pipeline.sample_ensemble`` calls it once per sample, on a ``(1, n)``
rank matrix.  Per-sample results (lists, iteration counts, optional
ledger charges) are bit-identical to ``k`` serial calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf.dense import (
    BatchedFlatStates,
    BatchedLEFilter,
    FlatStates,
    LEFilter,
    check_rank as _check_rank,
    run_dense,
    run_dense_batched,
)
from repro.oracle.oracle import HOracle
from repro.pram.cost import NULL_LEDGER, CostLedger

__all__ = [
    "compute_le_lists",
    "compute_le_lists_batch",
    "compute_le_lists_via_oracle",
    "compute_le_lists_batch_via_oracle",
    "le_lists_as_arrays",
    "max_list_length",
]


def compute_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    h: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    """LE lists of ``G`` w.r.t. the order ``rank`` (fixpoint iteration).

    Returns ``(lists, iterations)``; with ``h=None`` iterates until the
    fixpoint, which is reached after ``SPD(G)`` iterations.
    """
    rank = _check_rank(G.n, rank)
    return run_dense(G, LEFilter(rank), h=h, ledger=ledger)


def compute_le_lists_via_oracle(
    oracle: HOracle,
    rank: np.ndarray,
    *,
    h: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    """LE lists of the simulated graph ``H`` via the Section-5 oracle.

    The returned lists are exactly the LE lists of ``H`` (Lemma 5.1 /
    Theorem 5.2); the fixpoint arrives within ``SPD(H) + 1 ∈ O(log² n)``
    ``H``-iterations w.h.p. (Theorem 4.5).
    """
    rank = _check_rank(oracle.n, rank)
    return oracle.run(LEFilter(rank), h=h, ledger=ledger)


def compute_le_lists_batch(
    G: Graph,
    ranks: np.ndarray,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """LE lists of ``G`` for ``k`` random orders in one batched pass.

    ``ranks`` is a ``(k, n)`` matrix of permutations; ``ledgers``, when
    given, holds one :class:`~repro.pram.cost.CostLedger` per sample.
    Returns ``(lists, iterations)`` with per-sample iteration counts;
    sample ``s`` is bit-identical to ``compute_le_lists(G, ranks[s])``.
    """
    ranks = _check_ranks(G.n, ranks)
    return run_dense_batched(
        G,
        BatchedLEFilter(ranks),
        ranks.shape[0],
        h=h,
        max_iterations=max_iterations,
        ledgers=ledgers,
    )


def compute_le_lists_batch_via_oracle(
    oracle: HOracle,
    ranks: np.ndarray,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """LE lists of the simulated graph ``H`` for ``k`` orders in one pass.

    The batched analogue of :func:`compute_le_lists_via_oracle`; sample
    ``s`` is bit-identical to the serial call with ``ranks[s]``.
    """
    ranks = _check_ranks(oracle.n, ranks)
    return oracle.run_batch(
        BatchedLEFilter(ranks),
        ranks.shape[0],
        h=h,
        max_iterations=max_iterations,
        ledgers=ledgers,
    )


def _check_ranks(n: int, ranks: np.ndarray) -> np.ndarray:
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.ndim != 2 or ranks.shape[1] != n:
        raise ValueError(f"ranks must have shape (k, {n})")
    if ranks.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.array_equal(
        np.sort(ranks, axis=1), np.broadcast_to(np.arange(n), ranks.shape)
    ):
        raise ValueError("every row of ranks must be a permutation of 0..n-1")
    return ranks


def le_lists_as_arrays(
    lists: FlatStates,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-vertex ``(ids, dists)`` arrays sorted by increasing distance.

    The dense LE filter already emits entries in ``(dist, rank)`` order, so
    this is a cheap re-slicing; provided for consumers (tree construction,
    Congest simulation) that want plain arrays.
    """
    return [lists.node(v) for v in range(lists.n)]


def max_list_length(lists: FlatStates) -> int:
    """``max_v |LE(v)|`` — the Lemma 7.6 quantity."""
    return int(lists.counts().max()) if lists.n else 0
