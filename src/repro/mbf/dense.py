"""Vectorized MBF iterations for distance-map states (semimodule ``D``).

This is the "production" engine behind the core results.  Node states are
sparse distance maps stored *flat*: all entries of all nodes in three parallel
arrays plus per-node offsets (CSR layout).  One MBF iteration is

1. **propagate**  — every directed edge ``u -> v`` of weight ``w`` emits a
   copy of ``u``'s entries shifted by ``w`` and addressed to ``v``; every node
   additionally emits its own entries to itself (the diagonal ``a_vv = 0``);
2. **aggregate + filter** — one global lexsort groups entries by target and
   a vectorized filter keeps the representative sub-list per node.

Costs are charged to a :class:`~repro.pram.cost.CostLedger` following
Lemma 2.3 (aggregation of lists via parallel sorting: ``O(Σ|x_i| log n)``
work, ``O(log n)`` depth) so benchmarks can report paper-model work/depth.

Supported filters (all congruence-compatible, see ``tests/test_dense.py``
for the equivalence with the reference engine):

- ``"min"`` — per (target, id) keep the minimum distance (identity filter
  on canonical representations; used by APSP / MSSP),
- ``("topk", k, dmax, source_mask)`` — source detection (Example 3.2),
- ``("le", rank)`` — least-element lists (Definition 7.3).

**Batched engine**: :class:`BatchedFlatStates` extends the CSR layout
with a *sample* axis — ``k`` independent state vectors over the same
graph stored back to back, entries keyed by the composite segment id
``sample * n + target``.  The serial kernels (:func:`aggregate`,
:func:`dense_iteration`, :func:`run_dense`) are thin ``k = 1`` views of
the batched ones, so there is exactly one kernel stack — and the serial
LE path inherits the incremental prune/merge fast path below.  The batched kernels
(:func:`propagate_batched`, :func:`aggregate_batched`,
:func:`dense_iteration_batched`, :func:`run_dense_batched`) advance all
``k`` samples in one NumPy pass; :class:`BatchedLEFilter` carries one rank
permutation per sample (a ``(k, n)`` matrix indexed per-entry through the
composite segment id).  For LE lists the batched iteration additionally
uses an *incremental* aggregation — propagated entries that are dominated
by (or duplicates of) the target's current staircase can never survive the
filter (the self-contribution puts their dominator in every merge), so
they are pruned by a vectorized segmented binary search before the sort,
and only the small survivor set is sorted and staircase-merged into the
current lists.  The result is bit-identical to the serial engine (pinned
by parity tests); the per-sample cost ledgers charge the *model* cost of
Lemma 2.3 (propagate + sort + filter over all emitted entries), matching
the serial driver charge for charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf.engine import fixpoint_error
from repro.pram.cost import NULL_LEDGER, CostLedger

INF = math.inf

__all__ = [
    "FlatStates",
    "BatchedFlatStates",
    "check_rank",
    "FilterSpec",
    "MinFilter",
    "TopKFilter",
    "LEFilter",
    "BatchedLEFilter",
    "propagate",
    "aggregate",
    "dense_iteration",
    "run_dense",
    "propagate_batched",
    "aggregate_batched",
    "dense_iteration_batched",
    "dense_iteration_batched_ex",
    "take_active_samples",
    "run_batched_fixpoint",
    "run_dense_batched",
    "segmented_searchsorted",
]


def segmented_searchsorted(
    offsets: np.ndarray,  # shape: (s+1,) int64 frozen
    values: np.ndarray,  # shape: (total,) float64 frozen
    queries: np.ndarray,  # shape: (s, q) float64 frozen
    side: str = "right",  # shape: scalar
) -> np.ndarray:  # shape: -> (s, q) int64
    """Per-segment :func:`numpy.searchsorted` over a CSR array, in one call.

    ``values[offsets[j]:offsets[j+1]]`` is segment ``j``, sorted ascending;
    ``queries[j]`` holds segment ``j``'s query values (one row per segment,
    any fixed number of queries).  Returns the insertion positions *within*
    each segment, shape ``queries.shape`` — exactly
    ``searchsorted(values[offsets[j]:offsets[j+1]], queries[j], side)`` for
    every ``j``, but as a single flat binary search.

    The segment structure is folded into a composite ``(segment, value)``
    key ordered lexicographically (numpy's complex sort order), so the
    comparison against ``values`` is exact — no additive offset tricks that
    could perturb float ordering.  Segment ids must stay below ``2**53``
    (exact in float64).

    Sibling of :func:`_segment_search` (the LE hot loop's iterative
    bisect): that form takes an arbitrary per-query ``(tgt, d)`` stream
    and avoids materializing per-entry keys, which wins inside the
    fixpoint iteration; this form takes a rectangular per-segment query
    matrix and resolves it in *one* flat ``searchsorted``, which is
    measurably faster for the forest's all-(sample, vertex, level) shape.
    Their results agree (``side="right"`` ↔ ``strict=False``).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    num_segments = offsets.size - 1
    if queries.ndim != 2 or queries.shape[0] != num_segments:
        raise ValueError(
            f"queries must have shape (num_segments={num_segments}, q)"
        )
    # Assemble (segment, value) keys by field, not arithmetic: ``1j * inf``
    # would produce a NaN real part and break the lexicographic order.
    keys = np.empty(values.size, dtype=np.complex128)
    keys.real = np.repeat(
        np.arange(num_segments, dtype=np.float64), np.diff(offsets)
    )
    keys.imag = values
    flat_queries = np.empty(queries.shape, dtype=np.complex128)
    flat_queries.real = np.arange(num_segments, dtype=np.float64)[:, None]
    flat_queries.imag = queries
    pos = np.searchsorted(keys, flat_queries.ravel(), side=side)
    return pos.reshape(queries.shape) - offsets[:-1, None]


@dataclass
class FlatStates:
    """CSR-layout sparse distance maps for all ``n`` nodes.

    ``ids[offsets[v]:offsets[v+1]]`` are the map keys (vertex ids) of node
    ``v``'s state and ``dists[...]`` the corresponding finite distances.
    Entries within a node are kept in the order the producing filter emits
    (deterministic), so two ``FlatStates`` are comparable array-wise.
    """

    n: int
    offsets: np.ndarray  # (n+1,) int64
    ids: np.ndarray  # (total,) int64
    dists: np.ndarray  # (total,) float64

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sources(cls, n: int, sources: Iterable[int] | None = None) -> "FlatStates":
        """The canonical initialization ``x^(0)``: ``{v: 0}`` for sources.

        ``sources=None`` means every vertex is a source (Equation 3.1).
        """
        if sources is None:
            src = np.arange(n, dtype=np.int64)
        else:
            src = np.unique(np.asarray(list(sources), dtype=np.int64))
            if src.size and (src.min() < 0 or src.max() >= n):
                raise ValueError("source out of range")
        counts = np.zeros(n, dtype=np.int64)
        counts[src] = 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(n, offsets, src.copy(), np.zeros(src.size))

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict]) -> "FlatStates":
        """Convert reference-engine states (list of dicts) to flat layout."""
        n = len(dicts)
        ids_parts, dist_parts, counts = [], [], np.zeros(n, dtype=np.int64)
        for v, d in enumerate(dicts):
            items = sorted((k, val) for k, val in d.items() if val != INF)
            counts[v] = len(items)
            ids_parts.extend(k for k, _ in items)
            dist_parts.extend(val for _, val in items)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            n,
            offsets,
            np.array(ids_parts, dtype=np.int64),
            np.array(dist_parts, dtype=np.float64),
        )

    # -- accessors ----------------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of stored entries across all nodes."""
        return int(self.ids.size)

    def counts(self) -> np.ndarray:
        """Per-node entry counts ``|x_v|``."""
        return np.diff(self.offsets)

    def node(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` of node ``v``'s state."""
        lo, hi = self.offsets[v], self.offsets[v + 1]
        return self.ids[lo:hi], self.dists[lo:hi]

    def to_dicts(self) -> list[dict]:
        """Convert to reference-engine representation."""
        return [
            dict(zip(self.ids[lo:hi].tolist(), self.dists[lo:hi].tolist()))
            for lo, hi in zip(self.offsets[:-1], self.offsets[1:])
        ]

    def to_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` matrix with ``inf`` for absent entries."""
        # reprolint: disable=quadratic-transient-flow (the dense (n, n)
        # matrix is the declared output of this debugging helper)
        out = np.full((self.n, self.n), INF)
        owner = np.repeat(np.arange(self.n), self.counts())
        out[owner, self.ids] = self.dists
        return out

    def restrict(self, keep_mask: np.ndarray) -> "FlatStates":
        """Projection ``P``: zero out the states of nodes with mask False.

        Implements Equation (5.2) — entries of non-selected nodes are
        dropped wholesale (their state becomes ⊥).  Lazy in spirit: O(total).
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n,):
            raise ValueError("mask must have shape (n,)")
        counts = self.counts() * keep_mask
        entry_keep = np.repeat(keep_mask, self.counts())
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return FlatStates(self.n, offsets, self.ids[entry_keep], self.dists[entry_keep])

    def equals(self, other: "FlatStates") -> bool:
        """Exact equality of canonical representations."""
        return (
            self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.dists, other.dists)
        )


@dataclass
class BatchedFlatStates:
    """CSR-layout states of ``k`` independent samples over the same graph.

    The sample axis is folded into the segment structure: segment
    ``s * n + v`` holds sample ``s``'s state at node ``v`` (``offsets`` has
    ``k * n + 1`` entries).  ``ids`` are *actual* vertex ids ``0..n-1`` —
    propagation never crosses samples, so only targets need the composite
    addressing.  Viewed through :meth:`as_flat`, the batch is an ordinary
    :class:`FlatStates` over ``k * n`` virtual nodes, which lets the
    batched kernels reuse the scalar ones.
    """

    k: int
    n: int
    offsets: np.ndarray  # (k*n+1,) int64
    ids: np.ndarray  # (total,) int64, values in 0..n-1
    dists: np.ndarray  # (total,) float64

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sources(
        cls, k: int, n: int, sources: Iterable[int] | None = None
    ) -> "BatchedFlatStates":
        """``k`` copies of the canonical initialization ``x^(0)``."""
        if k < 1:
            raise ValueError("batch size k must be >= 1")
        one = FlatStates.from_sources(n, sources)
        offsets = np.concatenate(
            [[0], (one.offsets[1:] + one.total * np.arange(k)[:, None]).reshape(-1)]
        )
        return cls(
            k,
            n,
            offsets.astype(np.int64),
            np.tile(one.ids, k),
            np.tile(one.dists, k),
        )

    @classmethod
    def from_states(cls, states: Sequence[FlatStates]) -> "BatchedFlatStates":
        """Stack per-sample states (all over the same ``n``) into a batch."""
        if not states:
            raise ValueError("need at least one sample")
        n = states[0].n
        if any(st.n != n for st in states):
            raise ValueError("all samples must share the same node count")
        counts = np.concatenate([st.counts() for st in states])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(
            len(states),
            n,
            offsets.astype(np.int64),
            np.concatenate([st.ids for st in states]),
            np.concatenate([st.dists for st in states]),
        )

    @classmethod
    def concat(
        cls,
        batches: Sequence["BatchedFlatStates"],  # shape: (b,) object frozen
    ) -> "BatchedFlatStates":  # shape: -> object owned
        """Concatenate batches along the *sample* axis, zero re-encoding.

        The inverse of sharding: ``concat([B.take(range(0, j)),
        B.take(range(j, k))])`` equals ``B`` bit for bit, for any split
        point — entries are already stored sample-major, so the payload
        arrays concatenate verbatim and only the offsets are rebased by
        each predecessor's running entry total.  All batches must share
        ``n``; ``Pipeline.sample_ensemble`` stacks its per-sample lists
        with it before the one forest build.
        """
        if not batches:
            raise ValueError("need at least one batch")
        n = batches[0].n
        if any(b.n != n for b in batches):
            raise ValueError("all batches must share the same node count")
        totals = np.cumsum([0] + [b.total for b in batches])
        offsets = np.concatenate(
            [[0]] + [b.offsets[1:] + base for b, base in zip(batches, totals)]
        )
        return cls(
            sum(b.k for b in batches),
            n,
            offsets.astype(np.int64),
            np.concatenate([b.ids for b in batches]),
            np.concatenate([b.dists for b in batches]),
        )

    # -- accessors ----------------------------------------------------------

    @property
    def total(self) -> int:
        """Total stored entries across all samples and nodes."""
        return int(self.ids.size)

    def counts(self) -> np.ndarray:
        """Per-(sample, node) entry counts, flat ``(k*n,)``."""
        return np.diff(self.offsets)

    def sample_totals(self) -> np.ndarray:
        """Total entries per sample, ``(k,)``."""
        bounds = self.offsets[:: self.n]
        return np.diff(bounds)

    def segment_last(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` of every segment's *last* entry, each ``(k, n)``.

        For LE lists (entries ascending by distance) this is the farthest —
        i.e. globally minimum-rank — entry per (sample, node).  Every
        segment must be non-empty.
        """
        if np.any(np.diff(self.offsets) == 0):
            raise ValueError("segment_last requires non-empty segments")
        last = self.offsets[1:] - 1
        return (
            self.ids[last].reshape(self.k, self.n),
            self.dists[last].reshape(self.k, self.n),
        )

    def as_flat(self) -> FlatStates:
        """Zero-copy view as one :class:`FlatStates` over ``k*n`` virtual nodes."""
        return FlatStates(self.k * self.n, self.offsets, self.ids, self.dists)

    def sample_states(self, s: int) -> FlatStates:
        """Sample ``s``'s state vector as a standalone :class:`FlatStates`."""
        lo, hi = self.offsets[s * self.n], self.offsets[(s + 1) * self.n]
        return FlatStates(
            self.n,
            (self.offsets[s * self.n : (s + 1) * self.n + 1] - lo).copy(),
            self.ids[lo:hi].copy(),
            self.dists[lo:hi].copy(),
        )

    def to_states(self) -> list[FlatStates]:
        """All samples as standalone :class:`FlatStates` (copies)."""
        return [self.sample_states(s) for s in range(self.k)]

    def take(self, sample_idx: np.ndarray) -> "BatchedFlatStates":
        """Sub-batch of the given samples, in the given order."""
        sample_idx = np.asarray(sample_idx, dtype=np.int64)
        return BatchedFlatStates.from_states(
            [self.sample_states(int(s)) for s in sample_idx]
        )

    def restrict(self, keep_mask: np.ndarray) -> "BatchedFlatStates":
        """Projection ``P`` applied to every sample (Equation 5.2)."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n,):
            raise ValueError("mask must have shape (n,)")
        flat = self.as_flat().restrict(np.tile(keep_mask, self.k))
        return BatchedFlatStates(self.k, self.n, flat.offsets, flat.ids, flat.dists)

    def equals(self, other: "BatchedFlatStates") -> bool:
        """Exact equality of the whole batch."""
        return (
            self.k == other.k
            and self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.dists, other.dists)
        )

    def sample_equal(self, other: "BatchedFlatStates") -> np.ndarray:
        """Per-sample exact equality, ``(k,)`` bool."""
        if self.k != other.k or self.n != other.n:
            raise ValueError("batch shape mismatch")
        k, n = self.k, self.n
        eq = (
            (self.counts().reshape(k, n) == other.counts().reshape(k, n))
            .all(axis=1)
        )
        for s in np.flatnonzero(eq):
            lo_a, hi_a = self.offsets[s * n], self.offsets[(s + 1) * n]
            lo_b, hi_b = other.offsets[s * n], other.offsets[(s + 1) * n]
            eq[s] = np.array_equal(
                self.ids[lo_a:hi_a], other.ids[lo_b:hi_b]
            ) and np.array_equal(self.dists[lo_a:hi_a], other.dists[lo_b:hi_b])
        return eq


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class FilterSpec:
    """Base class: a vectorized representative projection.

    Subclasses implement :meth:`sort_keys` (secondary/tertiary sort keys
    within a target group) and :meth:`keep_mask` (given globally sorted
    entries and their segment structure, which survive).
    """

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        """Keys sorted *before* the target key in ``np.lexsort`` order.

        ``tgt`` carries the (possibly composite ``sample * n + target``)
        segment key of each entry — sample-aware filters derive the sample
        from it; sample-oblivious filters ignore it.
        """
        raise NotImplementedError

    def keep_mask(
        self,
        tgt: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        seg_id: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Boolean survival mask over the (sorted) entries."""
        raise NotImplementedError

    def take(self, sample_idx: np.ndarray) -> "FilterSpec":
        """The filter for a sub-batch of samples (batched drivers only).

        Sample-oblivious filters apply identically to every sample and
        return ``self``; per-sample filters re-slice their state.
        """
        return self


class MinFilter(FilterSpec):
    """Keep the minimum distance per (target, id): the canonical identity.

    This is plain aggregation (Lemma 2.3) — no information is discarded
    beyond duplicate/dominated copies of the same key.
    """

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        # lexsort uses the *last* key as primary; caller appends targets.
        return (dists, ids)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        keep = np.ones(tgt.size, dtype=bool)
        if tgt.size > 1:
            same = (tgt[1:] == tgt[:-1]) & (ids[1:] == ids[:-1])
            keep[1:] = ~same
        return keep


class TopKFilter(FilterSpec):
    """Source detection (Example 3.2): k smallest ``(dist, id)`` pairs.

    ``source_mask[v]`` marks allowed sources; ``dmax`` is the distance cap.
    Entries are sorted dist-major within a target (``(target, dist, id)``),
    deduplicated per (target, id) to their minimum distance, and the first
    ``k`` survivors per target are kept.

    Note: with entries sorted by ``(target, dist, id)``, duplicates of an id
    within a target are *not* adjacent; we remove them with an auxiliary
    first-occurrence pass before ranking.
    """

    def __init__(self, k: int, dmax: float = INF, source_mask: np.ndarray | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.dmax = float(dmax)
        self.source_mask = source_mask

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        return (ids, dists)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        # Drop disallowed sources / too-far entries up front.
        ok = dists <= self.dmax
        if self.source_mask is not None:
            ok &= self.source_mask[ids]
        # First occurrence per (target, id) — entries are sorted by
        # (target, dist, id) so we detect duplicates via a (target, id) key.
        pair_key = seg_id.astype(np.int64) * n + ids
        order = np.argsort(pair_key, kind="stable")  # stable: keeps dist order
        first_in_pair = np.ones(tgt.size, dtype=bool)
        pk_sorted = pair_key[order]
        first_sorted = np.ones(tgt.size, dtype=bool)
        if tgt.size > 1:
            first_sorted[1:] = pk_sorted[1:] != pk_sorted[:-1]
        first_in_pair[order] = first_sorted
        ok &= first_in_pair
        # Rank surviving entries within their target segment.
        surv_idx = np.flatnonzero(ok)
        if surv_idx.size == 0:
            return ok
        surv_seg = seg_id[surv_idx]
        seg_start = np.ones(surv_idx.size, dtype=bool)
        seg_start[1:] = surv_seg[1:] != surv_seg[:-1]
        start_pos = np.maximum.accumulate(np.where(seg_start, np.arange(surv_idx.size), 0))
        within = np.arange(surv_idx.size) - start_pos
        ok[surv_idx[within >= self.k]] = False
        return ok


def check_rank(
    n: int,  # shape: scalar
    rank: np.ndarray,  # shape: (n,) int64 frozen
) -> np.ndarray:  # shape: -> (n,) int64
    """Validate an LE random order: an int64 permutation of ``0..n-1``.

    The one canonical rank validation, shared by the LE drivers
    (:mod:`repro.frt.lelists`), the congest layer, and ``zoo.le_lists``.
    """
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (n,):
        raise ValueError(f"rank must have shape ({n},)")
    if not np.array_equal(np.sort(rank), np.arange(n)):
        raise ValueError("rank must be a permutation of 0..n-1")
    return rank


class LEFilter(FilterSpec):
    """The least-element filter of Definition 7.3, vectorized.

    ``rank`` is the random total order.  Within a target, after sorting by
    ``(dist, rank)``, an entry survives iff its rank is a *strict* running
    minimum — the staircase.  The per-segment prefix-minimum uses the
    offset trick: add ``segment * n`` to ranks so segments occupy disjoint
    descending value ranges and one global ``np.minimum.accumulate``
    suffices (see DESIGN.md).
    """

    def __init__(self, rank: np.ndarray):
        self.rank = np.asarray(rank, dtype=np.int64)

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        return (self.rank[ids], dists)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        if tgt.size == 0:
            return np.zeros(0, dtype=bool)
        # Later segments get *smaller* bases so the running min never leaks
        # forward from an earlier segment.
        adjusted = self.rank[ids] - seg_id.astype(np.int64) * (n + 1)
        run_min = np.minimum.accumulate(adjusted)
        keep = np.ones(tgt.size, dtype=bool)
        keep[1:] = adjusted[1:] < run_min[:-1]
        return keep


class BatchedLEFilter(FilterSpec):
    """Per-sample least-element filters over composite segment ids.

    ``ranks`` is a ``(k, n)`` matrix — one random total order per ensemble
    sample.  An entry addressed to the composite target ``s * n + v`` is
    keyed by ``ranks[s, id]``; deriving ``s`` from the target is what lets
    one global sort aggregate all ``k`` samples at once.  The staircase
    survival rule is :class:`LEFilter`'s, applied per composite segment.
    """

    def __init__(self, ranks: np.ndarray):
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 2:
            raise ValueError("ranks must be a (k, n) matrix")
        self.ranks = ranks
        self.k, self.n = ranks.shape
        self._flat = np.ascontiguousarray(ranks).reshape(-1)

    def entry_ranks(self, tgt: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Per-entry rank under the entry's *own sample's* order."""
        return self._flat[(tgt // self.n) * self.n + ids]

    def sort_keys(
        self, ids: np.ndarray, dists: np.ndarray, tgt: np.ndarray
    ) -> tuple:
        return (self.entry_ranks(tgt, ids), dists)

    def keep_mask(self, tgt, ids, dists, seg_id, n) -> np.ndarray:
        if tgt.size == 0:
            return np.zeros(0, dtype=bool)
        adjusted = self.entry_ranks(tgt, ids) - seg_id.astype(np.int64) * (
            self.n + 1
        )
        run_min = np.minimum.accumulate(adjusted)
        keep = np.ones(tgt.size, dtype=bool)
        keep[1:] = adjusted[1:] < run_min[:-1]
        return keep

    def take(self, sample_idx: np.ndarray) -> "BatchedLEFilter":
        return BatchedLEFilter(self.ranks[np.asarray(sample_idx, dtype=np.int64)])


# ---------------------------------------------------------------------------
# Iteration kernels
# ---------------------------------------------------------------------------


def _as_batch(states: FlatStates) -> BatchedFlatStates:
    """Zero-copy view of serial states as a ``k = 1`` batch."""
    return BatchedFlatStates(1, states.n, states.offsets, states.ids, states.dists)


def _as_ledgers(ledger: CostLedger) -> list[CostLedger] | None:
    """Wrap a serial ledger for the batched (per-sample) charging API."""
    return None if ledger is NULL_LEDGER else [ledger]


def propagate(
    states: FlatStates,  # shape: csr(n) frozen
    src: np.ndarray,  # shape: (E,) int64 frozen
    dst: np.ndarray,  # shape: (E,) int64 frozen
    w: np.ndarray,  # shape: (E,) float64 frozen
    *,
    include_self: bool = True,  # shape: scalar
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emit all propagated entries: returns flat ``(targets, ids, dists)``.

    For each directed edge ``src[e] -> dst[e]`` every entry of
    ``states[src[e]]`` is re-addressed to ``dst[e]`` with distance increased
    by ``w[e]`` (the semimodule action ``w ⊙ x``).  With ``include_self``,
    each node's own entries are also emitted (diagonal ``a_vv = 0``).
    """
    counts = states.counts()
    edge_counts = counts[src]
    total_edge = int(edge_counts.sum())
    rep_edge = np.repeat(np.arange(src.size), edge_counts)
    cum = np.concatenate([[0], np.cumsum(edge_counts)])
    pos = np.arange(total_edge) - cum[rep_edge]
    gather = states.offsets[src[rep_edge]] + pos
    out_tgt = dst[rep_edge]
    out_ids = states.ids[gather]
    out_dists = states.dists[gather] + w[rep_edge]
    if include_self:
        own_tgt = np.repeat(np.arange(states.n, dtype=np.int64), counts)
        out_tgt = np.concatenate([out_tgt, own_tgt])
        out_ids = np.concatenate([out_ids, states.ids])
        out_dists = np.concatenate([out_dists, states.dists])
    # Cost: every emitted entry is one parallel unit of work at O(1) depth.
    ledger.parallel_for(out_tgt.size, 1, 1, label="propagate")
    return out_tgt, out_ids, out_dists


def aggregate(
    n: int,  # shape: scalar
    tgt: np.ndarray,  # shape: (m,) int64 frozen
    ids: np.ndarray,  # shape: (m,) int64 frozen
    dists: np.ndarray,  # shape: (m,) float64 frozen
    spec: FilterSpec,
    *,
    ledger: CostLedger = NULL_LEDGER,
) -> FlatStates:  # shape: -> csr(n)
    """Group flat entries by target and apply the filter ``spec``.

    One global stable lexsort by ``(target, <spec keys>)`` realizes the
    paper's parallel-merge aggregation (Lemma 2.3): ``O(E log E)`` work at
    ``O(log E)`` depth for ``E`` entries.  This is the ``k = 1`` view of
    :func:`aggregate_batched` — the serial and batched kernel stacks are
    one implementation.
    """
    batch = aggregate_batched(
        1, n, tgt, ids, dists, spec, ledgers=_as_ledgers(ledger)
    )
    return batch.as_flat()


def dense_iteration(
    G: Graph,
    states: FlatStates,  # shape: csr(n) frozen
    spec: FilterSpec,
    *,
    weight_scale: float = 1.0,
    ledger: CostLedger = NULL_LEDGER,
) -> FlatStates:
    """One filtered MBF iteration ``r^V A x`` on ``G`` (min-plus, module D).

    ``weight_scale`` multiplies all edge weights — the oracle uses this for
    the level matrices ``A_λ = (1+eps)^(Λ-λ) · A_G`` (Lemma 5.1).  Runs as
    the ``k = 1`` view of :func:`dense_iteration_batched` (one kernel
    stack; bit-identical states and ledger charges).
    """
    batch = dense_iteration_batched(
        G,
        _as_batch(states),
        spec,
        weight_scale=weight_scale,
        ledgers=_as_ledgers(ledger),
    )
    return batch.as_flat()


def run_dense(
    G: Graph,
    spec: FilterSpec,
    *,
    sources: Iterable[int] | None = None,
    h: int | None = None,
    x0: FlatStates | None = None,  # shape: csr(n)
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    """Run the dense engine for ``h`` iterations or to the fixpoint.

    Returns ``(states, iterations)``.  With ``h=None``, iterates until the
    filtered state vector stabilizes (at most ``SPD(G) + 1`` iterations per
    Definition 2.11), performing at most ``max_iterations`` iterations
    (default ``n + 1``) — the same cap semantics as
    :func:`repro.mbf.engine.run_to_fixpoint` and
    :meth:`repro.oracle.HOracle.run`.

    The serial driver *is* the ``k = 1`` view of :func:`run_dense_batched`
    (LE filters additionally take the batched incremental prune/merge
    path), so there is exactly one kernel stack to maintain.
    """
    if type(spec) is LEFilter:
        # Route the serial LE path through the batched incremental kernel
        # (k = 1): bit-identical lists, iteration counts, and ledger
        # charges (pinned by the dense-batched parity tests), ~2x faster.
        # Exact-type check: an LEFilter subclass with overridden behavior
        # must keep its own sort_keys/keep_mask and take the generic path.
        spec = BatchedLEFilter(spec.rank[None, :])
    states, iters = run_dense_batched(
        G,
        spec,
        1,
        sources=sources,
        h=h,
        x0=None if x0 is None else _as_batch(x0),
        max_iterations=max_iterations,
        ledgers=_as_ledgers(ledger),
    )
    return states.as_flat(), int(iters[0])


# ---------------------------------------------------------------------------
# Batched iteration kernels (the ensemble hot path)
# ---------------------------------------------------------------------------


def _virtual_edges(
    k: int, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate the directed edge set across ``k`` virtual node blocks."""
    if k == 1:
        return src, dst, w
    base = (np.arange(k, dtype=np.int64) * n)[:, None]
    vsrc = (base + src[None, :]).reshape(-1)
    vdst = (base + dst[None, :]).reshape(-1)
    vw = np.broadcast_to(w, (k, w.size)).reshape(-1).copy()
    return vsrc, vdst, vw


def _stable_lexsort(keys: tuple) -> np.ndarray:
    """``np.lexsort`` semantics via composed stable argsorts.

    Identical permutation (stable lexicographic order is unique); integer
    keys get NumPy's radix path, which is what makes the batched global
    sort competitive with many small per-sample sorts.
    """
    order: np.ndarray | None = None
    for key in keys:
        key = np.asarray(key)
        sub = key if order is None else key[order]
        o = np.argsort(sub, kind="stable")
        order = o if order is None else order[o]
    assert order is not None
    return order


def _charge_sample_iteration(
    ledgers: Sequence[CostLedger] | None, emitted: np.ndarray
) -> None:
    """Charge the Lemma 2.3 model cost of one iteration to each sample.

    Mirrors the serial kernels exactly: ``emitted[s]`` parallel work for
    propagation, an ``emitted[s]``-key sort plus an ``emitted[s]``-item
    filter scan for aggregation; samples that emitted nothing (empty
    states) are charged nothing, as in the serial early-return.
    """
    if ledgers is None:
        return
    for led, e in zip(ledgers, emitted):
        e = int(e)
        if e == 0:
            continue
        led.parallel_for(e, 1, 1, label="propagate")
        led.sort(e, label="aggregate-sort")
        led.parallel_for(e, 1, 1, label="filter")


def propagate_batched(
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    src: np.ndarray,  # shape: (E,) int64 frozen
    dst: np.ndarray,  # shape: (E,) int64 frozen
    w: np.ndarray,  # shape: (E,) float64 frozen
    *,
    include_self: bool = True,  # shape: scalar
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`propagate`: targets are composite ``sample*n + v``.

    Entry ids remain actual vertex ids; per-sample model costs are charged
    to ``ledgers`` (one per sample) when given.
    """
    k, n = states.k, states.n
    vsrc, vdst, vw = _virtual_edges(k, n, src, dst, w)
    vtgt, ids, dists = propagate(
        states.as_flat(), vsrc, vdst, vw, include_self=include_self
    )
    if ledgers is not None:
        per = np.bincount(vtgt // n, minlength=k)
        for led, e in zip(ledgers, per):
            led.parallel_for(int(e), 1, 1, label="propagate")
    return vtgt, ids, dists


def aggregate_batched(
    k: int,  # shape: scalar
    n: int,  # shape: scalar
    vtgt: np.ndarray,  # shape: (m,) int64 frozen
    ids: np.ndarray,  # shape: (m,) int64 frozen
    dists: np.ndarray,  # shape: (m,) float64 frozen
    spec: FilterSpec,
    *,
    ledgers: Sequence[CostLedger] | None = None,
) -> BatchedFlatStates:  # shape: -> csr(k*n)
    """Batched :func:`aggregate`: one global stable sort over all samples.

    The composite target ``sample * n + v`` is the primary sort key, so
    one pass groups every sample's every node; sample-aware filters
    (:class:`BatchedLEFilter`) recover the sample from the composite id.
    Per-sample results are bit-identical to ``k`` serial aggregations.
    """
    kn = k * n
    E = int(vtgt.size)
    if ledgers is not None and E:
        per = np.bincount(vtgt // n, minlength=k)
        for led, e in zip(ledgers, per):
            e = int(e)
            if e:
                led.sort(e, label="aggregate-sort")
                led.parallel_for(e, 1, 1, label="filter")
    if E == 0:
        return BatchedFlatStates(
            k, n, np.zeros(kn + 1, dtype=np.int64), ids[:0], dists[:0]
        )
    keys = spec.sort_keys(ids, dists, vtgt)
    order = _stable_lexsort(keys + (vtgt,))
    tgt_s, ids_s, dists_s = vtgt[order], ids[order], dists[order]
    seg_start = np.ones(E, dtype=bool)
    seg_start[1:] = tgt_s[1:] != tgt_s[:-1]
    seg_id = np.cumsum(seg_start) - 1
    keep = spec.keep_mask(tgt_s, ids_s, dists_s, seg_id, kn)
    kept_tgt = tgt_s[keep]
    counts = np.bincount(kept_tgt, minlength=kn)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return BatchedFlatStates(k, n, offsets, ids_s[keep], dists_s[keep])


def _segment_search(
    offsets: np.ndarray,
    seg_dists: np.ndarray,
    tgt: np.ndarray,
    d: np.ndarray,
    *,
    strict: bool,
) -> np.ndarray:
    """Vectorized per-segment binary search.

    Returns, per query, ``offsets[tgt] + #{entries in segment tgt with
    dist < d}`` (``strict=True``) or ``... <= d`` (``strict=False``) —
    the segmented equivalent of :func:`np.searchsorted` left/right.
    Sibling of :func:`segmented_searchsorted` (see there for when to use
    which).
    """
    lo = offsets[tgt].copy()
    hi = offsets[tgt + 1].copy()
    if seg_dists.size == 0 or lo.size == 0:
        return lo
    limit = seg_dists.size - 1
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        mv = seg_dists[np.minimum(mid, limit)]
        go = np.zeros(lo.size, dtype=bool)
        if strict:
            go[active] = mv[active] < d[active]
        else:
            go[active] = mv[active] <= d[active]
        lo = np.where(go, mid + 1, lo)
        hi = np.where(go | ~active, hi, mid)
    return lo


def _le_iteration_incremental(
    G: Graph,
    states: BatchedFlatStates,
    spec: BatchedLEFilter,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """One batched LE iteration via prune + staircase merge.

    Exactness argument: with ``include_self`` the target's current list is
    part of every merge, so a propagated entry that some current entry
    ``(d', r')`` dominates (``d' <= d`` and ``r' <= r``; equality of rank
    means the identical vertex) can never survive the staircase — the
    dominator precedes it in ``(dist, rank)`` order and pins the running
    minimum below its rank.  Pruning those entries first (a segmented
    binary search against the current staircase) and sorting only the
    survivors yields the same survivors in the same order as the full
    sort, bit for bit.  Returns ``(next_states, changed)`` where
    ``changed[s]`` says sample ``s``'s state moved (``False`` == fixpoint
    reached, detected for free: nothing was inserted and nothing dropped).
    """
    k, n = states.k, states.n
    kn = k * n
    src, dst, w = G.directed_edges()
    if weight_scale != 1.0:
        w = w * weight_scale
    # Rebuilt per call; measured ~2% of an iteration, and any cross-call
    # cache would need invalidation on every active-set compaction.
    vsrc, vdst, vw = _virtual_edges(k, n, src, dst, w)
    cur = states.as_flat()
    vtgt, ids, dists = propagate(cur, vsrc, vdst, vw, include_self=False)
    # Model cost: the serial engine emits the self entries too and sorts
    # the full emission; charge that canonical amount per sample.
    emitted = np.bincount(vtgt // n, minlength=k) + states.sample_totals()
    _charge_sample_iteration(ledgers, emitted)
    ccounts = np.diff(cur.offsets)
    cur_own = np.repeat(np.arange(kn, dtype=np.int64), ccounts)
    cur_rank = spec.entry_ranks(cur_own, cur.ids)
    # -- prune: dominated-or-duplicate against the current staircase -------
    er = spec.entry_ranks(vtgt, ids)
    upper = _segment_search(cur.offsets, cur.dists, vtgt, dists, strict=False)
    has_pred = upper > cur.offsets[vtgt]
    pred_rank = cur_rank[np.maximum(upper - 1, 0)] if cur.total else er
    survives = ~(has_pred & (pred_rank <= er))
    bt, bi, bd, br = vtgt[survives], ids[survives], dists[survives], er[survives]
    changed = np.zeros(k, dtype=bool)
    if bt.size == 0:
        return states, changed
    # -- sort the (small) survivor set by (segment, dist, rank) ------------
    order = _stable_lexsort((br, bd, bt))
    bt, bi, bd, br = bt[order], bi[order], bd[order], br[order]
    # -- merge into the current staircases ---------------------------------
    bcounts = np.bincount(bt, minlength=kn)
    boffsets = np.concatenate([[0], np.cumsum(bcounts)])
    within_b = np.arange(bt.size) - boffsets[bt]
    # Survivors precede equal-dist current entries (their rank is strictly
    # smaller — otherwise the prune would have caught them), so their
    # insertion point counts current entries with *strictly* smaller dist.
    ins = _segment_search(cur.offsets, cur.dists, bt, bd, strict=True)
    loc = ins - cur.offsets[bt]
    mcounts = ccounts + bcounts
    moffsets = np.concatenate([[0], np.cumsum(mcounts)])
    total = int(moffsets[-1])
    bpos = moffsets[bt] + loc + within_b
    m_ids = np.empty(total, dtype=np.int64)
    m_dists = np.empty(total, dtype=np.float64)
    m_rank = np.empty(total, dtype=np.int64)
    occupied = np.zeros(total, dtype=bool)
    occupied[bpos] = True
    cpos = np.flatnonzero(~occupied)
    m_ids[bpos], m_dists[bpos], m_rank[bpos] = bi, bd, br
    m_ids[cpos], m_dists[cpos], m_rank[cpos] = cur.ids, cur.dists, cur_rank
    # -- staircase over the merged lists -----------------------------------
    m_tgt = np.repeat(np.arange(kn, dtype=np.int64), mcounts)
    seg_start = np.ones(total, dtype=bool)
    seg_start[1:] = m_tgt[1:] != m_tgt[:-1]
    seg_id = np.cumsum(seg_start) - 1
    adjusted = m_rank - seg_id * (n + 1)
    run_min = np.minimum.accumulate(adjusted)
    keep = np.ones(total, dtype=bool)
    keep[1:] = adjusted[1:] < run_min[:-1]
    # -- per-sample fixpoint detection, for free ---------------------------
    b_kept = keep[bpos]
    c_dropped = ~keep[cpos]
    changed = (
        np.bincount(bt[b_kept] // n, minlength=k)
        + np.bincount(cur_own[c_dropped] // n, minlength=k)
    ) > 0
    ncounts = np.bincount(m_tgt[keep], minlength=kn)
    noffsets = np.concatenate([[0], np.cumsum(ncounts)])
    nxt = BatchedFlatStates(k, n, noffsets, m_ids[keep], m_dists[keep])
    return nxt, changed


def _check_batch_filter(spec: FilterSpec, states: BatchedFlatStates) -> bool:
    """Whether ``spec`` takes the incremental LE path (validating shape)."""
    if not isinstance(spec, BatchedLEFilter):
        return False
    if spec.k != states.k or spec.n != states.n:
        raise ValueError(
            f"filter batch shape ({spec.k}, {spec.n}) does not match "
            f"states ({states.k}, {states.n})"
        )
    return True


def _generic_iteration_batched(
    G: Graph,
    states: BatchedFlatStates,
    spec: FilterSpec,
    weight_scale: float,
    ledgers: Sequence[CostLedger] | None,
) -> BatchedFlatStates:
    """The generic (sample-oblivious filter) batched iteration body."""
    src, dst, w = G.directed_edges()
    if weight_scale != 1.0:
        w = w * weight_scale
    vtgt, ids, dists = propagate_batched(
        states, src, dst, w, include_self=True, ledgers=ledgers
    )
    return aggregate_batched(
        states.k, states.n, vtgt, ids, dists, spec, ledgers=ledgers
    )


def dense_iteration_batched_ex(
    G: Graph,
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """One batched iteration, plus a ``(k,)`` per-sample ``changed`` flag.

    This is the contract batched fixpoint drivers (here and in
    :meth:`repro.oracle.HOracle.h_iteration_batched`) build on — the
    incremental LE path derives the flags for free, so drivers should use
    them instead of re-comparing states.  Use
    :func:`dense_iteration_batched` when the flags are not needed: the
    generic path here pays a state-sized comparison for them.
    """
    if _check_batch_filter(spec, states):
        return _le_iteration_incremental(
            G, states, spec, weight_scale=weight_scale, ledgers=ledgers
        )
    nxt = _generic_iteration_batched(G, states, spec, weight_scale, ledgers)
    return nxt, ~states.sample_equal(nxt)


def dense_iteration_batched(
    G: Graph,
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    *,
    weight_scale: float = 1.0,
    ledgers: Sequence[CostLedger] | None = None,
) -> BatchedFlatStates:
    """Batched :func:`dense_iteration`: ``r^V A x`` for all ``k`` samples.

    For :class:`BatchedLEFilter` the incremental prune/merge path runs;
    any other :class:`FilterSpec` (e.g. :class:`MinFilter`) goes through
    the generic one-global-sort path.  Either way each sample's result is
    bit-identical to a serial :func:`dense_iteration` on that sample.
    """
    if _check_batch_filter(spec, states):
        return _le_iteration_incremental(
            G, states, spec, weight_scale=weight_scale, ledgers=ledgers
        )[0]
    return _generic_iteration_batched(G, states, spec, weight_scale, ledgers)


def take_active_samples(
    keep: np.ndarray,  # shape: (k,) bool frozen
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    ledgers: Sequence[CostLedger] | None,
) -> tuple[BatchedFlatStates, FilterSpec, list[CostLedger] | None]:
    """Re-slice a batch triple to the still-active sample positions.

    The per-sample fixpoint-masking drivers (``run_dense_batched``,
    ``HOracle.run_batch``, the oracle's inner early-exit chains) all
    compact the batch the same way — states, filter, and per-sample
    ledgers must shrink in lockstep or samples silently swap ledgers.
    """
    return (
        states.take(keep),
        spec.take(keep),
        None if ledgers is None else [ledgers[int(p)] for p in keep],
    )


def run_batched_fixpoint(
    step,
    states: BatchedFlatStates,  # shape: csr(k*n) frozen
    spec: FilterSpec,
    ledgers: Sequence[CostLedger] | None,
    cap: int,  # shape: scalar
    *,
    freeze_next: bool = False,
    error: str | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """Iterate ``step`` with per-sample convergence masking.

    The one masked-fixpoint loop shared by every batched driver
    (:func:`run_dense_batched`, ``HOracle.run_batch``, and the oracle's
    inner early-exit chains).  ``step(states, spec, ledgers)`` advances
    the whole batch and returns ``(next, changed)`` where ``changed`` may
    be ``None`` (the loop then compares states itself).  Samples whose
    ``changed`` flag clears are frozen — their pre-step state
    (``freeze_next=False``, the serial "return the state the confirming
    iteration reproduced" convention) or post-step state
    (``freeze_next=True``, the serial inner-chain ``y = nxt; break``
    convention; bitwise equal either way) — and masked out of further
    steps, so their ledgers stop accruing.

    Returns ``(final, iterations)`` over all samples in original order.
    With ``error`` set, samples still unconverged after ``cap`` steps
    raise ``RuntimeError(error)``; with ``error=None`` they keep their
    last state and report ``iterations = cap``.
    """
    k = states.k
    iters = np.zeros(k, dtype=np.int64)
    done: list[FlatStates | None] = [None] * k
    active = np.arange(k)
    cur, cur_spec, cur_ledgers = states, spec, ledgers
    for i in range(cap):
        nxt, changed = step(cur, cur_spec, cur_ledgers)
        if changed is None:
            changed = ~cur.sample_equal(nxt)
        if changed.all():
            cur = nxt
            continue
        frozen_src = nxt if freeze_next else cur
        for pos in np.flatnonzero(~changed):
            s = int(active[pos])
            done[s] = frozen_src.sample_states(int(pos))
            iters[s] = i
        keep = np.flatnonzero(changed)
        if keep.size == 0:
            active = active[:0]
            break
        active = active[keep]
        cur, cur_spec, cur_ledgers = take_active_samples(
            keep, nxt, cur_spec, cur_ledgers
        )
    if active.size:
        if error is not None:
            raise RuntimeError(error)
        for pos, s in enumerate(active):
            done[int(s)] = cur.sample_states(pos)
            iters[int(s)] = cap
    return BatchedFlatStates.from_states([st for st in done if st is not None]), iters


def run_dense_batched(
    G: Graph,
    spec: FilterSpec,
    k: int,
    *,
    sources: Iterable[int] | None = None,
    h: int | None = None,
    x0: BatchedFlatStates | None = None,  # shape: csr(k*n)
    max_iterations: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    """Batched :func:`run_dense`: ``k`` samples to their own fixpoints.

    Fixpoints are detected per sample; converged samples are masked out of
    subsequent iterations (their ledgers stop accruing, exactly like the
    serial loop that stops after confirming the fixpoint).  Returns
    ``(states, iterations)`` with one iteration count per sample;
    ``ledgers``, when given, must hold one :class:`CostLedger` per sample
    and each receives charges identical to a serial :func:`run_dense` of
    that sample.
    """
    n = G.n
    if isinstance(spec, BatchedLEFilter) and (spec.k != k or spec.n != n):
        raise ValueError(
            f"filter batch shape ({spec.k}, {spec.n}) does not match (k={k}, n={n})"
        )
    if h is not None and h < 0:
        raise ValueError("h must be non-negative")
    ledger_list = list(ledgers) if ledgers is not None else None
    if ledger_list is not None and len(ledger_list) != k:
        raise ValueError(f"need one ledger per sample ({k}), got {len(ledger_list)}")
    states = x0 if x0 is not None else BatchedFlatStates.from_sources(k, n, sources)
    if states.k != k or states.n != n:
        raise ValueError("x0 batch shape mismatch")
    # Canonicalize the initial vector through the filter (r^V x^(0)).
    states = aggregate_batched(
        k,
        n,
        np.repeat(np.arange(k * n, dtype=np.int64), states.counts()),
        states.ids,
        states.dists,
        spec,
        ledgers=ledger_list,
    )
    if h is not None:
        for _ in range(h):
            states = dense_iteration_batched(G, states, spec, ledgers=ledger_list)
        return states, np.full(k, h, dtype=np.int64)
    cap = (n + 1) if max_iterations is None else max_iterations
    if cap < 1:
        raise ValueError("max_iterations must be >= 1")
    return run_batched_fixpoint(
        lambda s, sp, led: dense_iteration_batched_ex(G, s, sp, ledgers=led),
        states,
        spec,
        ledger_list,
        cap,
        error=fixpoint_error(cap, n, max_iterations),
    )
