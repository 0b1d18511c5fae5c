"""k-median via FRT/HST embeddings (Section 9, Theorem 9.2).

Pipeline, following Blelloch et al. [10] adapted to graph inputs:

1. **Candidate sampling** (Mettu–Plaxton-style successive sampling):
   maintain ``U = V``; each round sample ``Θ(k)`` candidates, drop the half
   of ``U`` closest to the sampled set; ``O(log(n/k))`` rounds leave
   ``O(k·log(n/k))`` candidates ``Q`` containing an ``O(1)``-approximate
   k-median solution.  Distance-to-sample queries are multi-source
   shortest-path computations — the forest-fire/MSSP query of Example 3.7
   (we run them with SciPy's Dijkstra; on ``H`` they would be one oracle
   query each, cf. DESIGN.md §2).
2. **Embed the candidate submetric** into an FRT tree.  The submetric is a
   complete graph of SPD 1 (the paper's own observation in Section 1.1),
   so a single LE-iteration pipeline — a direct-method
   :class:`repro.api.Pipeline` on the candidate clique — samples the tree.
3. **Exact tree DP.**  On an FRT tree (an HST) the k-median objective
   collapses: client ``c`` pays ``2·Σ_{j<ℓ} w_j`` where ``ℓ`` is the lowest
   ancestor level whose subtree holds an open facility, so
   ``cost(F) = Σ_{t: subtree(t)∩F=∅} W(t)·2·w(level(t))`` and a knapsack DP
   over the tree solves the problem *optimally* on the tree metric
   (:func:`hst_kmedian_dp`, the serial reference verified against brute
   force in tests; the pipeline runs all repetition trees at once through
   :func:`~repro.apps.batched.hst_kmedian_dp_forest`, bit-identical per
   tree).
4. **Map back**: open the chosen candidates in ``G``; the tree guarantee
   gives expected ``O(log k)``-approximation overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.configs import EmbeddingConfig, PipelineConfig
from repro.api.pipeline import Pipeline
from repro.apps.batched import hst_kmedian_dp_forest
from repro.frt.stretch import all_pairs
from repro.frt.tree import FRTTree
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances
from repro.util.rng import as_rng

__all__ = [
    "KMedianResult",
    "successive_sampling",
    "distance_to_set_via_oracle",
    "hst_kmedian_dp",
    "kmedian",
    "kmedian_cost",
    "kmedian_greedy",
    "kmedian_random",
]

INF = math.inf


@dataclass
class KMedianResult:
    """An opened facility set and its cost ``Σ_v dist(v, F, G)``."""

    facilities: np.ndarray
    cost: float
    meta: dict = field(default_factory=dict)


def kmedian_cost(G: Graph, facilities: np.ndarray) -> float:
    """Evaluate ``Σ_v dist(v, F, G)`` (Definition 9.1)."""
    facilities = np.asarray(facilities, dtype=np.int64)
    if facilities.size == 0:
        raise ValueError("need at least one facility")
    D = dijkstra_distances(G, facilities)
    return float(D.min(axis=0).sum())


def _distance_to_set_exact(G: Graph, S: np.ndarray) -> np.ndarray:
    """``dist(v, S, G)`` for all ``v`` via multi-source Dijkstra."""
    return dijkstra_distances(G, S).min(axis=0)


def distance_to_set_via_oracle(oracle, S: np.ndarray) -> np.ndarray:
    """``dist(v, S, H)`` for all ``v`` — the paper's Section-9 query.

    This is the MSSP/forest-fire query of Example 3.7 answered on the
    simulated graph ``H`` (Theorem 5.2): source-detection with ``k = 1``
    restricted to ``S``.  Returns H-distances, which dominate and
    ``(1+eps)^{O(log n)}``-approximate the G-distances — exactly what the
    sampling step needs.
    """
    from repro.mbf.dense import FlatStates, TopKFilter

    S = np.asarray(S, dtype=np.int64)
    if S.size == 0:
        raise ValueError("need at least one source")
    mask = np.zeros(oracle.n, dtype=bool)
    mask[S] = True
    states, _ = oracle.run(
        TopKFilter(1, source_mask=mask), x0=FlatStates.from_sources(oracle.n, S)
    )
    out = np.full(oracle.n, INF)
    counts = states.counts()
    has = counts > 0
    out[has] = states.dists[states.offsets[:-1][has]]
    return out


def successive_sampling(
    G: Graph, k: int, *, oversample: int = 2, rng=None, oracle=None
) -> np.ndarray:
    """Mettu–Plaxton successive sampling: ``O(k log(n/k))`` candidates.

    Each round samples ``oversample·k + O(log n)`` points of the surviving
    set ``U``, then removes the half of ``U`` closest to the sample; the
    union of samples (plus the final survivors) contains an
    ``O(1)``-approximate solution w.h.p. [34].

    With ``oracle`` (an :class:`~repro.oracle.HOracle` built on ``G``),
    distance-to-sample queries run on the simulated graph ``H`` as in the
    paper; otherwise exact multi-source Dijkstra is used (DESIGN.md §2).
    The constant-factor approximation of ``H`` only perturbs which half is
    "closest" by a constant factor — the guarantee survives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = as_rng(rng)
    n = G.n
    per_round = min(n, oversample * k + int(math.ceil(math.log2(max(n, 2)))))
    U = np.arange(n, dtype=np.int64)
    chosen: list[np.ndarray] = []
    while U.size > per_round:
        # reprolint: disable=quadratic-transient (draw from the uncovered-client
        # array: the permutation transient is O(|U|) <= O(n), linear in the
        # instance, and the Theorem 9.1 sampling bits are pinned by seeded tests)
        S = g.choice(U, size=per_round, replace=False)
        chosen.append(S)
        if oracle is not None:
            dist_to_S = distance_to_set_via_oracle(oracle, S)[U]
        else:
            dist_to_S = _distance_to_set_exact(G, S)[U]
        order = np.argsort(dist_to_S, kind="stable")
        keep = order[U.size // 2 :]  # drop the closest half
        U = np.sort(U[keep])
        S_set = np.isin(U, S)
        U = U[~S_set]
        if U.size == 0:
            break
    chosen.append(U)
    return np.unique(np.concatenate(chosen))


def hst_kmedian_dp(
    tree: FRTTree,
    leaf_weights: np.ndarray,
    k: int,
    *,
    allowed: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Optimal k-median on the HST metric of ``tree``.

    ``leaf_weights[v]`` is the client weight at vertex ``v``'s leaf;
    ``allowed[v]`` marks vertices usable as facilities (default: all).
    Returns ``(tree_cost, facility_vertices)`` — provably optimal for the
    tree metric (every client pays its tree distance to the nearest open
    facility).

    This is the *serial reference* (one tree, a per-node Python loop).
    Batch users — anything scoring a whole ensemble — should call
    :func:`~repro.apps.batched.hst_kmedian_dp_forest`, which runs every
    sample's DP in one vectorized pass with bit-identical costs and
    facility sets.

    DP: ``dp[t][j]`` = cost of tree edges inside ``subtree(t)`` with ``j``
    facilities placed inside; merging child ``c`` adds
    ``W(c)·2·w(level(c))`` when ``c`` receives no facility (its clients pay
    the edge above ``c``).  Root answer: ``min_{j<=k} dp[root][j]`` —
    opening fewer can never help, but equal-cost smaller sets are legal.
    """
    n = tree.n
    leaf_weights = np.asarray(leaf_weights, dtype=np.float64)
    if leaf_weights.shape != (n,) or np.any(leaf_weights < 0):
        raise ValueError("leaf_weights must be a non-negative (n,) array")
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not allowed.any():
        raise ValueError("no facility locations allowed")

    N = tree.num_nodes
    children = tree.children_lists()
    # Client weight below each node.
    W = np.zeros(N)
    for v in range(n):
        W[tree.level_ids[v]] += leaf_weights[v]
    # leaf node -> vertex
    leaf_vertex = np.full(N, -1, dtype=np.int64)
    for v in range(n):
        leaf_vertex[tree.leaf_of(v)] = v

    order = np.argsort(tree.node_level, kind="stable")  # leaves first
    dp: list[np.ndarray | None] = [None] * N
    # For backtracking: per node, per j, the list of (child, j_child).
    alloc: list[dict[int, list[tuple[int, int]]] | None] = [None] * N

    for node in order:
        node = int(node)
        if not children[node]:  # leaf
            v = int(leaf_vertex[node])
            if allowed[v]:
                dp[node] = np.array([0.0, 0.0])
                alloc[node] = {0: [], 1: [(node, 1)]}
            else:
                dp[node] = np.array([0.0])
                alloc[node] = {0: []}
            continue
        comb = np.array([0.0])
        comb_alloc: dict[int, list[tuple[int, int]]] = {0: []}
        for c in children[node]:
            cdp = dp[c]
            assert cdp is not None
            lvl_c = int(tree.node_level[c])
            penalty = 2.0 * tree.edge_weights[lvl_c] * W[c]
            child_cost = cdp.copy()
            child_cost[0] += penalty  # no facility below c: clients pay up
            new_size = min(k, comb.size - 1 + cdp.size - 1) + 1
            new = np.full(new_size, INF)
            new_alloc: dict[int, list[tuple[int, int]]] = {}
            for j1 in range(comb.size):
                if not np.isfinite(comb[j1]):
                    continue
                for j2 in range(cdp.size):
                    j = j1 + j2
                    if j >= new_size:
                        break
                    cand = comb[j1] + child_cost[j2]
                    if cand < new[j]:
                        new[j] = cand
                        new_alloc[j] = comb_alloc[j1] + [(c, j2)]
            comb = new
            comb_alloc = new_alloc
        dp[node] = comb
        alloc[node] = comb_alloc

    root = tree.root
    rdp = dp[root]
    assert rdp is not None
    jmax = min(k, rdp.size - 1)
    best_j = int(np.argmin(rdp[: jmax + 1]))
    best_cost = float(rdp[best_j])

    # Backtrack facilities.
    facilities: list[int] = []
    stack = [(root, best_j)]
    while stack:
        node, j = stack.pop()
        a = alloc[node]
        assert a is not None
        if not children[node]:
            if j == 1:
                facilities.append(int(leaf_vertex[node]))
            continue
        for c, jc in a[j]:
            if jc > 0:
                stack.append((c, jc))
    return best_cost, np.array(sorted(facilities), dtype=np.int64)


def kmedian(
    G: Graph,
    k: int,
    *,
    trees: int = 3,
    rng=None,
    candidates: np.ndarray | None = None,
    oracle=None,
) -> KMedianResult:
    """Theorem 9.2 pipeline: expected ``O(log k)``-approximate k-median.

    Samples ``trees`` FRT trees of the candidate submetric and keeps the
    best resulting solution (the standard repetition trick from the
    introduction of the paper).  The whole repetition batch runs through
    the forest-backed fast path: one ``Pipeline.sample_ensemble`` call
    embeds all trees into one forest and :func:`~repro.apps.batched.hst_kmedian_dp_forest` solves every
    tree's DP in one vectorized pass (bit-identical per tree to the serial
    :func:`hst_kmedian_dp` reference).  With ``oracle``, the
    candidate-sampling distance queries run on the simulated graph ``H``
    (the paper's mechanism); evaluation/weighting remain exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not G.is_connected():
        raise ValueError("k-median pipeline requires a connected graph")
    g = as_rng(rng)
    Q = (
        np.unique(np.asarray(candidates, dtype=np.int64))
        if candidates is not None
        else successive_sampling(G, k, rng=g, oracle=oracle)
    )
    if Q.size <= k:
        return KMedianResult(
            facilities=Q, cost=kmedian_cost(G, Q), meta={"candidates": Q.size}
        )
    # Client weights: every vertex is served by its nearest candidate.
    DQ = dijkstra_distances(G, Q)  # (|Q|, n)
    nearest = np.argmin(DQ, axis=0)
    weights = np.bincount(nearest, minlength=Q.size).astype(np.float64)
    # Candidate submetric as a complete graph (SPD 1); edge indices via the
    # exact triangular unranking (no (|Q|, |Q|) boolean-mask transient).
    sub = DQ[:, Q]
    iu, ju = all_pairs(Q.size)
    clique = Graph(
        Q.size, np.stack([iu, ju], axis=1), sub[iu, ju], validate=False
    )
    # The candidate submetric has SPD 1, so the direct pipeline samples each
    # tree in a single LE iteration; one batched ensemble serves all
    # repetitions, and one forest DP scores them all.
    pipe = Pipeline(
        clique, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=g
    )
    result = pipe.sample_ensemble(max(1, trees))
    _, facility_sets = hst_kmedian_dp_forest(result.forest, weights, k)
    best: tuple[float, np.ndarray] | None = None
    for fac_local in facility_sets:
        facilities = Q[fac_local]
        cost = kmedian_cost(G, facilities)
        if best is None or cost < best[0]:
            best = (cost, facilities)
    assert best is not None
    return KMedianResult(
        facilities=best[1],
        cost=best[0],
        meta={
            "candidates": int(Q.size),
            "trees": trees,
            "oracle": oracle is not None,
        },
    )


def kmedian_greedy(G: Graph, k: int) -> KMedianResult:
    """Greedy baseline: repeatedly open the facility reducing cost most."""
    if k < 1:
        raise ValueError("k must be >= 1")
    D = dijkstra_distances(G)
    current = np.full(G.n, INF)
    chosen: list[int] = []
    for _ in range(min(k, G.n)):
        totals = np.minimum(current[None, :], D).sum(axis=1)
        totals[chosen] = INF
        f = int(np.argmin(totals))
        chosen.append(f)
        current = np.minimum(current, D[f])
    return KMedianResult(
        facilities=np.array(sorted(chosen), dtype=np.int64),
        cost=float(current.sum()),
        meta={"baseline": "greedy"},
    )


def kmedian_random(G: Graph, k: int, *, rng=None) -> KMedianResult:
    """Uniform-random baseline."""
    g = as_rng(rng)
    # reprolint: disable=quadratic-transient (vertex draw: O(n) permutation,
    # linear in the instance; baseline bits are pinned by seeded tests)
    fac = np.sort(g.choice(G.n, size=min(k, G.n), replace=False))
    return KMedianResult(
        facilities=fac, cost=kmedian_cost(G, fac), meta={"baseline": "random"}
    )
