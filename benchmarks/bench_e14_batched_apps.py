"""E14 — forest-backed applications: batched k-median DP + buy-at-bulk.

PRs 2-4 batched the LE-list fixpoints and the FRT tree construction, but
the Section 9-10 applications still walked the ensemble one tree at a time
through per-node Python DP loops — the last serial stage between the graph
and the paper's headline deliverables.  :mod:`repro.apps.batched` closes
it: the Theorem 9.2 k-median DP runs on the stacked
:class:`~repro.frt.forest.FRTForest` arrays for all samples in one
level-synchronous NumPy pass, and the Theorem 10.2 demand routing
accumulates every demand path through all trees via LCA-by-level
arithmetic.

Measured: wall-clock of the per-tree serial loops (``hst_kmedian_dp`` /
``route_demands_on_tree``, the bit-identical references) vs the fused
forest kernels across ``(n, r)``, plus an end-to-end ``Pipeline.solve_app``
timing.  Asserted shape: the forest k-median DP beats the per-tree loop
**≥ 3x at n=512, r=16** (the vectorized fold does ``O(levels ·
max_children · k)`` array ops instead of ``O(r · nodes · k²)`` Python
iterations), and the routing pass beats the per-demand walks ≥ 3x at the
same size.  Outputs are asserted bit-identical, not just close.
"""

import time

import numpy as np
import pytest

from repro.api import (
    as_rng,
    EmbeddingConfig,
    generators as gen,
    Pipeline,
    PipelineConfig,
)
from repro.apps.batched import (
    forest_tree_costs,
    hst_kmedian_dp_forest,
    route_demands_on_forest,
)
from repro.apps.buyatbulk import CableType, Demand, cable_cost, route_demands_on_tree
from repro.apps.kmedian import hst_kmedian_dp

CABLES = [CableType(1.0, 1.0), CableType(10.0, 4.0), CableType(100.0, 12.0)]


def _forest(n, r, seed):
    g = gen.random_graph(n, 3 * n, rng=seed)
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=seed
    )
    res = pipe.sample_ensemble(r, seed=seed)
    return g, res.forest


@pytest.mark.parametrize(
    "n,r,k,assert_speedup",
    [
        (128, 4, 4, None),  # CI smoke size
        (512, 16, 8, 3.0),  # the forest DP must beat the per-tree loop >= 3x
    ],
    ids=lambda v: str(v),
)
def test_e14_forest_kmedian_dp(benchmark, n, r, k, assert_speedup):
    """Per-tree serial DP loop vs one fused forest DP, bit-identical."""
    _, forest = _forest(n, r, seed=140)
    weights = as_rng(141).uniform(0.0, 3.0, n)

    t0 = time.perf_counter()
    serial = [hst_kmedian_dp(forest.tree(s), weights, k) for s in range(r)]
    serial_s = time.perf_counter() - t0

    def run_forest():
        best, out = np.inf, None
        for _ in range(3):
            t0 = time.perf_counter()
            out = hst_kmedian_dp_forest(forest, weights, k)
            best = min(best, time.perf_counter() - t0)
        return best, out

    forest_s, (costs, facs) = benchmark.pedantic(run_forest, rounds=1, iterations=1)
    for s, (want_cost, want_fac) in enumerate(serial):
        assert costs[s] == want_cost
        assert np.array_equal(facs[s], want_fac)
    speedup = serial_s / forest_s
    benchmark.extra_info.update(
        n=n,
        r=r,
        k=k,
        nodes=forest.total_nodes,
        serial_seconds=serial_s,
        forest_seconds=forest_s,
        speedup=speedup,
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"forest k-median DP only {speedup:.2f}x the per-tree loop at "
            f"n={n}, r={r} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize(
    "n,r,demands,assert_speedup",
    [
        (128, 4, 64, None),  # CI smoke size
        (512, 16, 256, 3.0),
    ],
    ids=lambda v: str(v),
)
def test_e14_forest_routing(benchmark, n, r, demands, assert_speedup):
    """Per-demand tree walks vs one LCA-by-level pass, bit-identical."""
    _, forest = _forest(n, r, seed=142)
    rng = as_rng(143)
    dms = []
    while len(dms) < demands:
        s, t = rng.integers(0, n, size=2)
        if s != t:
            dms.append(Demand(int(s), int(t), float(rng.integers(1, 20))))

    t0 = time.perf_counter()
    serial = [route_demands_on_tree(forest.tree(s), dms) for s in range(r)]
    serial_s = time.perf_counter() - t0

    def run_forest():
        best, out = np.inf, None
        for _ in range(3):
            t0 = time.perf_counter()
            out = route_demands_on_forest(forest, dms)
            best = min(best, time.perf_counter() - t0)
        return best, out

    forest_s, flows = benchmark.pedantic(run_forest, rounds=1, iterations=1)
    for s, want in enumerate(serial):
        lo, hi = forest.node_offsets[s], forest.node_offsets[s + 1]
        local = flows[lo:hi]
        got = {int(i): float(local[i]) for i in np.flatnonzero(local > 0)}
        assert got == want
    # The vectorized per-edge purchase must agree with the scalar one too.
    costs = forest_tree_costs(forest, flows, CABLES)
    for s, want in enumerate(serial):
        tree = forest.tree(s)
        ref = sum(
            cable_cost(f, CABLES) * tree.edge_weight_above(node)
            for node, f in want.items()
        )
        assert costs[s] == pytest.approx(ref, rel=1e-12)
    speedup = serial_s / forest_s
    benchmark.extra_info.update(
        n=n,
        r=r,
        demands=demands,
        serial_seconds=serial_s,
        forest_seconds=forest_s,
        speedup=speedup,
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"forest routing only {speedup:.2f}x the per-tree walks at "
            f"n={n}, r={r} (floor {assert_speedup}x)"
        )


def test_e14_solve_app_end_to_end(benchmark):
    """The facade entry: one ``solve_app`` call per application, timed.

    No speedup floor — the G-side work (candidate Dijkstras, path
    mapping) legitimately dominates at this size; the recorded split seeds
    the perf trajectory for the app layer.
    """
    n = 256
    g = gen.random_graph(n, 3 * n, rng=144)
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=145
    )
    rng = as_rng(146)
    dms = [
        Demand(int(s), int(t), float(rng.integers(1, 10)))
        for s, t in rng.integers(0, n, size=(32, 2))
        if s != t
    ]

    def run():
        km = pipe.solve_app("kmedian", k=8, trees=8)
        bab = pipe.solve_app("buy-at-bulk", demands=dms, cables=CABLES, trees=8)
        return km, bab

    km, bab = benchmark.pedantic(run, rounds=1, iterations=1)
    assert km.facilities.size <= 8
    assert bab.graph_cost >= bab.lower_bound * (1 - 1e-9)
    benchmark.extra_info.update(
        n=n,
        trees=8,
        kmedian_cost=float(km.cost),
        kmedian_candidates=km.meta["candidates"],
        bab_ratio_vs_lb=float(bab.ratio_vs_lower_bound),
        apps_seconds=pipe.timings["apps"],
    )
