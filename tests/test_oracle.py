"""Tests for the H-oracle (Section 5, Theorem 5.2).

The oracle must agree *exactly* with running the same MBF-like algorithm on
the materialized graph H — that is the content of Lemma 5.1 + Eq. (5.9).
"""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.hopsets import hub_hopset, identity_hopset, rounded_hopset
from repro.mbf.dense import (
    BatchedLEFilter,
    FlatStates,
    LEFilter,
    MinFilter,
    TopKFilter,
    run_dense,
)
from repro.oracle import HOracle
from repro.pram import CostLedger
from repro.simulated import SimulatedGraph


from repro.graph.core import Graph
from repro.simulated.levels import sample_levels


def integerize(g: Graph, lo: int = 1, hi: int = 4, seed: int = 0) -> Graph:
    """Replace weights by random small integers.

    Integer weights (and the dyadic penalty base 1.5 below) make every path
    weight exactly representable, so the oracle and the materialized H
    compute bit-identical values and list-valued results compare exactly.
    """
    w = np.random.default_rng(seed).integers(lo, hi + 1, g.m).astype(np.float64)
    return Graph(g.n, g.edges, w, validate=False)


def make_instance(n=20, eps=0.5, seed=0, family="cycle"):
    if family == "cycle":
        g = integerize(gen.cycle(n, rng=seed), seed=seed)
    else:
        g = integerize(gen.random_graph(n, 2 * n, rng=seed), seed=seed)
    base = hub_hopset(g, d0=4, rng=seed + 1)
    hop = rounded_hopset(base, g, eps=eps) if eps > 0 else base
    levels, _ = sample_levels(n, seed + 2)
    H = SimulatedGraph.build(hop, levels=levels)
    oracle = HOracle(hop, levels=levels)
    return g, hop, H, oracle


class TestOracleMatchesMaterializedH:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_min_filter_h_iterations(self, h):
        g, hop, H, oracle = make_instance()
        GH = H.to_graph()
        want, _ = run_dense(GH, MinFilter(), h=h)
        got, _ = oracle.run(MinFilter(), h=h)
        assert got.to_matrix() == pytest.approx(want.to_matrix())

    def test_min_filter_fixpoint_distances(self):
        g, hop, H, oracle = make_instance()
        got, iters = oracle.run(MinFilter())
        assert got.to_matrix() == pytest.approx(H.distances())
        assert iters <= H.spd()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_le_filter_matches(self, seed):
        g, hop, H, oracle = make_instance(seed=seed)
        rank = np.random.default_rng(seed + 10).permutation(g.n)
        GH = H.to_graph()
        want, _ = run_dense(GH, LEFilter(rank))
        got, _ = oracle.run(LEFilter(rank))
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    def test_le_filter_random_graph(self):
        g, hop, H, oracle = make_instance(n=24, family="random", seed=5)
        rank = np.random.default_rng(3).permutation(g.n)
        GH = H.to_graph()
        want, _ = run_dense(GH, LEFilter(rank))
        got, _ = oracle.run(LEFilter(rank))
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    def test_topk_filter_matches(self):
        g, hop, H, oracle = make_instance(seed=7)
        S = list(range(0, g.n, 3))
        mask = np.zeros(g.n, dtype=bool)
        mask[S] = True
        spec = TopKFilter(2, 10.0, mask)
        x0 = FlatStates.from_sources(g.n, S)
        GH = H.to_graph()
        want, _ = run_dense(GH, spec, x0=x0, h=3)
        got, _ = oracle.run(spec, x0=FlatStates.from_sources(g.n, S), h=3)
        assert want.to_dicts() == pytest.approx(got.to_dicts())

    @pytest.mark.parametrize("seed", [0, 4])
    def test_batch_of_three_matches(self, seed):
        """An independent k > 1 reference for the batched oracle (``run``
        is its k = 1 view): every sample of ``run_batch`` equals the dense
        engine on the materialized ``H``."""
        g, hop, H, oracle = make_instance(seed=seed)
        GH = H.to_graph()
        rng = np.random.default_rng(seed + 20)
        ranks = np.stack([rng.permutation(g.n) for _ in range(3)])
        got, iters = oracle.run_batch(BatchedLEFilter(ranks), 3)
        assert iters.shape == (3,)
        for s in range(3):
            want, _ = run_dense(GH, LEFilter(ranks[s]))
            assert got.sample_states(s).to_dicts() == pytest.approx(want.to_dicts())
        got, iters = oracle.run_batch(MinFilter(), 3)
        want, _ = run_dense(GH, MinFilter())
        for s in range(3):
            assert got.sample_states(s).to_matrix() == pytest.approx(want.to_matrix())
        assert len(set(iters.tolist())) == 1

    def test_early_exit_is_lossless(self):
        g, hop, H, _ = make_instance(seed=9)
        rank = np.random.default_rng(4).permutation(g.n)
        o_fast = HOracle(hop, levels=np.zeros(g.n, dtype=np.int64), inner_early_exit=True)
        o_slow = HOracle(hop, levels=np.zeros(g.n, dtype=np.int64), inner_early_exit=False)
        a, _ = o_fast.run(LEFilter(rank))
        b, _ = o_slow.run(LEFilter(rank))
        assert a.to_dicts() == pytest.approx(b.to_dicts())
        assert sum(o_fast.inner_iterations_used) < sum(o_slow.inner_iterations_used)


    @pytest.mark.parametrize("early_exit", [True, False])
    def test_batched_inner_iterations_match_serial(self, early_exit):
        """Batched calls record the inner iterations they run: a k=3 batch
        totals exactly what three single-sample runs do."""
        g, hop, H, _ = make_instance(seed=9)
        rng = np.random.default_rng(5)
        ranks = np.stack([rng.permutation(g.n) for _ in range(3)])
        serial = HOracle(hop, levels=H.levels, inner_early_exit=early_exit)
        for r in ranks:
            serial.run(LEFilter(r))
        batched = HOracle(hop, levels=H.levels, inner_early_exit=early_exit)
        batched.run_batch(BatchedLEFilter(ranks), 3)
        assert sum(batched.inner_iterations_used) == sum(serial.inner_iterations_used)


class TestOracleSemantics:
    def test_exact_hopset_fixpoint_in_one_iteration(self):
        # eps = 0 ⇒ H is the exact metric ⇒ SPD(H) = 1.
        g = gen.cycle(18, rng=0)
        hop = hub_hopset(g, d0=3, rng=1)
        oracle = HOracle(hop, rng=2)
        states, iters = oracle.run(MinFilter())
        assert iters == 1
        from repro.graph.shortest_paths import dijkstra_distances

        assert states.to_matrix() == pytest.approx(dijkstra_distances(g))

    def test_fixpoint_fast_even_for_high_spd_graph(self):
        # The headline: G has SPD ~ n/2, the oracle fixpoints in O(log² n).
        n = 40
        g = gen.cycle(n, rng=1)
        base = hub_hopset(g, d0=5, rng=2)
        hop = rounded_hopset(base, g, eps=0.2)
        oracle = HOracle(hop, rng=3)
        _, iters = oracle.run(MinFilter())
        assert iters <= int(np.log2(n) ** 2)

    def test_sources_subset(self):
        g, hop, H, oracle = make_instance(seed=11)
        got, _ = oracle.run(MinFilter(), sources=[0, 5])
        GH = H.to_graph()
        want, _ = run_dense(GH, MinFilter(), sources=[0, 5])
        assert got.to_matrix() == pytest.approx(want.to_matrix())

    def test_ledger_charged(self):
        g, hop, H, oracle = make_instance(seed=13)
        ledger = CostLedger()
        oracle.run(MinFilter(), h=2, ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0

    def test_levels_validated(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        with pytest.raises(ValueError):
            HOracle(hop, levels=np.array([1, 2]))

    def test_penalty_base_validated(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        with pytest.raises(ValueError):
            HOracle(hop, penalty_base=0.9)

    def test_max_iterations_guard(self):
        g = gen.cycle(8, rng=0)
        hop = identity_hopset(g)
        oracle = HOracle(hop, rng=1)
        # Same cap semantics as repro.mbf.engine.run_to_fixpoint: a
        # non-positive cap is a caller error, a positive cap that is too
        # small to reach/detect the fixpoint is a RuntimeError.
        with pytest.raises(ValueError):
            oracle.run(MinFilter(), max_iterations=0)
        with pytest.raises(RuntimeError):
            oracle.run(MinFilter(), max_iterations=1)
