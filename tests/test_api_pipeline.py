"""The Pipeline facade: artifact caching, batch sampling, legacy parity."""

import json
import zipfile

import numpy as np
import pytest

from repro.api import (
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    OracleConfig,
    Pipeline,
    PipelineConfig,
    PipelineResult,
    generators as gen,
)
from repro.frt.embedding import (
    _draw_randomness,
    sample_frt_tree,
    sample_frt_tree_via_oracle,
)
from repro.frt.lelists import compute_le_lists_via_oracle
from repro.frt.tree import build_frt_tree
from repro.graph.core import Graph
from repro.graph.shortest_paths import dijkstra_distances
from repro.hopsets import hub_hopset, rounded_hopset
from repro.oracle import HOracle
from repro.pram import CostLedger
from repro.util.rng import spawn_rngs, split_seed


def _assert_same_embedding(a, b):
    assert np.array_equal(a.rank, b.rank)
    assert a.beta == b.beta
    assert a.iterations == b.iterations
    assert a.le_lists.to_dicts() == b.le_lists.to_dicts()
    assert np.array_equal(a.tree.distance_matrix(), b.tree.distance_matrix())


def _batch_children(seed, k):
    """The child generators ``sample_ensemble(k, seed=seed)`` samples from."""
    return spawn_rngs(split_seed(seed, 2)[1], k)


def _per_tree_loop(pipe, children):
    """The per-tree reference every ensemble tree must equal: one
    ``sample(rng=child)`` per child.  Returns the embeddings and ledgers."""
    ledgers = [CostLedger() for _ in children]
    embs = [pipe.sample(rng=c, ledger=led) for c, led in zip(children, ledgers)]
    return embs, ledgers


class TestLegacyParity:
    def test_oracle_sample_matches_hand_wired_legacy(self):
        """Pipeline.sample() is bit-identical to the pre-facade wiring
        (hub_hopset → rounded_hopset → HOracle → LE lists → tree) when the
        same generator is threaded through in the same order."""
        g = gen.cycle(20, wmin=1, wmax=2, rng=0)
        eps, d0, seed = 0.25, 4, 42

        rng = np.random.default_rng(seed)
        base = hub_hopset(g, d0, rng=rng)
        hopset = rounded_hopset(base, g, eps)
        oracle = HOracle(hopset, rng=rng)
        r, b = _draw_randomness(g.n, rng)
        lists, iters = compute_le_lists_via_oracle(oracle, r)
        wmin, _ = g.weight_bounds()
        legacy_tree = build_frt_tree(lists, r, b, wmin)

        pipe = Pipeline(
            g, PipelineConfig(hopset=HopsetConfig(eps=eps, d0=d0)), rng=seed
        )
        res = pipe.sample()
        assert np.array_equal(res.rank, r)
        assert res.beta == b
        assert res.iterations == iters
        assert np.array_equal(res.tree.distance_matrix(), legacy_tree.distance_matrix())

    def test_wrapper_delegates_to_pipeline(self):
        g = gen.grid(4, 4, rng=1)
        a = sample_frt_tree_via_oracle(g, eps=0.25, d0=3, rng=5)
        pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=3)), rng=5)
        b = pipe.sample()
        _assert_same_embedding(a, b)
        assert a.meta["pipeline"] == b.meta["pipeline"] == "oracle"

    def test_direct_wrapper_parity(self):
        g = gen.cycle(12, rng=2)
        a = sample_frt_tree(g, rng=9)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct")), rng=9
        )
        b = pipe.sample()
        _assert_same_embedding(a, b)
        assert b.meta["pipeline"] == "direct"
        assert b.meta["backend"] == "dense"


class TestArtifactCaching:
    def test_one_build_across_samples(self):
        g = gen.cycle(16, rng=3)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        for _ in range(3):
            pipe.sample()
        assert pipe.stats["hopset_builds"] == 1
        assert pipe.stats["oracle_builds"] == 1
        assert pipe.stats["samples"] == 3
        assert pipe.hopset() is pipe.hopset()
        assert pipe.oracle() is pipe.oracle()

    def test_injected_artifacts_not_counted(self):
        g = gen.cycle(16, rng=3)
        hop = rounded_hopset(hub_hopset(g, 3, rng=0), g, 0.25)
        pipe = Pipeline(g, PipelineConfig(), hopset=hop, rng=1)
        pipe.sample()
        assert pipe.hopset() is hop
        assert pipe.stats["hopset_builds"] == 0
        assert pipe.stats["oracle_builds"] == 1

    def test_direct_method_builds_nothing(self):
        g = gen.cycle(10, rng=4)
        pipe = Pipeline(
            g, PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=0)
        )
        pipe.sample()
        assert pipe.stats["hopset_builds"] == 0
        assert pipe.stats["oracle_builds"] == 0

    def test_timings_recorded(self):
        g = gen.cycle(16, rng=3)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        pipe.sample()
        assert pipe.timings["hopset"] >= 0
        assert pipe.timings["oracle"] >= 0
        assert pipe.timings["samples"] >= 0


class TestEnsemble:
    def test_bit_identical_across_runs_and_reuses_one_build(self):
        """The acceptance contract: k trees, deterministic under a fixed
        seed, one hopset/oracle build amortized over the batch."""
        g = gen.cycle(24, wmin=1, wmax=2, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))

        results = []
        for _ in range(2):
            pipe = Pipeline(g, cfg)
            res = pipe.sample_ensemble(k=8, seed=0)
            assert len(res) == 8
            assert res.meta["stats"]["hopset_builds"] == 1
            assert res.meta["stats"]["oracle_builds"] == 1
            assert res.meta["stats"]["samples"] == 8
            results.append(res)
        for a, b in zip(results[0], results[1]):
            _assert_same_embedding(a, b)

    def test_samples_are_independent(self):
        g = gen.cycle(16, rng=6)
        res = Pipeline(g, PipelineConfig()).sample_ensemble(k=4, seed=1)
        betas = {e.beta for e in res}
        assert len(betas) == 4  # distinct child streams

    def test_ledgers_join_as_parallel_branches(self):
        g = gen.cycle(16, rng=6)
        res = Pipeline(g, PipelineConfig()).sample_ensemble(k=3, seed=2)
        assert len(res.ledgers) == 3
        assert all(led.work > 0 for led in res.ledgers)
        assert res.ledger.work == sum(led.work for led in res.ledgers)
        assert res.ledger.depth == max(led.depth for led in res.ledgers)

    def test_workers_match_serial(self):
        """A pooled ensemble equals the per-tree sample() loop."""
        g = gen.cycle(12, rng=7)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=3))
        pipe = Pipeline(g, cfg)
        parallel = pipe.sample_ensemble(
            k=3, seed=3, execution=ExecutionConfig(workers=2)
        )
        serial, ledgers = _per_tree_loop(pipe, _batch_children(3, 3))
        for a, b in zip(serial, parallel):
            _assert_same_embedding(a, b)
        assert parallel.ledger.work == sum(led.work for led in ledgers)

    def test_seed_none_continues_pipeline_stream(self):
        g = gen.cycle(12, rng=7)
        a = Pipeline(g, PipelineConfig(seed=11)).sample_ensemble(k=2)
        b = Pipeline(g, PipelineConfig(seed=11)).sample_ensemble(k=2)
        for x, y in zip(a, b):
            _assert_same_embedding(x, y)

    def test_batch_seed_does_not_shift_pipeline_stream(self):
        """Regression: a seeded batch must not replace the pipeline's own
        RNG stream — later sample() calls draw from the constructor
        stream, as if the batch had never happened."""
        g = gen.cycle(16, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        p1 = Pipeline(g, cfg, rng=0)
        p1.sample_ensemble(k=2, seed=5)
        after_batch = p1.sample()
        p2 = Pipeline(g, cfg, rng=0, hopset=p1.hopset(), oracle=p1.oracle())
        _assert_same_embedding(after_batch, p2.sample())

    def test_size_validated(self):
        g = gen.cycle(8, rng=8)
        with pytest.raises(ValueError):
            Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(k=0)

    def test_result_structure_and_provenance(self):
        g = gen.cycle(16, rng=9)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.5, d0=3), seed=4)
        res = Pipeline(g, cfg).sample_ensemble(k=2)
        assert isinstance(res, PipelineResult)
        assert res.size == len(res.trees) == len(res.iterations) == 2
        assert res.ensemble().size == 2
        assert res.timings["total"] > 0
        # meta round-trips back into an identical config
        assert PipelineConfig.from_dict(res.meta["config"]) == cfg
        assert res.meta["n"] == g.n and res.meta["m"] == g.m
        assert res.meta["method"] == "oracle"
        assert res.meta["hopset"]["d"] == 7
        assert res.meta["oracle"]["penalty_base"] == pytest.approx(1.5)

    def test_batch_timings_are_per_batch(self):
        """Regression: result timings cover only this batch — stages done
        before the call (artifact builds, earlier samples) are excluded."""
        g = gen.cycle(16, rng=9)
        pipe = Pipeline(g, PipelineConfig(seed=4))
        pipe.sample()  # builds artifacts and samples before the batch
        res = pipe.sample_ensemble(k=2)
        assert "samples" in res.timings
        assert "hopset" not in res.timings and "oracle" not in res.timings
        assert res.timings["samples"] <= res.timings["total"] + 1e-9
        par = Pipeline(g, PipelineConfig(seed=4)).sample_ensemble(
            k=2, execution=ExecutionConfig(workers=2)
        )
        assert "samples" in par.timings  # pool wall-time recorded too

    def test_empty_result_rejected(self):
        forest = Pipeline(gen.cycle(8, rng=8), PipelineConfig(seed=0)).sample_ensemble(
            k=1
        ).forest
        with pytest.raises(ValueError):
            PipelineResult(embeddings=[], ledger=CostLedger(), forest=forest)


class TestDistanceQueries:
    def test_metric_dominates_and_respects_bound(self):
        g = gen.random_graph(20, 50, rng=10)
        pipe = Pipeline(g, PipelineConfig(seed=1))
        dq = pipe.distance_oracle()
        D = dijkstra_distances(g)
        off = ~np.eye(g.n, dtype=bool)
        M = dq.matrix()
        assert np.all(M[off] >= D[off] - 1e-9)
        assert float((M[off] / D[off]).max()) <= dq.stretch_bound + 1e-9
        assert dq.query(0, 5) == M[0, 5]
        assert np.array_equal(dq.distances([0, 1], [5, 6]), M[[0, 1], [5, 6]])
        assert dq.n == g.n

    def test_metric_cached_and_shares_artifacts(self):
        g = gen.cycle(16, rng=11)
        pipe = Pipeline(g, PipelineConfig(seed=2))
        pipe.sample()  # builds hopset + oracle
        m1 = pipe.embed_metric()
        m2 = pipe.embed_metric()
        assert m1 is m2
        assert pipe.stats["hopset_builds"] == 1
        assert pipe.stats["metric_builds"] == 1

    def test_metric_ledger_charged_even_when_cached(self):
        """Regression: a cached metric must not silently report zero cost
        when the caller asks for a ledger-instrumented run."""
        g = gen.cycle(12, rng=11)
        pipe = Pipeline(g, PipelineConfig(seed=2))
        pipe.embed_metric()  # warm the cache
        ledger = CostLedger()
        pipe.embed_metric(ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0

    def test_penalty_base_override(self):
        g = gen.cycle(16, rng=12)
        pipe = Pipeline(
            g,
            PipelineConfig(
                hopset=HopsetConfig(eps=0.5, d0=3),
                oracle=OracleConfig(penalty_base=1.6),
                seed=3,
            ),
        )
        assert pipe.oracle().penalty_base == pytest.approx(1.6)

    def test_penalty_base_below_theorem_bound_rejected(self):
        """penalty_base < 1 + eps would report a stretch bound the metric
        cannot honor (Theorem 4.5); the pipeline rejects it at build time."""
        g = gen.cycle(16, rng=12)
        pipe = Pipeline(
            g,
            PipelineConfig(
                hopset=HopsetConfig(eps=0.5, d0=3),
                oracle=OracleConfig(penalty_base=1.1),
                seed=3,
            ),
        )
        with pytest.raises(ValueError, match="Theorem 4.5"):
            pipe.oracle()


class TestHopsetKinds:
    def test_identity_kind_single_iteration(self):
        g = gen.grid(4, 4, rng=13)
        pipe = Pipeline(
            g, PipelineConfig(hopset=HopsetConfig(kind="identity", eps=0.0), seed=0)
        )
        res = pipe.sample()
        assert res.iterations == 1  # H is the exact metric
        assert pipe.hopset().extra_edges == 0

    def test_exact_closure_kind(self):
        g = gen.cycle(12, rng=14)
        pipe = Pipeline(
            g,
            PipelineConfig(hopset=HopsetConfig(kind="exact-closure", eps=0.0), seed=0),
        )
        res = pipe.sample()
        assert pipe.hopset().d == 1
        D = dijkstra_distances(g)
        assert np.all(res.tree.distance_matrix() >= D - 1e-9)


class TestValidationAndBackends:
    def test_disconnected_rejected(self):
        g = Graph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="connected"):
            Pipeline(g, PipelineConfig())

    def test_bad_types_rejected(self):
        g = gen.cycle(8, rng=15)
        with pytest.raises(TypeError):
            Pipeline("not-a-graph", PipelineConfig())
        with pytest.raises(TypeError):
            Pipeline(g, {"seed": 0})

    def test_unknown_backend_fails_at_sample_time(self):
        g = gen.cycle(8, rng=15)
        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct", backend="missing")
        )
        pipe = Pipeline(g, cfg, rng=0)  # lazy: construction succeeds
        with pytest.raises(KeyError, match="missing"):
            pipe.sample()

    def test_reference_backend_end_to_end(self):
        g = gen.cycle(10, rng=16)
        direct_ref = Pipeline(
            g,
            PipelineConfig(
                embedding=EmbeddingConfig(method="direct", backend="reference")
            ),
            rng=4,
        ).sample()
        direct_dense = Pipeline(
            g,
            PipelineConfig(embedding=EmbeddingConfig(method="direct")),
            rng=4,
        ).sample()
        _assert_same_embedding(direct_ref, direct_dense)
        assert direct_ref.meta["backend"] == "reference"

    def test_ledger_threaded_through_sample(self):
        g = gen.cycle(12, rng=17)
        ledger = CostLedger()
        Pipeline(g, PipelineConfig(seed=5)).sample(ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0


class TestBatchedEnsemble:
    """Every ensemble runs the batched LE-list driver once per sample and
    builds one forest; the contract is bit-identical output vs the
    per-tree ``sample(rng=child)`` loop — same trees, same per-sample LE
    lists, same iteration counts, same per-sample ledger charges."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_oracle_path_parity(self, k):
        g = gen.cycle(24, wmin=1, wmax=2, rng=5)
        pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)))
        batched = pipe.sample_ensemble(k=k, seed=0)
        serial, _ = _per_tree_loop(pipe, _batch_children(0, k))
        for a, b in zip(serial, batched):
            _assert_same_embedding(a, b)

    @pytest.mark.parametrize("k", [1, 5])
    def test_direct_dense_path_parity(self, k):
        g = gen.random_graph(30, 70, rng=6)
        pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
        batched = pipe.sample_ensemble(k=k, seed=1)
        serial, _ = _per_tree_loop(pipe, _batch_children(1, k))
        for a, b in zip(serial, batched):
            _assert_same_embedding(a, b)

    def test_ledger_work_totals_match_serial(self):
        g = gen.cycle(20, rng=7)
        for cfg in (
            PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)),
            PipelineConfig(embedding=EmbeddingConfig(method="direct")),
        ):
            pipe = Pipeline(g, cfg)
            batched = pipe.sample_ensemble(k=3, seed=2)
            _, ledgers = _per_tree_loop(pipe, _batch_children(2, 3))
            assert [led.work for led in batched.ledgers] == [
                led.work for led in ledgers
            ]
            assert [led.depth for led in batched.ledgers] == [
                led.depth for led in ledgers
            ]
            assert batched.ledger.work == sum(led.work for led in ledgers)
            assert batched.ledger.depth == max(led.depth for led in ledgers)

    def test_trees_identical_not_just_metrically(self):
        """Beyond the distance matrix: the structure arrays coincide."""
        g = gen.grid(4, 5, rng=8)
        pipe = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
        batched = pipe.sample_ensemble(k=3, seed=3)
        serial, _ = _per_tree_loop(pipe, _batch_children(3, 3))
        for a, b in zip(serial, batched):
            assert np.array_equal(a.tree.level_ids, b.tree.level_ids)
            assert np.array_equal(a.tree.parent, b.tree.parent)
            assert np.array_equal(a.tree.node_leading, b.tree.node_leading)
            assert np.array_equal(a.tree.edge_weights, b.tree.edge_weights)

    def test_seed_none_continues_pipeline_stream(self):
        g = gen.cycle(12, rng=9)
        cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=11)
        a = Pipeline(g, cfg).sample_ensemble(k=2)
        # The direct method builds nothing, so the children are the first
        # draws of the config-seeded stream.
        b, _ = _per_tree_loop(Pipeline(g, cfg), spawn_rngs(11, 2))
        for x, y in zip(a, b):
            _assert_same_embedding(x, y)

    def test_dense_batched_backend_end_to_end(self):
        """The dense engine's batched driver, named explicitly, equals the
        per-tree loop of the default config."""
        g = gen.cycle(14, rng=10)
        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct", backend="dense")
        )
        batched = Pipeline(g, cfg).sample_ensemble(k=3, seed=5)
        dense_cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
        serial, _ = _per_tree_loop(Pipeline(g, dense_cfg), _batch_children(5, 3))
        for a, b in zip(serial, batched):
            _assert_same_embedding(a, b)

    def test_batched_amortizes_one_build(self):
        g = gen.cycle(16, rng=11)
        pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4)))
        res = pipe.sample_ensemble(k=4, seed=6)
        assert res.meta["stats"]["hopset_builds"] == 1
        assert res.meta["stats"]["oracle_builds"] == 1
        assert res.meta["stats"]["samples"] == 4
        assert res.timings["samples"] <= res.timings["total"] + 1e-9

    def test_unknown_mode_rejected(self):
        """The removed loose ``mode=``/``workers=`` kwargs fail loudly."""
        pipe = Pipeline(gen.cycle(8, rng=12), PipelineConfig(seed=0))
        with pytest.raises(TypeError, match="mode"):
            pipe.sample_ensemble(k=2, mode="batched")
        with pytest.raises(TypeError, match="workers"):
            pipe.sample_ensemble(k=2, workers=2)
        with pytest.raises(TypeError, match="workers"):
            pipe.save_artifacts("unused.rpz", 2, workers=2)

    def test_workers_no_longer_rejected_with_batched(self):
        """Regression: the fused batch once rejected workers > 1; the one
        ensemble path runs slices of samples in a pool instead."""
        g = gen.cycle(8, rng=12)
        res = Pipeline(g, PipelineConfig(seed=0)).sample_ensemble(
            k=2, execution=ExecutionConfig(workers=2)
        )
        assert res.size == 2 and res.forest.size == 2

    def test_backend_without_batch_driver_rejected(self):
        g = gen.cycle(8, rng=12)
        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct", backend="reference")
        )
        rng = np.random.default_rng(0)
        pipe = Pipeline(g, cfg, rng=rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="batched LE-list driver") as err:
            pipe.sample_ensemble(k=2)
        assert "'reference'" in str(err.value)
        assert "le_lists_batch" in str(err.value)
        assert "Pipeline.sample()" in str(err.value)
        assert str(err.value).endswith("(e.g. 'dense')")
        assert rng.bit_generator.state == state
        assert pipe.stats["samples"] == 0
        pipe.sample()  # the per-tree path still runs on this backend

    def test_solve_only_engine_rejected(self):
        """An engine without an LE-list driver cannot sample: both
        samplers raise ValueError naming the engine and the driver, before
        any random state is consumed."""
        from repro.api import MBFEngine, register_engine, unregister_engine

        register_engine(
            MBFEngine(
                name="test-solve-only",
                solve=lambda *a, **k: ("x", 0),
                families=("all-paths",),
            )
        )
        try:
            cfg = PipelineConfig(
                embedding=EmbeddingConfig(method="direct", backend="test-solve-only")
            )
            rng = np.random.default_rng(0)
            pipe = Pipeline(gen.cycle(8, rng=12), cfg, rng=rng)
            state = rng.bit_generator.state
            for call in (pipe.sample, lambda: pipe.sample_ensemble(k=2)):
                with pytest.raises(ValueError, match="'test-solve-only'") as err:
                    call()
                assert "le_lists" in str(err.value)
            assert rng.bit_generator.state == state
            assert pipe.stats["samples"] == 0
        finally:
            unregister_engine("test-solve-only")

    def test_unknown_engine_lists_available(self):
        """An unregistered name raises KeyError listing the registered
        engines, before any random state is consumed."""
        from repro.api import available_engines

        cfg = PipelineConfig(
            embedding=EmbeddingConfig(method="direct", backend="missing")
        )
        rng = np.random.default_rng(0)
        pipe = Pipeline(gen.cycle(8, rng=12), cfg, rng=rng)
        state = rng.bit_generator.state
        for call in (pipe.sample, lambda: pipe.sample_ensemble(k=2)):
            with pytest.raises(KeyError, match="'missing'") as err:
                call()
            assert str(available_engines()) in str(err.value)
        assert rng.bit_generator.state == state

    def test_batch_seed_does_not_shift_pipeline_stream(self):
        g = gen.cycle(16, rng=5)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        p1 = Pipeline(g, cfg, rng=0)
        p1.sample_ensemble(k=2, seed=5)
        after_batch = p1.sample()
        p2 = Pipeline(g, cfg, rng=0, hopset=p1.hopset(), oracle=p1.oracle())
        _assert_same_embedding(after_batch, p2.sample())


FOREST_ARRAYS = (
    "betas",
    "depths",
    "radii",
    "edge_weights",
    "cum_weights",
    "level_ids",
    "node_offsets",
    "parent",
    "node_level",
    "node_leading",
)


def _assert_same_forest(a, b):
    assert a.n == b.n and a.size == b.size
    assert a.k_max == b.k_max and a.scale == b.scale
    for name in FOREST_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def _assert_same_result(a, b):
    for x, y in zip(a, b):
        _assert_same_embedding(x, y)
        assert np.array_equal(x.tree.level_ids, y.tree.level_ids)
        assert np.array_equal(x.tree.parent, y.tree.parent)
        assert np.array_equal(x.tree.node_leading, y.tree.node_leading)
    assert [led.work for led in a.ledgers] == [led.work for led in b.ledgers]
    assert [led.depth for led in a.ledgers] == [led.depth for led in b.ledgers]
    _assert_same_forest(a.forest, b.forest)


class TestShardedBatchedEnsemble:
    """workers > 1 runs contiguous slices of the samples in a process pool
    and the parent builds the one forest; the contract is *bit-identical*
    output vs the in-process run — all stacked forest arrays, per-tree
    views, per-sample LE lists, and ledgers — for every slice geometry."""

    def _cfg(self, **kw):
        return PipelineConfig(embedding=EmbeddingConfig(method="direct"), **kw)

    def _pair(self, g, cfg, k, seed, workers):
        one = Pipeline(g, cfg).sample_ensemble(k=k, seed=seed)
        many = Pipeline(g, cfg).sample_ensemble(
            k=k, seed=seed, execution=ExecutionConfig(workers=workers)
        )
        return one, many

    def test_even_split_matches_in_process(self):
        g = gen.random_graph(30, 70, rng=13)
        _assert_same_result(*self._pair(g, self._cfg(), 4, 7, 2))

    def test_k_not_divisible_by_workers(self):
        g = gen.random_graph(24, 60, rng=14)
        _assert_same_result(*self._pair(g, self._cfg(), 7, 8, 3))

    def test_workers_exceed_k(self):
        g = gen.cycle(16, rng=15)
        _assert_same_result(*self._pair(g, self._cfg(), 3, 9, 8))

    def test_workers_one_is_in_process(self, monkeypatch):
        """workers=1 must not spin up a pool — and must equal the default
        run bit for bit (same code path)."""
        import repro.api.pipeline as pipeline_module

        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a process pool")

        monkeypatch.setattr(pipeline_module, "ProcessPoolExecutor", no_pool)
        g = gen.cycle(12, rng=16)
        _assert_same_result(*self._pair(g, self._cfg(), 3, 10, 1))

    def test_ragged_shard_depths(self):
        """Slices whose samples have different depths still pad to the
        global k_max: the parent builds the forest from all the lists.

        A wide weight range spreads per-sample root distances; with
        singleton slices each worker's samples have their own depth."""
        g = gen.random_graph(24, 60, wmin=1.0, wmax=64.0, rng=18)
        one, many = self._pair(g, self._cfg(), 6, 12, 6)
        assert len(set(one.forest.depths.tolist())) > 1  # genuinely ragged
        _assert_same_result(one, many)

    def test_oracle_method_shards_too(self):
        g = gen.cycle(20, wmin=1, wmax=2, rng=19)
        cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=4))
        _assert_same_result(*self._pair(g, cfg, 4, 13, 2))

    def test_single_vertex_graph(self):
        g = Graph(1, np.empty((0, 2), dtype=np.int64), [])
        _assert_same_result(*self._pair(g, self._cfg(), 3, 14, 2))

    def test_stats_and_meta(self):
        g = gen.cycle(12, rng=16)
        pipe = Pipeline(g, self._cfg())
        res = pipe.sample_ensemble(
            k=4, seed=15, execution=ExecutionConfig(workers=2)
        )
        assert pipe.stats["samples"] == 4
        assert res.meta["execution"] == {"workers": 2}
        assert "mode" not in res.meta
        assert res.timings["samples"] <= res.timings["total"] + 1e-9

    def test_fingerprint_excludes_execution(self):
        """The provenance fingerprint is an execution-independent content
        identity: in-process and pooled runs of the same configs + seeds
        share it — and so does a config carrying a non-default
        ExecutionConfig."""
        g = gen.random_graph(20, 50, rng=18)
        base = self._cfg(seed=0)
        pooled_cfg = self._cfg(execution=ExecutionConfig(workers=2), seed=0)
        prints = {
            Pipeline(g, base).sample_ensemble(k=2, seed=1).fingerprint,
            Pipeline(g, base)
            .sample_ensemble(k=2, seed=1, execution=ExecutionConfig(workers=2))
            .fingerprint,
            Pipeline(g, pooled_cfg).sample_ensemble(k=2, seed=1).fingerprint,
        }
        assert len(prints) == 1

    def test_execution_config_from_pipeline_config(self):
        """config.execution drives sample_ensemble when no override given."""
        g = gen.random_graph(20, 50, rng=19)
        cfg = self._cfg(execution=ExecutionConfig(workers=2))
        res = Pipeline(g, cfg).sample_ensemble(k=4, seed=16)
        baseline = Pipeline(g, self._cfg()).sample_ensemble(k=4, seed=16)
        _assert_same_result(baseline, res)
        assert res.meta["execution"] == {"workers": 2}

    def test_save_artifacts_with_workers(self, tmp_path):
        """An offline build over two workers writes the same artifact as
        the in-process build: every array member byte for byte, and a
        meta.json that differs only in timings and the execution record."""
        g = gen.random_graph(24, 60, rng=21)
        p1, p2 = tmp_path / "one.rpz", tmp_path / "two.rpz"
        Pipeline(g, self._cfg(seed=0)).save_artifacts(p1, 4, seed=3)
        meta = Pipeline(g, self._cfg(seed=0)).save_artifacts(
            p2, 4, seed=3, execution=ExecutionConfig(workers=2)
        )
        with zipfile.ZipFile(p1) as z1, zipfile.ZipFile(p2) as z2:
            assert z1.namelist() == z2.namelist()
            for name in z1.namelist():
                if name != "meta.json":
                    assert z1.read(name) == z2.read(name), name
            m1, m2 = (json.loads(z.read("meta.json")) for z in (z1, z2))
        for m in (m1, m2):
            m["result"].pop("timings")
            m["provenance"].pop("execution")
        assert m1 == m2
        one = Pipeline.from_artifacts(p1)
        two = Pipeline.from_artifacts(p2)
        _assert_same_forest(one.forest, two.forest)
        for a, b in zip(one, two):
            _assert_same_embedding(a, b)
        assert one.fingerprint == two.fingerprint == meta["fingerprint"]
