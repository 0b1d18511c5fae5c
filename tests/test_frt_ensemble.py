"""Tests for FRT tree ensembles and hierarchical decompositions."""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.frt import (
    decomposition_of,
    FRTEnsemble,
    sample_frt_tree,
)
from repro.graph import generators as gen
from repro.graph.shortest_paths import dijkstra_distances

DIRECT = PipelineConfig(embedding=EmbeddingConfig(method="direct"))


class TestEnsembleBasics:
    def test_sample_size(self):
        g = gen.cycle(16, rng=0)
        ens = Pipeline(g, DIRECT).sample_ensemble(5, seed=1).ensemble()
        assert ens.size == 5
        assert ens.n == 16

    def test_size_validation(self):
        g = gen.cycle(8, rng=0)
        pipe = Pipeline(g, DIRECT)
        with pytest.raises(ValueError):
            pipe.sample_ensemble(0)
        forest = pipe.sample_ensemble(1, seed=0).forest
        with pytest.raises(ValueError):
            FRTEnsemble([], forest)

    def test_mixed_n_rejected(self):
        a = sample_frt_tree(gen.cycle(8, rng=0), rng=1)
        b = sample_frt_tree(gen.cycle(9, rng=0), rng=1)
        forest = Pipeline(gen.cycle(8, rng=0), DIRECT).sample_ensemble(2).forest
        with pytest.raises(ValueError):
            FRTEnsemble([a, b], forest)

    def test_oracle_sampler_integration(self):
        g = gen.cycle(20, rng=4)
        res = Pipeline(g, PipelineConfig(seed=5)).sample_ensemble(3, seed=7)
        ens = res.ensemble()
        assert ens.size == 3
        assert res.meta["stats"]["oracle_builds"] == 1


class TestEnsembleDistances:
    def setup_method(self):
        self.g = gen.grid(5, 5, rng=10)
        self.ens = Pipeline(self.g, DIRECT).sample_ensemble(8, seed=11).ensemble()
        self.D = dijkstra_distances(self.g)

    def test_distances_shape(self):
        d = self.ens.distances([0, 1], [24, 20])
        assert d.shape == (8, 2)

    def test_min_still_dominates(self):
        iu, ju = np.triu_indices(25, k=1)
        ub = self.ens.distance_upper_bounds(iu, ju)
        assert np.all(ub >= self.D[iu, ju] - 1e-9)

    def test_min_tightens_with_size(self):
        iu, ju = np.triu_indices(25, k=1)
        small = self.ens.distances(iu, ju)[:2].min(axis=0)
        ratio_small = (small / self.D[iu, ju]).mean()
        ratio_full = (self.ens.distance_upper_bounds(iu, ju) / self.D[iu, ju]).mean()
        assert ratio_full <= ratio_small

    def test_median_between_min_and_max(self):
        d = self.ens.distances([0], [24])
        med = self.ens.median_distances([0], [24])
        assert d.min() <= med[0] <= d.max()

    def test_best_tree_for_objective(self):
        # objective: tree distance between opposite corners
        emb, val = self.ens.best_tree_for(lambda t: t.distance(0, 24))
        all_vals = [t.distance(0, 24) for t in self.ens.trees]
        assert val == pytest.approx(min(all_vals))
        assert emb.tree.distance(0, 24) == pytest.approx(val)


class TestForestBackedEnsemble:
    def setup_method(self):
        self.g = gen.random_graph(40, 110, rng=30)
        self.res = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=3)

    def test_forest_and_loop_queries_identical(self):
        ens = self.res.ensemble()
        iu, ju = np.triu_indices(self.g.n, k=1)
        loop = np.stack([t.distances(iu, ju) for t in ens.trees])  # per tree
        assert np.array_equal(ens.distances(iu, ju), loop)
        assert np.array_equal(ens.distance_upper_bounds(iu, ju), loop.min(axis=0))
        assert np.array_equal(
            ens.median_distances(iu, ju), np.median(loop, axis=0)
        )

    def test_mismatched_forest_rejected(self):
        ens = self.res.ensemble()
        with pytest.raises(ValueError):
            FRTEnsemble(list(ens.embeddings[:2]), ens.forest)

    def test_shape_compatible_wrong_forest_rejected(self):
        # Same graph, same k, different seed: (size, n) match but the
        # trees differ — the per-sample invariants must catch it.
        other = Pipeline(self.g, DIRECT).sample_ensemble(k=6, seed=99)
        with pytest.raises(ValueError):
            FRTEnsemble(list(self.res.embeddings), other.forest)


class TestDecomposition:
    def setup_method(self):
        self.g = gen.random_graph(30, 70, rng=20)
        self.emb = sample_frt_tree(self.g, rng=21)
        self.dec = decomposition_of(self.emb.tree)

    def test_levels_cover_tree(self):
        assert self.dec.levels == self.emb.tree.k + 1

    def test_leaf_level_singletons(self):
        for members in self.dec.clusters(0):
            assert members.size == 1

    def test_root_level_single_cluster(self):
        assert len(self.dec.clusters(self.dec.levels - 1)) == 1

    def test_partition_at_every_level(self):
        for i in range(self.dec.levels):
            members = np.concatenate(self.dec.clusters(i))
            assert np.array_equal(np.sort(members), np.arange(30))

    def test_refinement_chain(self):
        assert self.dec.is_refinement_chain()

    def test_diameter_bound(self):
        # Cluster G-diameter <= 2 * r_i (domination of the embedded metric).
        for i in range(self.dec.levels):
            diam = self.dec.max_cluster_diameter(i, self.g)
            assert diam <= 2 * self.dec.radii[i] + 1e-9

    def test_centers_are_members_distancewise(self):
        # Every vertex is within r_i of its level-i center in G.
        D = dijkstra_distances(self.g)
        for i in range(self.dec.levels):
            for v in range(30):
                c = self.dec.center_of(i, v)
                assert D[v, c] <= self.dec.radii[i] + 1e-9

    def test_cluster_of_consistent(self):
        for v in range(30):
            cid = self.dec.cluster_of(1, v)
            members = self.dec.clusters(1)
            found = [m for m in members if v in m]
            assert len(found) == 1
            lab = self.dec.labels[1]
            assert np.all(lab[found[0]] == cid)
