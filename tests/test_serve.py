"""Serving-layer suite (repro.serve.server).

The contract under test: :class:`~repro.serve.ForestServer` answers are
*bit-identical* to direct :class:`~repro.frt.forest.FRTForest` queries —
through the micro-batcher, through pair dedup, and through the LRU cache
— while the counters faithfully record what was batched, coalesced, hit,
and missed.
"""

import numpy as np
import pytest

from repro.api import EmbeddingConfig, Pipeline, PipelineConfig
from repro.apps.batched import hst_kmedian_dp_forest
from repro.graph import generators as gen
from repro.io import save_forest
from repro.serve import PAIR_KINDS, ForestServer, load_server, unique_pairs


@pytest.fixture(scope="module")
def forest():
    g = gen.random_graph(48, rng=3, wmin=1.0, wmax=8.0)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=11)
    return Pipeline(g, cfg).sample_ensemble(6, seed=7).forest


def _pairs(n, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, p), rng.integers(0, n, p)


# -- pair dedup ----------------------------------------------------------------


def test_unique_pairs_dedups_and_inverts():
    us = np.array([3, 1, 3, 0, 1])
    vs = np.array([4, 2, 4, 0, 2])
    keys, uu, vv = unique_pairs(us, vs, 10)
    assert keys.tolist() == [0, 12, 34]
    assert uu.tolist() == [0, 1, 3]
    assert vv.tolist() == [0, 2, 4]
    # searchsorted on the sorted keys maps any pair back to its column
    assert np.searchsorted(keys, us * 10 + vs).tolist() == [2, 1, 2, 0, 1]


# -- query parity --------------------------------------------------------------


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_each_kind_matches_direct_forest_query(forest, kind):
    us, vs = _pairs(forest.n, 30)
    server = ForestServer(forest)
    got = getattr(server, kind)(us, vs)
    want = getattr(forest, kind)(us, vs)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_batched_submissions_resolve_in_one_flush(forest):
    """Many small requests -> one flush -> one coalesced forest call."""
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 40, seed=1)
    reqs = [
        server.submit("distances", us[i : i + 8], vs[i : i + 8])
        for i in range(0, 40, 8)
    ]
    assert not any(r.done for r in reqs)
    assert server.flush() == 5
    for i, req in enumerate(reqs):
        sl = slice(i * 8, (i + 1) * 8)
        assert np.array_equal(req.result(), forest.distances(us[sl], vs[sl]))
    stats = server.stats()
    assert stats["batches"] == 1
    assert stats["requests"] == 5
    assert stats["batched_pairs"] == 40
    assert stats["mean_batch_size"] == 40.0


def test_mixed_kinds_share_one_coalesced_batch(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 12, seed=2)
    r1 = server.submit("distances", us, vs)
    r2 = server.submit("distance_upper_bounds", us, vs)
    r3 = server.submit("median_distances", us, vs)
    server.flush()
    assert np.array_equal(r1.result(), forest.distances(us, vs))
    assert np.array_equal(r2.result(), forest.distance_upper_bounds(us, vs))
    assert np.array_equal(r3.result(), forest.median_distances(us, vs))
    stats = server.stats()
    assert stats["batches"] == 1
    # the three kinds' identical pair sets coalesce to one unique set
    assert stats["coalesced_pairs"] == np.unique(us * forest.n + vs).size


def test_duplicate_pairs_coalesce_across_requests(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 10, seed=3)
    for _ in range(4):
        server.submit("distances", us, vs)
    server.flush()
    stats = server.stats()
    assert stats["batched_pairs"] == 40
    assert stats["coalesced_pairs"] == np.unique(us * forest.n + vs).size


def test_result_triggers_lazy_flush(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 5, seed=4)
    req = server.submit("median_distances", us, vs)
    assert not req.done
    assert np.array_equal(req.result(), forest.median_distances(us, vs))
    assert req.done


def test_auto_flush_at_max_pending(forest):
    server = ForestServer(forest, max_pending=16)
    us, vs = _pairs(forest.n, 10, seed=5)
    r1 = server.submit("distances", us, vs)
    assert not r1.done  # 10 pairs < 16: still parked
    r2 = server.submit("distances", us, vs)
    assert r1.done and r2.done  # 20 pairs >= 16: flushed
    assert server.stats()["batches"] == 1


def test_empty_request_resolves_immediately(forest):
    server = ForestServer(forest)
    req = server.submit("distances", [], [])
    assert req.done
    assert req.result().shape == (forest.size, 0)
    assert server.submit("median_distances", [], []).result().shape == (0,)


# -- cache behavior ------------------------------------------------------------


def test_repeat_queries_hit_the_cache(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 20, seed=6)
    first = server.distances(us, vs)
    stats = server.stats()
    assert stats["cache_hits"] == 0
    assert stats["cache_misses"] == 20
    second = server.distances(us, vs)
    assert np.array_equal(first, second)
    assert np.array_equal(second, forest.distances(us, vs))
    stats = server.stats()
    assert stats["cache_hits"] == 20
    assert stats["cache_hit_rate"] == pytest.approx(0.5)
    # a cached batch still counts as a batch, but coalesces zero pairs
    assert stats["coalesced_pairs"] == np.unique(us * forest.n + vs).size


def test_kinds_cache_independently(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 8, seed=7)
    server.distances(us, vs)
    server.distance_upper_bounds(us, vs)  # same pairs, different kind
    assert server.stats()["cache_hits"] == 0


def test_partial_hits_mix_with_misses(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 10, seed=8)
    server.distances(us[:5], vs[:5])
    out = server.distances(us, vs)
    assert np.array_equal(out, forest.distances(us, vs))
    stats = server.stats()
    assert stats["cache_hits"] >= 5


def test_lru_evicts_oldest_entries(forest):
    server = ForestServer(forest, cache_size=4)
    us, vs = _pairs(forest.n, 8, seed=9)
    keys = np.unique(us * forest.n + vs)
    server.distances(us, vs)
    assert server.stats()["cache_entries"] <= 4
    # the last four unique pairs survive; re-querying everything re-misses
    # the evicted ones but still answers exactly
    out = server.distances(us, vs)
    assert np.array_equal(out, forest.distances(us, vs))
    assert server.stats()["cache_misses"] > keys.size


def test_cache_disabled_with_size_zero(forest):
    server = ForestServer(forest, cache_size=0)
    us, vs = _pairs(forest.n, 6, seed=10)
    server.distances(us, vs)
    server.distances(us, vs)
    stats = server.stats()
    assert stats["cache_hits"] == 0
    assert stats["cache_entries"] == 0


def test_cache_keys_include_fingerprint(forest):
    server = ForestServer(forest, fingerprint="abc123")
    us, vs = _pairs(forest.n, 4, seed=11)
    server.distances(us, vs)
    for key in server._cache["distances"]:
        assert key[0] == "abc123"
        assert key[1] == "distances"


# -- k-median ------------------------------------------------------------------


def test_kmedian_matches_batched_dp_and_caches(forest):
    server = ForestServer(forest)
    rng = np.random.default_rng(0)
    weights = rng.random(forest.n)
    costs, facilities = server.kmedian(weights, 3)
    want_costs, want_fac = hst_kmedian_dp_forest(forest, weights, 3)
    assert np.array_equal(costs, want_costs)
    for got, want in zip(facilities, want_fac):
        assert np.array_equal(got, want)
    costs2, _ = server.kmedian(weights, 3)
    assert np.array_equal(costs2, want_costs)
    stats = server.stats()
    assert stats["cache_hits"] == 1
    # different k is a different request, not a cache hit
    server.kmedian(weights, 2)
    assert server.stats()["cache_hits"] == 1


def test_kmedian_allowed_mask_distinguishes_cache_entries(forest):
    server = ForestServer(forest)
    weights = np.ones(forest.n)
    allowed = np.zeros(forest.n, dtype=bool)
    allowed[: forest.n // 2] = True
    want, _ = hst_kmedian_dp_forest(forest, weights, 2, allowed=allowed)
    server.kmedian(weights, 2)
    got, _ = server.kmedian(weights, 2, allowed=allowed)
    assert server.stats()["cache_hits"] == 0  # the mask is part of the key
    assert np.array_equal(got, want)


# -- stats + validation --------------------------------------------------------


def test_stats_reports_latency_percentiles(forest):
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 4, seed=12)
    for _ in range(5):
        server.distances(us, vs)
    stats = server.stats()
    assert stats["latency_p50"] > 0.0
    assert stats["latency_p50"] <= stats["latency_p90"] <= stats["latency_p99"]
    server.reset_stats()
    fresh = server.stats()
    assert fresh["requests"] == 0
    assert fresh["latency_p99"] == 0.0
    # the cache survives a stats reset
    server.distances(us, vs)
    assert server.stats()["cache_hits"] > 0


def test_rejects_bad_requests(forest):
    server = ForestServer(forest)
    with pytest.raises(ValueError, match="unknown query kind"):
        server.submit("nope", [0], [1])
    with pytest.raises(ValueError, match="equal-length"):
        server.submit("distances", [0, 1], [2])
    with pytest.raises(ValueError, match="vertex ids"):
        server.submit("distances", [0], [forest.n])
    with pytest.raises(TypeError, match="FRTForest"):
        ForestServer(object())
    with pytest.raises(ValueError, match="cache_size"):
        ForestServer(forest, cache_size=-1)
    with pytest.raises(ValueError, match="max_pending"):
        ForestServer(forest, max_pending=0)


# -- end to end from an artifact ----------------------------------------------


def test_load_server_serves_from_artifact(tmp_path, forest):
    path = tmp_path / "forest.rpz"
    save_forest(path, forest, provenance={"fingerprint": "deadbeef"})
    server = load_server(path)
    assert server.fingerprint == "deadbeef"
    assert isinstance(server.forest.level_ids, np.memmap)  # mmap default
    us, vs = _pairs(forest.n, 16, seed=13)
    assert np.array_equal(server.distances(us, vs), forest.distances(us, vs))
    assert np.array_equal(
        server.median_distances(us, vs), forest.median_distances(us, vs)
    )


def test_facade_end_to_end_offline_build_online_serve(tmp_path):
    """The full split: save_artifacts -> load_server -> parity."""
    g = gen.random_graph(32, rng=4)
    pipe = Pipeline(
        g, PipelineConfig(embedding=EmbeddingConfig(method="direct"), seed=1)
    )
    path = tmp_path / "ens.rpz"
    meta = pipe.save_artifacts(path, 4, seed=2)
    server = load_server(path)
    assert server.fingerprint == meta["fingerprint"]
    reference = Pipeline.from_artifacts(path)
    us, vs = _pairs(32, 10, seed=14)
    assert np.array_equal(
        server.distance_upper_bounds(us, vs),
        reference.ensemble().distance_upper_bounds(us, vs),
    )


# -- REPRO_FREEZE sanitizer ----------------------------------------------------


def test_freeze_mode_makes_cached_columns_read_only(forest, monkeypatch):
    """Under REPRO_FREEZE=1 every cached hit column refuses writes while
    public answers stay writable copies."""
    monkeypatch.setenv("REPRO_FREEZE", "1")
    server = ForestServer(forest)
    us, vs = _pairs(forest.n, 12, seed=5)
    answer = server.distances(us, vs)
    answer[0, 0] = -1.0  # the caller's copy is theirs to mutate
    cached = next(iter(server._cache["distances"].values()))
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = -1.0
    # The poisoning the sanitizer guards against cannot happen: a repeat
    # query (cache hits) still matches the direct forest answer.
    assert np.array_equal(
        server.distances(us, vs), forest.distances(us, vs)
    )


def test_freeze_mode_makes_kmedian_cache_tuples_read_only(forest, monkeypatch):
    monkeypatch.setenv("REPRO_FREEZE", "1")
    server = ForestServer(forest)
    weights = np.ones(forest.n)
    costs, facilities = server.kmedian(weights, 2)
    costs[0] = -1.0  # returned arrays are writable copies
    facilities[0][:] = 0
    cached_costs, cached_facs = next(iter(server._cache["kmedian"].values()))
    assert not cached_costs.flags.writeable
    assert all(not f.flags.writeable for f in cached_facs)
    with pytest.raises(ValueError):
        cached_costs[0] = 0.0
    # The hit path still hands out writable copies of the frozen truth.
    costs2, facilities2 = server.kmedian(weights, 2)
    assert np.array_equal(costs2, cached_costs)
    assert costs2.flags.writeable
    assert all(f.flags.writeable for f in facilities2)
