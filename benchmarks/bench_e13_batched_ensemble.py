"""E13 — the ensemble path: throughput against the per-tree loop.

The paper's FRT samples are independent given the shared hop set and
oracle (Section 7's repetition trick).  ``Pipeline.sample_ensemble(k)``
runs the batched LE-list driver (:mod:`repro.mbf.dense`) once per sample
on a ``(1, n)`` rank matrix and builds all ``k`` trees in one
:func:`~repro.frt.forest.build_frt_forest` pass; ``ExecutionConfig(
workers=N)`` runs contiguous slices of the samples in a process pool.

Measured, always against the fastest other way to get the same trees —
``Pipeline.sample(rng=child)`` once per child generator, each tree built
by the serial ``build_frt_tree`` — best-of-3 on both sides, the rounds
alternated so that drift in machine speed hits both alike, with every
tree asserted bit-identical:

- ``test_e13_dense_ensemble_throughput``: the ``"dense"`` direct backend
  across ``n`` and ``k`` (floor 0.8x at ``n=1024, k=16``);
- ``test_e13_oracle_ensemble``: the oracle-backed path (floor 1.2x);
- ``test_e13_scaling_in_k``: the ensemble-to-loop ratio across ``k``;
- ``test_e13_sharded_ensemble``: ``workers=2`` against the in-process
  ensemble (floor 1.6x at ``n=1024, k=16`` given >= 2 usable cores);
- ``test_e13_tree_stage_split``: the lists-vs-trees stage split — the
  fused forest build against the serial per-sample tree loop (floor 3x).

Each benchmark's recorded round is one ``sample_ensemble`` call, so the
trend snapshots stay comparable across the smoke sizes.
"""

import os
import time

import numpy as np
import pytest

from repro.api import (
    as_rng,
    EmbeddingConfig,
    ExecutionConfig,
    generators as gen,
    HopsetConfig,
    Pipeline,
    PipelineConfig,
    spawn_rngs,
    split_seed,
)
from repro.frt import build_frt_forest, build_frt_tree
from repro.frt.lelists import compute_le_lists_batch

ROUNDS = 3


def _built_pipeline(g, cfg, seed):
    """A pipeline whose hop set / oracle come from ``seed``'s construction
    stream — the artifacts ``sample_ensemble(k, seed=seed)`` samples on."""
    pipe = Pipeline(g, cfg)
    pipe.sample_ensemble(k=1, seed=seed)
    return pipe


def _per_tree_loop(pipe, k, seed):
    """The reference: ``sample(rng=child)`` once per child generator of
    ``sample_ensemble(k, seed=seed)``."""
    return [pipe.sample(rng=c) for c in spawn_rngs(split_seed(seed, 2)[1], k)]


def _interleaved(benchmark, pipe, k, seed, reference, execution=None):
    """Best-of-``ROUNDS`` seconds of ``reference()`` and of
    ``sample_ensemble``, alternated round by round so that drift in the
    machine's speed hits both sides alike.  Each ensemble call is one
    recorded benchmark round.  Returns ``(ref_s, ref_out, s, result)``."""
    ref_times, times, ref_out = [], [], []

    def before():
        t0 = time.perf_counter()
        ref_out[:] = [reference()]
        ref_times.append(time.perf_counter() - t0)

    def run():
        t0 = time.perf_counter()
        res = pipe.sample_ensemble(k=k, seed=seed, execution=execution)
        times.append(time.perf_counter() - t0)
        return res

    res = benchmark.pedantic(run, setup=before, rounds=ROUNDS, iterations=1)
    return min(ref_times), ref_out[0], min(times), res


def _assert_identical(serial, batched):
    for a, b in zip(serial, batched, strict=True):
        # reprolint: disable=float-distance-eq (loop-vs-ensemble
        # bit-identity is the property under test here)
        assert np.array_equal(a.rank, b.rank) and a.beta == b.beta
        assert a.iterations == b.iterations
        assert a.le_lists.equals(b.le_lists)
        assert np.array_equal(a.tree.level_ids, b.tree.level_ids)


@pytest.mark.parametrize(
    "n,k,assert_speedup",
    [
        (128, 4, None),  # CI smoke size
        (256, 16, None),
        (1024, 8, None),
        (1024, 16, 0.8),  # the ensemble must keep pace with the tree loop
    ],
    ids=lambda v: str(v),
)
def test_e13_dense_ensemble_throughput(benchmark, n, k, assert_speedup):
    g = gen.random_graph(n, 3 * n, rng=20)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    pipe = _built_pipeline(g, cfg, 0)
    loop_s, loop, ensemble_s, res = _interleaved(
        benchmark, pipe, k, 0, lambda: _per_tree_loop(pipe, k, 0)
    )
    _assert_identical(loop, res)
    speedup = loop_s / ensemble_s
    benchmark.extra_info.update(
        n=n,
        m=g.m,
        k=k,
        backend="dense",
        loop_seconds=loop_s,
        ensemble_seconds=ensemble_s,
        loop_trees_per_s=k / loop_s,
        ensemble_trees_per_s=k / ensemble_s,
        speedup=speedup,
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"ensemble only {speedup:.2f}x the per-tree sample() loop at "
            f"n={n}, k={k} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize(
    "n,k,assert_speedup",
    [
        (128, 4, None),  # CI smoke size (keeps the JSON artifact's fields)
        (1024, 16, 3.0),  # the forest must beat the serial tree loop >= 3x
    ],
    ids=lambda v: str(v),
)
def test_e13_tree_stage_split(benchmark, n, k, assert_speedup):
    """Lists-vs-trees stage split of the batched ensemble pipeline.

    Times the two stages separately: the fused multi-sample LE-list pass,
    then tree construction both ways — the serial per-sample
    ``build_frt_tree`` loop (the pre-forest hot-path tail) and the fused
    ``build_frt_forest`` pass.  Parity of all per-sample structure arrays
    is asserted alongside the speedup floor.
    """
    g = gen.random_graph(n, 3 * n, rng=24)
    rng = as_rng(25)
    ranks = np.stack([rng.permutation(n) for _ in range(k)])
    betas = rng.uniform(1.0, 2.0, size=k)
    wmin, _ = g.weight_bounds()

    t0 = time.perf_counter()
    lists, _ = compute_le_lists_batch(g, ranks)
    lists_s = time.perf_counter() - t0

    # Best-of-3 on both sides: the floor assertion compares the two
    # timings directly, so a single noisy round must not fail it.
    serial_trees_s = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        serial_trees = [
            build_frt_tree(lists.sample_states(s), ranks[s], betas[s], wmin)
            for s in range(k)
        ]
        serial_trees_s = min(serial_trees_s, time.perf_counter() - t0)

    def run_forest():
        best, forest = np.inf, None
        for _ in range(3):
            t0 = time.perf_counter()
            forest = build_frt_forest(lists, ranks, betas, wmin)
            best = min(best, time.perf_counter() - t0)
        return best, forest

    forest_s, forest = benchmark.pedantic(run_forest, rounds=1, iterations=1)
    for s, want in enumerate(serial_trees):
        got = forest.tree(s)
        assert np.array_equal(got.level_ids, want.level_ids)
        assert np.array_equal(got.parent, want.parent)
        assert np.array_equal(got.node_leading, want.node_leading)
    speedup = serial_trees_s / forest_s
    benchmark.extra_info.update(
        n=n,
        m=g.m,
        k=k,
        lists_seconds=lists_s,
        serial_trees_seconds=serial_trees_s,
        forest_seconds=forest_s,
        tree_stage_speedup=speedup,
        serial_tree_stage_fraction=serial_trees_s / (lists_s + serial_trees_s),
        forest_tree_stage_fraction=forest_s / (lists_s + forest_s),
    )
    if assert_speedup is not None:
        assert speedup >= assert_speedup, (
            f"forest build only {speedup:.2f}x the serial per-sample tree "
            f"loop at n={n}, k={k} (floor {assert_speedup}x)"
        )


@pytest.mark.parametrize(
    "n,k,workers,assert_speedup",
    [
        (128, 4, 2, None),  # CI smoke size
        (1024, 16, 2, 1.6),  # two workers must win >= 1.6x given >= 2 cores
    ],
    ids=lambda v: str(v),
)
def test_e13_sharded_ensemble(benchmark, n, k, workers, assert_speedup):
    """Pooled vs in-process ensemble.

    The samples are independent: child generators are spawned before any
    fan-out and the parent builds the forest from all the LE lists, so
    the pooled run must be *bit-identical* to the in-process one —
    asserted always, on every array of the stacked forest.  The speedup
    floor is a real-parallelism claim, so it only applies when the
    machine actually has >= ``workers`` usable cores (on a single-core
    runner the pool can only add overhead; the measured ratio is still
    recorded for the perf trajectory).
    """
    g = gen.random_graph(n, 3 * n, rng=23)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    pipe = _built_pipeline(g, cfg, 3)
    inproc_s, inproc_res, pooled_s, pooled_res = _interleaved(
        benchmark,
        pipe,
        k,
        3,
        lambda: pipe.sample_ensemble(k=k, seed=3),
        ExecutionConfig(workers=workers),
    )
    _assert_identical(inproc_res, pooled_res)
    for name in ("betas", "depths", "radii", "edge_weights", "cum_weights",
                 "level_ids", "node_offsets", "parent", "node_level",
                 "node_leading"):
        assert np.array_equal(
            getattr(inproc_res.forest, name), getattr(pooled_res.forest, name)
        ), name
    cpus = len(os.sched_getaffinity(0))
    speedup = inproc_s / pooled_s
    benchmark.extra_info.update(
        n=n,
        m=g.m,
        k=k,
        workers=workers,
        cpus=cpus,
        backend="dense",
        inprocess_seconds=inproc_s,
        sharded_seconds=pooled_s,
        sharded_trees_per_s=k / pooled_s,
        speedup=speedup,
    )
    if assert_speedup is not None and cpus >= workers:
        assert speedup >= assert_speedup, (
            f"{workers}-worker ensemble only {speedup:.2f}x the in-process "
            f"run at n={n}, k={k} (floor {assert_speedup}x, {cpus} cores)"
        )


def test_e13_oracle_ensemble(benchmark):
    """The oracle-backed path: thousands of small dense-kernel calls per
    tree, where the batched driver's lower per-call overhead shows.  Kept
    small: the oracle path is seconds per tree already at ``n = 256``."""
    n, k = 64, 8
    g = gen.random_graph(n, 3 * n, rng=21)
    cfg = PipelineConfig(hopset=HopsetConfig(eps=0.25, d0=6))
    pipe = _built_pipeline(g, cfg, 1)
    loop_s, loop, ensemble_s, res = _interleaved(
        benchmark, pipe, k, 1, lambda: _per_tree_loop(pipe, k, 1)
    )
    _assert_identical(loop, res)
    speedup = loop_s / ensemble_s
    benchmark.extra_info.update(
        n=n,
        k=k,
        method="oracle",
        loop_seconds=loop_s,
        ensemble_seconds=ensemble_s,
        speedup=speedup,
    )
    assert speedup >= 1.2, (
        f"oracle ensemble only {speedup:.2f}x the per-tree sample() loop "
        f"at n={n}, k={k} (floor 1.2x)"
    )


def test_e13_scaling_in_k(benchmark):
    """Ensemble-to-loop ratio across k at fixed n (recorded for the perf
    trajectory), best-of-3 on both sides.  Both run the same incremental
    kernel one sample at a time, so the ratio stays near 1x; the shape
    assertion is a uniform no-bad-regression floor."""
    n = 512
    g = gen.random_graph(n, 3 * n, rng=22)
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"))
    pipe = _built_pipeline(g, cfg, 2)
    rows = []

    def sweep():
        for k in (4, 16, 32):
            loop_s = ensemble_s = np.inf
            for _ in range(ROUNDS):  # alternated, like _interleaved
                t0 = time.perf_counter()
                a = _per_tree_loop(pipe, k, 2)
                loop_s = min(loop_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                b = pipe.sample_ensemble(k=k, seed=2)
                ensemble_s = min(ensemble_s, time.perf_counter() - t0)
            _assert_identical(a, b)
            rows.append(
                {"k": k, "loop_s": loop_s, "ensemble_s": ensemble_s,
                 "speedup": loop_s / ensemble_s}
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(n=n, rows=rows)
    assert all(r["speedup"] >= 0.65 for r in rows), rows
