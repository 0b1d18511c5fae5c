"""The benchmark's workloads: input generation, timed loops, checks, metrics.

Every workload drives the public ``repro`` API the way a user would, with
default execution settings (no ``ExecutionConfig``, ``mode=`` or
``workers=``), and derives all of its inputs from one integer seed.

- ``oracle-ensemble``: the paper's main pipeline (hub hop set, oracle on
  ``H``) on a small grid -- thousands of tiny dense-kernel calls.
- ``serve-mixed``: an offline ``save_artifacts`` build with the direct
  LE-list method on a sparse random graph (a few large dense-kernel
  calls, no hop set and no oracle), a memory-mapped ``load_server`` and a
  closed loop of clients mixing pair queries and k-median calls.

``oracle-ensemble`` answers a stream of pair queries in-process through
``PipelineResult.ensemble()`` after each call; ``serve-mixed`` answers its
stream through ``ForestServer``.  Every workload therefore reports every
end-to-end metric (see README.md for what each one means per workload).

The machine the benchmark was tuned on switches between a fast and a
slow speed (about 1.7x apart) every few seconds.  A median over samples
taken at single instants then jumps between the two modes as their
shares in a run pass one half, so the rates, ``serve_req_p50_ms`` and the
oracle ``setup_s`` are means over the run: total work over total time, or
the mean of short windows' medians.
"""

from __future__ import annotations

import contextlib
import itertools
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans as tr

N_CLIENTS = 16
KMEDIAN_FRAC = 0.02  # share of serve-mixed requests that are k-median calls
QUERY_KINDS = ("distances", "distance_upper_bounds", "median_distances")


@dataclass(frozen=True)
class Size:
    """Every size knob of one workload (full benchmark or smoke test)."""

    n: int = 1024  # random-graph vertices (serve-mixed)
    grid_side: int = 8  # grid is grid_side x grid_side (oracle-ensemble)
    oracle_k: int = 8
    oracle_seeds: int = 6
    serve_k: int = 16
    setup_reps: int = 5  # ensemble set-ups timed before each sample_ensemble call
    query_rounds: int = 192  # in-process query rounds after each sample_ensemble call
    serve_rounds: int = 400  # rounds in one serve block
    pairs_per_request: int = 64
    hot_pairs: int = 2000
    kmedian_profiles: int = 32
    kmedian_k: int = 8
    stretch_sources: int = 64
    stretch_targets: int = 128


FULL = Size()
SMOKE = Size(
    n=96, grid_side=4, oracle_k=2, oracle_seeds=2,
    serve_k=4, setup_reps=2, query_rounds=2, serve_rounds=70,
    pairs_per_request=8, hot_pairs=40,
    kmedian_profiles=4, kmedian_k=3, stretch_sources=6, stretch_targets=10,
)

WORKLOADS = ("oracle-ensemble", "serve-mixed")

#: Requests per latency window; ``serve_req_p50_ms`` is the mean of the
#: windows' medians (about 40 ms of oracle queries, 16 serve rounds).
LAT_WINDOW = 256

#: Construction seed of the oracle pipeline (hub sample and level draw),
#: the same for every workload seed.  The level draw sets Lambda, which
#: sets both the work per tree ((Lambda+1) d-chains per H-iteration) and
#: the distortion (1+eps)^Lambda; on the 8x8 grid Lambda ranges over 3..10
#: across construction seeds, moving trees/s and stretch by 2-4x.  Seed 0
#: draws Lambda = 7, the typical value for n = 64.
ORACLE_BUILD_SEED = 0
#: Seed of the oracle grid's edge weights, also the same for every
#: workload seed: across ten weight draws the model work of a pass ranged
#: over 0.64..0.96 x 1e9 units, where the ensemble seeds of one draw move a
#: call by about a tenth.  The workload seed picks the ensemble seeds and
#: the queries.
ORACLE_GRID_SEED = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator number ``stream`` derived from the seed."""
    return np.random.default_rng([seed, stream])


def _derived_int(seed: int, stream: int) -> int:
    return int(_rng(seed, stream).integers(0, 2**31 - 1))


# -- generated inputs ---------------------------------------------------------


@dataclass
class Request:
    """One client request: a pair query, or a k-median call."""

    kind: str
    us: np.ndarray | None = None
    vs: np.ndarray | None = None
    profile: int = -1


def request_stream(seed: int, n: int, size: Size, rounds: int, kmedian: bool):
    """``rounds`` rounds of ``N_CLIENTS`` requests, fixed by the seed.

    Pair requests carry ``pairs_per_request`` pairs, half drawn from a hot
    set of ``hot_pairs`` pairs (what the server's cache can absorb), half
    uniform.  With ``kmedian``, exactly ``KMEDIAN_FRAC`` of the requests
    are k-median calls whose client-weight profile cycles through a
    seed-shuffled pool, so every profile is first asked once (a cache
    miss) and then repeatedly (hits).
    """
    g = _rng(seed, 3)
    hot_u = g.integers(0, n, size.hot_pairs)
    hot_v = (hot_u + g.integers(1, n, size.hot_pairs)) % n
    slots = rounds * N_CLIENTS
    km_slots = set()
    if kmedian:
        n_km = max(1, round(KMEDIAN_FRAC * slots))
        km_slots = set(g.choice(slots, size=n_km, replace=False).tolist())
    order = g.permutation(size.kmedian_profiles)
    # Pair kinds split exactly evenly, so the latency mix is the same
    # for every seed.
    kinds = g.permutation(np.arange(slots - len(km_slots)) % len(QUERY_KINDS))
    out, n_km_seen = [], 0
    p = size.pairs_per_request
    for slot in range(slots):
        if slot in km_slots:
            out.append(Request("kmedian", profile=int(order[n_km_seen % len(order)])))
            n_km_seen += 1
            continue
        hot = g.random(p) < 0.5
        pick = g.integers(0, size.hot_pairs, p)
        us = np.where(hot, hot_u[pick], g.integers(0, n, p))
        vs = np.where(hot, hot_v[pick], (us + g.integers(1, n, p)) % n)
        out.append(Request(QUERY_KINDS[kinds[slot - n_km_seen]], us, vs))
    return [out[r * N_CLIENTS:(r + 1) * N_CLIENTS] for r in range(rounds)]


def kmedian_profiles(seed: int, n: int, size: Size) -> np.ndarray:
    """``(kmedian_profiles, n)`` client-weight profiles."""
    return _rng(seed, 4).random((size.kmedian_profiles, n))


def stretch_pairs(seed: int, G, size: Size):
    """Sampled pairs ``(us, vs)`` and their exact graph distances."""
    from repro.graph.shortest_paths import dijkstra_distances

    g = _rng(seed, 5)
    n = G.n
    sources = g.choice(n, size=min(size.stretch_sources, n), replace=False)
    dist = dijkstra_distances(G, sources)
    us = np.repeat(sources, size.stretch_targets)
    vs = (us + g.integers(1, n, us.size)) % n
    rows = np.repeat(np.arange(sources.size), size.stretch_targets)
    return us, vs, dist[rows, vs]


# -- bookkeeping --------------------------------------------------------------


class Run:
    """Counts operations and failures; ``notes`` are printed with the result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}

    @contextlib.contextmanager
    def op(self, what: str):
        """One counted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - the benchmark keeps running
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.failed += 1
        print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """One counted correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def timed_passes(run_pass, seconds: float, at_least: int = 1) -> list[float]:
    """Run whole passes (at least ``at_least``) while that ends nearer
    ``seconds``."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass()
        times.append(time.perf_counter() - t0)
        if (len(times) >= at_least
                and time.perf_counter() - start + times[-1] / 2 > seconds):
            return times


def fresh_graph(G):
    """A copy of ``G`` without its cached CSR adjacency and edge lists.

    Set-up starts from the generated graph, before a ``Graph`` has cached
    anything, so every timed set-up gets its own copy.
    """
    from repro.graph.core import Graph

    return Graph(G.n, G.edges.copy(), G.weights.copy(), validate=False)


def timed_setup(build, G, reps: int):
    """Seconds of each of ``reps`` calls ``build(fresh_graph(G))``, and the
    last call's output."""
    times, out = [], None
    for _ in range(reps):
        fresh = fresh_graph(G)
        t0 = time.perf_counter()
        out = build(fresh)
        times.append(time.perf_counter() - t0)
    return times, out


def percentile_report(lat_s: list[float]) -> dict:
    """Latencies in ms, in the order the requests were issued: the mean of
    the medians of consecutive ``LAT_WINDOW``-request windows, the p99 over
    all of them, and the sample counts."""
    lat = np.asarray(lat_s) * 1e3
    windows = np.array_split(lat, max(1, lat.size // LAT_WINDOW))
    return {
        "p50_ms": float(np.mean([np.median(w) for w in windows])),
        "windows": len(windows),
        "p99_ms": float(np.percentile(lat, 99)),
        "samples": int(lat.size),
        "beyond_p99": int(np.sum(lat > np.percentile(lat, 99))),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stretch_metrics(dT: np.ndarray, dG: np.ndarray) -> tuple[float, float]:
    """``(expected_stretch_p95, stretch_mean)`` of a ``(trees, pairs)`` block.

    A pair's expected stretch is its mean ``d_T / d_G`` over the trees.
    The 95th percentile over pairs stands in for the maximum: a pair's
    ratio is heavy-tailed (a cheap edge cut high in a tree), so with tens
    of trees the top of the distribution is set by a few draws and moves
    by half between seeds, where the 95th percentile moves by a few percent.
    """
    ratio = dT / dG[None, :]
    return float(np.percentile(ratio.mean(axis=0), 95)), float(ratio.mean())


def check_dominance(run: Run, dT: np.ndarray, dG: np.ndarray, label: str) -> None:
    """Each tree's distances dominate the graph's on the sampled pairs."""
    for t, row in enumerate(dT):
        run.check(bool(np.all(row >= dG * (1 - 1e-12))), f"{label} tree {t} dominance")


# -- the in-process query loop of the ensemble workloads ----------------------


def query_ensemble(ens, stream, run: Run, record: list | None):
    """Answer ``stream`` through an ``FRTEnsemble``; per-request latencies."""
    lat, pairs = [], 0
    t0 = time.perf_counter()
    for rnd in stream:
        for req in rnd:
            with run.op(f"ensemble {req.kind}"):
                s = time.perf_counter()
                ans = getattr(ens, req.kind)(req.us, req.vs)
                lat.append(time.perf_counter() - s)
                pairs += req.us.size
                if record is not None and len(record) < 48:
                    record.append((req, ans))
    return lat, pairs, time.perf_counter() - t0


def check_query_answers(run: Run, trees, record) -> None:
    """Recompute sampled answers from the per-tree distances."""
    for req, ans in record:
        block = np.stack([t.distances(req.us, req.vs) for t in trees])
        want = {
            "distances": block,
            "distance_upper_bounds": block.min(axis=0),
            "median_distances": np.median(block, axis=0),
        }[req.kind]
        run.check(np.array_equal(ans, want), f"ensemble {req.kind} answer")


# -- oracle-ensemble -------------------------------------------------------------


def _ensemble_inputs(seed: int, size: Size):
    from repro import PipelineConfig
    from repro.graph.generators import grid

    G = grid(size.grid_side, size.grid_side, wmin=1.0, wmax=10.0,
             rng=_rng(ORACLE_GRID_SEED, 0))
    cfg = PipelineConfig(seed=ORACLE_BUILD_SEED)
    ens_seeds = [int(s) for s in _rng(seed, 2).integers(0, 2**31 - 1, size.oracle_seeds)]
    return G, cfg, size.oracle_k, ens_seeds


def _build_pipeline(G, cfg):
    from repro import Pipeline

    pipe = Pipeline(G, cfg)
    pipe.oracle()  # the lazy hop-set + oracle build users pay once
    return pipe


def run_ensemble(seed: int, seconds: float, trace: bool,
                 size: Size) -> tuple[Run, dict]:
    """``sample_ensemble`` calls cycling through the seed list (at least
    once through it), each call followed by queries.

    Querying after every call (rather than once at the end) spreads the
    latency samples over the whole run, so the percentiles do not hinge on
    one short stretch of a machine whose speed drifts.  The run stops
    between calls rather than between passes over the list, because a pass
    takes about 30 seconds and would leave a run one or two passes long.
    """
    name = "oracle-ensemble"
    G, cfg, k, ens_seeds = _ensemble_inputs(seed, size)
    run = Run()
    def build(g):
        return _build_pipeline(g, cfg)

    first_setups, pipe = timed_setup(build, G, size.setup_reps)
    setup_bursts = [first_setups]
    stream = request_stream(seed, G.n, size, size.query_rounds, kmedian=False)
    record: list = []

    def one_call(p, s: int, calls: list, queries: list, setups: list | None):
        if setups is not None:
            # Set-up is sampled throughout the run, not in one burst.
            setups.append(timed_setup(build, G, size.setup_reps)[0])
        with run.op(f"sample_ensemble seed={s}"):
            t0 = time.perf_counter()
            res = p.sample_ensemble(k, seed=s)
            calls.append(time.perf_counter() - t0)
            queries.append(query_ensemble(res.ensemble(), stream, run,
                                          None if record else record))
            return res

    calls: list[float] = []
    queries: list = []
    last: dict = {}  # seed index -> the latest result for that seed

    steps = itertools.count()

    def timed_call():
        j = next(steps) % len(ens_seeds)
        last[j] = one_call(pipe, ens_seeds[j], calls, queries, setup_bursts)

    step_times = timed_passes(timed_call, seconds / 2 if trace else seconds,
                              at_least=len(ens_seeds))
    results = [last[j] for j in sorted(last) if last[j] is not None]
    us, vs, dG = stretch_pairs(seed, G, size)
    dT = np.stack([t.distances(us, vs) for r in results for t in r.trees])
    check_dominance(run, dT, dG, name)
    # The answers were recorded on the first call, for the first seed, and
    # every call for a seed gives the same trees.
    check_query_answers(run, results[0].trees, record)
    run.notes.update(step_seconds=step_times, call_seconds=calls, setup_seconds=setup_bursts,
                     query_calls=[(np.percentile(q[0], 50), np.percentile(q[0], 99), q[1], q[2])
                                  for q in queries])

    if not trace:
        lat = [x for q in queries for x in q[0]]
        pct = percentile_report(lat)
        run.notes["query_latency"] = pct
        stretch_p95, stretch_mean = stretch_metrics(dT, dG)
        return run, {
            # Each burst of set-ups takes milliseconds, so its median
            # samples one speed mode; the mean over bursts weighs both.
            "setup_s": statistics.mean(statistics.median(b) for b in setup_bursts),
            "trees_per_s": k * len(calls) / sum(calls),
            "expected_stretch_p95": stretch_p95,
            "stretch_mean": stretch_mean,
            "serve_pairs_per_s": sum(q[1] for q in queries) / sum(q[2] for q in queries),
            "serve_req_p50_ms": pct["p50_ms"],
            "serve_req_p99_ms": pct["p99_ms"],
            "peak_rss_mb": peak_rss_mb(),
        }

    # Traced: a fresh set-up and one pass (calls and queries), all wrapped.
    tracer = tr.Tracer()
    traced_calls: list[float] = []
    with tr.installed(tracer):
        _, traced_pipe = timed_setup(build, G, 1)
        traced_results = [r for s in ens_seeds
                          if (r := one_call(traced_pipe, s, traced_calls, [], None))]
    dT_traced = np.stack([t.distances(us, vs) for r in traced_results for t in r.trees])
    run.check(np.array_equal(dT, dT_traced), "traced run gives the untraced trees")
    layer = tr.summarize(tracer)
    layer.update({
        "io.artifact_mb": 0.0,
        "serve.cache_hit_rate": 0.0,
        "serve.dedup_ratio": 0.0,
        "serve.mean_batch_pairs": 0.0,
        "trace.overhead_frac":
            statistics.median(traced_calls) / statistics.median(calls) - 1.0,
    })
    run.notes.update(layers=sorted(tr.layers_seen(tracer)))
    run.tracer = tracer
    return run, layer


# -- serve-mixed ----------------------------------------------------------------


def serve_block(server, stream, profiles, size: Size, run: Run, tracer=None,
                record: dict | None = None):
    """One closed-loop block: every round each client issues one request.

    Clients submit in order; a k-median call runs when issued (the server
    answers it eagerly), so requests already submitted in that round wait
    for it.  Then every client waits for its answer; the first wait
    flushes the micro-batcher.  Latency is submit -> answer.  With
    ``record``, a sample of ``(request, answer)`` pairs is kept for
    :func:`check_serve_answers`.
    """
    lat, pairs = [], 0
    t0 = time.perf_counter()
    req_id = 0
    for rnd in stream:
        waiting = []
        for req in rnd:
            req_id += 1
            if tracer is not None:
                tracer.request = req_id
            with run.op(f"serve {req.kind}"):
                s = time.perf_counter()
                if req.kind == "kmedian":
                    ans = server.kmedian(profiles[req.profile], size.kmedian_k)
                    lat.append(time.perf_counter() - s)
                    _keep(record, req, ans)
                else:
                    waiting.append((req, s, server.submit(req.kind, req.us, req.vs)))
        if tracer is not None:
            tracer.request = None
        for req, s, pending in waiting:
            try:
                ans = pending.result()
            except Exception:  # noqa: BLE001 - counted against this request
                run.fail(f"serve {req.kind} result")
                continue
            lat.append(time.perf_counter() - s)
            pairs += req.us.size
            _keep(record, req, ans)
    return lat, pairs, time.perf_counter() - t0


def _keep(record: dict | None, req: Request, ans) -> None:
    """Keep up to 2 k-median and 48 pair answers for the checks."""
    if record is None:
        return
    kept = record.setdefault(req.kind == "kmedian", [])
    if len(kept) < (2 if req.kind == "kmedian" else 48):
        kept.append((req, ans))


def check_serve_answers(run: Run, forest, profiles, size: Size, record) -> None:
    """Recompute sampled server answers directly on the loaded forest."""
    from repro.apps.batched import hst_kmedian_dp_forest

    for req, ans in record.get(True, []) + record.get(False, []):
        if req.kind == "kmedian":
            costs, facilities = hst_kmedian_dp_forest(
                forest, profiles[req.profile], size.kmedian_k)
            ok = np.array_equal(ans[0], costs) and all(
                np.array_equal(a, b) for a, b in zip(ans[1], facilities))
            run.check(ok, "serve kmedian answer")
            continue
        block = forest.distances(req.us, req.vs)
        want = {
            "distances": block,
            "distance_upper_bounds": block.min(axis=0),
            "median_distances": np.median(block, axis=0),
        }[req.kind]
        run.check(np.array_equal(ans, want), f"serve {req.kind} answer")


def run_serve(seed: int, seconds: float, trace: bool, size: Size,
              out_dir: Path) -> tuple[Run, dict]:
    from repro import EmbeddingConfig, Pipeline, PipelineConfig
    from repro.graph.generators import random_graph
    from repro.serve import load_server

    G = random_graph(size.n, 3 * size.n, wmin=1.0, wmax=10.0, rng=_rng(seed, 0))
    cfg = PipelineConfig(embedding=EmbeddingConfig(method="direct"),
                         seed=_derived_int(seed, 1))
    build_seed = _derived_int(seed, 2)
    run = Run()
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    try:
        path = work / "forest.npz"
        stream = request_stream(seed, G.n, size, size.serve_rounds, kmedian=True)
        profiles = kmedian_profiles(seed, G.n, size)
        build_times, setup_times, lat_all, pairs_loops = [], [], [], []
        record: dict = {}
        last: dict = {}
        budget = seconds / 2 if trace else seconds

        def block():
            # Every block repeats the same work from scratch: offline build,
            # cold load, then the closed loop on a server whose caches start
            # empty (same cache misses, same k-median DP calls).
            g = fresh_graph(G)
            t0 = time.perf_counter()
            meta = Pipeline(g, cfg).save_artifacts(path, size.serve_k, seed=build_seed)
            t1 = time.perf_counter()
            srv = load_server(path, mmap=True)
            setup_times.append(time.perf_counter() - t0)
            build_times.append(t1 - t0)
            lat, pairs, loop_s = serve_block(srv, stream, profiles, size, run,
                                             record=None if record else record)
            lat_all.extend(lat)
            pairs_loops.append((pairs, loop_s))
            last.update(meta=meta, stats=srv.stats(), server=srv)

        blocks = timed_passes(block, budget)
        meta, stats, forest = last["meta"], last["stats"], last["server"].forest
        us, vs, dG = stretch_pairs(seed, G, size)
        dT = forest.distances(us, vs)
        check_dominance(run, dT, dG, "served forest")
        check_serve_answers(run, forest, profiles, size, record)
        pct = percentile_report(lat_all)
        pairs_per_s = sum(p for p, _ in pairs_loops) / sum(s for _, s in pairs_loops)
        run.notes.update(block_seconds=blocks, latency=pct, setup_seconds=setup_times,
                         block_pairs_per_s=[p / s for p, s in pairs_loops],
                         fingerprint=meta["fingerprint"],
                         server_stats={k: stats[k] for k in (
                             "requests", "batches", "cache_hit_rate", "mean_batch_size")})
        if not trace:
            stretch_p95, stretch_mean = stretch_metrics(dT, dG)
            return run, {
                "setup_s": statistics.median(setup_times),
                "trees_per_s": size.serve_k * len(build_times) / sum(build_times),
                "expected_stretch_p95": stretch_p95,
                "stretch_mean": stretch_mean,
                "serve_pairs_per_s": pairs_per_s,
                "serve_req_p50_ms": pct["p50_ms"],
                "serve_req_p99_ms": pct["p99_ms"],
                "peak_rss_mb": peak_rss_mb(),
            }

        tracer = tr.Tracer()
        traced_path = work / "forest-traced.npz"
        with tr.installed(tracer):
            traced_meta = Pipeline(fresh_graph(G), cfg).save_artifacts(
                traced_path, size.serve_k, seed=build_seed)
            traced_server = load_server(traced_path, mmap=True)
            _, pairs, loop_s = serve_block(traced_server, stream, profiles, size, run,
                                           tracer=tracer)
        st = traced_server.stats()
        run.check(traced_meta["fingerprint"] == meta["fingerprint"],
                  "traced artifact fingerprint")
        run.check(np.array_equal(traced_server.forest.distances(us, vs), dT),
                  "traced artifact distances")
        layer = tr.summarize(tracer)
        layer.update({
            "io.artifact_mb": traced_path.stat().st_size / 2**20,
            "serve.cache_hit_rate": st["cache_hit_rate"],
            "serve.dedup_ratio": st["coalesced_pairs"] / max(st["batched_pairs"], 1),
            "serve.mean_batch_pairs": st["mean_batch_size"],
            "trace.overhead_frac": pairs_per_s / (pairs / loop_s) - 1.0,
        })
        run.notes["layers"] = sorted(tr.layers_seen(tracer))
        run.tracer = tracer
        return run, layer
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: Size, out_dir: Path) -> tuple[Run, dict]:
    """Run one workload; returns its counters and its metric values.

    ``out_dir`` receives the serving artifacts while they are in use.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "serve-mixed":
        return run_serve(seed, seconds, trace, size, out_dir)
    return run_ensemble(seed, seconds, trace, size)

