"""The :class:`Pipeline` facade: hop set → ``H``/oracle → LE lists → trees.

This is the canonical entry point to the paper's pipeline.  A ``Pipeline``
binds one graph to one :class:`~repro.api.configs.PipelineConfig`, builds
the expensive stage artifacts (hop set, oracle) lazily, caches them, and
amortizes them across samples:

>>> from repro.api import Pipeline, PipelineConfig
>>> pipe = Pipeline(G, PipelineConfig(seed=0))
>>> result = pipe.sample_ensemble(k=8)          # one hopset+oracle build
>>> tree = pipe.sample().tree                   # still the same artifacts
>>> dist = pipe.distance_oracle().query(0, 5)   # ditto

Randomness: the pipeline threads a single :class:`numpy.random.Generator`
(from ``rng`` or ``config.seed``) through construction and sampling in the
same order as the legacy free functions, so ``Pipeline(G, cfg, rng=s).sample()``
is bit-identical to ``sample_frt_tree_via_oracle(G, ..., rng=s)``.  Batch
sampling spawns one child generator per sample, so results do not depend on
scheduling (in-process or over a process pool).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.api.configs import ExecutionConfig, PipelineConfig
from repro.api.registry import get_backend, invoke_solve, resolve_engine
from repro.api.result import DistanceOracle, PipelineResult, SolveResult
from repro.frt.embedding import EmbeddingResult, _draw_randomness
from repro.frt.forest import build_frt_forest
from repro.frt.lelists import (
    compute_le_lists_batch_via_oracle,
    compute_le_lists_via_oracle,
)
from repro.frt.tree import build_frt_tree
from repro.graph.core import Graph
from repro.hopsets.base import HopSetResult
from repro.hopsets.exact_closure import exact_closure_hopset
from repro.hopsets.identity import identity_hopset
from repro.hopsets.rounded import rounded_hopset
from repro.hopsets.skeleton import hub_hopset
from repro.mbf.dense import BatchedFlatStates
from repro.metric.approx_metric import MetricResult, metric_from_oracle
from repro.oracle.oracle import HOracle
from repro.pram.cost import NULL_LEDGER, CostLedger
from repro.util.rng import as_rng, spawn_rngs, split_seed

__all__ = ["Pipeline"]


class Pipeline:
    """Composable, artifact-caching front end to the full pipeline.

    Parameters
    ----------
    G:
        The connected input graph.
    config:
        Stage configuration; defaults to the paper's main pipeline
        (hub hop set, rounded to ``eps=0.25``, oracle-based sampling).
    rng:
        Seed / generator for *all* pipeline randomness; overrides
        ``config.seed``.  One generator is threaded through construction
        and sampling, matching the legacy free-function conventions.
    hopset, oracle:
        Pre-built artifacts to inject (amortizing across pipelines or
        reusing externally constructed stages); injected artifacts do not
        count towards the build counters in :attr:`stats`.

    Attributes
    ----------
    stats:
        Build/sample counters (``hopset_builds``, ``oracle_builds``,
        ``metric_builds``, ``samples``) — the ledger-style evidence that
        batch sampling reuses one artifact set.
    timings:
        Cumulative wall-clock seconds per stage.
    """

    def __init__(
        self,
        G: Graph,
        config: PipelineConfig | None = None,
        *,
        rng=None,
        hopset: HopSetResult | None = None,
        oracle: HOracle | None = None,
    ):
        if not isinstance(G, Graph):
            raise TypeError(f"expected a repro Graph, got {type(G)!r}")
        if not G.is_connected():
            raise ValueError("FRT embeddings require a connected graph")
        if config is None:
            config = PipelineConfig()
        elif not isinstance(config, PipelineConfig):
            raise TypeError(f"expected a PipelineConfig, got {type(config)!r}")
        self.G = G
        self.config = config
        self._rng = as_rng(rng if rng is not None else config.seed)
        self._hopset = hopset
        self._oracle = oracle
        self._metric: MetricResult | None = None
        self.stats = {
            "hopset_builds": 0,
            "oracle_builds": 0,
            "metric_builds": 0,
            "samples": 0,
            "solves": 0,
            "apps": 0,
        }
        self.timings: dict[str, float] = {}

    # -- stage artifacts ------------------------------------------------------

    def hopset(self) -> HopSetResult:
        """The (cached) hop-set result; built on first use."""
        if self._hopset is None:
            cfg = self.config.hopset
            t0 = time.perf_counter()
            if cfg.kind == "hub":
                base = hub_hopset(self.G, cfg.d0, c=cfg.c, rng=self._rng)
            elif cfg.kind == "identity":
                base = identity_hopset(self.G)
            else:  # exact-closure
                base = exact_closure_hopset(self.G)
            if cfg.eps > 0 and cfg.kind != "identity":
                base = rounded_hopset(base, self.G, cfg.eps)
            self._hopset = base
            self.stats["hopset_builds"] += 1
            self.timings["hopset"] = self.timings.get("hopset", 0.0) + (
                time.perf_counter() - t0
            )
        return self._hopset

    def oracle(self) -> HOracle:
        """The (cached) Section-5 oracle on ``H``; built on first use."""
        if self._oracle is None:
            cfg = self.config.oracle
            hopset = self.hopset()
            if (
                cfg.penalty_base is not None
                and cfg.penalty_base < 1.0 + hopset.eps
            ):
                raise ValueError(
                    f"penalty_base={cfg.penalty_base} violates the Theorem 4.5 "
                    f"requirement >= 1 + eps = {1.0 + hopset.eps} for this hop "
                    "set; use repro.simulated.SimulatedGraph directly for "
                    "ablations below that bound"
                )
            t0 = time.perf_counter()
            self._oracle = HOracle(
                hopset,
                penalty_base=cfg.penalty_base,
                inner_early_exit=cfg.inner_early_exit,
                rng=self._rng,
            )
            self.stats["oracle_builds"] += 1
            self.timings["oracle"] = self.timings.get("oracle", 0.0) + (
                time.perf_counter() - t0
            )
        return self._oracle

    # -- sampling -------------------------------------------------------------

    def sample(
        self,
        *,
        rng=None,
        rank: np.ndarray | None = None,
        beta: float | None = None,
        ledger: CostLedger = NULL_LEDGER,
    ) -> EmbeddingResult:
        """Sample one FRT tree with the configured method.

        ``rng`` defaults to the pipeline's own generator; explicit ``rank``
        / ``beta`` values are used verbatim and do *not* consume random
        state.  The first ``"oracle"``-method call builds (and caches) the
        hop set and oracle.  This per-tree path runs on every backend
        (``"reference"`` included) and is the reference that each tree of
        :meth:`sample_ensemble` equals bit for bit.
        """
        g = self._rng if rng is None else as_rng(rng)
        # Both branches start the clock only after their artifact/backend
        # resolution, so ``timings["samples"]`` measures exactly the
        # sampling work.
        if self.config.embedding.method == "oracle":
            oracle, backend = self.oracle(), None
            t0 = time.perf_counter()
            r, b = _draw_randomness(self.G.n, g, rank=rank, beta=beta)
            lists, iters = compute_le_lists_via_oracle(oracle, r, ledger=ledger)
        else:
            oracle, backend = None, get_backend(self.config.embedding.backend)
            t0 = time.perf_counter()
            r, b = _draw_randomness(self.G.n, g, rank=rank, beta=beta)
            lists, iters = backend.le_lists(self.G, r, ledger=ledger)
        wmin, _ = self.G.weight_bounds()
        tree = build_frt_tree(lists, r, b, wmin)
        self.stats["samples"] += 1
        self.timings["samples"] = self.timings.get("samples", 0.0) + (
            time.perf_counter() - t0
        )
        return EmbeddingResult(
            tree=tree,
            rank=r,
            beta=b,
            le_lists=lists,
            iterations=iters,
            meta=self._sample_meta(oracle, backend),
        )

    def sample_ensemble(
        self,
        k: int,
        *,
        seed: int | None = None,
        execution: ExecutionConfig | None = None,
    ) -> PipelineResult:
        """Sample ``k`` independent trees into one stacked forest.

        The hop set / oracle are built (at most) once and shared by all
        ``k`` samples.  Each sample draws its ``(rank, beta)`` from its own
        child generator (spawned *before* any fan-out) and runs the batched
        LE-list driver on its own ``(1, n)`` rank matrix; the caller's
        process stacks the per-sample lists and builds all ``k`` trees in
        one :func:`~repro.frt.forest.build_frt_forest` call.  Every tree,
        LE list, iteration count and ledger equals ``sample(rng=child)``,
        so the batch is bit-reproducible under a fixed ``seed`` whatever
        the worker count.

        Parameters
        ----------
        seed:
            Batch seed.  When given, it determines construction randomness
            too (if the artifacts are not yet built), so a fresh
            ``Pipeline(G, cfg).sample_ensemble(k, seed=s)`` is fully
            deterministic.  ``None`` continues the pipeline's own stream.
        execution:
            Per-call :class:`~repro.api.configs.ExecutionConfig` override;
            ``None`` uses ``config.execution``.  ``workers > 1`` runs
            contiguous slices of the samples in a process pool.  The
            configured backend is shipped to the workers by value, so its
            driver must be picklable (a module-level function, not a
            lambda) under spawn/forkserver start methods.

        Raises ``ValueError`` on a backend without a batched LE-list
        driver (``"reference"``); :meth:`sample` runs on any backend.
        """
        if k < 1:
            raise ValueError("ensemble size k must be >= 1")
        exec_cfg = execution if execution is not None else self.config.execution
        if not isinstance(exec_cfg, ExecutionConfig):
            raise TypeError(
                f"execution must be an ExecutionConfig, got {type(exec_cfg)!r}"
            )
        oracle = backend = None
        if self.config.embedding.method == "direct":
            backend = get_backend(self.config.embedding.backend)
            if backend.le_lists_batch is None:
                raise ValueError(
                    f"backend {backend.name!r} has no batched LE-list driver, "
                    "so sample_ensemble cannot run on it; call "
                    "Pipeline.sample() once per tree, or use a batch-capable "
                    "backend (e.g. 'dense', 'dense-batched')"
                )
        t_total = time.perf_counter()
        timings_before = dict(self.timings)
        if seed is not None:
            build_ss, sample_ss = split_seed(seed, 2)
            if self._needs_build():
                # Build from a seed-derived stream so a fresh pipeline is
                # fully deterministic — but restore the pipeline's own
                # stream afterwards: the batch seed must not shift the
                # randomness of later sample()/hopset() calls.
                own_rng = self._rng
                self._rng = as_rng(build_ss)
                try:
                    self.oracle()
                finally:
                    self._rng = own_rng
            children = spawn_rngs(sample_ss, k)
        else:
            children = spawn_rngs(self._rng, k)
        # Build shared artifacts up front so every sample (and worker) reuses
        # the same hop set / oracle instead of racing to build its own.
        if self.config.embedding.method == "oracle":
            oracle = self.oracle()
        t0 = time.perf_counter()
        size = -(-k // exec_cfg.workers)
        parts = [children[lo : lo + size] for lo in range(0, k, size)]
        if len(parts) == 1:  # one slice runs in-process: a pool would only add cost
            slices = [_sample_slice(self.G, oracle, backend, children)]
        else:
            with ProcessPoolExecutor(
                max_workers=len(parts),
                initializer=_init_slice_worker,
                initargs=(self.G, oracle, backend),
            ) as pool:
                slices = list(pool.map(_slice_worker, parts))
        list_parts, iter_parts, ledger_parts, rank_parts, beta_parts = zip(*slices)
        lists = BatchedFlatStates.concat(list_parts)
        iterations = np.concatenate(iter_parts)
        ranks = np.concatenate(rank_parts)
        betas = np.concatenate(beta_parts)
        ledgers = [led for part in ledger_parts for led in part]
        wmin, _ = self.G.weight_bounds()
        forest = build_frt_forest(lists, ranks, betas, wmin)
        meta = self._sample_meta(oracle, backend)
        embeddings = [
            EmbeddingResult(
                tree=forest.tree(s),
                rank=ranks[s],
                beta=float(betas[s]),
                le_lists=lists.sample_states(s),
                iterations=int(iterations[s]),
                meta=dict(meta),
            )
            for s in range(k)
        ]
        self.stats["samples"] += k
        self.timings["samples"] = self.timings.get("samples", 0.0) + (
            time.perf_counter() - t0
        )
        merged = CostLedger()
        merged.join(*ledgers, label="ensemble")
        # Per-batch stage timings: the delta over this call, not the
        # pipeline's lifetime accumulation.
        timings = {
            stage: spent - timings_before.get(stage, 0.0)
            for stage, spent in self.timings.items()
            if spent - timings_before.get(stage, 0.0) > 0.0
        }
        timings["total"] = time.perf_counter() - t_total
        return PipelineResult(
            embeddings=embeddings,
            ledger=merged,
            forest=forest,
            ledgers=ledgers,
            timings=timings,
            meta=self._provenance(k=k, seed=seed, execution=exec_cfg.to_dict()),
        )

    def _sample_meta(self, oracle: HOracle | None, backend) -> dict:
        """The per-tree ``EmbeddingResult.meta`` of the configured method."""
        if oracle is None:
            return {"pipeline": "direct", "backend": backend.name}
        return {
            "pipeline": "oracle",
            "hop_d": oracle.d,
            "Lambda": oracle.Lambda,
            "penalty_base": oracle.penalty_base,
            "eps": self.config.hopset.eps,
        }

    # -- problem solving ------------------------------------------------------

    def solve(
        self,
        problem,
        *,
        engine: str | None = None,
        h: int | None = None,
        max_iterations: int | None = None,
        ledger: CostLedger = NULL_LEDGER,
    ) -> SolveResult:
        """Run an MBF-like problem (:mod:`repro.api.problems`) on this graph.

        The zoo-wide counterpart of :meth:`sample`: one call per problem,
        engine selected by capability (``engine=None``/``"auto"`` prefers
        the vectorized path; ``"reference"``/``"dense"``/... pin one), with
        the same ledger/timings treatment as sampling — wall-clock lands in
        ``timings["solves"]``, model costs in ``ledger`` (the vectorized
        engines charge it; the ``"reference"`` engine predates the cost
        model and charges nothing), and the call count in
        ``stats["solves"]``.

        >>> res = pipe.solve(problems.sssp(pipe.G.n, source=0))
        >>> res.value            # decoded answer (here: distance vector)
        >>> res.iterations       # MBF iterations to the fixpoint

        ``h`` runs exactly ``h`` iterations (h-hop semantics) instead of
        iterating to the fixpoint; ``max_iterations`` caps the fixpoint
        search (and only that — an explicit ``h`` takes precedence, as in
        :func:`~repro.mbf.dense.run_dense`).  Returns a
        :class:`~repro.api.result.SolveResult`.
        """
        eng = resolve_engine(problem, engine)
        t0 = time.perf_counter()
        value, iterations = invoke_solve(
            eng, self.G, problem, h=h, max_iterations=max_iterations, ledger=ledger
        )
        self.stats["solves"] += 1
        self.timings["solves"] = self.timings.get("solves", 0.0) + (
            time.perf_counter() - t0
        )
        return SolveResult(
            value=value,
            iterations=int(iterations),
            problem=problem.name,
            family=problem.family,
            engine=eng.name,
        )

    # -- applications ---------------------------------------------------------

    def solve_app(self, app: str, **kwargs):
        """Run a Section 9-10 application on this pipeline's graph.

        The application-level counterpart of :meth:`solve`: one call per
        problem instance, routed through the forest-backed batch path
        (``sample_ensemble`` + the vectorized DP/routing kernels of
        :mod:`repro.apps.batched`), with wall-clock recorded in
        ``timings["apps"]`` and the call count in ``stats["apps"]``.

        >>> res = pipe.solve_app("kmedian", k=4, trees=8)
        >>> res.facilities, res.cost
        >>> res = pipe.solve_app("buy-at-bulk", demands=dms, cables=cbl, trees=4)
        >>> res.graph_cost

        ``"kmedian"`` forwards to :func:`~repro.apps.kmedian.kmedian` with
        this pipeline's generator (and, under the ``"oracle"`` embedding
        method, the cached Section-5 oracle for the candidate-sampling
        distance queries — the paper's mechanism).  ``"buy-at-bulk"``
        forwards to :func:`~repro.apps.buyatbulk.buy_at_bulk` with this
        pipeline injected, so the ensemble is sampled under the configured
        method/backend and artifacts stay amortized across calls.
        """
        # Local imports: the application modules import Pipeline themselves.
        from repro.apps.buyatbulk import buy_at_bulk as _buy_at_bulk
        from repro.apps.kmedian import kmedian as _kmedian

        t0 = time.perf_counter()
        if app == "kmedian":
            if "oracle" not in kwargs and self.config.embedding.method == "oracle":
                kwargs["oracle"] = self.oracle()
            kwargs.setdefault("rng", self._rng)
            result = _kmedian(self.G, **kwargs)
        elif app in ("buy-at-bulk", "buyatbulk"):
            for key in ("pipeline", "embedding", "rng"):
                if key in kwargs:
                    raise ValueError(
                        f"solve_app('buy-at-bulk') routes through this "
                        f"pipeline's sampler; {key!r} cannot be overridden — "
                        "call repro.apps.buyatbulk.buy_at_bulk directly instead"
                    )
            result = _buy_at_bulk(self.G, pipeline=self, **kwargs)
        else:
            raise ValueError(
                f"unknown application {app!r}; available: 'kmedian', 'buy-at-bulk'"
            )
        self.stats["apps"] += 1
        self.timings["apps"] = self.timings.get("apps", 0.0) + (
            time.perf_counter() - t0
        )
        return result

    # -- distance queries -----------------------------------------------------

    def embed_metric(self, *, ledger: CostLedger = NULL_LEDGER) -> MetricResult:
        """Theorem 6.1 through the cached oracle: an approximate *metric*.

        Reuses the pipeline's hop set / oracle (one build serves trees and
        metric queries alike); the result is cached.  Passing an explicit
        ``ledger`` always runs (and charges) the computation — a cached
        matrix must not silently report zero cost.
        """
        if self._metric is None or ledger is not NULL_LEDGER:
            oracle = self.oracle()
            t0 = time.perf_counter()
            self._metric = metric_from_oracle(
                oracle, eps=self.config.hopset.eps, ledger=ledger
            )
            self.stats["metric_builds"] += 1
            self.timings["metric"] = self.timings.get("metric", 0.0) + (
                time.perf_counter() - t0
            )
        return self._metric

    def distance_oracle(self) -> DistanceOracle:
        """Constant-time approximate distance queries on this graph."""
        return DistanceOracle(self.embed_metric())

    # -- artifacts (offline half of the build/serve split) --------------------

    def save_artifacts(
        self,
        path,
        k: int,
        *,
        seed: int | None = None,
        execution: ExecutionConfig | None = None,
    ) -> dict:
        """Offline build step: sample a ``k``-ensemble and persist it.

        One call produces the artifact file the online side preloads
        (``repro.serve.load_server`` or :meth:`from_artifacts`): samples
        the ensemble (its stacked forest *is* the storage format), stamps
        the provenance fingerprint, and writes a ``"result"`` artifact via
        :func:`repro.io.save_result`.  ``execution`` spreads the build over
        worker processes; the persisted arrays are bit-identical either
        way.  Returns the written artifact meta.
        """
        result = self.sample_ensemble(k, seed=seed, execution=execution)
        return result.save(path)

    @staticmethod
    def from_artifacts(
        path, *, mmap: bool = False
    ) -> PipelineResult:  # shape: -> object view
        """Rehydrate a persisted ensemble — no graph, no rebuild.

        The loaded :class:`~repro.api.result.PipelineResult` carries the
        forest, per-sample embeddings (zero-copy views into it), ledger
        totals, timings, and the stamped provenance; queries are
        bit-identical to the result that was saved.  ``mmap=True`` maps
        the stacked arrays read-only from the file.
        """
        from repro.io.artifacts import load_result

        return load_result(path, mmap=mmap)

    # -- introspection --------------------------------------------------------

    def _needs_build(self) -> bool:
        if self.config.embedding.method != "oracle":
            return False
        return self._oracle is None

    def _provenance(self, **extra) -> dict:
        from repro.io.artifacts import content_fingerprint

        # The stable content identity: configs + seeds only.  Run-specific
        # noise (stats, timings) and the ExecutionConfig, which provably
        # does not change the result, are excluded, so equal-content runs
        # share cache keys and artifact filenames.
        content_config = self.config.to_dict()
        content_config.pop("execution", None)
        fingerprint = content_fingerprint(
            {
                "config": content_config,
                "n": self.G.n,
                "m": self.G.m,
                "method": self.config.embedding.method,
                "backend": self.config.embedding.backend,
                "k": extra.get("k"),
                "seed": extra.get("seed"),
            }
        )
        meta: dict = {
            "config": self.config.to_dict(),
            "n": self.G.n,
            "m": self.G.m,
            "method": self.config.embedding.method,
            "backend": self.config.embedding.backend,
            "fingerprint": fingerprint,
            "stats": dict(self.stats),
            **extra,
        }
        if self._hopset is not None:
            meta["hopset"] = {
                "d": self._hopset.d,
                "eps": self._hopset.eps,
                "extra_edges": self._hopset.extra_edges,
            }
        if self._oracle is not None:
            meta["oracle"] = {
                "Lambda": self._oracle.Lambda,
                "penalty_base": self._oracle.penalty_base,
                "d": self._oracle.d,
            }
        return meta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = [k for k, v in (("hopset", self._hopset), ("oracle", self._oracle)) if v]
        return (
            f"Pipeline(n={self.G.n}, m={self.G.m}, "
            f"method={self.config.embedding.method!r}, built={built})"
        )


_WORKER_ARGS: tuple | None = None


def _init_slice_worker(G, oracle, backend) -> None:
    """Pool initializer: keep the shared sampling inputs once per worker."""
    global _WORKER_ARGS
    _WORKER_ARGS = (G, oracle, backend)


def _slice_worker(children: list[np.random.Generator]) -> tuple:
    """Process-pool body: :func:`_sample_slice` over one slice of samples."""
    assert _WORKER_ARGS is not None, "pool initializer did not run"
    return _sample_slice(*_WORKER_ARGS, children)


def _sample_slice(
    G: Graph,
    oracle: HOracle | None,
    backend,
    children: list[np.random.Generator],
) -> tuple:
    """Draws and LE lists of a contiguous run of samples.

    Each child generator draws its sample's ``(rank, beta)``, and the
    batched LE-list driver runs on that one ``(1, n)`` rank matrix: the
    oracle's when ``oracle`` is given, else ``backend``'s.  Returns the
    picklable ``(lists, iterations, ledgers, ranks, betas)`` of the slice,
    with the lists stacked in sample order.
    """
    lists, iterations, ledgers, ranks, betas = [], [], [], [], []
    for child in children:
        rank, beta = _draw_randomness(G.n, child)
        ledger = CostLedger()
        if oracle is not None:
            sample_lists, iters = compute_le_lists_batch_via_oracle(
                oracle, rank[None, :], ledgers=[ledger]
            )
        else:
            sample_lists, iters = backend.le_lists_batch(
                G, rank[None, :], ledgers=[ledger]
            )
        lists.append(sample_lists)
        iterations.append(np.asarray(iters, dtype=np.int64))
        ledgers.append(ledger)
        ranks.append(rank)
        betas.append(beta)
    return (
        BatchedFlatStates.concat(lists),
        np.concatenate(iterations),
        ledgers,
        np.stack(ranks),
        np.array(betas),
    )
