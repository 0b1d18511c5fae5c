"""Frozen, validated stage configurations for the :mod:`repro.api` pipeline.

Each stage of the paper's pipeline — hop set (Section 1.2/DESIGN.md §2),
simulated-graph oracle (Sections 4-5), FRT embedding (Section 7) — gets one
immutable config dataclass, composed into :class:`PipelineConfig`.  All
configs validate eagerly in ``__post_init__`` and round-trip through plain
dicts (``to_dict`` / ``from_dict``) so experiment definitions can live in
JSON/YAML provenance records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

__all__ = [
    "HopsetConfig",
    "OracleConfig",
    "EmbeddingConfig",
    "ExecutionConfig",
    "PipelineConfig",
    "HOPSET_KINDS",
    "EMBEDDING_METHODS",
]

HOPSET_KINDS = ("hub", "identity", "exact-closure")
EMBEDDING_METHODS = ("oracle", "direct")


class _ConfigBase:
    """Shared dict round-tripping for the flat (non-nested) configs."""

    def to_dict(self) -> dict:
        """A plain, JSON-serializable dict of all fields."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output; unknown keys are an error."""
        if not isinstance(data, dict):
            raise TypeError(f"{cls.__name__}.from_dict expects a dict, got {type(data)!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**data)


@dataclass(frozen=True)
class HopsetConfig(_ConfigBase):
    """How to build the ``(d, eps)``-hop set (stage 1).

    Parameters
    ----------
    kind:
        ``"hub"`` — Ullman-Yannakakis-style hub sampling
        (:func:`~repro.hopsets.skeleton.hub_hopset`, the default);
        ``"identity"`` — no extra edges, ``d = SPD(G)`` baseline;
        ``"exact-closure"`` — the full metric clique (``d = 1``, Ω(n²)).
    d0:
        Segment length for ``kind="hub"`` (``None`` = ``~sqrt(n ln n)``);
        not applicable to the other kinds (identity measures ``SPD(G)``,
        the closure is ``d = 1``), where a non-``None`` value is rejected.
    eps:
        Rounding granularity: shortcut weights are rounded up to powers of
        ``1 + eps`` (:func:`~repro.hopsets.rounded.rounded_hopset`), which
        makes the Section-4 level machinery load-bearing.  ``0`` keeps the
        exact construction.  Ignored for ``kind="identity"`` (no shortcuts).
    c:
        Hub sampling oversampling constant (``kind="hub"`` only).
    """

    kind: str = "hub"
    d0: int | None = None
    eps: float = 0.25
    c: float = 2.0

    def __post_init__(self):
        if self.kind not in HOPSET_KINDS:
            raise ValueError(f"hopset kind must be one of {HOPSET_KINDS}, got {self.kind!r}")
        if self.d0 is not None and self.d0 < 1:
            raise ValueError("hopset d0 must be >= 1 (or None for the default)")
        if self.d0 is not None and self.kind != "hub":
            raise ValueError(
                f"d0 only applies to kind='hub' (got kind={self.kind!r}); "
                "identity measures SPD(G) and exact-closure is d = 1"
            )
        if self.eps < 0:
            raise ValueError("hopset eps must be non-negative")
        if self.c <= 0:
            raise ValueError("hopset sampling constant c must be positive")


@dataclass(frozen=True)
class OracleConfig(_ConfigBase):
    """How to run MBF-like queries on the simulated graph ``H`` (stage 2).

    Parameters
    ----------
    penalty_base:
        The level penalty base of Section 4; ``None`` defaults to
        ``1 + eps`` of the hop set (the Theorem 4.5 requirement).
        Explicit values below ``1 + eps`` of the built hop set are
        rejected at oracle-build time — the reported stretch bound would
        not hold (use :class:`repro.simulated.SimulatedGraph` directly
        for below-bound ablations).
    inner_early_exit:
        Stop each inner ``d``-chain at its fixpoint (lossless; see
        :mod:`repro.oracle.oracle`).  Disable to reproduce the paper's
        literal ``(Λ+1)·d`` cost.
    """

    penalty_base: float | None = None
    inner_early_exit: bool = True

    def __post_init__(self):
        if self.penalty_base is not None and self.penalty_base < 1.0:
            raise ValueError("oracle penalty_base must be >= 1 (or None for 1 + eps)")


@dataclass(frozen=True)
class EmbeddingConfig(_ConfigBase):
    """How to sample FRT trees (stage 3).

    Parameters
    ----------
    method:
        ``"oracle"`` — LE lists on the simulated graph ``H`` through the
        Section-5 oracle (polylog iterations; the paper's main pipeline);
        ``"direct"`` — LE lists on ``G`` itself (``SPD(G)`` iterations, the
        Khan-et-al. regime).
    backend:
        Registry key of the MBF engine used for the ``"direct"`` LE-list
        computation (see :mod:`repro.api.registry`); existence is checked
        lazily at first use so third-party backends can register late.
        :meth:`~repro.api.pipeline.Pipeline.sample_ensemble` needs a
        backend with a batched LE-list driver (``"dense"``,
        ``"dense-batched"``); :meth:`~repro.api.pipeline.Pipeline.sample`
        runs on any backend.
    """

    method: str = "oracle"
    backend: str = "dense"

    def __post_init__(self):
        if self.method not in EMBEDDING_METHODS:
            raise ValueError(
                f"embedding method must be one of {EMBEDDING_METHODS}, got {self.method!r}"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("embedding backend must be a non-empty registry key")


@dataclass(frozen=True)
class ExecutionConfig(_ConfigBase):
    """*How* to run the ensemble — never *what* it computes.

    Every sample draws from its own child generator, spawned before any
    fan-out, and the parent builds the forest from the samples' LE lists in
    sample order, so the worker count cannot change a bit of the result.
    This config is therefore *excluded* from the provenance fingerprint
    stamped on results and artifacts.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs every sample in-process.
        ``> 1`` splits the samples into contiguous slices of
        ``ceil(k / workers)`` and runs each slice in a process pool (a
        single slice runs in-process).
    """

    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise TypeError(f"workers must be an int, got {type(self.workers)!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class PipelineConfig(_ConfigBase):
    """Composite configuration of the full hop-set → oracle → FRT pipeline.

    Parameters
    ----------
    hopset, oracle, embedding:
        Per-stage configs (defaults reproduce the paper's main pipeline).
    execution:
        How ensembles run (:class:`ExecutionConfig`: the worker count).
        Excluded from the provenance fingerprint — execution never
        changes results.
    seed:
        Base seed for all pipeline randomness (construction *and*
        sampling).  ``None`` draws fresh OS entropy; an explicit ``rng``
        passed to :class:`~repro.api.pipeline.Pipeline` takes precedence.
    """

    hopset: HopsetConfig = field(default_factory=HopsetConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.hopset, HopsetConfig):
            raise TypeError("hopset must be a HopsetConfig")
        if not isinstance(self.oracle, OracleConfig):
            raise TypeError("oracle must be an OracleConfig")
        if not isinstance(self.embedding, EmbeddingConfig):
            raise TypeError("embedding must be an EmbeddingConfig")
        if not isinstance(self.execution, ExecutionConfig):
            raise TypeError("execution must be an ExecutionConfig")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ValueError("seed must be a non-negative int or None")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Rebuild a nested config; stage values may be dicts or configs."""
        if not isinstance(data, dict):
            raise TypeError(f"PipelineConfig.from_dict expects a dict, got {type(data)!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown PipelineConfig keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        kwargs: dict = {}
        for key, sub_cls in (
            ("hopset", HopsetConfig),
            ("oracle", OracleConfig),
            ("embedding", EmbeddingConfig),
            ("execution", ExecutionConfig),
        ):
            if key in data:
                value = data[key]
                kwargs[key] = value if isinstance(value, sub_cls) else sub_cls.from_dict(value)
        if "seed" in data:
            kwargs["seed"] = data["seed"]
        return cls(**kwargs)
