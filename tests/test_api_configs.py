"""Config dataclasses of the repro.api facade: validation + round-tripping."""

import dataclasses

import pytest

from repro.api import (
    EMBEDDING_METHODS,
    HOPSET_KINDS,
    EmbeddingConfig,
    ExecutionConfig,
    HopsetConfig,
    OracleConfig,
    PipelineConfig,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.hopset.kind == "hub"
        assert cfg.embedding.method == "oracle"
        assert cfg.embedding.backend == "dense"
        assert cfg.seed is None

    def test_hopset_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            HopsetConfig(kind="cohen")
        for kind in HOPSET_KINDS:
            HopsetConfig(kind=kind)

    def test_hopset_numeric_bounds(self):
        with pytest.raises(ValueError):
            HopsetConfig(d0=0)
        with pytest.raises(ValueError):
            HopsetConfig(eps=-0.1)
        with pytest.raises(ValueError):
            HopsetConfig(c=0.0)

    def test_d0_rejected_for_non_hub_kinds(self):
        """Regression: d0 used to be forwarded to identity_hopset as an
        explicit hop bound, silently truncating distances when d0 < SPD."""
        with pytest.raises(ValueError, match="d0 only applies"):
            HopsetConfig(kind="identity", d0=2)
        with pytest.raises(ValueError, match="d0 only applies"):
            HopsetConfig(kind="exact-closure", d0=2)

    def test_oracle_penalty_base(self):
        with pytest.raises(ValueError):
            OracleConfig(penalty_base=0.5)
        assert OracleConfig(penalty_base=None).penalty_base is None
        assert OracleConfig(penalty_base=1.0).penalty_base == 1.0

    def test_embedding_method_checked(self):
        with pytest.raises(ValueError, match="method"):
            EmbeddingConfig(method="quantum")
        for method in EMBEDDING_METHODS:
            EmbeddingConfig(method=method)

    def test_embedding_backend_nonempty(self):
        with pytest.raises(ValueError, match="backend"):
            EmbeddingConfig(backend="")

    def test_pipeline_nested_types_checked(self):
        with pytest.raises(TypeError):
            PipelineConfig(hopset={"kind": "hub"})
        with pytest.raises(TypeError):
            PipelineConfig(oracle=42)
        with pytest.raises(TypeError):
            PipelineConfig(embedding=None)

    def test_pipeline_seed_checked(self):
        with pytest.raises(ValueError):
            PipelineConfig(seed=-1)
        with pytest.raises(ValueError):
            PipelineConfig(seed=1.5)
        assert PipelineConfig(seed=0).seed == 0

    def test_configs_are_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.hopset.eps = 0.5


class TestRoundTrip:
    def test_stage_round_trip(self):
        for cfg in (
            HopsetConfig(kind="identity", eps=0.0),
            OracleConfig(penalty_base=1.25, inner_early_exit=False),
            EmbeddingConfig(method="direct", backend="reference"),
        ):
            assert type(cfg).from_dict(cfg.to_dict()) == cfg

    def test_pipeline_round_trip(self):
        cfg = PipelineConfig(
            hopset=HopsetConfig(kind="hub", d0=4, eps=0.125, c=1.5),
            oracle=OracleConfig(penalty_base=1.2),
            embedding=EmbeddingConfig(method="direct", backend="reference"),
            seed=7,
        )
        d = cfg.to_dict()
        assert d["hopset"]["eps"] == 0.125  # plain nested dicts
        assert PipelineConfig.from_dict(d) == cfg

    def test_from_dict_partial(self):
        cfg = PipelineConfig.from_dict({"seed": 3, "hopset": {"eps": 0.0}})
        assert cfg.seed == 3
        assert cfg.hopset.eps == 0.0
        assert cfg.embedding == EmbeddingConfig()  # defaults fill the rest

    def test_from_dict_accepts_config_instances(self):
        cfg = PipelineConfig.from_dict({"hopset": HopsetConfig(d0=3)})
        assert cfg.hopset.d0 == 3

    def test_from_dict_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            HopsetConfig.from_dict({"kind": "hub", "typo": 1})
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"hopsets": {}})

    def test_from_dict_type_checked(self):
        with pytest.raises(TypeError):
            PipelineConfig.from_dict([("seed", 3)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"hopset": {"eps": -1.0}})


class TestEnsembleMode:
    """The ensemble-mode knob is gone: one path runs every ensemble, and
    the old spellings fail loudly instead of being silently ignored."""

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError, match="ensemble_mode"):
            EmbeddingConfig(ensemble_mode="batched")
        with pytest.raises(ValueError, match="ensemble_mode"):
            EmbeddingConfig.from_dict({"method": "direct", "ensemble_mode": "serial"})

    def test_round_trips(self):
        cfg = EmbeddingConfig(method="direct", backend="reference")
        assert cfg.to_dict() == {"method": "direct", "backend": "reference"}
        assert EmbeddingConfig.from_dict(cfg.to_dict()) == cfg


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.workers == 1
        assert cfg.to_dict() == {"workers": 1}  # the one execution setting

    def test_mode_checked(self):
        """The removed mode field is rejected, not silently dropped."""
        with pytest.raises(TypeError, match="mode"):
            ExecutionConfig(mode="batched")
        with pytest.raises(ValueError, match="mode"):
            ExecutionConfig.from_dict({"mode": "batched", "workers": 2})

    def test_workers_checked(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=-2)
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=2.0)
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=True)  # bools are not worker counts

    def test_shard_size_checked(self):
        """The removed shard_size field is rejected, not silently dropped."""
        with pytest.raises(TypeError, match="shard_size"):
            ExecutionConfig(shard_size=2)
        with pytest.raises(ValueError, match="shard_size"):
            PipelineConfig.from_dict({"execution": {"workers": 2, "shard_size": 1}})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().workers = 2

    def test_round_trip(self):
        cfg = ExecutionConfig(workers=4)
        d = cfg.to_dict()
        assert d == {"workers": 4}
        assert ExecutionConfig.from_dict(d) == cfg

    def test_pipeline_nesting(self):
        cfg = PipelineConfig(execution=ExecutionConfig(workers=2))
        assert cfg.execution.workers == 2
        assert PipelineConfig().execution == ExecutionConfig()
        with pytest.raises(TypeError):
            PipelineConfig(execution={"workers": 2})

    def test_pipeline_round_trip_with_execution(self):
        cfg = PipelineConfig(execution=ExecutionConfig(workers=3), seed=1)
        d = cfg.to_dict()
        assert d["execution"] == {"workers": 3}
        assert PipelineConfig.from_dict(d) == cfg

    def test_pipeline_from_dict_validates_execution(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"execution": {"workers": 0}})
