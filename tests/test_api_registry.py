"""The string-keyed, capability-based MBF engine registry of repro.api."""

import numpy as np
import pytest

from repro.api import (
    MBFEngine,
    MBFProblem,
    available_engines,
    engines_for,
    generators as gen,
    get_engine,
    problems,
    register_engine,
    resolve_engine,
    solve,
    unregister_engine,
)
from repro.mbf.dense import FlatStates


class TestLookup:
    def test_builtins_registered(self):
        names = available_engines()
        assert {"dense", "reference"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_key_raises_with_available_set(self):
        with pytest.raises(KeyError, match="dense"):
            get_engine("nope")

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_engine("nope")


def _le_only(name, iters=0):
    """An LE-list-only engine: the shape third-party LE drivers register as."""
    return MBFEngine(name=name, le_lists=lambda G, r, **kw: (None, iters))


class TestRegistration:
    def test_register_and_unregister(self):
        engine = _le_only("test-third-party")
        try:
            register_engine(engine)
            assert get_engine("test-third-party") is engine
            assert "test-third-party" in available_engines()
        finally:
            unregister_engine("test-third-party")
        assert "test-third-party" not in available_engines()

    def test_duplicate_requires_overwrite(self):
        engine = _le_only("test-dup")
        try:
            register_engine(engine)
            with pytest.raises(ValueError, match="already registered"):
                register_engine(engine)
            replacement = _le_only("test-dup", iters=1)
            register_engine(replacement, overwrite=True)
            assert get_engine("test-dup") is replacement
        finally:
            unregister_engine("test-dup")

    def test_backend_validation(self):
        """LE-only engines (what ``EmbeddingConfig.backend`` names) are
        validated like any other engine."""
        with pytest.raises(ValueError):
            MBFEngine(name="", le_lists=lambda G, r: (None, 0))
        with pytest.raises(TypeError):
            MBFEngine(name="x", le_lists="not-callable")
        with pytest.raises(TypeError):
            register_engine("dense")


class TestBackendEquivalence:
    def test_dense_and_reference_agree(self):
        g = gen.random_graph(14, 30, rng=0)
        rank = np.random.default_rng(1).permutation(g.n)
        dense, it_d = get_engine("dense").le_lists(g, rank)
        ref, it_r = get_engine("reference").le_lists(g, rank)
        assert isinstance(ref, FlatStates)
        assert dense.to_dicts() == pytest.approx(ref.to_dicts())
        assert it_d == it_r

    def test_fixed_iteration_count(self):
        g = gen.cycle(10, rng=2)
        rank = np.random.default_rng(3).permutation(g.n)
        dense, it_d = get_engine("dense").le_lists(g, rank, h=2)
        ref, it_r = get_engine("reference").le_lists(g, rank, h=2)
        assert it_d == it_r == 2
        assert dense.to_dicts() == pytest.approx(ref.to_dicts())

    def test_rank_validated(self):
        g = gen.cycle(6, rng=4)
        bad = np.zeros(6, dtype=np.int64)
        for name in ("dense", "reference"):
            with pytest.raises(ValueError):
                get_engine(name).le_lists(g, bad)


class TestEngineRegistry:
    def test_builtin_engines_and_capabilities(self):
        assert set(available_engines()) >= {"dense", "reference"}
        dense = get_engine("dense")
        ref = get_engine("reference")
        assert "distance-map" in dense.families and "min-plus" in dense.families
        assert "all-paths" not in dense.families
        assert "all-paths" in ref.families
        assert engines_for("all-paths") == ("reference",)
        assert set(engines_for("max-min")) >= {"dense", "reference"}
        with pytest.raises(ValueError, match="unknown state family"):
            engines_for("minplus")  # typo'd family names fail loudly

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="name"):
            MBFEngine(name="", solve=lambda *a, **k: None, families=("min-plus",))
        with pytest.raises(ValueError, match="families"):
            MBFEngine(name="x", solve=lambda *a, **k: None)  # solve without families
        with pytest.raises(ValueError, match="families"):
            MBFEngine(name="x", families=("min-plus",), le_lists=lambda *a, **k: None)
        with pytest.raises(ValueError, match="capability"):
            MBFEngine(name="x")
        with pytest.raises(ValueError, match="serial le_lists"):
            # batch-only engines are unreachable from every driver surface
            MBFEngine(name="x", le_lists_batch=lambda *a, **k: None)
        with pytest.raises(ValueError, match="unknown state families"):
            # typo'd family names must fail loudly, not register unselectably
            MBFEngine(name="x", solve=lambda *a, **k: None, families=("min_plus",))
        with pytest.raises(TypeError, match="callable"):
            MBFEngine(name="x", solve=7, families=("min-plus",))
        with pytest.raises(TypeError):
            register_engine("dense")

    def test_register_resolve_unregister_custom_engine(self):
        calls = []

        def my_solve(G, problem, *, h=None, ledger=None, **kw):
            calls.append(problem.name)
            return "custom", 0

        eng = MBFEngine(name="test-custom", solve=my_solve, families=("all-paths",))
        try:
            register_engine(eng)
            assert get_engine("test-custom") is eng
            with pytest.raises(ValueError, match="already registered"):
                register_engine(eng)
            # Explicit selection dispatches to the custom driver...
            g = gen.path_graph(4)
            out, it = solve(g, problems.k_sdp(4, 1, sink=0), engine="test-custom")
            assert out == "custom" and calls == ["k-SDP(k=1, s=0)"]
            # ...but auto still prefers the built-in preference order.
            assert resolve_engine(problems.k_sdp(4, 1, sink=0)).name == "reference"
            # A solve-only engine carries no LE-list drivers.
            assert get_engine("test-custom").le_lists is None
        finally:
            unregister_engine("test-custom")
        assert "test-custom" not in available_engines()
        with pytest.raises(KeyError):
            unregister_engine("test-custom")

    def test_minimal_solve_signature_cap_error(self):
        """A driver with the minimal documented signature works without a
        cap and fails with a capability message when one is supplied."""

        def minimal(G, problem, *, h=None, ledger=None):
            return "ok", 0

        register_engine(MBFEngine(name="test-minimal", solve=minimal, families=("min-plus",)))
        try:
            g = gen.path_graph(4)
            assert solve(g, problems.sssp(4, 0), engine="test-minimal") == ("ok", 0)
            with pytest.raises(TypeError, match="does not accept"):
                solve(g, problems.sssp(4, 0), engine="test-minimal", max_iterations=3)
        finally:
            unregister_engine("test-minimal")

    def test_explicit_engine_capability_mismatch(self):
        g = gen.path_graph(4)
        with pytest.raises(ValueError, match="cannot solve"):
            solve(g, problems.k_sdp(4, 1, sink=0), engine="dense")
        with pytest.raises(KeyError, match="unknown MBF engine"):
            solve(g, problems.sssp(4, 0), engine="nope")

    def test_explicit_engine_requires_dense_form(self):
        """Pinning a dense engine on a formless problem fails at resolve
        time (capability check), not deep inside the driver."""
        inst = problems.sssp(4, 0)
        stripped = MBFProblem(inst.algo, inst.x0, inst.decode, family=inst.family)
        with pytest.raises(ValueError, match="dense form"):
            resolve_engine(stripped, "dense")


class TestBatchedDrivers:
    def test_reference_has_no_batch_driver(self):
        assert get_engine("reference").le_lists_batch is None

    def test_le_lists_batch_validated(self):
        with pytest.raises(TypeError, match="le_lists_batch"):
            MBFEngine(name="x", le_lists=lambda *a, **k: None, le_lists_batch=42)

    def test_batch_driver_matches_scalar_driver(self):
        g = gen.random_graph(16, 35, rng=32)
        rng = np.random.default_rng(33)
        ranks = np.stack([rng.permutation(g.n) for _ in range(3)])
        batch = get_engine("dense").le_lists_batch
        lists, iters = batch(g, ranks)
        for s in range(3):
            expect, it = get_engine("dense").le_lists(g, ranks[s])
            assert lists.sample_states(s).equals(expect)
            assert int(iters[s]) == it
