"""Dense-vs-reference engine parity for every zoo family.

The acceptance bar of the problem-centric engine API: for every
``repro.mbf.zoo`` instance, the vectorized engine must reproduce the
reference engine's *decoded output* and *iteration count* exactly — at
the fixpoint and under h-capped runs — on random weighted graphs.
"""

import math

import numpy as np
import pytest

from repro.api import (
    FAMILIES,
    MBFProblem,
    Pipeline,
    PipelineConfig,
    SolveResult,
    engines_for,
    generators as gen,
    get_engine,
    problems,
    resolve_engine,
    solve,
)
from repro.graph.core import Graph
from repro.mbf.dense import FlatStates
from repro.mbf.problem import ScalarForm, solve_dense, solve_reference
from repro.mbf.scalar import run_scalar
from repro.pram.cost import CostLedger

INF = math.inf


def _random_graphs():
    """Random weighted graphs of assorted densities (one disconnected)."""
    gs = [
        gen.random_graph(14, 25, rng=100),
        gen.random_graph(20, 60, rng=101),
        gen.cycle(11, wmin=0.5, wmax=3.0, rng=102),
        gen.weighted_tree(16, rng=103),
    ]
    # A disconnected instance (two components) — families that support it
    # must agree there too (connectivity explicitly, Section 3.4).
    r = np.random.default_rng(104)
    edges = [(u, v, float(r.uniform(0.5, 2.0))) for u, v in
             [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]]
    gs.append(Graph.from_edge_list(7, edges))
    return gs


GRAPHS = _random_graphs()


def _instances(n: int, rng: np.random.Generator) -> dict:
    srcs = sorted(int(s) for s in rng.choice(n, size=3, replace=False))
    return {
        "sssp": problems.sssp(n, int(rng.integers(n))),
        "mssp": problems.mssp(n, srcs),
        "forest_fire": problems.forest_fire(n, srcs[:2], dmax=2.5),
        "connectivity": problems.connectivity(n),
        "sswp": problems.sswp(n, int(rng.integers(n))),
        "mswp": problems.mswp(n, srcs),
        "apwp": problems.apwp(n),
        "apsp": problems.apsp(n),
        "source_detection": problems.source_detection(n, srcs, k=2, dmax=3.5),
        "k_ssp": problems.k_ssp(n, 3),
        "le_lists": problems.le_lists(n, rng.permutation(n)),
    }


DENSE_FAMILY_NAMES = sorted(_instances(8, np.random.default_rng(0)))


def _same(a, b) -> bool:
    if isinstance(a, FlatStates):
        return a.equals(b)
    return np.array_equal(np.asarray(a), np.asarray(b))


class TestDenseReferenceParity:
    @pytest.mark.parametrize("name", DENSE_FAMILY_NAMES)
    def test_fixpoint_outputs_and_iterations(self, name):
        for gi, g in enumerate(GRAPHS):
            inst = _instances(g.n, np.random.default_rng(200 + gi))[name]
            ref, it_ref = solve(g, inst, engine="reference")
            dense, it_dense = solve(g, inst, engine="dense")
            assert _same(dense, ref), (name, gi)
            assert it_dense == it_ref, (name, gi)

    @pytest.mark.parametrize("name", DENSE_FAMILY_NAMES)
    @pytest.mark.parametrize("h", [0, 1, 3])
    def test_h_capped_runs(self, name, h):
        g = GRAPHS[1]
        inst = _instances(g.n, np.random.default_rng(300))[name]
        ref, it_ref = solve(g, inst, engine="reference", h=h)
        dense, it_dense = solve(g, inst, engine="dense", h=h)
        assert _same(dense, ref), (name, h)
        assert it_dense == it_ref == h

    def test_all_paths_family_reference_only(self):
        g = GRAPHS[0]
        inst = problems.k_sdp(g.n, 2, sink=0)
        assert engines_for("all-paths") == ("reference",)
        # auto falls back to the reference engine...
        assert resolve_engine(inst).name == "reference"
        out, _ = solve(g, inst)
        ref, _ = solve(g, inst, engine="reference")
        assert out == ref
        # ...and pinning a dense engine is a capability error.
        with pytest.raises(ValueError, match="all-paths"):
            solve(g, inst, engine="dense")

    def test_problem_without_dense_form_autoroutes_to_reference(self):
        inst = problems.sssp(5, 0)
        stripped = MBFProblem(inst.algo, inst.x0, inst.decode, family=inst.family)
        assert resolve_engine(stripped).name == "reference"
        g = gen.path_graph(5)
        out, _ = solve(g, stripped)
        assert np.array_equal(out, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="dense form"):
            solve_dense(g, stripped)

    def test_graph_size_mismatch_rejected(self):
        inst = problems.sssp(5, 0)
        g = gen.path_graph(6)
        for fn in (solve_reference, solve_dense):
            with pytest.raises(ValueError, match="n=5"):
                fn(g, inst)


class TestScalarKernels:
    def test_ledger_charges_scale_with_columns(self):
        g = GRAPHS[1]
        l1, l3 = CostLedger(), CostLedger()
        solve_dense(g, problems.sssp(g.n, 0), ledger=l1)
        solve_dense(g, problems.mssp(g.n, [0, 1, 2]), ledger=l3)
        assert l1.work > 0 and l3.work > l1.work

    def test_max_iterations_cap(self):
        g = gen.path_graph(8)  # SPD = 7: fixpoint at 7, detected at 8
        inst = problems.sssp(8, 0)
        _, iters = solve_dense(g, inst, max_iterations=8)
        assert iters == 7
        with pytest.raises(RuntimeError, match="the cap, not the filter"):
            solve_dense(g, inst, max_iterations=7)

    def test_invalid_parameters_rejected(self):
        g = gen.path_graph(4)
        with pytest.raises(ValueError, match="semiring"):
            run_scalar(g, np.zeros((4, 1)), semiring="nope")
        with pytest.raises(ValueError, match="shape"):
            run_scalar(g, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="max_iterations"):
            run_scalar(g, np.zeros((4, 1)), max_iterations=0)
        with pytest.raises(ValueError, match="ScalarForm semiring"):
            ScalarForm("boolean", np.zeros((4, 1)), decode=lambda X: X)
        # The dmax range filter only makes sense under min-plus: mapping
        # over-cap widths to inf would promote them to the max-min top.
        with pytest.raises(ValueError, match="min-plus"):
            run_scalar(g, np.zeros((4, 1)), semiring="max-min", dmax=0.5)
        with pytest.raises(ValueError, match="min-plus"):
            ScalarForm("max-min", np.zeros((4, 1)), decode=lambda X: X, dmax=0.5)
        # unit_weights (hop counting) is likewise a min-plus convention.
        with pytest.raises(ValueError, match="min-plus"):
            run_scalar(g, np.zeros((4, 1)), semiring="max-min", unit_weights=True)
        with pytest.raises(ValueError, match="min-plus"):
            ScalarForm("max-min", np.zeros((4, 1)), decode=lambda X: X, unit_weights=True)

    def test_negative_h_rejected_on_every_engine(self):
        g = gen.path_graph(4)
        for inst in (problems.sssp(4, 0), problems.apsp(4)):
            for engine in ("dense", "reference"):
                with pytest.raises(ValueError, match="non-negative"):
                    solve(g, inst, engine=engine, h=-1)

    def test_edgeless_graph(self):
        g = Graph(3, np.empty((0, 2), dtype=np.int64), np.empty(0))
        out, iters = solve_dense(g, problems.sssp(3, 1))
        assert iters == 0
        assert np.array_equal(out, np.array([INF, 0.0, INF]))
        conn, _ = solve_dense(g, problems.connectivity(3))
        assert np.array_equal(conn, np.eye(3, dtype=bool))


class TestPipelineSolve:
    def test_solve_result_and_accounting(self):
        g = gen.random_graph(16, 40, rng=50)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        res = pipe.solve(problems.sswp(g.n, 2))
        assert isinstance(res, SolveResult)
        assert res.engine == "dense" and res.family == "max-min"
        assert res.problem == "SSWP"
        ref = pipe.solve(problems.sswp(g.n, 2), engine="reference")
        assert np.array_equal(res.value, ref.value)
        assert res.iterations == ref.iterations
        assert pipe.stats["solves"] == 2
        assert pipe.timings["solves"] > 0.0
        # solve() builds no pipeline artifacts — it runs on G directly.
        assert pipe.stats["hopset_builds"] == 0
        assert pipe.stats["oracle_builds"] == 0

    def test_solve_h_and_ledger(self):
        g = gen.random_graph(16, 40, rng=51)
        pipe = Pipeline(g, PipelineConfig(seed=0))
        ledger = CostLedger()
        res = pipe.solve(problems.apsp(g.n), h=2, ledger=ledger)
        assert res.iterations == 2
        assert ledger.work > 0

    def test_le_lists_problem_matches_backend_driver(self):
        from repro.api import get_engine

        g = gen.random_graph(14, 30, rng=52)
        rank = np.random.default_rng(53).permutation(g.n)
        via_problem, it_p = solve(g, problems.le_lists(g.n, rank))
        via_backend, it_b = get_engine("dense").le_lists(g, rank)
        assert via_problem.equals(via_backend)
        assert it_p == it_b

    def test_families_are_declared(self):
        insts = _instances(8, np.random.default_rng(1))
        assert {i.family for i in insts.values()} | {"all-paths"} == set(FAMILIES)
        for eng_name in ("dense", "reference"):
            eng = get_engine(eng_name)
            for inst in insts.values():
                assert eng.supports(inst), (eng_name, inst.name)
