"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench``.
Each workload runs on tiny inputs, untraced and traced, through the same
entry point the benchmark command uses.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

#: The layers each workload must exercise (at least one span each).
EXPECTED_LAYERS = {
    "oracle-ensemble": {"repro.api", "repro.hopsets", "repro.oracle",
                        "repro.mbf.dense", "repro.frt"},
    "serve-mixed": {"repro.api", "repro.mbf.dense", "repro.frt", "repro.apps",
                    "repro.io", "repro.serve"},
}


def _run(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], size=workloads.SMOKE)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    lines, result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
        assert f"{m['name']} = " in "\n".join(lines)
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    assert {"nproc", "python", "numpy", "commit"} <= set(stamp)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_covers_each_layer(workload, tmp_path):
    run_, values = workloads.run_workload(workload, 3, 0.1, True, size=workloads.SMOKE,
                                          out_dir=tmp_path)
    assert run_.failed == 0
    seen = run_.notes["layers"]
    assert EXPECTED_LAYERS[workload] <= set(seen)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    assert values["pram.work_per_tree"] > 0
    if workload == "serve-mixed":  # the direct method bypasses hop set and oracle
        names = {s[0] for s in run_.tracer.spans}
        assert not {n for n in names if n.startswith(("oracle.", "hopsets."))}


def test_same_seed_same_inputs():
    a = workloads.request_stream(5, 50, workloads.SMOKE, 4, kmedian=True)
    b = workloads.request_stream(5, 50, workloads.SMOKE, 4, kmedian=True)
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            assert x.kind == y.kind and x.profile == y.profile
            if x.us is not None:
                assert (x.us == y.us).all() and (x.vs == y.vs).all()


def test_tracer_self_time_subtracts_children():
    tracer = workloads.tr.Tracer()
    inner = tracer.wrap("dense.iteration", lambda: sum(range(20000)))
    outer = tracer.wrap("oracle.h_iteration", lambda: [inner() for _ in range(3)])
    outer()
    values = workloads.tr.summarize(tracer)
    assert values["dense.iteration.calls"] == 3
    assert values["oracle.dense_calls_per_h"] == 3
    h, self_ = values["oracle.h_iteration.s"], values["oracle.h_iteration.self_s"]
    assert 0 <= self_ < h
    assert self_ == pytest.approx(h - values["dense.iteration.s"], abs=1e-9)
