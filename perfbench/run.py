"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oracle-ensemble --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the untraced headline metric, then repeats the
set-up and one pass with span wrappers installed and reports the
per-layer metrics; the spans are written to ``perfbench-out/`` at the
end.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"


def metric_units(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        # The ceiling keeps git from reporting a repository that merely
        # encloses a checkout without one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(), "machine": platform.machine(),
    }


def main(argv=None, size=None) -> int:
    """Entry point; ``size`` (a ``workloads.Size``) shrinks the inputs in tests."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import FULL, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = metric_units(trace)
    run, values = run_workload(args.workload, args.seed, args.seconds, trace,
                               size=size or FULL, out_dir=OUT_DIR)
    info = stamp(args.workload, args.seed, args.seconds, trace)
    print("stamp " + json.dumps(info))
    print("notes " + json.dumps(run.notes, default=float))
    if trace:
        run.tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json", info)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} fraction "
          f"({run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
