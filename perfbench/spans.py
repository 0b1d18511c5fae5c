"""Span tracing installed from outside the program, and the per-layer summary.

The benchmark never edits ``repro``: :func:`installed` swaps each traced
name for a wrapper *at the binding its caller looks up* (a module global
that was imported by name, or a class attribute reached through
``self``), and puts the originals back on exit.  A wrapper records one
span ``(name, start, end, parent, request)`` plus a few counts taken from
the call's arguments or result.  Spans live in memory; :meth:`Tracer.dump`
writes them once, when the run ends.

A call that re-enters the same layer while that layer's span is already
the innermost open one (for example a kernel entry point that calls
another traced entry point of the same kernel) is not recorded twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

import numpy as np

#: The layers (module names) the per-layer metrics cover, and the span
#: names recorded for each.
LAYERS = {
    "repro.api": ("api.sample_ensemble", "api.save_artifacts"),
    "repro.hopsets": ("hopsets.build",),
    "repro.oracle": ("oracle.build", "oracle.h_iteration"),
    "repro.mbf.dense": ("dense.iteration",),
    "repro.frt": (
        "frt.le_lists",
        "frt.tree_build",
        "frt.forest_distances",
        "frt.ensemble_distances",
    ),
    "repro.apps": ("apps.kmedian_dp",),
    "repro.io": ("io.save", "io.load"),
    "repro.serve": ("serve.submit", "serve.flush"),
}

# Span record layout (a list, so that appending stays cheap).
_NAME, _START, _END, _PARENT, _REQUEST, _ATTRS = range(6)


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Identifier of the request being issued; the workload's client
        #: loop sets it around each request so its spans share it.
        self.request: int | None = None

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a ``name`` span per call.

        ``attrs(args, kwargs, result)`` returns a dict of counts stored on
        the span.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][_NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   open_[-1] if open_ else -1, self.request, None]
            spans.append(rec)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                open_.pop()
            if attrs is not None:
                rec[_ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path, stamp: dict) -> None:
        """Write every span (and the run's stamp) as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s[_NAME], "start": s[_START], "end": s[_END],
             "parent": s[_PARENT], "request": s[_REQUEST], "attrs": s[_ATTRS]}
            for s in self.spans
        ]
        path.write_text(json.dumps({"stamp": stamp, "spans": rows}))


def _targets():
    """``(owner, attribute, span name, attrs)`` for every traced binding."""
    import repro.api.pipeline as pipeline
    import repro.frt.ensemble as ensemble
    import repro.frt.forest as forest
    import repro.frt.lelists as lelists
    import repro.io.artifacts as artifacts
    import repro.mbf.dense as dense
    import repro.oracle.oracle as oracle
    import repro.serve.server as server

    def ensemble_attrs(args, kwargs, res):
        work = sum(int(led.work) for led in res.ledgers)
        depth = sum(int(led.depth) for led in res.ledgers)
        return {"trees": len(res), "work": work, "depth": depth}

    def hopset_attrs(args, kwargs, res):
        return {"edges": int(res.extra_edges)}

    def dense_attrs(args, kwargs, res):
        return {"entries_in": int(args[1].total)}

    def lelists_attrs(args, kwargs, res):
        lists, iters = res
        k = int(getattr(lists, "k", 1))
        return {
            "samples": k,
            "entries": int(lists.total),
            "vertices": k * int(lists.n),
            "iterations": int(np.sum(iters)),
        }

    def pair_attrs(args, kwargs, res):
        return {"cells": int(np.asarray(res).size)}

    def kmedian_attrs(args, kwargs, res):
        return {"trees": int(args[0].size)}

    le_targets = [
        (pipeline, "compute_le_lists_via_oracle"),
        (pipeline, "compute_le_lists_batch_via_oracle"),
        # The direct backends import these lazily from repro.frt.lelists.
        (lelists, "compute_le_lists"),
        (lelists, "compute_le_lists_batch"),
    ]
    dense_targets = [
        (oracle, "dense_iteration"),
        (oracle, "dense_iteration_batched"),
        (oracle, "dense_iteration_batched_ex"),
        # run_dense_batched's fixpoint step (the direct path).
        (dense, "dense_iteration_batched_ex"),
    ]
    return [
        (pipeline.Pipeline, "sample_ensemble", "api.sample_ensemble", ensemble_attrs),
        (pipeline.Pipeline, "save_artifacts", "api.save_artifacts", None),
        (pipeline, "hub_hopset", "hopsets.build", hopset_attrs),
        (pipeline, "rounded_hopset", "hopsets.build", None),
        (oracle.HOracle, "__init__", "oracle.build", None),
        (oracle.HOracle, "h_iteration", "oracle.h_iteration", None),
        (oracle.HOracle, "h_iteration_batched", "oracle.h_iteration", None),
        *[(o, a, "dense.iteration", dense_attrs) for o, a in dense_targets],
        *[(o, a, "frt.le_lists", lelists_attrs) for o, a in le_targets],
        (pipeline, "build_frt_tree", "frt.tree_build", None),
        (pipeline, "build_frt_forest", "frt.tree_build", None),
        (forest.FRTForest, "distances", "frt.forest_distances", pair_attrs),
        (ensemble.FRTEnsemble, "distances", "frt.ensemble_distances", pair_attrs),
        (server, "hst_kmedian_dp_forest", "apps.kmedian_dp", kmedian_attrs),
        # save_result / load_forest are imported at call time from here.
        (artifacts, "save_result", "io.save", None),
        (artifacts, "load_forest", "io.load", None),
        (server.ForestServer, "submit", "serve.submit", None),
        (server.ForestServer, "flush", "serve.flush", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- summary ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from the recorded spans."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[_PARENT], []).append(i)

    def of(name):
        return [i for i, s in enumerate(spans) if s[_NAME] == name]

    def dur(i):
        return spans[i][_END] - spans[i][_START]

    def total(ids):
        return float(sum(dur(i) for i in ids))

    def self_time(ids):
        return float(sum(
            dur(i) - _covered([(spans[c][_START], spans[c][_END])
                               for c in children.get(i, [])])
            for i in ids
        ))

    def attr_sum(ids, key):
        return sum((spans[i][_ATTRS] or {}).get(key, 0) for i in ids)

    def ratio(num, den):
        return float(num) / den if den else 0.0

    ens, hop, h_it = of("api.sample_ensemble"), of("hopsets.build"), of("oracle.h_iteration")
    dense_ids, le, trees = of("dense.iteration"), of("frt.le_lists"), of("frt.tree_build")
    fd, km, flush = of("frt.forest_distances"), of("apps.kmedian_dp"), of("serve.flush")
    h_set = set(h_it)
    dense_in_h = sum(1 for i in dense_ids if spans[i][_PARENT] in h_set)
    le_s, tree_s = total(le), total(trees)
    ens_s, work = total(ens), attr_sum(ens, "work")
    n_trees = attr_sum(ens, "trees")

    # Queue wait: submit -> start of the flush that resolves the request
    # (a flush resolves everything submitted since the previous one).
    waits, pending = [], []
    for i in sorted(of("serve.submit") + flush, key=lambda j: spans[j][_START]):
        if spans[i][_NAME] == "serve.submit":
            pending.append(spans[i][_START])
        else:
            waits.extend(spans[i][_START] - t for t in pending)
            pending = []

    dense_s = total(dense_ids)
    entries = attr_sum(dense_ids, "entries_in")
    return {
        "api.sample_ensemble.s": ens_s,
        "api.self_s": self_time(ens),
        "api.save_artifacts.s": total(of("api.save_artifacts")),
        "hopsets.build.s": total(hop),
        "hopsets.edges_added": float(attr_sum(hop, "edges")),
        "oracle.build.s": total(of("oracle.build")),
        "oracle.h_iteration.calls": float(len(h_it)),
        "oracle.h_iteration.s": total(h_it),
        "oracle.h_iteration.self_s": self_time(h_it),
        "oracle.dense_calls_per_h": ratio(dense_in_h, len(h_it)),
        "dense.iteration.calls": float(len(dense_ids)),
        "dense.iteration.s": dense_s,
        "dense.iteration.us_per_call": ratio(dense_s * 1e6, len(dense_ids)),
        "dense.entries_in": float(entries),
        "dense.ns_per_entry": ratio(dense_s * 1e9, entries),
        "frt.le_lists.s": le_s,
        "frt.tree_build.s": tree_s,
        "frt.tree_stage_frac": ratio(tree_s, le_s + tree_s),
        "frt.le_list_len_mean": ratio(attr_sum(le, "entries"), attr_sum(le, "vertices")),
        "frt.fixpoint_iters_mean": ratio(attr_sum(le, "iterations"), attr_sum(le, "samples")),
        "frt.forest_distances.s": total(fd),
        "frt.forest_distances.ns_per_pair_tree": ratio(total(fd) * 1e9, attr_sum(fd, "cells")),
        "frt.ensemble_distances.s": total(of("frt.ensemble_distances")),
        "apps.kmedian_dp.calls": float(len(km)),
        "apps.kmedian_dp.s": total(km),
        "apps.kmedian_dp.ms_per_tree": ratio(total(km) * 1e3, attr_sum(km, "trees")),
        "io.save.s": total(of("io.save")),
        "io.load.s": total(of("io.load")),
        "serve.flush.calls": float(len(flush)),
        "serve.flush.s": total(flush),
        "serve.flush.self_s": self_time(flush),
        "serve.queue_wait_ms": float(np.median(waits)) * 1e3 if waits else 0.0,
        "pram.work_per_tree": ratio(work, n_trees),
        "pram.depth_per_tree": ratio(attr_sum(ens, "depth"), n_trees),
        "pram.ns_per_work": ratio(ens_s * 1e9, work),
    }


def layers_seen(tracer: Tracer) -> set[str]:
    """The layers (keys of :data:`LAYERS`) with at least one span."""
    names = {s[_NAME] for s in tracer.spans}
    return {layer for layer, spans in LAYERS.items() if names & set(spans)}
