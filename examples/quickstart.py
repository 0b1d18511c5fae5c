#!/usr/bin/env python
"""Quickstart: the unified pipeline facade (`repro.api`).

Builds a weighted graph with a large shortest-path diameter (a cycle — the
worst case for plain Moore-Bellman-Ford), then drives the paper's pipeline
through one `Pipeline` object:

- `sample()` / `sample_ensemble(k)` — FRT trees; the hop set and oracle are
  built once and amortized across the whole batch;
- `distance_oracle()` — constant-time `(1+o(1))`-approximate distance
  queries (Theorem 6.1) from the same cached artifacts;
- the embedding contract of Definition 7.1 (domination, expected stretch
  O(log n)) verified over the batch.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import (
    as_rng,
    available_engines,
    EmbeddingConfig,
    evaluate_stretch,
    generators,
    HopsetConfig,
    Pipeline,
    PipelineConfig,
    shortest_path_diameter,
)


def main() -> None:
    n = 64
    g = generators.cycle(n, wmin=1.0, wmax=3.0, rng=7)
    spd = shortest_path_diameter(g)
    print(f"graph: cycle  n={g.n}  m={g.m}  SPD={spd}")
    print(f"registered MBF engines: {available_engines()}")

    # -- the paper's oracle pipeline, one facade object -----------------------
    eps = 1.0 / np.log2(n) ** 2
    pipe = Pipeline(g, PipelineConfig(hopset=HopsetConfig(eps=eps), seed=3))
    res = pipe.sample()
    oracle = pipe.oracle()
    print(
        f"\noracle pipeline:  hop bound d={oracle.d}, levels Λ={oracle.Lambda}, "
        f"H-iterations={res.iterations} (vs SPD={spd})"
    )
    t = res.tree
    print(
        f"  one tree: {t.num_nodes} nodes, depth {t.k}, beta={res.beta:.3f}"
    )

    # -- batch ensemble sampling: one build, k trees ---------------------------
    result = pipe.sample_ensemble(k=8, seed=0)
    print(
        f"\nensemble of {result.size} trees:  hopset builds="
        f"{result.meta['stats']['hopset_builds']}, oracle builds="
        f"{result.meta['stats']['oracle_builds']} (amortized), "
        f"ledger work={result.ledger.work}, depth={result.ledger.depth}"
    )
    d_min = result.ensemble().distance_upper_bounds([0], [n // 2])[0]
    print(f"  min over trees of dist_T(0, {n // 2}) = {d_min:.2f}")
    print(f"  dist_G(0, {n // 2}) = {g.weights[:n // 2].sum():.2f} (via ring)")

    # -- constant-time approximate distance queries ----------------------------
    dq = pipe.distance_oracle()
    print(
        f"\ndistance oracle:  dist_H(0, {n // 2}) = {dq.query(0, n // 2):.2f} "
        f"(stretch bound {dq.stretch_bound:.3f}, same cached hop set/oracle)"
    )

    # -- stretch over repeated samples, direct pipeline -------------------------
    direct = Pipeline(g, PipelineConfig(embedding=EmbeddingConfig(method="direct")))
    shared = as_rng(5)
    report = evaluate_stretch(
        g, lambda: direct.sample(rng=shared).tree, trees=16, rng=6
    )
    print(
        f"\nstretch over {report.trees} direct-pipeline trees, {report.pairs} pairs:\n"
        f"  dominating          : {report.dominating}\n"
        f"  max expected stretch: {report.max_expected_stretch:.2f}"
        f"  (= {report.expected_stretch_vs_log(n):.2f} x log2 n)\n"
        f"  mean stretch        : {report.mean_stretch:.2f}"
    )


if __name__ == "__main__":
    main()
