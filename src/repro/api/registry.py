"""String-keyed registry of capability-based MBF engines.

The paper's framework claim — every MBF-like algorithm is one template
instantiated by a semimodule + congruence filter — is mirrored in code by
:class:`~repro.mbf.problem.MBFProblem` (the template instance) and
:class:`MBFEngine` (something that can run it).  An engine advertises

- ``families``: the state families its :attr:`MBFEngine.solve` driver
  handles with the uniform contract
  ``solve(G, problem, *, h=None, ledger=...) -> (decoded, iterations)``;
- LE-list drivers (``le_lists`` / ``le_lists_batch``), the FRT pipeline's
  workhorse query (Definition 7.3) and its fused multi-sample variant.

The built-ins:

=================  =========================================  =====================
engine             solve families                             LE drivers
=================  =========================================  =====================
``dense``          min-plus, max-min, boolean, distance-map   serial + batched
``dense-batched``  (same, shared implementation)              batched-routed serial
``reference``      all families (incl. all-paths)             serial
=================  =========================================  =====================

Select explicitly (:func:`get_engine`) or by capability (:func:`solve`
with ``engine="auto"`` prefers the dense path and falls back to the
reference engine for families without a dense form).

**Deprecated shim:** :class:`MBFBackend` is the PR-1 era LE-list-only
record.  It is kept as a thin view over the engine records —
:func:`register_backend` / :func:`get_backend` / :func:`available_backends`
keep working bit-identically — but new code should register
:class:`MBFEngine` instances instead.

>>> from repro.api import solve, problems
>>> dists, iters = solve(G, problems.sssp(G.n, source=0))   # engine="auto"
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.graph.core import Graph
from repro.mbf.dense import BatchedFlatStates, FlatStates
from repro.mbf.problem import (
    DENSE_FAMILIES,
    FAMILIES,
    MBFProblem,
    solve_dense,
    solve_reference,
)
from repro.pram.cost import NULL_LEDGER, CostLedger

__all__ = [
    "MBFEngine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
    "engines_for",
    "resolve_engine",
    "solve",
    "invoke_solve",
    "MBFBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class MBFEngine:
    """A named MBF engine with declared capabilities.

    Parameters
    ----------
    name:
        Registry key (``"dense"``, ``"reference"``, ...).
    solve:
        Problem driver with the uniform contract
        ``solve(G, problem, *, h=None, ledger=...) -> (decoded, iterations)``
        (``h=None`` = iterate to the fixpoint).  When the caller supplies a
        fixpoint cap, an additional ``max_iterations`` keyword is forwarded
        — drivers should declare it (or accept ``**kwargs``).  ``None`` for
        engines that only ship LE-list drivers.
    families:
        State families (:data:`repro.mbf.problem.FAMILIES`) ``solve``
        accepts.  Must be non-empty iff ``solve`` is given.
    requires_dense_form:
        Whether ``solve`` needs ``problem.dense_form`` (true for the
        vectorized built-ins); ``engine="auto"`` selection skips such
        engines for problems without one.
    le_lists:
        LE-list driver:
        ``le_lists(G, rank, h=None, ledger=...) -> (FlatStates, iterations)``.
    le_lists_batch:
        Fused multi-sample LE-list driver:
        ``le_lists_batch(G, ranks, h=None, ledgers=...) ->
        (BatchedFlatStates, iterations)`` with ``ranks`` of shape ``(k, n)``.
    description, module:
        Human-readable summary and implementing module path.
    """

    name: str
    solve: Callable[..., tuple[Any, int]] | None = None
    families: tuple[str, ...] = ()
    requires_dense_form: bool = False
    le_lists: Callable[..., tuple[FlatStates, int]] | None = None
    le_lists_batch: Callable[..., tuple[BatchedFlatStates, np.ndarray]] | None = None
    description: str = ""
    module: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("engine name must be a non-empty string")
        if (self.solve is None) != (len(self.families) == 0):
            raise ValueError("families must be declared exactly when solve is given")
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown state families {sorted(unknown)}; known: {FAMILIES}"
            )
        for fn, label in (
            (self.solve, "solve"),
            (self.le_lists, "le_lists"),
            (self.le_lists_batch, "le_lists_batch"),
        ):
            if fn is not None and not callable(fn):
                raise TypeError(f"engine {label} must be callable (or None)")
        if self.le_lists_batch is not None and self.le_lists is None:
            raise ValueError(
                "a batched LE-list driver requires a serial le_lists driver too "
                "(the backend surface and Pipeline.sample key on it)"
            )
        if self.solve is None and self.le_lists is None:
            raise ValueError("an engine needs at least one capability (solve or le_lists)")

    def supports(self, problem: MBFProblem) -> bool:
        """Whether :attr:`solve` can run ``problem``."""
        if self.solve is None or problem.family not in self.families:
            return False
        return not (self.requires_dense_form and problem.dense_form is None)


_ENGINES: dict[str, MBFEngine] = {}
#: Identity-stable deprecated MBFBackend views, keyed by engine name.
_BACKEND_VIEWS: dict[str, "MBFBackend"] = {}
#: Names whose LE view was stripped by :func:`unregister_backend` — only
#: these solve-only slots are free for a no-overwrite re-registration
#: (a natively registered solve-only engine is not up for grabs).
_LE_FREED: set[str] = set()
#: ``engine="auto"`` tries these first, in order, before other registrations
#: (every vectorized built-in outranks the pure-Python reference engine).
_AUTO_PREFERENCE = ("dense", "dense-batched", "reference")


def register_engine(engine: MBFEngine, *, overwrite: bool = False) -> MBFEngine:
    """Register ``engine`` under its name; returns it for chaining.

    Registering an existing name raises unless ``overwrite=True`` — silent
    replacement of the built-ins would make benchmark provenance lie.
    """
    if not isinstance(engine, MBFEngine):
        raise TypeError(f"expected an MBFEngine, got {type(engine)!r}")
    if engine.name in _ENGINES and not overwrite:
        raise ValueError(
            f"engine {engine.name!r} is already registered; pass overwrite=True to replace"
        )
    _ENGINES[engine.name] = engine
    _BACKEND_VIEWS.pop(engine.name, None)
    _LE_FREED.discard(engine.name)
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine (mainly for tests and plugin teardown)."""
    if name not in _ENGINES:
        raise KeyError(f"unknown MBF engine {name!r}; available: {available_engines()}")
    del _ENGINES[name]
    _BACKEND_VIEWS.pop(name, None)
    _LE_FREED.discard(name)


def get_engine(name: str) -> MBFEngine:
    """Look up an engine by name; unknown keys raise with the known set."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown MBF engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> tuple[str, ...]:
    """Sorted names of all registered engines."""
    return tuple(sorted(_ENGINES))


def engines_for(family: str) -> tuple[str, ...]:
    """Sorted names of engines whose ``solve`` accepts ``family``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown state family {family!r}; known: {FAMILIES}")
    return tuple(
        sorted(n for n, e in _ENGINES.items() if e.solve is not None and family in e.families)
    )


def resolve_engine(problem: MBFProblem, engine: str | None = None) -> MBFEngine:
    """The engine that will solve ``problem``.

    ``engine=None``/``"auto"`` prefers the vectorized built-ins and falls
    back to any registered engine supporting the problem's family (the
    reference engine covers everything, so auto never fails for zoo
    problems).  An explicit name is validated against the capability.
    """
    if not isinstance(problem, MBFProblem):
        raise TypeError(f"expected an MBFProblem, got {type(problem)!r}")
    if engine is not None and engine != "auto":
        eng = get_engine(engine)
        if eng.solve is None or problem.family not in eng.families:
            raise ValueError(
                f"engine {engine!r} cannot solve family {problem.family!r} "
                f"(supports: {eng.families})"
            )
        if not eng.supports(problem):
            raise ValueError(
                f"engine {engine!r} needs a dense form, but problem "
                f"{problem.name!r} has none; use the reference engine"
            )
        return eng
    seen = []
    for name in _AUTO_PREFERENCE:
        eng = _ENGINES.get(name)
        if eng is not None:
            seen.append(name)
            if eng.supports(problem):
                return eng
    for name, eng in _ENGINES.items():
        if name not in seen and eng.supports(problem):
            return eng
    raise KeyError(
        f"no registered engine solves family {problem.family!r}; "
        f"available engines: {available_engines()}"
    )


def solve(
    G: Graph,
    problem: MBFProblem,
    *,
    engine: str | None = None,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[Any, int]:
    """Solve an MBF-like problem on ``G``: the uniform engine driver.

    ``engine`` is a registry key or ``None``/``"auto"`` (capability-based
    selection, dense preferred).  ``h`` runs exactly ``h`` iterations;
    ``h=None`` iterates to the fixpoint under the ``max_iterations`` cap
    (the cap applies to fixpoint mode only — an explicit ``h`` wins, the
    same precedence as :func:`repro.mbf.dense.run_dense`).  Returns
    ``(decoded, iterations)``; decoded outputs and iteration counts are
    engine-independent (pinned by the parity suite).
    """
    eng = resolve_engine(problem, engine)
    return invoke_solve(eng, G, problem, h=h, max_iterations=max_iterations, ledger=ledger)


def invoke_solve(
    eng: MBFEngine,
    G: Graph,
    problem: MBFProblem,
    *,
    h: int | None = None,
    max_iterations: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[Any, int]:
    """Call ``eng.solve`` under the driver contract (shared by the
    top-level :func:`solve` and ``Pipeline.solve``).

    ``max_iterations`` is forwarded only when the caller supplied one, so
    drivers with the minimal documented signature keep working; a driver
    that cannot accept the cap fails with a clear capability message.
    """
    kwargs: dict = {}
    if max_iterations is not None:
        kwargs["max_iterations"] = max_iterations
        # Precise capability attribution: inspect the driver instead of
        # pattern-matching a TypeError, which could mask an internal bug.
        try:
            params = inspect.signature(eng.solve).parameters
        except (TypeError, ValueError):  # builtins/C callables: just try it
            params = None
        if params is not None and "max_iterations" not in params and not any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        ):
            raise TypeError(
                f"engine {eng.name!r} solve driver does not accept "
                "max_iterations; declare the keyword (or **kwargs) to "
                "support fixpoint caps"
            )
    return eng.solve(G, problem, h=h, ledger=ledger, **kwargs)


# -- deprecated MBFBackend shim ----------------------------------------------


@dataclass(frozen=True)
class MBFBackend:
    """**Deprecated** LE-list-only engine record (PR-1 API).

    Kept as a thin view over :class:`MBFEngine`: registering one wraps it
    into an engine with LE-list capability only, and :func:`get_backend`
    projects engine records back onto this shape.  New code should use
    :class:`MBFEngine` / :func:`register_engine`; this shim exists so
    existing call sites (``Pipeline``, benchmarks, third-party
    registrations) keep working unchanged.
    """

    name: str
    le_lists: Callable[..., tuple[FlatStates, int]]
    le_lists_batch: Callable[..., tuple[BatchedFlatStates, np.ndarray]] | None = None
    description: str = ""
    module: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("backend name must be a non-empty string")
        if not callable(self.le_lists):
            raise TypeError("backend le_lists must be callable")
        if self.le_lists_batch is not None and not callable(self.le_lists_batch):
            raise TypeError("backend le_lists_batch must be callable (or None)")


def _project_view(engine: MBFEngine) -> MBFBackend:
    """The one projection of an engine record onto the backend shape."""
    return MBFBackend(
        name=engine.name,
        le_lists=engine.le_lists,
        le_lists_batch=engine.le_lists_batch,
        description=engine.description,
        module=engine.module,
    )


def register_backend(backend: MBFBackend, *, overwrite: bool = False) -> MBFBackend:
    """Register a (deprecated) LE-list backend; returns it for chaining.

    The backend is stored as an :class:`MBFEngine`; for fresh names the
    original object stays the identity-stable :func:`get_backend` view.
    The shim only speaks LE lists, so overwriting an engine that also has
    a ``solve`` driver (e.g. wrapping a built-in's ``le_lists`` with
    instrumentation) replaces the LE drivers but *keeps* the solve
    capability and provenance fields — a legacy round-trip must not
    silently degrade ``solve(engine=...)`` paths.  In that merge case
    :func:`get_backend` serves a fresh projection of the merged record
    (which may differ from the object registered), not the original.
    """
    if not isinstance(backend, MBFBackend):
        raise TypeError(f"expected an MBFBackend, got {type(backend)!r}")
    prev = _ENGINES.get(backend.name)
    # The shim owns only the LE view, and only slots *it* freed: a solve-only
    # engine left by unregister_backend accepts a fresh registration, but a
    # natively registered engine (with or without LE drivers) still needs
    # overwrite=True — silently grafting onto another plugin's record would
    # be exactly the provenance corruption the flag exists to prevent.
    freed_slot = (
        prev is not None and prev.le_lists is None and backend.name in _LE_FREED
    )
    if prev is not None and not freed_slot and not overwrite:
        raise ValueError(
            f"backend {backend.name!r} is already registered; pass overwrite=True to replace"
        )
    if prev is None:
        engine = MBFEngine(
            name=backend.name,
            le_lists=backend.le_lists,
            le_lists_batch=backend.le_lists_batch,
            description=backend.description,
            module=backend.module,
        )
    else:  # merge case:
        # Keep the engine's solve capability and its provenance fields —
        # a legacy round-trip must not silently degrade the record — but
        # take BOTH LE drivers verbatim from the backend: inheriting the
        # old batched driver next to a new serial one would silently break
        # the serial/batched bit-identical guarantee, where a backend
        # without a batched driver fails loudly in sample_ensemble.
        # ``replace`` keeps this future-proof against new MBFEngine fields.
        engine = replace(
            prev,
            le_lists=backend.le_lists,
            le_lists_batch=backend.le_lists_batch,
            description=backend.description or prev.description,
            module=backend.module or prev.module,
        )
    register_engine(engine, overwrite=prev is not None)
    # The cached view must project the merged record; it is the registered
    # object itself whenever no merge changed anything the shim exposes.
    if (
        backend.le_lists_batch is engine.le_lists_batch
        and backend.description == engine.description
        and backend.module == engine.module
    ):
        view = backend
    else:
        view = _project_view(engine)
    _BACKEND_VIEWS[backend.name] = view
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (mainly for tests and plugin teardown).

    Engines that also carry a ``solve`` driver only lose their LE-list
    view (``get_backend`` stops resolving, ``solve(engine=...)`` keeps
    working); LE-only engines are removed entirely.
    """
    engine = _ENGINES.get(name)
    if engine is None or engine.le_lists is None:
        raise KeyError(f"unknown MBF backend {name!r}; available: {available_backends()}")
    if engine.solve is None:
        unregister_engine(name)
        return
    register_engine(replace(engine, le_lists=None, le_lists_batch=None), overwrite=True)
    _LE_FREED.add(name)


def get_backend(name: str) -> MBFBackend:
    """Look up a backend view by name; unknown keys raise with the known set.

    Returns the registered :class:`MBFBackend` for shim registrations, or
    an (identity-stable, cached) projection of the engine record for
    engines registered natively.
    """
    engine = _ENGINES.get(name)
    if engine is None or engine.le_lists is None:
        raise KeyError(
            f"unknown MBF backend {name!r}; available: {available_backends()}"
        )
    view = _BACKEND_VIEWS.get(name)
    if view is None:
        view = _project_view(engine)
        _BACKEND_VIEWS[name] = view
    return view


def available_backends() -> tuple[str, ...]:
    """Sorted names of all engines with an LE-list driver."""
    return tuple(sorted(n for n, e in _ENGINES.items() if e.le_lists is not None))


# -- built-in engines ---------------------------------------------------------


def _dense_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    h: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    from repro.frt.lelists import compute_le_lists

    return compute_le_lists(G, rank, h=h, ledger=ledger)


def _dense_le_lists_batch(
    G: Graph,
    ranks: np.ndarray,
    *,
    h: int | None = None,
    ledgers: Sequence[CostLedger] | None = None,
) -> tuple[BatchedFlatStates, np.ndarray]:
    from repro.frt.lelists import compute_le_lists_batch

    return compute_le_lists_batch(G, ranks, h=h, ledgers=ledgers)


def _dense_batched_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    h: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    """Single-sample driver routed through the batched engine (``k=1``).

    Exists so the batched kernels can be exercised/benchmarked through the
    ordinary backend interface; bit-identical to the ``"dense"`` driver.
    """
    from repro.frt.lelists import compute_le_lists_batch

    lists, iters = compute_le_lists_batch(
        G,
        np.asarray(rank, dtype=np.int64)[None, :],
        h=h,
        ledgers=None if ledger is NULL_LEDGER else [ledger],
    )
    return lists.sample_states(0), int(iters[0])


def _reference_le_lists(
    G: Graph,
    rank: np.ndarray,
    *,
    h: int | None = None,
    ledger: CostLedger = NULL_LEDGER,
) -> tuple[FlatStates, int]:
    """LE lists through the reference engine — literally the zoo problem.

    ``zoo.le_lists`` decodes to the canonical LE order (ascending
    ``(dist, rank)``, as the dense engine emits) — downstream consumers
    (FRT tree construction) rely on it.  The reference engine predates the
    cost ledger; ``ledger`` is accepted for interface uniformity but no
    costs are charged.
    """
    from repro.mbf import zoo

    # zoo.le_lists validates rank (shape + permutation) itself.
    return solve_reference(G, zoo.le_lists(G.n, rank), h=h, ledger=ledger)


register_engine(
    MBFEngine(
        name="dense",
        solve=solve_dense,
        families=DENSE_FAMILIES,
        requires_dense_form=True,
        le_lists=_dense_le_lists,
        le_lists_batch=_dense_le_lists_batch,
        description="vectorized flat-array + scalar engine (production path)",
        module="repro.mbf.dense",
    )
)
register_engine(
    MBFEngine(
        name="dense-batched",
        solve=solve_dense,
        families=DENSE_FAMILIES,
        requires_dense_form=True,
        le_lists=_dense_batched_le_lists,
        le_lists_batch=_dense_le_lists_batch,
        description="batched flat-array engine (multi-sample ensemble path)",
        module="repro.mbf.dense",
    )
)
register_engine(
    MBFEngine(
        name="reference",
        solve=solve_reference,
        families=FAMILIES,
        le_lists=_reference_le_lists,
        description="object-based reference engine (any semiring/semimodule)",
        module="repro.mbf.engine",
    )
)
