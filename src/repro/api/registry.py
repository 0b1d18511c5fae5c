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

=============  =========================================  =====================
engine         solve families                             LE drivers
=============  =========================================  =====================
``dense``      min-plus, max-min, boolean, distance-map   serial + batched
``reference``  all families (incl. all-paths)             serial
=============  =========================================  =====================

Select explicitly (:func:`get_engine`) or by capability (:func:`solve`
with ``engine="auto"`` prefers the dense path and falls back to the
reference engine for families without a dense form).  Register new
engines with :func:`register_engine`; an LE-list-only engine is an
:class:`MBFEngine` with ``le_lists`` (and optionally ``le_lists_batch``)
and no ``solve``.

>>> from repro.api import solve, problems
>>> dists, iters = solve(G, problems.sssp(G.n, source=0))   # engine="auto"
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
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
                "(Pipeline.sample keys on it)"
            )
        if self.solve is None and self.le_lists is None:
            raise ValueError("an engine needs at least one capability (solve or le_lists)")

    def supports(self, problem: MBFProblem) -> bool:
        """Whether :attr:`solve` can run ``problem``."""
        if self.solve is None or problem.family not in self.families:
            return False
        return not (self.requires_dense_form and problem.dense_form is None)


_ENGINES: dict[str, MBFEngine] = {}
#: ``engine="auto"`` tries these first, in order, before other registrations
#: (the vectorized built-in outranks the pure-Python reference engine).
_AUTO_PREFERENCE = ("dense", "reference")


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
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine (mainly for tests and plugin teardown)."""
    if name not in _ENGINES:
        raise KeyError(f"unknown MBF engine {name!r}; available: {available_engines()}")
    del _ENGINES[name]


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
        name="reference",
        solve=solve_reference,
        families=FAMILIES,
        le_lists=_reference_le_lists,
        description="object-based reference engine (any semiring/semimodule)",
        module="repro.mbf.engine",
    )
)
