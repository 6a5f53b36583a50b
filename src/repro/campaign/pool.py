"""Worker pools: the one place the campaign engine forks.

Every ``backend="process"`` campaign runs through a :class:`WorkerPool`:
either one the caller keeps open across runs, or a one-shot pool the
:class:`~repro.campaign.runner.CampaignRunner` opens for a single run and
closes after it.  Tasks cross the process boundary as
``(spec, matrix_digest, index)`` triples, and each worker looks the
expanded scenario table up by ``(spec, matrix_digest)``.

A pool's first run may hand over the parent's expansion before the fork
(the ``scenarios=`` warm start of :meth:`WorkerPool.run_indices`): the
workers inherit the table copy-on-write, so builders and strategy
transforms never need to be picklable and a *spec-less* matrix
(``spec=None``, e.g. a hand-built :class:`ScenarioMatrix`) runs fine.
Only a table that must be built *after* the fork — a later run on a
long-lived pool — needs a *rebuildable* matrix: a :class:`MatrixSpec` is a
tiny picklable recipe (a registered factory name plus primitive
arguments) that each worker resolves and expands once.  The worker
verifies the rebuilt matrix's structural digest before running anything,
so structural drift between parent and worker fails loudly.  The
structural digest cannot see parameters captured inside builder closures
(see :meth:`ScenarioMatrix.digest`), so a registered factory must build
its matrix purely from its arguments — not from mutable module state —
for the verification to mean what it says.

Factories register under a short name — ``default`` is
:func:`repro.campaign.families.default_matrix`, ``ablation`` is
:func:`repro.campaign.ablation.ablation_matrix` — and anything importable
at worker startup can register its own via :func:`register_matrix_factory`
(plain call or decorator).  The *registry audit* in the worker-side digest
check makes bespoke factories first-class: before a worker runs anything
it verifies the named factory is registered (importing the standard
factory modules on demand) and that the rebuilt matrix reproduces the
parent's structural digest; either failure names the factory and the full
registry, so a missing ``import yourmodule`` or a non-deterministic
factory fails loudly instead of silently running the wrong matrix.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.campaign.matrix import ScenarioMatrix
from repro.campaign.scenario import Scenario, ScenarioResult, run_scenario
from repro.obs import MetricsSnapshot, worker_sample

_FACTORIES: dict[str, Callable[..., ScenarioMatrix]] = {}

#: modules whose import populates the registry with the shipped factories;
#: imported lazily to avoid package-level cycles (each of these imports
#: this module back for ``register_matrix_factory``).
_STANDARD_FACTORY_MODULES = (
    "repro.campaign.families",
    "repro.campaign.ablation",
)

# Worker-side cache: (spec, structural digest) → expanded scenario table.
# ``spec`` is None for a spec-less matrix, whose table exists only if the
# parent seeded it before the fork.  Bounded LRU: a run's tasks all share
# one key, so a handful of entries covers alternating matrices without
# letting a long parameter sweep grow per-worker memory without limit.
_TABLES: dict[tuple[MatrixSpec | None, str], list[Scenario]] = {}
_MAX_TABLES = 4


def register_matrix_factory(
    name: str, factory: Callable[..., ScenarioMatrix] | None = None
):
    """Register a matrix factory under ``name`` for worker-side rebuilds.

    Usable directly — ``register_matrix_factory("default", default_matrix)``
    — or as a decorator::

        @register_matrix_factory("ablation")
        def ablation_matrix(...): ...

    A registered factory must build its matrix purely from its arguments
    (see the module docstring); the worker-side audit verifies this by
    structural digest on every rebuild.
    """
    if factory is None:

        def decorate(fn: Callable[..., ScenarioMatrix]) -> Callable[..., ScenarioMatrix]:
            _FACTORIES[name] = fn
            return fn

        return decorate
    _FACTORIES[name] = factory
    return factory


def registered_factories() -> tuple[str, ...]:
    """The currently registered factory names (sorted), for audits."""
    return tuple(sorted(_FACTORIES))


def _audit_factory(name: str) -> Callable[..., ScenarioMatrix]:
    """Resolve a factory name, importing the standard modules on demand."""
    if name not in _FACTORIES:
        for module in _STANDARD_FACTORY_MODULES:
            importlib.import_module(module)
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown matrix factory {name!r}; "
            f"registered: {list(registered_factories())} — a bespoke factory "
            "must be registered via register_matrix_factory in a module "
            "imported on the worker side"
        )
    return _FACTORIES[name]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """The worker count a pool uses when none is requested."""
    return max(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class MatrixSpec:
    """A picklable recipe for rebuilding a :class:`ScenarioMatrix`.

    ``kwargs`` is a sorted tuple of ``(name, value)`` pairs so the spec is
    hashable (it keys the worker-side tables) and deterministic.  Values
    must be primitives/tuples — anything :mod:`pickle` moves cheaply.
    """

    factory: str
    args: tuple = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    def build(self) -> ScenarioMatrix:
        return _audit_factory(self.factory)(*self.args, **dict(self.kwargs))


def _cache_insert(
    key: tuple[MatrixSpec | None, str], scenarios: list[Scenario]
) -> None:
    _TABLES.pop(key, None)
    while len(_TABLES) >= _MAX_TABLES:
        _TABLES.pop(next(iter(_TABLES)))
    _TABLES[key] = scenarios  # insert last: dict order is LRU order


def _cached_scenarios(
    spec: MatrixSpec | None, matrix_digest: str
) -> list[Scenario]:
    key = (spec, matrix_digest)
    scenarios = _TABLES.get(key)
    if scenarios is None:
        if spec is None:
            raise RuntimeError(
                f"worker has no scenario table for matrix {matrix_digest[:16]} "
                "and no recipe to rebuild it: pool reuse needs a rebuildable "
                "matrix (a registered factory that sets matrix.spec)"
            )
        # build() audits the registry first: a missing registration fails
        # with the factory name and the full registered set.
        matrix = spec.build()
        digest = matrix.digest()
        if digest != matrix_digest:
            raise RuntimeError(
                f"worker rebuilt matrix {digest[:16]} but the campaign expected "
                f"{matrix_digest[:16]}: the factory behind {spec.factory!r} "
                f"(registered: {list(registered_factories())}) is not "
                "deterministic across processes"
            )
        scenarios = list(matrix.scenarios())
    _cache_insert(key, scenarios)  # refresh recency either way
    return scenarios


def _run_spec_index(task: tuple[MatrixSpec | None, str, int]) -> ScenarioResult:
    spec, matrix_digest, index = task
    return run_scenario(_cached_scenarios(spec, matrix_digest)[index])


def _run_spec_index_metered(
    task: tuple[MatrixSpec | None, str, int],
) -> tuple[ScenarioResult, MetricsSnapshot]:
    """Traced variant of :func:`_run_spec_index`: the result plus a
    per-worker telemetry sample (scenario count + busy time keyed by the
    worker's pid), carried back as a picklable
    :class:`repro.obs.MetricsSnapshot` for the parent tracer to merge.
    The scenario outcome is byte-identical to the untraced path."""
    spec, matrix_digest, index = task
    start = time.perf_counter()
    result = run_scenario(_cached_scenarios(spec, matrix_digest)[index])
    return result, worker_sample(1, time.perf_counter() - start)


class WorkerPool:
    """A fork-based process pool that can outlive individual campaign runs.

    Pass one instance as ``CampaignRunner(..., pool=...)`` across several
    runs (or matrices) to pay the fork cost once; without one, the runner
    opens a one-shot pool per run.  Usable as a context manager;
    :meth:`close` tears the workers down.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_workers()
        self._pool: multiprocessing.pool.Pool | None = None

    @property
    def started(self) -> bool:
        return self._pool is not None

    def _ensure_started(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            if not fork_available():  # pragma: no cover - platform dependent
                raise RuntimeError("WorkerPool requires the fork start method")
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool

    def run_indices(
        self,
        spec: MatrixSpec | None,
        matrix_digest: str,
        indices: list[int],
        scenarios: list[Scenario] | None = None,
        tracer=None,
        meter=None,
    ) -> list[ScenarioResult]:
        """Run the given global scenario indices of one matrix.

        ``spec`` is the matrix's rebuild recipe, or None for a spec-less
        matrix.  ``scenarios`` (the parent's *full* expansion, in global
        index order) is the warm start: when supplied before the pool has
        forked, it seeds the worker-side table through fork inheritance,
        so workers skip rebuilding the first matrix — and a spec-less
        matrix needs no rebuild at all.  It is ignored once workers exist,
        since nothing can be inherited after the fork.

        ``tracer``/``meter`` (a :class:`repro.obs.Tracer` and
        :class:`repro.obs.ProgressMeter`) switch dispatch to the metered
        task variant: results stream back in order so progress ticks as
        workers finish, and each task's per-worker sample merges into the
        tracer.  Outcomes are byte-identical either way.
        """
        key = (spec, matrix_digest)
        seeded = scenarios is not None and not self.started
        if seeded:
            _cache_insert(key, scenarios)
        pool = self._ensure_started()
        if seeded:
            # Workers inherited the entry at fork; the parent never reads
            # its own table, so drop the reference rather than pin the
            # full expansion for the driver process's lifetime.
            _TABLES.pop(key, None)
        # ~8 chunks per worker, at least 1 task each.
        chunksize = max(1, len(indices) // (self.workers * 8))
        tasks = [(spec, matrix_digest, index) for index in indices]
        if tracer is None and meter is None:
            return pool.map(_run_spec_index, tasks, chunksize=chunksize)
        results = []
        for result, sample in pool.imap(
            _run_spec_index_metered, tasks, chunksize=chunksize
        ):
            results.append(result)
            if tracer is not None:
                tracer.merge_snapshot(sample)
            if meter is not None:
                meter.advance()
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
