"""Parallel sweep executor for independent measurement cells.

Every ``(method, stencil, shape)`` cell is an independent deterministic
simulation, so a sweep fans out trivially: worker processes each build
their own :class:`~repro.bench.runner.ExperimentRunner` (same machine,
options and disk cache directory) and measure cells pulled from the pool.
Because the simulator is deterministic, a parallel sweep produces counters
bit-identical to the serial sweep; results are returned in cell order
regardless of completion order.

Failure handling is per-cell: an exception inside a worker is captured as
:attr:`CellResult.error` and the rest of the sweep proceeds.  When a disk
cache directory is shared, workers populate it with atomic writes, so a
warm second sweep performs zero simulations in any process.  The same
sharding drives ``action="precompile"``: instead of measuring, each worker
pre-builds the compiled-artifact store entries (templates, programs,
columnar plans) for its cells — the build side of ``repro precompile``.

The pooled path is a thin client of the stencil service
(:class:`repro.service.engine.StencilService`): ``run_cells(jobs=N)``
drives a short-lived service on the batch lane, so the CLI sweep and the
long-running ``repro serve`` engine share one job API and one worker
implementation.  ``Ctrl-C`` mid-sweep terminates the worker pool cleanly
and returns the cells that finished, instead of leaking workers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.base import KernelOptions
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.timing import SamplePlan

Cell = Tuple[str, str, Tuple[int, ...]]


@dataclass
class CellResult:
    """Outcome of one cell of a sweep (success or captured failure)."""

    index: int
    method: str
    stencil: str
    shape: Tuple[int, ...]
    counters: Optional[PerfCounters] = None
    error: Optional[str] = None
    source: str = "simulated"
    seconds: float = 0.0
    #: Per-cell summary for non-measurement actions (precompile).
    info: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# Worker-process state, built once per worker by the pool initializer.
_WORKER_RUNNER = None
_WORKER_ARGS: Tuple[bool, Optional[SamplePlan], str] = (True, None, "measure")


def _init_worker(
    machine,
    options,
    cache_dir,
    warm,
    plan,
    engine=None,
    artifact_dir=None,
    action="measure",
    steady=None,
    sample=None,
) -> None:
    global _WORKER_RUNNER, _WORKER_ARGS
    from repro.bench.runner import ExperimentRunner

    _WORKER_RUNNER = ExperimentRunner(
        machine,
        options,
        cache_dir=cache_dir,
        engine=engine,
        steady=steady,
        sample=sample,
        artifact_dir=artifact_dir,
    )
    _WORKER_ARGS = (warm, plan, action)


def _run_cell(item: Tuple[int, Cell]) -> CellResult:
    index, (method, stencil, shape) = item
    warm, plan, action = _WORKER_ARGS
    start = time.perf_counter()
    try:
        if action == "precompile":
            info = _WORKER_RUNNER.precompile_cell(method, stencil, shape)
            return CellResult(
                index,
                method,
                stencil,
                tuple(shape),
                source="precompiled",
                seconds=time.perf_counter() - start,
                info=info,
            )
        measurement = _WORKER_RUNNER.measure(method, stencil, shape, warm=warm, plan=plan)
        source = _WORKER_RUNNER.provenance(method, stencil, shape, warm=warm, plan=plan)
        return CellResult(
            index,
            method,
            stencil,
            tuple(shape),
            counters=measurement.counters,
            source=source or "simulated",
            seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 — captured per cell by design
        return CellResult(
            index,
            method,
            stencil,
            tuple(shape),
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - start,
        )


def _progress_line(done: int, total: int, failed: int, started: float) -> str:
    elapsed = time.perf_counter() - started
    tail = f", {failed} failed" if failed else ""
    return f"[sweep] {done}/{total} cells{tail} in {elapsed:.1f}s"


def _run_cells_pooled(
    cells: Sequence[Cell],
    out: List[CellResult],
    machine,
    options,
    cache_dir,
    warm,
    plan,
    workers: int,
    tick,
    engine,
    artifact_dir,
    action,
    steady,
    sample,
) -> None:
    """Drive one batch job through a short-lived stencil service.

    Appends completed cells into ``out`` as they finish (completion
    order), then sorts it by index.  A ``KeyboardInterrupt`` terminates
    the worker pool and keeps the cells completed so far, so an aborted
    sweep never leaks worker processes and keeps its partial results.
    """
    import asyncio

    from repro.service.engine import StencilService

    service = StencilService(
        workers=workers,
        cache_dir=cache_dir,
        artifact_dir=artifact_dir,
        engine=engine,
        steady=steady,
        sample=sample,
    )

    async def drive() -> None:
        async with service:
            job = await service.submit(
                cells, lane="batch", machine=machine, options=options,
                warm=warm, plan=plan, action=action,
            )
            async for kind, payload in job.events():
                if kind == "done":
                    break
                out.append(payload)
                tick()

    try:
        asyncio.run(drive())
    except KeyboardInterrupt:
        service.terminate()
        print(
            f"\n[sweep] interrupted — keeping {len(out)}/{len(cells)} "
            "completed cells, workers terminated",
            file=sys.stderr,
        )
    out.sort(key=lambda r: r.index)


def run_cells(
    cells: Sequence[Cell],
    machine: Optional[MachineConfig] = None,
    options: Optional[KernelOptions] = None,
    cache_dir=None,
    warm: bool = True,
    plan: Optional[SamplePlan] = None,
    jobs: int = 1,
    progress: bool = False,
    runner=None,
    engine: Optional[str] = None,
    steady: Optional[str] = None,
    sample: Optional[bool] = None,
    artifact_dir=None,
    action: str = "measure",
) -> List[CellResult]:
    """Measure every cell, fanning out across ``jobs`` worker processes.

    ``jobs <= 1`` runs serially in-process (no multiprocessing involved),
    which is also the reference ordering/values the parallel path must
    reproduce.  Pass ``runner`` to adopt successful results into an existing
    :class:`~repro.bench.runner.ExperimentRunner`'s in-memory cache.

    ``action="precompile"`` pre-builds the compiled-artifact store for every
    cell instead of measuring; results carry a per-cell build summary in
    :attr:`CellResult.info` and no counters.

    ``jobs > 1`` submits the whole sweep as one batch-lane job to a
    short-lived :class:`~repro.service.engine.StencilService` (the same
    engine behind ``repro serve``).  ``Ctrl-C`` mid-sweep terminates the
    worker pool and returns the cells that completed.
    """
    indexed = list(enumerate(tuple(c) for c in cells))
    total = len(indexed)
    started = time.perf_counter()
    results: List[CellResult] = []

    def tick() -> None:
        if progress:
            failed = sum(1 for r in results if not r.ok)
            print(
                "\r" + _progress_line(len(results), total, failed, started),
                end="",
                file=sys.stderr,
                flush=True,
            )

    if jobs <= 1 or total <= 1:
        global _WORKER_RUNNER, _WORKER_ARGS
        if runner is not None:
            # Reuse the caller's runner so its memo/disk caches serve directly.
            _WORKER_RUNNER, _WORKER_ARGS = runner, (warm, plan, action)
        else:
            _init_worker(
                machine, options, cache_dir, warm, plan, engine,
                artifact_dir, action, steady, sample,
            )
        try:
            for item in indexed:
                results.append(_run_cell(item))
                tick()
        finally:
            _WORKER_RUNNER = None
    else:
        _run_cells_pooled(
            [cell for _, cell in indexed],
            results,
            machine,
            options,
            cache_dir,
            warm,
            plan,
            min(jobs, total),
            tick,
            engine,
            artifact_dir,
            action,
            steady,
            sample,
        )
        if runner is not None and action == "measure":
            for result in results:
                if result.ok:
                    runner.adopt(
                        result.method,
                        result.stencil,
                        result.shape,
                        result.counters,
                        result.source,
                        warm=warm,
                        plan=plan,
                    )

    if progress and total:
        print(file=sys.stderr)
    return results
