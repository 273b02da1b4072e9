"""The warm-worker job engine: asyncio front end, persistent process pool.

One :class:`StencilService` owns a :class:`LaneQueue` and a persistent
``concurrent.futures.ProcessPoolExecutor``.  Jobs are sharded into
per-cell tasks at submission, so scheduling fairness is per *cell*, not
per job — a 10,000-cell batch sweep holds a worker for exactly one cell
at a time and an interactive request overtakes it at the next completion.
Worker processes live for the service's whole lifetime and keep one
:class:`~repro.bench.runner.ExperimentRunner` per request profile, so the
compiled program pool, columnar plans, template bundles and the AOT
artifact store stay warm across requests instead of being rebuilt per
sweep.

Request coalescing: every measurable task is keyed by the same
content-addressed digest the disk cache uses
(:func:`repro.bench.cache.cache_key`), so N identical concurrent
submissions share one in-flight simulation, later identical submissions
are served from a bounded in-memory result memo, and anything that
reaches a worker still checks the shared disk cache first.  Exactly-once
cost for identical traffic falls out of those three layers.

Crash isolation: a worker that dies (OOM-killed, segfaulted, or the
deliberate ``action="crash"`` self-test probe) breaks the process pool;
the engine rebuilds the pool, retries each interrupted task once (the
innocent victims of a neighbour's crash), and converts a second failure
into a per-cell error — the engine itself never goes down with a worker.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import multiprocessing
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.cache import cache_key
from repro.bench.parallel import Cell, CellResult
from repro.kernels.base import KernelOptions
from repro.machine import artifacts
from repro.machine.config import LX2, M4, MachineConfig
from repro.machine.timing import SamplePlan
from repro.service.queue import AdmissionError, LaneQueue

#: Actions a task may carry.  ``crash`` is the crash-recovery self-test
#: probe: the worker exits hard, exactly like a segfault or the OOM
#: killer, so tests and operators can prove the engine survives it.
ACTIONS = ("measure", "precompile", "crash")

#: How many times a task interrupted by a broken pool is re-dispatched
#: before the failure is surfaced as its per-cell error.
MAX_ATTEMPTS = 2


def resolve_machine(machine) -> MachineConfig:
    """Accept a :class:`MachineConfig`, a preset name, or ``None`` (LX2)."""
    if machine is None:
        return LX2()
    if isinstance(machine, MachineConfig):
        return machine
    name = str(machine).lower()
    if name == "lx2":
        return LX2()
    if name == "m4":
        return M4()
    raise ValueError(f"unknown machine {machine!r} (use lx2 or m4)")


# -- worker side --------------------------------------------------------------

#: Worker-process runner cache, one ExperimentRunner per request profile.
#: This is what makes the pool *warm*: program pools, columnar plans and
#: measurement memos accumulate in the worker across requests.
_RUNNERS: Dict[str, object] = {}


def _runner_for(profile: Dict):
    runner = _RUNNERS.get(profile["key"])
    if runner is None:
        from repro.bench.runner import ExperimentRunner

        runner = ExperimentRunner(
            profile["machine"],
            profile["options"],
            cache_dir=profile["cache_dir"],
            engine=profile["engine"],
            steady=profile.get("steady"),
            sample=profile.get("sample"),
            artifact_dir=profile["artifact_dir"],
        )
        _RUNNERS[profile["key"]] = runner
    return runner


def run_service_task(payload: Dict) -> CellResult:
    """Execute one per-cell task in a worker process.

    This is the single cell-execution entry point shared by the service
    and the batch executor (``run_cells`` submits through the service).
    Exceptions are captured as :attr:`CellResult.error`; only a hard
    process death (``action="crash"``, a real segfault) escapes, and the
    parent's broken-pool recovery turns that into a per-cell error too.
    """
    if payload["action"] == "crash":
        os._exit(17)
    index = payload["index"]
    method, stencil, shape = payload["cell"]
    warm, plan, iters = payload["warm"], payload["plan"], payload["iters"]
    start = time.perf_counter()
    try:
        runner = _runner_for(payload["profile"])
        if payload["action"] == "precompile":
            info = runner.precompile_cell(method, stencil, shape)
            return CellResult(
                index,
                method,
                stencil,
                tuple(shape),
                source="precompiled",
                seconds=time.perf_counter() - start,
                info=info,
            )
        measurement = runner.measure(method, stencil, shape, warm=warm, plan=plan, iters=iters)
        source = runner.provenance(method, stencil, shape, warm=warm, plan=plan, iters=iters)
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


def cell_record(result: CellResult, machine: MachineConfig) -> Dict:
    """``BENCH_*.json``-compatible record for one completed cell."""
    record = {
        "method": result.method,
        "stencil": result.stencil,
        "shape": list(result.shape),
        "source": result.source,
        "seconds": result.seconds,
    }
    if result.error is not None:
        record["error"] = result.error
    if result.info is not None:
        record["info"] = result.info
    pc = result.counters
    if pc is not None:
        record["counters"] = pc.to_dict()
        record["derived"] = {
            "ipc": pc.ipc,
            "cycles_per_point": pc.cycles_per_point,
            "l1_hit_rate": pc.l1_hit_rate,
            "l1_demand_hit_rate": pc.l1_demand_hit_rate,
            "dram_bytes_per_point": pc.dram_bytes() / pc.points if pc.points else 0.0,
            "gstencil_per_s": pc.gstencil_per_s(machine.clock_ghz),
        }
    return record


# -- parent side --------------------------------------------------------------


class _CellTask:
    """One schedulable unit: a cell plus everyone waiting on it."""

    __slots__ = ("key", "lane", "payload", "subscribers", "attempts")

    def __init__(self, key, lane: str, payload: Dict) -> None:
        self.key = key
        self.lane = lane
        self.payload = payload
        #: ``(job, local_index)`` pairs to deliver the result to.
        self.subscribers: List[Tuple["Job", int]] = []
        self.attempts = 0


class Job:
    """Handle for one submitted job: per-cell futures plus an event stream."""

    def __init__(self, job_id: int, lane: str, cells: Sequence[Cell], machine) -> None:
        loop = asyncio.get_running_loop()
        self.id = job_id
        self.lane = lane
        self.cells = [tuple(c) for c in cells]
        self.machine = machine
        self.submitted_at = time.perf_counter()
        self._futures = [loop.create_future() for _ in cells]
        self._events: asyncio.Queue = asyncio.Queue()
        self._delivered = 0

    def _deliver(self, index: int, result: CellResult) -> None:
        future = self._futures[index]
        if not future.done():
            future.set_result(result)
        self._delivered += 1
        self._events.put_nowait(("cell", result))
        if self._delivered == len(self._futures):
            self._events.put_nowait(("done", self.summary()))

    @property
    def done(self) -> bool:
        return self._delivered >= len(self._futures)

    def summary(self) -> Dict:
        finished = [f.result() for f in self._futures if f.done()]
        return {
            "job": self.id,
            "lane": self.lane,
            "cells": len(self._futures),
            "completed": len(finished),
            "errors": sum(1 for r in finished if not r.ok),
            "seconds": time.perf_counter() - self.submitted_at,
        }

    async def results(self) -> List[CellResult]:
        """All cell results, in submission order (awaits completion)."""
        return list(await asyncio.gather(*self._futures))

    async def events(self):
        """Yield ``("cell", CellResult)`` per completion, then ``("done", summary)``."""
        while True:
            kind, payload = await self._events.get()
            yield kind, payload
            if kind == "done":
                return

    def records(self) -> List[Dict]:
        """Records for every completed cell, in submission order."""
        return [
            cell_record(f.result(), self.machine) for f in self._futures if f.done()
        ]


class StencilService:
    """Persistent warm-worker job engine; the one job API for all callers.

    ``submit(cells, lane) -> Job`` is used identically by the long-running
    socket server (``repro serve``), the batch executor
    (``run_cells(jobs=N)``) and tests.  The service must be ``start()``-ed
    from a running event loop; ``async with StencilService(...)`` does the
    start/shutdown pairing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        artifact_dir=None,
        engine: Optional[str] = None,
        steady: Optional[str] = None,
        sample: Optional[bool] = None,
        weights: Optional[Dict[str, int]] = None,
        max_pending: Optional[Dict[str, int]] = None,
        result_cache: int = 4096,
    ) -> None:
        self.workers = workers if workers else max(1, (os.cpu_count() or 2) - 1)
        self.cache_dir = cache_dir
        self.artifact_dir = artifact_dir
        self.engine = engine
        self.steady = steady
        self.sample = sample
        self.queue = LaneQueue(weights=weights, max_pending=max_pending)
        self.counters: Dict[str, int] = {
            "jobs": 0,
            "cells": 0,
            "coalesced_inflight": 0,
            "memo_hits": 0,
            "dispatched": 0,
            "completed": 0,
            "simulated": 0,
            "disk_hits": 0,
            "errors": 0,
            "crashes": 0,
            "retries": 0,
            "rejected": 0,
            "pool_rebuilds": 0,
        }
        self._inflight: Dict[object, _CellTask] = {}
        self._memo: "OrderedDict[object, CellResult]" = OrderedDict()
        self._memo_capacity = max(0, int(result_cache))
        self._profiles: Dict[str, Dict] = {}
        self._job_ids = itertools.count(1)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_gen = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._running: set = set()
        self._accepting = False
        self.started_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=multiprocessing.get_context()
        )

    async def start(self) -> "StencilService":
        if self._accepting:
            return self
        self._executor = self._make_executor()
        self._slots = asyncio.Semaphore(self.workers)
        self._dispatcher = asyncio.get_running_loop().create_task(self._dispatch_loop())
        self._accepting = True
        self.started_at = time.time()
        return self

    async def __aenter__(self) -> "StencilService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def shutdown(self, terminate: bool = False) -> None:
        """Stop the engine.

        Graceful (default): in-flight cells finish, queued-but-undispatched
        tasks fail with a per-cell shutdown error.  ``terminate=True`` also
        kills workers mid-cell (their tasks fail the same way).
        """
        self._accepting = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        # Fail everything still queued before touching the pool.
        while True:
            try:
                task = self.queue.get_nowait()
            except IndexError:
                break
            self._complete(task, self._error_result(task, "service shut down"))
        if terminate:
            self.terminate()
        if self._running:
            await asyncio.gather(*list(self._running), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=not terminate, cancel_futures=True)
            self._executor = None

    def terminate(self) -> None:
        """Hard-stop the worker pool (callable without a running loop)."""
        executor = self._executor
        if executor is None:
            return
        executor.shutdown(wait=False, cancel_futures=True)
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass

    # -- submission ----------------------------------------------------

    def _profile(self, machine: MachineConfig, options: KernelOptions) -> Dict:
        key = artifacts.artifact_digest(
            {
                "machine": artifacts.machine_fingerprint(machine),
                "options": dataclasses.asdict(options),
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
                "engine": self.engine,
                "steady": self.steady,
                "sample": self.sample,
                "artifact_dir": str(self.artifact_dir) if self.artifact_dir else None,
            }
        )[:16]
        profile = self._profiles.get(key)
        if profile is None:
            profile = {
                "key": key,
                "machine": machine,
                "options": options,
                "cache_dir": self.cache_dir,
                "engine": self.engine,
                "steady": self.steady,
                "sample": self.sample,
                "artifact_dir": self.artifact_dir,
            }
            self._profiles[key] = profile
        return profile

    def _task_key(self, machine, options, cell, warm, plan, iters, action):
        if action == "crash":
            return None  # never coalesced, never memoized
        method, stencil, shape = cell
        digest, _ = cache_key(
            machine, method, stencil, tuple(shape), options, plan, warm,
            iters=iters, sample=self.sample, steady=self.steady,
        )
        return (action, digest)

    @staticmethod
    def _error_result(task: _CellTask, error: str) -> CellResult:
        method, stencil, shape = task.payload["cell"]
        return CellResult(
            task.payload["index"], method, stencil, tuple(shape), error=error
        )

    async def submit(
        self,
        cells: Sequence[Cell],
        lane: str = "batch",
        machine=None,
        options: Optional[KernelOptions] = None,
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        iters: int = 1,
        action: str = "measure",
    ) -> Job:
        """Submit one job; returns a :class:`Job` streaming per-cell results.

        Admission is all-or-nothing: if the lane cannot take every task the
        job needs, :class:`AdmissionError` is raised and nothing is queued.
        Cells already in flight (or memoized, or duplicated within this
        job) don't count against admission — coalescing happens first.
        """
        if not self._accepting:
            raise RuntimeError("service is not running (call start())")
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r} (have {ACTIONS})")
        config = resolve_machine(machine)
        options = options if options is not None else KernelOptions()
        profile = self._profile(config, options)
        job = Job(next(self._job_ids), lane, cells, config)

        # Phase 1: classify every cell without mutating any shared state,
        # so admission failure leaves the engine untouched.
        plans: List[Tuple[str, object, object]] = []  # (kind, key/task, extra)
        fresh: Dict[object, _CellTask] = {}
        for index, cell in enumerate(job.cells):
            key = self._task_key(config, options, cell, warm, plan, iters, action)
            if key is not None and key in self._memo:
                plans.append(("memo", key, index))
                continue
            if key is not None and key in self._inflight:
                plans.append(("inflight", key, index))
                continue
            if key is not None and key in fresh:
                plans.append(("local", key, index))
                continue
            payload = {
                "profile": profile,
                "index": index,
                "cell": cell,
                "warm": warm,
                "plan": plan,
                "iters": iters,
                "action": action,
            }
            task = _CellTask(key, lane, payload)
            if key is not None:
                fresh[key] = task
            plans.append(("new", task, index))

        new_tasks = [task for kind, task, _ in plans if kind == "new"]
        limit = self.queue.max_pending.get(lane)
        if limit is not None:
            backlog = self.queue.pending().get(lane, 0)
            if backlog + len(new_tasks) > limit:
                self.counters["rejected"] += len(new_tasks)
                raise AdmissionError(lane, backlog + len(new_tasks), limit)

        # Phase 2: commit.
        self.counters["jobs"] += 1
        self.counters["cells"] += len(job.cells)
        for kind, ref, index in plans:
            if kind == "memo":
                self.counters["memo_hits"] += 1
                cached = self._memo[ref]
                self._memo.move_to_end(ref)
                job._deliver(
                    index, dataclasses.replace(cached, index=index, source="memory")
                )
            elif kind == "inflight":
                self.counters["coalesced_inflight"] += 1
                self._inflight[ref].subscribers.append((job, index))
            elif kind == "local":
                self.counters["coalesced_inflight"] += 1
                fresh[ref].subscribers.append((job, index))
            else:
                task = ref
                task.subscribers.append((job, index))
                if task.key is not None:
                    self._inflight[task.key] = task
                self.queue.put_nowait(task, lane)
        return job

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        # Slot first, task second: the lane decision is made at the moment
        # a worker is actually free, so a task never waits head-of-line in
        # the dispatcher while higher-priority work arrives behind it.
        while True:
            await self._slots.acquire()
            try:
                task = await self.queue.get()
            except BaseException:
                self._slots.release()
                raise
            runner = asyncio.get_running_loop().create_task(self._run_task(task))
            self._running.add(runner)
            runner.add_done_callback(self._running.discard)

    async def _run_task(self, task: _CellTask) -> None:
        task.attempts += 1
        self.counters["dispatched"] += 1
        generation = self._executor_gen
        retry = False
        try:
            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    self._executor, run_service_task, task.payload
                )
            except BrokenProcessPool as exc:
                self.counters["crashes"] += 1
                self._rebuild_executor(generation)
                if task.attempts < MAX_ATTEMPTS and self._accepting:
                    retry = True
                    result = None
                else:
                    result = self._error_result(task, f"WorkerCrashed: {exc}")
            except asyncio.CancelledError:
                result = self._error_result(task, "service shut down")
            except Exception as exc:  # noqa: BLE001 — dispatch-layer failure
                result = self._error_result(task, f"{type(exc).__name__}: {exc}")
        finally:
            self._slots.release()
        if retry:
            self.counters["retries"] += 1
            try:
                self.queue.put_nowait(task, task.lane)
            except AdmissionError as exc:
                self._complete(task, self._error_result(task, str(exc)))
        else:
            self._complete(task, result)

    def _rebuild_executor(self, broken_generation: int) -> None:
        """Replace a broken pool exactly once per breakage."""
        if self._executor_gen != broken_generation or self._executor is None:
            return  # a sibling failure already rebuilt it
        self._executor_gen += 1
        self.counters["pool_rebuilds"] += 1
        broken = self._executor
        self._executor = self._make_executor()
        broken.shutdown(wait=False, cancel_futures=True)

    def _complete(self, task: _CellTask, result: CellResult) -> None:
        if task.key is not None and self._inflight.get(task.key) is task:
            del self._inflight[task.key]
        self.counters["completed"] += 1
        if result.error is not None:
            self.counters["errors"] += 1
        elif result.source == "simulated":
            self.counters["simulated"] += 1
        elif result.source == "disk":
            self.counters["disk_hits"] += 1
        if (
            task.key is not None
            and result.ok
            and task.payload["action"] == "measure"
            and self._memo_capacity
        ):
            self._memo[task.key] = result
            self._memo.move_to_end(task.key)
            while len(self._memo) > self._memo_capacity:
                self._memo.popitem(last=False)
        for job, index in task.subscribers:
            job._deliver(index, dataclasses.replace(result, index=index))

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict:
        return {
            "workers": self.workers,
            "accepting": self._accepting,
            "uptime_seconds": time.time() - self.started_at if self.started_at else 0.0,
            "counters": dict(self.counters),
            "queue": self.queue.stats(),
            "inflight": len(self._inflight),
            "memo_entries": len(self._memo),
            "memo_capacity": self._memo_capacity,
            "profiles": len(self._profiles),
            "executor_generation": self._executor_gen,
        }
