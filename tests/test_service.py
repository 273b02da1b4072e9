"""Contract tests for the stencil service (engine, lanes, transport).

The service's promises, each enforced here:

* **coalescing** — N identical concurrent submissions cost exactly one
  simulation; later identical submissions are served from the result memo;
* **priority** — with a saturated pool, interactive cells overtake a
  queued batch backlog at the next worker completion, and admission
  control rejects jobs a full lane cannot take (atomically);
* **isolation** — a worker process dying mid-cell surfaces as that cell's
  error while the engine (and subsequent jobs) keep working;
* **fidelity** — results delivered by the service are bit-identical to
  what a plain :class:`~repro.bench.runner.ExperimentRunner` measures,
  and streamed records match the ``BENCH_*.json`` schema.
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.bench.runner import ExperimentRunner
from repro.kernels.base import KernelOptions
from repro.machine.config import LX2
from repro.service import (
    AdmissionError,
    LaneQueue,
    ServiceClient,
    ServiceServer,
    StencilService,
)

CELL = ("hstencil", "star2d5p", (24, 24))


def drive(coro):
    return asyncio.run(coro)


# -- lane queue --------------------------------------------------------------


def test_lane_queue_weighted_round_robin():
    queue = LaneQueue(lanes=("hi", "lo"), weights={"hi": 2, "lo": 1})
    for i in range(6):
        queue.put_nowait(("hi", i), "hi")
        queue.put_nowait(("lo", i), "lo")
    order = [queue.get_nowait()[0] for _ in range(9)]
    # 2 hi per lo while both lanes are backlogged.
    assert order == ["hi", "hi", "lo", "hi", "hi", "lo", "hi", "hi", "lo"]


def test_lane_queue_idle_lane_banks_no_credit():
    queue = LaneQueue(lanes=("hi", "lo"), weights={"hi": 2, "lo": 1})
    for i in range(4):
        queue.put_nowait(("lo", i), "lo")
    assert queue.get_nowait()[0] == "lo"
    # hi arrives late and still gets served promptly, but an empty hi lane
    # never starves lo below its weighted share.
    queue.put_nowait(("hi", 0), "hi")
    assert queue.get_nowait()[0] == "hi"
    assert queue.get_nowait()[0] == "lo"


def test_lane_queue_admission_control():
    queue = LaneQueue(lanes=("hi",), weights={"hi": 1}, max_pending={"hi": 2})
    queue.put_nowait("a", "hi")
    queue.put_nowait("b", "hi")
    with pytest.raises(AdmissionError) as excinfo:
        queue.put_nowait("c", "hi")
    assert excinfo.value.lane == "hi"
    assert excinfo.value.limit == 2
    assert queue.stats()["rejected"]["hi"] == 1
    assert len(queue) == 2


def test_lane_queue_unknown_lane():
    queue = LaneQueue()
    with pytest.raises(ValueError):
        queue.put_nowait("x", "no-such-lane")


# -- coalescing --------------------------------------------------------------


def test_concurrent_identical_submissions_simulate_once():
    """The acceptance criterion: N identical in-flight requests, 1 simulation."""

    async def main():
        async with StencilService(workers=2) as service:
            jobs = [await service.submit([CELL], lane="interactive") for _ in range(8)]
            all_results = [await job.results() for job in jobs]
            return service.counters, all_results

    counters, all_results = drive(main())
    assert counters["simulated"] == 1
    assert counters["dispatched"] == 1
    assert counters["coalesced_inflight"] + counters["memo_hits"] == 7
    baseline = all_results[0][0].counters.to_dict()
    for results in all_results:
        assert len(results) == 1 and results[0].ok
        assert results[0].counters.to_dict() == baseline


def test_duplicate_cells_within_one_job_coalesce():
    async def main():
        async with StencilService(workers=2) as service:
            job = await service.submit([CELL, CELL, CELL])
            results = await job.results()
            return service.counters, results

    counters, results = drive(main())
    assert counters["dispatched"] == 1
    assert [r.index for r in results] == [0, 1, 2]
    baseline = results[0].counters.to_dict()
    assert all(r.counters.to_dict() == baseline for r in results)


def test_completed_results_served_from_memo():
    async def main():
        async with StencilService(workers=1) as service:
            first = await (await service.submit([CELL])).results()
            second = await (await service.submit([CELL])).results()
            return service.counters, first, second

    counters, first, second = drive(main())
    assert counters["simulated"] == 1
    assert counters["memo_hits"] == 1
    assert second[0].source == "memory"
    assert second[0].counters.to_dict() == first[0].counters.to_dict()


def test_coalescing_keyed_on_workload_not_job():
    """Different shapes never coalesce; same shape across lanes does."""

    async def main():
        async with StencilService(workers=2) as service:
            a = await service.submit([("hstencil", "star2d5p", (24, 24))], lane="batch")
            b = await service.submit(
                [("hstencil", "star2d5p", (24, 24))], lane="interactive"
            )
            c = await service.submit([("hstencil", "star2d5p", (26, 26))], lane="batch")
            for job in (a, b, c):
                assert all(r.ok for r in await job.results())
            return service.counters

    counters = drive(main())
    assert counters["simulated"] == 2  # two distinct shapes
    assert counters["coalesced_inflight"] + counters["memo_hits"] == 1


# -- priority lanes ----------------------------------------------------------


class _RecordingService(StencilService):
    """Records the lane of every completed task, in completion order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completion_lanes = []

    def _complete(self, task, result):
        self.completion_lanes.append(task.lane)
        super()._complete(task, result)


def test_interactive_lane_overtakes_saturated_batch_backlog():
    batch_cells = [("hstencil", "star2d5p", (16 + 2 * i, 16 + 2 * i)) for i in range(6)]
    interactive_cells = [("auto", "star2d5p", (16, 16)), ("auto", "star2d5p", (32, 32))]

    async def main():
        async with _RecordingService(workers=1) as service:
            batch = await service.submit(batch_cells, lane="batch")
            # Let the single worker pick up the first batch cell, leaving
            # the rest queued behind a saturated pool.
            while service.counters["dispatched"] < 1:
                await asyncio.sleep(0.001)
            interactive = await service.submit(interactive_cells, lane="interactive")
            assert all(r.ok for r in await interactive.results())
            assert all(r.ok for r in await batch.results())
            return service.completion_lanes

    lanes = drive(main())
    assert len(lanes) == 8
    # At most the in-flight batch cell finishes first; every interactive
    # cell then overtakes the remaining batch backlog.
    assert set(lanes[:1]) <= {"batch"}
    interactive_positions = [i for i, lane in enumerate(lanes) if lane == "interactive"]
    assert interactive_positions == sorted(interactive_positions)
    assert interactive_positions[-1] <= 2, (
        f"interactive cells finished late: completion lanes {lanes}"
    )


def test_service_admission_is_atomic():
    async def main():
        async with StencilService(
            workers=1, max_pending={"interactive": 4, "batch": 2}
        ) as service:
            cells = [("hstencil", "star2d5p", (16 + 2 * i, 16 + 2 * i)) for i in range(8)]
            with pytest.raises(AdmissionError):
                await service.submit(cells, lane="batch")
            # Nothing from the rejected job may linger.
            assert service.counters["jobs"] == 0
            assert len(service._inflight) == 0
            assert len(service.queue) == 0
            # A job the lane can take is still accepted afterwards.
            job = await service.submit(cells[:2], lane="batch")
            assert all(r.ok for r in await job.results())

    drive(main())


# -- crash isolation ---------------------------------------------------------


def test_worker_crash_is_a_cell_error_not_an_engine_death():
    async def main():
        async with StencilService(workers=1) as service:
            crash = await service.submit([("x", "y", (8, 8))], action="crash")
            (result,) = await crash.results()
            assert not result.ok
            assert "WorkerCrashed" in result.error
            assert service.counters["crashes"] >= 1
            assert service.counters["pool_rebuilds"] >= 1
            # The engine survives and serves the next job normally.
            job = await service.submit([CELL])
            (ok_result,) = await job.results()
            assert ok_result.ok
            return service.counters

    counters = drive(main())
    assert counters["errors"] == 1
    assert counters["simulated"] == 1


def test_plain_exception_is_captured_without_crash():
    async def main():
        async with StencilService(workers=1) as service:
            job = await service.submit([("no-such-method", "star2d5p", (16, 16))])
            (result,) = await job.results()
            assert not result.ok
            assert "no-such-method" in result.error
            assert service.counters["crashes"] == 0

    drive(main())


# -- fidelity ----------------------------------------------------------------


def test_service_results_bit_identical_to_runner(tmp_path):
    direct = ExperimentRunner(LX2()).measure(*CELL)

    async def main():
        async with StencilService(workers=2, cache_dir=tmp_path) as service:
            job = await service.submit([CELL], machine="lx2")
            (result,) = await job.results()
            return result, job

    result, job = drive(main())
    assert result.ok
    assert result.counters.to_dict() == direct.counters.to_dict()
    (record,) = job.records()
    assert record["counters"] == direct.counters.to_dict()
    assert {"method", "stencil", "shape", "source", "seconds", "derived"} <= set(record)


@pytest.mark.parametrize(
    "env,edge_kwargs",
    [({"REPRO_STEADY": "off"}, {}), ({}, {"sample": False})],
    ids=["env-steady-off", "sample-false"],
)
def test_task_key_is_the_disk_cache_key(tmp_path, monkeypatch, env, edge_kwargs):
    """Coalescing keys on the same digest the worker's runner stores its
    disk entry under, also when the mode comes from the environment."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config, options = LX2(), KernelOptions()
    cell = ("hstencil", "box2d9p", (64, 64))
    service = StencilService(workers=1, **edge_kwargs)
    _action, task_digest = service._task_key(
        config, options, cell, True, None, 1, "measure"
    )
    runner = ExperimentRunner(config, options, cache_dir=tmp_path, **edge_kwargs)
    runner.measure(*cell)
    (entry,) = tmp_path.glob("*/*.json")
    assert task_digest == entry.stem


def test_job_event_stream_shape():
    async def main():
        async with StencilService(workers=1) as service:
            job = await service.submit([CELL, ("auto", "star2d5p", (24, 24))])
            kinds = []
            async for kind, payload in job.events():
                kinds.append(kind)
            return kinds, job.summary()

    kinds, summary = drive(main())
    assert kinds == ["cell", "cell", "done"]
    assert summary["completed"] == 2 and summary["errors"] == 0


def test_submit_requires_started_service():
    service = StencilService(workers=1)

    async def main():
        with pytest.raises(RuntimeError):
            await service.submit([CELL])

    drive(main())


def test_shutdown_fails_queued_tasks():
    async def main():
        service = StencilService(workers=1)
        await service.start()
        cells = [("hstencil", "star2d5p", (16 + 2 * i, 16 + 2 * i)) for i in range(4)]
        job = await service.submit(cells, lane="batch")
        await service.shutdown()
        results = await job.results()
        # Whatever had not finished carries a shutdown error; nothing hangs.
        assert all(r.ok or "shut down" in r.error for r in results)

    drive(main())


# -- artifact races ----------------------------------------------------------


def test_two_workers_generate_same_classes_on_cold_store(tmp_path):
    """Two workers racing to record the same steady period on a cold
    artifact store both succeed via the atomic-write path, leaving exactly
    one stored entry that a fresh process serves without detection."""
    import json

    from repro.kernels.template import reset_compile_stats
    from repro.machine.artifacts import install_artifact_store
    from repro.machine.compiled import clear_program_pool

    store = tmp_path / "artifacts"
    # The LX2 cell on which hstencil engages steady elision.  Submitted
    # cold and warm, it never coalesces (the keys differ), so both workers
    # run at once; both runs have the same steady_record_key.
    cell = ("hstencil", "box2d25p", (515, 512))

    async def main():
        async with StencilService(workers=2, sample=False, artifact_dir=str(store)) as service:
            cold = await service.submit([cell], lane="batch", warm=False)
            warm = await service.submit([cell], lane="batch", warm=True)
            return await cold.results(), await warm.results()

    (cold,), (warm,) = drive(main())
    assert cold.ok and warm.ok

    files = []
    for dirpath, _dirs, names in os.walk(store):
        files.extend(os.path.join(dirpath, n) for n in names)
    # Atomic replace: one entry that parses, and no temp files leak.
    assert sorted(os.listdir(store)) == ["steady"]
    assert len(files) == 1 and files[0].endswith(".json")
    with open(files[0]) as fh:
        json.load(fh)

    # A fresh process (fresh pools, same store) serves the record for
    # either flavour of the cell, with the counters the workers measured.
    try:
        for flavour, raced in (("cold", cold), ("warm", warm)):
            clear_program_pool(reset_stats=True)
            reset_compile_stats()
            runner = ExperimentRunner(LX2(), sample=False, artifact_dir=str(store))
            measured = runner.measure(*cell, warm=flavour == "warm")
            stats = runner.engine.steady_stats
            assert measured.counters.to_dict() == raced.counters.to_dict(), flavour
            assert stats.record_mode and stats.detect_sigs == 0, flavour
            assert stats.engaged >= 1 and stats.demoted == 0, flavour
    finally:
        install_artifact_store(None)
        clear_program_pool(reset_stats=True)
        reset_compile_stats()


# -- socket transport --------------------------------------------------------


@pytest.fixture()
def running_server(tmp_path):
    # Unix socket paths are length-limited (~108 bytes); keep it short.
    socket_path = os.path.join("/tmp", f"repro-test-{os.getpid()}.sock")
    ready = threading.Event()
    holder = {}

    def serve():
        async def main():
            async with StencilService(workers=2, cache_dir=tmp_path) as service:
                holder["service"] = service
                server = ServiceServer(service, socket_path)
                await server.start()
                ready.set()
                await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(30), "service server did not come up"
    yield socket_path
    client = ServiceClient(socket_path, timeout=30)
    try:
        client.shutdown()
    except (ConnectionError, OSError):
        pass  # already shut down by the test
    thread.join(30)
    assert not thread.is_alive()


def test_socket_end_to_end(running_server):
    client = ServiceClient(running_server, timeout=120)
    assert client.ping()["event"] == "pong"

    events = []
    out = client.submit(
        [CELL, ("auto", "star2d5p", (24, 24))],
        lane="interactive",
        machine="lx2",
        on_event=lambda e: events.append(e["event"]),
    )
    assert [e for e in events] == ["accepted", "cell", "cell", "done"]
    assert out["summary"]["errors"] == 0
    assert all(r and "counters" in r for r in out["records"])

    # Identical resubmission is coalesced server-side.
    again = client.submit([CELL], lane="batch")
    assert again["records"][0]["source"] == "memory"

    stats = client.stats()
    assert stats["counters"]["memo_hits"] >= 1
    assert stats["counters"]["simulated"] == 2
    assert stats["queue"]["lanes"] == ["interactive", "batch"]


def test_socket_rejects_bad_requests(running_server):
    client = ServiceClient(running_server, timeout=30)
    with pytest.raises(RuntimeError):
        client.submit([CELL], machine="cray-1")
