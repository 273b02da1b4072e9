"""Stencil-as-a-service: a persistent warm-worker job engine.

The batch harness (:mod:`repro.bench.parallel`) forks a fresh worker pool
per sweep, so every request pays process spin-up and pool re-warm.  This
package keeps the pool — and with it every worker's
:class:`~repro.bench.runner.ExperimentRunner`, the 256-entry compiled
program pool, columnar plans and template class bundles — alive across
requests, behind an asyncio front end:

* :class:`~repro.service.engine.StencilService` — ``submit(cells, lane)``
  job API with in-flight request coalescing, a bounded service-level
  result memo, per-cell streaming and crash-isolated workers;
* :class:`~repro.service.queue.LaneQueue` — weighted-round-robin priority
  lanes with admission control, so a sharded 2048x2048 sweep cannot
  starve interactive single-cell requests;
* :mod:`~repro.service.protocol` — a JSON-lines Unix-socket transport
  (``repro serve`` / ``repro submit``) streaming the same
  ``BENCH_*.json``-compatible per-cell records the batch engine writes.

The batch executor itself is a client: ``run_cells(jobs=N)`` drives a
short-lived service, so the CLI sweeps and the long-running server share
one job API and one worker implementation.
"""

from repro.service.engine import Job, StencilService, run_service_task
from repro.service.queue import AdmissionError, LANES, LaneQueue
from repro.service.protocol import ServiceClient, ServiceServer

__all__ = [
    "AdmissionError",
    "Job",
    "LANES",
    "LaneQueue",
    "ServiceClient",
    "ServiceServer",
    "StencilService",
    "run_service_task",
]
