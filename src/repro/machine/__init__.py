"""Simulated machine: functional execution, timing, caches, multicore.

The machine package is the hardware substrate that replaces the paper's LX2
and Apple M4 CPUs (see DESIGN.md, substitution table).  It contains:

* :mod:`repro.machine.config` — :class:`MachineConfig` and the ``LX2`` /
  ``M4`` presets (pipelines, latencies, cache geometry, prefetcher).
* :mod:`repro.machine.memory` — sparse word-addressed FP64 memory.
* :mod:`repro.machine.cache` — set-associative write-back caches.
* :mod:`repro.machine.prefetcher` — stream-table hardware prefetcher and
  software-prefetch handling.
* :mod:`repro.machine.functional` — semantic execution of instruction
  traces (what makes kernel results checkable against NumPy).
* :mod:`repro.machine.pipeline` — the event-scoreboard in-order timing
  model (ports, latencies, issue width).
* :mod:`repro.machine.timing` — the engine that walks a kernel's block
  loop (optionally band-sampled) through pipeline + caches and produces
  :class:`repro.machine.perf.PerfCounters`.
* :mod:`repro.machine.compiled` — trace-to-program builders behind the
  ``engine="compiled"`` template-replay fast path (see
  :mod:`repro.kernels.template`).
* :mod:`repro.machine.multicore` — row-partitioned strong-scaling model
  with shared-memory-bandwidth contention.
"""

from repro.machine.config import MachineConfig, LX2, M4
from repro.machine.memory import MemorySpace
from repro.machine.cache import CacheLevel, CacheHierarchy
from repro.machine.prefetcher import StreamPrefetcher
from repro.machine.perf import PerfCounters
from repro.machine.functional import FunctionalEngine
from repro.machine.pipeline import PipelineModel
from repro.machine.timing import ENGINES, SimMode, TimingEngine, SamplePlan
from repro.machine.multicore import MulticoreModel, ScalingPoint

__all__ = [
    "MachineConfig",
    "LX2",
    "M4",
    "MemorySpace",
    "CacheLevel",
    "CacheHierarchy",
    "StreamPrefetcher",
    "PerfCounters",
    "FunctionalEngine",
    "PipelineModel",
    "TimingEngine",
    "SamplePlan",
    "ENGINES",
    "SimMode",
    "MulticoreModel",
    "ScalingPoint",
]
