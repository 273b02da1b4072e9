"""Experiment runner shared by the ``benchmarks/`` suite.

One :class:`ExperimentRunner` owns a machine configuration and measures
``(method, stencil, size)`` cells through the timing engine.  Results are
cached at two levels:

* an in-process memo, so a benchmark file can both print its paper-style
  table and register a pytest-benchmark timing without re-simulating;
* optionally a content-addressed on-disk cache
  (:class:`repro.bench.cache.MeasurementCache`), so repeated runs — and
  independent worker processes of a parallel sweep — skip simulation
  entirely.  The disk key hashes machine config, kernel options, sampling
  plan and simulator code version, so it can never serve stale numbers.

Every measurement records its provenance (``simulated``, ``disk`` or
``memory``), which the JSON benchmark artifacts surface as cache hit/miss
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.cache import MeasurementCache, cache_key
from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.machine.config import LX2, MachineConfig
from repro.machine.memory import MemorySpace
from repro.machine.perf import PerfCounters
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D, Grid3D
from repro.stencils.library import benchmark as stencil_benchmark
from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class Measurement:
    """One measured cell."""

    method: str
    stencil: str
    shape: Tuple[int, ...]
    counters: PerfCounters

    @property
    def cycles(self) -> float:
        return self.counters.cycles

    def speedup_over(self, baseline: "Measurement") -> float:
        return baseline.cycles / self.cycles if self.cycles else 0.0


class ExperimentRunner:
    """Measures kernels on one machine, with in-memory + disk caching."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        options: Optional[KernelOptions] = None,
        cache_dir=None,
        engine: Optional[str] = None,
        steady: Optional[str] = None,
        sample: Optional[bool] = None,
        artifact_dir=None,
    ) -> None:
        self.machine = machine if machine is not None else LX2()
        self.options = options or KernelOptions()
        # ``engine`` selects the simulation engine ("compiled"/"reference").
        # The disk-cache key deliberately does NOT include it: the engines
        # are bit-identical, so either may serve the other's cached cells.
        # ``steady`` selects band-periodic steady-state elision ("on"/"off")
        # and ``sample`` forces full (False) or band-sampled (True) timing
        # for every cell instead of the automatic size-based choice
        # (``None``); both ARE part of the disk key when non-default, so an
        # elision divergence could never be masked by a cache hit from the
        # other mode.
        # ``artifact_dir`` additionally installs the compiled-artifact
        # store, so template fitting / program lowering load from disk
        # instead of rebuilding.
        self.artifact_dir = artifact_dir
        self.sample = sample
        self.engine = TimingEngine(
            self.machine,
            engine=engine,
            steady=steady,
            artifact_dir=artifact_dir,
        )
        self.disk_cache = MeasurementCache(cache_dir) if cache_dir else None
        self._cache: Dict[Tuple, Measurement] = {}
        #: key tuple -> "simulated" | "disk" (how the cell was first obtained).
        self._provenance: Dict[Tuple, str] = {}

    # ------------------------------------------------------------------

    def _build(self, method: str, spec: StencilSpec, shape: Tuple[int, ...]):
        mem = MemorySpace()
        r = spec.radius
        if spec.ndim == 2:
            rows, cols = shape
            src = Grid2D(mem, rows, cols, r, "A")
            dst = Grid2D(mem, rows, cols, r, "B")
        else:
            depth, rows, cols = shape
            src = Grid3D(mem, depth, rows, cols, r, "A")
            dst = Grid3D(mem, depth, rows, cols, r, "B")
        return make_kernel(method, spec, src, dst, self.machine, self.options)

    @staticmethod
    def _key(
        method: str,
        stencil: str,
        shape: Tuple[int, ...],
        warm: bool,
        plan: Optional[SamplePlan],
        iters: int = 1,
    ) -> Tuple:
        plan_key = (plan.warmup_bands, plan.min_measure_points, plan.max_measure_bands) if plan else None
        return (method, stencil, tuple(shape), warm, plan_key, iters)

    def measure(
        self,
        method: str,
        stencil: str,
        shape: Tuple[int, ...],
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        iters: int = 1,
    ) -> Measurement:
        """Measure one cell (memoized in-process, optionally disk-cached)."""
        key = self._key(method, stencil, shape, warm, plan, iters)
        if key in self._cache:
            return self._cache[key]

        disk_key = None
        counters: Optional[PerfCounters] = None
        if self.disk_cache is not None:
            disk_key, inputs = cache_key(
                self.machine, method, stencil, tuple(shape), self.options, plan, warm,
                iters=iters, engine=self.engine.engine,
                sample=self.sample, steady=self.engine.steady,
            )
            counters = self.disk_cache.load(disk_key)

        if counters is None:
            spec = stencil_benchmark(stencil)
            kernel = self._build(method, spec, shape)
            counters = self.engine.run(
                kernel, sample=self.sample, warm=warm, plan=plan, iters=iters
            )
            counters.label = f"{method}/{stencil}/{shape}"
            self._provenance[key] = "simulated"
            if self.disk_cache is not None:
                self.disk_cache.store(disk_key, counters, inputs)
        else:
            self._provenance[key] = "disk"

        self._cache[key] = Measurement(method, stencil, tuple(shape), counters)
        return self._cache[key]

    def provenance(
        self,
        method: str,
        stencil: str,
        shape: Tuple[int, ...],
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        iters: int = 1,
    ) -> Optional[str]:
        """How a cell was obtained: "simulated", "disk", or None (not run)."""
        return self._provenance.get(self._key(method, stencil, shape, warm, plan, iters))

    def adopt(
        self,
        method: str,
        stencil: str,
        shape: Tuple[int, ...],
        counters: PerfCounters,
        source: str,
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
    ) -> Measurement:
        """Install an externally produced measurement (parallel workers)."""
        key = self._key(method, stencil, shape, warm, plan)
        self._cache[key] = Measurement(method, stencil, tuple(shape), counters)
        self._provenance[key] = source
        return self._cache[key]

    # ------------------------------------------------------------------

    def measure_many(
        self,
        cells: Sequence[Tuple[str, str, Tuple[int, ...]]],
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        jobs: int = 1,
        progress: bool = False,
    ):
        """Measure ``(method, stencil, shape)`` cells, optionally in parallel.

        Returns the :class:`repro.bench.parallel.CellResult` list in cell
        order.  Failures are captured per cell instead of aborting the sweep;
        successful results are adopted into this runner's in-memory cache so
        subsequent :meth:`measure` calls are free.
        """
        from repro.bench.parallel import run_cells

        return run_cells(
            cells,
            machine=self.machine,
            options=self.options,
            cache_dir=self.disk_cache.root if self.disk_cache else None,
            warm=warm,
            plan=plan,
            jobs=jobs,
            progress=progress,
            runner=self,
            engine=self.engine.engine,
            steady=self.engine.steady,
            sample=self.sample,
            artifact_dir=self.artifact_dir,
        )

    # ------------------------------------------------------------------

    def precompile_cell(self, method: str, stencil: str, shape: Tuple[int, ...]) -> Dict:
        """Pre-build the compiled artifacts for one cell (no simulation).

        Compiles every shape class of the kernel's loop nest — templates,
        pooled timing program, functional program — which, with an artifact
        store active, persists them for later processes.  Raises
        ``ValueError`` for methods inapplicable to the stencil/machine,
        matching :meth:`measure`.
        """
        from repro.kernels.template import TraceCompiler

        spec = stencil_benchmark(stencil)
        kernel = self._build(method, spec, shape)
        nest = kernel.loop_nest()
        compiler = TraceCompiler(kernel, nest=nest, config=self.machine)
        blocks = list(nest.blocks)
        templated = 0
        while True:
            edge = compiler.edge
            seen: set = set()
            restart = False
            for block in blocks:
                cls = compiler._class_of(block.key)
                if cls is None or cls in seen:
                    continue
                seen.add(cls)
                entry = compiler.lookup(block)
                if compiler.edge != edge:
                    restart = True  # edge widened: class labels changed
                    break
                if entry is None:
                    continue
                template, _addrs = entry
                # Force both lowerings; the pooled builders write through
                # to the store.
                timing_program = template.timing_program(self.machine)
                if timing_program is not None:
                    templated += 1
                template.functional_program()
            if not restart:
                break
        return {
            "method": method,
            "stencil": stencil,
            "shape": list(shape),
            "classes": len(seen),
            "templated": templated,
            "loaded": compiler.loaded_classes,
            "compiled": compiler.compiled_classes,
            "demoted_on_load": compiler.load_demotions,
        }

    def precompile(
        self,
        cells: Sequence[Tuple[str, str, Tuple[int, ...]]],
        jobs: int = 1,
        progress: bool = False,
    ):
        """Pre-build artifacts for many cells, optionally sharded (workers
        share the store through atomic writes)."""
        from repro.bench.parallel import run_cells

        return run_cells(
            cells,
            machine=self.machine,
            options=self.options,
            cache_dir=self.disk_cache.root if self.disk_cache else None,
            jobs=jobs,
            progress=progress,
            runner=self,
            engine=self.engine.engine,
            steady=self.engine.steady,
            sample=self.sample,
            artifact_dir=self.artifact_dir,
            action="precompile",
        )

    def sweep(
        self,
        methods: Sequence[str],
        stencil: str,
        shape: Tuple[int, ...],
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        skipped: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Measurement]:
        """Measure several methods on one workload; skips inapplicable ones.

        Pass a dict as ``skipped`` to receive ``{method: reason}`` for every
        method that was not applicable to this stencil/machine.
        """
        out: Dict[str, Measurement] = {}
        for method in methods:
            try:
                out[method] = self.measure(method, stencil, shape, warm=warm, plan=plan)
            except ValueError as exc:
                if skipped is not None:
                    skipped[method] = str(exc)
                continue  # method not defined for this stencil/machine
        return out

    def speedups(
        self,
        methods: Sequence[str],
        stencil: str,
        shape: Tuple[int, ...],
        baseline: str = "auto",
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
    ) -> Dict[str, float]:
        """Speedups of ``methods`` over ``baseline`` on one workload."""
        skipped: Dict[str, str] = {}
        cells = self.sweep(
            list(methods) + [baseline], stencil, shape, warm=warm, plan=plan, skipped=skipped
        )
        if baseline not in cells:
            reason = skipped.get(baseline, "method unknown or inapplicable")
            raise ValueError(
                f"baseline method {baseline!r} is not applicable to "
                f"{stencil} {shape} on {self.machine.name}: {reason}"
            )
        base = cells[baseline]
        return {m: cells[m].speedup_over(base) for m in methods if m in cells}

    # ------------------------------------------------------------------

    def records(self) -> List[Dict]:
        """JSON-safe description of every measured cell, with provenance."""
        out: List[Dict] = []
        for key, measurement in self._cache.items():
            method, stencil, shape, warm, plan_key, iters = key
            pc = measurement.counters
            out.append(
                {
                    "method": method,
                    "stencil": stencil,
                    "shape": list(shape),
                    "warm": warm,
                    "plan": list(plan_key) if plan_key else None,
                    "iters": iters,
                    "source": self._provenance.get(key, "unknown"),
                    "counters": pc.to_dict(),
                    "derived": {
                        "ipc": pc.ipc,
                        "cycles_per_point": pc.cycles_per_point,
                        "l1_hit_rate": pc.l1_hit_rate,
                        "l1_demand_hit_rate": pc.l1_demand_hit_rate,
                        "dram_bytes_per_point": (
                            pc.dram_bytes() / pc.points if pc.points else 0.0
                        ),
                        "gstencil_per_s": pc.gstencil_per_s(self.machine.clock_ghz),
                    },
                }
            )
        return out

    def cache_stats(self) -> Dict:
        """Hit/miss provenance over every cell this runner has served."""
        sources = list(self._provenance.values())
        return {
            "cells": len(self._cache),
            "simulated": sources.count("simulated"),
            "disk_hits": sources.count("disk"),
            "disk": self.disk_cache.stats() if self.disk_cache else None,
        }

    def artifact_stats(self) -> Dict:
        """Compile-layer counters: artifact store, program pool, templates."""
        from repro.kernels.template import compile_stats
        from repro.machine.artifacts import active_store
        from repro.machine.compiled import program_pool_stats

        store = active_store()
        return {
            "store": store.stats() if store is not None else None,
            "program_pool": program_pool_stats(),
            "templates": compile_stats(),
        }
