"""Timing engine: drives kernels through the pipeline + cache models.

Small kernels are simulated in full (optionally with one unmeasured warm
pass so in-cache experiments see a warm cache, the way the paper's repeated
timed iterations do).  Out-of-cache grids are *band-sampled*: the engine
simulates a contiguous prefix of the kernel's outer-loop bands, discards a
warm-up region, measures a steady-state region large enough to cover the
requested number of grid points, and extrapolates cycles and cache counters
to the full grid.  Bands are contiguous in iteration order, so every reuse
distance shorter than the measured region (which is what L1 behaviour is
made of) is exercised faithfully.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.isa.instructions import Instruction
from repro.isa.program import Kernel
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.pipeline import PipelineModel


@dataclass
class SamplePlan:
    """Controls band-sampled timing.

    ``warmup_bands`` outer-loop bands are simulated but excluded from the
    measurement (they warm the caches, the prefetcher stream table and the
    pipeline).  Measurement then continues until at least
    ``min_measure_points`` grid points have been covered (or the kernel runs
    out of bands).
    """

    warmup_bands: int = 2
    min_measure_points: int = 60_000
    max_measure_bands: Optional[int] = None


#: Grids below this many output points are simulated in full.
FULL_SIM_POINT_LIMIT = 300_000


#: Engines selectable on :class:`SimMode` / ``FunctionalEngine.run_kernel``.
ENGINES = ("compiled", "reference")


#: Steady-state elision on *full* (unsampled) runs, compiled engine only.
#: ``on`` detects recurring machine state at two kinds of boundary and
#: applies what remains arithmetically, with bit-identical counters
#: (:mod:`repro.machine.steady`): at band boundaries it verifies one extra
#: period live before jumping over the remaining interior bands (any
#: mismatch demotes to the plain band walk), and at the boundaries between
#: the measured passes of an iterated run a recurring state jumps over the
#: remaining passes.  ``off`` walks every band of every pass.
STEADY_MODES = ("on", "off")


@dataclass(frozen=True)
class SimMode:
    """How cells are simulated: the four settings, validated and resolved.

    ``engine`` (:data:`ENGINES`) and ``steady`` (:data:`STEADY_MODES`) pick
    the replay and the elision; ``sample`` forces band-sampled (``True``)
    or full exact (``False``) timing, ``None`` choosing by grid size;
    ``artifact_dir`` installs the artifact store
    (:mod:`repro.machine.artifacts`) that persists steady-state period
    records across processes.  Every instance is valid, so layers
    below the public edges take one ``mode`` instead of four keywords.
    """

    engine: str = "compiled"
    steady: str = "on"
    sample: Optional[bool] = None
    artifact_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.steady not in STEADY_MODES:
            raise ValueError(
                f"unknown steady {self.steady!r}; expected one of {STEADY_MODES}"
            )
        if self.sample is not None:
            object.__setattr__(self, "sample", bool(self.sample))
        if self.artifact_dir is not None:
            object.__setattr__(self, "artifact_dir", os.fspath(self.artifact_dir))

    @classmethod
    def resolve(
        cls,
        engine: Optional[str] = None,
        steady: Optional[str] = None,
        sample: Optional[bool] = None,
        artifact_dir=None,
    ) -> "SimMode":
        """Explicit values win, then ``REPRO_ENGINE``/``REPRO_STEADY``, then
        the defaults.  The one reader of those two variables."""
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE", "compiled")
        if steady is None:
            steady = os.environ.get("REPRO_STEADY", "on")
        return cls(engine, steady, sample, artifact_dir)

    def describe(self) -> Dict[str, object]:
        """``engine``, ``steady`` and ``sample``: what shaped a measurement.

        BENCH JSON reports record it whole; the measurement cache key
        (:func:`repro.bench.cache.cache_key`) digests the fields that differ
        from the default mode and records ``engine`` for audit only.
        """
        return {"engine": self.engine, "steady": self.steady, "sample": self.sample}


class TimingEngine:
    """Produces :class:`PerfCounters` for kernels and raw traces.

    ``mode`` (a :class:`SimMode`; ``None`` resolves one from the
    environment) fixes how every run is simulated.

    ``engine="compiled"`` (the default) drives kernel blocks through the
    trace-compilation layer (:mod:`repro.kernels.template`): one emit +
    schedule per shape class, then scoreboard replay over precompiled step
    arrays with rebased addresses, always band by band through the columnar
    replayer (:mod:`repro.machine.columnar`).  ``engine="reference"``
    re-emits and walks instruction objects per block.  The two are
    bit-identical on every counter; the compiled path silently falls back
    to the reference walk for any block whose class fails probe
    verification.  The scalar template walk is not a mode of its own: it
    is columnar's private probe oracle and demotion fallback.
    """

    def __init__(self, config: MachineConfig, mode: Optional[SimMode] = None) -> None:
        self.config = config
        self.mode = mode if mode is not None else SimMode.resolve()
        if self.mode.artifact_dir is not None:
            # Installs the process-wide artifact store: steady-state period
            # records persist across processes (see
            # :mod:`repro.machine.artifacts`).
            from repro.machine.artifacts import install_artifact_store

            install_artifact_store(self.mode.artifact_dir)
        #: In-process steady records keyed by bundle digest: a verified
        #: ``(period, delta, signature)`` from any earlier run (or the
        #: artifact store) lets later runs skip detection entirely and go
        #: straight to the verification window.
        self._steady_records: dict = {}
        #: Per-run controller accounting
        #: (:class:`repro.machine.steady.SteadyStats`), refreshed by each
        #: ``_run_full`` call.
        self.steady_stats = None
        #: Engine-lifetime columnar state (lazily built): memory plans and
        #: scoreboard memo tables, shared by every columnar run this engine
        #: drives — successive runs, measured passes and multicore slice
        #: heights all warm the same tables (sound because everything is
        #: keyed on pooled program identity + relative context; see
        #: :class:`repro.machine.columnar.ColumnarShare`).
        self._share = None

    @property
    def engine(self) -> str:
        return self.mode.engine

    @property
    def steady(self) -> str:
        return self.mode.steady

    def _columnar_share(self):
        if self._share is None:
            from repro.machine.columnar import ColumnarShare

            self._share = ColumnarShare()
        return self._share

    # ------------------------------------------------------------------

    def run_trace(self, trace: Iterable[Instruction], label: str = "") -> PerfCounters:
        """Time a straight-line instruction sequence (microbenchmarks)."""
        pipe = PipelineModel(self.config)
        pipe.process_trace(trace)
        counters = pipe.snapshot()
        counters.label = label
        return counters

    def run(
        self,
        kernel: Kernel,
        *,
        label: str = "",
        sample: Optional[bool] = None,
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        iters: int = 1,
    ) -> PerfCounters:
        """Time a kernel; returns full-grid counters.

        ``sample=None`` defers to the mode's ``sample``; when that is unset
        too, grids with more than :data:`FULL_SIM_POINT_LIMIT` output points
        are band-sampled.
        ``warm`` only affects full simulations (one unmeasured pass first).
        ``iters`` repeats the measured pass, hardware-benchmark style: the
        returned counters sum all measured passes and ``points`` scales
        with ``iters``, so per-point metrics are the per-pass average.
        """
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        nest = kernel.loop_nest()
        total_points = nest.total_points()
        if sample is None:
            sample = self.mode.sample
        if sample is None:
            sample = total_points > FULL_SIM_POINT_LIMIT

        if not sample:
            counters = self._run_full(kernel, nest, warm=warm, iters=iters)
        else:
            if iters != 1:
                raise ValueError(
                    "iters is only supported for full (unsampled) runs; pass "
                    "sample=False (or --no-sample) to simulate every pass exactly"
                )
            counters = self._run_sampled(kernel, nest, plan or SamplePlan())
        counters.label = label or kernel.name
        return counters

    # ------------------------------------------------------------------

    def _band_machinery(self, kernel: Kernel, pipe: PipelineModel, nest):
        """``(run_band, compiler)`` for one banded replay onto ``pipe``.

        The one place the engine picks its band runner: the compiled engine
        replays every band columnar
        (:class:`~repro.machine.columnar.ColumnarReplayer`, which owns the
        scalar template walk as its private probe oracle and demotion
        fallback); the reference engine re-emits and walks each block.  The
        compiler is returned so the steady-state controller sees the same
        template classes the replay resolves (``None`` on the reference
        engine).
        """
        if self.mode.engine != "compiled":

            def run_band(band) -> None:
                for block in band:
                    pipe.process_trace(kernel.emit(block))

            return run_band, None

        from repro.machine.columnar import ColumnarReplayer

        replayer = ColumnarReplayer(
            kernel, self.config, pipe, nest=nest, share=self._columnar_share()
        )
        return replayer.process_band, replayer.compiler

    def _steady_controller(
        self, pipe: PipelineModel, compiler, bands, stats, verdicts, record_key
    ):
        """Build one pass's steady controller, wired to the record caches.

        ``verdicts`` is the run's certificate memo, shared by every pass of
        one kernel (see ``SteadyController``); ``record_key`` returns the
        kernel's :func:`~repro.machine.steady.steady_record_key`, memoized
        per run.  It is called only on the first record lookup or store,
        which follow a certificate, so a refused cell takes no key.
        """
        from repro.machine.artifacts import active_store
        from repro.machine.steady import SteadyController

        def load_record():
            key = record_key()
            if key is None:
                return None
            record = self._steady_records.get(key)
            if record is None:
                store = active_store()
                if store is not None:
                    record = store.load("steady", key)
                    if record is not None:
                        self._steady_records[key] = record
            return record

        def on_record(rec) -> None:
            key = record_key()
            if key is None:
                return
            self._steady_records[key] = rec
            store = active_store()
            if store is not None:
                store.store("steady", key, rec)

        return SteadyController(
            pipe,
            compiler,
            bands,
            self.config,
            load_record=load_record,
            on_record=on_record,
            stats=stats,
            verdicts=verdicts,
        )

    def _run_full(self, kernel: Kernel, nest, warm: bool, iters: int = 1) -> PerfCounters:
        from repro.machine.steady import (
            MIN_BANDS,
            SteadyStats,
            apply_jump,
            raw_counters,
            raw_delta,
            rebased_signature,
            steady_record_key,
        )

        pipe = PipelineModel(self.config)
        # bands() lists blocks grouped by outer index in iteration order, so
        # driving band-at-a-time preserves the exact block sequence of the
        # flat block loop.
        bands = nest.bands()
        run_band, compiler = self._band_machinery(kernel, pipe, nest)
        stats = SteadyStats()
        self.steady_stats = stats
        use_steady = self.mode.steady == "on" and compiler is not None
        verdicts: dict = {}
        band_steady = use_steady and len(bands) >= MIN_BANDS
        if use_steady and not band_steady:
            stats.disabled = "too-few-bands"
        record_key = functools.cache(functools.partial(steady_record_key, compiler))

        def one_pass() -> None:
            pipe.process_trace(kernel.preamble())
            controller = None
            # A certificate refusal holds for every pass while the edge
            # width stands, so such a pass builds no controller at all.
            # Dynamic refusals (no-room, no-recurrence) get a fresh one.
            verdict = verdicts.get(compiler.edge) if band_steady else None
            if band_steady and (verdict is None or verdict[0] is not None):
                controller = self._steady_controller(
                    pipe, compiler, bands, stats, verdicts, record_key
                )
            k = 0
            nbands = len(bands)
            while k < nbands:
                run_band(bands[k])
                k += 1
                if controller is not None:
                    nk = controller.after_band(k)
                    if nk is not None:
                        k = nk

        if warm:
            one_pass()
            before = pipe.snapshot()
        else:
            before = None

        # Pass boundaries are band boundaries with a zero address shift.
        # The machine model is a deterministic function of its behavioural
        # state and every measured pass replays the same trace, so once the
        # zero-shift signature recurs from one pass boundary to the next,
        # every remaining pass repeats the last one's counter delta exactly
        # and is applied with the band jump.  Unlike a rebased band match,
        # a zero-shift match of the whole state is itself the proof: no
        # certificate, verify window or static watch.  The fixed point can
        # take many passes while the stream table settles (2 or 3 measured
        # passes for the LX2 cells at 64², 3 to 22 for the M4 ones), so the
        # signature is compared after every pass but the last.
        prev = None
        if use_steady and iters > 1:
            prev = (rebased_signature(pipe, frozenset(), 0), raw_counters(pipe))
        for done in range(1, iters + 1):
            one_pass()
            if prev is None or done == iters:
                continue
            sig = rebased_signature(pipe, frozenset(), 0)
            raw = raw_counters(pipe)
            if sig == prev[0]:
                apply_jump(pipe, frozenset(), 0, iters - done, raw_delta(raw, prev[1]))
                stats.elided_passes = iters - done
                break
            prev = (sig, raw)
        counters = pipe.snapshot()
        if before is not None:
            counters = PipelineModel.delta(counters, before)
        counters.points = nest.total_points() * iters
        return counters

    def _run_sampled(self, kernel: Kernel, nest, plan: SamplePlan) -> PerfCounters:
        pipe = PipelineModel(self.config)
        bands = nest.bands()
        total_points = nest.total_points()

        warmup = min(plan.warmup_bands, max(len(bands) - 1, 0))
        run_band, _compiler = self._band_machinery(kernel, pipe, nest)
        pipe.process_trace(kernel.preamble())
        for band in bands[:warmup]:
            run_band(band)

        before = pipe.snapshot()
        measured_points = 0
        measured_bands = 0
        for band in bands[warmup:]:
            run_band(band)
            measured_points += sum(block.points for block in band)
            measured_bands += 1
            if measured_points >= plan.min_measure_points:
                break
            if plan.max_measure_bands is not None and measured_bands >= plan.max_measure_bands:
                break
        after = pipe.snapshot()

        if measured_points == 0:
            raise RuntimeError("sampled timing measured zero points; grid too small to sample")
        delta = PipelineModel.delta(after, before)
        delta.points = measured_points
        scaled = delta.scaled(total_points / measured_points)
        scaled.points = total_points
        return scaled
