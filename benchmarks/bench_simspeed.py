"""Simulator throughput — reference walk vs compiled replay vs pass jump.

Two workloads, one artifact (``benchmarks/results/BENCH_simspeed.json``):

* **Figure 12 in-cache workload** (128x128, full simulation, warm pass,
  ``iters = 16`` repeated measured passes — the paper's hardware-benchmark
  methodology) through three engine configurations:

  - ``reference``: per-instruction object walk, every pass simulated;
  - ``compiled`` with ``steady="off"``: columnar template replay, every
    pass simulated (the baseline the pass-jump speedup is measured
    against);
  - ``compiled`` with ``steady="on"`` (the default): the same replay plus
    the pass-boundary jump — once the machine state signature at a pass
    boundary recurs, the remaining passes are applied arithmetically.
    The in-cache cells never engage band elision, so the jump is the only
    difference between the two.

* **Figure 15-style out-of-cache workload**: band-sampled large grids
  (``iters = 1``; sampling and repeated iters are mutually exclusive)
  through the reference engine and the compiled engine's columnar
  address-stream replay with the whole-block scoreboard memo.

Every cell of every workload is checked for the bit-identity contract —
identical :class:`PerfCounters` from all configurations — so no speedup is
ever bought with accuracy.  All runs are cold (no disk cache): the point is
simulation speed, not cache hits.
"""

import os
import time

from conftest import bench_artifact, report

from repro.bench.report import format_metric_table
from repro.bench.runner import ExperimentRunner
from repro.machine.config import LX2
from repro.machine.timing import ENGINES, SamplePlan

METHODS = ["vector-only", "matrix-only", "hstencil", "auto"]
SHAPE = (128, 128)
SUITE_2D = ["star2d5p", "star2d9p", "star2d13p", "box2d9p", "box2d25p", "box2d49p", "heat2d"]

#: Repeated measured passes for the in-cache workload (paper methodology).
MEMO_ITERS = 16

#: Out-of-cache (band-sampled) cells; kept small — the reference walk pays
#: full price per cell.
OOC_SHAPE = (2048, 2048)
OOC_STENCIL = "box2d25p"
OOC_METHODS = ["hstencil", "auto"]

#: Wall-clock targets.  ``compiled`` with steady on must beat it with
#: steady off by >= 4x on the iterated in-cache workload, and the
#: reference walk by >= 20x.  Both compiled sides replay columnar, the
#: compiled engine's only band runner.
SPEEDUP_TARGET_VS_COMPILED = 4.0
SPEEDUP_TARGET_VS_REFERENCE = 20.0

#: Out-of-cache target: columnar replay vs the reference walk on the
#: band-sampled workload (the floor leaves CI noise room below the
#: measured ratio).  Out of cache the pass jump cannot fire (the cache
#: state never recurs), so this is compile-once + address-stream replay
#: plus the whole-block scoreboard memo over relative contexts.  The
#: combined cell includes the ``auto`` kernel, whose large blocks make the
#: compile-once probe emissions a third of the columnar wall-clock at this
#: grid size — the amortized regime is asserted separately by the
#: ``ooc_guard`` floor below.
OOC_SPEEDUP_TARGET = 5.0

#: Full-grid exact (unsampled) out-of-cache cell: the steady-state elision
#: workload.  One 2048^2 r=2 box pass on LX2, every band simulated
#: (``sample=False``) vs the band-periodic controller detecting the
#: steady state, verifying one period live and applying the remaining
#: bands arithmetically (``steady="on"``, the default).  Bit-identity is
#: asserted on every round; the elided side must also actually engage —
#: a run that silently fell back to the full walk would "pass" the
#: identity check while measuring nothing.  Measured speedup is ~7-8x
#: cold (detection from scratch) and ~10x warm (persisted period record);
#: the smoke-guard floor below leaves CI noise room under the cold
#: number.
FULLGRID_METHOD = "hstencil"
FULLGRID_SPEEDUP_TARGET = 5.0
FULLGRID_GUARD_SPEEDUP_TARGET = 4.0

#: Multicore (fig16-style) wall-clock target: one strong-scaling sweep —
#: every distinct slice height plus the serial reference, band-sampled —
#: timed through the reference walk and the compiled engine's columnar
#: replay in the same process.  Columnar must beat the reference walk by
#: this factor; the sweep's scaling points must agree exactly between the
#: engines.  The r=2 box is the HStencil showcase (figs 17/18) and the
#: representative op mix for the replay engine: with five taps per row
#: most operations stay on the L1-hit fast path rather than in the
#: per-line stream-advance machinery.  The sampling plan is sized so the
#: compile-once probe emissions amortize the way they do on production
#: sweeps.
MC_GUARD_SIZE = 2048
MC_GUARD_CORES = [1, 2, 4, 8]
MC_GUARD_STENCIL = "box2d25p"
MC_GUARD_METHOD = "hstencil-prefetch"
MC_GUARD_PLAN = SamplePlan(min_measure_points=200_000)
MC_SPEEDUP_TARGET = 2.0

#: Small workload for the CI wall-clock regression guard: the full run
#: records its steady-off / steady-on ratio in the JSON artifact, the smoke
#: guard re-measures it and fails when it degrades by more than GUARD_SLACK.
#: A ratio of two same-process runs is machine-independent, unlike raw
#: seconds.
GUARD_CELLS = [("hstencil", "star2d5p", (96, 96)), ("auto", "star2d5p", (96, 96))]
GUARD_ITERS = 12
GUARD_SLACK = 0.25

#: Out-of-cache guard cell: one band-sampled large grid, measured through
#: the reference walk and the columnar replay in the same process.  The
#: sampling plan is sized so the compile-once probe emissions amortize the
#: way they do on production sweeps (at 100k measured points they are a few
#: percent of the columnar side), which is the regime the hard floor below
#: describes; the cell still exercises the identical code paths as the
#: full workload.  The floor is a same-process wall-clock ratio, so it is
#: machine-independent; measured headroom is ~10-12x.
OOC_GUARD_CELLS = [("hstencil", OOC_STENCIL, OOC_SHAPE)]
OOC_GUARD_PLAN = SamplePlan(min_measure_points=100_000)
OOC_GUARD_SPEEDUP_TARGET = 8.0

#: Stencil-service throughput cell: R identical mixed-lane requests (4
#: warm-cache cells each) against one persistent warm-worker service vs
#: the same R requests through fork-per-sweep ``run_cells`` calls (a fresh
#: worker pool per request — the pre-service engine's cost model).  The
#: service side pays one pool spin-up for all R requests and coalesces
#: identical in-flight cells, so the requests/sec ratio is dominated by
#: amortized process start and shared work; the floor is the acceptance
#: criterion's 3x.  Measured ~8-30x depending on fork cost.
SERVICE_CELLS = [
    ("hstencil", "star2d5p", (64, 64)),
    ("auto", "star2d5p", (64, 64)),
    ("hstencil", "box2d9p", (64, 64)),
    ("auto", "box2d9p", (64, 64)),
]
SERVICE_REQUESTS = 12
SERVICE_SMOKE_REQUESTS = 6
SERVICE_WORKERS = 2
SERVICE_THROUGHPUT_TARGET = 3.0

_RESULTS_JSON = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_simspeed.json"
)


def _guard_speedup():
    """Measured steady-off / steady-on wall-clock ratio on the guard cells.

    Both sides replay columnar and the in-cache guard cells never engage
    band elision, so the ratio is the pass jump's payoff alone.
    """
    off_s, _, _ = _run_config("compiled", "off", GUARD_CELLS, iters=GUARD_ITERS)
    on_s, _, _ = _run_config("compiled", "on", GUARD_CELLS, iters=GUARD_ITERS)
    return off_s / on_s


def _multicore_run(engine):
    """Wall-clock one fig16-style strong-scaling sweep on ``engine``."""
    from repro.machine.multicore import MulticoreModel
    from repro.stencils.library import benchmark as stencil_benchmark

    runner = ExperimentRunner(LX2(), cache_dir=None, engine=engine)
    spec = stencil_benchmark(MC_GUARD_STENCIL)
    # Share the runner's engine so columnar plans/memos persist across the
    # sweep's slice heights — the configuration the fig16 bench runs with.
    mc = MulticoreModel(runner.machine, timing_engine=runner.engine)
    start = time.perf_counter()
    points = mc.strong_scaling(
        lambda rows: runner._build(MC_GUARD_METHOD, spec, (rows, MC_GUARD_SIZE)),
        MC_GUARD_SIZE,
        MC_GUARD_CORES,
        plan=MC_GUARD_PLAN,
    )
    seconds = time.perf_counter() - start
    return seconds, points


def _multicore_best(rounds=3):
    """Interleaved best-of-N multicore sweeps on both engines.

    Machine load inflates single wall-clock readings by tens of percent;
    alternating the two sides and keeping each side's best keeps the ratio
    near the noise-free value (load can slow a run, never speed one up).
    Both sides run the same number of rounds: fewer reference rounds
    would leave its best reading noisier and inflate the ratio.  Also
    asserts the engines produce identical scaling points on every round,
    so the measurement doubles as an end-to-end multicore bit-identity
    check against the reference walk.
    """
    ref_s = col_s = None
    for _ in range(rounds):
        r, ref_pts = _multicore_run("reference")
        c, col_pts = _multicore_run("compiled")
        assert [
            (p.cores, p.cycles, p.points, p.dram_bytes_per_core) for p in col_pts
        ] == [
            (p.cores, p.cycles, p.points, p.dram_bytes_per_core) for p in ref_pts
        ], "multicore sweep: scaling points diverge from the reference walk"
        ref_s = r if ref_s is None else min(ref_s, r)
        col_s = c if col_s is None else min(col_s, c)
    return ref_s, col_s


def _multicore_guard_speedup():
    """Reference / columnar wall-clock ratio on the multicore guard sweep."""
    ref_s, col_s = _multicore_best()
    return ref_s / col_s


def _ooc_guard_speedup(rounds=2):
    """Reference / columnar wall-clock ratio on the out-of-cache guard cell.

    Interleaved best-of-N like :func:`_multicore_best`: load can only slow
    a run down, so each side's minimum is the honest reading.  Also asserts
    bit-identity between the two sides on every round — the guard doubles
    as a cheap end-to-end columnar correctness check on a real large grid.
    """
    ref_s = col_s = None
    for _ in range(rounds):
        r, _, ref_counters = _run_config(
            "reference", "off", OOC_GUARD_CELLS, plan=OOC_GUARD_PLAN
        )
        c, _, col_counters = _run_config(
            "compiled", "on", OOC_GUARD_CELLS, plan=OOC_GUARD_PLAN
        )
        _assert_identical(OOC_GUARD_CELLS, ref_counters, col_counters, "ooc guard")
        ref_s = r if ref_s is None else min(ref_s, r)
        col_s = c if col_s is None else min(col_s, c)
    return ref_s / col_s


def _fullgrid_exact_speedup(rounds=1):
    """Steady-off / steady-on wall-clock ratio on the exact full-grid cell.

    Interleaved best-of-N like the other guards (load only ever slows a
    run down).  Every round asserts the elided counters are bit-identical
    to the full band walk, and the final round's controller stats must
    show at least one engagement — the speedup is meaningless if elision
    sat out.  Returns ``(speedup, on_s, off_s, stats)``.
    """
    from repro.kernels.base import KernelOptions
    from repro.kernels.registry import make_kernel
    from repro.machine.memory import MemorySpace
    from repro.machine.timing import SimMode, TimingEngine
    from repro.stencils.grid import Grid2D
    from repro.stencils.library import benchmark as stencil_benchmark

    spec = stencil_benchmark(OOC_STENCIL)

    def run(steady):
        config = LX2()
        mem = MemorySpace()
        rows, cols = OOC_SHAPE
        src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=11)
        dst = Grid2D(mem, rows, cols, spec.radius, "B")
        kernel = make_kernel(
            FULLGRID_METHOD, spec, src, dst, config, KernelOptions(unroll_j=2)
        )
        engine = TimingEngine(config, SimMode(engine="compiled", steady=steady))
        start = time.perf_counter()
        counters = engine.run(kernel, sample=False, warm=False)
        return time.perf_counter() - start, counters.to_dict(), engine.steady_stats

    on_s = off_s = None
    for _ in range(rounds):
        o, on_counters, stats = run("on")
        f, off_counters, _ = run("off")
        assert on_counters == off_counters, (
            "fullgrid exact: steady elision diverged from the band walk"
        )
        on_s = o if on_s is None else min(on_s, o)
        off_s = f if off_s is None else min(off_s, f)
    assert stats.engaged >= 1, (
        f"fullgrid exact: elision never engaged (disabled={stats.disabled!r})"
    )
    return off_s / on_s, on_s, off_s, stats


def _service_throughput(cache_dir, requests=SERVICE_REQUESTS):
    """Warm-pool service vs fork-per-sweep requests/sec on a mixed workload.

    Both sides serve ``requests`` identical jobs from a pre-warmed disk
    cache, so neither pays first-ever simulation cost: the baseline pays a
    fresh worker pool (and its runner re-warm) per request, the service
    pays one pool for all of them and coalesces identical in-flight
    cells.  Returns ``(baseline_s, service_s, counters)``.
    """
    import asyncio

    from repro.bench.parallel import run_cells
    from repro.service.engine import StencilService

    cache_dir = str(cache_dir)
    run_cells(SERVICE_CELLS, machine=LX2(), cache_dir=cache_dir, jobs=1)

    start = time.perf_counter()
    for _ in range(requests):
        results = run_cells(
            SERVICE_CELLS, machine=LX2(), cache_dir=cache_dir, jobs=SERVICE_WORKERS
        )
        assert all(r.ok for r in results)
    baseline_s = time.perf_counter() - start

    service = StencilService(workers=SERVICE_WORKERS, cache_dir=cache_dir)
    lanes = ("interactive", "batch")

    async def drive():
        async with service:
            jobs = [
                await service.submit(SERVICE_CELLS, lane=lanes[i % len(lanes)])
                for i in range(requests)
            ]
            for job in jobs:
                assert all(r.ok for r in await job.results())

    start = time.perf_counter()
    asyncio.run(drive())
    service_s = time.perf_counter() - start
    # Coalescing contract: R identical concurrent requests collapse onto
    # one in-flight task per distinct cell, and nothing re-simulates — the
    # warm cache serves every dispatched cell.
    assert service.counters["simulated"] == 0
    assert service.counters["dispatched"] <= len(SERVICE_CELLS)
    return baseline_s, service_s, dict(service.counters)


def _run_config(engine, steady, cells, iters=1, plan=None):
    """Simulate every cell with one configuration; return timing + counters."""
    runner = ExperimentRunner(LX2(), cache_dir=None, engine=engine, steady=steady)
    start = time.perf_counter()
    results = {cell: runner.measure(*cell, plan=plan, iters=iters) for cell in cells}
    seconds = time.perf_counter() - start
    counters = {cell: m.counters.to_dict() for cell, m in results.items()}
    instructions = sum(m.counters.instructions for m in results.values())
    return seconds, instructions, counters


def _assert_identical(cells, baseline, other, label):
    mismatched = [cell for cell in cells if baseline[cell] != other[cell]]
    assert mismatched == [], f"{label}: counters diverge on {mismatched}"


def test_simspeed_workloads(benchmark, tmp_path):
    cells = [(m, name, SHAPE) for name in SUITE_2D for m in METHODS]

    # -- in-cache, iters=16: reference and compiled with every pass walked --
    ref_s, ref_ins, ref_counters = _run_config(
        "reference", "off", cells, iters=MEMO_ITERS
    )
    off_s, off_ins, off_counters = _run_config("compiled", "off", cells, iters=MEMO_ITERS)

    # -- in-cache, iters=16: compiled + pass jump (the benchmarked engine) --
    def compiled_memo():
        return _run_config("compiled", "on", cells, iters=MEMO_ITERS)

    memo_s, memo_ins, memo_counters = benchmark.pedantic(
        compiled_memo, rounds=1, iterations=1, warmup_rounds=0
    )

    # Bit-identity: same instructions simulated, same counters everywhere.
    assert memo_ins == ref_ins == off_ins
    _assert_identical(cells, ref_counters, off_counters, "compiled/off vs reference")
    _assert_identical(cells, ref_counters, memo_counters, "compiled/on vs reference")

    # -- out-of-cache, band-sampled: reference vs columnar replay ----------
    ooc_cells = [(m, OOC_STENCIL, OOC_SHAPE) for m in OOC_METHODS]
    ooc_ref_s, ooc_ref_ins, ooc_ref_counters = _run_config("reference", "off", ooc_cells)
    ooc_col_s, ooc_col_ins, ooc_col_counters = _run_config("compiled", "on", ooc_cells)
    assert ooc_col_ins == ooc_ref_ins
    _assert_identical(ooc_cells, ooc_ref_counters, ooc_col_counters, "out-of-cache columnar")

    # -- full-grid exact run: steady-state elision vs full band walk -------
    fg_speedup, fg_on_s, fg_off_s, fg_stats = _fullgrid_exact_speedup(rounds=2)

    # -- multicore (fig16-style) sweep: reference vs columnar wall-clock ---
    mc_ref_s, mc_col_s = _multicore_best()
    mc_speedup = mc_ref_s / mc_col_s

    # -- stencil service: warm-pool vs fork-per-sweep requests/sec ---------
    svc_base_s, svc_s, svc_counters = _service_throughput(tmp_path / "svc")
    svc_speedup = svc_base_s / svc_s

    # -- CI regression-guard baselines -------------------------------------
    guard_speedup = _guard_speedup()
    ooc_guard_speedup = _ooc_guard_speedup()

    speedup_vs_ref = ref_s / memo_s
    speedup_vs_off = off_s / memo_s
    ooc_speedup = ooc_ref_s / ooc_col_s
    rows = {
        "reference": {
            "wall s": f"{ref_s:.2f}",
            "sim ins": f"{ref_ins:,}",
            "ins/s": f"{ref_ins / ref_s:,.0f}",
        },
        "compiled (steady off)": {
            "wall s": f"{off_s:.2f}",
            "sim ins": f"{off_ins:,}",
            "ins/s": f"{off_ins / off_s:,.0f}",
        },
        "compiled (pass jump)": {
            "wall s": f"{memo_s:.2f}",
            "sim ins": f"{memo_ins:,}",
            "ins/s": f"{memo_ins / memo_s:,.0f}",
        },
    }
    report(
        "simspeed",
        format_metric_table(
            f"Simulator throughput (fig12 in-cache workload, iters={MEMO_ITERS})", rows
        )
        + f"\npass-jump vs steady-off wall-clock speedup: {speedup_vs_off:.2f}x "
        f"(target >= {SPEEDUP_TARGET_VS_COMPILED:.0f}x)"
        + f"\npass-jump vs reference wall-clock speedup: {speedup_vs_ref:.2f}x "
        f"(target >= {SPEEDUP_TARGET_VS_REFERENCE:.0f}x)"
        + f"\nout-of-cache sampled workload: columnar {ooc_col_s:.2f}s "
        f"vs reference {ooc_ref_s:.2f}s "
        f"({ooc_speedup:.2f}x, target >= {OOC_SPEEDUP_TARGET:.1f}x)"
        + f"\nout-of-cache guard cell (amortized, "
        f"{OOC_GUARD_PLAN.min_measure_points:,} points): "
        f"{ooc_guard_speedup:.2f}x vs reference "
        f"(target >= {OOC_GUARD_SPEEDUP_TARGET:.1f}x)"
        + f"\nfull-grid exact run ({FULLGRID_METHOD} {OOC_STENCIL} "
        f"{OOC_SHAPE[0]}x{OOC_SHAPE[1]}, every band): steady elision "
        f"{fg_on_s:.2f}s vs full walk {fg_off_s:.2f}s ({fg_speedup:.2f}x, "
        f"target >= {FULLGRID_SPEEDUP_TARGET:.0f}x; "
        f"{fg_stats.elided_bands} bands elided, bit-identical)"
        + f"\nfig16-style multicore sweep ({MC_GUARD_STENCIL} "
        f"{MC_GUARD_SIZE}^2, cores {MC_GUARD_CORES}): columnar {mc_col_s:.2f}s "
        f"vs reference {mc_ref_s:.2f}s ({mc_speedup:.2f}x, "
        f"target >= {MC_SPEEDUP_TARGET:.1f}x)"
        + f"\nstencil service throughput ({SERVICE_REQUESTS} warm-cache "
        f"mixed-lane requests x {len(SERVICE_CELLS)} cells): persistent pool "
        f"{svc_s:.2f}s vs fork-per-sweep {svc_base_s:.2f}s ({svc_speedup:.1f}x "
        f"requests/sec, target >= {SERVICE_THROUGHPUT_TARGET:.0f}x; "
        f"{svc_counters['coalesced_inflight'] + svc_counters['memo_hits']} of "
        f"{svc_counters['cells']} cells coalesced)",
    )
    bench_artifact(
        "simspeed",
        extra={
            "engines": list(ENGINES),
            "workload": {
                "methods": METHODS,
                "stencils": SUITE_2D,
                "shape": list(SHAPE),
                "iters": MEMO_ITERS,
                "machine": "LX2",
            },
            "reference": {"seconds": ref_s, "instructions": ref_ins},
            "compiled_memo_off": {"seconds": off_s, "instructions": off_ins},
            "compiled_pass_memo": {"seconds": memo_s, "instructions": memo_ins},
            "instructions_per_second": {
                "reference": ref_ins / ref_s,
                "compiled_memo_off": off_ins / off_s,
                "compiled_pass_memo": memo_ins / memo_s,
            },
            "speedup_vs_reference": speedup_vs_ref,
            "speedup_vs_compiled_memo_off": speedup_vs_off,
            "speedup_target_vs_reference": SPEEDUP_TARGET_VS_REFERENCE,
            "speedup_target_vs_compiled_memo_off": SPEEDUP_TARGET_VS_COMPILED,
            "regression_guard": {
                "cells": [list(c[:2]) + [list(c[2])] for c in GUARD_CELLS],
                "iters": GUARD_ITERS,
                "speedup": guard_speedup,
                "slack": GUARD_SLACK,
            },
            "out_of_cache": {
                "methods": OOC_METHODS,
                "stencil": OOC_STENCIL,
                "shape": list(OOC_SHAPE),
                "sampled": True,
                "reference": {"seconds": ooc_ref_s, "instructions": ooc_ref_ins},
                "compiled_columnar": {"seconds": ooc_col_s, "instructions": ooc_col_ins},
                "speedup": ooc_speedup,
                "speedup_target": OOC_SPEEDUP_TARGET,
            },
            "ooc_guard": {
                "cells": [list(c[:2]) + [list(c[2])] for c in OOC_GUARD_CELLS],
                "min_measure_points": OOC_GUARD_PLAN.min_measure_points,
                "speedup": ooc_guard_speedup,
                "speedup_target": OOC_GUARD_SPEEDUP_TARGET,
                "slack": GUARD_SLACK,
            },
            "fullgrid_exact": {
                "method": FULLGRID_METHOD,
                "stencil": OOC_STENCIL,
                "shape": list(OOC_SHAPE),
                "sampled": False,
                "steady_on_seconds": fg_on_s,
                "steady_off_seconds": fg_off_s,
                "speedup": fg_speedup,
                "speedup_target": FULLGRID_SPEEDUP_TARGET,
                "guard_speedup_target": FULLGRID_GUARD_SPEEDUP_TARGET,
                "steady_stats": fg_stats.to_dict(),
            },
            "multicore": {
                "method": MC_GUARD_METHOD,
                "stencil": MC_GUARD_STENCIL,
                "size": MC_GUARD_SIZE,
                "cores": MC_GUARD_CORES,
                "min_measure_points": MC_GUARD_PLAN.min_measure_points,
                "reference_seconds": mc_ref_s,
                "columnar_seconds": mc_col_s,
                "speedup": mc_speedup,
                "speedup_target": MC_SPEEDUP_TARGET,
            },
            "service_throughput": {
                "cells": [list(c[:2]) + [list(c[2])] for c in SERVICE_CELLS],
                "requests": SERVICE_REQUESTS,
                "workers": SERVICE_WORKERS,
                "fork_per_sweep_seconds": svc_base_s,
                "service_seconds": svc_s,
                "speedup": svc_speedup,
                "speedup_target": SERVICE_THROUGHPUT_TARGET,
                "counters": svc_counters,
            },
            "multicore_guard": {
                "method": MC_GUARD_METHOD,
                "stencil": MC_GUARD_STENCIL,
                "size": MC_GUARD_SIZE,
                "cores": MC_GUARD_CORES,
                "min_measure_points": MC_GUARD_PLAN.min_measure_points,
                "speedup": mc_speedup,
                "slack": GUARD_SLACK,
            },
            "bit_identical": True,
        },
    )
    assert speedup_vs_off >= SPEEDUP_TARGET_VS_COMPILED
    assert speedup_vs_ref >= SPEEDUP_TARGET_VS_REFERENCE
    assert ooc_speedup >= OOC_SPEEDUP_TARGET
    assert fg_speedup >= FULLGRID_SPEEDUP_TARGET
    assert ooc_guard_speedup >= OOC_GUARD_SPEEDUP_TARGET
    assert mc_speedup >= MC_SPEEDUP_TARGET
    assert svc_speedup >= SERVICE_THROUGHPUT_TARGET


def test_smoke_simspeed_engines_agree():
    """One small cell per engine: identical counters, artifact fields sane."""
    cell = ("hstencil", "star2d5p", (32, 32))
    timings = {}
    counters = {}
    for engine in ENGINES:
        runner = ExperimentRunner(LX2(), cache_dir=None, engine=engine)
        start = time.perf_counter()
        counters[engine] = runner.measure(*cell).counters.to_dict()
        timings[engine] = time.perf_counter() - start
    assert counters["compiled"] == counters["reference"]
    assert all(s > 0 for s in timings.values())


def test_smoke_simspeed_memo_modes_agree():
    """Steady off and on (the pass jump) produce bit-identical iterated counters."""
    cell = ("hstencil", "star2d5p", (64, 64))
    counters = {}
    for steady in ("off", "on"):
        seconds, instructions, by_cell = _run_config("compiled", steady, [cell], iters=4)
        counters[steady] = by_cell[cell]
    baseline = counters["off"]
    assert all(c == baseline for c in counters.values())


def test_smoke_simspeed_wallclock_guard():
    """CI wall-clock regression guard (>25% degradation fails).

    Re-measures the small guard workload and compares its steady-off /
    steady-on speedup ratio against the one the committed
    ``BENCH_simspeed.json`` records.  The ratio is taken between two runs
    in the same process on the same machine, so it transfers across
    hardware; raw seconds would not.
    """
    import json

    try:
        recorded = json.loads(open(_RESULTS_JSON).read())["regression_guard"]
    except (OSError, ValueError, KeyError):
        import pytest

        pytest.skip("no recorded regression_guard baseline in BENCH_simspeed.json")
    measured = _guard_speedup()
    floor = recorded["speedup"] * (1.0 - recorded.get("slack", GUARD_SLACK))
    assert measured >= floor, (
        f"pass-jump wall-clock speedup regressed: measured {measured:.2f}x, "
        f"recorded {recorded['speedup']:.2f}x, floor {floor:.2f}x"
    )


def test_smoke_simspeed_ooc_wallclock_guard():
    """CI wall-clock guard for the out-of-cache columnar replay path.

    Re-measures the reference / columnar speedup ratio on the sampled
    out-of-cache guard cell and compares it against the baseline the
    committed ``BENCH_simspeed.json`` records, with the usual slack.  Like
    the in-cache guard, the ratio of two same-process runs transfers
    across machines; raw seconds would not.
    """
    import json

    try:
        recorded = json.loads(open(_RESULTS_JSON).read())["ooc_guard"]
    except (OSError, ValueError, KeyError):
        import pytest

        pytest.skip("no recorded ooc_guard baseline in BENCH_simspeed.json")
    measured = _ooc_guard_speedup()
    floor = recorded["speedup"] * (1.0 - recorded.get("slack", GUARD_SLACK))
    # The recorded baseline never lets the floor drop below the hard target
    # (raised from the pre-columnar 4.5x): a "passing" regression guard must
    # still mean the columnar path beats the reference walk by >= 8x.
    if floor < OOC_GUARD_SPEEDUP_TARGET:
        floor = OOC_GUARD_SPEEDUP_TARGET
    assert measured >= floor, (
        f"out-of-cache columnar speedup regressed: measured {measured:.2f}x, "
        f"recorded {recorded['speedup']:.2f}x, floor {floor:.2f}x"
    )


def test_smoke_simspeed_fullgrid_exact_guard():
    """CI guard for band-periodic steady-state elision on exact runs.

    One exact (every-band) 2048^2 out-of-cache pass, steady elision vs the
    full band walk, in the same process.  Needs no recorded baseline: the
    same-process wall-clock ratio transfers across hardware, and the
    helper already asserts bit-identity and that elision actually
    engaged.  The floor sits under the ~7-8x measured cold speedup (a
    warm artifact store serves the persisted period record and lands
    ~10x, which only raises the measured side).
    """
    speedup, on_s, off_s, stats = _fullgrid_exact_speedup(rounds=1)
    assert speedup >= FULLGRID_GUARD_SPEEDUP_TARGET, (
        f"steady-state elision speedup {speedup:.2f}x below floor "
        f"{FULLGRID_GUARD_SPEEDUP_TARGET:.0f}x (elided {on_s:.2f}s, "
        f"full walk {off_s:.2f}s, {stats.elided_bands} bands elided)"
    )


def test_smoke_simspeed_multicore_wallclock_guard():
    """CI wall-clock guard for the fig16-style multicore columnar path.

    Re-measures the reference / columnar speedup ratio on the
    strong-scaling guard sweep and compares it against the baseline the
    committed ``BENCH_simspeed.json`` records, with the usual slack.  The
    helper also asserts the two engines' scaling points agree exactly, so
    the guard doubles as an end-to-end multicore bit-identity check
    against the reference walk.
    """
    import json

    try:
        recorded = json.loads(open(_RESULTS_JSON).read())["multicore_guard"]
    except (OSError, ValueError, KeyError):
        import pytest

        pytest.skip("no recorded multicore_guard baseline in BENCH_simspeed.json")
    measured = _multicore_guard_speedup()
    floor = recorded["speedup"] * (1.0 - recorded.get("slack", GUARD_SLACK))
    assert measured >= floor, (
        f"multicore columnar speedup regressed: measured {measured:.2f}x, "
        f"recorded {recorded['speedup']:.2f}x, floor {floor:.2f}x"
    )


def test_smoke_simspeed_service_throughput_guard(tmp_path):
    """Warm-pool service vs fork-per-sweep floor (the issue's 3x criterion).

    Like the full-grid guard this needs no recorded baseline: both sides run in
    the same process on the same machine, so the requests/sec ratio
    transfers across hardware.  The coalescing counters are asserted
    inside :func:`_service_throughput` — identical concurrent requests
    dispatch at most one task per distinct cell and re-simulate nothing.
    """
    base_s, svc_s, counters = _service_throughput(
        tmp_path, requests=SERVICE_SMOKE_REQUESTS
    )
    speedup = base_s / svc_s
    assert counters["coalesced_inflight"] + counters["memo_hits"] >= (
        (SERVICE_SMOKE_REQUESTS - 1) * len(SERVICE_CELLS)
    )
    assert speedup >= SERVICE_THROUGHPUT_TARGET, (
        f"service throughput {speedup:.2f}x below target "
        f"{SERVICE_THROUGHPUT_TARGET:.0f}x (fork-per-sweep {base_s:.2f}s, "
        f"warm pool {svc_s:.2f}s for {SERVICE_SMOKE_REQUESTS} requests)"
    )


def test_smoke_simspeed_disk_cache_is_engine_agnostic(tmp_path):
    """A cell simulated by one engine is served from disk to the other.

    The disk-cache key deliberately omits the engine: the engines are
    bit-identical, so sharing entries is sound and halves cold-cache cost.
    """
    cell = ("auto", "box2d9p", (32, 32))
    first = ExperimentRunner(LX2(), cache_dir=tmp_path, engine="reference")
    a = first.measure(*cell)
    assert first.provenance(*cell) == "simulated"
    second = ExperimentRunner(LX2(), cache_dir=tmp_path, engine="compiled")
    b = second.measure(*cell)
    assert second.provenance(*cell) == "disk"
    assert a.counters.to_dict() == b.counters.to_dict()
