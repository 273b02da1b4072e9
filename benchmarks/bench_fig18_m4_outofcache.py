"""Figure 18 — Apple M4: out-of-cache speedups (r=2 box).

Paper: without the optimizations HStencil averages 2.63x on the M4;
instruction scheduling adds ~30% and spatial prefetch another ~20%.

All cells run through the session ``m4_runner``, so ``REPRO_ENGINE``
selects the replay engine here the same way it does for every other bench
(see ``conftest.py``); the disk cache serves either engine's cells, which
are bit-identical.
"""

from conftest import report, run_once

from repro.bench.report import format_speedup_table, geomean

SIZES = [1024, 2048, 4096]
STENCIL = "box2d25p"
METHODS = ["hstencil-nosched", "hstencil-noprefetch", "hstencil-prefetch"]
LABELS = {
    "hstencil-nosched": "no opt",
    "hstencil-noprefetch": "+scheduling",
    "hstencil-prefetch": "+sched+prefetch",
}


def _collect(runner):
    rows = {}
    for n in SIZES:
        cells = runner.speedups(METHODS, STENCIL, (n, n))
        rows[f"{n} x {n}"] = {LABELS[m]: v for m, v in cells.items()}
    return rows


def test_fig18_m4_out_of_cache(benchmark, m4_runner):
    rows = run_once(benchmark, lambda: _collect(m4_runner))
    report(
        "fig18_m4_outofcache",
        format_speedup_table(
            "Figure 18: M4 out-of-cache (r=2 box)",
            rows,
            baseline_note="vs NEON auto-vectorization",
        )
        + "\n(paper: base 2.63x; +30% from scheduling; +20% from prefetch)",
    )
    base = geomean([rows[k]["no opt"] for k in rows])
    sched = geomean([rows[k]["+scheduling"] for k in rows])
    pf = geomean([rows[k]["+sched+prefetch"] for k in rows])
    # Portability of the two optimizations (Sections 4.2/4.3):
    assert base > 1.0
    assert sched > 1.05 * base, "instruction scheduling must help on the M4"
    assert pf > 1.02 * sched, "spatial prefetch must add on top"
