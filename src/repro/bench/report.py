"""Paper-style rendering of benchmark results, plus JSON artifacts.

The text formatters render the tables/figures the way the paper presents
them.  :func:`write_bench_json` additionally emits one structured
``BENCH_<experiment>.json`` artifact per benchmark run — raw counters,
derived metrics, a machine fingerprint, and cache hit/miss provenance —
so the performance trajectory of the repository is machine-readable.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Version of the ``BENCH_*.json`` artifact layout.
BENCH_JSON_SCHEMA = 1


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the figures' 'average speedup')."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_speedup_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    baseline_note: str = "normalized to auto-vectorization",
) -> str:
    """Render {workload: {method: speedup}} as a fixed-width table."""
    methods: List[str] = []
    for cells in rows.values():
        for m in cells:
            if m not in methods:
                methods.append(m)
    w0 = max([len(k) for k in rows] + [8])
    header = f"{'workload':<{w0}}  " + "  ".join(f"{m:>18}" for m in methods)
    lines = [f"== {title} ({baseline_note}) ==", header, "-" * len(header)]
    for name, cells in rows.items():
        line = f"{name:<{w0}}  "
        line += "  ".join(
            f"{cells[m]:>17.2f}x" if m in cells else f"{'-':>18}" for m in methods
        )
        lines.append(line)
    means = {
        m: geomean([cells[m] for cells in rows.values() if m in cells]) for m in methods
    }
    line = f"{'geomean':<{w0}}  " + "  ".join(f"{means[m]:>17.2f}x" for m in methods)
    lines.append("-" * len(header))
    lines.append(line)
    return "\n".join(lines)


def format_metric_table(
    title: str,
    rows: Mapping[str, Mapping[str, str]],
) -> str:
    """Render {row: {column: formatted value}} as a fixed-width table."""
    columns: List[str] = []
    for cells in rows.values():
        for c in cells:
            if c not in columns:
                columns.append(c)
    w0 = max([len(k) for k in rows] + [8])
    widths = {c: max(len(c), 14) for c in columns}
    header = f"{'':<{w0}}  " + "  ".join(f"{c:>{widths[c]}}" for c in columns)
    lines = [f"== {title} ==", header, "-" * len(header)]
    for name, cells in rows.items():
        line = f"{name:<{w0}}  " + "  ".join(
            f"{cells.get(c, '-'):>{widths[c]}}" for c in columns
        )
        lines.append(line)
    return "\n".join(lines)


def format_scaling_series(
    title: str,
    series: Mapping[str, Sequence[Tuple[int, float]]],
    unit: str = "GStencil/s",
) -> str:
    """Render {method: [(cores, value)]} as a scaling table."""
    cores = sorted({c for pts in series.values() for c, _ in pts})
    w0 = max([len(k) for k in series] + [8])
    header = f"{'method':<{w0}}  " + "  ".join(f"{c:>10d}" for c in cores)
    lines = [f"== {title} ({unit}) ==", header, "-" * len(header)]
    for name, pts in series.items():
        by_core = dict(pts)
        line = f"{name:<{w0}}  " + "  ".join(
            f"{by_core[c]:>10.2f}" if c in by_core else f"{'-':>10}" for c in cores
        )
        lines.append(line)
    return "\n".join(lines)


# -- JSON artifacts ----------------------------------------------------------


def bench_json_payload(
    experiment: str,
    runner=None,
    extra: Optional[Mapping] = None,
) -> Dict:
    """Assemble the ``BENCH_*.json`` payload for one experiment.

    ``runner`` (an :class:`~repro.bench.runner.ExperimentRunner`) supplies
    the machine fingerprint, the per-cell counter records and the cache
    provenance; ``extra`` is merged in verbatim for experiment-specific data
    (e.g. scaling points or speedup tables).
    """
    from repro.bench.cache import code_version, machine_digest, machine_fingerprint

    payload: Dict = {
        "schema": BENCH_JSON_SCHEMA,
        "experiment": experiment,
        "generated_unix": time.time(),
        "code_version": code_version(),
    }
    if runner is not None:
        payload["machine"] = machine_fingerprint(runner.machine)
        payload["machine_digest"] = machine_digest(runner.machine)
        # Which replay engine produced the numbers.
        payload["modes"] = {"engine": runner.engine.engine}
        payload["cells"] = runner.records()
        payload["cache"] = runner.cache_stats()
    if extra:
        payload.update(dict(extra))
    return payload


def write_bench_json(
    directory,
    experiment: str,
    runner=None,
    extra: Optional[Mapping] = None,
) -> pathlib.Path:
    """Write ``BENCH_<experiment>.json`` into ``directory``; return the path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{experiment}.json"
    payload = bench_json_payload(experiment, runner=runner, extra=extra)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
