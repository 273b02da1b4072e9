"""Command-line interface: ``python -m repro <command>``.

Commands:

``methods``
    List the registered kernel methods and machine presets.
``bench``
    Time one method on one workload and print the counters.
``compare``
    Time several methods on one workload, normalized to a baseline.
``listing``
    Print the assembly listing of one kernel block.
``verify``
    Run a method functionally and check it against the NumPy reference.
``scaling``
    Strong-scaling sweep (the Figure 16 experiment, configurable).
``serve``
    Run the persistent warm-worker stencil service on a Unix socket.
``submit``
    Submit cells to a running service (or ping/stats/shutdown it).

Examples::

    python -m repro compare --stencil box2d25p --size 128x128
    python -m repro bench --method hstencil-prefetch --stencil box2d25p \
        --size 2048x2048 --machine lx2
    python -m repro listing --stencil star2d5p --method hstencil
    python -m repro verify --stencil star3d7p --size 4x16x32
    python -m repro scaling --cores 1,2,4,8 --size 1024
    python -m repro serve --socket /tmp/repro.sock --workers 4 &
    python -m repro submit --socket /tmp/repro.sock --lane interactive \
        --methods hstencil,auto --stencils star2d5p --size 64x64
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.bench.report import bench_json_payload, write_bench_json
from repro.bench.runner import ExperimentRunner
from repro.core.hstencil import HStencil
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.config import LX2, M4, MachineConfig
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel
from repro.stencils.grid import Grid2D
from repro.stencils.library import BENCHMARKS, benchmark


def _machine(name: str) -> MachineConfig:
    name = name.lower()
    if name == "lx2":
        return LX2()
    if name == "m4":
        return M4()
    raise SystemExit(f"unknown machine {name!r} (use lx2 or m4)")


def _shape(text: str, ndim: int) -> Tuple[int, ...]:
    parts = tuple(int(p) for p in text.lower().split("x"))
    if len(parts) == 1:
        parts = parts * ndim
    if len(parts) != ndim:
        raise SystemExit(f"size {text!r} does not match a {ndim}D stencil")
    return parts


def _options(args) -> KernelOptions:
    opts = KernelOptions()
    if getattr(args, "unroll", None):
        opts = opts.with_(unroll_j=args.unroll)
    return opts


def _dir_arg(args, name: str) -> Optional[str]:
    value = getattr(args, name, None)
    if value is not None:
        path = pathlib.Path(value)
        if path.exists() and not path.is_dir():
            flag = "--" + name.replace("_", "-")
            raise SystemExit(f"{flag} {value!r} exists and is not a directory")
    return value


def _runner(args) -> ExperimentRunner:
    return ExperimentRunner(
        _machine(args.machine),
        _options(args),
        cache_dir=_dir_arg(args, "cache_dir"),
        engine=getattr(args, "engine", None),
        steady=getattr(args, "steady", None),
        sample=getattr(args, "sample", None),
        artifact_dir=_dir_arg(args, "artifact_dir"),
    )


def _write_json(args, experiment: str, runner, extra=None) -> None:
    """Emit the BENCH_*.json artifact when ``--json`` was given."""
    if not getattr(args, "json", None):
        return
    target = pathlib.Path(args.json)
    if target.suffix == ".json":
        payload = bench_json_payload(experiment, runner=runner, extra=extra)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        path = target
    else:
        path = write_bench_json(target, experiment, runner=runner, extra=extra)
    print(f"wrote {path}")


def cmd_methods(_args) -> int:
    print("methods:")
    for name in METHODS:
        print(f"  {name}")
    print("\nstencils:")
    for name in BENCHMARKS:
        spec = benchmark(name)
        print(f"  {name:12s} {spec.pattern:4s} {spec.ndim}D r={spec.radius}")
    print("\nmachines: lx2, m4")
    return 0


def cmd_bench(args) -> int:
    spec = benchmark(args.stencil)
    shape = _shape(args.size, spec.ndim)
    runner = _runner(args)
    pc = runner.measure(args.method, args.stencil, shape).counters
    line_bytes = runner.machine.l1.line_bytes
    print(pc.summary())
    print(
        f"  IPC {pc.ipc:.2f} | {pc.cycles_per_point:.3f} cyc/pt | "
        f"L1 demand {pc.l1_demand_hit_rate * 100:.1f}% | "
        f"DRAM {pc.dram_bytes(line_bytes) / max(pc.points, 1):.1f} B/pt | "
        f"{pc.gstencil_per_s(runner.machine.clock_ghz):.2f} GStencil/s"
    )
    _write_json(args, "bench", runner)
    return 0


def cmd_compare(args) -> int:
    spec = benchmark(args.stencil)
    shape = _shape(args.size, spec.ndim)
    runner = _runner(args)
    methods = args.methods.split(",") if args.methods else [
        "auto",
        "vector-only",
        "matrix-only",
        "hstencil",
    ]
    sweep_methods = list(dict.fromkeys(methods + [args.baseline]))
    results = {
        r.method: r
        for r in runner.measure_many(
            [(m, args.stencil, shape) for m in sweep_methods],
            jobs=args.jobs,
            progress=args.jobs > 1,
        )
    }
    base_result = results[args.baseline]
    if not base_result.ok:
        raise SystemExit(
            f"baseline method {args.baseline!r} failed on "
            f"{args.stencil} {args.size}: {base_result.error}"
        )
    base = runner.measure(args.baseline, args.stencil, shape)
    print(f"{args.stencil} {args.size} on {args.machine.upper()}, vs {args.baseline}:")
    speedups = {}
    for method in methods:
        if not results[method].ok:
            print(f"  {method:20s} skipped ({results[method].error})")
            continue
        cell = runner.measure(method, args.stencil, shape)
        speedups[method] = cell.speedup_over(base)
        print(
            f"  {method:20s} {cell.speedup_over(base):5.2f}x  "
            f"(IPC {cell.counters.ipc:4.2f}, "
            f"{cell.counters.cycles_per_point:5.2f} cyc/pt)"
        )
    _write_json(
        args,
        "compare",
        runner,
        extra={"baseline": args.baseline, "speedups": speedups},
    )
    return 0


def cmd_listing(args) -> int:
    spec = benchmark(args.stencil)
    shape = _shape(args.size, spec.ndim)
    hs = HStencil(spec, _machine(args.machine), args.method, _options(args))
    print(hs.listing(*shape, block_index=args.block))
    return 0


def cmd_verify(args) -> int:
    from repro.machine.functional import FunctionalEngine
    from repro.stencils.grid import Grid3D
    from repro.stencils.reference import apply_reference

    spec = benchmark(args.stencil)
    shape = _shape(args.size, spec.ndim)
    mem = MemorySpace()
    r = spec.radius
    if spec.ndim == 2:
        src = Grid2D(mem, *shape, r, "A", fill="random", seed=args.seed)
        dst = Grid2D(mem, *shape, r, "B")
    else:
        src = Grid3D(mem, *shape, r, "A", fill="random", seed=args.seed)
        dst = Grid3D(mem, *shape, r, "B")
    kernel = make_kernel(args.method, spec, src, dst, _machine(args.machine), _options(args))
    engine = FunctionalEngine(mem)
    # Explicit --engine wins; None defers to REPRO_ENGINE, then "compiled".
    engine.run_kernel(kernel, engine=args.engine)
    got = dst.get_interior()
    ref = apply_reference(src.get_full(), spec)
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    err = float(np.max(np.abs(got - ref))) / scale
    status = "OK" if err < 1e-11 else "MISMATCH"
    print(
        f"{status}: {args.method} on {args.stencil} {args.size} — "
        f"max relative error {err:.3e} "
        f"({engine.instructions_executed} instructions executed)"
    )
    return 0 if err < 1e-11 else 1


def cmd_scaling(args) -> int:
    spec = benchmark(args.stencil)
    if spec.ndim != 2:
        raise SystemExit("scaling supports 2D stencils")
    n = int(args.size)
    machine = _machine(args.machine)
    cores = [int(c) for c in args.cores.split(",")]
    for c in cores:
        if n // c <= 0:
            raise SystemExit(f"{c} cores leave no rows per core at size {n}")

    # Distinct slice heights (plus the 1-core serial reference) measured
    # through the experiment engine: cached, and parallel under --jobs.
    runner = _runner(args)
    heights = sorted({n // c for c in cores} | {n})
    results = runner.measure_many(
        [(args.method, args.stencil, (rows, n)) for rows in heights],
        jobs=args.jobs,
        progress=args.jobs > 1,
    )
    failed = [r for r in results if not r.ok]
    if failed:
        raise SystemExit(
            "scaling slices failed: "
            + "; ".join(f"{r.shape[0]} rows: {r.error}" for r in failed)
        )
    slices = {r.shape[0]: r.counters for r in results}

    # Same --engine (or REPRO_ENGINE) selection as the slice measurements
    # above, so a compiled-vs-reference A/B governs the whole sweep rather
    # than silently reverting to the default here.
    mc = MulticoreModel(
        machine,
        engine=args.engine,
        steady=getattr(args, "steady", None),
        artifact_dir=_dir_arg(args, "artifact_dir"),
    )
    points = mc.series_from_slices(slices, n, cores)
    print(f"{args.method} on {args.stencil} {n}x{n} ({machine.name}):")
    for p in points:
        note = " (bandwidth-bound)" if p.bandwidth_bound else ""
        if p.remainder_rows:
            note += f" ({p.remainder_rows} remainder rows unassigned)"
        print(
            f"  {p.cores:3d} cores: {p.gstencil_per_s:7.2f} GStencil/s  "
            f"{p.speedup_vs_serial:6.2f}x vs serial{note}"
        )
    _write_json(
        args,
        "scaling",
        runner,
        extra={
            "scaling": [
                {
                    "cores": p.cores,
                    "cycles": p.cycles,
                    "points": p.points,
                    "gstencil_per_s": p.gstencil_per_s,
                    "speedup_vs_serial": p.speedup_vs_serial,
                    "bandwidth_bound": p.bandwidth_bound,
                    "remainder_rows": p.remainder_rows,
                }
                for p in points
            ]
        },
    )
    return 0


def cmd_precompile(args) -> int:
    from repro.machine.artifacts import ArtifactStore
    from repro.stencils.library import SUITE_2D

    artifact_dir = _dir_arg(args, "artifact_dir") or os.environ.get("REPRO_ARTIFACTS")
    if not artifact_dir:
        raise SystemExit("precompile needs --artifact-dir (or REPRO_ARTIFACTS)")
    machines = [m.strip() for m in args.machines.split(",") if m.strip()]
    methods = args.methods.split(",") if args.methods else list(METHODS)
    stencils = args.stencils.split(",") if args.stencils else list(SUITE_2D)
    cells = []
    for stencil in stencils:
        spec = benchmark(stencil)
        shape = _shape(args.size, spec.ndim)
        cells.extend((method, stencil, shape) for method in methods)

    runner = None
    for machine_name in machines:
        runner = ExperimentRunner(
            _machine(machine_name),
            _options(args),
            cache_dir=_dir_arg(args, "cache_dir"),
            engine=getattr(args, "engine", None),
            steady=getattr(args, "steady", None),
            sample=getattr(args, "sample", None),
            artifact_dir=artifact_dir,
        )
        results = runner.precompile(cells, jobs=args.jobs, progress=args.jobs > 1)
        built = [r for r in results if r.ok]
        skipped = [r for r in results if not r.ok]
        for r in skipped:
            # Inapplicable method/stencil/machine combinations raise
            # ValueError, which is expected registry behaviour; anything
            # else is a real failure worth surfacing.
            if not (r.error or "").startswith("ValueError"):
                print(f"  {machine_name}: {r.method}/{r.stencil} failed: {r.error}")
        classes = sum((r.info or {}).get("classes", 0) for r in built)
        compiled = sum((r.info or {}).get("compiled", 0) for r in built)
        loaded = sum((r.info or {}).get("loaded", 0) for r in built)
        print(
            f"{machine_name}: {len(built)} cells precompiled — {classes} shape "
            f"classes ({compiled} compiled live, {loaded} loaded from store), "
            f"{len(skipped)} cells inapplicable"
        )
    if args.stats and runner is not None:
        payload = runner.artifact_stats()
        # Worker processes keep their own in-memory counters, so always
        # include the on-disk truth alongside this process's view.
        payload["disk"] = ArtifactStore(artifact_dir).disk_stats()
        print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import StencilService
    from repro.service.protocol import ServiceServer

    service = StencilService(
        workers=args.workers,
        cache_dir=_dir_arg(args, "cache_dir") or os.environ.get("REPRO_BENCH_CACHE"),
        artifact_dir=_dir_arg(args, "artifact_dir") or os.environ.get("REPRO_ARTIFACTS"),
        engine=getattr(args, "engine", None),
        steady=getattr(args, "steady", None),
        sample=getattr(args, "sample", None),
    )

    async def main_async() -> None:
        async with service:
            server = ServiceServer(service, args.socket)
            await server.start()
            print(
                f"serving on {args.socket} with {service.workers} warm workers "
                "(submit with `repro submit`, stop with Ctrl-C or "
                "`repro submit --shutdown`)"
            )
            await server.serve_forever()

    try:
        asyncio.run(main_async())
    except KeyboardInterrupt:
        service.terminate()
        print(file=sys.stderr)
    c = service.counters
    print(
        f"served {c['jobs']} jobs / {c['cells']} cells — "
        f"{c['simulated']} simulated, {c['disk_hits']} disk hits, "
        f"{c['memo_hits'] + c['coalesced_inflight']} coalesced, "
        f"{c['errors']} errors, {c['crashes']} worker crashes"
    )
    return 0


def cmd_submit(args) -> int:
    from repro.service.protocol import ServiceClient

    client = ServiceClient(args.socket, timeout=args.timeout)
    if args.ping:
        print(json.dumps(client.ping(), sort_keys=True))
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=1, sort_keys=True))
        return 0
    if args.shutdown:
        client.shutdown()
        print("service asked to shut down")
        return 0

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    stencils = [s.strip() for s in args.stencils.split(",") if s.strip()]
    cells = []
    for stencil in stencils:
        spec = benchmark(stencil)
        shape = _shape(args.size, spec.ndim)
        cells.extend((method, stencil, shape) for method in methods)

    done = 0

    def on_event(event) -> None:
        nonlocal done
        if event.get("event") == "cell" and args.progress:
            done += 1
            print(f"\r[submit] {done}/{len(cells)} cells", end="", file=sys.stderr, flush=True)

    out = client.submit(
        cells,
        lane=args.lane,
        machine=args.machine,
        iters=args.iters,
        on_event=on_event,
    )
    if args.progress:
        print(file=sys.stderr)
    failures = 0
    for record in out["records"]:
        name = f"{record['method']}/{record['stencil']}"
        if record.get("error"):
            failures += 1
            print(f"  {name:32s} FAILED ({record['error']})")
            continue
        derived = record.get("derived", {})
        print(
            f"  {name:32s} {record['source']:9s} "
            f"{derived.get('cycles_per_point', 0.0):7.2f} cyc/pt  "
            f"{derived.get('gstencil_per_s', 0.0):6.2f} GStencil/s  "
            f"({record['seconds']:.3f}s)"
        )
    summary = out["summary"]
    print(
        f"job {out['job']} ({summary['lane']}): {summary['completed']} cells in "
        f"{summary['seconds']:.2f}s, {summary['errors']} errors"
    )
    if args.json:
        target = pathlib.Path(args.json)
        if target.suffix != ".json":
            target = target / "BENCH_service_submit.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(
                {"experiment": "service_submit", "summary": summary, "records": out["records"]},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {target}")
    return 1 if failures else 0


def cmd_cache(args) -> int:
    from repro.bench.cache import MeasurementCache
    from repro.machine.artifacts import ArtifactStore

    cache_dir = _dir_arg(args, "cache_dir") or os.environ.get("REPRO_BENCH_CACHE")
    artifact_dir = _dir_arg(args, "artifact_dir") or os.environ.get("REPRO_ARTIFACTS")
    if not cache_dir and not artifact_dir:
        raise SystemExit(
            "cache needs --cache-dir and/or --artifact-dir "
            "(or the REPRO_BENCH_CACHE / REPRO_ARTIFACTS env vars)"
        )
    payload = {}
    if args.action == "stats":
        if cache_dir:
            payload["measurements"] = MeasurementCache(cache_dir).disk_stats()
        if artifact_dir:
            payload["artifacts"] = ArtifactStore(artifact_dir).disk_stats()
    else:  # prune
        if args.max_age_days is None and args.max_bytes is None:
            raise SystemExit("prune needs --max-age-days and/or --max-bytes")
        if cache_dir:
            payload["measurements"] = MeasurementCache(cache_dir).prune(
                max_age_days=args.max_age_days, max_bytes=args.max_bytes
            )
        if artifact_dir:
            payload["artifacts"] = ArtifactStore(artifact_dir).prune(
                max_age_days=args.max_age_days, max_bytes=args.max_bytes
            )
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HStencil reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods", help="list methods, stencils and machines")

    def common(p, default_size="128x128"):
        p.add_argument("--stencil", default="star2d9p", help="stencil name")
        p.add_argument("--size", default=default_size, help="interior size, e.g. 128x128")
        p.add_argument("--machine", default="lx2", help="lx2 or m4")
        p.add_argument("--unroll", type=int, default=None, help="tile unroll factor")

    def engine(p):
        p.add_argument(
            "--cache-dir",
            default=None,
            help="content-addressed measurement cache directory (reused across runs)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent cells (1 = serial)",
        )
        p.add_argument(
            "--json",
            default=None,
            metavar="PATH",
            help="write a BENCH_*.json artifact (file, or directory for the default name)",
        )
        p.add_argument(
            "--steady",
            choices=["on", "off"],
            default=None,
            help="band-periodic steady-state elision on full runs "
            "(default: REPRO_STEADY env var, then on; bit-identical either way)",
        )
        p.add_argument(
            "--sample",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="force band-sampled (--sample) or full exact (--no-sample) "
            "timing for every cell (default: automatic by grid size)",
        )
        p.add_argument(
            "--artifact-dir",
            default=None,
            help="compiled-artifact store directory (templates, lowered "
            "programs, columnar plans; default: REPRO_ARTIFACTS env var)",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="profile the run with cProfile; writes .pstats + a top-20 table "
            "next to the --json report (or into the working directory)",
        )
        _engine_arg(p)

    def _engine_arg(p):
        p.add_argument(
            "--engine",
            choices=["compiled", "reference"],
            default=None,
            help="simulation engine (default: REPRO_ENGINE env var, then compiled)",
        )

    p = sub.add_parser("bench", help="time one method")
    common(p)
    engine(p)
    p.add_argument("--method", default="hstencil")

    p = sub.add_parser("compare", help="compare methods vs a baseline")
    common(p)
    engine(p)
    p.add_argument("--methods", default=None, help="comma-separated method list")
    p.add_argument("--baseline", default="auto")

    p = sub.add_parser("listing", help="print one block's assembly")
    common(p, default_size="32x32")
    p.add_argument("--method", default="hstencil")
    p.add_argument("--block", type=int, default=0)

    p = sub.add_parser("verify", help="functional check vs NumPy reference")
    common(p, default_size="16x32")
    _engine_arg(p)
    p.add_argument("--method", default="hstencil")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scaling", help="strong-scaling sweep (Figure 16)")
    common(p, default_size="1024")
    engine(p)
    p.add_argument("--method", default="hstencil-prefetch")
    p.add_argument("--cores", default="1,2,4,8")

    p = sub.add_parser("precompile", help="pre-build the compiled-artifact store")
    engine(p)
    p.add_argument("--machines", default="lx2,m4", help="comma-separated machine list")
    p.add_argument("--methods", default=None, help="comma-separated (default: full registry)")
    p.add_argument("--stencils", default=None, help="comma-separated (default: 2D suite)")
    p.add_argument("--size", default="128x128", help="interior size per stencil")
    p.add_argument("--unroll", type=int, default=None, help="tile unroll factor")
    p.add_argument("--stats", action="store_true", help="print pool/store counters")

    p = sub.add_parser("serve", help="run the warm-worker stencil service")
    p.add_argument("--socket", required=True, help="Unix socket path to listen on")
    p.add_argument(
        "--workers", type=int, default=None,
        help="persistent worker processes (default: cores - 1)",
    )
    p.add_argument("--cache-dir", default=None, help="measurement cache directory (default: REPRO_BENCH_CACHE)")
    p.add_argument(
        "--artifact-dir", default=None,
        help="compiled-artifact store directory (default: REPRO_ARTIFACTS)",
    )
    p.add_argument(
        "--steady", choices=["on", "off"], default=None,
        help="band-periodic steady-state elision on full runs "
        "(default: REPRO_STEADY env var, then on)",
    )
    p.add_argument(
        "--sample", action=argparse.BooleanOptionalAction, default=None,
        help="force band-sampled (--sample) or full exact (--no-sample) timing",
    )
    _engine_arg(p)

    p = sub.add_parser("submit", help="submit cells to a running service")
    p.add_argument("--socket", required=True, help="Unix socket of a `repro serve` process")
    p.add_argument("--lane", choices=["interactive", "batch"], default="interactive")
    p.add_argument("--methods", default="hstencil", help="comma-separated method list")
    p.add_argument("--stencils", default="star2d9p", help="comma-separated stencil list")
    p.add_argument("--size", default="128x128", help="interior size, e.g. 128x128")
    p.add_argument("--machine", default="lx2", help="lx2 or m4")
    p.add_argument("--iters", type=int, default=1, help="timed passes per cell")
    p.add_argument("--timeout", type=float, default=None, help="socket timeout in seconds")
    p.add_argument("--progress", action="store_true", help="stream per-cell progress to stderr")
    p.add_argument("--json", default=None, metavar="PATH", help="write the streamed records as JSON")
    p.add_argument("--ping", action="store_true", help="just ping the service")
    p.add_argument("--stats", action="store_true", help="print service counters and exit")
    p.add_argument("--shutdown", action="store_true", help="ask the service to shut down")

    p = sub.add_parser("cache", help="inspect or prune the on-disk caches")
    p.add_argument("action", choices=["stats", "prune"])
    p.add_argument("--cache-dir", default=None, help="measurement cache directory")
    p.add_argument("--artifact-dir", default=None, help="compiled-artifact store directory")
    p.add_argument("--max-age-days", type=float, default=None, help="prune entries older than this")
    p.add_argument("--max-bytes", type=int, default=None, help="prune oldest entries above this total size")

    return parser


def _profile_base(args) -> pathlib.Path:
    """Where profile artifacts go: next to the --json report when given."""
    target = getattr(args, "json", None)
    if target:
        path = pathlib.Path(target)
        if path.suffix == ".json":
            return path.with_suffix("")
        return path / f"BENCH_{args.command}"
    return pathlib.Path(f"repro-{args.command}")


def _profiled(handler, args) -> int:
    """Run ``handler`` under cProfile; write the dump and a top-20 table."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    rc = profiler.runcall(handler, args)
    base = _profile_base(args)
    base.parent.mkdir(parents=True, exist_ok=True)
    pstats_path = base.with_name(base.name + ".pstats")
    table_path = base.with_name(base.name + ".profile.txt")
    profiler.dump_stats(str(pstats_path))
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(20)
    table_path.write_text(buffer.getvalue())
    print(f"wrote {pstats_path} and {table_path}")
    _print_compile_stats()
    return rc


def _print_compile_stats() -> None:
    """Compile-layer counters appended to every --profile run."""
    from repro.kernels.template import compile_stats
    from repro.machine.artifacts import active_store
    from repro.machine.compiled import program_pool_stats

    pool = program_pool_stats()
    print(
        "program pool: "
        f"{pool['hits']} hits / {pool['misses']} misses / {pool['builds']} builds "
        f"({pool['build_seconds']:.3f}s), {pool['evictions']} evictions, "
        f"store {pool['store_hits']} hits / {pool['store_writes']} writes"
    )
    tmpl = compile_stats()
    print(
        "templates: "
        f"{tmpl['compiled_classes']} compiled ({tmpl['fit_seconds']:.3f}s fit, "
        f"{tmpl['probe_emits']} probe emits), "
        f"{tmpl['loaded_classes']} loaded ({tmpl['verify_seconds']:.3f}s verify), "
        f"{tmpl['load_demotions']} demoted on load"
    )
    store = active_store()
    if store is not None:
        s = store.stats()
        print(
            "artifact store: "
            f"{s['hits']} hits / {s['misses']} misses / {s['stores']} stores "
            f"({s['root']})"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "methods": cmd_methods,
        "bench": cmd_bench,
        "compare": cmd_compare,
        "listing": cmd_listing,
        "verify": cmd_verify,
        "scaling": cmd_scaling,
        "precompile": cmd_precompile,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "cache": cmd_cache,
    }[args.command]
    if getattr(args, "profile", False):
        return _profiled(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
