"""Round-trip and safety tests for the artifact store.

The store persists steady-state period records
(:func:`repro.machine.steady.steady_record_key`) and nothing else.  These
tests enforce that an active store changes no counter or grid anywhere in
the method registry, that a fresh process reads nothing compiled from it,
that anything wrong with a stored record (truncation, version skew,
tampering, a hand edit) degrades to live detection rather than to wrong
answers, and that kinds written by earlier versions stay manageable.
Shape classes are shared within one process only
(``tests/test_class_reuse.py``); the in-process adoption paths they take
are checked here too.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.isa.instructions import FMLA, FMOPA, LD1D, ST1D_SLICE
from repro.isa.registers import TileReg, VReg
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.kernels.template import TraceCompiler, compile_stats, reset_compile_stats
from repro.machine import artifacts
from repro.machine import compiled as compiled_mod
from repro.machine.artifacts import (
    ArtifactStore,
    active_store,
    install_artifact_store,
)
from repro.machine.compiled import (
    ProgramPool,
    clear_program_pool,
    program_pool_stats,
)
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.timing import SimMode, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from repro.stencils.reference import apply_reference

MACHINES = {"LX2": LX2, "M4": M4}


@pytest.fixture(autouse=True)
def _isolated_store(monkeypatch):
    """Keep the process-wide store and pools from leaking across tests."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    yield
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()


def _build(method, machine_name, stencil="star2d9p", rows=32, cols=32):
    """Kernel + memory space; None if the method rejects this machine."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=7)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    try:
        kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    except ValueError:
        return None
    return kernel, config, mem, dst


def _timing_run(method, machine_name, store_dir, **build_kw):
    """Fresh pools + (optional) store, one timing run; counter dict or None."""
    install_artifact_store(str(store_dir) if store_dir is not None else None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    built = _build(method, machine_name, **build_kw)
    if built is None:
        return None
    kernel, config, _, _ = built
    return TimingEngine(config, SimMode(engine="compiled")).run(kernel, sample=False, warm=True).to_dict()


#: The LX2 cell on which hstencil engages steady elision
#: (``ENGAGE_GRIDS`` in ``tests/test_steady_timing.py``).
ENGAGE = {"stencil": "box2d25p", "rows": 515, "cols": 512}


def _steady_run(store_dir):
    """One exact run of the engaging cell; ``(counters, SteadyStats)``."""
    install_artifact_store(str(store_dir) if store_dir is not None else None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    kernel, config, _, _ = _build("hstencil", "LX2", **ENGAGE)
    engine = TimingEngine(config, SimMode(engine="compiled"))
    counters = engine.run(kernel, sample=False, warm=False).to_dict()
    return counters, engine.steady_stats


# -- round-trip bit identity --------------------------------------------------


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_timing_round_trip_bit_identical(method, machine_name, tmp_path):
    """An active store changes no counter, and a fresh process fits live."""
    live = _timing_run(method, machine_name, None)
    if live is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    cold = _timing_run(method, machine_name, tmp_path)
    cold_stats, cold_pool = compile_stats(), program_pool_stats()
    warm = _timing_run(method, machine_name, tmp_path)
    warm_stats, warm_pool = compile_stats(), program_pool_stats()
    assert cold == live
    assert warm == live
    # Nothing compiled crosses the process boundary: the warm process
    # fits and lowers exactly what the cold one did.
    for key in ("compiled_classes", "loaded_classes", "load_demotions", "probe_emits"):
        assert warm_stats[key] == cold_stats[key], key
    assert warm_stats["compiled_classes"] >= 1
    assert warm_pool["builds"] == cold_pool["builds"] >= 1
    assert set(os.listdir(tmp_path)) <= {"steady"}


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", ["hstencil", "vector-only"])
def test_functional_round_trip_bit_identical(method, machine_name, tmp_path):
    grids = {}
    builds = {}
    for phase, store_dir in [("live", None), ("cold", tmp_path), ("warm", tmp_path)]:
        install_artifact_store(str(store_dir) if store_dir is not None else None)
        clear_program_pool(reset_stats=True)
        reset_compile_stats()
        built = _build(method, machine_name)
        if built is None:
            pytest.skip(f"{method} not applicable on {machine_name}")
        kernel, _, mem, dst = built
        fe = FunctionalEngine(mem)
        fe.run_kernel(kernel, engine="compiled")
        grids[phase] = (dst.get_full().copy(), fe.instructions_executed)
        builds[phase] = program_pool_stats()["functional_builds"]
    assert np.array_equal(grids["cold"][0], grids["live"][0])
    assert np.array_equal(grids["warm"][0], grids["live"][0])
    assert grids["cold"][1] == grids["live"][1] == grids["warm"][1]
    # Every process lowers its functional programs live.
    assert builds["warm"] == builds["cold"] == builds["live"] >= 1
    assert os.listdir(tmp_path) == []


def test_signature_digest_pinned():
    """Steady records carry signature digests taken by this function.

    A change to a register key, a repr or the signature layout would leave
    every stored record silently cold; this literal was recorded before
    the dependence keys were tabulated.
    """
    trace = [
        LD1D(VReg(0), 128),
        LD1D(VReg(1), 136, mask=5),
        FMLA(VReg(2), VReg(0), VReg(24)),
        FMOPA(TileReg(3), VReg(25), VReg(1), rows=(6, 1, 3, 1), useful_cols=(0, 7)),
        ST1D_SLICE(TileReg(3), 6, 4096, mask=7),
    ]
    digest = artifacts.signature_digest(compiled_mod.trace_signature(trace))
    assert digest == "4dd0bfa4c025bd7d65110ea4d0c2e9bb"


# -- corruption / skew / tampering -------------------------------------------


def _artifact_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files if f.endswith(".json"))
    return sorted(out)


def test_truncated_artifacts_fall_back_to_live_build(tmp_path):
    live, _ = _steady_run(None)
    _, cold_stats = _steady_run(tmp_path)
    assert cold_stats.engaged >= 1
    files = _artifact_files(tmp_path)
    assert files
    for path in files:
        with open(path, "w") as fh:
            fh.write("{")  # truncated JSON
    rebuilt, stats = _steady_run(tmp_path)
    assert rebuilt == live
    # The record was a miss: detection ran live and engaged again.
    assert not stats.record_mode and stats.detect_sigs > 0
    assert stats.engaged >= 1 and stats.demoted == 0
    assert active_store().stats()["invalid"] >= 1


def test_version_skew_misses_and_rebuilds(tmp_path, monkeypatch):
    live, _ = _steady_run(None)
    _steady_run(tmp_path)
    # A source change flips code_version, which participates in every
    # digest: stale entries are simply never looked up again.
    monkeypatch.setattr(artifacts, "code_version", lambda: "f" * 16)
    rebuilt, stats = _steady_run(tmp_path)
    assert rebuilt == live
    assert not stats.record_mode and stats.detect_sigs > 0
    store = active_store().stats()
    assert store["hits"] == 0 and store["misses"] >= 1
    assert len(_artifact_files(tmp_path)) == 2  # the stale record is left alone


def test_tampered_steady_record_demoted_on_load(tmp_path):
    """The verify window catches a record whose counter delta lies."""
    live, _ = _steady_run(None)
    _steady_run(tmp_path)
    (path,) = _artifact_files(tmp_path)
    with open(path) as fh:
        data = json.load(fh)
    record = data["data"]
    # Cycles and both issue counters move together, so the record still
    # decodes; only the live verify window can tell the delta is wrong.
    record["delta"]["core"][:3] = [v + 1 for v in record["delta"]["core"][:3]]
    # Re-seal through the store's own writer, as a writer with a wrong
    # record would: the checksum passes (an edit behind the store's back is
    # a checksum miss, see test_edited_artifact_is_invalid_and_rebuilt_live).
    digest = os.path.splitext(os.path.basename(path))[0]
    assert ArtifactStore(tmp_path).store("steady", digest, record, inputs=data["inputs"])
    rebuilt, stats = _steady_run(tmp_path)
    assert rebuilt == live  # the demoted pass finishes as an exact walk
    assert stats.record_mode
    assert stats.demoted >= 1 and stats.disabled == "verify-mismatch"
    assert stats.elided_bands == 0


def _swap_first(path, old, new):
    """Replace the first serialized ``old`` value in ``path`` by ``new``.

    Every other byte of the file stays as written, so only the payload
    checksum can tell the entry was edited.  A one-key dict stands for the
    ``"key": value`` member text inside an object.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if isinstance(old, dict):
        before, after = json.dumps(old)[1:-1].encode(), json.dumps(new)[1:-1].encode()
    else:
        before, after = json.dumps(old).encode(), json.dumps(new).encode()
    assert before in raw
    with open(path, "wb") as fh:
        fh.write(raw.replace(before, after, 1))


def _edit_steady_period(path, data):
    _swap_first(path, {"period": data["period"]}, {"period": data["period"] + data["align"]})


@pytest.mark.parametrize("kind, edit", [("steady", _edit_steady_period)], ids=["steady"])
def test_edited_artifact_is_invalid_and_rebuilt_live(kind, edit, tmp_path):
    """One edited number in a stored record is a checksum miss, never a
    silently wrong counter: the warm run equals the cold one."""
    cold, _ = _steady_run(tmp_path)
    path = next(p for p in _artifact_files(tmp_path) if f"{os.sep}{kind}{os.sep}" in p)
    with open(path) as fh:
        edit(path, json.load(fh)["data"])
    warm, stats = _steady_run(tmp_path)
    assert warm == cold
    assert not stats.record_mode and stats.detect_sigs > 0
    assert active_store().stats()["invalid"] >= 1


def test_edited_measurement_is_invalid_and_resimulated(tmp_path):
    from repro.bench.runner import ExperimentRunner

    cell = ("hstencil", "box2d9p", (64, 64))
    live = ExperimentRunner(LX2(), cache_dir=tmp_path).measure(*cell).counters.to_dict()
    (path,) = _artifact_files(tmp_path)
    _swap_first(path, {"cycles": live["cycles"]}, {"cycles": live["cycles"] + 1})
    runner = ExperimentRunner(LX2(), cache_dir=tmp_path)
    assert runner.measure(*cell).counters.to_dict() == live
    assert runner.provenance(*cell) == "simulated"
    assert runner.disk_cache.stats()["invalid"] >= 1


def test_stored_template_adopts_live_trace_off_key0():
    """A class first replayed at a block other than its resolved ``key0``
    is adopted (no live fit), and its model rebases every block exactly."""
    from repro.machine.compiled import trace_addresses

    kernel, config, _, _ = _build("hstencil", "LX2", stencil="box2d9p", rows=64, cols=64)
    nest = kernel.loop_nest()
    blocks = {b.key: b for b in nest.blocks}
    cls = ("M", ("L", 0))
    first = TraceCompiler(kernel, nest=nest, config=config)
    assert first._class_of((1, 0)) == cls
    first.lookup(blocks[(1, 0)])
    assert first._shared.classes[cls][0] == (1, 0)
    reset_compile_stats()
    kernel, config, _, _ = _build("hstencil", "LX2", stencil="box2d9p", rows=64, cols=64)
    nest = kernel.loop_nest()
    blocks = {b.key: b for b in nest.blocks}
    compiler = TraceCompiler(kernel, nest=nest, config=config)
    assert compiler._class_of((4, 0)) == cls
    template, addrs = compiler.lookup(blocks[(4, 0)])
    stats = compile_stats()
    assert stats["loaded_classes"] == 1 and stats["compiled_classes"] == 0
    assert stats["load_demotions"] == 0
    assert template.key0 == (4, 0)
    assert addrs == trace_addresses(kernel.emit(blocks[(4, 0)]))
    members = [b for key, b in blocks.items() if compiler._class_of(key) == cls]
    assert len(members) >= 3
    for block in members:
        expected = trace_addresses(kernel.emit(block))
        assert template.addrs_for(block.key) == expected
        assert compiler.lookup(block) == (template, expected)


def test_template_identity_pins_coefficient_table_bases():
    """A kernel whose coefficient tables moved never adopts a resolved class.

    The tables' addresses are embedded in the emitted loads, so a class
    resolved for one placement replays the wrong coefficients at another.
    The identity must pin them even when the grids have not moved.
    """
    spec = benchmark("box2d9p")
    config = LX2()
    counted = ("compiled_classes", "loaded_classes", "load_demotions")

    def run(pad_words):
        mem = MemorySpace()
        src = Grid2D(mem, 32, 32, spec.radius, "A", fill="random", seed=7)
        dst = Grid2D(mem, 32, 32, spec.radius, "B")
        if pad_words:
            mem.alloc(pad_words)
        kernel = make_kernel("matrix-only", spec, src, dst, config)
        before = compile_stats()
        FunctionalEngine(mem).run_kernel(kernel, engine="compiled")
        after = compile_stats()
        err = np.max(np.abs(dst.get_interior() - apply_reference(src.get_full(), spec)))
        return float(err), {k: after[k] - before[k] for k in counted}

    err, cold = run(0)
    assert err < 1e-9 and cold["compiled_classes"] >= 1
    err, warm = run(0)
    assert err < 1e-9
    assert warm["compiled_classes"] == 0 and warm["loaded_classes"] >= 1
    err, moved = run(4096)
    assert err < 1e-9
    assert moved["loaded_classes"] == 0
    assert moved["compiled_classes"] == cold["compiled_classes"]


# -- program pool ------------------------------------------------------------


def test_program_pool_lru_eviction(monkeypatch):
    monkeypatch.setattr(compiled_mod, "_POOL", ProgramPool(capacity=1))
    built = _build("hstencil", "LX2", stencil="box2d9p", rows=21, cols=27)
    kernel, config, _, _ = built
    TimingEngine(config, SimMode(engine="compiled")).run(kernel, sample=False, warm=True)
    stats = compiled_mod._POOL.stats()
    assert stats["capacity"] == 1
    assert stats["entries"] <= 1
    assert stats["builds"] >= 2  # several shape classes on an odd grid
    assert stats["evictions"] >= 1
    assert stats["evictions"] == stats["builds"] - stats["entries"]


def test_program_pool_counters():
    engine = TimingEngine(LX2(), SimMode(engine="compiled"))

    def run():
        kernel, _, _, _ = _build("hstencil", "LX2")
        engine.run(kernel, sample=False, warm=True)
        return program_pool_stats()

    cold = run()
    assert cold["builds"] >= 1
    assert cold["build_seconds"] > 0.0
    assert cold["hits"] >= 0 and cold["misses"] == cold["builds"]
    # A second kernel of the same identity on the same config adopts its
    # classes and finds every program in the pool.
    warm = run()
    assert warm["builds"] == cold["builds"] and warm["misses"] == cold["misses"]
    assert warm["hits"] - cold["hits"] >= cold["builds"]


# -- concurrent writers ------------------------------------------------------


def test_concurrent_cold_generation_races_cleanly(tmp_path):
    """Two processes recording the same steady period on a cold store both
    succeed via the atomic-write path, leaving exactly one entry."""
    import subprocess
    import sys

    store = tmp_path / "store"
    script = (
        "import sys, json; sys.path.insert(0, sys.argv[1])\n"
        "from repro.machine.artifacts import install_artifact_store\n"
        "install_artifact_store(sys.argv[2])\n"
        "from repro.kernels.base import KernelOptions\n"
        "from repro.kernels.registry import make_kernel\n"
        "from repro.machine.config import LX2\n"
        "from repro.machine.memory import MemorySpace\n"
        "from repro.machine.timing import SimMode, TimingEngine\n"
        "from repro.stencils.grid import Grid2D\n"
        "from repro.stencils.library import benchmark\n"
        "spec = benchmark(sys.argv[3]); config = LX2(); mem = MemorySpace()\n"
        "rows, cols = int(sys.argv[4]), int(sys.argv[5])\n"
        "src = Grid2D(mem, rows, cols, spec.radius, 'A', fill='random', seed=7)\n"
        "dst = Grid2D(mem, rows, cols, spec.radius, 'B')\n"
        "kernel = make_kernel('hstencil', spec, src, dst, config, KernelOptions(unroll_j=2))\n"
        "engine = TimingEngine(config, SimMode(engine='compiled'))\n"
        "pc = engine.run(kernel, sample=False, warm=False)\n"
        "print(json.dumps([pc.to_dict(), engine.steady_stats.to_dict()], sort_keys=True))\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ARTIFACTS"}
    cell = [ENGAGE["stencil"], str(ENGAGE["rows"]), str(ENGAGE["cols"])]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, src_dir, str(store), *cell],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=600) for p in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    (counters_a, stats_a), (counters_b, stats_b) = (json.loads(out) for out, _ in outs)
    # Both raced processes measured bit-identical counters and elided alike.
    assert counters_a == counters_b
    assert stats_a["engaged"] >= 1 and stats_a["elided_bands"] == stats_b["elided_bands"]
    # One entry (atomic replace, content-addressed path) that parses, and
    # no temp files leak.
    assert sorted(os.listdir(store)) == ["steady"]
    (path,) = _artifact_files(store)
    with open(path) as fh:
        json.load(fh)
    leftovers = [
        os.path.join(d, f)
        for d, _dirs, fs in os.walk(store)
        for f in fs
        if not f.endswith(".json")
    ]
    assert leftovers == []
    # A warm process after the race serves the record: no detection.
    warm, stats = _steady_run(store)
    assert warm == counters_a
    assert stats.record_mode and stats.detect_sigs == 0
    assert stats.engaged >= 1 and stats.demoted == 0


# -- store maintenance -------------------------------------------------------


def test_store_prune_by_age_and_size(tmp_path):
    _steady_run(tmp_path)
    store = ArtifactStore(tmp_path)
    assert store.store("scratch", "cd" * 32, {"note": "hand-written"})
    assert store.store("scratch", "ef" * 32, {"note": "hand-written"})
    scan = store.disk_stats()
    assert scan["entries"] == 3 and scan["bytes"] > 0
    assert scan["kinds"]["steady"]["entries"] == 1
    assert scan["kinds"]["scratch"]["entries"] == 2
    # Per-kind breakdown covers every entry and sums to the aggregate.
    assert sum(k["entries"] for k in scan["kinds"].values()) == scan["entries"]
    assert sum(k["bytes"] for k in scan["kinds"].values()) == scan["bytes"]
    # Age one file far into the past; an age prune removes exactly it.
    victim = _artifact_files(tmp_path)[0]
    old = time.time() - 10 * 86400
    os.utime(victim, (old, old))
    pruned = store.prune(max_age_days=5)
    assert pruned["removed"] == 1
    assert not os.path.exists(victim)
    assert sum(k["removed"] for k in pruned["kinds"].values()) == 1
    assert sum(k["kept"] for k in pruned["kinds"].values()) == pruned["kept"]
    # A zero-byte budget clears the rest, oldest first.
    pruned = store.prune(max_bytes=0)
    assert pruned["kept"] == 0
    assert all(k["kept"] == 0 for k in pruned["kinds"].values())
    assert store.disk_stats()["entries"] == 0


def test_store_creates_its_root(tmp_path):
    """Callers may place files in the root before any record is stored."""
    from repro.bench.runner import ExperimentRunner

    root = tmp_path / "new"
    ExperimentRunner(LX2(), artifact_dir=root).precompile_cell("hstencil", "star2d9p", (64, 64))
    assert root.is_dir()
    assert active_store().stats()["store_errors"] == 0


def test_store_root_under_a_file_is_a_store_error(tmp_path):
    (tmp_path / "f").write_text("not a directory\n")
    store = ArtifactStore(tmp_path / "f" / "store")
    assert store.stats()["store_errors"] == 1
    assert not store.store("steady", "ab" * 32, {"period": 8})
    assert store.stats()["store_errors"] == 2
    assert store.load("steady", "ab" * 32) is None


# -- precompile --------------------------------------------------------------


def test_precompile_then_warm_sweep():
    """After an in-process warm-up, a measure of the cell fits nothing."""
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2())
    info = runner.precompile_cell("hstencil", "star2d9p", (32, 32))
    assert info["classes"] >= 1
    assert info["compiled"] >= 1 and info["loaded"] == 0
    before = compile_stats()
    runner.measure("hstencil", "star2d9p", (32, 32))
    after = compile_stats()
    assert after["compiled_classes"] == before["compiled_classes"]
    assert after["probe_emits"] == before["probe_emits"]
    assert after["loaded_classes"] - before["loaded_classes"] >= info["compiled"]
    assert after["load_demotions"] == before["load_demotions"]


def test_precompile_results_not_adopted_as_measurements():
    """A service warm-up job returns build summaries, never counters, and a
    later measure of the same cell is simulated, not served from its memo."""
    from repro.service import StencilService

    cell = ("hstencil", "star2d9p", (32, 32))

    async def main():
        async with StencilService(workers=1) as service:
            job = await service.submit([cell], machine="lx2", action="precompile")
            warmed = await job.results()
            job = await service.submit([cell], machine="lx2")
            return warmed, await job.results()

    (warmed,), (measured,) = asyncio.run(main())
    assert warmed.ok and warmed.source == "precompiled"
    assert warmed.counters is None
    assert warmed.info["classes"] >= 1
    assert measured.ok and measured.source == "simulated"
    assert measured.counters is not None


# -- CLI ---------------------------------------------------------------------


def _legacy_entries(kernel, config):
    """``(kind, digest)`` where earlier versions kept compiled artifacts.

    ``templates`` sat at the kernel's bundle digest; ``timing`` and
    ``functional`` at digests of one class's signature.
    """
    compiler = TraceCompiler(kernel, config=config)
    template, _ = compiler.lookup(next(iter(kernel.loop_nest().blocks)))
    meta = artifacts.artifact_meta()
    sig = artifacts.signature_digest(template.signature)
    machine = artifacts.machine_digest(config)
    return [
        ("templates", artifacts.artifact_digest(compiler._bundle_inputs)),
        ("timing", artifacts.artifact_digest(
            {"kind": "timing", "meta": meta, "machine": machine, "signature": sig})),
        ("functional", artifacts.artifact_digest(
            {"kind": "functional", "meta": meta, "signature": sig})),
        ("codegen", "ab" * 32),
    ]


def test_cli_precompile_and_cache(tmp_path, capsys):
    """Stores written by earlier versions hold compiled kinds.  Neither a
    warm-up nor a timing run reads them; ``cache stats`` lists them and
    ``cache prune`` removes them."""
    from repro.bench.runner import ExperimentRunner

    store_dir = tmp_path / "artifacts"
    live = _timing_run("hstencil", "LX2", None)
    kernel, config, _, _ = _build("hstencil", "LX2")
    writer = ArtifactStore(store_dir)
    legacy = _legacy_entries(kernel, config)
    for kind, digest in legacy:
        assert writer.store(kind, digest, {"classes": {}, "edge": 1, "steps": []})

    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    runner = ExperimentRunner(LX2(), artifact_dir=store_dir)
    info = runner.precompile_cell("hstencil", "star2d9p", (32, 32))
    assert info["compiled"] >= 1 and info["loaded"] == 0
    assert _timing_run("hstencil", "LX2", store_dir) == live
    assert active_store().stats()["hits"] == 0

    rc = main(["cache", "stats", "--artifact-dir", str(store_dir)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    kinds = payload["artifacts"]["kinds"]
    assert payload["artifacts"]["entries"] == len(legacy)
    for kind, _digest in legacy:
        assert kinds[kind]["entries"] == 1 and kinds[kind]["bytes"] > 0

    rc = main(["cache", "prune", "--artifact-dir", str(store_dir), "--max-bytes", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["artifacts"]["kept"] == 0
    for kind, _digest in legacy:
        assert payload["artifacts"]["kinds"][kind]["removed"] == 1
    assert ArtifactStore(store_dir).disk_stats()["entries"] == 0


def test_cli_cache_requires_a_directory(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "stats"])


# -- environment activation ---------------------------------------------------


def test_env_var_activates_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
    install_artifact_store(None)  # re-resolve from the environment
    store = active_store()
    assert store is not None and str(store.root) == str(tmp_path)
    # Same path resolves to the same store object (counters accumulate).
    assert active_store() is store
