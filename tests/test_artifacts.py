"""Round-trip and safety tests for the AOT compiled-artifact store.

The store promises that a warm process — templates, timing/functional
programs and columnar plans all deserialized from disk — produces counters
and grids bit-identical to a cold live build, and that anything wrong with
the on-disk state (truncation, version skew, tampering) degrades to the
live path rather than to wrong answers.  These tests enforce both halves
over the whole method registry on both machine presets, mirroring
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.isa.instructions import FMLA, FMOPA, LD1D, ST1D_SLICE
from repro.isa.registers import TileReg, VReg
from repro.kernels import template as template_mod
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


# -- round-trip bit identity --------------------------------------------------


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_timing_round_trip_bit_identical(method, machine_name, tmp_path):
    """serialize -> deserialize -> replay equals the live build exactly."""
    live = _timing_run(method, machine_name, None)
    if live is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    cold = _timing_run(method, machine_name, tmp_path)
    cold_stats = compile_stats()
    warm = _timing_run(method, machine_name, tmp_path)
    warm_stats = compile_stats()
    assert cold == live
    assert warm == live
    # The warm process must not have fitted anything live ...
    assert warm_stats["compiled_classes"] == 0
    assert warm_stats["fit_seconds"] == 0.0
    assert warm_stats["load_demotions"] == 0
    # ... every class the cold run compiled came back from the store.
    assert warm_stats["loaded_classes"] == cold_stats["compiled_classes"]
    pool = program_pool_stats()
    assert pool["builds"] == 0
    assert pool["store_hits"] >= 1


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", ["hstencil", "vector-only"])
def test_functional_round_trip_bit_identical(method, machine_name, tmp_path):
    grids = {}
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
    warm_pool = program_pool_stats()
    assert np.array_equal(grids["cold"][0], grids["live"][0])
    assert np.array_equal(grids["warm"][0], grids["live"][0])
    assert grids["cold"][1] == grids["live"][1] == grids["warm"][1]
    assert warm_pool["functional_builds"] == 0
    assert warm_pool["functional_store_hits"] >= 1


def test_signature_digest_pinned():
    """Every stored artifact is keyed by signature digests like this one.

    A change to a register key, a repr or the signature layout would leave
    every artifact store silently cold; this literal was recorded before
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
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    files = _artifact_files(tmp_path)
    assert files
    for path in files:
        with open(path, "w") as fh:
            fh.write("{")  # truncated JSON
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    assert rebuilt == live
    assert stats["compiled_classes"] >= 1  # everything was rebuilt live
    assert stats["load_demotions"] == 0
    store = active_store()
    assert store is not None and store.stats()["invalid"] >= 1


def test_version_skew_misses_and_rebuilds(tmp_path, monkeypatch):
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    # A source change flips code_version, which participates in every
    # digest: stale entries are simply never looked up again.
    monkeypatch.setattr(artifacts, "code_version", lambda: "f" * 16)
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    pool = program_pool_stats()
    assert rebuilt == live
    assert stats["loaded_classes"] == 0
    assert stats["compiled_classes"] >= 1
    assert pool["store_hits"] == 0 and pool["builds"] >= 1


def test_tampered_template_demoted_on_load(tmp_path):
    """The probe-on-load check catches a template whose address model lies."""
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    bundles = [
        p for p in _artifact_files(tmp_path) if f"{os.sep}templates{os.sep}" in p
    ]
    assert bundles
    store = ArtifactStore(tmp_path)
    tampered = 0
    for path in bundles:
        with open(path) as fh:
            data = json.load(fh)
        for entry in data["data"]["classes"].values():
            if not isinstance(entry, dict) or not entry["deltas"]:
                continue
            # Shift the representative key along a varying dimension: the
            # affine model now predicts every block's addresses wrongly,
            # while the signature digest still matches the live emit.
            dim = entry["deltas"][0][0]
            entry["key0"][dim] -= 1
            tampered += 1
        # Re-seal through the store's own writer, as a writer with a wrong
        # model would: the checksum passes, so only the live-emit check can
        # catch the lie (an edit behind the store's back is a checksum miss,
        # see test_edited_artifact_is_invalid_and_rebuilt_live).
        digest = os.path.splitext(os.path.basename(path))[0]
        assert store.store("templates", digest, data["data"], inputs=data["inputs"])
    assert tampered >= 1
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    assert rebuilt == live  # demoted classes replay through the live path
    assert stats["load_demotions"] >= 1


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


def _edit_template_delta(path, data):
    for entry in data["classes"].values():
        if isinstance(entry, dict) and entry["deltas"]:
            d, vals = entry["deltas"][0]
            _swap_first(path, [d, vals], [d, vals[:-1] + [vals[-1] + 8]])
            return


def _edit_timing_latency(path, data):
    step = data["steps"][0]
    _swap_first(path, step, step[:3] + [step[3] + 1] + step[4:])


def _edit_functional_load(path, data):
    from repro.machine.compiled import F_LD

    op = next(op for op in data["ops"] if op[0] == F_LD)
    _swap_first(path, op, [F_LD, op[1], (op[2] + 1) % data["n_addrs"]])


def _functional_run(store_dir):
    install_artifact_store(str(store_dir) if store_dir is not None else None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    kernel, _, mem, dst = _build("hstencil", "LX2", stencil="box2d9p", rows=64, cols=64)
    fe = FunctionalEngine(mem)
    fe.run_kernel(kernel, engine="compiled")
    return dst.get_full().tolist(), fe.instructions_executed


@pytest.mark.parametrize(
    "kind, method, edit",
    [
        ("templates", "matrix-only", _edit_template_delta),
        ("timing", "hstencil", _edit_timing_latency),
        ("functional", "hstencil", _edit_functional_load),
    ],
    ids=["templates", "timing", "functional"],
)
def test_edited_artifact_is_invalid_and_rebuilt_live(kind, method, edit, tmp_path):
    """One edited number in a stored artifact is a checksum miss, never a
    silently wrong counter: the warm run equals the live build."""
    if kind == "functional":
        run = _functional_run
    else:

        def run(store_dir):
            return _timing_run(method, "LX2", store_dir, stencil="box2d9p", rows=64, cols=64)

    live = run(None)
    assert run(tmp_path) == live
    path = next(p for p in _artifact_files(tmp_path) if f"{os.sep}{kind}{os.sep}" in p)
    with open(path) as fh:
        edit(path, json.load(fh)["data"])
    assert run(tmp_path) == live
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


def test_stored_template_adopts_live_trace_off_key0(tmp_path):
    """A class first replayed at a block other than its stored ``key0``
    loads (no live fit), and its model rebases every block exactly."""
    from repro.machine.compiled import trace_addresses

    _timing_run("hstencil", "LX2", tmp_path, stencil="box2d9p", rows=64, cols=64)
    for path in _artifact_files(tmp_path):
        if f"{os.sep}templates{os.sep}" in path:
            with open(path) as fh:
                entries = json.load(fh)["data"]["classes"].values()
            assert all("trace" not in e for e in entries if isinstance(e, dict))
    reset_compile_stats()
    kernel, config, _, _ = _build("hstencil", "LX2", stencil="box2d9p", rows=64, cols=64)
    nest = kernel.loop_nest()
    compiler = TraceCompiler(kernel, nest=nest, config=config)
    cls = ("M", ("L", 0))
    assert compiler._class_of((4, 0)) == cls
    assert compiler._stored_classes[repr(cls)]["key0"] == [1, 0]
    blocks = {b.key: b for b in nest.blocks}
    template, addrs = compiler.lookup(blocks[(4, 0)])
    stats = compile_stats()
    assert stats["loaded_classes"] == 1 and stats["compiled_classes"] == 0
    assert stats["load_demotions"] == 0
    assert addrs == trace_addresses(kernel.emit(blocks[(4, 0)]))
    members = [b for key, b in blocks.items() if compiler._class_of(key) == cls]
    assert len(members) >= 3
    for block in members:
        expected = trace_addresses(kernel.emit(block))
        assert template.addrs_for(block.key) == expected
        assert compiler.lookup(block) == (template, expected)


def test_template_identity_pins_coefficient_table_bases(tmp_path):
    """A kernel whose coefficient tables moved never adopts a stored template.

    The tables' addresses are embedded in the emitted loads, so a bundle
    stored for one placement replays the wrong coefficients at another.
    The identity must pin them even when the grids have not moved.
    """
    install_artifact_store(str(tmp_path))
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


def test_program_pool_counters(tmp_path):
    _timing_run("hstencil", "LX2", tmp_path)
    cold = program_pool_stats()
    assert cold["builds"] >= 1
    assert cold["store_writes"] == cold["builds"]
    assert cold["build_seconds"] > 0.0
    assert cold["hits"] >= 0 and cold["misses"] == cold["builds"]
    _timing_run("hstencil", "LX2", tmp_path)
    warm = program_pool_stats()
    assert warm["builds"] == 0
    assert warm["store_hits"] == cold["builds"]


# -- concurrent writers ------------------------------------------------------


def test_concurrent_cold_generation_races_cleanly(tmp_path):
    """Two processes compiling the same classes on a cold store both
    succeed via the atomic-write path, with exactly one entry per digest."""
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
        "spec = benchmark('star2d9p'); config = LX2(); mem = MemorySpace()\n"
        "src = Grid2D(mem, 33, 48, spec.radius, 'A', fill='random', seed=7)\n"
        "dst = Grid2D(mem, 33, 48, spec.radius, 'B')\n"
        "kernel = make_kernel('hstencil', spec, src, dst, config, KernelOptions(unroll_j=2))\n"
        "pc = TimingEngine(config, SimMode(engine='compiled')).run(kernel, sample=False, warm=True)\n"
        "print(json.dumps(pc.to_dict(), sort_keys=True))\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ARTIFACTS"}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, src_dir, str(store)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=600) for p in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    # Both raced processes measured bit-identical counters.
    assert outs[0][0] == outs[1][0]
    # Each kind holds exactly one entry per digest (atomic replace,
    # content-addressed paths), every entry parses, and no temp files leak.
    kinds = sorted(os.listdir(store))
    assert "templates" in kinds and "timing" in kinds
    for kind in kinds:
        files = _artifact_files(store / kind)
        assert files, kind
        digests = [os.path.splitext(os.path.basename(p))[0] for p in files]
        assert len(digests) == len(set(digests))
        for path in files:
            with open(path) as fh:
                json.load(fh)
    leftovers = [
        os.path.join(d, f)
        for d, _dirs, fs in os.walk(store)
        for f in fs
        if not f.endswith(".json")
    ]
    assert leftovers == []
    # A warm process after the race loads everything: nothing built live.
    warm = _timing_run("hstencil", "LX2", store, rows=33, cols=48)
    stats = compile_stats()
    pool = program_pool_stats()
    assert warm == json.loads(outs[0][0])
    assert stats["compiled_classes"] == 0 and stats["loaded_classes"] >= 1
    assert pool["builds"] == 0 and pool["store_hits"] >= 1


# -- store maintenance -------------------------------------------------------


def test_store_prune_by_age_and_size(tmp_path):
    _timing_run("hstencil", "LX2", tmp_path)
    store = ArtifactStore(tmp_path)
    scan = store.disk_stats()
    assert scan["entries"] >= 2 and scan["bytes"] > 0
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


# -- precompile --------------------------------------------------------------


def test_precompile_then_warm_sweep(tmp_path):
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    info = runner.precompile_cell("hstencil", "star2d9p", (32, 32))
    assert info["classes"] >= 1
    assert info["compiled"] >= 1 and info["loaded"] == 0
    # A fresh process (fresh pools, same store) measures without compiling.
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    warm_runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    warm_runner.measure("hstencil", "star2d9p", (32, 32))
    stats = compile_stats()
    assert stats["compiled_classes"] == 0
    assert stats["loaded_classes"] >= info["compiled"]
    surfaced = warm_runner.artifact_stats()
    assert surfaced["store"] is not None and surfaced["store"]["hits"] >= 1
    assert surfaced["program_pool"]["store_hits"] >= 1


def test_precompile_results_not_adopted_as_measurements(tmp_path):
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    results = runner.precompile([("hstencil", "star2d9p", (32, 32))])
    assert len(results) == 1 and results[0].ok
    assert results[0].source == "precompiled"
    assert results[0].counters is None
    assert results[0].info["classes"] >= 1


# -- CLI ---------------------------------------------------------------------


def test_cli_precompile_and_cache(tmp_path, capsys):
    store_dir = str(tmp_path / "artifacts")
    rc = main(
        [
            "precompile",
            "--artifact-dir",
            store_dir,
            "--machines",
            "lx2",
            "--methods",
            "hstencil",
            "--stencils",
            "star2d5p",
            "--size",
            "24x24",
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 cells precompiled" in out
    assert '"program_pool"' in out and '"disk"' in out
    scan = ArtifactStore(store_dir).disk_stats()
    assert scan["entries"] >= 2
    assert "codegen" not in scan["kinds"]

    # Stores written while the simulator still generated replay kernels
    # hold entries of kind "codegen"; maintenance must keep handling them.
    legacy = {"source": "def __kernel(pipe, addrs):\n    pass\n", "version": 2}
    assert ArtifactStore(store_dir).store("codegen", "ab" * 32, legacy)

    rc = main(["cache", "stats", "--artifact-dir", store_dir])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["artifacts"]["entries"] == scan["entries"] + 1
    # Per-kind reporting lists the legacy kind beside the live ones.
    kinds = payload["artifacts"]["kinds"]
    assert kinds["codegen"]["entries"] == 1 and kinds["codegen"]["bytes"] > 0
    assert "timing" in kinds and "templates" in kinds

    rc = main(["cache", "prune", "--artifact-dir", store_dir, "--max-bytes", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["artifacts"]["kept"] == 0
    assert payload["artifacts"]["kinds"]["codegen"]["removed"] == 1
    assert ArtifactStore(store_dir).disk_stats()["entries"] == 0


def test_cli_cache_requires_a_directory(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "stats"])


def test_cli_precompile_requires_store(monkeypatch):
    with pytest.raises(SystemExit):
        main(["precompile", "--machines", "lx2"])


# -- environment activation ---------------------------------------------------


def test_env_var_activates_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
    install_artifact_store(None)  # re-resolve from the environment
    store = active_store()
    assert store is not None and str(store.root) == str(tmp_path)
    # Same path resolves to the same store object (counters accumulate).
    assert active_store() is store
