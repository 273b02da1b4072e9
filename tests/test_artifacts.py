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
from repro.kernels import template as template_mod
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.kernels.template import TraceCompiler, compile_stats, reset_compile_stats
from repro.machine import artifacts
from repro.machine import compiled as compiled_mod
from repro.machine.artifacts import (
    ArtifactStore,
    active_store,
    decode_trace,
    encode_trace,
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
from repro.machine.timing import TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

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
    return TimingEngine(config, engine="compiled").run(kernel, sample=False, warm=True).to_dict()


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


def test_trace_codec_round_trip():
    """encode/decode reproduces the exact instruction objects."""
    built = _build("hstencil", "LX2")
    kernel, config, _, _ = built
    nest = kernel.loop_nest()
    block = next(iter(nest.blocks))
    trace = kernel.emit(block)
    payload = encode_trace(trace)
    assert payload is not None
    json.dumps(payload)  # must be JSON-serializable as-is
    back = decode_trace(payload)
    assert back == trace


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
    tampered = 0
    for path in bundles:
        with open(path) as fh:
            data = json.load(fh)
        for entry in data["data"]["classes"].values():
            if not isinstance(entry, dict) or not entry["deltas"]:
                continue
            # Shift the representative key along a varying dimension: the
            # affine model now rebases every block's addresses wrongly,
            # while the stored trace itself still decodes consistently.
            dim = entry["deltas"][0][0]
            entry["key0"][dim] -= 1
            tampered += 1
        with open(path, "w") as fh:
            json.dump(data, fh)
    assert tampered >= 1
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    assert rebuilt == live  # demoted classes replay through the live path
    assert stats["load_demotions"] >= 1


# -- program pool ------------------------------------------------------------


def test_program_pool_lru_eviction(monkeypatch):
    monkeypatch.setattr(compiled_mod, "_POOL", ProgramPool(capacity=1))
    built = _build("hstencil", "LX2", stencil="box2d9p", rows=21, cols=27)
    kernel, config, _, _ = built
    TimingEngine(config, engine="compiled").run(kernel, sample=False, warm=True)
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
        "from repro.machine.timing import TimingEngine\n"
        "from repro.stencils.grid import Grid2D\n"
        "from repro.stencils.library import benchmark\n"
        "spec = benchmark('star2d9p'); config = LX2(); mem = MemorySpace()\n"
        "src = Grid2D(mem, 33, 48, spec.radius, 'A', fill='random', seed=7)\n"
        "dst = Grid2D(mem, 33, 48, spec.radius, 'B')\n"
        "kernel = make_kernel('hstencil', spec, src, dst, config, KernelOptions(unroll_j=2))\n"
        "pc = TimingEngine(config, engine='compiled').run(kernel, sample=False, warm=True)\n"
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
