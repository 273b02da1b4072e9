"""Mode resolution, iterated runs and the pass-boundary jump."""

import dataclasses
import pickle

import pytest

from repro.bench.runner import ExperimentRunner
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.pipeline import PipelineModel
from repro.machine.steady import rebased_signature
from repro.machine.timing import SimMode, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark


def _kernel(n=64, stencil="star2d5p", method="hstencil", seed=0, config=None):
    mem = MemorySpace()
    spec = benchmark(stencil)
    src = Grid2D(mem, n, n, spec.radius, "A", fill="random", seed=seed)
    dst = Grid2D(mem, n, n, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config or LX2(), KernelOptions())
    return mem, kernel


# ---------------------------------------------------------------------------
# Mode resolution: explicit value > REPRO_ENGINE/REPRO_STEADY env > default.
# ---------------------------------------------------------------------------


def test_default_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert SimMode.resolve().engine == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert SimMode.resolve().engine == "reference"
    # An explicit value always beats the environment.
    assert SimMode.resolve(engine="compiled").engine == "compiled"


def test_timing_engine_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert TimingEngine(LX2()).engine == "reference"
    # A constructed mode is already resolved: the environment is not read.
    assert TimingEngine(LX2(), SimMode(engine="compiled")).engine == "compiled"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert TimingEngine(LX2()).engine == "compiled"
    with pytest.raises(ValueError, match="unknown engine"):
        TimingEngine(LX2(), SimMode(engine="bogus"))
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    with pytest.raises(ValueError, match="unknown engine"):
        SimMode.resolve()


def test_experiment_runner_threads_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    monkeypatch.setenv("REPRO_STEADY", "off")
    runner = ExperimentRunner(LX2())
    assert runner.mode == SimMode(engine="reference", steady="off")
    assert runner.engine.mode is runner.mode
    runner = ExperimentRunner(LX2(), engine="compiled", steady="on", sample=False)
    assert runner.mode == SimMode(sample=False)
    assert runner.engine.engine == "compiled"


def test_sim_mode_resolve_is_idempotent(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    monkeypatch.setenv("REPRO_STEADY", "off")
    for sample in (None, True, False):
        mode = SimMode.resolve(sample=sample, artifact_dir=tmp_path)
        assert SimMode.resolve(**dataclasses.asdict(mode)) == mode
        # Even with the environment changed, resolved fields are explicit.
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        assert SimMode.resolve(**dataclasses.asdict(mode)) == mode
        monkeypatch.setenv("REPRO_ENGINE", "reference")


def test_sim_mode_is_a_frozen_hashable_value(tmp_path):
    mode = SimMode(sample=1, artifact_dir=tmp_path)
    # Normalized on construction: sample as the cache key records it, the
    # store directory as a string.
    assert mode.sample is True and mode.artifact_dir == str(tmp_path)
    assert pickle.loads(pickle.dumps(mode)) == mode
    assert len({mode, SimMode(sample=True, artifact_dir=str(tmp_path))}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        mode.engine = "reference"
    assert mode.describe() == {"engine": "compiled", "steady": "on", "sample": True}


def test_run_kernel_precedence(monkeypatch):
    """run_kernel: explicit engine kwarg wins over REPRO_ENGINE."""
    import repro.machine.batched as batched_mod

    created = []
    real = batched_mod.BatchReplayer

    class Spy(real):
        def __init__(self, engine):
            super().__init__(engine)
            created.append(self)

    monkeypatch.setattr(batched_mod, "BatchReplayer", Spy)

    # env says reference, kwarg says compiled: the compiled path (which
    # constructs a BatchReplayer) must run.
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel, engine="compiled")
    assert len(created) == 1

    # env says compiled, kwarg says reference: no replayer.
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel, engine="reference")
    assert len(created) == 1

    # No kwarg: the environment decides.
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel)
    assert len(created) == 2

    with pytest.raises(ValueError):
        FunctionalEngine(MemorySpace()).run_kernel(kernel, engine="bogus")


# ---------------------------------------------------------------------------
# Iterated (iters > 1) runs.
# ---------------------------------------------------------------------------


def test_iters_validation():
    _, kernel = _kernel(n=32)
    engine = TimingEngine(LX2())
    with pytest.raises(ValueError):
        engine.run(kernel, iters=0)
    with pytest.raises(ValueError):
        engine.run(kernel, sample=True, iters=2)


@pytest.mark.parametrize("stencil", ["star2d5p", "box2d9p"])
@pytest.mark.parametrize("config", [LX2, M4], ids=["LX2", "M4"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_iters_bit_identical_across_engines_and_memo_modes(method, config, stencil):
    """Reference and compiled (steady off, and on with the pass-boundary
    jump) agree on iterated counters."""
    iters = 4
    machine = config()
    results = {}
    for engine_name, steady in [
        ("reference", "off"),
        ("compiled", "off"),
        ("compiled", "on"),
    ]:
        try:
            _, kernel = _kernel(n=32, stencil=stencil, method=method, config=machine)
        except ValueError as exc:
            pytest.skip(f"{method} on {stencil}: {exc}")
        engine = TimingEngine(machine, SimMode(engine=engine_name, steady=steady))
        results[(engine_name, steady)] = engine.run(kernel, iters=iters).to_dict()
    baseline = results[("reference", "off")]
    for key, counters in results.items():
        assert counters == baseline, key


#: Cells whose stream table keeps changing for more than 16 measured passes:
#: hstencil-prefetch's software prefetches on box2d9p reshape it until the
#: 22nd pass.  They run with enough passes to reach their fixed point.
SLOW_FIXED_POINT_ITERS = {("hstencil-prefetch", "box2d9p"): 24}


@pytest.mark.parametrize("stencil", ["star2d9p", "box2d9p", "box2d25p"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_pass_memo_reaches_m4_in_cache_fixed_point(method, stencil):
    """M4 streams stay confirmed across passes and keep counting advances;
    the pass-boundary jump must still see the recurring state, and stop
    early."""
    iters = SLOW_FIXED_POINT_ITERS.get((method, stencil), 16)
    machine = M4()
    results = {}
    for steady in ("off", "on"):
        try:
            _, kernel = _kernel(stencil=stencil, method=method, config=machine)
        except ValueError as exc:
            pytest.skip(f"{method} on {stencil}: {exc}")
        engine = TimingEngine(machine, SimMode(engine="compiled", steady=steady))
        pc = engine.run(kernel, iters=iters)
        walked = iters - engine.steady_stats.elided_passes
        results[steady] = (pc.to_dict(), walked)
    assert results["off"][1] == iters
    assert results["on"][1] < iters
    assert results["on"][0] == results["off"][0]


def test_certificate_refusal_builds_one_controller(monkeypatch):
    """An in-cache refusal holds for the whole run: only the first pass
    builds a steady controller, and counters and steady accounting equal
    the walk of every band with ``steady="off"``."""
    import repro.machine.steady as steady_mod

    built = []
    real = steady_mod.SteadyController

    class Counting(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(steady_mod, "SteadyController", Counting)
    machine, iters = M4(), 16
    runs = {}
    for steady in ("on", "off"):
        _, kernel = _kernel(stencil="box2d9p", config=machine)
        engine = TimingEngine(machine, SimMode(steady=steady))
        runs[steady] = (engine.run(kernel, iters=iters).to_dict(), engine.steady_stats)
    on_stats = runs["on"][1]
    assert len(built) == 1
    assert on_stats.disabled == "in-cache"
    # The first pass and every walked measured pass used to build one each.
    assert 1 + iters - on_stats.elided_passes > 1
    assert runs["on"][0] == runs["off"][0]
    assert dataclasses.replace(on_stats, elided_passes=0, disabled="") == runs["off"][1]


def test_iters_scales_points():
    _, kernel = _kernel(n=32)
    one = TimingEngine(LX2(), SimMode(steady="off")).run(kernel, iters=1)
    three = TimingEngine(LX2(), SimMode(steady="off")).run(kernel, iters=3)
    assert three.points == 3 * one.points
    assert three.cycles > one.cycles


# ---------------------------------------------------------------------------
# Zero-shift signatures (the pass-jump foundation).
# ---------------------------------------------------------------------------


def _warmed(config, passes=2):
    """A reference-engine pipe after ``passes`` whole passes, and a pass runner."""
    _, kernel = _kernel(config=config)
    pipe = PipelineModel(config)
    engine = TimingEngine(config, SimMode(engine="reference"))
    nest = kernel.loop_nest()
    run_band, _compiler = engine._band_machinery(kernel, pipe, nest)

    def one_pass():
        pipe.process_trace(kernel.preamble())
        for band in nest.bands():
            run_band(band)

    for _ in range(passes):
        one_pass()
    return pipe, one_pass


def test_state_signature_recurs_at_pass_boundaries():
    """After the warm pass, each further pass maps the state onto itself."""
    pipe, one_pass = _warmed(LX2())
    sig = rebased_signature(pipe, frozenset(), 0)
    one_pass()
    assert rebased_signature(pipe, frozenset(), 0) == sig


@pytest.mark.parametrize("config", [LX2, M4], ids=["LX2", "M4"])
def test_zero_shift_branch_matches_general_path(config):
    """The zero-shift shortcut returns the general path's value and repr.

    A static line that is not resident in L2 forces the general path
    without changing the value: it only tags the line where it appears.
    """
    pipe, _one_pass = _warmed(config())
    l2 = pipe.hierarchy.l2
    absent = 1 << 40
    assert not l2.contains(absent)
    fast = rebased_signature(pipe, frozenset(), 0)
    general = rebased_signature(pipe, frozenset({absent}), 0)
    assert general == fast
    assert repr(general) == repr(fast)
    assert fast[1][1] or fast[2][1]  # dirty lines are compared too
