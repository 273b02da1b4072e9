"""Engine selection, REPRO_MEMO modes and iterated runs."""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.pipeline import PipelineModel
from repro.machine.timing import TimingEngine, default_engine, memo_mode
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
# Engine selection precedence: explicit kwarg > REPRO_ENGINE env > default.
# ---------------------------------------------------------------------------


def test_default_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert default_engine() == "reference"


def test_timing_engine_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert TimingEngine(LX2()).engine == "reference"
    # An explicit kwarg always beats the environment.
    assert TimingEngine(LX2(), engine="compiled").engine == "compiled"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert TimingEngine(LX2()).engine == "compiled"
    with pytest.raises(ValueError):
        TimingEngine(LX2(), engine="bogus")


def test_experiment_runner_threads_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert ExperimentRunner(LX2()).engine.engine == "reference"
    assert ExperimentRunner(LX2(), engine="compiled").engine.engine == "compiled"


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
# REPRO_MEMO mode parsing.
# ---------------------------------------------------------------------------


def test_memo_mode_default_and_aliases(monkeypatch):
    monkeypatch.delenv("REPRO_MEMO", raising=False)
    assert memo_mode() == "pass"
    monkeypatch.setenv("REPRO_MEMO", "off")
    assert memo_mode() == "off"
    for raw in ("block", "full", "1", "on"):
        monkeypatch.setenv("REPRO_MEMO", raw)
        with pytest.raises(ValueError, match=r"\('pass', 'off'\)"):
            memo_mode()


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
def test_iters_bit_identical_across_engines_and_memo_modes(
    monkeypatch, method, config, stencil
):
    """Reference and compiled (both memo modes) agree on iterated counters."""
    iters = 4
    machine = config()
    results = {}
    for engine_name, memo in [
        ("reference", "off"),
        ("compiled", "off"),
        ("compiled", "pass"),
    ]:
        monkeypatch.setenv("REPRO_MEMO", memo)
        try:
            _, kernel = _kernel(n=32, stencil=stencil, method=method, config=machine)
        except ValueError as exc:
            pytest.skip(f"{method} on {stencil}: {exc}")
        pc = TimingEngine(machine, engine=engine_name).run(kernel, iters=iters)
        results[(engine_name, memo)] = pc.to_dict()
    baseline = results[("reference", "off")]
    for key, counters in results.items():
        assert counters == baseline, key


#: Cells whose stream table keeps changing for more than 16 measured passes:
#: hstencil-prefetch's software prefetches on box2d9p reshape it until the
#: 22nd pass.  They run with enough passes to reach their fixed point.
SLOW_FIXED_POINT_ITERS = {("hstencil-prefetch", "box2d9p"): 24}


@pytest.mark.parametrize("stencil", ["star2d9p", "box2d9p", "box2d25p"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_pass_memo_reaches_m4_in_cache_fixed_point(monkeypatch, method, stencil):
    """M4 streams stay confirmed across passes and keep counting advances;
    the pass memo must still see the recurring state, and stop early."""
    iters = SLOW_FIXED_POINT_ITERS.get((method, stencil), 16)
    machine = M4()
    results = {}
    for memo in ("off", "pass"):
        monkeypatch.setenv("REPRO_MEMO", memo)
        try:
            _, kernel = _kernel(stencil=stencil, method=method, config=machine)
        except ValueError as exc:
            pytest.skip(f"{method} on {stencil}: {exc}")
        passes = []
        preamble = kernel.preamble

        def counting_preamble():
            passes.append(1)
            return preamble()

        kernel.preamble = counting_preamble
        pc = TimingEngine(machine, engine="compiled").run(kernel, iters=iters)
        results[memo] = (pc.to_dict(), len(passes) - 1)  # minus the warm pass
    assert results["off"][1] == iters
    assert results["pass"][1] < iters
    assert results["pass"][0] == results["off"][0]


def test_iters_scales_points(monkeypatch):
    monkeypatch.setenv("REPRO_MEMO", "off")
    _, kernel = _kernel(n=32)
    one = TimingEngine(LX2()).run(kernel, iters=1)
    three = TimingEngine(LX2()).run(kernel, iters=3)
    assert three.points == 3 * one.points
    assert three.cycles > one.cycles


# ---------------------------------------------------------------------------
# Pipeline state signatures (the pass-skip foundation).
# ---------------------------------------------------------------------------


def test_state_signature_recurs_at_pass_boundaries():
    """After the warm pass, each further pass maps the state onto itself."""
    config = LX2()
    _, kernel = _kernel()
    pipe = PipelineModel(config)
    engine = TimingEngine(config, engine="reference")
    nest = kernel.loop_nest()
    run_band, _compiler = engine._band_machinery(kernel, pipe, nest)

    def one_pass():
        pipe.process_trace(kernel.preamble())
        for band in nest.bands():
            run_band(band)

    one_pass()  # warm
    one_pass()
    sig = pipe.state_signature()
    one_pass()
    assert pipe.state_signature() == sig
