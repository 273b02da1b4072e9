"""Shared infrastructure for the benchmark suite.

Each ``bench_*`` file regenerates one table or figure of the paper.  The
paper-style tables are collected via :func:`report` and printed in the
terminal summary (so they appear in ``bench_output.txt`` even under
pytest's output capturing), and are also written to
``benchmarks/results/<name>.txt`` for later inspection.

The session-scoped :class:`ExperimentRunner` fixtures share their
measurement cache across benchmark files, so e.g. Figure 14's IPC table
reuses Figure 12's simulations.

Engine knobs (environment variables):

``REPRO_BENCH_CACHE``
    Directory for the content-addressed on-disk measurement cache.  Set it
    to make repeated benchmark runs skip simulation entirely.
``REPRO_BENCH_JOBS``
    Worker processes for the migrated sweeps (default 1 = serial).
``REPRO_ENGINE`` / ``REPRO_STEADY``
    Replay engine ("compiled"/"reference") and steady-state elision
    ("on"/"off"), resolved once by each session runner into its
    ``SimMode``.  Every bench that measures through those runners follows
    it, and the artifacts record the resolved mode under ``modes``.
"""

from __future__ import annotations

import os
import pathlib
from typing import List, Mapping, Optional, Tuple

import pytest

from repro.bench.report import write_bench_json
from repro.bench.runner import ExperimentRunner
from repro.machine.config import LX2, M4

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Engine configuration shared by every migrated benchmark.
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE") or None
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_artifact(name: str, runner=None, extra: Optional[Mapping] = None) -> pathlib.Path:
    """Write the ``BENCH_<name>.json`` artifact into the results directory."""
    return write_bench_json(_RESULTS_DIR, name, runner=runner, extra=extra)

#: (name, rendered table) collected during the session.
_TABLES: List[Tuple[str, str]] = []


def report(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary + results dir."""
    _TABLES.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 74)
    terminalreporter.write_line("Reproduced tables and figures (paper-style output)")
    terminalreporter.write_line("=" * 74)
    for name, text in _TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lx2_runner() -> ExperimentRunner:
    return ExperimentRunner(LX2(), cache_dir=BENCH_CACHE_DIR)


@pytest.fixture(scope="session")
def m4_runner() -> ExperimentRunner:
    return ExperimentRunner(M4(), cache_dir=BENCH_CACHE_DIR)


def run_once(benchmark, fn):
    """Register ``fn`` with pytest-benchmark without re-simulating.

    Simulated experiments are deterministic, so one round is exact; the
    pedantic API keeps pytest-benchmark from re-running multi-second
    simulations dozens of times.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
