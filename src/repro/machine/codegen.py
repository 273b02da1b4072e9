"""Counters of the retired exec-compiled replay tier, all zero.

The simulator used to replay probe-verified shape classes through
generated straight-line Python kernels.  The tier was removed because the
``compile`` cost every fresh process paid outweighed what the kernels won
back (see ``docs/architecture.md``); the interpreted replays in
:mod:`repro.machine.pipeline`, :mod:`repro.machine.functional` and
:mod:`repro.machine.columnar` are now the only paths.

``perfbench/tracing.py`` still reads :func:`codegen_stats` for its
``machine.codegen.*`` per-layer metrics.  This stub goes when a benchmark
change drops those metrics.
"""

from __future__ import annotations

from typing import Dict

_STATS_KEYS = (
    "generated",
    "loaded",
    "exec_failed",
    "demoted",
    "verified",
    "store_writes",
    "chunk_generated",
    "chunk_demoted",
)


def codegen_stats() -> Dict[str, int]:
    """The retired tier's counters, every one zero."""
    return dict.fromkeys(_STATS_KEYS, 0)
