"""Content-addressed on-disk cache for simulated measurements.

A measurement is fully determined by its inputs: the machine configuration,
the kernel method, the stencil, the grid shape, the kernel tuning options,
the sampling plan, and the simulator code itself.  :func:`cache_key` hashes
a canonical JSON rendering of all of those into one hex digest;
:class:`MeasurementCache` stores one JSON file per digest under
``<root>/<digest[:2]>/<digest>.json`` holding the serialized
:class:`~repro.machine.perf.PerfCounters` next to the key inputs (so a
cache entry is self-describing and auditable).

Invalidation is automatic: any change to a key input — including the
simulator sources, via :func:`code_version` — changes the digest, so stale
entries are simply never looked up again.  Entries are written atomically
(temp file + ``os.replace``), which makes the cache safe for concurrent
writers such as the parallel sweep executor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.base import KernelOptions

# The digest helpers moved to :mod:`repro.machine.artifacts` so the compile
# layer can key its own artifacts on them without importing the bench
# harness; they are re-exported here for existing callers.
from repro.machine.artifacts import (  # noqa: F401  (re-exports)
    _SIMULATION_PACKAGES,
    code_version,
    machine_digest,
    machine_fingerprint,
    prune_tree,
    read_entry,
    scan_tree,
    write_entry,
)
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.timing import SamplePlan

#: Bump to invalidate every cache entry regardless of source hashing.
SCHEMA_VERSION = 1


def cache_key(
    machine: MachineConfig,
    method: str,
    stencil: str,
    shape: Tuple[int, ...],
    options: KernelOptions,
    plan: Optional[SamplePlan],
    warm: bool,
    iters: int = 1,
    engine: Optional[str] = None,
    sample: Optional[bool] = None,
    steady: Optional[str] = None,
) -> Tuple[str, Dict]:
    """Digest + canonical inputs for one ``(machine, cell)`` measurement.

    ``engine`` never participates in the digest (the compiled and
    reference engines are bit-identical, so either may serve the other's
    cells — ``tests/test_smoke_simspeed.py`` pins this) but it is recorded
    in the returned inputs so stored entries say which engine produced
    them.  ``sample`` (an explicit sampling override;
    ``None`` is the automatic size-based choice) and ``steady`` (the
    band-periodic elision mode, default ``"on"``) are keyed only when
    non-default, so entries written before those knobs existed stay valid —
    and a steady-elision divergence could never be masked by a cache hit
    from the other mode.
    """
    inputs = {
        "schema": SCHEMA_VERSION,
        "code_version": code_version(),
        # Parts of the hot simulation path (columnar replay, template
        # address rebasing) run on NumPy, so its version is a genuine
        # measurement input — source hashing alone cannot see it.
        "numpy": np.__version__,
        "machine": machine_fingerprint(machine),
        "method": method,
        "stencil": stencil,
        "shape": list(shape),
        "options": dataclasses.asdict(options),
        "plan": dataclasses.asdict(plan) if plan is not None else None,
        "warm": warm,
    }
    if iters != 1:
        # Keyed only when non-default so existing cache entries stay valid.
        inputs["iters"] = iters
    if sample is not None:
        inputs["sample"] = bool(sample)
    if steady is not None and steady != "on":
        inputs["steady"] = steady
    blob = json.dumps(inputs, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    if engine is not None:
        # Audit-only: recorded in the stored entry, excluded from the digest.
        inputs = dict(inputs, engine=engine)
    return digest, inputs


class MeasurementCache:
    """Disk-backed store of :class:`PerfCounters` keyed by :func:`cache_key`.

    Tracks ``hits`` / ``misses`` / ``stores`` so callers can prove cache
    effectiveness (the JSON benchmark artifacts embed these).  Entries are
    sealed by :func:`~repro.machine.artifacts.write_entry`; one that fails
    its checksum counts as ``invalid`` and is a miss.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[PerfCounters]:
        """Return the cached counters for ``key``, or None on miss."""
        try:
            _header, data = read_entry(self.path_for(key), "counters")
            counters = PerfCounters.from_dict(data)
        except OSError:
            self.misses += 1
            return None
        except (KeyError, ValueError):
            # Corrupt, edited or incompatible entry: a miss; it will be
            # overwritten by the fresh measurement.
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return counters

    def store(self, key: str, counters: PerfCounters, inputs: Optional[Dict] = None) -> None:
        """Persist counters atomically (safe under concurrent writers)."""
        write_entry(self.path_for(key), {"key": key, "inputs": inputs}, "counters",
                    counters.to_dict())
        self.stores += 1

    def stats(self) -> Dict:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
        }

    def disk_stats(self) -> Dict:
        """Entry count / byte size / age span of the on-disk tree."""
        return scan_tree(self.root)

    def prune(self, max_age_days: Optional[float] = None,
              max_bytes: Optional[int] = None) -> Dict:
        """Delete entries by age and/or total size (oldest first)."""
        return prune_tree(self.root, max_age_days=max_age_days, max_bytes=max_bytes)
