"""Content-addressed on-disk artifact store.

Steady-state elision (:mod:`repro.machine.steady`) finds a band period,
verifies it and records it as ``(period, delta, signature)``.  That record
is a pure function of the simulator sources, the machine configuration and
the kernel, so this module persists it across processes the same way
:mod:`repro.bench.cache` persists measurements: one JSON file per entry
under ``<root>/<kind>/<digest[:2]>/<digest>.json``, where the digest hashes
a canonical JSON rendering of every input that determines the entry —
:func:`code_version`, :func:`machine_digest` and the kernel/grid identity.
Invalidation is therefore automatic: any source or config change produces
a different digest and the stale entry is simply never looked up again.
The only kind written is ``steady``; ``cache stats`` still lists older
kinds a store may hold, and ``cache prune`` removes them.

Safety contract: every entry file seals its payload with a sha256 of the
payload's exact bytes (:func:`write_entry`), checked on every read
(:func:`read_entry`); a truncated, bit-flipped or hand-edited entry counts
as ``invalid`` and is a miss, so the record is rebuilt live.  A loaded
steady record is never trusted blindly either: the controller still runs
its verification window before jumping.

The store is optional and off by default.  It activates when a path is
installed explicitly (:func:`install_artifact_store`, reached through the
``--artifact-dir`` CLI flag and the ``artifact_dir=`` keyword on
``TimingEngine`` / ``ExperimentRunner`` / ``MulticoreModel``) or via the
``REPRO_ARTIFACTS`` environment variable.  Writes are atomic (temp file +
``os.replace``), so concurrent sweep workers can share one store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machine.config import MachineConfig

#: Bump to invalidate every stored artifact regardless of source hashing.
ARTIFACT_SCHEMA = 1

#: Subpackages whose sources determine simulation results.  ``bench`` and
#: ``cli`` are deliberately excluded: harness changes must not invalidate
#: measurements or stored records.
_SIMULATION_PACKAGES = ("isa", "machine", "kernels", "stencils", "core")


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulation-relevant source file in the package."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in _SIMULATION_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_fingerprint(config: MachineConfig) -> Dict:
    """Canonical JSON-safe rendering of a machine configuration."""
    return {
        "name": config.name,
        "ports": {port.name: count for port, count in sorted(
            config.ports.items(), key=lambda kv: kv[0].name)},
        "issue_width": config.issue_width,
        "latencies": {
            mnemonic: [spec.latency, spec.initiation_interval]
            for mnemonic, spec in sorted(config.latencies.items())
        },
        "has_vector_fmla": config.has_vector_fmla,
        "has_matrix_mla": config.has_matrix_mla,
        "supports_inplace_accumulation": config.supports_inplace_accumulation,
        "l1": dataclasses.asdict(config.l1),
        "l2": dataclasses.asdict(config.l2),
        "l1_load_latency": config.l1_load_latency,
        "l2_load_latency": config.l2_load_latency,
        "mem_load_latency": config.mem_load_latency,
        "hw_prefetch_streams": config.hw_prefetch_streams,
        "hw_prefetch_depth": config.hw_prefetch_depth,
        "hw_prefetch_enabled": config.hw_prefetch_enabled,
        "mem_bandwidth_bytes_per_cycle": config.mem_bandwidth_bytes_per_cycle,
        "clock_ghz": config.clock_ghz,
    }


def machine_digest(config: MachineConfig) -> str:
    """Short stable digest of a machine configuration."""
    blob = json.dumps(machine_fingerprint(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def artifact_meta() -> Dict:
    """Environment inputs shared by every artifact digest.

    NumPy participates because the columnar walk and the affine address
    rebasing run on it — source hashing alone cannot see its version.
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "code_version": code_version(),
        "numpy": np.__version__,
    }


def artifact_digest(inputs: Dict) -> str:
    """Content digest of a canonical (JSON-safe) input description."""
    blob = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def signature_digest(signature: Tuple) -> str:
    """Cross-process digest of a trace signature.

    ``repr`` of a signature is deterministic: it is built from class reprs,
    register reprs (``z3`` / ``za1``), enum reprs and scalar reprs, all of
    which are stable across processes and platforms.
    """
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:32]


# -- checksummed entry files (shared with the measurement cache) -------------


def _separator(field: str) -> bytes:
    return b',\n"' + field.encode() + b'": '


def write_entry(path: Path, header: Dict, field: str, data) -> None:
    """Atomically write ``header`` plus ``data`` sealed by its sha256.

    The file stays one JSON object, with the payload last on its own line:
    ``{<header keys>, "sha256": <hex>,\n"<field>": <data>}``.  ``json.dumps``
    never emits a raw newline, so the first newline marks where the payload
    bytes start and :func:`read_entry` hashes them without re-serializing.
    Raises ``OSError`` (with the temp file removed) when the write fails.
    """
    body = json.dumps(data, sort_keys=True).encode()
    head = json.dumps(dict(header, sha256=hashlib.sha256(body).hexdigest()), sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(head[:-1].encode() + _separator(field) + body + b"}")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_entry(path: Path, field: str) -> Tuple[Dict, object]:
    """``(header, data)`` of a :func:`write_entry` file.

    Raises ``OSError`` when the file cannot be read, and ``ValueError`` when
    it is truncated or malformed or its payload bytes do not hash to the
    stored sha256.
    """
    raw = path.read_bytes()
    head, sep, body = raw.partition(_separator(field))
    if not sep or not body.endswith(b"}"):
        raise ValueError(f"{path}: not a sealed entry")
    body = body[:-1]
    header = json.loads(head + b"}")
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise ValueError(f"{path}: payload checksum mismatch")
    return header, json.loads(body)


# -- directory scan / prune helpers (shared with the measurement cache) ------


def _kind_of(root: Path, path: Path) -> str:
    """Artifact kind of an entry: its first path component under ``root``.

    The measurement cache stores its entries flat, so files directly under
    the root report as kind ``"."``.
    """
    rel = path.relative_to(root)
    return rel.parts[0] if len(rel.parts) > 1 else "."


def scan_tree(root) -> Dict:
    """Entry count / byte size / age span of a ``*.json`` artifact tree.

    The aggregate keys are kept for existing consumers; ``kinds`` breaks
    entry counts and byte sizes down per artifact kind (``steady``, or an
    older kind such as ``templates`` left by earlier versions).
    """
    root = Path(root)
    entries = 0
    total_bytes = 0
    oldest: Optional[float] = None
    newest: Optional[float] = None
    kinds: Dict[str, Dict[str, int]] = {}
    for path in root.rglob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries += 1
        total_bytes += stat.st_size
        oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
        newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
        bucket = kinds.setdefault(_kind_of(root, path), {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += stat.st_size
    now = time.time()
    return {
        "root": str(root),
        "entries": entries,
        "bytes": total_bytes,
        "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        "oldest_age_days": (now - oldest) / 86400.0 if oldest is not None else None,
        "newest_age_days": (now - newest) / 86400.0 if newest is not None else None,
    }


def prune_tree(root, max_age_days: Optional[float] = None,
               max_bytes: Optional[int] = None) -> Dict:
    """Delete ``*.json`` entries by age and/or total size (oldest first).

    Aggregate keys are kept for existing consumers; ``kinds`` reports the
    per-kind removed/kept breakdown.
    """
    root = Path(root)
    files: List[Tuple[float, int, Path]] = []
    for path in root.rglob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        files.append((stat.st_mtime, stat.st_size, path))
    files.sort()  # oldest first
    now = time.time()
    removed = 0
    removed_bytes = 0
    kinds: Dict[str, Dict[str, int]] = {}

    def bucket_for(path: Path) -> Dict[str, int]:
        return kinds.setdefault(
            _kind_of(root, path), {"removed": 0, "removed_bytes": 0, "kept": 0}
        )

    keep: List[Tuple[float, int, Path]] = []
    for mtime, size, path in files:
        if max_age_days is not None and (now - mtime) > max_age_days * 86400.0:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            bucket = bucket_for(path)
            bucket["removed"] += 1
            bucket["removed_bytes"] += size
        else:
            keep.append((mtime, size, path))
    if max_bytes is not None:
        total = sum(size for _, size, _ in keep)
        idx = 0
        while total > max_bytes and idx < len(keep):
            _, size, path = keep[idx]
            idx += 1
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            total -= size
            bucket = bucket_for(path)
            bucket["removed"] += 1
            bucket["removed_bytes"] += size
        keep = keep[idx:]
    for _mtime, _size, path in keep:
        bucket_for(path)["kept"] += 1
    return {
        "root": str(root),
        "removed": removed,
        "removed_bytes": removed_bytes,
        "kept": len(files) - removed,
        "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
    }


# -- the store ----------------------------------------------------------------


class ArtifactStore:
    """Disk-backed store of artifacts, one JSON file per digest.

    ``kind`` partitions the namespace (``steady``); the digest already
    encodes every input, so ``load`` only cross-checks the stored meta block
    as a belt-and-braces guard against a digest collision across schema
    versions.  All read/parse/checksum failures count as misses — a
    corrupt, truncated or edited entry must never surface as an error or a
    wrong answer, only as a live rebuild.  The root is created up front, so
    callers may place their own files in it; a root that cannot be created
    counts a ``store_error``, as a failed write does.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0
        self.store_errors = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.store_errors += 1

    def path_for(self, kind: str, digest: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}.json"

    def load(self, kind: str, digest: str) -> Optional[Dict]:
        """Return the stored data payload, or ``None`` on miss/corruption."""
        try:
            header, data = read_entry(self.path_for(kind, digest), "data")
            if header.get("meta") != artifact_meta():
                raise ValueError("artifact meta skew")
        except OSError:
            self.misses += 1
            return None
        except ValueError:  # truncated, corrupt, edited or skewed
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return data

    def store(self, kind: str, digest: str, data, inputs: Optional[Dict] = None) -> bool:
        """Persist an artifact atomically; best-effort (I/O errors counted).

        A store that cannot be written (read-only directory, disk full) must
        not break the simulation that produced the artifact, so failures are
        swallowed and surfaced only through ``store_errors``.
        """
        header = {"kind": kind, "meta": artifact_meta(), "inputs": inputs}
        try:
            write_entry(self.path_for(kind, digest), header, "data", data)
        except OSError:
            self.store_errors += 1
            return False
        self.stores += 1
        return True

    def stats(self) -> Dict:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "store_errors": self.store_errors,
        }

    def disk_stats(self) -> Dict:
        return scan_tree(self.root)

    def prune(self, max_age_days: Optional[float] = None,
              max_bytes: Optional[int] = None) -> Dict:
        return prune_tree(self.root, max_age_days=max_age_days, max_bytes=max_bytes)


# -- process-wide active store ------------------------------------------------

_active_store: Optional[ArtifactStore] = None
_active_explicit = False
#: Per-path singletons for the environment fallback, so counters accumulate.
_env_stores: Dict[str, ArtifactStore] = {}


def install_artifact_store(store=None) -> Optional[ArtifactStore]:
    """Install the process-wide artifact store.

    ``store`` may be an :class:`ArtifactStore`, a path, or ``None`` to reset
    to the default behaviour (the ``REPRO_ARTIFACTS`` environment variable,
    or no store at all).  Reinstalling the same path keeps the existing
    store object so its counters keep accumulating.
    """
    global _active_store, _active_explicit
    if store is None:
        _active_store = None
        _active_explicit = False
        return None
    if not isinstance(store, ArtifactStore):
        path = Path(store)
        if _active_explicit and _active_store is not None and _active_store.root == path:
            return _active_store
        store = ArtifactStore(path)
    _active_store = store
    _active_explicit = True
    return store


def active_store() -> Optional[ArtifactStore]:
    """The store steady-record callers should use, or ``None`` (disabled)."""
    if _active_explicit:
        return _active_store
    path = os.environ.get("REPRO_ARTIFACTS")
    if not path:
        return None
    store = _env_stores.get(path)
    if store is None:
        store = _env_stores.setdefault(path, ArtifactStore(path))
    return store
