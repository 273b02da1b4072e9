"""Row-template trace compilation: emit once per shape class, replay per block.

Stencil kernels emit structurally identical traces for every interior block
of a band — only the word addresses change, and they change *affinely* in
the block's loop coordinates (row-major grids, fixed strides).  This module
exploits that regularity:

* blocks are grouped into **shape classes** by their per-dimension edge
  rank (``("L", k)`` for the first :data:`EDGE` ranks, ``("R", n - k)`` for
  the last :data:`EDGE`, ``"M"`` for everything between).  Edge blocks —
  tail-predicated columns, prefetch-clipped borders, prologue/epilogue rows
  — each get their own class, so one class only ever mixes blocks whose
  emitted streams should coincide structurally;
* the first block of a class is emitted for real and becomes the class's
  :class:`RowTemplate`: the trace, its address vector ``addr0`` and one
  address delta per varying mid dimension, fitted from a neighbour probe
  (``addr(key) = addr0 + sum_d delta_d * (key_d - key0_d)``);
* the affine model is **probe-verified** before the class is trusted: the
  adjacent block, both extremes of every varying dimension, and an
  all-extremes corner block are emitted and checked for exact structural
  equality (addresses masked) and exact address agreement.  Any mismatch
  marks the whole class non-templatable, and its blocks take the reference
  emit-and-walk path forever;
* replay then rebases ``addr0`` per block with one vectorized int64
  operation and hands the precompiled timing/functional programs the
  resulting address list — emission, scheduling and per-instruction
  metadata resolution all run once per class instead of once per block.

Probing relies on the :class:`~repro.isa.program.Kernel` contract that
``emit`` is pure.  Kernels whose emission is *not* affine in the block key
(or that emit unknown instruction types) are automatically and safely
demoted to the reference walk — correctness never depends on the fit.

Each class is fitted once per process.  A resolved class is kept
trace-free in the process-wide program pool, keyed by the kernel's
identity digest (:meth:`TraceCompiler._bundle_key_inputs`): its affine
model (``key0``, ``addr0``, ``deltas``) and its interned signature, or
the demotion verdict.  A later compiler of the same identity (the
functional grid check after a timing run, the sampled run of an exact
cell, a measure after a precompile) trusts an entry after one live emit
of the block being replayed reproduces the signature exactly and the
addresses the model predicts, and adopts that emitted trace as the
template (:meth:`TraceCompiler._adopt`); a mismatch demotes the class.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.program import Kernel, KernelBlock, Trace
from repro.machine import artifacts
from repro.machine.compiled import (
    FunctionalProgram,
    TimingProgram,
    intern_signature,
    pooled_class_bundle,
    pooled_functional_program,
    pooled_timing_program,
    trace_addresses,
    trace_signature,
)
from repro.machine.config import MachineConfig

#: Starting edge width: blocks within this many ranks of either end of a
#: dimension get their own shape class (covers prologue/epilogue rows,
#: tail-predicated columns and prefetch clipping, which all key off
#: proximity to the iteration edge).  When a class fails probe
#: verification the compiler widens the edge up to :data:`MAX_EDGE` and
#: reclassifies, so kernels whose emission diverges a little deeper from
#: the boundary still template their true interior.
EDGE = 1
MAX_EDGE = 2

_UNBUILT = object()
#: Sentinel distinguishing "no resolved entry" from a demotion verdict.
_MISS = object()

#: Process-wide template-compilation accounting: ``fit_seconds`` is live
#: compile work (probe emits + affine fits), ``verify_seconds`` is the one
#: live emit and check a class resolved earlier in the process must pass
#: before it is trusted; ``loaded_classes`` counts the entries adopted.
COMPILE_STATS: Dict[str, float] = {}

def reset_compile_stats() -> None:
    COMPILE_STATS.update(
        compiled_classes=0,
        loaded_classes=0,
        load_demotions=0,
        probe_emits=0,
        verify_emits=0,
        fit_seconds=0.0,
        verify_seconds=0.0,
    )


reset_compile_stats()


def compile_stats() -> Dict[str, float]:
    """Snapshot of the process-wide template-compilation counters."""
    return dict(COMPILE_STATS)


def _spec_fingerprint(spec) -> Dict:
    """JSON-safe identity of a stencil spec (taps included)."""
    return {
        "name": spec.name,
        "pattern": spec.pattern,
        "ndim": spec.ndim,
        "radius": spec.radius,
        "planes": {
            str(dz): np.asarray(plane).tolist() for dz, plane in sorted(spec.planes.items())
        },
    }


def _grid_fingerprint(grid) -> Dict:
    """JSON-safe identity of a grid's memory layout.

    ``base`` and the strides pin the absolute word addresses a template's
    ``addr0`` embeds, so two layouts that differ in any of these can never
    share a bundle.
    """
    return {
        "name": grid.name,
        "rows": grid.rows,
        "cols": grid.cols,
        "depth": getattr(grid, "depth", None),
        "radius": grid.radius,
        "base": grid.base,
        "row_stride": grid.row_stride,
        "left_pad": grid.left_pad,
        "plane_stride": getattr(grid, "plane_stride", None),
    }


def _two_frame_clean(deltas: Tuple[Tuple[int, np.ndarray], ...]) -> bool:
    """Whether a template's addresses split into a static and a moving frame.

    A template is *two-frame clean* when one index set M moves by a single
    per-dimension stride (``delta_d[i] == v_d`` for every ``i`` in M) while
    the rest never move at all (``delta_d[i] == 0`` everywhere).  Then all
    moving addresses shift **together** from block to block, so one band's
    footprint translates onto the next — the premise of steady-state
    elision (:func:`repro.machine.steady.build_certificate`).
    """
    moving = None
    for _d, delta in deltas:
        nz = np.nonzero(delta)[0]
        if nz.size == 0:
            continue
        vals = delta[nz]
        if bool(np.any(vals != vals[0])):
            return False
        nzset = frozenset(nz.tolist())
        if moving is None:
            moving = nzset
        elif moving != nzset:
            return False
    return True


def operand_extents(trace, addrs: Sequence[int]):
    """Word-address extents of every memory operand in ``trace``.

    Yields ``(addr_index, lo_word, hi_word, writes)`` for each instruction
    carrying an address field, with the extent rebased onto ``addrs`` (the
    block's actual address vector; the trace embeds the template's
    ``addr0``).  ``hi_word`` is exclusive.  PRFM has no architectural
    read/write regions, so its extent is the prefetched span and ``writes``
    reflects its write hint — callers treating static stores as disqualifying
    therefore also reject write-hinted prefetches of static data.
    """
    from repro.isa.instructions import PRFM
    from repro.machine.compiled import ADDR_FIELDS

    aidx = 0
    for ins in trace:
        if type(ins) not in ADDR_FIELDS:
            continue
        if isinstance(ins, PRFM):
            regions = ((ins.addr, ins.length),)
            writes = bool(ins.write)
        else:
            reads = tuple(ins.mem_reads())
            wr = tuple(ins.mem_writes())
            regions = reads + wr
            writes = bool(wr)
        if regions:
            shift = int(addrs[aidx]) - int(getattr(ins, "addr"))
            lo = min(a for a, _n in regions) + shift
            hi = max(a + n for a, n in regions) + shift
            yield aidx, int(lo), int(hi), writes
        aidx += 1


class RowTemplate:
    """One compiled shape class: a representative trace plus address model."""

    __slots__ = (
        "trace",
        "signature",
        "key0",
        "addr0",
        "deltas",
        "two_frame_clean",
        "_addr0_list",
        "_functional",
        "_timing",
        "_timing_config",
    )

    def __init__(
        self,
        trace: Trace,
        key0: Tuple[int, ...],
        addr0: np.ndarray,
        deltas: Tuple[Tuple[int, np.ndarray], ...],
        signature: Optional[Tuple] = None,
    ) -> None:
        self.trace = trace
        #: Structural trace signature (addresses masked); the key that lets
        #: shape classes of *different* kernels — multicore slice heights,
        #: repeated sweeps — share one pooled timing program.
        self.signature = signature if signature is not None else trace_signature(trace)
        self.key0 = key0
        self.addr0 = addr0
        #: ``(dimension, per-address word delta)`` for each varying dimension.
        self.deltas = deltas
        #: See :func:`_two_frame_clean`; steady elision rejects unclean
        #: templates.
        self.two_frame_clean = _two_frame_clean(deltas)
        self._addr0_list: List[int] = addr0.tolist()
        self._functional: object = _UNBUILT
        self._timing: object = _UNBUILT
        self._timing_config: Optional[MachineConfig] = None

    def addrs_for(self, key: Sequence[int]) -> List[int]:
        """Rebased address list for a block of this class (plain ints)."""
        addrs = self.addr0
        key0 = self.key0
        rebased = False
        for d, delta in self.deltas:
            dk = key[d] - key0[d]
            if dk:
                addrs = addrs + delta * dk if rebased else self.addr0 + delta * dk
                rebased = True
        if not rebased:
            return self._addr0_list
        return addrs.tolist()

    def timing_program(self, config: MachineConfig) -> Optional[TimingProgram]:
        """Lazily built scoreboard program (``None`` -> reference walk).

        Resolved through the global program pool, so equal-signature
        templates under the same config share one program object (and with
        it the columnar plan/memo state keyed on program identity).
        """
        if self._timing is _UNBUILT or self._timing_config is not config:
            self._timing = pooled_timing_program(self.trace, self.signature, config)
            self._timing_config = config
        return self._timing  # type: ignore[return-value]

    def functional_program(self) -> Optional[FunctionalProgram]:
        """Lazily built semantic program (``None`` -> reference walk).

        Pooled by signature, so equal-signature templates share one program.
        """
        if self._functional is _UNBUILT:
            self._functional = pooled_functional_program(self.trace, self.signature)
        return self._functional  # type: ignore[return-value]


class TraceCompiler:
    """Groups a kernel's blocks into probe-verified replayable templates."""

    def __init__(
        self,
        kernel: Kernel,
        edge: int = EDGE,
        max_edge: int = MAX_EDGE,
        nest=None,
        config: Optional[MachineConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.edge = edge
        self.max_edge = max(edge, max_edge)
        if nest is None:
            # Callers that already hold the kernel's loop nest pass it in;
            # building one is pure but not free (it materializes every block).
            nest = kernel.loop_nest()
        self.shape: Tuple[int, ...] = tuple(nest.shape)
        self._by_key: Dict[Tuple[int, ...], KernelBlock] = {b.key: b for b in nest.blocks}
        #: shape class -> RowTemplate, or None when the class failed probing.
        self._classes: Dict[Tuple, Optional[RowTemplate]] = {}
        self.templated_blocks = 0
        self.fallback_blocks = 0
        # The identity digest needs the machine config: address models are
        # config-independent but the probe verdicts and the downstream
        # programs are not, and one digest per (kernel, machine) keeps the
        # invalidation story uniform.
        self.config = config if config is not None else getattr(kernel, "config", None)
        self.loaded_classes = 0
        self.compiled_classes = 0
        self.load_demotions = 0
        self.fit_seconds = 0.0
        self.verify_seconds = 0.0
        self._bundle_inputs = (
            self._bundle_key_inputs() if self.config is not None else None
        )
        if self._bundle_inputs is None:
            # Kernels without an identity share no classes.
            self._shared = None
            return
        digest = artifacts.artifact_digest(self._bundle_inputs)
        #: This identity's process-wide resolved classes; compilers with
        #: other edge bounds classify differently and keep their own.
        self._shared = pooled_class_bundle((digest, edge, self.max_edge))
        if self._shared.edge is not None:
            # Adopt the width earlier compilers widened to.
            self.edge = self._shared.edge

    # ------------------------------------------------------------------

    def lookup(self, block: KernelBlock) -> Optional[Tuple[RowTemplate, List[int]]]:
        """Template + rebased addresses for a block, or ``None`` to fall back."""
        while True:
            cls = self._class_of(block.key)
            if cls is None:
                self.fallback_blocks += 1
                return None
            try:
                template = self._classes[cls]
            except KeyError:
                template = self._resolve_class(cls, block)
                self._classes[cls] = template
            if template is None and self.edge < self.max_edge and "M" in cls:
                # The class mixed structurally different blocks; widen the
                # edge bands and reclassify everything under the new width.
                self.edge += 1
                self._classes.clear()
                continue
            break
        if template is None:
            self.fallback_blocks += 1
            return None
        self.templated_blocks += 1
        return template, template.addrs_for(block.key)

    # -- class sharing -------------------------------------------------

    def _bundle_key_inputs(self) -> Optional[Dict]:
        """Canonical identity of this (kernel, machine) pair, or ``None``.

        Kernels without the standard identity attributes (spec/grids/
        options) simply don't participate in persistence; everything else
        behaves as before.
        """
        kernel = self.kernel
        spec = getattr(kernel, "spec", None)
        src = getattr(kernel, "src", None)
        dst = getattr(kernel, "dst", None)
        options = getattr(kernel, "options", None)
        name = getattr(kernel, "name", None)
        if spec is None or src is None or dst is None or options is None or name is None:
            return None
        try:
            return {
                "kind": "templates",
                "meta": artifacts.artifact_meta(),
                "machine": artifacts.machine_digest(self.config),
                "method": name,
                "spec": _spec_fingerprint(spec),
                "src": _grid_fingerprint(src),
                "dst": _grid_fingerprint(dst),
                # Coefficient-table bases are embedded in the emitted loads
                # just as the grid bases are.
                "rodata": [list(table) for table in getattr(kernel, "rodata", ())],
                "options": dataclasses.asdict(options),
                "shape": list(self.shape),
            }
        except (AttributeError, TypeError):
            return None

    def _resolve_class(self, cls: Tuple, block: KernelBlock) -> Optional[RowTemplate]:
        template = self._adopt(cls, block)
        if template is not _MISS:
            return template  # type: ignore[return-value]
        start = perf_counter()
        template = self._compile_class(cls, block)
        elapsed = perf_counter() - start
        self.fit_seconds += elapsed
        self.compiled_classes += 1
        COMPILE_STATS["fit_seconds"] += elapsed
        COMPILE_STATS["compiled_classes"] += 1
        self._share_class(cls, template)
        return template

    def _adopt(self, cls: Tuple, block: KernelBlock):
        """Adopt this process's entry for the class, or :data:`_MISS`.

        A resolved entry is trusted after one live emit of ``block``.  It
        holds no trace, only the class's affine address model and its
        interned signature.  The live emit of the block actually being
        replayed must reproduce the signature exactly, and its addresses
        must equal the model's prediction for the block's key.  That trace
        then becomes the template — exactly what a live compile starting
        at this block builds.  A failed check demotes the class, as the
        live path does on a failed probe, and records the verdict.
        """
        shared = self._shared
        if shared is None or shared.edge != self.edge:
            return _MISS
        entry = shared.classes.get(cls, _MISS)
        if entry is _MISS:
            return _MISS
        if entry is None:
            self.loaded_classes += 1
            COMPILE_STATS["loaded_classes"] += 1
            return None
        key0, addr0, deltas, signature = entry
        start = perf_counter()
        expected = addr0
        for d, delta in deltas:
            expected = expected + delta * (block.key[d] - key0[d])
        live = self.kernel.emit(block)
        addrs = trace_addresses(live)
        ok = trace_signature(live) == signature and addrs == expected.tolist()
        elapsed = perf_counter() - start
        self.verify_seconds += elapsed
        COMPILE_STATS["verify_seconds"] += elapsed
        COMPILE_STATS["verify_emits"] += 1
        if not ok:
            self.load_demotions += 1
            COMPILE_STATS["load_demotions"] += 1
            self._share_class(cls, None)
            return None
        self.loaded_classes += 1
        COMPILE_STATS["loaded_classes"] += 1
        return RowTemplate(
            live, block.key, np.asarray(addrs, dtype=np.int64), deltas, signature=signature
        )

    def _share_class(self, cls: Tuple, template: Optional[RowTemplate]) -> None:
        """Keep a resolved class in this identity's process-wide bundle."""
        shared = self._shared
        if shared is None:
            return
        if shared.edge != self.edge:
            if shared.edge is not None and shared.edge > self.edge:
                return  # a compiler that widened further owns the bundle
            shared.edge = self.edge
            shared.classes = {}
        if template is None:
            shared.classes[cls] = None
            return
        # The interned signature is the one the program pool keys on, so
        # the entry adds no copy of it.
        template.signature = intern_signature(template.signature)
        shared.classes[cls] = (template.key0, template.addr0, template.deltas, template.signature)

    # ------------------------------------------------------------------

    def _class_of(self, key: Tuple[int, ...]) -> Optional[Tuple]:
        if len(key) != len(self.shape):
            return None
        edge = self.edge
        labels: List[object] = []
        for k, n in zip(key, self.shape):
            if k < edge:
                labels.append(("L", k))
            elif k >= n - edge:
                labels.append(("R", n - k))
            else:
                labels.append("M")
        return tuple(labels)

    def _varying_dims(self, cls: Tuple) -> List[int]:
        """Dimensions whose coordinate actually varies within the class."""
        edge = self.edge
        return [
            d
            for d, label in enumerate(cls)
            if label == "M" and (self.shape[d] - 2 * edge) >= 2
        ]

    def _compile_class(self, cls: Tuple, block: KernelBlock) -> Optional[RowTemplate]:
        kernel = self.kernel
        key0 = block.key
        COMPILE_STATS["probe_emits"] += 1
        trace0 = kernel.emit(block)
        sig0 = trace_signature(trace0)
        addr0 = np.asarray(trace_addresses(trace0), dtype=np.int64)

        deltas: List[Tuple[int, np.ndarray]] = []
        edge = self.edge
        for d in self._varying_dims(cls):
            lo, hi = edge, self.shape[d] - edge - 1
            k0 = key0[d]
            step = 1 if k0 < hi else -1
            adjacent = k0 + step
            fitted = self._probe(key0, d, adjacent, sig0)
            if fitted is None:
                return None
            delta = (fitted - addr0) // step
            if np.any(addr0 + delta * step != fitted):
                return None  # non-integer per-step delta
            # Verify the fit at both extremes of the dimension's range.
            for kp in (lo, hi):
                if kp in (k0, adjacent):
                    continue
                probed = self._probe(key0, d, kp, sig0)
                if probed is None or np.any(addr0 + delta * (kp - k0) != probed):
                    return None
            deltas.append((d, delta))

        if len(deltas) >= 2:
            # Corner probe: all varying dimensions at their far extreme at
            # once, checking that the per-dimension deltas add.
            corner = list(key0)
            expected = addr0.copy()
            for d, delta in deltas:
                hi = self.shape[d] - edge - 1
                kp = hi if key0[d] != hi else edge
                corner[d] = kp
                expected = expected + delta * (kp - key0[d])
            corner_block = self._by_key.get(tuple(corner))
            if corner_block is None:
                return None
            COMPILE_STATS["probe_emits"] += 1
            corner_trace = kernel.emit(corner_block)
            if trace_signature(corner_trace) != sig0:
                return None
            if np.any(
                np.asarray(trace_addresses(corner_trace), dtype=np.int64) != expected
            ):
                return None

        return RowTemplate(trace0, key0, addr0, tuple(deltas), signature=sig0)

    def _probe(
        self, key0: Tuple[int, ...], d: int, kp: int, sig0: Tuple
    ) -> Optional[np.ndarray]:
        """Emit the block at ``key0`` with dimension ``d`` set to ``kp``."""
        key = key0[:d] + (kp,) + key0[d + 1 :]
        probe_block = self._by_key.get(key)
        if probe_block is None:
            return None
        COMPILE_STATS["probe_emits"] += 1
        trace = self.kernel.emit(probe_block)
        if trace_signature(trace) != sig0:
            return None
        return np.asarray(trace_addresses(trace), dtype=np.int64)
