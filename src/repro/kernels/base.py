"""Shared infrastructure for kernel generators.

Conventions used by every generator:

* **Register map.**  ``z0..z15`` form the rotating data/temporary pool,
  ``z16`` holds the compacted horizontal coefficients, ``z17..z22`` rotate
  loaded sliding coefficient vectors, ``z23`` is scratch, and ``z24..z31``
  hold the unit-basis vectors ``e0..e7`` used by the in-place accumulation
  trick.  Pools rotate so consecutive iterations never create false
  (WAW/WAR) dependencies on the in-order scoreboard.

* **Coefficient tables (.rodata).**  Sliding coefficient vectors (one per
  vertical placement ``d`` per horizontal shift ``s`` per plane ``dz``) are
  precomputed at kernel-construction time and written straight into
  simulated memory, the way real kernels keep coefficient tables in the
  data segment.  The kernel loads the vector it needs with an ordinary
  ``LD1D`` (these stay L1-resident).

* **Traversal.**  Matrix-family kernels traverse *panels* (``j`` outer,
  ``i`` bands inner) — Figure 11's access pattern; vector-family kernels
  traverse rows (``i`` outer, ``j`` inner streaming).  Bands group blocks
  by the outer index for band-sampled timing.

* **Divisibility.**  Matrix kernels require the interior row count to be a
  multiple of the tile height (8) and the column count a multiple of
  ``8 * unroll_j``; vector kernels require columns to be a multiple of 8.
  Real implementations peel remainders with predication; the reproduction
  keeps grids conforming instead (all evaluation sizes are powers of two).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.instructions import SCALAR_OP, SET_LANES
from repro.isa.program import Kernel, KernelBlock, LoopNest, Trace
from repro.isa.registers import SVL_LANES, VReg
from repro.machine.config import MachineConfig
from repro.stencils.grid import Grid2D, Grid3D
from repro.stencils.spec import StencilSpec

#: Rotating data/temporary registers.
DATA_POOL: Tuple[int, ...] = tuple(range(0, 16))
#: Horizontal (off-axis) coefficient register.
COEF_H_REG = VReg(16)
#: Rotating pool for loaded sliding coefficient vectors.
CV_POOL: Tuple[int, ...] = tuple(range(17, 23))
#: Scratch register.
SCRATCH_REG = VReg(23)
#: Unit-basis vectors e0..e7 (in-place accumulation).
UNIT_BASE = 24


@dataclass(frozen=True)
class KernelOptions:
    """Tuning knobs shared by the kernel generators.

    The defaults describe the *unoptimized* hybrid kernel; the HStencil
    configurations of the evaluation turn on ``scheduled`` and
    ``prefetch`` (see :mod:`repro.kernels.registry`).
    """

    #: Matrix tile registers used concurrently (multi-register kernel).
    unroll_j: int = 4
    #: Synthesize shifted vectors with EXT concatenation (data reuse);
    #: when False every shifted vector is an unaligned load.
    ext_reuse: bool = True
    #: Apply the dependence-aware list-scheduling pass to each block.
    scheduled: bool = False
    #: Insert spatial-prefetch instructions (Algorithm 3).
    prefetch: bool = False
    #: Rows ahead to prefetch the input grid.
    prefetch_distance: int = 1
    #: Horizontal taps rolled back from vector MLA to outer products
    #: (None = balance automatically, see replacement.plan_replacement).
    mla_rollback: Optional[int] = None
    #: Shifts whose EXT is replaced by an unaligned load
    #: (None = balance automatically).
    ext_to_load: Optional[int] = None
    #: SCALAR_OP loop-overhead instructions emitted per micro-iteration.
    scalar_overhead: int = 1
    #: Chunk size of the baseline (compiler/core) local scheduler that every
    #: kernel enjoys; 0 disables it.  ``scheduled=True`` upgrades this to
    #: whole-block scheduling (the paper's manual interleaving).
    compiler_window: int = 24

    def with_(self, **kwargs) -> "KernelOptions":
        """Functional update."""
        return replace(self, **kwargs)


class RegRotator:
    """Round-robin handle allocator over a fixed register set.

    Generators take a fresh register for every produced value; as long as
    each value's last use happens within ``len(pool)`` subsequent takes,
    rotation is safe and removes false dependencies.
    """

    def __init__(self, indices: Sequence[int]) -> None:
        if not indices:
            raise ValueError("register pool cannot be empty")
        self._regs = [VReg(i) for i in indices]
        self._next = 0

    def take(self) -> VReg:
        reg = self._regs[self._next % len(self._regs)]
        self._next += 1
        return reg

    def reset(self) -> None:
        self._next = 0

    def __len__(self) -> int:
        return len(self._regs)


def sliding_vectors(column: np.ndarray, radius: int) -> np.ndarray:
    """All vertical placements of one coefficient column.

    ``column`` is the length ``2r+1`` coefficient column of one horizontal
    shift (``StencilSpec.column``).  Returns an ``(8 + 2r, 8)`` array
    whose row ``d + r`` is the FMOPA coefficient vector for input row
    ``i0 = i + d``:  ``v[k] = column[d - k + r]`` clipped to the tile.
    """
    side = 2 * radius + 1
    if column.shape != (side,):
        raise ValueError(f"column must have length {side}, got {column.shape}")
    out = np.zeros((SVL_LANES + 2 * radius, SVL_LANES))
    for di, d in enumerate(range(-radius, SVL_LANES + radius)):
        for k in range(SVL_LANES):
            idx = d - k + radius
            if 0 <= idx < side:
                out[di, k] = column[idx]
    return out


def rows_for_placement(column: np.ndarray, radius: int, d: int) -> Tuple[int, ...]:
    """Tile rows with nonzero coefficient for placement ``d`` of a column."""
    side = 2 * radius + 1
    rows = []
    for k in range(SVL_LANES):
        idx = d - k + radius
        if 0 <= idx < side and column[idx] != 0.0:
            rows.append(k)
    return tuple(rows)


class GroupedTrace(Trace):
    """A trace with recorded loop-body boundaries.

    Kernels emit into one of these; ``mark()`` closes the current body
    (called by ``StencilKernelBase._overhead`` at each micro-iteration).
    Baseline scheduling operates per body.
    """

    def __init__(self) -> None:
        super().__init__()
        self._marks: List[int] = []

    def mark(self) -> None:
        """Record a body boundary at the current position."""
        if not self._marks or self._marks[-1] != len(self):
            self._marks.append(len(self))

    def bodies(self) -> List[Trace]:
        """Split the trace at the recorded boundaries."""
        out: List[Trace] = []
        start = 0
        for end in self._marks:
            if end > start:
                out.append(Trace(self[start:end]))
            start = end
        if start < len(self):
            out.append(Trace(self[start:]))
        return out


GridLike = Union[Grid2D, Grid3D]


class StencilKernelBase(Kernel):
    """Common construction/validation for all stencil kernels."""

    #: Set by subclasses; appears in benchmark tables.
    method = "base"
    #: "panel" (j outer) or "row" (i outer) traversal.
    traversal = "panel"
    #: Whether the subclass implements 3D specs.
    supports_3d = False

    def __init__(
        self,
        spec: StencilSpec,
        src: GridLike,
        dst: GridLike,
        config: MachineConfig,
        options: Optional[KernelOptions] = None,
    ) -> None:
        self.spec = spec
        self.src = src
        self.dst = dst
        self.config = config
        self.options = options or KernelOptions()
        self.name = self.method
        #: ``(table name, base, words)`` of every coefficient table placed
        #: in simulated memory; emitted loads embed these bases.
        self.rodata: List[Tuple[str, int, int]] = []
        self._validate()

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        spec, src, dst = self.spec, self.src, self.dst
        if spec.ndim == 3 and not self.supports_3d:
            raise ValueError(f"{self.method} kernel does not support 3D stencils")
        if spec.ndim == 2 and not isinstance(src, Grid2D):
            raise TypeError("2D stencil needs Grid2D operands")
        if spec.ndim == 3 and not isinstance(src, Grid3D):
            raise TypeError("3D stencil needs Grid3D operands")
        if type(src) is not type(dst):
            raise TypeError("source and destination grids must have the same type")
        if (src.rows, src.cols) != (dst.rows, dst.cols):
            raise ValueError("source and destination grids must have equal shape")
        if src.radius < spec.radius or dst.radius < spec.radius:
            raise ValueError(
                f"grids need halo >= stencil radius {spec.radius}"
            )
        if spec.ndim == 3 and src.depth != dst.depth:  # type: ignore[union-attr]
            raise ValueError("3D grids must have equal depth")

    def _require_divisible(self, cols_multiple: int, rows_multiple: int = 1) -> None:
        if self.src.cols % cols_multiple != 0:
            raise ValueError(
                f"{self.method}: interior columns ({self.src.cols}) must be a "
                f"multiple of {cols_multiple}"
            )
        if rows_multiple > 1 and self.src.rows % rows_multiple != 0:
            raise ValueError(
                f"{self.method}: interior rows ({self.src.rows}) must be a "
                f"multiple of {rows_multiple}"
            )

    # -- coefficient materialization --------------------------------------------

    def _write_rodata(self, table: np.ndarray, name: str) -> int:
        """Place a coefficient table into simulated memory; return base."""
        base = self.src.mem.alloc(table.size, name=f"{self.name}/{name}-{id(self):x}")
        self.src.mem.write_array(base, table)
        self.rodata.append((name, base, int(table.size)))
        return base

    def _unit_vector_preamble(self) -> Trace:
        """Materialize e0..e7 into z24..z31."""
        out = Trace()
        for k in range(SVL_LANES):
            values = [0.0] * SVL_LANES
            values[k] = 1.0
            out.append(SET_LANES(VReg(UNIT_BASE + k), tuple(values)))
        return out

    @staticmethod
    def unit_reg(row: int) -> VReg:
        """Register holding the unit-basis vector for tile row ``row``."""
        if not 0 <= row < SVL_LANES:
            raise ValueError(f"row out of range: {row}")
        return VReg(UNIT_BASE + row)

    # -- loop-nest helpers --------------------------------------------------------

    def _band_nest(self, tile_cols: int) -> LoopNest:
        """Band-major traversal (Algorithm 2: ``for i: for j:``).

        Key = (band, panel [, z leading]).  Each band sweeps the full row
        width; consecutive bands re-read the ``2r`` overlapping input rows,
        the reuse whose survival in L1 is grid-size dependent (Table 3).
        """
        rows, cols = self.src.rows, self.src.cols
        panels = cols // tile_cols
        bands = rows // SVL_LANES
        blocks: List[KernelBlock] = []
        if self.spec.ndim == 2:
            for ib in range(bands):
                for jp in range(panels):
                    blocks.append(KernelBlock(key=(ib, jp), points=SVL_LANES * tile_cols))
            return LoopNest(shape=(bands, panels), blocks=blocks)
        depth = self.src.depth  # type: ignore[union-attr]
        for z in range(depth):
            for ib in range(bands):
                for jp in range(panels):
                    blocks.append(
                        KernelBlock(key=(z, ib, jp), points=SVL_LANES * tile_cols)
                    )
        return LoopNest(shape=(depth, bands, panels), blocks=blocks)

    def _row_nest(self) -> LoopNest:
        """Row traversal: key = (row [, z]); one block per output row."""
        rows, cols = self.src.rows, self.src.cols
        blocks: List[KernelBlock] = []
        if self.spec.ndim == 2:
            for i in range(rows):
                blocks.append(KernelBlock(key=(i,), points=cols))
            return LoopNest(shape=(rows,), blocks=blocks)
        depth = self.src.depth  # type: ignore[union-attr]
        for z in range(depth):
            for i in range(rows):
                blocks.append(KernelBlock(key=(z, i), points=cols))
        return LoopNest(shape=(depth, rows), blocks=blocks)

    # -- addressing --------------------------------------------------------------

    def _addr(self, grid: GridLike, i: int, j: int, z: Optional[int] = None) -> int:
        if self.spec.ndim == 2:
            return grid.addr(i, j)  # type: ignore[call-arg]
        return grid.addr(z, i, j)  # type: ignore[call-arg, arg-type]

    # -- misc ----------------------------------------------------------------------

    def _overhead(self, out: Trace) -> None:
        """Emit loop-overhead instructions and close the current loop body.

        Every kernel calls this exactly once per micro-iteration, so it
        doubles as the body boundary marker for baseline scheduling.
        """
        for _ in range(self.options.scalar_overhead):
            out.append(SCALAR_OP(kind="loop"))
        if isinstance(out, GroupedTrace):
            out.mark()

    def _finalize(self, trace: Trace) -> Trace:
        """Apply the scheduling policy to a finished block trace.

        Baseline (``scheduled=False``): each loop *body* is scheduled
        independently — the compiler's basic-block scheduler, which every
        real comparison method is compiled with; instructions never move
        across iteration boundaries.  ``scheduled=True`` schedules the
        whole block at once: HStencil's fine-grained matrix-vector
        interleaving across iterations (Section 3.2.2).
        """
        from repro.kernels.scheduling import schedule_trace

        if self.options.scheduled:
            return schedule_trace(trace, self.config)
        if isinstance(trace, GroupedTrace) and self.options.compiler_window:
            out = Trace()
            for body in trace.bodies():
                out.extend(schedule_trace(body, self.config))
            return out
        if self.options.compiler_window:
            return schedule_trace(trace, self.config, window=self.options.compiler_window)
        return trace

    def describe_options(self) -> str:
        o = self.options
        bits = [f"w={o.unroll_j}"]
        if o.ext_reuse:
            bits.append("ext")
        if o.scheduled:
            bits.append("sched")
        if o.prefetch:
            bits.append("pf")
        return ",".join(bits)
