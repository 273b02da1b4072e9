"""Instruction definitions for the simulated scalable matrix/vector CPU.

Every instruction is a small dataclass that knows

* which architectural registers it reads and writes (``reads()`` /
  ``writes()``) — these are the scoreboard keys used by the timing engine.
  Tile registers are tracked at *slice* granularity (``(tile_name, row)``),
  because the scattered-store optimization of the paper depends on a tile
  row becoming available before the whole tile is finished;
* which execution-port class it occupies (:class:`PortClass`) — the paper's
  core observation is that matrix, vector and load/store instructions
  dispatch to distinct pipelines and therefore co-issue;
* its memory effects (``mem_reads()`` / ``mem_writes()``), as lists of
  ``(word_address, word_count)`` pairs consumed by the cache simulator; and
* its FLOP count, split into *total* (what the unit physically computes; an
  8x8 FMOPA always burns 128 flops of machine capability) and *useful*
  (flops that contribute to the stencil result), which is what the
  matrix-unit-utilization experiments (Table 1) measure.

Addresses are in FP64 *words* (8 bytes); the cache layer converts to bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, Tuple

from repro.isa.registers import SVL_LANES, TILE_NAMES, VREG_NAMES, TileReg, VReg

#: Scoreboard key type: vector regs use their name, tiles use (name, row).
DepKey = object


class PortClass(enum.Enum):
    """Execution-port classes of the simulated core.

    ``VECTOR``
        Scalable-vector FP pipeline (FMLA/FADD/EXT/DUP).  The LX2 preset has
        two of these; the M4 preset keeps EXT/DUP here but has no vector
        FMLA capability (the kernel layer enforces that).
    ``MATRIX``
        Outer-product pipeline (FMOPA, MOVA, ZERO, and the M4 matrix-MLA).
    ``LOAD`` / ``STORE``
        Memory pipelines.  Software prefetch shares the load pipeline but
        never stalls on the data.
    ``SCALAR``
        Address arithmetic / loop-control overhead.
    """

    VECTOR = "V"
    MATRIX = "M"
    LOAD = "L"
    STORE = "S"
    SCALAR = "X"


ALL_ROWS: Tuple[int, ...] = tuple(range(SVL_LANES))

# Dependence keys are computed once, not per call: the scheduler asks every
# instruction of every emitted block for them.  Scoreboards, scheduler keys,
# trace signatures and stored artifact digests are all built from these
# values, so they must never change: ``VREG_NAMES[i]`` (``z<i>``) for a
# vector register, ``("za<t>", row)`` for a tile slice.

#: Slice-key tuple by tile index, then sorted row subset.  Filled on first
#: use: the benchmark kernels touch about a hundred of the 2048 entries.
_TILE_KEYS: Tuple[Dict[Tuple[int, ...], Tuple[DepKey, ...]], ...] = tuple(
    {} for _ in TILE_NAMES
)


def _tile_keys(tile: TileReg, rows: Tuple[int, ...]) -> Tuple[DepKey, ...]:
    table = _TILE_KEYS[tile.index]
    keys = table.get(rows)
    if keys is None:
        name = TILE_NAMES[tile.index]
        keys = tuple((name, r) for r in rows)
        # Only sorted, distinct, in-range rows are entered, which bounds
        # each table at the 256 row subsets of a tile.
        if rows == tuple(r for r in ALL_ROWS if r in rows):
            table[rows] = keys
    return keys


@dataclass(slots=True)
class Instruction:
    """Common behaviour for all instructions.

    Subclasses override the class attributes ``mnemonic`` and ``port`` and
    the dependency/memory/flop hooks.  Instances are plain mutable objects:
    scheduling passes reorder them but never mutate operands.  Every
    instruction class is ``slots=True``: traces hold millions of these
    during out-of-cache sweeps, and slotted instances are both smaller and
    faster to construct than ``__dict__``-backed ones.
    """

    mnemonic = "nop"
    port = PortClass.SCALAR

    def reads(self) -> Tuple[DepKey, ...]:
        """Scoreboard keys this instruction waits on."""
        return ()

    def writes(self) -> Tuple[DepKey, ...]:
        """Scoreboard keys this instruction produces."""
        return ()

    def mem_reads(self) -> Tuple[Tuple[int, int], ...]:
        """``(word_address, word_count)`` regions loaded from memory."""
        return ()

    def mem_writes(self) -> Tuple[Tuple[int, int], ...]:
        """``(word_address, word_count)`` regions stored to memory."""
        return ()

    @property
    def flops(self) -> int:
        """Machine flops consumed (peak-capability accounting)."""
        return 0

    @property
    def useful_flops(self) -> int:
        """Flops that contribute to the stencil result (defaults to flops)."""
        return self.flops


# ---------------------------------------------------------------------------
# Memory instructions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LD1D(Instruction):
    """Contiguous vector load: ``dst <- mem[addr : addr+mask]``.

    ``mask`` is the active-lane count (whilelo-style predication); inactive
    lanes are zero-filled.  Tail blocks of non-conforming grids use it.
    """

    dst: VReg
    addr: int
    mask: int = SVL_LANES

    mnemonic = "ld1d"
    port = PortClass.LOAD

    def __post_init__(self) -> None:
        if not 1 <= self.mask <= SVL_LANES:
            raise ValueError(f"load mask out of range: {self.mask}")

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    def mem_reads(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.addr, self.mask),)


@dataclass(slots=True)
class LD1D_STRIDED(Instruction):
    """Strided (gather) vector load: ``dst[k] <- mem[addr + k*stride]``.

    Used by the inner-axis (vertical) outer-product variant, whose
    column-wise accesses are exactly the non-contiguous pattern the paper
    blames for Mat-ortho's poor performance.  The cache model sees eight
    separate one-word touches.
    """

    dst: VReg
    addr: int
    stride: int

    mnemonic = "ld1d.s"
    port = PortClass.LOAD

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    def mem_reads(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((self.addr + k * self.stride, 1) for k in range(SVL_LANES))


@dataclass(slots=True)
class ST1D(Instruction):
    """Contiguous vector store: ``mem[addr : addr+mask] <- src[:mask]``."""

    src: VReg
    addr: int
    mask: int = SVL_LANES

    mnemonic = "st1d"
    port = PortClass.STORE

    def __post_init__(self) -> None:
        if not 1 <= self.mask <= SVL_LANES:
            raise ValueError(f"store mask out of range: {self.mask}")

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.src.index],)

    def mem_writes(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.addr, self.mask),)


@dataclass(slots=True)
class ST1D_SLICE(Instruction):
    """Store one horizontal tile slice: ``mem[addr : addr+8] <- tile[row]``.

    This is the instruction behind the scattered-store optimization: slice
    ``row`` only needs that row's accumulation to be complete, so eager
    stores interleave with the remaining outer products.
    """

    tile: TileReg
    row: int
    addr: int
    mask: int = SVL_LANES

    mnemonic = "st1d.za"
    port = PortClass.STORE

    def __post_init__(self) -> None:
        if not 1 <= self.mask <= SVL_LANES:
            raise ValueError(f"store mask out of range: {self.mask}")

    def reads(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, (self.row,))

    def mem_writes(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.addr, self.mask),)


@dataclass(slots=True)
class PRFM(Instruction):
    """Software prefetch of the cache line(s) covering ``addr``.

    ``write`` hints a store target (prefetch-for-write); ``level`` selects
    the target cache level (1 = L1).  Occupies a load-port slot but never
    creates a register dependency, so it hides entirely under computation
    when scheduled as Section 3.3 prescribes.
    """

    addr: int
    level: int = 1
    write: bool = False
    length: int = SVL_LANES

    mnemonic = "prfm"
    port = PortClass.LOAD


# ---------------------------------------------------------------------------
# Vector instructions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FMLA(Instruction):
    """Vector multiply-accumulate: ``dst += a * b`` (lane-wise)."""

    dst: VReg
    a: VReg
    b: VReg

    mnemonic = "fmla"
    port = PortClass.VECTOR

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index], VREG_NAMES[self.a.index], VREG_NAMES[self.b.index])

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    @property
    def flops(self) -> int:
        return 2 * SVL_LANES


@dataclass(slots=True)
class FMLA_IDX(Instruction):
    """Indexed MLA: ``dst += a * b[idx]`` (scalar element broadcast).

    This is the gather-form workhorse (Figure 4a): the coefficient lives in
    one lane of a coefficient register and multiplies a whole loaded row.
    """

    dst: VReg
    a: VReg
    b: VReg
    idx: int

    mnemonic = "fmla.idx"
    port = PortClass.VECTOR

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index], VREG_NAMES[self.a.index], VREG_NAMES[self.b.index])

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    @property
    def flops(self) -> int:
        return 2 * SVL_LANES


@dataclass(slots=True)
class FMUL_IDX(Instruction):
    """Indexed multiply (no accumulate): ``dst = a * b[idx]``.

    Starts an MLA chain without a separate zeroing instruction.
    """

    dst: VReg
    a: VReg
    b: VReg
    idx: int

    mnemonic = "fmul.idx"
    port = PortClass.VECTOR

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.a.index], VREG_NAMES[self.b.index])

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    @property
    def flops(self) -> int:
        return SVL_LANES


@dataclass(slots=True)
class FADD_V(Instruction):
    """Vector add: ``dst = a + b``."""

    dst: VReg
    a: VReg
    b: VReg

    mnemonic = "fadd"
    port = PortClass.VECTOR

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.a.index], VREG_NAMES[self.b.index])

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)

    @property
    def flops(self) -> int:
        return SVL_LANES


@dataclass(slots=True)
class EXT(Instruction):
    """Extract/concatenate: ``dst = concat(a, b)[imm : imm+8]``.

    The data-reuse primitive of Section 3.1.2: two adjacent loaded rows are
    concatenated and shifted to synthesize the ``j-1`` / ``j+1`` neighbour
    vectors without reloading.  Executes on the vector pipeline, which is
    why it contends with FMLA (Section 3.2.1) and why the EXT->LD
    replacement pass exists.
    """

    dst: VReg
    a: VReg
    b: VReg
    imm: int

    mnemonic = "ext"
    port = PortClass.VECTOR

    def __post_init__(self) -> None:
        if not 0 <= self.imm <= SVL_LANES:
            raise ValueError(f"EXT immediate out of range: {self.imm}")

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.a.index], VREG_NAMES[self.b.index])

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)


@dataclass(slots=True)
class DUP(Instruction):
    """Broadcast an immediate into all lanes: ``dst = [value] * 8``."""

    dst: VReg
    value: float

    mnemonic = "dup"
    port = PortClass.VECTOR

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)


@dataclass(slots=True)
class SET_LANES(Instruction):
    """Materialize an arbitrary 8-lane constant (coefficient vector).

    Stands in for the small setup sequence (index/insert ops) a real kernel
    uses to build coefficient vectors; kernels emit it only in preambles, so
    its exact cost is irrelevant to steady-state measurements.
    """

    dst: VReg
    values: Tuple[float, ...]

    mnemonic = "setl"
    port = PortClass.VECTOR

    def __post_init__(self) -> None:
        if len(self.values) != SVL_LANES:
            raise ValueError(f"SET_LANES needs {SVL_LANES} values, got {len(self.values)}")
        self.values = tuple(float(v) for v in self.values)

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)


# ---------------------------------------------------------------------------
# Matrix instructions
# ---------------------------------------------------------------------------


#: Sorted, de-duplicated lanes by raw ``rows``/``useful_cols`` tuple.  FMOPA
#: is built on every emit and every stored-trace decode; only raw tuples
#: whose lanes passed the range check are entered.
_LANES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _lanes(raw: Iterable[int], what: str) -> Tuple[int, ...]:
    cacheable = type(raw) is tuple
    if cacheable:
        lanes = _LANES.get(raw)  # type: ignore[arg-type]
        if lanes is not None:
            return lanes
    lanes = tuple(sorted(set(raw)))
    for lane in lanes:
        if not 0 <= lane < SVL_LANES:
            raise ValueError(f"FMOPA {what} out of range: {lane}")
    if cacheable:
        _LANES[raw] = lanes  # type: ignore[index]
    return lanes


@dataclass(slots=True)
class FMOPA(Instruction):
    """Outer-product accumulate: ``tile += outer(coef, src)``.

    ``coef`` weights tile *rows* (the scatter-form coefficient vector of
    Equation 2); ``src`` is broadcast across columns.  ``rows`` is the
    generator's static knowledge of which coefficient lanes are nonzero:
    it drives slice-granular dependence tracking and the useful-flops
    accounting behind Table 1.  When absent, all eight rows are assumed
    live (a dense coefficient vector).  ``useful_cols`` is the analogous
    column-side sparsity hint for inner-axis outer products, where the
    *source* vector is the sparse coefficient operand; it only affects
    useful-flops accounting, never dependencies (the full tile row is
    physically written).
    """

    tile: TileReg
    coef: VReg
    src: VReg
    rows: Tuple[int, ...] = field(default_factory=lambda: ALL_ROWS)
    useful_cols: Tuple[int, ...] = field(default_factory=lambda: ALL_ROWS)

    mnemonic = "fmopa"
    port = PortClass.MATRIX

    def __post_init__(self) -> None:
        self.rows = _lanes(self.rows, "row")
        self.useful_cols = _lanes(self.useful_cols, "column")

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.coef.index], VREG_NAMES[self.src.index]) + _tile_keys(
            self.tile, self.rows
        )

    def writes(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, self.rows)

    @property
    def flops(self) -> int:
        # The matrix unit always computes the full 8x8 outer product.
        return 2 * SVL_LANES * SVL_LANES

    @property
    def useful_flops(self) -> int:
        return 2 * len(self.rows) * len(self.useful_cols)


@dataclass(slots=True)
class ZERO_TILE(Instruction):
    """Clear a tile register to zeros."""

    tile: TileReg

    mnemonic = "zero"
    port = PortClass.MATRIX

    def writes(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, ALL_ROWS)


@dataclass(slots=True)
class MOVA_TILE_TO_VEC(Instruction):
    """Move a horizontal tile slice to a vector register.

    Deliberately slow (2x the FMOPA initiation interval in the LX2 preset):
    Section 3.1.1 identifies the slice-to-vector transfer as the dominant
    cost of the naive accumulation workflow, which the in-place trick
    removes.
    """

    dst: VReg
    tile: TileReg
    row: int

    mnemonic = "mova.tv"
    port = PortClass.MATRIX

    def reads(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, (self.row,))

    def writes(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.dst.index],)


@dataclass(slots=True)
class MOVA_VEC_TO_TILE(Instruction):
    """Move a vector register into a horizontal tile slice."""

    tile: TileReg
    row: int
    src: VReg

    mnemonic = "mova.vt"
    port = PortClass.MATRIX

    def reads(self) -> Tuple[DepKey, ...]:
        return (VREG_NAMES[self.src.index],)

    def writes(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, (self.row,))


@dataclass(slots=True)
class FMLA_M(Instruction):
    """Apple-M4 matrix-MLA on vector groups (the paper's "M-MLA").

    SME2-style multi-vector MLA: a *group of four consecutive vector
    registers* ``z[a_base] .. z[a_base+3]`` is multiplied by the broadcast
    element ``b[idx]`` and accumulated into the tile's **even** rows:

        for g in 0..3:  tile[2*g] += z[a_base + g] * b[idx]

    The fragmented even-row layout is the architectural fact that makes
    in-place accumulation infeasible on the M4 (Section 4.1) and forces
    the naive accumulation method there.
    """

    tile: TileReg
    a_base: VReg
    b: VReg
    idx: int

    mnemonic = "fmla.m"
    port = PortClass.MATRIX

    EVEN_ROWS: ClassVar[Tuple[int, ...]] = (0, 2, 4, 6)
    GROUP: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.a_base.index + self.GROUP > 32:
            raise ValueError("FMLA_M vector group exceeds the register file")
        if not 0 <= self.idx < SVL_LANES:
            raise ValueError(f"FMLA_M index out of range: {self.idx}")

    def group_regs(self) -> Tuple[VReg, ...]:
        from repro.isa.registers import VReg as _V

        return tuple(_V(self.a_base.index + g) for g in range(self.GROUP))

    def reads(self) -> Tuple[DepKey, ...]:
        base = self.a_base.index
        return (
            VREG_NAMES[base : base + self.GROUP]
            + (VREG_NAMES[self.b.index],)
            + _tile_keys(self.tile, self.EVEN_ROWS)
        )

    def writes(self) -> Tuple[DepKey, ...]:
        return _tile_keys(self.tile, self.EVEN_ROWS)

    @property
    def flops(self) -> int:
        return 2 * SVL_LANES * len(self.EVEN_ROWS)


# ---------------------------------------------------------------------------
# Scalar / control overhead
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SCALAR_OP(Instruction):
    """Loop-control / address-arithmetic overhead instruction.

    Functionally a no-op; exists so kernels can model the scalar-side
    instruction stream that real compiled loops carry (it contributes to
    the instruction counts behind the IPC comparisons).
    """

    kind: str = "addr"

    mnemonic = "scalar"
    port = PortClass.SCALAR


#: Every concrete instruction type, in definition order.  Tests that sweep
#: per-type behaviour iterate this tuple; it must list every
#: :class:`Instruction` subclass.
INSTRUCTION_TYPES: Tuple[type, ...] = (
    LD1D,
    LD1D_STRIDED,
    ST1D,
    ST1D_SLICE,
    PRFM,
    FMLA,
    FMLA_IDX,
    FMUL_IDX,
    FADD_V,
    EXT,
    DUP,
    SET_LANES,
    FMOPA,
    ZERO_TILE,
    MOVA_TILE_TO_VEC,
    MOVA_VEC_TO_TILE,
    FMLA_M,
    SCALAR_OP,
)
