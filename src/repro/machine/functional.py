"""Functional (semantic) execution of instruction traces.

This engine gives every kernel its ground truth: it interprets each
instruction against a :class:`~repro.isa.registers.RegisterFile` and a
:class:`~repro.machine.memory.MemorySpace`, so a generated kernel is correct
iff the grid it leaves in memory matches the NumPy reference stencil.  All
stencil-correctness tests and the in-place-accumulation exactness property
run through here.

The engine is deliberately straight-line Python + small NumPy vectors; it is
fast enough for the grid sizes tests use (up to ~256x256 full grids, or
sampled bands of the out-of-cache sizes).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.isa.instructions import (
    DUP,
    EXT,
    FADD_V,
    FMLA,
    FMLA_IDX,
    FMLA_M,
    FMOPA,
    FMUL_IDX,
    Instruction,
    LD1D,
    LD1D_STRIDED,
    MOVA_TILE_TO_VEC,
    MOVA_VEC_TO_TILE,
    PRFM,
    SCALAR_OP,
    SET_LANES,
    ST1D,
    ST1D_SLICE,
    ZERO_TILE,
)
from repro.isa.program import Kernel, KernelBlock
from repro.isa.registers import RegisterFile, SVL_LANES
from repro.machine.compiled import (
    F_CONST,
    F_EXT,
    F_FADD,
    F_FMLA,
    F_FMLA_IDX,
    F_FMLA_M,
    F_FMOPA,
    F_FMUL_IDX,
    F_LD,
    F_LD_STRIDED,
    F_LD_TAIL,
    F_MOVA_TV,
    F_MOVA_VT,
    F_ST,
    F_ST_SLICE,
    F_ZERO,
    FunctionalProgram,
)
from repro.machine.memory import MemorySpace, PAGE_WORDS
from repro.machine.timing import SimMode


class FunctionalEngine:
    """Interprets instruction streams for their architectural effects."""

    def __init__(self, memory: Optional[MemorySpace] = None) -> None:
        self.memory = memory if memory is not None else MemorySpace()
        self.regs = RegisterFile()
        self.instructions_executed = 0

    def reset_registers(self) -> None:
        """Clear architectural register state between kernel runs."""
        self.regs.reset()

    # ------------------------------------------------------------------

    def execute(self, ins: Instruction) -> None:
        """Execute one instruction's semantics."""
        regs, mem = self.regs, self.memory
        self.instructions_executed += 1

        if isinstance(ins, LD1D):
            if ins.mask == SVL_LANES:
                regs.write_v(ins.dst, mem.read(ins.addr, SVL_LANES))
            else:
                lanes = np.zeros(SVL_LANES)
                lanes[: ins.mask] = mem.read(ins.addr, ins.mask)
                regs.write_v(ins.dst, lanes)
        elif isinstance(ins, LD1D_STRIDED):
            regs.write_v(ins.dst, mem.read_strided(ins.addr, SVL_LANES, ins.stride))
        elif isinstance(ins, ST1D):
            mem.write(ins.addr, regs.read_v(ins.src)[: ins.mask])
        elif isinstance(ins, ST1D_SLICE):
            mem.write(ins.addr, regs.read_slice(ins.tile, ins.row)[: ins.mask])
        elif isinstance(ins, PRFM):
            pass  # cache hint only; no architectural effect
        elif isinstance(ins, FMLA):
            regs.write_v(ins.dst, regs.read_v(ins.dst) + regs.read_v(ins.a) * regs.read_v(ins.b))
        elif isinstance(ins, FMLA_IDX):
            scalar = regs.read_v(ins.b)[ins.idx]
            regs.write_v(ins.dst, regs.read_v(ins.dst) + regs.read_v(ins.a) * scalar)
        elif isinstance(ins, FMUL_IDX):
            scalar = regs.read_v(ins.b)[ins.idx]
            regs.write_v(ins.dst, regs.read_v(ins.a) * scalar)
        elif isinstance(ins, FADD_V):
            regs.write_v(ins.dst, regs.read_v(ins.a) + regs.read_v(ins.b))
        elif isinstance(ins, EXT):
            joined = np.concatenate([regs.read_v(ins.a), regs.read_v(ins.b)])
            regs.write_v(ins.dst, joined[ins.imm : ins.imm + SVL_LANES])
        elif isinstance(ins, DUP):
            regs.write_v(ins.dst, np.full(SVL_LANES, float(ins.value)))
        elif isinstance(ins, SET_LANES):
            regs.write_v(ins.dst, np.array(ins.values, dtype=np.float64))
        elif isinstance(ins, FMOPA):
            regs.accumulate_outer(ins.tile, regs.read_v(ins.coef), regs.read_v(ins.src))
        elif isinstance(ins, ZERO_TILE):
            regs.zero_tile(ins.tile)
        elif isinstance(ins, MOVA_TILE_TO_VEC):
            regs.write_v(ins.dst, regs.read_slice(ins.tile, ins.row))
        elif isinstance(ins, MOVA_VEC_TO_TILE):
            regs.write_slice(ins.tile, ins.row, regs.read_v(ins.src))
        elif isinstance(ins, FMLA_M):
            scalar = regs.read_v(ins.b)[ins.idx]
            for g, src in enumerate(ins.group_regs()):
                row = 2 * g
                slice_ = regs.read_slice(ins.tile, row)
                regs.write_slice(ins.tile, row, slice_ + regs.read_v(src) * scalar)
        elif isinstance(ins, SCALAR_OP):
            pass  # loop/address overhead; no architectural effect
        else:
            raise TypeError(f"functional engine cannot execute {type(ins).__name__}")

    def execute_trace(self, trace: Iterable[Instruction]) -> None:
        """Execute a straight-line instruction sequence."""
        for ins in trace:
            self.execute(ins)

    def execute_template(self, program: FunctionalProgram, addrs: Sequence[int]) -> None:
        """Replay a precompiled template with rebased addresses.

        Bit-identical to :meth:`execute_trace` on the template's
        instructions carrying the given addresses: the flat ops perform the
        same IEEE operations in the same order, just without per-instruction
        ``isinstance`` chains or defensive register copies.  Loads and
        stores that stay within one memory page skip the paged read/write
        machinery (the overwhelmingly common case for line-aligned rows).
        """
        regs = self.regs
        vregs = regs._vregs
        tiles = regs._tiles
        mem = self.memory
        pages = mem._pages
        check_range = mem._check_range
        page_for = mem._page_for
        mem_base = mem._BASE
        mem_next = mem._next
        lanes = SVL_LANES
        self.instructions_executed += program.count

        for op in program.ops:
            code = op[0]
            if code == F_FMLA:
                vregs[op[1]] += vregs[op[2]] * vregs[op[3]]
            elif code == F_FMLA_IDX:
                vregs[op[1]] += vregs[op[2]] * vregs[op[3]][op[4]]
            elif code == F_LD:
                addr = addrs[op[2]]
                if addr < mem_base or addr + lanes > mem_next:
                    check_range(addr, lanes)
                page_id, off = divmod(addr, PAGE_WORDS)
                if off + lanes <= PAGE_WORDS:
                    page = pages.get(page_id)
                    if page is None:
                        vregs[op[1]] = 0.0
                    else:
                        vregs[op[1]] = page[off : off + lanes]
                else:
                    vregs[op[1]] = mem.read(addr, lanes)
            elif code == F_EXT:
                imm = op[4]
                if imm == 0:
                    vregs[op[1]] = vregs[op[2]]
                elif imm == lanes:
                    vregs[op[1]] = vregs[op[3]]
                else:
                    head = vregs[op[2]][imm:]
                    tail = vregs[op[3]][: imm]
                    out = np.empty(lanes)
                    out[: lanes - imm] = head
                    out[lanes - imm :] = tail
                    vregs[op[1]] = out
            elif code == F_FMOPA:
                tiles[op[1]] += vregs[op[2]].reshape(lanes, 1) * vregs[op[3]]
            elif code == F_ST:
                addr = addrs[op[2]]
                mask = op[3]
                if addr < mem_base or addr + mask > mem_next:
                    check_range(addr, mask)
                page_id, off = divmod(addr, PAGE_WORDS)
                if off + mask <= PAGE_WORDS:
                    page, _ = page_for(addr, True)
                    page[off : off + mask] = vregs[op[1]][: mask]
                else:
                    mem.write(addr, vregs[op[1]][: mask])
            elif code == F_ST_SLICE:
                addr = addrs[op[3]]
                mask = op[4]
                if addr < mem_base or addr + mask > mem_next:
                    check_range(addr, mask)
                page_id, off = divmod(addr, PAGE_WORDS)
                if off + mask <= PAGE_WORDS:
                    page, _ = page_for(addr, True)
                    page[off : off + mask] = tiles[op[1], op[2]][: mask]
                else:
                    mem.write(addr, tiles[op[1], op[2]][: mask])
            elif code == F_FMUL_IDX:
                vregs[op[1]] = vregs[op[2]] * vregs[op[3]][op[4]]
            elif code == F_FADD:
                vregs[op[1]] = vregs[op[2]] + vregs[op[3]]
            elif code == F_LD_TAIL:
                addr = addrs[op[2]]
                mask = op[3]
                row = vregs[op[1]]
                row[mask:] = 0.0
                row[: mask] = mem.read(addr, mask)
            elif code == F_LD_STRIDED:
                vregs[op[1]] = mem.read_strided(addrs[op[2]], lanes, op[3])
            elif code == F_CONST:
                vregs[op[1]] = op[2]
            elif code == F_ZERO:
                tiles[op[1]] = 0.0
            elif code == F_MOVA_TV:
                vregs[op[1]] = tiles[op[2], op[3]]
            elif code == F_MOVA_VT:
                tiles[op[1], op[2]] = vregs[op[3]]
            elif code == F_FMLA_M:
                scalar = vregs[op[3]][op[4]]
                tile = op[1]
                base = op[2]
                for g in range(4):
                    tiles[tile, 2 * g] += vregs[base + g] * scalar
            else:  # pragma: no cover - builder emits only known opcodes
                raise ValueError(f"unknown functional opcode {code}")

    # ------------------------------------------------------------------

    def run_kernel(self, kernel: Kernel, engine: Optional[str] = None) -> None:
        """Execute a kernel in full: preamble, then every block in order.

        ``engine`` selects the compiled template-replay fast path
        (``"compiled"``, the default) or the per-instruction reference walk
        (``"reference"``); unset, it resolves as
        :meth:`~repro.machine.timing.SimMode.resolve` does.  Both produce
        bit-identical architectural state.

        The compiled path additionally executes runs of consecutive blocks
        that share a template *batched*: one NumPy opcode at a time across
        the whole run (:mod:`repro.machine.batched`), falling back to the
        per-block replay whenever the batch safety analysis says the
        lockstep reordering could be observable.
        """
        if SimMode.resolve(engine=engine).engine == "reference":
            self.execute_trace(kernel.preamble())
            for block in kernel.loop_nest():
                self.execute_trace(kernel.emit(block))
            return
        from repro.kernels.template import TraceCompiler
        from repro.machine.batched import BatchReplayer

        nest = kernel.loop_nest()
        compiler = TraceCompiler(kernel, nest=nest)
        replayer = BatchReplayer(self)
        pending_program = None
        pending_addrs: list = []

        def flush() -> None:
            nonlocal pending_program
            if pending_program is not None:
                replayer.run(pending_program, pending_addrs)
                pending_program = None
                pending_addrs.clear()

        self.execute_trace(kernel.preamble())
        for block in nest:
            entry = compiler.lookup(block)
            if entry is not None:
                template, addrs = entry
                program = template.functional_program()
                if program is not None:
                    if program is not pending_program:
                        flush()
                        pending_program = program
                    pending_addrs.append(addrs)
                    continue
            flush()
            self.execute_trace(kernel.emit(block))
        flush()

    def run_blocks(self, kernel: Kernel, blocks: Iterable[KernelBlock]) -> None:
        """Execute the preamble plus a subset of blocks (band verification)."""
        self.execute_trace(kernel.preamble())
        for block in blocks:
            self.execute_trace(kernel.emit(block))
