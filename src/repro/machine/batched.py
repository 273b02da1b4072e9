"""Lockstep batched functional replay of shape-class block runs.

``FunctionalEngine.execute_template`` replays one block at a time: a Python
loop over the template's :class:`~repro.machine.compiled.FunctionalProgram`
per block, thousands of times per sweep with only addresses changing.  This
module executes a whole *run* of same-template blocks **one opcode at a time
across the entire batch**: the register file becomes a struct-of-blocks
array (``(n_blocks, NUM_VREGS, SVL_LANES)`` vectors, ``(n_blocks,
NUM_TILES, SVL_LANES, SVL_LANES)`` tiles), loads gather and stores scatter
against one flat float64 snapshot of the touched span, and every arithmetic
op is a single vectorized NumPy statement — so a sweep cell costs
O(program length) Python steps instead of O(blocks x program length).

Bit-identity with the sequential walk is guaranteed by two *checked*
preconditions; any failure falls back to the per-block replay:

* **register independence** — no register the program reads before writing
  (its live-in set) is ever written by the program.  Sequentially, block
  ``k``'s live-ins then come out of state no earlier block changed, so all
  blocks see identical live-in values and the lockstep register file is
  exact.  Partially-written tiles (slice moves, strided-row FMLA_M) count
  as read-modify-write, so a tile carried across blocks is never batched
  into divergence.
* **memory disjointness** — across the whole batch, every stored word is
  stored exactly once and no stored word is ever loaded (by any block,
  itself included).  Loads may then all gather from the pre-batch snapshot
  and stores may scatter in any order: the interleaving the lockstep
  execution changes is unobservable.  The check is exact, on the actual
  word sets, not on hulls.

Per-lane IEEE arithmetic is elementwise identical under batching (the same
multiplies and adds on the same values, just stacked), so the grids and the
instruction counts the equivalence tests compare come out bit-equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.registers import NUM_TILES, NUM_VREGS, SVL_LANES
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
from repro.machine.memory import PAGE_WORDS

#: Batches below this many blocks are not worth the setup cost.
MIN_BATCH = 4

#: Spans above this many words (128 MiB of float64) are not snapshotted.
MAX_SPAN_WORDS = 1 << 24


def template_runs(entries: Sequence) -> List[Tuple[object, int, int]]:
    """Group template-lookup results into maximal same-template runs.

    ``entries`` holds, per block, either ``None`` (no template — reference
    walk) or a ``(template, addrs)`` pair.  Returns ``(template_or_None,
    lo, hi)`` half-open runs of consecutive blocks sharing one template
    identity, in order.  This is the batching granularity both lockstep
    functional replay and columnar timing replay operate on: everything a
    run shares (program, address matrix, batch plan) is computed once per
    run instead of once per block.
    """
    runs: List[Tuple[object, int, int]] = []
    i = 0
    n = len(entries)
    while i < n:
        entry = entries[i]
        template = None if entry is None else entry[0]
        j = i + 1
        while j < n:
            nxt = entries[j]
            if (None if nxt is None else nxt[0]) is not template:
                break
            j += 1
        runs.append((template, i, j))
        i = j
    return runs


class BatchPlan:
    """Static batchability analysis of one :class:`FunctionalProgram`."""

    __slots__ = ("batchable", "loads", "stores")

    def __init__(
        self,
        batchable: bool,
        loads: Tuple[Tuple[int, int, int], ...],
        stores: Tuple[Tuple[int, int], ...],
    ) -> None:
        #: Register independence holds (memory checks are per batch).
        self.batchable = batchable
        #: ``(addr_idx, nwords, stride)`` per load op.
        self.loads = loads
        #: ``(addr_idx, nwords)`` per store op.
        self.stores = stores


def analyze_program(program: FunctionalProgram) -> BatchPlan:
    """Register-independence analysis + memory-op extraction (see module doc)."""
    full_v: set = set()
    full_t: set = set()
    written: set = set()  # ("v"|"t", index) — any write, partial included
    live_in: set = set()
    loads: List[Tuple[int, int, int]] = []
    stores: List[Tuple[int, int]] = []

    def read_v(i: int) -> None:
        if i not in full_v:
            live_in.add(("v", i))

    def read_t(i: int) -> None:
        if i not in full_t:
            live_in.add(("t", i))

    for op in program.ops:
        code = op[0]
        if code == F_LD:
            loads.append((op[2], SVL_LANES, 1))
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_LD_TAIL:
            loads.append((op[2], op[3], 1))
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_LD_STRIDED:
            loads.append((op[2], SVL_LANES, op[3]))
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_ST:
            read_v(op[1])
            stores.append((op[2], op[3]))
        elif code == F_ST_SLICE:
            read_t(op[1])
            stores.append((op[3], op[4]))
        elif code == F_FMLA or code == F_FMLA_IDX:
            read_v(op[1]); read_v(op[2]); read_v(op[3])
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_FMUL_IDX or code == F_FADD or code == F_EXT:
            read_v(op[2]); read_v(op[3])
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_CONST:
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_FMOPA:
            read_t(op[1]); read_v(op[2]); read_v(op[3])
            full_t.add(op[1]); written.add(("t", op[1]))
        elif code == F_ZERO:
            full_t.add(op[1]); written.add(("t", op[1]))
        elif code == F_MOVA_TV:
            read_t(op[2])
            full_v.add(op[1]); written.add(("v", op[1]))
        elif code == F_MOVA_VT:
            read_v(op[3]); read_t(op[1])  # partial tile write: RMW
            written.add(("t", op[1]))
        elif code == F_FMLA_M:
            read_v(op[3]); read_t(op[1])  # partial tile write: RMW
            for g in range(4):
                read_v(op[2] + g)
            written.add(("t", op[1]))
        else:  # unknown opcode: never batch (the sequential path will raise)
            return BatchPlan(False, (), ())

    batchable = not (live_in & written)
    return BatchPlan(batchable, tuple(loads), tuple(stores))


def _word_sets(
    plan: BatchPlan, addrs_mat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All (block, op) load / store word addresses, flattened."""
    load_parts = [
        (addrs_mat[:, i][:, None] + np.arange(n, dtype=np.int64) * stride).ravel()
        for i, n, stride in plan.loads
    ]
    store_parts = [
        (addrs_mat[:, i][:, None] + np.arange(n, dtype=np.int64)).ravel()
        for i, n in plan.stores
    ]
    empty = np.empty(0, dtype=np.int64)
    loads = np.concatenate(load_parts) if load_parts else empty
    stores = np.concatenate(store_parts) if store_parts else empty
    return loads, stores


class BatchReplayer:
    """Executes runs of same-template blocks for one ``FunctionalEngine``.

    Owns the per-program :class:`BatchPlan` cache for one kernel run; the
    cache holds strong references to the programs, so identity keying is
    safe for the replayer's lifetime.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._plans: Dict[FunctionalProgram, BatchPlan] = {}
        #: Instrumentation: blocks executed batched vs singly.
        self.batched_blocks = 0
        self.sequential_blocks = 0

    # ------------------------------------------------------------------

    def run(self, program: FunctionalProgram, addrs_list: List[Sequence[int]]) -> None:
        """Execute a run of blocks sharing ``program``, batched when safe."""
        if len(addrs_list) >= MIN_BATCH:
            plan = self._plans.get(program)
            if plan is None:
                plan = analyze_program(program)
                self._plans[program] = plan
            if plan.batchable and self._run_batched(program, plan, addrs_list):
                self.batched_blocks += len(addrs_list)
                return
        engine = self.engine
        self.sequential_blocks += len(addrs_list)
        for addrs in addrs_list:
            engine.execute_template(program, addrs)

    # ------------------------------------------------------------------

    def _run_batched(
        self,
        program: FunctionalProgram,
        plan: BatchPlan,
        addrs_list: List[Sequence[int]],
    ) -> bool:
        """Lockstep execution; returns False to request the sequential path."""
        engine = self.engine
        mem = engine.memory
        addrs_mat = np.asarray(addrs_list, dtype=np.int64)
        loads, stores = _word_sets(plan, addrs_mat)

        # Bounds: everything must be inside allocated space (out-of-bounds
        # accesses take the sequential path so they raise the canonical
        # errors), and the touched span must be snapshot-sized.
        touched = [a for a in (loads, stores) if a.size]
        if not touched:
            lo, hi = 0, 0
        else:
            lo = int(min(a.min() for a in touched))
            hi = int(max(a.max() for a in touched)) + 1
            if lo < mem._BASE or hi > mem._next or hi - lo > MAX_SPAN_WORDS:
                return False

        # Memory disjointness (exact, word-granular): every stored word is
        # stored once across the whole batch, and never loaded.
        store_unique = np.unique(stores)
        if store_unique.size != stores.size:
            return False
        if loads.size and store_unique.size and np.isin(
            store_unique, np.unique(loads), assume_unique=True
        ).any():
            return False

        # Snapshot the touched span as one flat array (absent pages read 0).
        flat = np.zeros(hi - lo, dtype=np.float64)
        if hi > lo:
            first_page, last_page = lo // PAGE_WORDS, (hi - 1) // PAGE_WORDS
            pages = mem._pages
            for page_id in range(first_page, last_page + 1):
                page = pages.get(page_id)
                if page is None:
                    continue
                base = page_id * PAGE_WORDS
                src_lo, src_hi = max(lo, base), min(hi, base + PAGE_WORDS)
                flat[src_lo - lo : src_hi - lo] = page[src_lo - base : src_hi - base]

        self._execute_ops(program, addrs_mat, flat, lo)

        # Scatter the stored words back into the paged memory.
        if store_unique.size:
            values = flat[store_unique - lo]
            page_ids = store_unique // PAGE_WORDS
            boundaries = np.nonzero(np.diff(page_ids))[0] + 1
            for words, vals in zip(
                np.split(store_unique, boundaries), np.split(values, boundaries)
            ):
                page, _ = mem._page_for(int(words[0]), create=True)
                page[words - int(words[0] // PAGE_WORDS) * PAGE_WORDS] = vals

        engine.instructions_executed += program.count * len(addrs_list)
        return True

    def _execute_ops(
        self,
        program: FunctionalProgram,
        addrs_mat: np.ndarray,
        flat: np.ndarray,
        lo: int,
    ) -> None:
        """One opcode at a time across the whole batch (see module doc)."""
        engine = self.engine
        n_blocks = addrs_mat.shape[0]
        lanes = SVL_LANES
        # Struct-of-blocks register file, seeded with the sequential state:
        # live-ins are identical for every block (checked), everything else
        # is written before read.
        V = np.broadcast_to(
            engine.regs._vregs, (n_blocks, NUM_VREGS, lanes)
        ).copy()
        T = np.broadcast_to(
            engine.regs._tiles, (n_blocks, NUM_TILES, lanes, lanes)
        ).copy()
        lane_idx = np.arange(lanes, dtype=np.int64)

        for op in program.ops:
            code = op[0]
            if code == F_FMLA:
                V[:, op[1]] += V[:, op[2]] * V[:, op[3]]
            elif code == F_FMLA_IDX:
                V[:, op[1]] += V[:, op[2]] * V[:, op[3], op[4], None]
            elif code == F_LD:
                V[:, op[1]] = flat[(addrs_mat[:, op[2]] - lo)[:, None] + lane_idx]
            elif code == F_EXT:
                imm = op[4]
                if imm == 0:
                    V[:, op[1]] = V[:, op[2]]
                elif imm == lanes:
                    V[:, op[1]] = V[:, op[3]]
                else:
                    out = np.empty((n_blocks, lanes))
                    out[:, : lanes - imm] = V[:, op[2], imm:]
                    out[:, lanes - imm :] = V[:, op[3], :imm]
                    V[:, op[1]] = out
            elif code == F_FMOPA:
                T[:, op[1]] += V[:, op[2], :, None] * V[:, op[3], None, :]
            elif code == F_ST:
                mask = op[3]
                flat[(addrs_mat[:, op[2]] - lo)[:, None] + lane_idx[:mask]] = V[
                    :, op[1], :mask
                ]
            elif code == F_ST_SLICE:
                mask = op[4]
                flat[(addrs_mat[:, op[3]] - lo)[:, None] + lane_idx[:mask]] = T[
                    :, op[1], op[2], :mask
                ]
            elif code == F_FMUL_IDX:
                V[:, op[1]] = V[:, op[2]] * V[:, op[3], op[4], None]
            elif code == F_FADD:
                V[:, op[1]] = V[:, op[2]] + V[:, op[3]]
            elif code == F_LD_TAIL:
                mask = op[3]
                V[:, op[1], mask:] = 0.0
                V[:, op[1], :mask] = flat[
                    (addrs_mat[:, op[2]] - lo)[:, None] + lane_idx[:mask]
                ]
            elif code == F_LD_STRIDED:
                V[:, op[1]] = flat[
                    (addrs_mat[:, op[2]] - lo)[:, None] + lane_idx * op[3]
                ]
            elif code == F_CONST:
                V[:, op[1]] = op[2]
            elif code == F_ZERO:
                T[:, op[1]] = 0.0
            elif code == F_MOVA_TV:
                V[:, op[1]] = T[:, op[2], op[3]]
            elif code == F_MOVA_VT:
                T[:, op[1], op[2]] = V[:, op[3]]
            elif code == F_FMLA_M:
                scalar = V[:, op[3], op[4], None]
                for g in range(4):
                    T[:, op[1], 2 * g] += V[:, op[2] + g] * scalar
            else:  # pragma: no cover — analyze_program rejects unknown ops
                raise ValueError(f"unknown functional opcode {code}")

        # Architectural state after the batch == state after the last block.
        engine.regs._vregs[:] = V[-1]
        engine.regs._tiles[:] = T[-1]
