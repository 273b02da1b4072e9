"""Fine-grained matrix-vector instruction scheduling (Section 3.2.2).

``schedule_trace`` re-orders a block's instruction trace so that load,
matrix, vector and store instructions interleave across their pipelines —
the software equivalent of the paper's hand scheduling.  The algorithm is
dependence-aware greedy list scheduling driven by the *same* issue rules
the timing engine applies (in-order frontier, operand readiness, port
initiation intervals, issue width), so what the scheduler optimizes is
exactly what the machine measures:

1. build the dependence DAG (RAW/WAR/WAW on registers and tile slices;
   memory edges only when a block actually aliases loads and stores, which
   the generated kernels never do — the check is still performed);
2. compute critical-path priorities;
3. repeatedly pick, among ready instructions, the one that can issue
   earliest on a simulated scoreboard (ties broken by critical path, then
   original order);
4. cost the candidate schedule and the original order on a cold timing
   engine and keep whichever is faster.  The scoreboard is dependence- and
   port-accurate but cache-oblivious, so degenerate traces (e.g. cold-miss
   loads hoisted between aliasing stores) can otherwise be scheduled into
   something slower than program order; the final arbitration makes the
   "scheduling never hurts" property hold by construction.

Because all interior blocks of a kernel share one register/dependence
structure (only addresses differ), the computed permutation is cached by
structural signature and re-applied in O(n) — without this, band-sampled
out-of-cache runs would re-schedule thousands of identical blocks.

A scheduled trace is a permutation of the input: functional semantics are
preserved by construction (property-tested in the test suite).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.isa.instructions import Instruction, PortClass, PRFM
from repro.isa.program import Trace
from repro.machine.config import LatencySpec, MachineConfig

#: Ready instructions examined per scheduling step (priority-ordered).
_BEAM = 24

#: Permutation cache keyed by (machine name, structural signature); each
#: permutation is kept as the ``itemgetter`` that applies it.
_PERM_CACHE: Dict[Tuple, Callable] = {}


#: Per instruction class: the ``(mnemonic, port value)`` head of its
#: signature entries (``mnemonic`` and ``port`` are class attributes; the
#: port enum's own hash is a Python-level call), and whether it has memory
#: effects the aliasing check must see.
_CLASS_INFO: Dict[type, Tuple[Tuple[str, str], bool]] = {}


def _class_info(cls: type) -> Tuple[Tuple[str, str], bool]:
    # Prefetch hints carry no ordering requirement; a class that keeps the
    # base memory hooks touches no memory.
    touches = not issubclass(cls, PRFM) and (
        cls.mem_reads is not Instruction.mem_reads
        or cls.mem_writes is not Instruction.mem_writes
    )
    info = _CLASS_INFO[cls] = ((cls.mnemonic, cls.port.value), touches)
    return info


def _signature(trace: Sequence[Instruction]) -> Tuple[Tuple, bool]:
    """Structural signature and whether the block aliases memory.

    The signature covers registers and ports, addresses ignored; it is the
    permutation-cache key.  A block aliases when any store overlaps any
    load or another store.  Either case requires memory ordering edges
    (and disables permutation caching).  The generated kernels keep loads
    and stores in disjoint regions and never store twice to the same words
    within a block, so the fast path applies to them; hand-written traces
    get the safe path.
    """
    info_of = _CLASS_INFO.get
    sig = []
    sig_app = sig.append
    stores: List[Tuple[int, int]] = []
    loads: List[Tuple[int, int]] = []
    for ins in trace:
        cls = type(ins)
        info = info_of(cls) or _class_info(cls)
        sig_app((info[0], ins.reads(), ins.writes()))
        if info[1]:
            for a, n in ins.mem_writes():
                stores.append((a, a + n))
            for a, n in ins.mem_reads():
                loads.append((a, a + n))
    return tuple(sig), _overlaps(stores, loads)


def _overlaps(stores: List[Tuple[int, int]], loads: List[Tuple[int, int]]) -> bool:
    """True if any store interval overlaps a load or another store."""
    if not stores:
        return False
    stores.sort()
    # store-store overlap (WAW on memory)
    for (lo_a, hi_a), (lo_b, _hi_b) in zip(stores, stores[1:]):
        if lo_b < hi_a:
            return True
    loads.sort()
    si = 0
    for lo, hi in loads:
        while si < len(stores) and stores[si][1] <= lo:
            si += 1
        if si < len(stores) and stores[si][0] < hi:
            return True
    return False


def _build_dag(
    trace: Sequence[Instruction], memory_edges: bool
) -> Tuple[List[List[int]], List[int]]:
    """Return (successors, indegree) of the dependence DAG."""
    n = len(trace)
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    edges = set()

    def add_edge(a: int, b: int) -> None:
        if a != b and (a, b) not in edges:
            edges.add((a, b))
            succs[a].append(b)
            indeg[b] += 1

    last_writer: Dict[object, int] = {}
    readers: Dict[object, List[int]] = {}
    mem_stores: List[Tuple[int, int, int]] = []
    mem_loads: List[Tuple[int, int, int]] = []

    for idx, ins in enumerate(trace):
        for key in ins.reads():
            if key in last_writer:
                add_edge(last_writer[key], idx)  # RAW
            readers.setdefault(key, []).append(idx)
        for key in ins.writes():
            if key in last_writer:
                add_edge(last_writer[key], idx)  # WAW
            for r in readers.get(key, ()):  # WAR
                add_edge(r, idx)
            last_writer[key] = idx
            readers[key] = []
        if memory_edges and not isinstance(ins, PRFM):
            for a, cnt in ins.mem_reads():
                for sa, se, sidx in mem_stores:
                    if sa < a + cnt and a < se:
                        add_edge(sidx, idx)
                mem_loads.append((a, a + cnt, idx))
            for a, cnt in ins.mem_writes():
                for sa, se, sidx in mem_stores:
                    if sa < a + cnt and a < se:
                        add_edge(sidx, idx)
                for la, le, lidx in mem_loads:
                    if la < a + cnt and a < le:
                        add_edge(lidx, idx)
                mem_stores.append((a, a + cnt, idx))
    return succs, indeg


def _critical_paths(specs: Sequence[LatencySpec], succs: List[List[int]]) -> List[int]:
    """Longest latency path from each node to any sink."""
    n = len(specs)
    cp = [0] * n
    for idx in range(n - 1, -1, -1):
        best = 0
        for s in succs[idx]:
            if cp[s] > best:
                best = cp[s]
        cp[idx] = specs[idx].latency + best
    return cp


def _greedy_order(
    trace: Sequence[Instruction],
    succs: List[List[int]],
    indeg: List[int],
    config: MachineConfig,
) -> List[int]:
    """Greedy list scheduling against a simulated scoreboard."""
    n = len(trace)
    indeg = list(indeg)
    ready: List[int] = [i for i in range(n) if indeg[i] == 0]

    reg_ready: Dict[object, int] = {}
    port_free: Dict[PortClass, List[int]] = {
        port: [0] * count for port, count in config.ports.items()
    }
    # Each instruction's operands, pipes and latency, looked up once.
    deps = [ins.reads() + ins.writes() for ins in trace]
    pipes_of = [port_free[ins.port] for ins in trace]
    specs = [config.latency_for(ins) for ins in trace]
    issue_width = config.issue_width
    frontier = 0
    cycle = 0
    issued = 0
    order: List[int] = []

    def estimate(idx: int) -> int:
        t = frontier
        for key in deps[idx]:
            r = reg_ready.get(key, 0)
            if r > t:
                t = r
        p = min(pipes_of[idx])
        if p > t:
            t = p
        if t == cycle and issued >= issue_width:
            t += 1
        return t

    cps = _critical_paths(specs, succs)
    priority = [(-cps[i], i) for i in range(n)]

    while ready:
        # Examine the highest-priority ready instructions and commit the
        # one that can issue earliest.
        ready.sort(key=priority.__getitem__)
        best_key = None
        for i in ready[:_BEAM]:
            key = (estimate(i), -cps[i], i)
            if best_key is None or key < best_key:
                best_key = key
        assert best_key is not None
        # Nothing ``estimate`` reads has changed since the scan.
        t, _, best_idx = best_key
        ready.remove(best_idx)
        spec = specs[best_idx]
        if t > cycle:
            cycle = t
            issued = 0
        issued += 1
        pipes = pipes_of[best_idx]
        pipe = min(range(len(pipes)), key=pipes.__getitem__)
        pipes[pipe] = t + spec.initiation_interval
        frontier = t
        done = t + spec.latency
        for key in trace[best_idx].writes():
            reg_ready[key] = done
        order.append(best_idx)
        for s in succs[best_idx]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)

    if len(order) != n:
        raise RuntimeError("scheduling failed to order all instructions (cyclic deps?)")
    return order


def _arbitrated_perm(
    trace: Sequence[Instruction], perm: Sequence[int], config: MachineConfig
) -> Tuple[int, ...]:
    """Keep ``perm`` only if it is no slower than program order when timed.

    Both orders are costed on a cold machine, exactly how the scheduling
    quality properties measure them.  The greedy scoreboard ignores the
    cache hierarchy, so this guard is what turns "usually helps" into
    "never hurts".
    """
    from repro.machine.timing import TimingEngine

    scheduled = TimingEngine(config).run_trace(Trace(trace[i] for i in perm))
    original = TimingEngine(config).run_trace(Trace(trace))
    if scheduled.cycles <= original.cycles:
        return tuple(perm)
    return tuple(range(len(trace)))


def schedule_trace(
    trace: Sequence[Instruction],
    config: MachineConfig,
    window: int = 0,
) -> Trace:
    """Reorder a block trace for ILP; semantics-preserving.

    ``window = 0`` schedules the whole block at once — the paper's manual
    fine-grained matrix-vector interleaving.  A positive ``window``
    schedules fixed-size chunks independently, never moving an instruction
    across a chunk boundary: this models the *baseline* a real toolchain
    provides (the compiler's basic-block scheduler plus the core's limited
    reorder capability), which every kernel — including the comparison
    methods — enjoys.  The Figure 13 scheduling ablation is therefore the
    delta between local (windowed) and global scheduling, not between
    scheduled and pathologically serialized code.
    """
    if len(trace) <= 2:
        return Trace(trace)
    if window and window > 0 and len(trace) > window:
        out = Trace()
        for start in range(0, len(trace), window):
            out.extend(schedule_trace(trace[start : start + window], config, window=0))
        return out
    signature, aliasing = _signature(trace)
    if not aliasing:
        key = (config.name, signature)
        gather = _PERM_CACHE.get(key)
        if gather is None:
            succs, indeg = _build_dag(trace, memory_edges=False)
            perm = _arbitrated_perm(trace, _greedy_order(trace, succs, indeg, config), config)
            gather = _PERM_CACHE[key] = itemgetter(*perm)
        return Trace(gather(trace))
    succs, indeg = _build_dag(trace, memory_edges=True)
    order = _arbitrated_perm(trace, _greedy_order(trace, succs, indeg, config), config)
    return Trace(trace[i] for i in order)


def clear_schedule_cache() -> None:
    """Drop the permutation cache (tests / memory hygiene)."""
    _PERM_CACHE.clear()
