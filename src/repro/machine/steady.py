"""Band-periodic steady-state elision: exact full-grid timing in O(prologue + period).

A stencil sweep's machine state at *band boundaries* is overwhelmingly
periodic once the caches reach capacity streaming: every band touches the
same line pattern shifted by one fixed stride, so the cache tags, the
prefetcher stream table and the pipeline scoreboard recur *modulo a uniform
address shift*.  This module detects that recurrence, verifies one full
period live, and then applies the remaining bands arithmetically.  The
boundaries between the measured passes of an iterated run use the same
signature, counter delta and jump with a zero shift (see
``TimingEngine._run_full``): there a recurring state needs no certificate
or verify window, because an unshifted match of the whole state is exact.

Soundness rests on three pillars:

* **A band certificate** (:func:`build_certificate`), built once per run
  (later passes reuse it while the compiler's edge width stands) from a
  representative interior band whose shape classes are already compiled:
  every block templated, every template two-frame clean, all band-moving
  operands advancing by one common per-band stride ``d_lines`` (whole cache
  lines), all band-static operands read-only and page-disjoint from the
  moving span (with a one-page margin so a prefetch stream adjacent to the
  moving region can never walk into static data).  The certificate also
  fixes the **period alignment**: a candidate period ``p`` is only eligible
  when ``p * d_lines`` is a multiple of both the L1 set count and the
  4 KiB page size, so a shift by ``p`` bands preserves L1 set indices and
  page offsets exactly.  L2 set indices are *not* constrained — the L2
  signature is compared under a set *rotation* instead, which is a true
  automorphism of LRU behaviour as long as no static line lives in L2.

* **Rebased signatures** (:func:`rebased_signature`): the machine state
  with every moving cache tag, dirty bit and stream-table entry translated
  back by ``k * d_lines`` at boundary ``k``, L2 sets read off in rotated
  order, and static lines kept fixed (tagged so a static tag can never
  collide with a translated moving one).  Stream advance counts saturate
  at ``confirm_advances``: past confirmation every count behaves the same,
  so two boundaries that differ only in how long their confirmed streams
  have run are the same state.  Without that, a stream that stays
  resident across bands never lets the state recur.  The signature is
  ``None`` — boundary ineligible — while any static line sits in L2,
  because the rotation argument needs an all-moving L2.

  A signature is only taken where a recurrence could still engage.  Two
  exact facts bound detection (``last = B - edge``):

  - **Room.**  Every eligible period ``p`` is a positive multiple of
    ``align``, and engaging needs the verify window plus one more period
    inside the interior, ``k + 2p <= last``.  So a match needs
    ``k <= last - 2*align`` and its origin ``k0 <= last - 3*align``.
    Origins past that bound are never stored, and detection stops with
    ``no-room``, signature-free, once ``k`` passes the match bound, or the
    origin bound with no live origin.  A record scan with recorded period
    ``P`` stops past ``k = last - 2P``.  This is lossless: detection walks
    ``k`` upward, so a match past these bounds comes after every match
    that has room and was already a ``no-room``.
  - **L2 occupancy.**  The rebased L2 signature lists every resident tag,
    so equal signatures hold equal L2 line counts, and within a pass the
    count never falls: fills evict one-for-one, nothing flushes or
    invalidates mid-pass, and :func:`apply_jump` relocates one-for-one and
    ends detection.  Once the count grows, every stored origin is dead and
    is dropped; a boundary that cannot be an origin skips its signature
    unless a live origin could match it.

  No origin is taken while L2 is still *filling* (count below capacity
  and above the previous boundary's).  If the state recurs from such a
  boundary ``k0``, the count is flat from there on, so ``k0 + 1`` is an
  origin of the same recurrence and detection is one band late.  That
  delay can cost a period of elision (or the engagement, if ``k0 + 1`` has
  no room) only when a recurrence starts exactly at the band where L2
  stops growing below capacity; no registry cell on either machine preset
  does (``tests/test_steady_timing.py`` pins their elided bands).

* **Probe-verify-or-demote**: a recurring digest with an aligned period is
  only a *candidate*.  One additional full period is simulated live with a
  **static watch** armed on the hierarchy (counting demand misses,
  software-prefetch fills, hardware-prefetch fills and dirty-victim
  writebacks that touch a certificate-static line, i.e. every channel by
  which a static line could enter L2 mid-period).  The elision engages only
  if the signature digest recurs again, the raw counter delta repeats
  exactly, the watch saw zero events and the compiler's edge width never
  widened.  Any mismatch demotes the run permanently to the plain band
  walk — the result is then simply the exact simulation, never an
  approximation.

The engaged jump multiplies the verified per-period counter delta onto the
raw pipeline/cache/prefetcher counters (exact integer arithmetic: every
counter is an integer), shifts every moving line by ``m * p * d_lines``
and every scoreboard/port timestamp by the period's cycle delta.  Verified
``(period, delta, digest)`` records persist in the artifact store so warm
processes skip detection and go straight to the verification window.

A record therefore engages exactly one period earlier than live
detection.  Detection has to see the state twice, at an origin ``k0`` and
again at ``k0 + p``, before its verify window starts; a record scan starts
verifying at the first boundary whose digest matches the recorded one,
``k0`` itself.  Counters are identical either way, but a record-mode pass
elides one more period of bands: 40 instead of 32 on the period-8 LX2
box2d25p cells ``hstencil`` 515x512, ``hstencil-prefetch`` 512x512 and
``matrix-only`` 512x512.  :attr:`SteadyStats.elided_bands` (and with it
``machine.steady.elided_band_frac``) thus depends on whether a record was
available.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.machine import artifacts
from repro.machine.config import MachineConfig
from repro.machine.pipeline import PipelineModel
from repro.machine.prefetcher import LINES_PER_PAGE, _Stream

#: Grids with fewer bands than this never amortize detection + verification.
MIN_BANDS = 8

#: Moving spans smaller than this many L2 capacities are (near-)resident:
#: band boundaries then depend on the whole access history rather than a
#: streaming window, recurrence is unlikely, and the per-boundary signature
#: walk would be pure overhead on in-cache workloads.
SPAN_L2_FACTOR = 2

#: Detection gives up (and stops paying for signatures) when no aligned
#: recurrence appeared within this many aligned periods plus slack.
DETECT_ALIGN_WINDOW = 6
DETECT_SLACK = 8

#: Pages of clearance required between static lines and the moving span.
PAGE_MARGIN = 1

#: Number of integer fields in a raw counter vector (ports excluded).
_N_RAW = 24


@dataclass
class SteadyStats:
    """Run-level accounting for the steady-state controller.

    ``elided_bands`` depends on where the period came from: a pass in
    ``record_mode`` engages one period earlier than live detection (see
    the module doc), so it elides ``period`` more bands with identical
    counters.
    """

    detect_sigs: int = 0
    record_probes: int = 0
    candidates: int = 0
    verified: int = 0
    engaged: int = 0
    demoted: int = 0
    elided_bands: int = 0
    #: Measured passes applied by the pass-boundary jump (pass boundaries
    #: only; every other field counts band boundaries).
    elided_passes: int = 0
    record_mode: bool = False
    disabled: str = ""

    def to_dict(self) -> Dict:
        return {
            "detect_sigs": self.detect_sigs,
            "record_probes": self.record_probes,
            "candidates": self.candidates,
            "verified": self.verified,
            "engaged": self.engaged,
            "demoted": self.demoted,
            "elided_bands": self.elided_bands,
            "elided_passes": self.elided_passes,
            "record_mode": self.record_mode,
            "disabled": self.disabled,
        }


@dataclass(frozen=True)
class BandCertificate:
    """Static proof obligations for band-periodic elision (see module doc)."""

    edge: int
    d_lines: int
    align: int
    static_lines: frozenset
    span_lines: int


def _band_operands(template) -> Tuple[Tuple[int, ...], bool, Tuple, Tuple]:
    """A template's memory operands, split by band motion (block-invariant).

    Returns ``(moves, static_store, moving, static)``: ``moves`` lists the
    nonzero band-dimension delta of every band-moving operand in program
    order up to the first static store, ``static_store`` says whether one
    exists, and ``moving``/``static`` hold ``(addr_index, lo, hi)`` arrays
    with each operand's word extent relative to its rebased address.  An
    operand's classification and relative extent depend only on the
    instruction, so one walk of the template serves every block of its
    class (:func:`repro.kernels.template.operand_extents` rebases by the
    same shift).
    """
    from repro.kernels.template import operand_extents

    delta0 = next((delta for d, delta in template.deltas if d == 0), None)
    addr0 = template._addr0_list
    moves: List[int] = []
    static_store = False
    moving: List[Tuple[int, int, int]] = []
    static: List[Tuple[int, int, int]] = []
    for aidx, lo, hi, writes in operand_extents(template.trace, addr0):
        v = 0 if delta0 is None else int(delta0[aidx])
        if v == 0 and writes:
            static_store = True
        if not static_store and v:
            moves.append(v)
        base = addr0[aidx]
        (moving if v else static).append((aidx, lo - base, hi - base))

    def arrays(ops):
        return tuple(np.asarray(col, dtype=np.int64) for col in zip(*ops)) if ops else ()

    return tuple(moves), static_store, arrays(moving), arrays(static)


def build_certificate(
    compiler, bands, config: MachineConfig
) -> Tuple[Optional[BandCertificate], str]:
    """Certify a kernel's bands for periodic elision, or explain why not.

    Must be called only after at least one interior band has executed, so
    every interior shape class is already resolved — ``compiler.lookup``
    then never triggers new probe emits or edge widening.

    The checks read the representative band ``bands[edge]`` block by
    block, in order, with each template's operands classified once
    (:func:`_band_operands`).  The moving span is computed, and in-cache
    cells refused, before any static line is collected.
    """
    edge = compiler.edge
    B = len(bands)
    if B < MIN_BANDS or B <= 2 * edge + 2:
        return None, "too-few-bands"
    keys = []
    for band in bands:
        k0s = {b.key[0] for b in band}
        if len(k0s) != 1:
            return None, "mixed-band-keys"
        keys.append(k0s.pop())
    step = keys[1] - keys[0]
    if step <= 0 or any(keys[i + 1] - keys[i] != step for i in range(B - 1)):
        return None, "nonuniform-band-keys"

    line_words = config.l1.line_bytes // 8
    d_words: Optional[int] = None
    # template -> (operand split, address vectors of its blocks)
    classes: Dict[object, Tuple[Tuple, List]] = {}
    for block in bands[edge]:
        entry = compiler.lookup(block)
        if entry is None:
            return None, "untemplated-block"
        template, addrs = entry
        if not template.two_frame_clean:
            return None, "nonuniform-template"
        known = classes.get(template)
        if known is None:
            known = classes[template] = (_band_operands(template), [])
        moves, static_store, _moving, _static = known[0]
        for v in moves:
            move = v * step
            if d_words is None:
                d_words = move
            elif move != d_words:
                return None, "mixed-strides"
        if static_store:
            # A written static line would turn dirty and eventually wash
            # into L2, breaking the all-moving-L2 rotation.
            return None, "static-store"
        known[1].append(addrs)
    if compiler.edge != edge:
        return None, "edge-widened"
    if d_words is None or d_words <= 0:
        return None, "no-band-motion"
    if d_words % line_words:
        return None, "unaligned-stride"
    d_lines = d_words // line_words

    def lines(ops, rows):
        """First and last line of every operand of every block."""
        aidx, lo, hi = ops
        addrs = np.asarray(rows, dtype=np.int64)[:, aidx]
        return (addrs + lo) // line_words, (addrs + hi - 1) // line_words

    # Moving span over every interior band (the steady window only ever
    # covers interior bands; prologue/epilogue always run live).
    moving_lo: Optional[int] = None
    moving_hi: Optional[int] = None
    for (_moves, _store, moving, _static), rows in classes.values():
        if moving:
            first, last = lines(moving, rows)
            lo, hi = int(first.min()), int(last.max())
            moving_lo = lo if moving_lo is None else min(moving_lo, lo)
            moving_hi = hi if moving_hi is None else max(moving_hi, hi)
    span_lo = int(moving_lo)
    span_hi = int(moving_hi) + (B - 1 - 2 * edge) * d_lines
    span_lines = span_hi - span_lo + 1
    l2_capacity = config.l2.num_sets * config.l2.associativity
    if span_lines <= SPAN_L2_FACTOR * l2_capacity:
        return None, "in-cache"

    static_lines: set = set()
    for (_moves, _store, _moving, static), rows in classes.values():
        if static:
            first, last = lines(static, rows)
            for f, l in set(zip(first.ravel().tolist(), last.ravel().tolist())):
                static_lines.update(range(f, l + 1))
    static_pages = {ln // LINES_PER_PAGE for ln in static_lines}
    page_lo = span_lo // LINES_PER_PAGE - PAGE_MARGIN
    page_hi = span_hi // LINES_PER_PAGE + PAGE_MARGIN
    if any(page_lo <= pg <= page_hi for pg in static_pages):
        return None, "static-overlaps-moving"

    n1 = config.l1.num_sets
    a1 = n1 // math.gcd(d_lines, n1)
    ap = LINES_PER_PAGE // math.gcd(d_lines, LINES_PER_PAGE)
    align = a1 * ap // math.gcd(a1, ap)
    cert = BandCertificate(
        edge=edge,
        d_lines=d_lines,
        align=align,
        static_lines=frozenset(static_lines),
        span_lines=span_lines,
    )
    return cert, ""


# -- rebased signatures -------------------------------------------------------


def rebased_signature(
    pipe: PipelineModel, static_lines: frozenset, off: int
) -> Optional[tuple]:
    """Band-relative machine state at a boundary ``off = k * d_lines`` lines in.

    Holds everything a future instruction sequence can observe, so equal
    signatures guarantee equal counter deltas for equal traces from here
    on: the frontier-relative pipeline core, cache tags in LRU order with
    their dirty bits, and the stream table.  Counters never feed back into
    behaviour and are left out.  Pass boundaries take it with ``off = 0``
    and no static lines.

    Returns ``None`` while any static line is resident in L2 (the L2
    rotation argument requires an all-moving L2).  Static tags are kept
    fixed and tagged ``("s", line)`` so they can never collide with a
    translated moving tag.  Cache sets are read in key order, which is
    their LRU order (see :class:`~repro.machine.cache.CacheLevel`); absolute
    ticks are left out, because eviction only ever takes a set's oldest
    line.  Dirty sets are serialized as *sorted tuples*: band signatures
    are compared by digest-of-repr, which must not depend on hash-table
    insertion history.

    Stream-table entries keep their LRU order (eviction pops the oldest),
    and advance counts are recorded saturated at ``confirm_advances``.
    That is exact: the model only ever increments ``advances`` and then
    tests it with ``== confirm_advances`` (count a confirmation) and
    ``>= confirm_advances`` (issue prefetches).  A count already at or past
    ``confirm_advances`` fails the first test and passes the second after
    every increment, so any two such counts drive identical prefetches,
    fills and counters forever after.  Counts below ``confirm_advances``
    stay distinct.  The live table keeps the exact count.
    """
    h = pipe.hierarchy
    l1 = h.l1
    l2 = h.l2
    if not off and not static_lines:
        # Identity translation: the same value as below with nothing to
        # translate or tag, at the cost of one copy per set.
        l1_part = (tuple(map(tuple, l1._sets)), tuple(sorted(l1._dirty)))
        l2_part = (tuple(map(tuple, l2._sets)), tuple(sorted(l2._dirty)))
    else:
        n2 = l2.num_sets
        l2_sets = l2._sets
        # Probe the (few) static lines first: serializing the sets below is
        # the bulk of the cost, and prologue boundaries still hold one in L2.
        for t in static_lines:
            if t in l2_sets[t % n2]:
                return None
        l1_sig = tuple(
            tuple(
                (("s", t) if t in static_lines else t - off)
                for t in ways
            )
            for ways in l1._sets
        )
        l1_dirty = tuple(
            sorted(
                ((("s", t) if t in static_lines else t - off) for t in l1._dirty),
                key=lambda t: (1, t[1]) if type(t) is tuple else (0, t),
            )
        )
        rot = off % n2
        l2_sig = tuple(
            tuple(t - off for t in ways)
            for ways in l2_sets[rot:] + l2_sets[:rot]
        )
        l1_part = (l1_sig, l1_dirty)
        l2_part = (l2_sig, tuple(sorted(t - off for t in l2._dirty)))
    pf = pipe.prefetcher
    c = pf.confirm_advances
    pf_sig = tuple(
        ((("s", line) if line in static_lines else line - off), min(s.advances, c))
        for line, s in pf._streams.items()
    )
    return (pipe._core_signature(), l1_part, l2_part, pf_sig)


# -- raw counter algebra ------------------------------------------------------
#
# A raw vector is ``(core, ports)``: ``core`` is a fixed-order integer tuple
# (the order below is mirrored exactly by ``apply_jump``), ``ports`` a sorted
# tuple of ``(str(port), count)``.  Index 1 is the in-order frontier; signature
# equality at both window endpoints forces the makespan (0) and cycle (2)
# deltas to equal the frontier delta, which ``SteadyController`` checks before
# trusting a window.


def raw_counters(pipe: PipelineModel) -> tuple:
    h = pipe.hierarchy
    a = h.l1.stats
    b = h.l2.stats
    pf = pipe.prefetcher
    core = (
        pipe.makespan,
        pipe._frontier,
        pipe._cycle,
        pipe.instructions_retired,
        pipe.flops,
        pipe.useful_flops,
        pipe.sw_prefetches,
        a.demand_accesses,
        a.demand_hits,
        a.prefetch_probes,
        a.prefetch_probe_hits,
        a.prefetch_fills,
        a.writebacks,
        b.demand_accesses,
        b.demand_hits,
        b.prefetch_probes,
        b.prefetch_probe_hits,
        b.prefetch_fills,
        b.writebacks,
        h.mem_lines_read,
        h.mem_lines_written,
        pf.prefetches_issued,
        pf.streams_confirmed,
        pf.streams_allocated,
    )
    ports = tuple(
        sorted((str(p), int(n)) for p, n in pipe.instructions_by_port.items())
    )
    return core, ports


def raw_delta(after: tuple, before: tuple) -> tuple:
    core = tuple(x - y for x, y in zip(after[0], before[0]))
    pa = dict(after[1])
    pb = dict(before[1])
    ports = tuple(
        sorted((k, pa.get(k, 0) - pb.get(k, 0)) for k in set(pa) | set(pb))
    )
    return core, ports


def apply_jump(
    pipe: PipelineModel, static_lines: frozenset, shift: int, m: int, delta: tuple
) -> None:
    """Advance the machine by ``m`` verified periods without simulating them.

    ``shift`` is the total line translation (``m * period * d_lines``; the
    caller guarantees it is a multiple of the L1 set count and the page
    size).  A pass-boundary jump passes ``shift = 0`` and one measured pass
    as the period, so every line stays where it is.  Counters gain
    ``m * delta`` exactly; every moving cache tag, dirty bit and
    stream-table entry translates by ``shift`` (advance counts are kept:
    the signatures pinned them only up to confirmation, past which every
    count behaves the same); the scoreboard, port frontiers, cycle
    bookkeeping and makespan translate by the period's cycle delta.  Scoreboard entries already at or below the frontier are
    dead (they can never raise a future issue cycle), so translating them
    uniformly preserves every future issue decision bit-exactly.
    """
    core, ports = delta
    T = m * core[1]

    pipe.makespan += m * core[0]
    pipe._frontier += T
    pipe._cycle += m * core[2]
    pipe.instructions_retired += m * core[3]
    pipe.flops += m * core[4]
    pipe.useful_flops += m * core[5]
    pipe.sw_prefetches += m * core[6]
    h = pipe.hierarchy
    a = h.l1.stats
    a.demand_accesses += m * core[7]
    a.demand_hits += m * core[8]
    a.prefetch_probes += m * core[9]
    a.prefetch_probe_hits += m * core[10]
    a.prefetch_fills += m * core[11]
    a.writebacks += m * core[12]
    b = h.l2.stats
    b.demand_accesses += m * core[13]
    b.demand_hits += m * core[14]
    b.prefetch_probes += m * core[15]
    b.prefetch_probe_hits += m * core[16]
    b.prefetch_fills += m * core[17]
    b.writebacks += m * core[18]
    h.mem_lines_read += m * core[19]
    h.mem_lines_written += m * core[20]
    pf = pipe.prefetcher
    pf.prefetches_issued += m * core[21]
    pf.streams_confirmed += m * core[22]
    pf.streams_allocated += m * core[23]
    by_port = pipe.instructions_by_port
    port_by_name = {str(p): p for p in pipe._port_free}
    for name, n in ports:
        if n:
            by_port[port_by_name[name]] += m * n

    pipe._ready = {k: v + T for k, v in pipe._ready.items()}
    for pipes in pipe._port_free.values():
        for i in range(len(pipes)):
            pipes[i] += T

    if not shift:
        return
    l1 = h.l1
    l1._sets = [
        {(t if t in static_lines else t + shift): tick for t, tick in ways.items()}
        for ways in l1._sets
    ]
    l1._dirty = {(t if t in static_lines else t + shift) for t in l1._dirty}
    l2 = h.l2
    n2 = l2.num_sets
    new_sets: List[Dict[int, int]] = [dict() for _ in range(n2)]
    for ways in l2._sets:
        for t, tick in ways.items():
            t2 = t + shift
            new_sets[t2 % n2][t2] = tick
    l2._sets = new_sets
    l2._dirty = {t + shift for t in l2._dirty}
    streams: "OrderedDict[int, _Stream]" = OrderedDict()
    for line, s in pf._streams.items():
        line2 = line if line in static_lines else line + shift
        streams[line2] = _Stream(tail_line=line2, advances=s.advances)
    pf._streams = streams


# -- persisted records --------------------------------------------------------


def steady_record_key(compiler) -> Optional[str]:
    """Artifact-store digest for a kernel's steady record, or ``None``.

    Mirrors the template bundle identity (machine digest, kernel/spec/grid
    fingerprints, options, shape) under its own ``kind`` so a steady record
    invalidates on exactly the same inputs as the templates it rides on.
    """
    inputs = compiler._bundle_inputs
    if inputs is None:
        return None
    return artifacts.artifact_digest(dict(inputs, kind="steady"))


# -- the controller -----------------------------------------------------------


class SteadyController:
    """Detect -> verify -> engage state machine for one pass of one kernel.

    Drive it with :meth:`after_band` after each completed band; ``k`` is
    always the number of completed bands.  A verify window that holds jumps
    every whole period left in the interior at its own boundary.  Any
    mismatch disables the controller for the rest of the run — the pass
    then finishes as a plain exact walk.

    Detection pays for a signature only where a recurrence could still
    engage (module doc): it stops ``no-room`` past ``k = last - 2*align``,
    or past ``last - 3*align`` with no live origin, and stores origins only
    up to that origin bound.  All live origins share the L2 line count they
    were taken at; the count never falls within a pass, so when it grows
    they are dropped.  While L2 is filling (count below capacity and above
    the previous boundary's) a boundary is not an origin: a recurrence
    from it is caught one band later, which can cost a period only when it
    starts exactly where L2 stops growing below capacity.

    ``verdicts`` memoizes :func:`build_certificate` across the passes of one
    run, keyed by ``compiler.edge``: a resolved shape class never changes
    while the edge width stands, so the certificate (or the refusal reason)
    of the first pass holds for every later one.
    """

    def __init__(
        self,
        pipe: PipelineModel,
        compiler,
        bands,
        config: MachineConfig,
        *,
        load_record: Optional[Callable[[], Optional[Dict]]] = None,
        on_record: Optional[Callable[[Dict], None]] = None,
        stats: Optional[SteadyStats] = None,
        verdicts: Optional[Dict[int, tuple]] = None,
    ) -> None:
        self.pipe = pipe
        self.compiler = compiler
        self.bands = bands
        self.B = len(bands)
        self.config = config
        #: Called once, when the first certificate is set; a verified
        #: record lets the run skip detection (see :meth:`_ensure_cert`).
        self.load_record = load_record
        self.record: Optional[Dict] = None
        self.on_record = on_record
        self.stats = stats if stats is not None else SteadyStats()
        self.verdicts = verdicts if verdicts is not None else {}
        self.cert: Optional[BandCertificate] = None
        self.state = "detect"
        #: Live detection origins, ``digest -> (k, raw)``, all taken at
        #: the L2 line count ``_lines`` of the previous detect boundary
        #: (-1 before the first one).
        self._seen: Dict[str, Tuple[int, tuple]] = {}
        self._lines = -1
        self.period = 0
        self.target = -1
        self.expected_digest: Optional[str] = None
        self.expected_delta: Optional[tuple] = None
        self.base_raw: Optional[tuple] = None
        self._rec_period = 0
        self._rec_digest: Optional[str] = None
        self._rec_delta: Optional[tuple] = None
        if self.B < MIN_BANDS:
            self._disable("too-few-bands")

    # -- lifecycle ------------------------------------------------------

    def _disable(self, reason: str, demoted: bool = False) -> None:
        if self.state == "disabled":
            return
        self.state = "disabled"
        self.stats.disabled = reason
        h = self.pipe.hierarchy
        h.static_watch = None
        h.static_watch_hits = 0
        if demoted:
            self.stats.demoted += 1

    def _ensure_cert(self) -> bool:
        if self.cert is not None:
            return True
        if self.state == "disabled":
            return False
        edge = self.compiler.edge
        verdict = self.verdicts.get(edge)
        if verdict is None:
            verdict = build_certificate(self.compiler, self.bands, self.config)
            if self.compiler.edge == edge:
                self.verdicts[edge] = verdict
        cert, reason = verdict
        if cert is None:
            self._disable(reason)
            return False
        self.cert = cert
        if self.load_record is not None:
            self.record = self.load_record()
        if self.record is not None:
            r = self.record
            if (
                r.get("d_lines") != cert.d_lines
                or r.get("edge") != cert.edge
                or r.get("align") != cert.align
                or not self._decode_record(r)
            ):
                self.record = None  # stale record: fall back to live detection
            else:
                self.stats.record_mode = True
        return True

    def _decode_record(self, r: Dict) -> bool:
        try:
            p = int(r["period"])
            digest = r["sig"]
            core = tuple(int(x) for x in r["delta"]["core"])
            ports = tuple((str(nm), int(n)) for nm, n in r["delta"]["ports"])
        except (KeyError, TypeError, ValueError):
            return False
        if (
            p <= 0
            or p % self.cert.align
            or len(core) != _N_RAW
            or not isinstance(digest, str)
            or not (core[0] == core[1] == core[2])
        ):
            return False
        self._rec_period = p
        self._rec_digest = digest
        self._rec_delta = (core, ports)
        return True

    # -- per-boundary protocol ------------------------------------------

    def after_band(self, k: int) -> Optional[int]:
        """Advance the state machine at boundary ``k`` (bands completed).

        Returns the new boundary (bands completed) after a jump, else
        ``None`` (continue with the next band).
        """
        if self.state in ("disabled", "engaged"):
            return None
        e = self.compiler.edge
        if k < e + 1 or k > self.B - e:
            return None
        if not self._ensure_cert():
            return None
        cert = self.cert
        if self.compiler.edge != cert.edge:
            self._disable("edge-widened")
            return None
        if self.state == "verify":
            return self._finish_verify(k) if k >= self.target else None

        last = self.B - e
        if self.record is not None:
            # Record scan: the recorded period needs the verify window plus
            # one more period inside the interior (``_has_room``).
            if k > last - 2 * self._rec_period:
                self._disable("no-room")
                return None
            sig = rebased_signature(self.pipe, cert.static_lines, k * cert.d_lines)
            if sig is None:
                return None
            self.stats.record_probes += 1
            digest = artifacts.signature_digest(sig)
            if digest == self._rec_digest:
                raw = raw_counters(self.pipe)
                self._start_verify(k, self._rec_period, digest, self._rec_delta, raw)
            return None

        # detect
        align = cert.align
        if k > e + DETECT_ALIGN_WINDOW * align + DETECT_SLACK:
            self._disable("no-recurrence")
            return None
        if k > last - 2 * align:
            self._disable("no-room")  # no match from here on has room
            return None
        l2 = self.pipe.hierarchy.l2
        prev_lines = self._lines
        lines = self._lines = sum(map(len, l2._sets))
        if lines != prev_lines:
            # Equal signatures hold equal L2 line counts, and the count
            # never falls within a pass: an origin taken at another count
            # can never match again.
            self._seen.clear()
        filling = 0 <= prev_lines < lines < l2.num_sets * l2.assoc
        can_origin = k <= last - 3 * align and not filling
        if not self._seen:
            if k > last - 3 * align:
                self._disable("no-room")  # no origin left that could match
                return None
            if not can_origin:
                return None
        sig = rebased_signature(self.pipe, cert.static_lines, k * cert.d_lines)
        if sig is None:
            return None  # a static line is still washing out of L2
        digest = artifacts.signature_digest(sig)
        raw = raw_counters(self.pipe)
        self.stats.detect_sigs += 1
        prev = self._seen.get(digest)
        if prev is None:
            if can_origin:
                self._seen[digest] = (k, raw)
            return None
        k0, raw0 = prev
        p = k - k0
        if p % align:
            # Unaligned recurrences can be coincidental (uniform streaming
            # makes L1 sets look alike); only set/page-preserving periods
            # carry the shift-automorphism proof.  Keep the earlier entry.
            return None
        if not self._has_room(k, p):
            self._disable("no-room")
            return None
        delta = raw_delta(raw, raw0)
        if not (delta[0][0] == delta[0][1] == delta[0][2]):
            if can_origin:
                self._seen[digest] = (k, raw)
            else:
                del self._seen[digest]
            return None
        self._start_verify(k, p, digest, delta, raw)
        return None

    def _has_room(self, k: int, p: int) -> bool:
        # The verify window occupies bands [k, k+p); at least one more full
        # period must remain inside the interior to make the jump worthwhile.
        last = self.B - self.compiler.edge
        return k + p <= last and (last - k - p) >= p

    def _start_verify(
        self, k: int, p: int, digest: str, delta: tuple, raw: tuple
    ) -> None:
        self.period = p
        self.target = k + p
        self.expected_digest = digest
        self.expected_delta = delta
        self.base_raw = raw
        h = self.pipe.hierarchy
        h.static_watch = self.cert.static_lines
        h.static_watch_hits = 0
        self.stats.candidates += 1
        self.state = "verify"

    def _finish_verify(self, k: int) -> Optional[int]:
        """Check the verify window ending at ``k``; on success jump every
        whole period left in the interior and return the new boundary."""
        cert = self.cert
        h = self.pipe.hierarchy
        ok = (
            k == self.target
            and h.static_watch_hits == 0
            and self.compiler.edge == cert.edge
        )
        if ok:
            sig = rebased_signature(self.pipe, cert.static_lines, k * cert.d_lines)
            ok = sig is not None and artifacts.signature_digest(sig) == self.expected_digest
        if ok:
            ok = raw_delta(raw_counters(self.pipe), self.base_raw) == self.expected_delta
        if not ok:
            self._disable("verify-mismatch", demoted=True)
            return None
        self.stats.verified += 1
        # Detection's ``_has_room`` and the record scan's bound both leave
        # at least one full period after the verify boundary, so m >= 1.
        m = (self.B - cert.edge - k) // self.period
        shift = m * self.period * cert.d_lines
        apply_jump(self.pipe, cert.static_lines, shift, m, self.expected_delta)
        self.state = "engaged"
        h.static_watch = None
        h.static_watch_hits = 0
        self.stats.engaged += 1
        self.stats.elided_bands += m * self.period
        if self.on_record is not None and self.record is None:
            core, ports = self.expected_delta
            self.on_record(
                {
                    "sig": self.expected_digest,
                    "period": self.period,
                    "delta": {
                        "core": list(core),
                        "ports": [[nm, n] for nm, n in ports],
                    },
                    "d_lines": cert.d_lines,
                    "edge": cert.edge,
                    "align": cert.align,
                }
            )
        return k + m * self.period
