"""Chain fusion: compile whole LSI chains into straight-line programs.

The batched pipeline already amortizes per-frame overheads *within*
one LSI, but a chain of LSIs (Figure 1: LSI-0 classifies into a graph
LSI, which steers through the NFs) still pays Python per hop: lookup,
compiled closure, egress queue, ``carry_batch``, and another full
``process_batch_from`` on the far side.  Steering rules are stable
between flow-mods, so that whole traversal is a *constant* per flow
entry — the same observation that let :func:`compile_actions` fuse an
action list one level down.

:class:`FusionEngine` (one per :class:`~repro.switch.datapath.Datapath`,
created in ``Datapath.__init__``) traces the chain a flow entry's
frames would take — ingress lookup, pure-output/rewrite hops over
virtual links, terminal egress — and lowers it into one
:class:`FusedChain`: a straight-line program that runs a **single**
table lookup at the chain ingress, crosses every link with zero
intermediate ``carry_batch``/``process_batch_from`` round-trips,
applies the *composed* header rewrite once per frame, and settles
every per-hop counter (flow packets/bytes, table lookups/matches,
port rx/tx, link ``carried``, datapath rx) arithmetically at flush.

Fuseability.  The trace runs every hop's action list through the
lowering the per-hop programs are compiled from
(:func:`~repro.switch.actions.lower_actions`).  A hop fuses when its
winning entry lowers to *one* segment with *one* sink — a composed
VLAN/MAC rewrite, then a concrete ``Output`` — that no alive VLAN
branch cuts short with an action error, and the *next* hop's winner
is frame-independent: the first entry of the far table compatible
with ``(in_port, vlan-state)`` must match on those two fields alone
(``FlowMatch._port_vlan_only``) and be the same entry for every alive
VLAN branch.  A chain may also *end* in a ``SelectOutput`` spread over
device-backed ports (:class:`FusedSelectChain`).  Anything else —
several emission points, an action error on some branch, FLOOD,
drops, punts, out-of-range rewrite constants, taps, table misses,
cycles — bails the trace, and the entry stays on the per-hop batch
path (the differential oracle for every fused program).

Terminal delivery is a *byte splice*: the per-hop rewrites compose
into one field dict for the whole chain, applied once per frame
through the same :func:`~repro.switch.actions.compile_splice` closure
per-hop programs use, skipping ``ParsedFrame.derive`` entirely.

Dispatch.  On top of per-entry programs, the engine keeps a per-port
**dispatch table**: ``in_port -> {vlan-state -> slot}`` where a slot
pins the frame-independent lookup winner of that ``(in_port, vlan)``
traffic slice (:meth:`~repro.switch.flowtable.FlowTable.slice_winner`)
together with its fused program.  When a slot is live, the batch
ingress loop jumps straight from frame to program — no ``FlowTable``
walk, no per-frame pending bookkeeping (ingress lookup/match/flow
counters settle arithmetically at flush, like every downstream hop).
Slots are stamped with ``FlowTable.version`` and re-checked per frame,
so a mid-batch flow-mod re-resolves the slice immediately; steering
invalidation and reactive fallbacks tear slots down through the
``FlowEntry.dispatch`` back-references.  Slices whose winner depends
on frame fields (or whose winner is not fused) hold a *negative* slot
and take the normal lookup path at one dict probe of extra cost.

VLAN state is tracked *symbolically* with up to two branches: an
ingress match with a wildcard VLAN admits both initially-tagged and
initially-untagged frames, whose wire lengths diverge by 4 bytes the
moment a push/pop happens.  Each hop records per-branch byte deltas,
so the settled byte counters are exact: frames are classified once at
run time (tagged vs untagged) only when the branches actually differ.

Invalidation.  A fused program records the ``version`` of every
:class:`~repro.switch.flowtable.FlowTable` it traversed plus the
identity of every port/link/closure it relies on, and re-validates all
of it at flush time, immediately before running — so a flow-mod, port
removal, tap attach or replica change *anywhere* along the chain
(even mid-batch, from a packet-in handler) can never run a stale
program: the group falls back to the per-hop path and the program is
dropped for re-tracing.  The steering layer additionally drops every
program *before* its strict deletes reach the tables
(:meth:`~repro.core.steering.TrafficSteeringManager.invalidate_fusion`),
so the window where a stale positive exists at all is confined to
direct table writes, which the version check covers.  That proactive
drop costs what is cached, not what is installed: each engine keeps a
weak registry of the entries it gave a verdict (:meth:`FusionEngine.trace`
is the only writer of ``entry.fused``) and reports itself to its owner
when it first holds one, so neither tables nor clean engines are walked.
"""

from __future__ import annotations

from typing import Optional
from weakref import WeakValueDictionary

from repro.net.builder import ParsedFrame, parse_frame
from repro.switch.actions import (
    FLOOD_PORT,
    Output,
    SelectOutput,
    compile_select,
    compile_splice,
    lower_actions,
    splice_fields_valid,
)
from repro.switch.flowtable import (
    ANY_VLAN,
    NO_VLAN,
    UNKNOWN_VLAN,
    FlowEntry,
    FlowTable,
)

__all__ = ["FusedChain", "FusedSelectChain", "FusionEngine",
           "MAX_CHAIN_DEPTH"]

#: Trace depth cap: chains longer than this stay per-hop.  Real
#: steering chains are 2-3 hops; the cap only guards degenerate wiring.
MAX_CHAIN_DEPTH = 32

#: Wire-length delta of gaining/losing an 802.1Q tag.
_TAG_BYTES = 4


class _Hop:
    """One traversed hop of a fused chain: identities to re-validate
    and the counter deltas to settle.

    ``in_dt``/``in_du`` are the wire-length offsets (vs the ingress
    frame) of frames *arriving* at this hop, per branch (initially-
    tagged / initially-untagged); ``out_dt``/``out_du`` after this
    hop's transforms.  ``link``/``far_port``/``far_dp`` are ``None``
    on the terminal hop; a select tail
    (:attr:`FusedSelectChain.tail`) has no single egress, so its
    ``out_no``/``out_port`` are ``None`` too.
    """

    __slots__ = ("dp", "table", "version", "entry", "compiled",
                 "in_dt", "in_du", "out_no", "out_port",
                 "out_dt", "out_du", "link", "far_port", "far_dp")

    def __init__(self, dp, entry: FlowEntry, in_dt: int, in_du: int,
                 out_dt: int, out_du: int, out_no: Optional[int] = None,
                 out_port=None) -> None:
        self.dp = dp
        self.table = dp.table
        self.version = dp.table.version
        self.entry = entry
        self.compiled = entry.compiled
        self.in_dt, self.in_du = in_dt, in_du
        self.out_dt, self.out_du = out_dt, out_du
        self.out_no = out_no
        self.out_port = out_port
        self.link = None
        self.far_port = None
        self.far_dp = None

    def stale(self) -> bool:
        """Whether this hop's lookup verdict can no longer be trusted:
        its table moved on, its entry was recompiled, or a tap now
        wants to see every frame here."""
        return (self.table.version != self.version
                or self.entry.compiled is not self.compiled
                or bool(self.dp.taps))

    def arrive(self, n: int, nbytes: int) -> None:
        """Arrival bookkeeping the per-hop path would do in
        ``process_batch_from`` for ``n`` frames of ``nbytes`` total
        wire length *as they arrive here*: datapath rx, one
        lookup+match per frame, the flow counters.  (The port rx is
        settled by the upstream hop's link segment.)"""
        self.dp.rx_packets += n
        table = self.table
        table.lookups += n
        table.matches += n
        entry = self.entry
        entry.packets += n
        entry.bytes += nbytes


class FusedChain:
    """The straight-line program for one (ingress entry, chain) pair."""

    __slots__ = ("hops", "kwargs", "splice", "two_branch",
                 "ingress_entry", "device")

    def __init__(self, hops: list[_Hop], kwargs: dict,
                 two_branch: bool) -> None:
        self.hops = tuple(hops)
        #: Composition of every transform along the chain; empty for
        #: identity chains, where frames forward untouched.  Applied
        #: once per frame at the terminal through :attr:`splice`.
        self.kwargs = kwargs
        self.splice = compile_splice(kwargs)
        self.two_branch = two_branch
        self.ingress_entry = hops[0].entry
        self.device = hops[-1].out_port.device

    def _hops_valid(self) -> bool:
        for hop in self.hops:
            if (hop.stale()
                    or hop.dp.ports.get(hop.out_no) is not hop.out_port
                    or hop.out_port.peer_link is not hop.link):
                return False
            if hop.link is not None \
                    and hop.far_port.datapath is not hop.far_dp:
                return False
        return True

    def valid(self) -> bool:
        """Cheap staleness check, run per group immediately before
        :meth:`run`: every traversed table is at its traced version and
        every identity the trace relied on still holds."""
        return (self._hops_valid()
                and self.hops[-1].out_port.device is self.device)

    def _settle(self, frames: list, nbytes: int) -> tuple:
        """Settle every counter downstream of the ingress lookup for
        one batch group (the ingress entry's own flow/rx counters were
        accounted by the ingress loop, as on the per-hop path);
        returns ``(n, tagged, untagged)`` frame counts — ``untagged``
        only counted when the branches' wire lengths diverge."""
        n = len(frames)
        nu = 0
        if self.two_branch:
            for parsed in frames:
                eth = parsed.eth if parsed.__class__ is ParsedFrame \
                    else parsed
                if eth.vlan is None:
                    nu += 1
        nt = n - nu
        first = True
        for hop in self.hops:
            if first:
                first = False
            else:
                hop.arrive(n, nbytes + nt * hop.in_dt + nu * hop.in_du)
            out_bytes = nbytes + nt * hop.out_dt + nu * hop.out_du
            port = hop.out_port
            port.tx_packets += n
            port.tx_bytes += out_bytes
            link = hop.link
            if link is not None:
                link.carried += n
                far = hop.far_port
                far.rx_packets += n
                far.rx_bytes += out_bytes
        return n, nt, nu

    def run(self, frames: list, nbytes: int) -> None:
        """Run the whole chain for one batch group: settle every
        per-hop counter, then deliver at the terminal.  Per-flow egress
        order is preserved — frames of one ingress entry leave the
        terminal port in arrival order.

        A group may mix :class:`ParsedFrame` views (lookup-path or
        carried arrivals) with *raw* ``EthernetFrame`` objects (the
        dispatch fast path parks frames unparsed — a plain fused chain
        never needs anything past L2, so the parse is skipped, not
        deferred).
        """
        self._settle(frames, nbytes)
        self._deliver(self.device, frames)

    def _deliver(self, device, frames: list) -> None:
        """Terminal egress of one group: the frames, through the
        chain's composed splice, in one ``transmit_batch``."""
        if device is None:
            # Counting sink: counters are settled, nothing materializes.
            return
        splice = self.splice
        if splice is None:
            device.transmit_batch([
                parsed.eth if parsed.__class__ is ParsedFrame else parsed
                for parsed in frames])
        else:
            device.transmit_batch([
                splice(parsed.eth if parsed.__class__ is ParsedFrame
                       else parsed)
                for parsed in frames])


class FusedSelectChain(FusedChain):
    """A fused chain ending in a ``SelectOutput`` replica spread.

    The prefix hops validate and settle exactly like a
    :class:`FusedChain`; the tail hop then runs the per-frame replica
    pick *inside* the fused program — the
    :func:`~repro.switch.actions.compile_select` picker per-hop
    programs use (rendezvous, or the datapath's
    :class:`~repro.switch.state.FlowStateTable` pin / remap / adopt) —
    in frame arrival order, so state-table side effects match the
    per-hop path bit for bit.  Frames bucket per chosen replica and
    leave through the terminal byte splice.

    Validity additionally pins the replica ports: any port removal,
    device rebind, or a replica port growing a virtual link (the
    trace only accepts device/sink replicas) fails :meth:`valid` and
    the group falls back per-hop.  A replica-set or state-group
    change arrives as a rule reinstall, which the steering layer
    precedes with a full invalidation; direct table writes are caught
    by the tail's table-version stamp.
    """

    __slots__ = ("tail", "pick", "group", "state", "replicas")

    def __init__(self, hops: list[_Hop], kwargs: dict, two_branch: bool,
                 tail: _Hop, select: SelectOutput, replicas: dict) -> None:
        super().__init__(hops, kwargs, two_branch)
        #: The select hop: arrival bookkeeping and staleness stamps
        #: like any hop, but no single egress port.
        self.tail = tail
        self.pick = compile_select(select)
        self.group = select.group
        #: The state table resolved at trace time (``group`` spreads);
        #: identity is re-checked in :meth:`valid` so a dropped-and-
        #: recreated group (graph teardown) can never run against the
        #: stale table object.
        self.state = (tail.dp.flow_state.table(select.group)
                      if select.group is not None else None)
        #: ``out_no -> (SwitchPort, device)`` for every replica.
        self.replicas = replicas

    def valid(self) -> bool:
        tail = self.tail
        if not self._hops_valid() or tail.stale():
            return False
        dp = tail.dp
        if self.group is not None and \
                dp.flow_state.peek(self.group) is not self.state:
            return False
        ports = dp.ports
        for out_no, (port, device) in self.replicas.items():
            if (ports.get(out_no) is not port
                    or port.peer_link is not None
                    or port.device is not device):
                return False
        return True

    def run(self, frames: list, nbytes: int) -> None:
        # The replica pick hashes L3/L4, so this program *does* need
        # full parses; frames the dispatch fast path parked raw get
        # their one ParsedFrame here (same single parse per frame the
        # per-hop path pays at ingress).
        frames = [parsed if parsed.__class__ is ParsedFrame
                  else parse_frame(parsed) for parsed in frames]
        n, nt, nu = self._settle(frames, nbytes)
        tail = self.tail
        tail.arrive(n, nbytes + nt * tail.in_dt + nu * tail.in_du)
        # Per-frame replica pick, in arrival order; buckets keep
        # insertion order, so per-replica egress order matches the
        # per-hop queues exactly.
        pick = self.pick
        dp = tail.dp
        out_dt = tail.out_dt
        out_du = tail.out_du  # == out_dt unless the branches diverge
        buckets: dict = {}
        for parsed in frames:
            out = pick(dp, parsed)
            size = parsed.wire_len + (
                out_du if parsed.eth.vlan is None else out_dt)
            acc = buckets.get(out)
            if acc is None:
                buckets[out] = [[parsed], size]
            else:
                acc[0].append(parsed)
                acc[1] += size
        replicas = self.replicas
        for out, (bucket, bucket_bytes) in buckets.items():
            port, device = replicas[out]
            port.tx_packets += len(bucket)
            port.tx_bytes += bucket_bytes
            self._deliver(device, bucket)


def _ingress_branches(vlan_vid: Optional[int]) -> list[list]:
    """Symbolic VLAN state(s) admitted by the ingress match.

    Branch = ``[tagged, vid, delta]`` (``vid`` is ``None`` when
    untagged, :data:`UNKNOWN_VLAN` when a wildcard/ANY_VLAN ingress
    match leaves the id open); when two branches exist the first is
    always the initially-tagged one (run-time classification keys on
    ``eth.vlan is None``).
    """
    if vlan_vid is None:
        return [[True, UNKNOWN_VLAN, 0], [False, None, 0]]
    if vlan_vid == ANY_VLAN:
        return [[True, UNKNOWN_VLAN, 0]]
    if vlan_vid == NO_VLAN:
        return [[False, None, 0]]
    return [[True, vlan_vid, 0]]


def _resolve_next(table: FlowTable, in_port: int,
                  branches: list[list]) -> Optional[FlowEntry]:
    """The unique frame-independent winner of the far table's lookup:
    every alive branch's :meth:`FlowTable.slice_winner`, when they all
    exist and agree.  A frame-dependent candidate, an undecidable
    comparison (unknown tagged vid vs a concrete match), a table miss
    on some branch, or branches disagreeing on the winner → ``None``.
    """
    first = None
    for branch in branches:
        winner = table.slice_winner(in_port, branch[1])
        if winner is None or (first is not None and winner is not first):
            return None
        first = winner
    return first


class FusionEngine:
    """Per-datapath fusion state: tracing, caching, counters.

    An engine traces chains whose *ingress* is its datapath; programs
    are cached on the ingress :class:`FlowEntry` (``entry.fused``).
    Failed traces are negative-cached with the engine's ``epoch`` —
    :meth:`invalidate` bumps it, so a steering-level change retries
    every trace while per-frame cost for unfuseable entries stays at
    one attribute read and an int compare.  Every entry given a verdict
    is remembered in :attr:`traced`, so :meth:`invalidate` visits those
    and never the table.
    """

    __slots__ = ("dp", "enabled", "epoch", "dispatch", "hits", "misses",
                 "dispatch_hits", "dispatch_misses", "invalidations",
                 "programs_built", "track_cookies", "cookie_stats",
                 "traced", "holders")

    def __init__(self, dp) -> None:
        self.dp = dp
        #: ``entry_id -> entry`` for every entry :meth:`trace` stamped
        #: (program or negative verdict).  Weak: a program refers back
        #: to its ingress entry, so a deleted entry is a garbage cycle
        #: this registry must not pin.
        self.traced: WeakValueDictionary = WeakValueDictionary()
        #: Set by the steering manager: the engines of its node holding
        #: a verdict or a dispatch slot, i.e. the only ones its
        #: ``invalidate_fusion`` has to call.  ``None`` when standalone.
        self.holders: Optional[set] = None
        #: Production default is on.  ``False`` pins the datapath to
        #: the per-hop batch path — the differential suites' and
        #: nfbench's reference switch, and the only fusion mode knob.
        self.enabled = True
        self.epoch = 1
        #: ``in_port -> {vlan-state -> [version, entry, program]}``
        #: dispatch slots.  ``vlan-state`` is the frame's tag state
        #: (concrete vid or ``None``).  A slot whose version is stale
        #: is rebuilt by :meth:`build_slot`; ``entry is None`` marks a
        #: negative slot (the slice cannot be dispatched at this table
        #: version) and sends frames down the normal lookup path.
        self.dispatch: dict = {}
        #: Frames delivered through fused programs.
        self.hits = 0
        #: Matched frames that took the per-hop path while fusion was
        #: engaged for the batch (unfuseable entries and fallbacks).
        self.misses = 0
        #: Matched frames that skipped the ingress ``FlowTable`` walk
        #: entirely via a live dispatch slot / matched frames that ran
        #: the lookup while dispatch was engaged.  Cumulative, like
        #: every other telemetry counter; :meth:`invalidate` tears the
        #: dispatch *table* down but never rewinds these.
        self.dispatch_hits = 0
        self.dispatch_misses = 0
        #: Fused programs dropped — proactive (steering invalidate) or
        #: reactive (flush-time validity failure → per-hop fallback).
        self.invalidations = 0
        self.programs_built = 0
        #: Opt-in per-cookie attribution (steering-managed LSIs turn it
        #: on): ``cookie -> [hits, misses, dispatch_hits,
        #: dispatch_misses]``.  Chains that fuse at node-ingress LSI-0
        #: never touch their graph LSI's engine, so this is how a
        #: graph's share of LSI-0 traffic is recovered — every flow
        #: entry of graph ``g`` carries ``g``'s cookie.
        self.track_cookies = False
        self.cookie_stats: dict = {}

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "dispatch-hits": self.dispatch_hits,
                "dispatch-misses": self.dispatch_misses,
                "invalidations": self.invalidations,
                "programs-built": self.programs_built,
                "enabled": self.enabled}

    def stats_for_cookie(self, cookie: int) -> dict:
        """One graph's share of this engine's fused/dispatch traffic
        (zeroes when :attr:`track_cookies` is off or nothing arrived)."""
        totals = self.cookie_stats.get(cookie)
        if totals is None:
            return {"hits": 0, "misses": 0,
                    "dispatch-hits": 0, "dispatch-misses": 0}
        return {"hits": totals[0], "misses": totals[1],
                "dispatch-hits": totals[2], "dispatch-misses": totals[3]}

    def drop(self, entries) -> int:
        """Tear down the fused verdicts (and dispatch slots) of
        ``entries``; returns how many *live* programs went.

        The one teardown path: proactive (:meth:`invalidate`) and
        reactive (a flush-time ``valid()`` failure in
        ``Datapath._finish_batch``) drops both count in
        :attr:`invalidations` and feed the tracer's invalidation-storm
        detector.  Negative verdicts and deploy-time invalidates with
        nothing cached count as neither — no live work was lost.
        """
        dropped = 0
        for entry in entries:
            if entry.drop_fused():
                dropped += 1
        if dropped:
            self.invalidations += dropped
            tracer = self.dp.tracer
            if tracer is not None:
                tracer.note_invalidation(self.dp.name, dropped)
        return dropped

    def invalidate(self) -> int:
        """Drop every cached program/verdict traced from this LSI's
        entries, and the whole dispatch table with them; returns how
        many live programs went.  Bumping the epoch also retires
        negative caches, so entries re-trace against the post-change
        rule set."""
        self.epoch += 1
        self.dispatch.clear()
        traced = list(self.traced.values())
        self.traced.clear()
        return self.drop(traced)

    def build_slot(self, port_dispatch: dict, in_port: int,
                   vlan: Optional[int]) -> list:
        """(Re)build the dispatch slot of one ``(in_port, vlan)`` slice.

        Called from the batch ingress loop when a slice has no slot or
        its version stamp went stale.  Resolves the slice's frame-
        independent winner, traces it if needed, and installs a
        ``[version, entry, program]`` slot — positive only when the
        winner exists *and* fused, negative otherwise.  Positive slots
        register on ``entry.dispatch`` so teardown reaches them
        without scanning the table.
        """
        table = self.dp.table
        slot = [table.version, None, None]
        entry = table.slice_winner(in_port, vlan)
        if entry is not None:
            program = entry.fused
            if program is None or (type(program) is int
                                   and program != self.epoch):
                program = self.trace(entry)
            if type(program) is not int:
                slot[1] = entry
                slot[2] = program
                entry.dispatch.append(slot)
        port_dispatch[vlan] = slot
        if self.holders is not None:
            self.holders.add(self)
        return slot

    def trace(self, entry: FlowEntry):
        """Trace from ``entry`` and cache the outcome on it: a
        :class:`FusedChain`, or the current epoch (not fuseable)."""
        program = self._trace(entry)
        if program is None:
            result = self.epoch
        else:
            self.programs_built += 1
            result = program
        entry.fused = result
        self.traced[entry.entry_id] = entry
        if self.holders is not None:
            self.holders.add(self)
        return result

    def _trace(self, entry: FlowEntry) -> Optional[FusedChain]:
        dp = self.dp
        branches = _ingress_branches(entry.match.vlan_vid)
        kwargs: dict = {}
        hops: list[_Hop] = []
        seen: set = set()
        in_dt = in_du = 0
        while True:
            if len(hops) >= MAX_CHAIN_DEPTH:
                return None
            key = (id(dp), entry.entry_id)
            if key in seen:  # cycle
                return None
            seen.add(key)
            if dp.taps:
                return None
            segments, cut_tagged, cut_untagged = \
                lower_actions(entry.actions)
            if len(segments) != 1 or len(segments[0][1]) != 1:
                return None  # drop rule, or several emission points
            fields, (sink,) = segments[0]
            if not splice_fields_valid(fields):
                # The frame constructor would reject the rewrite; the
                # per-hop path must keep raising per frame.
                return None
            for branch in branches:
                if (cut_tagged if branch[0] else cut_untagged) is not None:
                    return None  # an action error on this branch
            if "vlan" in fields:
                vid = fields["vlan"]
                tagged = vid is not None
                for branch in branches:
                    if branch[0] != tagged:
                        branch[2] += _TAG_BYTES if tagged else -_TAG_BYTES
                    branch[0] = tagged
                    branch[1] = vid
            kwargs.update(fields)
            out_dt, out_du = branches[0][2], branches[-1][2]
            if type(sink) is SelectOutput:
                if not hops:
                    # A spread at the chain ingress is a single-hop
                    # "chain" — already optimal per-hop.
                    return None
                return self._finish_select(
                    hops, kwargs,
                    _Hop(dp, entry, in_dt, in_du, out_dt, out_du), sink)
            if type(sink) is not Output or sink.port == FLOOD_PORT:
                return None  # punt / flood
            port = dp.ports.get(sink.port)
            if port is None:
                return None
            hop = _Hop(dp, entry, in_dt, in_du, out_dt, out_du,
                       sink.port, port)
            hops.append(hop)
            link = port.peer_link
            if link is None:
                break  # terminal: device egress or counting sink
            far = link._far(port)
            if far is None or far.datapath is None:
                return None
            hop.link = link
            hop.far_port = far
            hop.far_dp = far.datapath
            next_entry = _resolve_next(far.datapath.table, far.port_no,
                                       branches)
            if next_entry is None:
                return None
            in_dt, in_du = out_dt, out_du
            dp = far.datapath
            entry = next_entry
        if len(hops) < 2:
            # Single-hop "chains" are already optimal on the per-hop
            # path (the fast_out specialization); fusing them would
            # only add bookkeeping.
            return None
        return FusedChain(hops, kwargs, _two_branch(hops))

    def _finish_select(self, hops: list[_Hop], kwargs: dict, tail: _Hop,
                       select: SelectOutput) -> Optional[FusedSelectChain]:
        """Lower a select-terminated trace into a
        :class:`FusedSelectChain`, or bail (``None``) when the tail
        cannot be replicated exactly.

        Bails when: any replica port is missing, is FLOOD, or leads to
        a virtual link (the tail delivers straight to devices/sinks —
        a linked replica would need its own downstream trace *per
        frame*); or the composed rewrite touches MAC fields (non-IPv4
        frames hash their L2 conversation, so a MAC rewrite upstream
        changes the flow hash the per-hop path would compute at the
        select hop — not reproducible from the ingress parse).
        """
        if "src" in kwargs or "dst" in kwargs:
            return None
        ports = tail.dp.ports
        replicas: dict = {}
        for out_no in select.ports:
            if out_no == FLOOD_PORT:
                return None
            port = ports.get(out_no)
            if port is None or port.peer_link is not None:
                return None
            replicas[out_no] = (port, port.device)
        return FusedSelectChain(hops, kwargs, _two_branch(hops + [tail]),
                                tail, select, replicas)


def _two_branch(hops: list[_Hop]) -> bool:
    """Whether initially-tagged and initially-untagged frames ever
    differ in wire length along ``hops`` (so byte settlement must
    classify frames)."""
    return any(hop.in_dt != hop.in_du or hop.out_dt != hop.out_du
               for hop in hops)
