"""The switch pipeline: ports, table lookup, action execution.

A :class:`Datapath` is a single-table OpenFlow-style switch.  Ports
either wrap a :class:`~repro.linuxnet.devices.NetDevice` (NF ports and
node physical ports) or connect to another datapath through a
:class:`~repro.switch.lsi.VirtualLink` (inter-LSI wiring).

Two ingress paths exist:

* :meth:`Datapath.process` — one frame, counters updated inline: the
  *reference* semantics every batch result is differentially pinned
  against, and the live path of frame-at-a-time device ingress;
* :meth:`Datapath.process_batch_from` — the *production* path: a
  whole batch from one ingress port (what virtual links and
  batch-aware NetDevices deliver).  The port is resolved once, flow
  counters *and* port rx/tx counters flush once per batch, and frames
  leaving through a virtual link are carried to the far LSI as one
  batch, so a whole chain of LSIs runs batch-at-a-time.

The batch path is *zero-reparse*: each frame is parsed at most once
per chain.  Batch items may be raw :class:`EthernetFrame` objects
(parsed on entry) or already-carried
:class:`~repro.net.builder.ParsedFrame` views; egress queues hold
``ParsedFrame`` objects and virtual links forward them as-is, so the
next hop's lookup reuses the existing parse (including the lazy
IPv4/L4 decode and cached ``ip_ints``).  When a compiled action list
rewrites a frame (``compiled.mutates``), the emitted frame's parse is
*derived* from the carried one (:meth:`ParsedFrame.derive`): still-valid
layers carry over, anything the rewrite could have touched is dropped.

Action execution is *compiled*: every matching frame, on either
path, runs its entry's cached closure (see
:func:`repro.switch.actions.compile_actions`).
:meth:`Datapath.execute_interpreted` is the reference interpreter the
property suite holds those closures to; no production path calls it.

One level further up sits *chain fusion*
(:mod:`repro.switch.fusion`): when an ingress entry's whole chain —
pure-output/rewrite hops over virtual links to a terminal egress — is
statically determined, the batch path collects its frames into one
group and settles the entire traversal at flush through a
:class:`~repro.switch.fusion.FusedChain`: a single ingress lookup (or
none, through the per-port dispatch table), no intermediate
``carry_batch``/``process_batch_from`` round-trips, all per-hop
counters accumulated arithmetically.  Fused programs are re-validated
immediately before running, so any mid-batch change along the chain
falls the group back to the per-hop batch path, which stays the
differential oracle (``datapath.fusion.enabled = False`` pins it —
together with ``table.oracle`` the only mode switches left).

Batch contracts: the ingress port is resolved once per batch (not per
frame), taps run in a pre-pass over the batch's frames before any
lookup, and rx counters flush once per batch — a packet-in handler
therefore sees pre-batch rx, flow and tx totals.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.linuxnet.devices import NetDevice
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.ethernet import EthernetFrame
from repro.switch.actions import (
    ActionError,
    Controller,
    EmitFn,
    FLOOD_PORT,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
    resolve_select,
)
from repro.switch.flowtable import FlowEntry, FlowTable
from repro.switch.fusion import FusionEngine
from repro.switch.state import FlowStateRegistry

__all__ = ["Datapath", "SwitchPort"]

PacketInHandler = Callable[["Datapath", int, EthernetFrame], None]
TapHandler = Callable[[int, EthernetFrame], None]


class SwitchPort:
    """One switch port, optionally bound to a NetDevice."""

    def __init__(self, port_no: int, name: str,
                 device: Optional[NetDevice] = None) -> None:
        self.port_no = port_no
        self.name = name
        self.device = device
        self.datapath: Optional["Datapath"] = None
        self.peer_link = None  # set by VirtualLink
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0

    def deliver_out(self, frame: EthernetFrame) -> None:
        """Frame leaving the switch through this port."""
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        if self.device is not None:
            # Out the device towards its peer (veth half inside an NF
            # namespace, or the node's physical NIC).
            self.device.transmit(frame)
        elif self.peer_link is not None:
            self.peer_link.carry(self, frame)

    def deliver_out_batch(self, frames: list[ParsedFrame],
                          nbytes: int) -> None:
        """Batch egress of carried parses: a device receives the raw
        frames in one ``transmit_batch``, a virtual-link peer receives
        the parsed views in one carry (no re-parse at the far LSI).
        ``nbytes`` is the batch's total wire length, accumulated by the
        datapath's emit closures as frames were queued."""
        self.tx_packets += len(frames)
        self.tx_bytes += nbytes
        if self.device is not None:
            self.device.transmit_batch([parsed.eth for parsed in frames])
        elif self.peer_link is not None:
            self.peer_link.carry_batch(self, frames)

    def __repr__(self) -> str:
        return f"<SwitchPort {self.port_no}:{self.name}>"


class _BatchState:
    """Shared mutable state of one batch invocation: the flow-counter
    accumulator and egress queues the ingress loop feeds, the emit
    and per-hop ``run_hop`` closures bound to them, and — when fusion
    is engaged — the fused groups awaiting settlement in
    :meth:`Datapath._finish_batch`.

    ``fusion`` is the ingress datapath's engine when fusion is live
    for this batch (enabled, no taps), else ``None``.
    ``fused`` maps ingress ``entry_id`` to
    ``[program, frames, nbytes, in_port, disp_n, disp_bytes]``
    groups — ``disp_n``/``disp_bytes`` count the group's frames that
    arrived through a dispatch slot and therefore still owe their
    ingress lookup/flow counters at flush (lookup-path frames settled
    theirs through ``pending``).  One group per entry regardless of
    arrival path, so per-entry egress order survives a mid-batch mix
    of dispatch hits and lookup hits.  ``dispatch_engaged`` records
    whether the per-port dispatch layer was live for this batch (it
    additionally requires the table's oracle mode off — dispatch skips
    ``lookup()``, which would silently bypass the oracle cross-check).
    """

    __slots__ = ("pending", "queues", "run_hop", "fusion", "fused",
                 "dispatch_engaged", "trace")


class Datapath:
    """Single-table software switch."""

    def __init__(self, dpid: int, name: str = "") -> None:
        self.dpid = dpid
        self.name = name or f"dp{dpid}"
        self.table = FlowTable()
        self.ports: dict[int, SwitchPort] = {}
        self._ports_by_name: dict[str, SwitchPort] = {}
        self._next_port = 1
        self.packet_in_handler: Optional[PacketInHandler] = None
        self.taps: list[TapHandler] = []
        self.rx_packets = 0
        self.table_misses = 0
        self.dropped = 0
        self.action_errors = 0
        #: ``[ParsedFrame, wire_len]`` of the frame whose actions are
        #: currently executing.  Every ingress path rebinds slot 0
        #: before actions run; compiled programs that need header
        #: fields beyond L2 (hash select-output) read the parse from
        #: here instead of re-parsing the frame.  Single-threaded by
        #: design, like the rest of the pipeline; a packet-in handler
        #: that re-injects mid-program would clobber it, so hash-select
        #: programs read the cell before any punt.
        self.carried: list = [None, 0]
        #: Chain-fusion engine for chains whose *ingress* is this LSI
        #: (see :mod:`repro.switch.fusion`).  On by default; the
        #: differential oracle, the dataplane gate tests and nfbench's
        #: reference replay pin ``fusion.enabled = False`` per instance.
        self.fusion = FusionEngine(self)
        #: Per-flow state tables consulted by stateful select-output
        #: actions (``SelectOutput.group``); see
        #: :mod:`repro.switch.state`.  Tables outlive the flow entries
        #: that consult them — replica-affinity state survives the
        #: rule churn of a scale event by design.
        self.flow_state = FlowStateRegistry(name=self.name)
        #: Optional :class:`repro.telemetry.tracing.Tracer`.  When
        #: attached, ``process_batch_from`` runs its 1-in-N sampler
        #: inline — an unsampled batch pays one counter compare and
        #: nothing else; a sampled batch records an ingress→dispatch→
        #: hops→egress span tree and the per-batch latency histogram.
        self.tracer = None

    # -- port management --------------------------------------------------------
    def add_port(self, name: str, device: Optional[NetDevice] = None,
                 port_no: Optional[int] = None) -> SwitchPort:
        if port_no is None:
            port_no = self._next_port
        if port_no in self.ports:
            raise ValueError(f"port {port_no} already on {self.name}")
        self._next_port = max(self._next_port, port_no) + 1
        port = SwitchPort(port_no, name, device)
        port.datapath = self
        self.ports[port_no] = port
        # First port wins on duplicate names, like the old linear scan.
        self._ports_by_name.setdefault(name, port)
        if device is not None:
            device.attach_handler(
                lambda dev, frame, p=port_no: self.process(p, frame),
                batch_handler=lambda dev, frames, p=port_no:
                    self.process_batch_from(p, frames))
            if not device.up:
                device.set_up()
        return port

    def remove_port(self, port_no: int) -> SwitchPort:
        try:
            port = self.ports.pop(port_no)
        except KeyError:
            raise KeyError(f"no port {port_no} on {self.name}") from None
        if self._ports_by_name.get(port.name) is port:
            del self._ports_by_name[port.name]
            # Another port may share the name; restore the earliest-added
            # one (dict insertion order — the old linear scan's winner).
            for other in self.ports.values():
                if other.name == port.name:
                    self._ports_by_name[port.name] = other
                    break
        if port.device is not None:
            port.device.detach_handler()
        port.datapath = None
        return port

    def port_by_name(self, name: str) -> SwitchPort:
        try:
            return self._ports_by_name[name]
        except KeyError:
            raise KeyError(
                f"no port named {name!r} on {self.name}") from None

    # -- pipeline -----------------------------------------------------------------
    def process(self, in_port: int, frame: EthernetFrame) -> None:
        """Run one frame through the pipeline."""
        if in_port not in self.ports:
            raise KeyError(f"frame from unknown port {in_port} on {self.name}")
        self.rx_packets += 1
        port = self.ports[in_port]
        parsed = parse_frame(frame)
        port.rx_packets += 1
        port.rx_bytes += parsed.wire_len
        for tap in self.taps:
            tap(in_port, frame)
        entry = self.table.lookup(in_port, parsed)
        if entry is None:
            self.table_misses += 1
            if self.packet_in_handler is not None:
                self.packet_in_handler(self, in_port, frame)
            else:
                self.dropped += 1
            return
        carried = self.carried
        carried[0] = parsed
        carried[1] = parsed.wire_len
        entry.compiled(self, in_port, frame, self._emit)

    def _batch_hop(self, queues: dict[int, list]):
        """Build the per-hop execution arm of one batch:
        ``run_hop(entry, in_port, parsed, size)`` runs one matched
        frame's actions into the egress ``queues``.  The ingress loop
        and the stale-program fallback both go through it, so fused
        programs have exactly one per-hop body to stay equivalent to.

        Each queue is a two-slot ``[frames, nbytes]`` accumulator, so
        the flush hands the egress port a ready byte total.  The arm
        rebinds ``self.carried`` to the frame's :class:`ParsedFrame`
        (and wire length), then enqueues directly for pure-output
        entries (``entry.fast_out`` — no program call) or calls the
        compiled program with one of two emit closures, selected by
        its ``mutates`` tag:

        * ``emit`` (mutating programs) re-attaches the carried parse
          to whatever the program hands back — an emitted frame
          identical to the ingress frame keeps its parse wholesale, a
          rewritten frame gets a parse *derived* from it, so
          still-valid layers are never decoded again;
        * ``emit_carry`` (non-mutating programs) skips even that
          identity check: such a program only ever emits the ingress
          frame object itself, so the carried parse (and its
          already-known size) is forwarded as-is.
        """
        ports = self.ports
        carried = self.carried

        def enqueue(number: int, port: SwitchPort,
                    parsed: ParsedFrame) -> None:
            acc = queues.get(number)
            if acc is None:
                queues[number] = [[parsed], parsed.wire_len]
            else:
                acc[0].append(parsed)
                acc[1] += parsed.wire_len

        def emit(out_port: int, in_port: int, frame: EthernetFrame) -> None:
            parsed = carried[0]
            if frame is not parsed.eth:
                parsed = parsed.derive(frame)
                size = parsed.wire_len
            else:
                size = carried[1]
            # Unicast to an already-seen port is the hot case: one dict
            # hit and an append.  Everything else (first frame for a
            # port, FLOOD, unknown port) takes the shared _route policy.
            acc = queues.get(out_port)
            if acc is not None:
                acc[0].append(parsed)
                acc[1] += size
                return
            if out_port == FLOOD_PORT or out_port not in ports:
                self._route(out_port, in_port, parsed, enqueue)
                return
            queues[out_port] = [[parsed], size]

        def emit_carry(out_port: int, in_port: int,
                       frame: EthernetFrame) -> None:
            acc = queues.get(out_port)
            if acc is not None:
                acc[0].append(carried[0])
                acc[1] += carried[1]
                return
            if out_port == FLOOD_PORT or out_port not in ports:
                self._route(out_port, in_port, carried[0], enqueue)
                return
            queues[out_port] = [[carried[0]], carried[1]]

        def run_hop(entry: FlowEntry, in_port: int, parsed: ParsedFrame,
                    size: int) -> None:
            carried[0] = parsed
            carried[1] = size
            if entry.fast_out is not None:
                emit_carry(entry.fast_out, in_port, parsed.eth)
                return
            program = entry.compiled
            program(self, in_port, parsed.eth,
                    emit if program.mutates else emit_carry)

        return run_hop

    def _run_ingress(self, in_port: int,
                     frames: "Iterable[EthernetFrame | ParsedFrame]",
                     state: _BatchState) -> None:
        """The batch inner loop: run one ingress port's frames into
        the batch state.

        Taps run in a pre-pass (frames are parsed once, here or in the
        loop, never twice); rx counters flush in this method's
        ``finally``, once per batch, covering exactly the frames pulled
        from the iterator.
        """
        port = self.ports.get(in_port)
        if port is None:
            raise KeyError(
                f"frame from unknown port {in_port} on {self.name}")
        taps = self.taps
        if taps:
            frames = [frame if type(frame) is ParsedFrame
                      else parse_frame(frame) for frame in frames]
            for parsed in frames:
                eth = parsed.eth
                for tap in taps:
                    tap(in_port, eth)
        table = self.table
        pending = state.pending
        run_hop = state.run_hop
        fusion = state.fusion
        fused = state.fused
        dispatch = None
        if fusion is not None and not table.oracle:
            dispatch = fusion.dispatch.get(in_port)
            if dispatch is None:
                dispatch = fusion.dispatch[in_port] = {}
            state.dispatch_engaged = True
        packets = 0
        nbytes = 0

        try:
            for frame in frames:
                if dispatch is not None:
                    # Dispatch fast path: one dict probe and a version
                    # compare takes the frame straight to its fused
                    # program — no table walk, no pending bookkeeping,
                    # and (for raw ingress frames) no ``ParsedFrame``
                    # allocation at all: the frame is parked as-is and
                    # the program normalizes at delivery, so a plain
                    # fused chain never decodes past L2.  The group's
                    # dispatch counters settle the ingress lookup/flow
                    # totals at flush.  The version is checked per
                    # frame so a mid-batch flow-mod re-resolves the
                    # slice immediately.
                    if type(frame) is ParsedFrame:
                        eth = frame.eth
                        size = frame.wire_len
                    else:
                        if frame.__class__ is bytes:
                            frame = EthernetFrame.from_bytes(frame)
                        eth = frame
                        size = len(frame)
                    packets += 1
                    nbytes += size
                    slot = dispatch.get(eth.vlan)
                    if slot is None or slot[0] != table.version:
                        slot = fusion.build_slot(dispatch, in_port,
                                                 eth.vlan)
                    entry = slot[1]
                    if entry is not None:
                        group = fused.get(entry.entry_id)
                        if group is None:
                            fused[entry.entry_id] = [slot[2], [frame],
                                                     size, in_port,
                                                     1, size]
                        else:
                            group[1].append(frame)
                            group[2] += size
                            group[4] += 1
                            group[5] += size
                        continue
                    parsed = (frame if type(frame) is ParsedFrame
                              else parse_frame(frame))
                else:
                    parsed = (frame if type(frame) is ParsedFrame
                              else parse_frame(frame))
                    size = parsed.wire_len
                    packets += 1
                    nbytes += size
                entry = table.lookup(in_port, parsed, count=False)
                if entry is None:
                    self.table_misses += 1
                    if self.packet_in_handler is not None:
                        self.packet_in_handler(self, in_port, parsed.eth)
                    else:
                        self.dropped += 1
                    continue
                acc = pending.get(entry.entry_id)
                if acc is None:
                    pending[entry.entry_id] = [entry, 1, size]
                else:
                    acc[1] += 1
                    acc[2] += size
                if fusion is not None:
                    program = entry.fused
                    if program is None or (type(program) is int
                                           and program != fusion.epoch):
                        program = fusion.trace(entry)
                    if type(program) is not int:
                        # Whole-chain hop: park the frame for one
                        # straight-line settlement at flush instead of
                        # walking it hop by hop.
                        group = fused.get(entry.entry_id)
                        if group is None:
                            fused[entry.entry_id] = [program, [parsed],
                                                     size, in_port,
                                                     0, 0]
                        else:
                            group[1].append(parsed)
                            group[2] += size
                        continue
                run_hop(entry, in_port, parsed, size)
        finally:
            # A bad frame or raising handler must not lose the batch's
            # prefix: account what was actually pulled and processed.
            self.rx_packets += packets
            port.rx_packets += packets
            port.rx_bytes += nbytes

    def _finish_batch(self, state: _BatchState) -> None:
        """Settle one batch: run (or fall back) the fused groups, then
        flush flow counters and drain the egress queues.

        Every fused program is re-validated *immediately before*
        running, so a mid-batch change anywhere along its chain —
        flow-mod, replica change, port removal, tap attach, link
        rewire — can never run a stale program: it is torn down for
        re-tracing (:meth:`FusionEngine.drop`, counted and reported
        like a proactive invalidation) and the group, its ingress rx
        and flow counters already accounted, replays through the
        per-hop ``run_hop`` arm into the live queues for the normal
        flush to carry to the (possibly changed) next hop.
        """
        fusion = state.fusion
        if fusion is not None:
            hits = 0
            dispatched = 0
            table = self.table
            run_hop = state.run_hop
            # Per-graph attribution (opt-in: steering-managed LSIs
            # only): cookie -> [matched, hits, dispatched] this batch.
            shares = {} if fusion.track_cookies else None
            for group in state.fused.values():
                program, frames, nbytes, in_port, disp_n, disp_bytes = \
                    group
                entry = program.ingress_entry
                if disp_n:
                    # Dispatch-hit frames skipped table.lookup() and
                    # the pending accumulator; settle the ingress
                    # lookup/match/flow counters they owe *before*
                    # running or falling back, so both arms start from
                    # per-hop-identical counter state.
                    dispatched += disp_n
                    table.lookups += disp_n
                    table.credit(entry, disp_n, disp_bytes)
                if program.valid():
                    program.run(frames, nbytes)
                    group_hits = len(frames)
                    hits += group_hits
                else:
                    fusion.drop((entry,))
                    for frame in frames:
                        # Dispatch-hit frames were parked *raw*; they
                        # get their one ParsedFrame here — the single
                        # parse per frame the per-hop path pays at
                        # ingress.
                        parsed = (frame if type(frame) is ParsedFrame
                                  else parse_frame(frame))
                        run_hop(entry, in_port, parsed, parsed.wire_len)
                    group_hits = 0
                if shares is not None:
                    cookie = entry.cookie
                    if cookie:
                        row = shares.get(cookie)
                        if row is None:
                            row = shares[cookie] = [0, 0, 0]
                        row[0] += disp_n
                        row[1] += group_hits
                        row[2] += disp_n
            matched = dispatched
            for acc in state.pending.values():
                matched += acc[1]
            fusion.hits += hits
            fusion.misses += matched - hits
            if state.dispatch_engaged:
                fusion.dispatch_hits += dispatched
                fusion.dispatch_misses += matched - dispatched
            if shares is not None:
                # Lookup-path frames count toward their entry's cookie;
                # settle each graph's share with the same matched-minus
                # arithmetic as the aggregates above.
                for acc in state.pending.values():
                    cookie = acc[0].cookie
                    if cookie:
                        row = shares.get(cookie)
                        if row is None:
                            row = shares[cookie] = [0, 0, 0]
                        row[0] += acc[1]
                engaged = state.dispatch_engaged
                cookie_stats = fusion.cookie_stats
                for cookie, (c_matched, c_hits, c_disp) in shares.items():
                    totals = cookie_stats.get(cookie)
                    if totals is None:
                        totals = cookie_stats[cookie] = [0, 0, 0, 0]
                    totals[0] += c_hits
                    totals[1] += c_matched - c_hits
                    if engaged:
                        totals[2] += c_disp
                        totals[3] += c_matched - c_disp
        # Flow counters, then the egress queues (each carries its byte
        # total alongside the frames: no second ``wire_len`` pass).
        table = self.table
        for entry, packets, nbytes in state.pending.values():
            table.credit(entry, packets, nbytes)
        for port_no, (frames, nbytes) in state.queues.items():
            port = self.ports.get(port_no)
            if port is None:  # removed by a tap/handler mid-batch
                self.dropped += len(frames)
                continue
            port.deliver_out_batch(frames, nbytes)
        if state.trace is not None:
            self.tracer.finish_batch(state.trace, self, state)

    def process_batch_from(
            self, in_port: int,
            frames: "Iterable[EthernetFrame | ParsedFrame]") -> None:
        """Run a batch of frames arriving on one ingress port — what a
        virtual link carries to the next LSI and what a batch-aware
        :class:`NetDevice` hands its handler.  This is the chain hot
        path.

        Behaviorally equivalent to calling :meth:`process` per frame,
        except that side effects are amortized: taps run in a
        pre-pass, rx counters flush once, and flow counters and egress
        queues flush at the end (a tap or packet-in handler that
        inspects them mid-batch sees pre-batch values).  Egress is
        coalesced per output port — virtual links forward one batch to
        the far LSI instead of recursing per frame — and whole-chain
        fused entries settle straight to the terminal at flush.
        Per-port egress order is preserved among matched frames of any
        one flow entry.  A packet-in handler that re-injects via
        :meth:`process` delivers immediately, i.e. ahead of frames
        still queued for the batch flush.

        Frames may be raw :class:`EthernetFrame` objects or
        :class:`ParsedFrame` views carried from an upstream hop; the
        latter are *not* re-parsed (see the module docstring).
        """
        state = _BatchState()
        state.pending = {}
        state.queues = {}
        state.run_hop = self._batch_hop(state.queues)
        engine = self.fusion
        # Fusion engages only when the chain hot path itself would run
        # unobserved: a tap must see every frame per hop, which a fused
        # chain by design does not do.
        state.fusion = engine if engine.enabled and not self.taps else None
        state.fused = {}
        state.dispatch_engaged = False
        tracer = self.tracer
        if tracer is None:
            state.trace = None
        else:
            # Inline 1-in-N batch sampler: the unsampled path is this
            # counter bump and compare, with no call and no clock read.
            n = tracer.batch_counter + 1
            if n >= tracer.sample_every:
                tracer.batch_counter = 0
                state.trace = tracer.begin_batch(self.name)
            else:
                tracer.batch_counter = n
                state.trace = None
        try:
            self._run_ingress(in_port, frames, state)
        finally:
            self._finish_batch(state)

    def execute_interpreted(self, actions: Iterable, in_port: int,
                            frame: EthernetFrame,
                            deliver: Optional[EmitFn] = None) -> None:
        """Reference action interpreter: per-frame type dispatch.

        Kept only as the semantic baseline for the compiled closures —
        ``tests/test_compiled_actions.py`` asserts both paths produce
        identical emissions and counters.
        """
        if deliver is None:
            deliver = self._emit
        current = frame
        emitted = False
        for action in actions:
            if isinstance(action, Output):
                emitted = True
                deliver(action.port, in_port, current)
            elif isinstance(action, SelectOutput):
                # Reference semantics of hash-select: the same
                # rendezvous / state-table resolution as the compiled
                # form (resolve_select), computed from the carried
                # parse when the pipeline provided one (ingress-frame
                # identity), from a one-off parse otherwise.
                emitted = True
                parsed = self.carried[0]
                if parsed is None or parsed.eth is not frame:
                    parsed = parse_frame(frame)
                deliver(resolve_select(self, action, parsed),
                        in_port, current)
            elif isinstance(action, Controller):
                emitted = True
                if self.packet_in_handler is not None:
                    self.packet_in_handler(self, in_port, current)
                else:
                    self.dropped += 1
            elif isinstance(action, (PushVlan, PopVlan, SetField)):
                try:
                    current = action.apply(current)
                except ActionError:
                    self.action_errors += 1
                    return
            else:  # pragma: no cover - action union is closed
                raise TypeError(f"unknown action {action!r}")
        if not emitted:
            self.dropped += 1

    def _route(self, out_port: int, in_port: int, frame: EthernetFrame,
               deliver: Callable[[int, SwitchPort, EthernetFrame],
                                 None]) -> None:
        """Routing policy shared by the single-frame and batched paths:
        FLOOD expands to every port but the ingress, unknown ports count
        as drops."""
        if out_port == FLOOD_PORT:
            for number, port in self.ports.items():
                if number != in_port:
                    deliver(number, port, frame)
            return
        port = self.ports.get(out_port)
        if port is None:
            self.dropped += 1
            return
        deliver(out_port, port, frame)

    def _emit(self, out_port: int, in_port: int,
              frame: EthernetFrame) -> None:
        self._route(out_port, in_port, frame,
                    lambda number, port, fr: port.deliver_out(fr))

    # -- convenience -----------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Direct table write (tests); production path is OpenFlow."""
        self.table.add(entry)

    def describe(self) -> str:
        lines = [f"datapath {self.name} dpid={self.dpid:#x} "
                 f"ports={len(self.ports)} flows={len(self.table)}"]
        for number in sorted(self.ports):
            port = self.ports[number]
            lines.append(f"  port {number}: {port.name}")
        lines.extend("  " + text for text in self.table.dump())
        return "\n".join(lines)
