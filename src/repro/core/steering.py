"""Traffic steering: LSI-0, per-graph LSIs, virtual links, rule split.

Figure 1: "For each NF-FG a new software switch, called Logical Switch
Instance (LSI), is created in order to steer traffic among the
corresponding VNFs in the right order, while a base LSI is in charge of
classifying the traffic received by the node and delivering it to the
proper NF-FG-specific LSI."

Rule translation.  Every NF-FG big-switch rule names an input port and
an output port; each resolves to a *location* — (LSI, port number,
optional VLAN id).  Endpoints and shared-NNF trunks live on LSI-0,
dedicated NF ports on the graph's LSI:

* same LSI: one flow entry;
* across LSIs: the first segment pushes a per-rule *internal tag*
  before the virtual link, the second matches the tag on the far side
  and pops it — this is how LSI-0 "classifies" node traffic into the
  right graph LSI without re-parsing user headers twice.

Shared NNFs (paper §2): the adaptation layer assigned each
(graph, logical-port) a VLAN id; steering pushes that id right before
the trunk port and matches+pops it on traffic coming back.

Every action list this module emits is transforms followed by one
sink (``Output``, ``PushVlan+Output``, ``PopVlan+Output``,
``PopVlan+PushVlan+Output``, and for replica groups ``SelectOutput`` /
``PopVlan+SelectOutput``), which
:func:`repro.switch.actions.compile_actions` lowers to a single
composed rewrite — at most one frame copy per hop — and chain fusion
can compose across hops, so the per-hop switching cost the paper's
model charges stays flat no matter how many segments a rule spans.

Replicated NFs (``replicas=N`` in the graph, expanded by
:mod:`repro.nffg.replicas`): a rule whose destination is the replica
group installs a hash select-output over the group's ports in replica
order — 5-tuple flow affinity via the carried
:class:`~repro.net.builder.ParsedFrame` (zero extra parsing on the
batched path).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.compute.instances import NfInstance
from repro.linuxnet.devices import NetDevice
from repro.nffg.model import FlowRule, Nffg, PortRef
from repro.nffg.replicas import is_lb_rule_id, lb_state_group, replica_group
from repro.openflow.agent import SwitchAgent
from repro.openflow.channel import ControlChannel
from repro.openflow.controller import LsiController
from repro.switch.actions import Action, Output, PopVlan, PushVlan, \
    SelectOutput
from repro.switch.datapath import SwitchPort
from repro.switch.flowtable import FlowMatch
from repro.switch.lsi import LogicalSwitchInstance, VirtualLink

__all__ = ["GraphNetwork", "SteeringError", "TrafficSteeringManager"]

_INTERNAL_TAG_BASE = 3000
_INTERNAL_TAG_LIMIT = 4094


class SteeringError(Exception):
    """Unresolvable port reference or exhausted tag space."""


@dataclass
class Location:
    """Where a graph-level port ref physically attaches."""

    lsi: LogicalSwitchInstance
    port_no: int
    vid: Optional[int] = None   # tag expected on ingress / pushed on egress


@dataclass
class InstalledRule:
    """Book-keeping for one realized big-switch rule.

    ``segments`` lists every flow-mod the rule translated into —
    ``(controller, match, priority)`` triples — so the rule can later
    be removed *individually* with strict deletes instead of nuking the
    whole cookie.  This is what lets updates and healing touch only the
    rules that actually changed.
    """

    rule: FlowRule
    segments: list[tuple[LsiController, FlowMatch, int]] = \
        field(default_factory=list)
    #: internal vlink tag held by this rule (cross-LSI rules only);
    #: released back to the graph's pool on uninstall
    tag: Optional[int] = None


@dataclass
class GraphNetwork:
    """Steering state of one deployed graph."""

    graph_id: str
    lsi: LogicalSwitchInstance
    controller: LsiController
    link: VirtualLink
    cookie: int
    nf_ports: dict[tuple[str, str], SwitchPort] = field(default_factory=dict)
    base_link_port: Optional[SwitchPort] = None
    #: rule_id -> realized segments, the per-rule install registry
    installed: dict[str, InstalledRule] = field(default_factory=dict)
    #: internal tags currently marking frames on *this graph's* vlink.
    #: Tags only need to be unique per link (each graph has its own),
    #: so the pool is per-network — a global allocator capped the node
    #: at ~500 deployed graphs, which is exactly the fleet scale the
    #: control plane is meant to handle.
    used_tags: set[int] = field(default_factory=set)

    def allocate_tag(self) -> int:
        for tag in range(_INTERNAL_TAG_BASE, _INTERNAL_TAG_LIMIT + 1):
            if tag not in self.used_tags:
                self.used_tags.add(tag)
                return tag
        raise SteeringError("internal steering tag space exhausted")

    def release_tag(self, tag: Optional[int]) -> None:
        if tag is not None:
            self.used_tags.discard(tag)

    @property
    def rules_installed(self) -> int:
        """Number of currently realized rules (registry-derived, so it
        can never drift from the actual install state)."""
        return len(self.installed)


class TrafficSteeringManager:
    """Owns LSI-0, the graph LSIs and every OpenFlow controller."""

    def __init__(self) -> None:
        self.base = LogicalSwitchInstance("LSI-0")
        self.base_controller = self._wire_controller(self.base, "ctrl-lsi0")
        self.graphs: dict[str, GraphNetwork] = {}
        self._physical_ports: dict[str, SwitchPort] = {}
        self._trunk_ports: dict[str, SwitchPort] = {}
        self._cookies = itertools.count(1)
        #: Telemetry tracer propagated onto every LSI datapath (node
        #: ingress and per-graph) by :meth:`set_tracer`; graph LSIs
        #: created later inherit it in :meth:`create_graph_network`.
        self.tracer = None
        # Per-cookie fusion attribution on the node-ingress LSI: when
        # whole chains fuse at LSI-0, the owning graph's share of the
        # fused/dispatch counters is recovered from the flow cookie.
        self.base.datapath.fusion.track_cookies = True
        #: The fusion engines of this node with something cached: they
        #: add themselves (``FusionEngine.holders``),
        #: :meth:`invalidate_fusion` empties it.
        self._fusion_holders: set = set()
        self.base.datapath.fusion.holders = self._fusion_holders

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to LSI-0 and every existing graph LSI."""
        self.tracer = tracer
        self.base.datapath.tracer = tracer
        for network in self.graphs.values():
            network.lsi.datapath.tracer = tracer

    # -- wiring helpers ---------------------------------------------------------
    @staticmethod
    def _wire_controller(lsi: LogicalSwitchInstance,
                         name: str) -> LsiController:
        channel = ControlChannel(name=f"{name}-channel")
        SwitchAgent(lsi.datapath, channel)
        controller = LsiController(channel, name=name)
        lsi.controller = controller
        return controller

    def register_physical(self, device: NetDevice) -> SwitchPort:
        """Attach a node NIC to LSI-0 (done once at node bring-up)."""
        if device.name in self._physical_ports:
            raise SteeringError(f"interface {device.name} already on LSI-0")
        port = self.base.datapath.add_port(device.name, device=device)
        self._physical_ports[device.name] = port
        return port

    def _trunk_port(self, device: NetDevice) -> SwitchPort:
        """LSI-0 port for a shared-NNF trunk (idempotent)."""
        port = self._trunk_ports.get(device.name)
        if port is None:
            port = self.base.datapath.add_port(device.name, device=device)
            self._trunk_ports[device.name] = port
        return port

    # -- graph lifecycle -----------------------------------------------------------
    def create_graph_network(self, graph_id: str) -> GraphNetwork:
        if graph_id in self.graphs:
            raise SteeringError(f"graph {graph_id!r} already has an LSI")
        lsi = LogicalSwitchInstance(f"LSI-{graph_id}", graph_id=graph_id)
        lsi.datapath.tracer = self.tracer
        lsi.datapath.fusion.track_cookies = True
        lsi.datapath.fusion.holders = self._fusion_holders
        controller = self._wire_controller(lsi, f"ctrl-{graph_id}")
        link = VirtualLink.connect(self.base.datapath, lsi.datapath,
                                   name=f"vl-{graph_id}")
        network = GraphNetwork(graph_id=graph_id, lsi=lsi,
                               controller=controller, link=link,
                               cookie=next(self._cookies),
                               base_link_port=link.far_port(
                                   self.base.datapath))
        self.graphs[graph_id] = network
        controller.handshake()
        if not self.base_controller.connected:
            self.base_controller.handshake()
        return network

    def attach_instances(self, graph_id: str,
                         instances: dict[str, NfInstance]) -> None:
        """Create LSI ports for every NF port of the graph."""
        network = self._network(graph_id)
        for nf_id, instance in instances.items():
            if instance.shared:
                # Trunk lives on LSI-0 and is shared across graphs.
                for logical in instance.spec.logical_ports:
                    device = instance.switch_devices[logical]
                    self._trunk_port(device)
                continue
            for logical in instance.spec.logical_ports:
                device = instance.switch_devices[logical]
                port = network.lsi.datapath.add_port(
                    f"{nf_id}:{logical}", device=device)
                network.nf_ports[(nf_id, logical)] = port

    def detach_instance(self, graph_id: str, nf_id: str,
                        instance: NfInstance) -> None:
        """Remove the graph-LSI ports of one NF (recreate/remove path).

        Shared NNFs keep their LSI-0 trunk here — it may serve other
        graphs; :meth:`prune_dead_trunks` reclaims it once the driver
        has actually torn the component down.
        """
        network = self._network(graph_id)
        if instance.shared:
            return
        for key in [key for key in network.nf_ports if key[0] == nf_id]:
            port = network.nf_ports.pop(key)
            if port.port_no in network.lsi.datapath.ports:
                network.lsi.datapath.remove_port(port.port_no)

    def prune_dead_trunks(self) -> int:
        """Drop LSI-0 trunk ports whose device was torn down.

        Called after destroying shared instances: when the native
        driver released the component, the trunk veth left the root
        namespace — keeping its port would silently blackhole a later
        re-share under the same name.  Returns how many went.
        """
        pruned = 0
        for name, port in list(self._trunk_ports.items()):
            device = port.device
            if device is not None and device.namespace is None:
                if port.port_no in self.base.datapath.ports:
                    self.base.datapath.remove_port(port.port_no)
                del self._trunk_ports[name]
                pruned += 1
        return pruned

    def remove_graph_network(self, graph_id: str) -> None:
        network = self._network(graph_id)
        # Fused programs first: nothing stale may run while the graph's
        # rules, ports and link are being torn down underneath it.
        self.invalidate_fusion()
        network.controller.flow_delete_by_cookie(network.cookie)
        self.base_controller.flow_delete_by_cookie(network.cookie)
        network.installed.clear()
        for port in list(network.lsi.datapath.ports.values()):
            network.lsi.datapath.remove_port(port.port_no)
        network.link.detach()
        # The base-side vlink port must go too.
        if network.base_link_port is not None:
            self.base.datapath.remove_port(network.base_link_port.port_no)
        self.base.datapath.fusion.cookie_stats.pop(network.cookie, None)
        del self.graphs[graph_id]

    def graph_network(self, graph_id: str) -> GraphNetwork:
        """Public per-graph steering state accessor.

        The reconciler (and anything else outside this module) goes
        through here — reaching for ``_network`` from other layers was
        a private-API leak.
        """
        return self._network(graph_id)

    def has_physical_interface(self, name: str) -> bool:
        """Whether ``name`` is a node NIC attached to LSI-0."""
        return name in self._physical_ports

    def _network(self, graph_id: str) -> GraphNetwork:
        try:
            return self.graphs[graph_id]
        except KeyError:
            raise SteeringError(f"no deployed graph {graph_id!r}") from None

    # -- rule translation ------------------------------------------------------------
    def install_graph_rules(self, graph: Nffg,
                            instances: dict[str, NfInstance]) -> int:
        """Translate and install every big-switch rule; returns count."""
        return self.install_rules(graph, instances, graph.flow_rules)

    def install_rules(self, graph: Nffg, instances: dict[str, NfInstance],
                      rules) -> int:
        """Install a *subset* of the graph's rules (targeted path).

        Reinstalling a rule_id that is already realized first removes
        its old segments, so the call is idempotent.  This is the
        primitive the reconciler uses to touch only added/changed rules
        and only a healed NF's rules — never the whole graph.
        """
        network = self._network(graph.graph_id)
        installed = 0
        for rule in rules:
            if rule.rule_id in network.installed:
                self.uninstall_rule(graph.graph_id, rule.rule_id)
            self._install_rule(network, graph, instances, rule)
            installed += 1
        if installed:
            # New segments may extend chains that previously dead-ended
            # (negative-cached traces): bump the engines so ingress
            # entries re-trace against the post-install rule set.
            self.invalidate_fusion()
        return installed

    def uninstall_rule(self, graph_id: str, rule_id: str) -> bool:
        """Strict-delete every segment of one realized rule.

        Fused-chain programs are dropped *before* the first strict
        delete reaches any table: a chain compiled through this rule's
        segments must never run again once any part of the rule is
        gone, even if a batch is mid-flight when the flow-mod lands
        (the remaining frames fall back to the per-hop path).
        """
        network = self._network(graph_id)
        realized = network.installed.pop(rule_id, None)
        if realized is None:
            return False
        self.invalidate_fusion()
        for controller, match, priority in realized.segments:
            controller.flow_delete(match, cookie=network.cookie,
                                   strict=True, priority=priority)
        network.release_tag(realized.tag)
        return True

    def installed_rules(self, graph_id: str) -> dict[str, FlowRule]:
        """rule_id -> realized FlowRule, the observed-rule view."""
        network = self._network(graph_id)
        return {rule_id: realized.rule
                for rule_id, realized in network.installed.items()}

    def _resolve(self, network: GraphNetwork, graph: Nffg,
                 instances: dict[str, NfInstance],
                 ref: PortRef) -> Location:
        if ref.kind == "endpoint":
            endpoint = graph.endpoint(ref.element)
            port = self._physical_ports.get(endpoint.interface)
            if port is None:
                raise SteeringError(
                    f"endpoint {ref.element!r}: interface "
                    f"{endpoint.interface!r} is not attached to LSI-0")
            return Location(lsi=self.base, port_no=port.port_no,
                            vid=endpoint.vlan_id)
        instance = instances.get(ref.element)
        if instance is None:
            raise SteeringError(f"no instance for NF {ref.element!r}")
        if instance.shared:
            device = instance.switch_devices[ref.port]
            port = self._trunk_port(device)
            return Location(lsi=self.base, port_no=port.port_no,
                            vid=instance.port_vlans[ref.port])
        port = network.nf_ports.get((ref.element, ref.port))
        if port is None:
            raise SteeringError(
                f"NF {ref.element!r} has no port {ref.port!r} on "
                f"{network.lsi.name}")
        return Location(lsi=network.lsi, port_no=port.port_no)

    def _resolve_lb_group(self, network: GraphNetwork,
                          instances: dict[str, NfInstance],
                          ref: PortRef) -> list[Location]:
        """Locations of every replica of ``ref.element``, replica order.

        The expansion layer leaves a load-balancer rule's output on the
        *base* nf_id; the realized destination is the whole replica
        group (``nf``, ``nf@1``, ...).  Replicas must be dedicated
        (non-shared) NFs on the graph's own LSI — a shared-NNF trunk
        multiplexes graphs by VLAN and cannot take a per-frame hash
        spread.
        """
        members = replica_group(instances, ref.element)
        if not members:
            raise SteeringError(f"no replica instances for NF "
                                f"{ref.element!r}")
        locations: list[Location] = []
        for nf_id in members:
            if instances[nf_id].shared:
                raise SteeringError(
                    f"replicated NF {ref.element!r} resolved to a shared "
                    f"NNF ({nf_id}); replicas must be dedicated instances")
            port = network.nf_ports.get((nf_id, ref.port))
            if port is None:
                raise SteeringError(
                    f"replica {nf_id!r} has no port {ref.port!r} on "
                    f"{network.lsi.name}")
            locations.append(Location(lsi=network.lsi,
                                      port_no=port.port_no))
        return locations

    @staticmethod
    def _match_fields(rule: FlowRule) -> dict:
        spec = rule.match
        fields: dict = {}
        if spec.eth_type is not None:
            fields["eth_type"] = spec.eth_type
        if spec.ip_src is not None:
            fields["ip_src"] = spec.ip_src
        if spec.ip_dst is not None:
            fields["ip_dst"] = spec.ip_dst
        if spec.ip_proto is not None:
            fields["ip_proto"] = spec.ip_proto
        if spec.tp_src is not None:
            fields["tp_src"] = spec.tp_src
        if spec.tp_dst is not None:
            fields["tp_dst"] = spec.tp_dst
        return fields

    def _controller_for(self, lsi: LogicalSwitchInstance) -> LsiController:
        if lsi is self.base:
            return self.base_controller
        return lsi.controller

    def _install_rule(self, network: GraphNetwork, graph: Nffg,
                      instances: dict[str, NfInstance],
                      rule: FlowRule) -> None:
        src = self._resolve(network, graph, instances, rule.match.port_in)
        # A load-balancer rule (replica expansion marked its id) spreads
        # its output over the whole replica group with 5-tuple-hash
        # affinity; everything else is the single-destination path.
        if is_lb_rule_id(rule.rule_id) and rule.output.kind == "vnf":
            group = self._resolve_lb_group(network, instances, rule.output)
            dst = group[0]
            spread: "Optional[tuple[int, ...]]" = tuple(
                location.port_no for location in group)
            # Stateful spread: the select consults a per-flow state
            # table keyed on what stays constant across scale events,
            # so established flows keep their owning replica when the
            # count changes.  Flows that predate the first scale-out
            # (no entry, but provably established) belong to replica 0
            # — the member that kept the base identity and the
            # pre-spread connection state.
            state_group = lb_state_group(network.graph_id,
                                         rule.output.element,
                                         rule.output.port)
            table = network.lsi.datapath.flow_state.table(state_group)
            table.default_owner = spread[0]
        else:
            dst = self._resolve(network, graph, instances, rule.output)
            spread = None
            state_group = None
        fields = self._match_fields(rule)
        ingress_vid = src.vid if src.vid is not None else rule.match.vlan_id
        realized = InstalledRule(rule=rule)

        def add_segment(controller: LsiController, match: FlowMatch,
                        actions: list[Action]) -> None:
            controller.flow_add(match, actions, priority=rule.priority,
                                cookie=network.cookie)
            realized.segments.append((controller, match, rule.priority))

        try:
            if src.lsi is dst.lsi:
                actions: list[Action] = []
                if ingress_vid is not None:
                    actions.append(PopVlan())
                if spread is not None:
                    actions.append(SelectOutput(spread, group=state_group))
                else:
                    if dst.vid is not None:
                        actions.append(PushVlan(dst.vid))
                    actions.append(Output(dst.port_no))
                add_segment(self._controller_for(src.lsi),
                            FlowMatch(in_port=src.port_no,
                                      vlan_vid=ingress_vid, **fields),
                            actions)
            else:
                # Two segments across the graph's virtual link.
                tag = network.allocate_tag()
                realized.tag = tag
                src_link_port = network.link.far_port(src.lsi.datapath)
                dst_link_port = network.link.far_port(dst.lsi.datapath)

                first_actions: list[Action] = []
                if ingress_vid is not None:
                    first_actions.append(PopVlan())
                first_actions.append(PushVlan(tag))
                first_actions.append(Output(src_link_port.port_no))
                add_segment(self._controller_for(src.lsi),
                            FlowMatch(in_port=src.port_no,
                                      vlan_vid=ingress_vid, **fields),
                            first_actions)

                second_actions: list[Action] = [PopVlan()]
                if spread is not None:
                    second_actions.append(SelectOutput(spread,
                                                       group=state_group))
                else:
                    if dst.vid is not None:
                        second_actions.append(PushVlan(dst.vid))
                    second_actions.append(Output(dst.port_no))
                add_segment(self._controller_for(dst.lsi),
                            FlowMatch(in_port=dst_link_port.port_no,
                                      vlan_vid=tag),
                            second_actions)
        except Exception:
            # Half-installed rules may never linger: strict-delete what
            # made it in, so a retry starts from a clean slate.
            for controller, match, priority in realized.segments:
                controller.flow_delete(match, cookie=network.cookie,
                                       strict=True, priority=priority)
            network.release_tag(realized.tag)
            raise
        network.installed[rule.rule_id] = realized

    # -- traffic injection ---------------------------------------------------------
    def inject_batch(self, interface: str, frames) -> None:
        """Drive a batch of frames into LSI-0 as if received on ``interface``.

        The frames enter through the registered physical port and
        traverse the whole LSI chain batch-at-a-time via
        :meth:`~repro.switch.datapath.Datapath.process_batch_from` —
        every hop runs compiled actions, carries the
        :class:`~repro.net.builder.ParsedFrame` forward (zero re-parse
        for untouched frames) and flushes flow *and* port counters once
        per batch.  ``frames`` may be :class:`EthernetFrame` objects or
        raw frame bytes (decoded on entry) — the same path real
        NetDevice ingress takes through the batch handler protocol.
        """
        port = self._physical_ports.get(interface)
        if port is None:
            raise SteeringError(
                f"interface {interface!r} is not attached to LSI-0")
        self.base.datapath.process_batch_from(port.port_no, frames)

    def replay_pcap(self, interface: str, stream,
                    batch_size: int = 256) -> int:
        """Replay a pcap capture into LSI-0 batch-at-a-time.

        Reads Ethernet records from ``stream`` (any binary file object
        in libpcap format), groups them into batches of at most
        ``batch_size`` and injects each through :meth:`inject_batch`,
        so even multi-gigabyte capture replays run the batched
        zero-reparse pipeline end to end.  Returns the number of frames
        replayed.  Record timestamps are ignored — replay is
        back-to-back, which is what the pps benchmarks want.
        """
        from repro.net.pcap import PcapReader

        if batch_size < 1:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        total = 0
        batch: list = []
        for _timestamp, frame_bytes in PcapReader(stream):
            batch.append(frame_bytes)
            if len(batch) >= batch_size:
                self.inject_batch(interface, batch)
                total += len(batch)
                batch = []
        if batch:
            self.inject_batch(interface, batch)
            total += len(batch)
        return total

    # -- chain fusion -------------------------------------------------------------
    def invalidate_fusion(self) -> int:
        """Drop every fused-chain program — and every per-port
        dispatch table — on every LSI of this node; returns how many
        live programs were dropped.

        This is the steering-level half of the fusion-invalidation
        contract (:mod:`repro.switch.fusion`): any rule install/
        uninstall, replica change (which goes through install/
        uninstall) or graph teardown calls it *before* the change
        reaches the tables, so no program compiled against the old
        rule set — and no dispatch slot still pointing at one — can
        run afterwards.  The flush-time validity check and the
        per-frame dispatch version stamp remain as the backstop for
        direct table writes.

        Only engines that cached something are called: each reported
        itself into :attr:`_fusion_holders` when it stamped its first
        verdict or built its first slot, and an engine outside that set
        has nothing to drop — so the call costs the same beside one
        graph or a thousand.
        """
        dropped = 0
        holders = self._fusion_holders
        while holders:
            dropped += holders.pop().invalidate()
        return dropped

    def fusion_stats(self) -> dict[str, dict]:
        """Per-LSI fused-chain counters (telemetry view)."""
        stats = {"LSI-0": self.base.datapath.fusion.stats()}
        for network in self.graphs.values():
            stats[network.lsi.name] = network.lsi.datapath.fusion.stats()
        return stats

    # -- per-flow state ------------------------------------------------------------
    def flow_state_stats(self) -> dict[str, dict]:
        """Per-LSI flow-state counters (telemetry view).

        Pinned / remapped / churned speak for replica affinity the way
        fusion hits speak for the fast path: a scale event that broke
        affinity shows up as remapped flows here before any NF notices.
        """
        stats = {"LSI-0": self.base.datapath.flow_state.stats()}
        for network in self.graphs.values():
            stats[network.lsi.name] = \
                network.lsi.datapath.flow_state.stats()
        return stats

    def set_state_clock(self, clock) -> None:
        """Rebind every LSI's flow-state aging clock (sim drivers).

        The same contract as the journal clock: a sim-driven control
        loop moves state aging onto virtual time so entry lifetimes in
        scale-cycle scenarios are deterministic.  Applies to existing
        registries and, because graph LSIs created later copy nothing
        from here, callers driving long simulations should invoke this
        after deploying new graphs too (ControlLoop.run_sim does).
        """
        self.base.datapath.flow_state.clock = clock
        for network in self.graphs.values():
            network.lsi.datapath.flow_state.clock = clock

    # -- inspection ---------------------------------------------------------------
    def flow_counts(self) -> dict[str, int]:
        counts = {"LSI-0": len(self.base.datapath.table)}
        for graph_id, network in self.graphs.items():
            counts[network.lsi.name] = len(network.lsi.datapath.table)
        return counts

    def describe(self) -> str:
        lines = [self.base.datapath.describe()]
        for network in self.graphs.values():
            lines.append(network.lsi.datapath.describe())
        return "\n".join(lines)
