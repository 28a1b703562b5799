"""Network namespace: a complete (simulated) IPv4 stack.

The hook layout mirrors netfilter::

    receive -> mangle/nat PREROUTING -> route
        local:   mangle/filter INPUT -> [XFRM in] -> deliver
        forward: mangle/filter FORWARD -> POSTROUTING -> transmit
    local out -> mangle/nat/filter OUTPUT -> route
             -> [XFRM out] -> POSTROUTING -> transmit

ESP output wraps the packet and re-enters the output path so the outer
packet is routed and POSTROUTING-processed like any other, exactly as
the kernel does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ipsec.esp import EspError, esp_decapsulate, esp_encapsulate
from repro.ipsec.sa import ReplayError
from repro.linuxnet.conntrack import ConnState, ConnTrack, ConnTrackEntry, FlowTuple
from repro.linuxnet.devices import Loopback, NetDevice
from repro.linuxnet.iptables import Ruleset, Verdict
from repro.linuxnet.routing import Route, RouteTable
from repro.linuxnet.xfrm import XfrmDb, XfrmDirection
from repro.net.addresses import BROADCAST_MAC, MacAddress, parse_cidr
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import (
    IPPROTO_ESP,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Packet,
)
from repro.net.transport import TcpSegment, UdpDatagram

__all__ = ["NetworkNamespace", "SkBuff"]

UdpHandler = Callable[["NetworkNamespace", IPv4Packet, UdpDatagram], None]
RawHandler = Callable[["NetworkNamespace", IPv4Packet], None]

_ip_id = itertools.count(1)


@dataclass
class SkBuff:
    """Per-packet metadata travelling through the stack (cf. sk_buff)."""

    ipv4: IPv4Packet
    in_iface: Optional[str] = None
    out_iface: Optional[str] = None
    in_device: Optional[NetDevice] = None
    out_device: Optional[NetDevice] = None
    mark: int = 0
    ct_entry: Optional[ConnTrackEntry] = None
    ct_direction: str = "orig"
    ct_is_new: bool = False
    src_mac: Optional[MacAddress] = None
    vlan: Optional[int] = None

    @property
    def sport(self) -> Optional[int]:
        ports = _l4_ports(self.ipv4)
        return ports[0] if ports else None

    @property
    def dport(self) -> Optional[int]:
        ports = _l4_ports(self.ipv4)
        return ports[1] if ports else None


def _l4_ports(packet: IPv4Packet) -> Optional[tuple[int, int]]:
    try:
        if packet.proto == IPPROTO_UDP:
            dgram = UdpDatagram.from_bytes(packet.payload)
            return dgram.src_port, dgram.dst_port
        if packet.proto == IPPROTO_TCP:
            seg = TcpSegment.from_bytes(packet.payload)
            return seg.src_port, seg.dst_port
    except ValueError:
        return None
    return None


def _rewrite(packet: IPv4Packet, src: Optional[str] = None,
             dst: Optional[str] = None, sport: Optional[int] = None,
             dport: Optional[int] = None) -> IPv4Packet:
    """Return a copy with addresses/ports rewritten and checksums redone."""
    new_src = src if src is not None else packet.src
    new_dst = dst if dst is not None else packet.dst
    payload = packet.payload
    if packet.proto == IPPROTO_UDP and (sport or dport or src or dst):
        dgram = UdpDatagram.from_bytes(payload)
        if sport:
            dgram.src_port = sport
        if dport:
            dgram.dst_port = dport
        payload = dgram.to_bytes(new_src, new_dst)
    elif packet.proto == IPPROTO_TCP and (sport or dport or src or dst):
        seg = TcpSegment.from_bytes(payload)
        if sport:
            seg.src_port = sport
        if dport:
            seg.dst_port = dport
        payload = seg.to_bytes(new_src, new_dst)
    return IPv4Packet(src=new_src, dst=new_dst, proto=packet.proto,
                      payload=payload, ttl=packet.ttl,
                      identification=packet.identification,
                      dscp=packet.dscp, flags=packet.flags)


class NetworkNamespace:
    """One network namespace with devices, routes, netfilter and XFRM."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.devices: dict[str, NetDevice] = {}
        self.routes = RouteTable()  # the main table
        #: policy routing: extra tables + fwmark rules selecting them
        self.route_tables: dict[int, RouteTable] = {}
        self.policy_rules: list[tuple[int, int, int]] = []  # (mark,mask,table)
        self.iptables = Ruleset()
        self.conntrack = ConnTrack()
        self.xfrm = XfrmDb()
        self.neighbors: dict[str, MacAddress] = {}
        self.ip_forward = False
        self._udp_handlers: dict[int, UdpHandler] = {}
        self._raw_handlers: dict[int, RawHandler] = {}
        self.icmp_echo_enabled = True
        # counters (/proc/net/snmp flavored)
        self.rx_delivered = 0
        self.rx_forwarded = 0
        self.rx_dropped_filter = 0
        self.rx_no_route = 0
        self.rx_bad_packets = 0
        self.tx_sent = 0
        self.esp_in = 0
        self.esp_out = 0
        self.esp_errors = 0
        lo = Loopback()
        self.add_device(lo)
        lo.add_address("127.0.0.1", 8)
        lo.set_up()

    def __repr__(self) -> str:
        return f"<netns {self.name}: {len(self.devices)} devices>"

    # -- device management ---------------------------------------------------
    def add_device(self, device: NetDevice) -> NetDevice:
        if device.name in self.devices:
            raise ValueError(
                f"device {device.name!r} already in namespace {self.name}")
        if device.namespace is not None:
            raise ValueError(
                f"device {device.name!r} already in namespace "
                f"{device.namespace.name}")
        self.devices[device.name] = device
        device.namespace = self
        for ip, plen in device.addresses:
            self._on_address_added(device, ip, plen)
        return device

    def remove_device(self, name: str) -> NetDevice:
        """Detach ``name`` and, as Linux does, its routes in every
        table; a non-main table left empty goes too."""
        try:
            device = self.devices.pop(name)
        except KeyError:
            raise KeyError(f"no device {name!r} in {self.name}") from None
        device.namespace = None
        self.routes.remove_device(name)
        for table_id, table in list(self.route_tables.items()):
            if table.remove_device(name) and not len(table):
                del self.route_tables[table_id]
        return device

    def device(self, name: str) -> NetDevice:
        try:
            return self.devices[name]
        except KeyError:
            raise KeyError(f"no device {name!r} in {self.name}") from None

    def _on_address_added(self, device: NetDevice, ip: str,
                          prefix_len: int) -> None:
        # Mirror Linux: adding an address installs the connected route.
        if prefix_len < 32 and device.name != "lo":
            cidr = f"{ip}/{prefix_len}"
            try:
                self.routes.add_cidr(cidr, device.name)
            except ValueError:
                pass  # second address in the same subnet

    def _on_address_removed(self, device: NetDevice, ip: str,
                            prefix_len: int) -> None:
        # Mirror Linux: the connected route goes with the last address
        # of its subnet on the device.
        subnet = parse_cidr(f"{ip}/{prefix_len}")
        route = Route(*subnet, device.name)
        if prefix_len < 32 and route in self.routes and not any(
                parse_cidr(f"{other}/{plen}") == subnet
                for other, plen in device.addresses):
            self.routes.remove(route)

    def remove_route(self, cidr: str, device: Optional[str] = None,
                     gateway: Optional[str] = None,
                     table_id: Optional[int] = None) -> Route:
        """``ip route del``: the first route to ``cidr`` that matches the
        given device and gateway, preferring one whose gateway is the
        given one (a route without ``via`` when none is given), so the
        inverse of an ``ip route add`` removes that route.  A non-main
        table left empty goes."""
        table = (self.routes if table_id is None
                 else self.route_tables.get(table_id, ()))
        subnet = parse_cidr(cidr)
        matches = [route for route in table
                   if (route.network, route.prefix_len) == subnet
                   and device in (None, route.device)
                   and gateway in (None, route.gateway)]
        if not matches:
            raise KeyError(f"no route {cidr} in table {table_id or 'main'}")
        route = next((r for r in matches if r.gateway == gateway),
                     matches[0])
        table.remove(route)
        if table_id is not None and not len(table):
            del self.route_tables[table_id]
        return route

    def add_policy_rule(self, mark: int, table_id: int,
                        mask: int = 0xFFFFFFFF) -> None:
        """``ip rule add fwmark <mark> table <table_id>``."""
        self.policy_rules.append((mark, mask, table_id))

    def remove_policy_rule(self, mark: int, table_id: int,
                           mask: int = 0xFFFFFFFF) -> None:
        """``ip rule del fwmark <mark> table <table_id>``."""
        if (mark, mask, table_id) not in self.policy_rules:
            raise KeyError(f"no rule fwmark {mark:#x}/{mask:#x} "
                           f"table {table_id}")
        self.policy_rules.remove((mark, mask, table_id))

    def fib_lookup(self, dst: str, mark: int = 0):
        """Policy-aware route lookup: fwmark rules first, then main.

        Mirrors Linux: each matching policy rule's table is consulted;
        a miss there falls through to the next rule and finally the
        main table.
        """
        if mark:
            for rule_mark, mask, table_id in self.policy_rules:
                if (mark & mask) == (rule_mark & mask):
                    table = self.route_tables.get(table_id)
                    if table is not None:
                        hit = table.lookup(dst)
                        if hit is not None:
                            return hit
        return self.routes.lookup(dst)

    def local_addresses(self) -> set[str]:
        return {ip for dev in self.devices.values()
                for ip, _plen in dev.addresses}

    def is_local_address(self, ip: str) -> bool:
        if ip.startswith("127."):
            return True
        return ip in self.local_addresses()

    # -- socket-ish API --------------------------------------------------------
    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise ValueError(f"UDP port {port} already bound in {self.name}")
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def bind_raw(self, proto: int, handler: RawHandler) -> None:
        if proto in self._raw_handlers:
            raise ValueError(
                f"raw proto {proto} already bound in {self.name}")
        self._raw_handlers[proto] = handler

    def unbind_raw(self, proto: int) -> None:
        self._raw_handlers.pop(proto, None)

    def send_udp(self, src_ip: str, dst_ip: str, src_port: int,
                 dst_port: int, payload: bytes) -> None:
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port,
                               payload=payload)
        packet = IPv4Packet(src=src_ip, dst=dst_ip, proto=IPPROTO_UDP,
                            payload=datagram.to_bytes(src_ip, dst_ip),
                            identification=next(_ip_id) & 0xFFFF)
        self.send_ip(packet)

    # -- stack: input ------------------------------------------------------------
    def _stack_input(self, device: NetDevice, frame: EthernetFrame) -> None:
        if frame.ethertype != ETHERTYPE_IPV4:
            self.rx_bad_packets += 1
            return
        try:
            packet = IPv4Packet.from_bytes(frame.payload)
        except ValueError:
            self.rx_bad_packets += 1
            return
        skb = SkBuff(ipv4=packet, in_iface=device.name, in_device=device,
                     src_mac=frame.src, vlan=frame.vlan)
        self._receive_skb(skb)

    def _stack_input_batch(self, device: NetDevice, frames) -> None:
        """Batch ingress into the IP stack (NF-bound egress hot path).

        Same per-frame semantics as :meth:`_stack_input`, with the
        header checks inlined, the method lookups hoisted out of the
        loop and the bad-packet counter flushed once — the stack-side
        mirror of the switch's ``process_batch_from``.  Frames are
        processed strictly in order, so conntrack, NAT and forwarding
        behave exactly as the per-frame path.
        """
        bad = 0
        name = device.name
        receive_skb = self._receive_skb
        from_bytes = IPv4Packet.from_bytes
        for frame in frames:
            if frame.ethertype != ETHERTYPE_IPV4:
                bad += 1
                continue
            try:
                packet = from_bytes(frame.payload)
            except ValueError:
                bad += 1
                continue
            receive_skb(SkBuff(ipv4=packet, in_iface=name,
                               in_device=device, src_mac=frame.src,
                               vlan=frame.vlan))
        if bad:
            self.rx_bad_packets += bad

    def _receive_skb(self, skb: SkBuff) -> None:
        if not self._ct_in(skb):
            self.rx_dropped_filter += 1
            return
        if self.iptables.traverse("mangle", "PREROUTING", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        if skb.ct_is_new and skb.ct_entry is not None:
            if self.iptables.traverse("nat", "PREROUTING", skb) == Verdict.DROP:
                self.rx_dropped_filter += 1
                return
            if skb.ct_entry.dnat is not None:
                self.conntrack.apply_nat(skb.ct_entry)
        self._apply_nat(skb)
        if self.is_local_address(skb.ipv4.dst):
            self._input_local(skb)
        else:
            self._forward(skb)

    def _input_local(self, skb: SkBuff) -> None:
        if self.iptables.traverse("mangle", "INPUT", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        if self.iptables.traverse("filter", "INPUT", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        self._ct_confirm(skb)
        packet = skb.ipv4
        if packet.proto == IPPROTO_ESP:
            self._xfrm_input(skb)
            return
        self.rx_delivered += 1
        if packet.proto == IPPROTO_UDP:
            try:
                datagram = UdpDatagram.from_bytes(packet.payload)
            except ValueError:
                self.rx_bad_packets += 1
                return
            handler = self._udp_handlers.get(datagram.dst_port)
            if handler is not None:
                handler(self, packet, datagram)
            return
        if packet.proto == IPPROTO_ICMP and self.icmp_echo_enabled:
            self._icmp_input(packet)
            return
        handler = self._raw_handlers.get(packet.proto)
        if handler is not None:
            handler(self, packet)

    def _icmp_input(self, packet: IPv4Packet) -> None:
        try:
            message = IcmpMessage.from_bytes(packet.payload)
        except ValueError:
            self.rx_bad_packets += 1
            return
        if message.is_echo_request:
            reply = message.reply()
            self.send_ip(IPv4Packet(src=packet.dst, dst=packet.src,
                                    proto=IPPROTO_ICMP,
                                    payload=reply.to_bytes(),
                                    identification=next(_ip_id) & 0xFFFF))

    def _xfrm_input(self, skb: SkBuff) -> None:
        packet = skb.ipv4
        if len(packet.payload) < 8:
            self.esp_errors += 1
            return
        spi = int.from_bytes(packet.payload[0:4], "big")
        state = self.xfrm.find_state(packet.dst, spi)
        if state is None:
            self.esp_errors += 1
            return
        try:
            inner = esp_decapsulate(state.sa, packet)
        except (EspError, ReplayError):
            self.esp_errors += 1
            return
        self.esp_in += 1
        policy = self.xfrm.lookup_policy(inner, XfrmDirection.IN)
        if policy is None:
            # Inner traffic not covered by any IN policy: drop, as the
            # kernel does for unprotected-but-required flows.
            self.esp_errors += 1
            return
        inner_skb = SkBuff(ipv4=inner, in_iface=skb.in_iface,
                           in_device=skb.in_device, mark=skb.mark)
        self._receive_skb(inner_skb)

    def _forward(self, skb: SkBuff) -> None:
        if not self.ip_forward:
            self.rx_dropped_filter += 1
            return
        try:
            skb.ipv4 = skb.ipv4.decrement_ttl()
        except ValueError:
            self.rx_bad_packets += 1
            return
        route = self.fib_lookup(skb.ipv4.dst, skb.mark)
        if route is None:
            self.rx_no_route += 1
            return
        skb.out_iface = route.device
        skb.out_device = self.devices.get(route.device)
        if self.iptables.traverse("mangle", "FORWARD", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        if self.iptables.traverse("filter", "FORWARD", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        self._ct_confirm(skb)
        self.rx_forwarded += 1
        self._output(skb, route)

    # -- stack: output ------------------------------------------------------------
    def send_ip(self, packet: IPv4Packet) -> None:
        """Send a locally generated packet."""
        skb = SkBuff(ipv4=packet)
        if not self._ct_in(skb):
            return
        if self.iptables.traverse("mangle", "OUTPUT", skb) == Verdict.DROP:
            return
        if skb.ct_is_new and skb.ct_entry is not None:
            if self.iptables.traverse("nat", "OUTPUT", skb) == Verdict.DROP:
                return
            if skb.ct_entry.dnat is not None:
                self.conntrack.apply_nat(skb.ct_entry)
        self._apply_nat(skb)
        if self.iptables.traverse("filter", "OUTPUT", skb) == Verdict.DROP:
            return
        if self.is_local_address(skb.ipv4.dst):
            self._ct_confirm(skb)
            self._input_local(skb)
            return
        route = self.fib_lookup(skb.ipv4.dst, skb.mark)
        if route is None:
            self.rx_no_route += 1
            return
        skb.out_iface = route.device
        skb.out_device = self.devices.get(route.device)
        self._ct_confirm(skb)
        self._output(skb, route)

    def _output(self, skb: SkBuff, route) -> None:
        # XFRM output: wrap and restart routing with the outer packet.
        if skb.ipv4.proto != IPPROTO_ESP:
            policy = self.xfrm.lookup_policy(skb.ipv4, XfrmDirection.OUT)
            if policy is not None:
                state = self.xfrm.find_state_for_endpoints(
                    policy.tmpl_src, policy.tmpl_dst)
                if state is None:
                    self.esp_errors += 1  # no SA yet (IKE not done): drop
                    return
                outer = esp_encapsulate(state.sa, skb.ipv4)
                self.esp_out += 1
                outer_route = self.fib_lookup(outer.dst, skb.mark)
                if outer_route is None:
                    self.rx_no_route += 1
                    return
                outer_skb = SkBuff(ipv4=outer, mark=skb.mark,
                                   out_iface=outer_route.device,
                                   out_device=self.devices.get(
                                       outer_route.device))
                self._output(outer_skb, outer_route)
                return
        if self.iptables.traverse("mangle", "POSTROUTING", skb) == Verdict.DROP:
            self.rx_dropped_filter += 1
            return
        if skb.ct_is_new and skb.ct_entry is not None:
            if self.iptables.traverse("nat", "POSTROUTING", skb) == Verdict.DROP:
                self.rx_dropped_filter += 1
                return
            if skb.ct_entry.snat is not None:
                self.conntrack.apply_nat(skb.ct_entry)
                self._apply_nat(skb)
        self._transmit(skb, route)

    def _transmit(self, skb: SkBuff, route) -> None:
        device = skb.out_device
        if device is None:
            self.rx_no_route += 1
            return
        next_hop = route.gateway if route.gateway is not None else skb.ipv4.dst
        dst_mac = self.neighbors.get(next_hop, BROADCAST_MAC)
        frame = EthernetFrame(dst=dst_mac, src=device.mac,
                              ethertype=ETHERTYPE_IPV4,
                              payload=skb.ipv4.to_bytes(), vlan=skb.vlan)
        self.tx_sent += 1
        device.transmit(frame)

    # -- conntrack helpers ------------------------------------------------------
    def _ct_in(self, skb: SkBuff) -> bool:
        """Attach the packet's conntrack entry; False means drop it."""
        ports = _l4_ports(skb.ipv4)
        if skb.ipv4.proto not in (IPPROTO_TCP, IPPROTO_UDP) or ports is None:
            return True
        flow = FlowTuple(src_ip=skb.ipv4.src, dst_ip=skb.ipv4.dst,
                         proto=skb.ipv4.proto, src_port=ports[0],
                         dst_port=ports[1])
        found = self.conntrack.lookup(flow)
        if found is None:
            try:
                skb.ct_entry = self.conntrack.create(flow)
            except OverflowError:
                # Table full: drop, as Linux does.  Untracked, the flow
                # would skip the nat table and leak its private source.
                return False
            skb.ct_direction = "orig"
            skb.ct_is_new = True
        else:
            skb.ct_entry, skb.ct_direction = found
            skb.ct_is_new = False
        skb.ct_entry.packets += 1
        # CONNMARK restore semantics are explicit via rules; the auto
        # restore below matches the common "-j CONNMARK --restore-mark"
        # usage only when the connection carries a mark and the packet
        # has none, which is how the sharable-NNF plugins configure it.
        return True

    def _ct_confirm(self, skb: SkBuff) -> None:
        if skb.ct_entry is not None and skb.ct_direction == "reply":
            self.conntrack.confirm(skb.ct_entry)

    def _apply_nat(self, skb: SkBuff) -> None:
        entry = skb.ct_entry
        if entry is None or (entry.snat is None and entry.dnat is None):
            return
        packet = skb.ipv4
        if skb.ct_direction == "orig":
            src = dst = None
            sport = dport = None
            if entry.snat is not None:
                src = entry.snat[0]
                sport = entry.snat[1] or None
            if entry.dnat is not None:
                dst = entry.dnat[0]
                dport = entry.dnat[1] or None
            skb.ipv4 = _rewrite(packet, src=src, dst=dst, sport=sport,
                                dport=dport)
        else:
            # Reply direction: undo the translation.
            src = dst = None
            sport = dport = None
            if entry.dnat is not None:
                src = entry.orig.dst_ip
                sport = entry.orig.dst_port or None
            if entry.snat is not None:
                dst = entry.orig.src_ip
                dport = entry.orig.src_port or None
            skb.ipv4 = _rewrite(packet, src=src, dst=dst, sport=sport,
                                dport=dport)
