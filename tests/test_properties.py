"""Property-based suites over core data-structure invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.linuxnet.conntrack import ConnTrack, FlowTuple
from repro.linuxnet.routing import RouteTable
from repro.net import (
    EthernetFrame,
    IPv4Packet,
    MacAddress,
    int_to_ip,
    make_udp_frame,
    parse_frame,
)
from repro.sim import Simulator
from repro.switch import FlowEntry, FlowMatch, FlowTable, Output
from repro.switch.actions import PushVlan

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")

ips = st.integers(min_value=1, max_value=(1 << 32) - 2).map(int_to_ip)
ports = st.integers(min_value=1, max_value=65535)


class TestFlowTableProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 8)),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_lookup_returns_highest_priority_match(self, specs):
        table = FlowTable()
        for priority, port in specs:
            table.add(FlowEntry(match=FlowMatch(), actions=(Output(port),),
                                priority=priority))
        parsed = parse_frame(make_udp_frame(MAC_A, MAC_B, "1.1.1.1",
                                            "2.2.2.2", 1, 2, b""))
        hit = table.lookup(1, parsed)
        assert hit is not None
        assert hit.priority == max(priority for priority, _port in specs)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=30,
                    unique=True))
    @settings(max_examples=50)
    def test_entries_sorted_by_priority(self, priorities):
        table = FlowTable()
        for index, priority in enumerate(priorities):
            table.add(FlowEntry(match=FlowMatch(in_port=index),
                                actions=(), priority=priority))
        listed = [entry.priority for entry in table]
        assert listed == sorted(priorities, reverse=True)

    @given(st.integers(0, 0xFFFF))
    @settings(max_examples=30)
    def test_add_then_strict_delete_is_identity(self, priority):
        table = FlowTable()
        baseline = FlowEntry(match=FlowMatch(in_port=9), actions=(),
                             priority=5)
        table.add(baseline)
        match = FlowMatch(in_port=1, eth_type=0x0800)
        table.add(FlowEntry(match=match, actions=(), priority=priority))
        removed = table.delete(match=match, priority=priority, strict=True)
        assert removed == 1
        assert len(table) == 1

    @given(st.lists(st.integers(1, 4094), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_wildcard_delete_subsumes_all(self, vids):
        table = FlowTable()
        for index, vid in enumerate(vids):
            table.add(FlowEntry(match=FlowMatch(in_port=index,
                                                vlan_vid=vid),
                                actions=(), priority=index))
        populated = len(table)
        assert table.delete(match=FlowMatch()) == populated
        assert len(table) == 0


class TestRoutingProperties:
    @given(st.lists(st.tuples(st.integers(0, (1 << 32) - 1),
                              st.integers(8, 30)),
                    min_size=1, max_size=15),
           st.integers(0, (1 << 32) - 1))
    @settings(max_examples=50)
    def test_lpm_always_at_least_default(self, prefixes, probe):
        table = RouteTable()
        table.add_cidr("0.0.0.0/0", "default")
        for index, (network, plen) in enumerate(prefixes):
            cidr = f"{int_to_ip(network)}/{plen}"
            try:
                table.add_cidr(cidr, f"dev{index}")
            except ValueError:
                pass  # duplicate after host-bit masking
        route = table.lookup(int_to_ip(probe))
        assert route is not None

    @given(st.integers(0, (1 << 32) - 1), st.integers(1, 31))
    @settings(max_examples=50)
    def test_more_specific_always_wins(self, address, plen):
        table = RouteTable()
        cidr_wide = f"{int_to_ip(address)}/{plen}"
        cidr_narrow = f"{int_to_ip(address)}/{plen + 1}"
        table.add_cidr(cidr_wide, "wide")
        table.add_cidr(cidr_narrow, "narrow")
        # An address inside the narrow prefix must pick it.
        assert table.lookup(int_to_ip(address)).device == "narrow"


class TestConntrackProperties:
    @given(st.lists(st.tuples(ips, ips, ports, ports), min_size=1,
                    max_size=40, unique=True))
    @settings(max_examples=30)
    def test_both_directions_always_resolve(self, flows):
        table = ConnTrack()
        entries = []
        for src, dst, sport, dport in flows:
            flow = FlowTuple(src, dst, 17, sport, dport)
            if table.lookup(flow) is not None:
                continue
            entries.append((flow, table.create(flow)))
        for flow, entry in entries:
            hit_orig = table.lookup(flow)
            hit_reply = table.lookup(flow.reversed())
            assert hit_orig is not None and hit_orig[0] is entry
            assert hit_reply is not None and hit_reply[0] is entry

    @given(ips, ips, ports, ports, ips, ports)
    @settings(max_examples=30)
    def test_snat_reply_lookup_consistent(self, src, dst, sport, dport,
                                          nat_ip, nat_port):
        table = ConnTrack()
        flow = FlowTuple(src, dst, 6, sport, dport)
        entry = table.create(flow)
        entry.snat = (nat_ip, nat_port)
        table.apply_nat(entry)
        reply = FlowTuple(dst, nat_ip, 6, dport, nat_port or sport)
        hit = table.lookup(reply)
        assert hit is not None and hit[1] == "reply"


class TestFrameProperties:
    @given(st.binary(max_size=200), st.integers(1, 4094),
           st.integers(0, 7))
    @settings(max_examples=50)
    def test_vlan_push_pop_identity(self, payload, vid, pcp):
        frame = EthernetFrame(dst=MAC_A, src=MAC_B, ethertype=0x0800,
                              payload=payload)
        action = PushVlan(vid, pcp)
        tagged = action.apply(frame)
        assert tagged.vlan == vid
        assert tagged.without_vlan() == frame
        # And through the byte codec as well.
        assert EthernetFrame.from_bytes(
            tagged.to_bytes()).without_vlan() == frame

    @given(ips, ips, ports, ports, st.binary(max_size=400))
    @settings(max_examples=50)
    def test_full_stack_roundtrip(self, src, dst, sport, dport, payload):
        frame = make_udp_frame(MAC_A, MAC_B, src, dst, sport, dport,
                               payload)
        parsed = parse_frame(frame.to_bytes())
        assert parsed.five_tuple == (src, dst, 17, sport, dport)
        assert parsed.udp.payload == payload


class TestSimulatorProperties:
    # ControlLoop.run_sim's bit-for-bit replay rests on this order.
    # Delays come from a small set so that ties are frequent.
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1,
                    max_size=40))
    @settings(max_examples=50)
    def test_events_fire_by_time_then_creation(self, delays):
        sim = Simulator()
        fired, clock = [], []
        for index, delay in enumerate(delays):
            sim.timeout(delay).callbacks.append(
                lambda ev, i=index: (fired.append(i), clock.append(sim.now)))
        assert sim.run() == max(delays)
        assert fired == sorted(range(len(delays)),
                               key=lambda i: (delays[i], i))
        assert clock == sorted(clock)
