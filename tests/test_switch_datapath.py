"""Datapath pipeline, VLAN actions, virtual links between LSIs."""

import pytest

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.switch import (
    Controller,
    Datapath,
    FlowEntry,
    FlowMatch,
    LogicalSwitchInstance,
    Output,
    PopVlan,
    PushVlan,
    SetField,
    VirtualLink,
)
from repro.switch.actions import FLOOD_PORT, ActionError

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def frame(vlan=None, payload=b"x"):
    return make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", 1000, 2000,
                          payload, vlan=vlan)


def collector(datapath, port_name="sink"):
    """Add a device-backed port whose peer records egress frames."""
    pair = VethPair(f"{port_name}-sw", f"{port_name}-nf")
    received = []
    pair.b.set_up()
    pair.b.attach_handler(lambda dev, fr: received.append(fr))
    port = datapath.add_port(port_name, device=pair.a)
    return port, pair, received


def test_forwarding_between_ports():
    dp = Datapath(1)
    in_port, in_pair, _ = collector(dp, "in")
    out_port, _out_pair, out_frames = collector(dp, "out")
    dp.install(FlowEntry(match=FlowMatch(in_port=in_port.port_no),
                         actions=(Output(out_port.port_no),)))
    in_pair.b.transmit(frame())
    assert len(out_frames) == 1
    assert out_port.tx_packets == 1
    assert in_port.rx_packets == 1


def test_table_miss_drops_without_handler():
    dp = Datapath(1)
    _in_port, in_pair, _ = collector(dp, "in")
    in_pair.b.transmit(frame())
    assert dp.table_misses == 1
    assert dp.dropped == 1


def test_packet_in_handler_called_on_miss():
    dp = Datapath(1)
    punted = []
    dp.packet_in_handler = lambda d, port, fr: punted.append((port, fr))
    in_port, in_pair, _ = collector(dp, "in")
    in_pair.b.transmit(frame())
    assert len(punted) == 1
    assert punted[0][0] == in_port.port_no


@pytest.mark.parametrize("batched", [False, True])
def test_punt_without_handler_is_a_counted_drop(batched):
    """A Controller action with no controller loses the frame counted."""
    dp = Datapath(1)
    in_port = dp.add_port("in")
    assert in_port.port_no == 1
    dp.install(FlowEntry(match=FlowMatch(in_port=1),
                         actions=(Controller(),)))
    if batched:
        dp.process_batch_from(1, [frame()])
    else:
        dp.process(1, frame())
    assert dp.rx_packets == 1
    assert dp.dropped == 1
    assert dp.table_misses == 0


def test_vlan_push_then_pop_roundtrip():
    dp = Datapath(1)
    in_port, in_pair, _ = collector(dp, "in")
    out_port, _pair, out_frames = collector(dp, "out")
    dp.install(FlowEntry(
        match=FlowMatch(in_port=in_port.port_no),
        actions=(PushVlan(77), Output(out_port.port_no))))
    in_pair.b.transmit(frame())
    assert out_frames[0].vlan == 77
    # Now pop on the way back.
    dp.install(FlowEntry(
        match=FlowMatch(in_port=out_port.port_no, vlan_vid=77),
        actions=(PopVlan(), Output(in_port.port_no))))
    dp.process(out_port.port_no, out_frames[0])
    assert in_pair.b.rx_packets >= 1


def test_pop_untagged_counts_action_error():
    dp = Datapath(1)
    in_port, in_pair, _ = collector(dp, "in")
    dp.install(FlowEntry(match=FlowMatch(), actions=(PopVlan(), Output(99))))
    in_pair.b.transmit(frame())
    assert dp.action_errors == 1


def test_flood_excludes_ingress():
    dp = Datapath(1)
    _p1, pair1, rx1 = collector(dp, "p1")
    _p2, _pair2, rx2 = collector(dp, "p2")
    _p3, _pair3, rx3 = collector(dp, "p3")
    dp.install(FlowEntry(match=FlowMatch(), actions=(Output(FLOOD_PORT),)))
    pair1.b.transmit(frame())
    assert len(rx1) == 0
    assert len(rx2) == 1
    assert len(rx3) == 1


def test_set_field_rewrites_mac():
    dp = Datapath(1)
    in_port, in_pair, _ = collector(dp, "in")
    _out, _pair, out_frames = collector(dp, "out")
    new_mac = "02:00:00:00:00:aa"
    dp.install(FlowEntry(
        match=FlowMatch(in_port=in_port.port_no),
        actions=(SetField("eth_dst", new_mac), Output(2))))
    in_pair.b.transmit(frame())
    assert str(out_frames[0].dst) == new_mac


def test_output_to_missing_port_drops():
    dp = Datapath(1)
    _in_port, in_pair, _ = collector(dp, "in")
    dp.install(FlowEntry(match=FlowMatch(), actions=(Output(42),)))
    in_pair.b.transmit(frame())
    assert dp.dropped == 1


def test_remove_port_detaches_device():
    dp = Datapath(1)
    port, pair, _ = collector(dp, "in")
    dp.remove_port(port.port_no)
    with pytest.raises(KeyError):
        dp.remove_port(port.port_no)
    # Device handler detached: transmitting into it no longer reaches dp.
    pair.b.transmit(frame())
    assert dp.rx_packets == 0


def test_virtual_link_moves_frames_between_lsis():
    base = LogicalSwitchInstance("LSI-0")
    graph = LogicalSwitchInstance("LSI-g1", graph_id="g1")
    link = VirtualLink.connect(base.datapath, graph.datapath, name="vl0")
    # base: everything from the in port goes over the link.
    in_port, in_pair, _ = collector(base.datapath, "phys")
    base_link_port = link.far_port(base.datapath)
    graph_link_port = link.far_port(graph.datapath)
    base.datapath.install(FlowEntry(
        match=FlowMatch(in_port=in_port.port_no),
        actions=(Output(base_link_port.port_no),)))
    # graph LSI: deliver to an NF port.
    _nf_port, _nf_pair, nf_frames = collector(graph.datapath, "nf")
    graph.datapath.install(FlowEntry(
        match=FlowMatch(in_port=graph_link_port.port_no),
        actions=(Output(_nf_port.port_no),)))
    in_pair.b.transmit(frame())
    assert len(nf_frames) == 1
    assert link.carried == 1


def test_virtual_link_requires_deviceless_ports():
    dp_a, dp_b = Datapath(1), Datapath(2)
    _port, pair, _ = collector(dp_a, "dev")
    link = VirtualLink()
    with pytest.raises(ValueError):
        link.attach(dp_a.ports[1], dp_b.add_port("x"))


def test_lsi_roles():
    base = LogicalSwitchInstance("LSI-0")
    graph = LogicalSwitchInstance("LSI-g", graph_id="g7")
    assert base.is_base and not graph.is_base
    assert base.datapath.dpid != graph.datapath.dpid


def test_port_by_name_tracks_add_and_remove():
    dp = Datapath(1)
    first = dp.add_port("alpha")
    dp.add_port("beta")
    assert dp.port_by_name("alpha") is first
    dp.remove_port(first.port_no)
    with pytest.raises(KeyError):
        dp.port_by_name("alpha")
    again = dp.add_port("alpha")
    assert dp.port_by_name("alpha") is again


def test_port_by_name_duplicate_names_first_wins():
    dp = Datapath(1)
    first = dp.add_port("dup")
    second = dp.add_port("dup")
    assert dp.port_by_name("dup") is first
    dp.remove_port(first.port_no)
    assert dp.port_by_name("dup") is second


def test_process_batch_matches_single_frame_path():
    single = Datapath(1)
    batched = Datapath(2)
    setups = []
    for dp in (single, batched):
        in_port, _pair, _ = collector(dp, "in")
        out_port, _opair, frames_out = collector(dp, "out")
        dp.install(FlowEntry(match=FlowMatch(in_port=in_port.port_no),
                             actions=(Output(out_port.port_no),)))
        setups.append((in_port, out_port, frames_out))
    frames = [frame(payload=bytes([i])) for i in range(5)]

    in_a, out_a, rx_a = setups[0]
    for f in frames:
        single.process(in_a.port_no, f)
    in_b, out_b, rx_b = setups[1]
    batched.process_batch_from(in_b.port_no, frames)

    assert [f.payload for f in rx_b] == [f.payload for f in rx_a]
    assert batched.rx_packets == single.rx_packets == 5
    assert out_b.tx_packets == out_a.tx_packets == 5
    assert out_b.tx_bytes == out_a.tx_bytes
    (entry_a,) = list(single.table)
    (entry_b,) = list(batched.table)
    assert entry_b.packets == entry_a.packets == 5
    assert entry_b.bytes == entry_a.bytes
    assert batched.table.matches == single.table.matches == 5


def test_process_batch_miss_and_drop_accounting():
    dp = Datapath(1)
    in_port, _pair, _ = collector(dp, "in")
    dp.process_batch_from(in_port.port_no, [frame(), frame()])
    assert dp.table_misses == 2
    assert dp.dropped == 2
    punted = []
    dp.packet_in_handler = lambda d, port, fr: punted.append(port)
    dp.process_batch_from(in_port.port_no, [frame()])
    assert punted == [in_port.port_no]


def test_process_batch_flood_excludes_ingress():
    dp = Datapath(1)
    _p1, pair1, rx1 = collector(dp, "p1")
    _p2, _pair2, rx2 = collector(dp, "p2")
    _p3, _pair3, rx3 = collector(dp, "p3")
    dp.install(FlowEntry(match=FlowMatch(), actions=(Output(FLOOD_PORT),)))
    dp.process_batch_from(_p1.port_no, [frame(), frame()])
    assert len(rx1) == 0
    assert len(rx2) == 2
    assert len(rx3) == 2


def test_process_batch_unknown_port_raises():
    dp = Datapath(1)
    with pytest.raises(KeyError):
        dp.process_batch_from(42, [frame()])


def test_process_batch_flushes_prefix_on_midbatch_error():
    dp = Datapath(1)
    in_port, _pair, _ = collector(dp, "in")
    out_port, _opair, rx = collector(dp, "out")
    dp.install(FlowEntry(match=FlowMatch(in_port=in_port.port_no),
                         actions=(Output(out_port.port_no),)))
    def failing_source():
        yield frame()
        raise KeyError("source failed mid-batch")

    with pytest.raises(KeyError):
        dp.process_batch_from(in_port.port_no, failing_source())
    # The valid prefix was still delivered and credited.
    assert len(rx) == 1
    assert out_port.tx_packets == 1
    (entry,) = list(dp.table)
    assert entry.packets == 1
    assert dp.table.matches == 1


def test_port_by_name_duplicates_with_explicit_numbers():
    dp = Datapath(1)
    dp.add_port("dup", port_no=5)
    nine = dp.add_port("dup", port_no=9)
    dp.add_port("dup", port_no=2)
    dp.remove_port(5)
    # Earliest-added survivor wins (insertion order, not port number).
    assert dp.port_by_name("dup") is nine


def test_batch_carries_whole_chain_across_virtual_link():
    base = LogicalSwitchInstance("LSI-0")
    graph = LogicalSwitchInstance("LSI-g1", graph_id="g1")
    link = VirtualLink.connect(base.datapath, graph.datapath, name="vl0")
    in_port, _in_pair, _ = collector(base.datapath, "phys")
    base_link_port = link.far_port(base.datapath)
    graph_link_port = link.far_port(graph.datapath)
    base.datapath.install(FlowEntry(
        match=FlowMatch(in_port=in_port.port_no),
        actions=(Output(base_link_port.port_no),)))
    _nf_port, _nf_pair, nf_frames = collector(graph.datapath, "nf")
    graph.datapath.install(FlowEntry(
        match=FlowMatch(in_port=graph_link_port.port_no),
        actions=(Output(_nf_port.port_no),)))
    frames = [frame(payload=bytes([i])) for i in range(4)]
    base.datapath.process_batch_from(in_port.port_no, frames)
    assert [f.payload for f in nf_frames] == [f.payload for f in frames]
    assert link.carried == 4
    # The far LSI saw the frames through its batch pipeline too.
    assert graph.datapath.rx_packets == 4
