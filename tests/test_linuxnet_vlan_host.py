"""VLAN subinterfaces and LinuxHost plumbing tests."""

import pytest

from repro.linuxnet import LinuxHost, VethPair
from repro.linuxnet.cmdline import ScriptRunner
from repro.linuxnet.devices import NetDevice, VlanDevice
from repro.net import MacAddress, make_udp_frame, parse_frame

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


class TestVlanDevices:
    def test_demux_strips_tag(self):
        host = LinuxHost()
        ns = host.add_namespace("nnf")
        host.create_veth("t0", "mux0", ns_a="root", ns_b="nnf")
        trunk = ns.device("mux0")
        sub = VlanDevice(trunk, 101)
        ns.add_device(sub)
        trunk.set_up()
        sub.set_up()
        host.root.device("t0").set_up()
        received = []
        sub.attach_handler(lambda dev, frame: received.append(frame))
        host.root.device("t0").transmit(make_udp_frame(
            MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", 1, 2, b"x", vlan=101))
        assert len(received) == 1
        assert received[0].vlan is None  # tag stripped on demux

    def test_unmatched_vid_goes_to_parent_stack(self):
        host = LinuxHost()
        ns = host.add_namespace("nnf")
        host.create_veth("t0", "mux0", ns_a="root", ns_b="nnf")
        trunk = ns.device("mux0")
        sub = VlanDevice(trunk, 101)
        ns.add_device(sub)
        trunk.set_up()
        sub.set_up()
        host.root.device("t0").set_up()
        host.root.device("t0").transmit(make_udp_frame(
            MAC_A, MAC_B, "10.0.0.1", "10.0.0.2", 1, 2, b"x", vlan=202))
        # Tagged frame with no matching subinterface: the parent stack
        # sees a non-matching payload and counts it (not demuxed).
        assert sub.rx_packets == 0

    def test_transmit_tags_frames(self):
        host = LinuxHost()
        ns = host.add_namespace("nnf")
        host.create_veth("t0", "mux0", ns_a="root", ns_b="nnf")
        trunk = ns.device("mux0")
        sub = VlanDevice(trunk, 101)
        ns.add_device(sub)
        trunk.set_up()
        sub.set_up()
        outer = host.root.device("t0")
        outer.set_up()
        received = []
        outer.attach_handler(lambda dev, frame: received.append(frame))
        sub.transmit(make_udp_frame(MAC_A, MAC_B, "10.0.0.1", "10.0.0.2",
                                    1, 2, b"out"))
        assert received[0].vlan == 101

    def test_bad_vid_rejected(self):
        with pytest.raises(ValueError):
            VlanDevice(NetDevice("eth0"), 5000)

    def test_cmdline_creates_subinterface(self):
        host = LinuxHost()
        runner = ScriptRunner(host)
        runner.run_script([
            "ip netns add nnf",
            "ip link add t0 type veth peer name mux0",
            "ip link set mux0 netns nnf",
            "ip netns exec nnf ip link add link mux0 name mux0.7 "
            "type vlan id 7",
            "ip netns exec nnf ip link set mux0.7 up",
        ])
        sub = host.namespace("nnf").device("mux0.7")
        assert isinstance(sub, VlanDevice)
        assert sub.vid == 7 and sub.up


    def test_deleted_subinterface_leaves_parent_and_every_table(self):
        """``ip link del`` of a subinterface, as Linux does it: the
        parent stops demuxing its tag, and its routes go from every
        table, a non-main table it empties with them."""
        host = LinuxHost()
        runner = ScriptRunner(host)
        runner.run_script([
            "ip netns add nnf",
            "ip link add t0 type veth peer name mux0",
            "ip link set mux0 netns nnf",
            "ip netns exec nnf ip link add link mux0 name mux0.7 "
            "type vlan id 7",
            "ip netns exec nnf ip link add link mux0 name mux0.8 "
            "type vlan id 8",
            "ip netns exec nnf ip addr add 10.7.0.1/24 dev mux0.7",
            "ip netns exec nnf ip route add 10.7.0.0/24 dev mux0.7 table 7",
            "ip netns exec nnf ip route add 10.8.0.0/24 dev mux0.8 table 9",
            "ip netns exec nnf ip route add 10.7.1.0/24 dev mux0.7 table 9",
        ])
        ns = host.namespace("nnf")
        runner.run("ip netns exec nnf ip link del mux0.7")
        assert sorted(ns.device("mux0").vlan_subdevices) == [8]
        assert [r.device for r in ns.routes] == []
        assert sorted(ns.route_tables) == [9]
        assert [r.cidr for r in ns.route_tables[9]] == ["10.8.0.0/24"]


class TestLinuxHost:
    def test_root_namespace_protected(self):
        host = LinuxHost()
        with pytest.raises(ValueError):
            host.delete_namespace("root")

    def test_delete_namespace_severs_veth_peers(self):
        host = LinuxHost()
        host.add_namespace("a")
        pair = host.create_veth("x0", "x1", ns_a="root", ns_b="a")
        host.delete_namespace("a")
        assert pair.a.peer is None

    def test_move_device_between_namespaces(self):
        host = LinuxHost()
        host.add_namespace("a")
        host.create_veth("m0", "m1")
        host.move_device("m1", "root", "a")
        assert "m1" in host.namespace("a").devices
        assert "m1" not in host.root.devices

    def test_find_device_searches_all_namespaces(self):
        host = LinuxHost()
        ns = host.add_namespace("a")
        ns.add_device(NetDevice("hidden0"))
        found = host.find_device("hidden0")
        assert found is not None and found[0] is ns
        assert host.find_device("nope") is None

    def test_duplicate_namespace_rejected(self):
        host = LinuxHost()
        host.add_namespace("a")
        with pytest.raises(ValueError):
            host.add_namespace("a")

    def test_per_namespace_forward_sysctl(self):
        host = LinuxHost()
        host.add_namespace("fw")
        runner = ScriptRunner(host)
        runner.run("ip netns exec fw sysctl -w net.ipv4.ip_forward=1")
        assert host.namespace("fw").ip_forward
        assert not host.root.ip_forward
