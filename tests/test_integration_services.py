"""Service-level integration tests beyond the NAT/IPsec core cases:
dnsmasq (daemon NNF with sockets), linuxbridge, graph updates that
reconfigure a live NNF, and a DPDK chain on a data-center node.
"""

import pytest

from repro.catalog.templates import Technology
from repro.core import ComputeNode, OrchestrationError
from repro.nffg.model import Nffg
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.resources.capabilities import NodeCapabilities

CLIENT = MacAddress("02:aa:00:00:00:01")
REMOTE = MacAddress("02:aa:00:00:00:02")


@pytest.fixture
def node():
    node = ComputeNode("svc-test")
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


def sniff(wire):
    frames = []
    wire.attach_handler(lambda dev, frame: frames.append(frame))
    return frames


class TestDnsmasqNnf:
    def dhcp_graph(self):
        graph = Nffg(graph_id="dhcp")
        graph.add_nf("dns", "dhcp-server", config={
            "lan.address": "192.168.1.1/24",
            "dhcp.range": "192.168.1.100,192.168.1.110",
            "dns.static": "router.home=192.168.1.1,nas.home=192.168.1.20",
        })
        graph.add_endpoint("lan", "lan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:dns:lan")
        graph.add_flow_rule("r2", "vnf:dns:lan", "endpoint:lan")
        return graph

    def test_deployed_natively_and_answers_dns(self, node):
        record = node.deploy(self.dhcp_graph())
        assert record.placements["dns"].implementation.technology \
            is Technology.NATIVE
        replies = sniff(node.wire("lan0"))
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "192.168.1.55", "192.168.1.1", 40000, 53,
            b"Q:nas.home"))
        assert len(replies) == 1
        parsed = parse_frame(replies[0])
        assert parsed.udp.payload == b"A:192.168.1.20"

    def test_unknown_name_gets_nx(self, node):
        node.deploy(self.dhcp_graph())
        replies = sniff(node.wire("lan0"))
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "192.168.1.55", "192.168.1.1", 40000, 53,
            b"Q:ghost.home"))
        assert parse_frame(replies[0]).udp.payload == b"NX"

    def test_dhcp_leases_are_stable_per_client(self, node):
        node.deploy(self.dhcp_graph())
        replies = sniff(node.wire("lan0"))
        # The modelled clients renew from an on-link address (the toy
        # protocol skips broadcast; see the plugin's docstring).
        for _ in range(2):
            node.wire("lan0").transmit(make_udp_frame(
                CLIENT, REMOTE, "192.168.1.200", "192.168.1.1", 68, 67,
                b"DISCOVER:aa:bb:cc:dd:ee:01"))
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "192.168.1.201", "192.168.1.1", 68, 67,
            b"DISCOVER:aa:bb:cc:dd:ee:02"))
        offers = [parse_frame(f).udp.payload for f in replies]
        assert offers[0] == offers[1] == b"OFFER:192.168.1.100"
        assert offers[2] == b"OFFER:192.168.1.101"

    def test_exclusive_second_graph_gets_docker(self, node):
        node.deploy(self.dhcp_graph())
        node.add_physical_interface("lan1")
        second = self.dhcp_graph()
        second.graph_id = "dhcp2"
        second.endpoints[0] = type(second.endpoints[0])(
            ep_id="lan", interface="lan1")
        record = node.deploy(second)
        assert record.placements["dns"].implementation.technology \
            is Technology.DOCKER

    def test_undeploy_unbinds_daemon_sockets(self, node):
        node.deploy(self.dhcp_graph())
        record = node.orchestrator.deployed["dhcp"]
        netns = record.instances["dns"].netns
        namespace = node.host.namespace(netns)
        assert 53 in namespace._udp_handlers
        node.undeploy("dhcp")
        # Namespace destroyed alongside its daemon.
        assert netns not in node.host.namespaces


class TestBridgeNnf:
    def bridge_graph(self):
        graph = Nffg(graph_id="l2")
        graph.add_nf("br", "bridge")
        graph.add_endpoint("a", "lan0")
        graph.add_endpoint("b", "wan0")
        graph.add_flow_rule("r1", "endpoint:a", "vnf:br:p0")
        graph.add_flow_rule("r2", "vnf:br:p0", "endpoint:a")
        graph.add_flow_rule("r3", "vnf:br:p1", "endpoint:b")
        graph.add_flow_rule("r4", "endpoint:b", "vnf:br:p1")
        return graph

    def test_bridge_nnf_forwards_l2(self, node):
        record = node.deploy(self.bridge_graph())
        assert record.placements["br"].implementation.technology \
            is Technology.NATIVE
        out_b = sniff(node.wire("wan0"))
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "10.0.0.1", "10.0.0.2", 1, 2, b"bridged"))
        assert len(out_b) == 1
        # L2 service: addresses untouched.
        parsed = parse_frame(out_b[0])
        assert parsed.ipv4.src == "10.0.0.1"
        assert parsed.udp.payload == b"bridged"

    def test_bridge_learns_and_returns(self, node):
        node.deploy(self.bridge_graph())
        out_a = sniff(node.wire("lan0"))
        out_b = sniff(node.wire("wan0"))
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "10.0.0.1", "10.0.0.2", 1, 2, b"->"))
        node.wire("wan0").transmit(make_udp_frame(
            REMOTE, CLIENT, "10.0.0.2", "10.0.0.1", 2, 1, b"<-"))
        assert len(out_b) == 1 and len(out_a) == 1

    def test_two_bridge_graphs_each_reach_their_own_wan(self):
        """Each graph gets its own dedicated bridge; the second one's
        ``brctl addif`` resolves its ports in its own namespace, not the
        first graph's same-named ``p0``."""
        node = ComputeNode("l2")
        for interface in ("lan1", "lan2", "wan1", "wan2"):
            node.add_physical_interface(interface)
        for index in (1, 2):
            graph = Nffg(graph_id=f"b{index}")
            graph.add_nf("br", "bridge")
            graph.add_endpoint("a", f"lan{index}")
            graph.add_endpoint("b", f"wan{index}")
            graph.add_flow_rule("r1", "endpoint:a", "vnf:br:p0")
            graph.add_flow_rule("r2", "vnf:br:p0", "endpoint:a")
            graph.add_flow_rule("r3", "vnf:br:p1", "endpoint:b")
            graph.add_flow_rule("r4", "endpoint:b", "vnf:br:p1")
            record = node.deploy(graph)
            assert not record.instances["br"].shared
        wans = {index: sniff(node.wire(f"wan{index}")) for index in (1, 2)}
        for index in (1, 2):
            node.wire(f"lan{index}").transmit(make_udp_frame(
                CLIENT, REMOTE, "10.0.0.1", "10.0.0.2", 1, 2,
                f"graph {index}".encode()))
        assert {index: [parse_frame(f).udp.payload for f in frames]
                for index, frames in wans.items()} \
            == {1: [b"graph 1"], 2: [b"graph 2"]}


class TestLiveUpdate:
    def firewall_graph(self, allow="udp:53"):
        graph = Nffg(graph_id="fwg")
        graph.add_nf("fw", "firewall", config={
            "lan.address": "192.168.1.1/24",
            "wan.address": "10.9.0.1/24",
            "gateway": "10.9.0.2",
            "firewall.allow": allow,
        })
        graph.add_endpoint("lan", "lan0")
        graph.add_endpoint("wan", "wan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
        graph.add_flow_rule("r2", "vnf:fw:lan", "endpoint:lan")
        graph.add_flow_rule("r3", "vnf:fw:wan", "endpoint:wan")
        graph.add_flow_rule("r4", "endpoint:wan", "vnf:fw:wan",
                            ip_dst="10.9.0.0/24")
        return graph

    def send_probe(self, node, dport, payload):
        node.wire("lan0").transmit(make_udp_frame(
            CLIENT, REMOTE, "192.168.1.9", "203.0.113.9", 40000, dport,
            payload))

    def test_reconfigure_changes_policy_without_redeploy(self, node):
        node.deploy(self.firewall_graph(allow="udp:53"))
        egress = sniff(node.wire("wan0"))
        self.send_probe(node, 53, b"dns")
        self.send_probe(node, 123, b"ntp")
        assert [parse_frame(f).udp.payload for f in egress] == [b"dns"]
        instance_id = node.orchestrator.deployed["fwg"] \
            .instances["fw"].instance_id
        # Shared firewall: update is applied through the plugin's
        # update path on the same component instance.
        node.update(self.firewall_graph(allow="udp:53,udp:123"))
        self.send_probe(node, 123, b"ntp-2")
        assert parse_frame(egress[-1]).udp.payload == b"ntp-2"
        # Same instance survived the update.
        record = node.orchestrator.deployed["fwg"]
        assert record.instances["fw"].instance_id == instance_id

    def test_update_unknown_graph_rejected(self, node):
        with pytest.raises(OrchestrationError):
            node.update(self.firewall_graph())

    def test_update_adding_nf_brings_it_up(self, node):
        node.deploy(self.firewall_graph())
        updated = self.firewall_graph()
        updated.add_nf("dpi1", "dpi")
        updated.flow_rules = [r for r in updated.flow_rules
                              if r.rule_id not in ("r3",)]
        updated.add_flow_rule("r3a", "vnf:fw:wan", "vnf:dpi1:in")
        updated.add_flow_rule("r3b", "vnf:dpi1:out", "endpoint:wan")
        record = node.update(updated)
        assert record.instances["dpi1"].is_running
        egress = sniff(node.wire("wan0"))
        self.send_probe(node, 53, b"through-both")
        assert [parse_frame(f).udp.payload for f in egress] \
            == [b"through-both"]


class TestStrongswanHeal:
    def test_heal_restart_reinstalls_exactly_its_sas_and_policies(
            self, node):
        """A heal runs the stop script, then the start script: the
        flushes withdraw both the SAs and the policies, so the restart
        installs two of each again, not four policies."""
        from repro.perf.table1 import _probe_esp, ipsec_cpe_graph
        record = node.deploy(ipsec_cpe_graph("ipsec", "native"))
        instance = record.instances["vpn"]
        xfrm = node.host.namespace(instance.netns).xfrm
        assert (len(xfrm.states()), len(xfrm.policies())) == (2, 2)
        instance.transition("fail")
        node.compute.restart(instance.instance_id)
        assert instance.is_running
        assert (len(xfrm.states()), len(xfrm.policies())) == (2, 2)
        assert _probe_esp(node) == (True, True)


class TestDpdkOnDatacenterNode:
    def test_dpdk_chain_forwards(self):
        node = ComputeNode(
            "dc", capabilities=NodeCapabilities.datacenter_server())
        node.add_physical_interface("in0")
        node.add_physical_interface("out0")
        graph = Nffg(graph_id="fastpath")
        graph.add_nf("fwd", "l2-forwarder-dpdk", technology="dpdk")
        graph.add_endpoint("a", "in0")
        graph.add_endpoint("b", "out0")
        graph.add_flow_rule("r1", "endpoint:a", "vnf:fwd:in")
        graph.add_flow_rule("r2", "vnf:fwd:out", "endpoint:b")
        record = node.deploy(graph)
        assert record.placements["fwd"].implementation.technology \
            is Technology.DPDK
        egress = sniff(node.wire("out0"))
        node.wire("in0").transmit(make_udp_frame(
            CLIENT, REMOTE, "1.1.1.1", "2.2.2.2", 1, 2, b"fast"))
        assert len(egress) == 1

    def test_dpdk_rejected_on_cpe(self):
        node = ComputeNode(
            "cpe", capabilities=NodeCapabilities.residential_cpe())
        node.add_physical_interface("in0")
        node.add_physical_interface("out0")
        graph = Nffg(graph_id="fastpath")
        graph.add_nf("fwd", "l2-forwarder-dpdk", technology="dpdk")
        graph.add_endpoint("a", "in0")
        graph.add_flow_rule("r1", "endpoint:a", "vnf:fwd:in")
        with pytest.raises(OrchestrationError):
            node.deploy(graph)
