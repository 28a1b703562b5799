"""End-to-end IP stack tests: delivery, forwarding, NAT, ICMP, XFRM."""

import pytest

from repro.ipsec import SecurityAssociation, derive_keys
from repro.linuxnet import LinuxHost
from repro.linuxnet.iptables import Match, Rule
from repro.linuxnet.xfrm import Selector, XfrmDirection, XfrmPolicy, XfrmState
from repro.net.icmp import ICMP_ECHO_REQUEST, IcmpMessage
from repro.net.ipv4 import IPPROTO_ICMP, IPv4Packet
from repro.net.transport import UdpDatagram


def two_hosts():
    """root(ns h1) --veth-- (ns h2); addresses 10.0.0.1/24, 10.0.0.2/24."""
    host = LinuxHost()
    h1 = host.add_namespace("h1")
    h2 = host.add_namespace("h2")
    host.create_veth("e1", "e2", ns_a="h1", ns_b="h2")
    h1.device("e1").add_address("10.0.0.1", 24)
    h2.device("e2").add_address("10.0.0.2", 24)
    h1.device("e1").set_up()
    h2.device("e2").set_up()
    return host, h1, h2


def router_topology():
    """h1 --- router --- h2 across two /24s."""
    host = LinuxHost()
    h1 = host.add_namespace("h1")
    router = host.add_namespace("router")
    h2 = host.add_namespace("h2")
    host.create_veth("e1", "r1", ns_a="h1", ns_b="router")
    host.create_veth("r2", "e2", ns_a="router", ns_b="h2")
    h1.device("e1").add_address("10.0.1.10", 24)
    router.device("r1").add_address("10.0.1.1", 24)
    router.device("r2").add_address("10.0.2.1", 24)
    h2.device("e2").add_address("10.0.2.10", 24)
    for ns, dev in ((h1, "e1"), (router, "r1"), (router, "r2"), (h2, "e2")):
        ns.device(dev).set_up()
    h1.routes.add_cidr("0.0.0.0/0", "e1", gateway="10.0.1.1")
    h2.routes.add_cidr("0.0.0.0/0", "e2", gateway="10.0.2.1")
    router.ip_forward = True
    return host, h1, router, h2


def test_local_udp_delivery():
    _host, h1, h2 = two_hosts()
    inbox = []
    h2.bind_udp(5001, lambda ns, pkt, dgram: inbox.append(
        (pkt.src, dgram.payload)))
    h1.send_udp("10.0.0.1", "10.0.0.2", 4000, 5001, b"hello")
    assert inbox == [("10.0.0.1", b"hello")]


def test_udp_to_unbound_port_is_silent():
    _host, h1, h2 = two_hosts()
    h1.send_udp("10.0.0.1", "10.0.0.2", 4000, 9999, b"nobody")
    assert h2.rx_delivered == 1  # delivered to stack, no handler


def test_double_bind_rejected():
    _host, _h1, h2 = two_hosts()
    h2.bind_udp(53, lambda *a: None)
    with pytest.raises(ValueError):
        h2.bind_udp(53, lambda *a: None)


def test_forwarding_across_router():
    _host, h1, router, h2 = router_topology()
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(
        (pkt.src, pkt.ttl, dgram.payload)))
    h1.send_udp("10.0.1.10", "10.0.2.10", 1234, 7000, b"routed")
    assert len(inbox) == 1
    src, ttl, payload = inbox[0]
    assert src == "10.0.1.10"
    assert ttl == 63  # router decremented
    assert payload == b"routed"
    assert router.rx_forwarded == 1


def test_forwarding_disabled_drops():
    _host, h1, router, h2 = router_topology()
    router.ip_forward = False
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(dgram))
    h1.send_udp("10.0.1.10", "10.0.2.10", 1234, 7000, b"dropped")
    assert inbox == []
    assert router.rx_dropped_filter == 1


def test_filter_forward_drop_rule():
    _host, h1, router, h2 = router_topology()
    router.iptables.append("filter", "FORWARD", Rule(
        match=Match(src="10.0.1.0/24"), target="DROP"))
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(dgram))
    h1.send_udp("10.0.1.10", "10.0.2.10", 1, 7000, b"blocked")
    assert inbox == []
    assert router.rx_dropped_filter == 1


def test_ping_through_router():
    _host, h1, _router, h2 = router_topology()
    replies = []
    # h1's own ICMP echo handling would consume the reply; watch via a
    # raw hook with echo disabled instead.
    h1.icmp_echo_enabled = False
    h1.bind_raw(IPPROTO_ICMP, lambda ns, pkt: replies.append(pkt))
    request = IcmpMessage(icmp_type=ICMP_ECHO_REQUEST, code=0,
                          identifier=55, sequence=1, payload=b"ping")
    h1.send_ip(IPv4Packet(src="10.0.1.10", dst="10.0.2.10",
                          proto=IPPROTO_ICMP, payload=request.to_bytes()))
    assert len(replies) == 1
    reply = IcmpMessage.from_bytes(replies[0].payload)
    assert reply.is_echo_reply
    assert reply.identifier == 55


def test_snat_masquerade_rewrites_and_reply_translates_back():
    _host, h1, router, h2 = router_topology()
    # Masquerade traffic leaving r2.
    router.iptables.append("nat", "POSTROUTING", Rule(
        match=Match(out_iface="r2"), target="MASQUERADE"))
    seen_at_h2 = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: (
        seen_at_h2.append((pkt.src, dgram.src_port)),
        ns.send_udp(pkt.dst, pkt.src, dgram.dst_port, dgram.src_port,
                    b"reply")))
    reply_inbox = []
    h1.bind_udp(1234, lambda ns, pkt, dgram: reply_inbox.append(
        (pkt.src, dgram.payload)))
    h1.send_udp("10.0.1.10", "10.0.2.10", 1234, 7000, b"nat me")
    # h2 must see the router's address, not h1's.
    assert seen_at_h2 == [("10.0.2.1", 1234)]
    # h1 must see the reply arriving from the original destination.
    assert reply_inbox == [("10.0.2.10", b"reply")]


def test_full_conntrack_table_drops_new_flows_instead_of_leaking_them():
    """A new flow that finds the table full is dropped, never forwarded
    untracked: untracked, it would skip MASQUERADE and leak h1's
    private address onto r2."""
    _host, h1, router, h2 = router_topology()
    router.conntrack.max_entries = 4
    router.iptables.append("nat", "POSTROUTING", Rule(
        match=Match(out_iface="r2"), target="MASQUERADE"))
    sources = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: sources.append(pkt.src))
    for flow in range(6):
        h1.send_udp("10.0.1.10", "10.0.2.10", 4000 + flow, 7000, b"flow")
    assert sources == ["10.0.2.1"] * 4
    assert router.conntrack.insert_failures == 2
    assert router.rx_dropped_filter == 2


def test_dnat_port_forward():
    _host, h1, router, h2 = router_topology()
    # Forward router:8080 -> h2:7000
    router.iptables.append("nat", "PREROUTING", Rule(
        match=Match(in_iface="r1", proto=17, dport=(8080, 8080)),
        target="DNAT", target_args={"to_ip": "10.0.2.10", "to_port": 7000}))
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(
        (pkt.dst, dgram.dst_port, dgram.payload)))
    h1.send_udp("10.0.1.10", "10.0.2.1", 4000, 8080, b"forwarded")
    assert inbox == [("10.0.2.10", 7000, b"forwarded")]


def test_mangle_mark_then_filter_on_mark():
    _host, h1, router, h2 = router_topology()
    router.iptables.append("mangle", "PREROUTING", Rule(
        match=Match(in_iface="r1"), target="MARK",
        target_args={"set_mark": 0x7}))
    router.iptables.append("filter", "FORWARD", Rule(
        match=Match(mark=(0x7, 0xFFFFFFFF)), target="DROP"))
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(dgram))
    h1.send_udp("10.0.1.10", "10.0.2.10", 1, 7000, b"marked")
    assert inbox == []
    assert router.rx_dropped_filter == 1


def test_ttl_expiry_dropped():
    _host, h1, router, h2 = router_topology()
    inbox = []
    h2.bind_udp(7000, lambda ns, pkt, dgram: inbox.append(dgram))
    datagram = UdpDatagram(src_port=1, dst_port=7000, payload=b"old")
    h1.send_ip(IPv4Packet(src="10.0.1.10", dst="10.0.2.10", proto=17,
                          payload=datagram.to_bytes("10.0.1.10",
                                                    "10.0.2.10"),
                          ttl=1))
    assert inbox == []
    assert router.rx_bad_packets == 1


def test_no_route_counted():
    _host, h1, _router, _h2 = router_topology()
    h1.routes.remove_device("e1")
    h1.send_udp("10.0.1.10", "203.0.113.99", 1, 2, b"lost")
    assert h1.rx_no_route == 1


def make_tunnel(ns_left, ns_right, left_outer, right_outer,
                left_inner_cidr, right_inner_cidr):
    """Install symmetric xfrm state+policy pairs on two namespaces."""
    enc_lr, auth_lr = derive_keys(b"secret", b"ni", b"nr", 0x1001)
    enc_rl, auth_rl = derive_keys(b"secret", b"ni", b"nr", 0x1002)
    sa_lr_out = SecurityAssociation(spi=0x1001, src=left_outer,
                                    dst=right_outer, enc_key=enc_lr,
                                    auth_key=auth_lr)
    sa_lr_in = SecurityAssociation(spi=0x1001, src=left_outer,
                                   dst=right_outer, enc_key=enc_lr,
                                   auth_key=auth_lr)
    sa_rl_out = SecurityAssociation(spi=0x1002, src=right_outer,
                                    dst=left_outer, enc_key=enc_rl,
                                    auth_key=auth_rl)
    sa_rl_in = SecurityAssociation(spi=0x1002, src=right_outer,
                                   dst=left_outer, enc_key=enc_rl,
                                   auth_key=auth_rl)
    ns_left.xfrm.add_state(XfrmState(sa=sa_lr_out))
    ns_right.xfrm.add_state(XfrmState(sa=sa_lr_in))
    ns_right.xfrm.add_state(XfrmState(sa=sa_rl_out))
    ns_left.xfrm.add_state(XfrmState(sa=sa_rl_in))
    ns_left.xfrm.add_policy(XfrmPolicy(
        selector=Selector(left_inner_cidr, right_inner_cidr),
        direction=XfrmDirection.OUT, tmpl_src=left_outer,
        tmpl_dst=right_outer))
    ns_left.xfrm.add_policy(XfrmPolicy(
        selector=Selector(right_inner_cidr, left_inner_cidr),
        direction=XfrmDirection.IN, tmpl_src=right_outer,
        tmpl_dst=left_outer))
    ns_right.xfrm.add_policy(XfrmPolicy(
        selector=Selector(right_inner_cidr, left_inner_cidr),
        direction=XfrmDirection.OUT, tmpl_src=right_outer,
        tmpl_dst=left_outer))
    ns_right.xfrm.add_policy(XfrmPolicy(
        selector=Selector(left_inner_cidr, right_inner_cidr),
        direction=XfrmDirection.IN, tmpl_src=left_outer,
        tmpl_dst=right_outer))


def test_xfrm_tunnel_end_to_end():
    """UDP between tunnel-private prefixes crosses as ESP and back."""
    host = LinuxHost()
    left = host.add_namespace("left")
    right = host.add_namespace("right")
    host.create_veth("l0", "r0", ns_a="left", ns_b="right")
    left.device("l0").add_address("203.0.113.1", 24)
    right.device("r0").add_address("203.0.113.2", 24)
    left.device("l0").set_up()
    right.device("r0").set_up()
    # Inner (protected) addresses live on loopback-ish private prefixes.
    left.device("lo").add_address("192.168.100.1", 32)
    right.device("lo").add_address("192.168.200.1", 32)
    left.routes.add_cidr("192.168.200.0/24", "l0")
    right.routes.add_cidr("192.168.100.0/24", "r0")
    make_tunnel(left, right, "203.0.113.1", "203.0.113.2",
                "192.168.100.0/24", "192.168.200.0/24")

    inbox = []
    right.bind_udp(5001, lambda ns, pkt, dgram: inbox.append(
        (pkt.src, pkt.dst, dgram.payload)))
    # Sniff the wire to confirm ESP, not plaintext.
    wire = []
    original = right.device("r0").receive

    def sniffer(frame):
        wire.append(frame)
        original(frame)

    right.device("r0").receive = sniffer
    left.send_udp("192.168.100.1", "192.168.200.1", 4000, 5001, b"tunnel!")
    assert inbox == [("192.168.100.1", "192.168.200.1", b"tunnel!")]
    assert left.esp_out == 1
    assert right.esp_in == 1
    assert len(wire) == 1
    from repro.net.ipv4 import IPv4Packet as IP
    outer = IP.from_bytes(wire[0].payload)
    assert outer.proto == 50
    assert b"tunnel!" not in outer.payload


def test_xfrm_missing_state_drops():
    host = LinuxHost()
    ns = host.namespace("root")
    ns.xfrm.add_policy(XfrmPolicy(
        selector=Selector("0.0.0.0/0", "10.99.0.0/16"),
        direction=XfrmDirection.OUT, tmpl_src="1.1.1.1", tmpl_dst="2.2.2.2"))
    ns.routes.add_cidr("10.99.0.0/16", "lo")
    ns.send_udp("127.0.0.1", "10.99.1.1", 1, 2, b"x")
    assert ns.esp_errors == 1
