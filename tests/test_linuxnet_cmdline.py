"""ScriptRunner: the command strings NNF plugins emit."""

import pytest

from repro.linuxnet import LinuxHost
from repro.linuxnet.cmdline import CommandError, ScriptRunner, inverse_script


@pytest.fixture
def runner():
    return ScriptRunner(LinuxHost())


def test_netns_lifecycle(runner):
    runner.run("ip netns add nnf-1")
    assert "nnf-1" in runner.host.namespaces
    runner.run("ip netns del nnf-1")
    assert "nnf-1" not in runner.host.namespaces


def test_veth_create_move_and_address(runner):
    runner.run_script([
        "ip netns add nnf-1",
        "ip link add veth0 type veth peer name veth1",
        "ip link set veth1 netns nnf-1",
        "ip addr add 10.0.0.1/24 dev veth0",
        "ip link set veth0 up",
        "ip netns exec nnf-1 ip addr add 10.0.0.2/24 dev veth1",
        "ip netns exec nnf-1 ip link set veth1 up",
    ])
    root = runner.host.root
    nnf = runner.host.namespace("nnf-1")
    assert root.device("veth0").owns_address("10.0.0.1")
    assert nnf.device("veth1").owns_address("10.0.0.2")
    assert root.device("veth0").peer is nnf.device("veth1")


def test_route_commands(runner):
    runner.run_script([
        "ip link add e0 type veth peer name e1",
        "ip addr add 192.168.1.1/24 dev e0",
        "ip route add default via 192.168.1.254 dev e0",
        "ip route add 172.16.0.0/12 dev e0",
    ])
    route = runner.host.root.routes.lookup("8.8.8.8")
    assert route.gateway == "192.168.1.254"
    assert runner.host.root.routes.lookup("172.16.5.5").gateway is None


def test_route_via_without_dev_resolves_device(runner):
    runner.run_script([
        "ip link add e0 type veth peer name e1",
        "ip addr add 192.168.1.1/24 dev e0",
        "ip route add 10.0.0.0/8 via 192.168.1.254",
    ])
    assert runner.host.root.routes.lookup("10.1.1.1").device == "e0"


def test_iptables_nat_and_mangle(runner):
    runner.run_script([
        "ip link add wan0 type veth peer name wan1",
        "iptables -t nat -A POSTROUTING -o wan0 -j MASQUERADE",
        "iptables -t mangle -A PREROUTING -i wan0 -j MARK --set-mark 0x2/0xff",
        "iptables -A FORWARD -m mark --mark 0x2/0xff -j ACCEPT",
        "iptables -P FORWARD DROP",
    ])
    nat_rules = runner.host.root.iptables.list_rules("nat")
    assert any("MASQUERADE" in line for line in nat_rules)
    forward = runner.host.root.iptables.table("filter").chain("FORWARD")
    assert forward.policy == "DROP"
    assert len(forward.rules) == 1


def test_iptables_dnat_with_ports(runner):
    runner.run(
        "iptables -t nat -A PREROUTING -p udp --dport 8080 "
        "-j DNAT --to-destination 192.168.1.10:80")
    rule = runner.host.root.iptables.table("nat").chain("PREROUTING").rules[0]
    assert rule.target == "DNAT"
    assert rule.target_args == {"to_ip": "192.168.1.10", "to_port": 80}
    assert rule.match.dport == (8080, 8080)


def test_iptables_user_chain_and_delete(runner):
    runner.run_script([
        "iptables -N TENANT1",
        "iptables -A TENANT1 -s 10.0.0.0/24 -j ACCEPT",
        "iptables -A FORWARD -j TENANT1",
        "iptables -D FORWARD -j TENANT1",
        "iptables -F TENANT1",
        "iptables -X TENANT1",
    ])
    table = runner.host.root.iptables.table("filter")
    assert "TENANT1" not in table.chains
    assert table.chain("FORWARD").rules == []


def test_iptables_connmark(runner):
    runner.run_script([
        "iptables -t mangle -A PREROUTING -j CONNMARK --restore-mark",
        "iptables -t mangle -A POSTROUTING -j CONNMARK --save-mark",
    ])
    rules = runner.host.root.iptables.table("mangle").chain(
        "PREROUTING").rules
    assert rules[0].target == "CONNMARK"
    assert rules[0].target_args["op"] == "restore"


def test_xfrm_state_and_policy(runner):
    key = "aa" * 16
    runner.run_script([
        "ip xfrm state add src 203.0.113.1 dst 203.0.113.2 proto esp "
        f"spi 0x1001 enc {key} auth {key}",
        "ip xfrm policy add src 192.168.1.0/24 dst 192.168.2.0/24 dir out "
        "tmpl src 203.0.113.1 dst 203.0.113.2",
    ])
    ns = runner.host.root
    assert ns.xfrm.find_state("203.0.113.2", 0x1001) is not None
    assert len(ns.xfrm.policies()) == 1


def test_xfrm_flushes_are_separate(runner):
    """As in Linux: ``state flush`` keeps policies, ``policy flush``
    keeps states."""
    key = "aa" * 16
    runner.run_script([
        "ip xfrm state add src 203.0.113.1 dst 203.0.113.2 proto esp "
        f"spi 0x1001 enc {key} auth {key}",
        "ip xfrm policy add src 192.168.1.0/24 dst 192.168.2.0/24 dir out "
        "tmpl src 203.0.113.1 dst 203.0.113.2",
    ])
    xfrm = runner.host.root.xfrm
    runner.run("ip xfrm state flush")
    assert xfrm.states() == [] and len(xfrm.policies()) == 1
    runner.run("ip xfrm state add src 203.0.113.1 dst 203.0.113.2 "
               f"proto esp spi 0x1001 enc {key} auth {key}")
    runner.run("ip xfrm policy flush")
    assert len(xfrm.states()) == 1 and xfrm.policies() == []


def test_brctl_and_master(runner):
    runner.run_script([
        "brctl addbr br0",
        "ip link add p0 type veth peer name p1",
        "ip link set p0 master br0",
    ])
    assert "p0" in runner.host.bridges["br0"].ports
    runner.run("ip link set p0 nomaster")
    assert "p0" not in runner.host.bridges["br0"].ports


def test_sysctl_forwarding(runner):
    runner.run("sysctl -w net.ipv4.ip_forward=1")
    assert runner.host.root.ip_forward


def test_comments_and_blank_lines_skipped(runner):
    runner.run_script("""
    # configure nothing

    echo configuring
    true
    """)
    assert runner.host.root.routes is not None


def test_unknown_command_raises(runner):
    with pytest.raises(CommandError):
        runner.run("systemctl restart networking")
    with pytest.raises(CommandError):
        runner.run("ip link frobnicate e0")



@pytest.mark.parametrize("command", [
    "iptables -A FORWARD -m comment --comment 'two words' -j ACCEPT",
    'iptables -A FORWARD -m comment --comment "two words" -j ACCEPT',
    "iptables -A FORWARD -m comment --comment two\\ words -j ACCEPT",
])
def test_quoting_is_a_command_error(runner, command):
    """Words are whitespace-separated; quotes and escapes are refused
    rather than silently split into different words."""
    with pytest.raises(CommandError, match="quoting"):
        runner.run(command)
    with pytest.raises(CommandError, match="quoting"):
        inverse_script([command])


def test_words_are_split_on_any_whitespace(runner):
    runner.run("ip  netns\tadd   nnf-1 ")
    assert "nnf-1" in runner.host.namespaces
