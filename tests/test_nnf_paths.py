"""A shared NNF's per-graph path is torn down by its recorded inverse.

Sharable plugins write only the add-path script.  The NNF driver
records each path command on the graph's attachment as it succeeds and,
on detach, runs :func:`repro.linuxnet.cmdline.inverse_script` of the
record.  These tests pin the inverse table, show that add-path followed
by its inverse restores the shared namespace exactly for every sharable
stock plugin, and that attach/detach cycles beside a resident graph
leave nothing behind.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.templates import NfImplementation, Technology
from repro.compute.drivers.native import NativeDriver
from repro.compute.instances import InstanceSpec
from repro.core import ComputeNode
from repro.linuxnet import LinuxHost
from repro.linuxnet.cmdline import CommandError, ScriptRunner, inverse_script
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.nffg.model import Nffg
from repro.nnf.adaptation import AdaptationLayer
from repro.nnf.plugin import PluginContext
from repro.nnf.plugins import stock_registry

NS = "ip netns exec nnf-s"


def namespace_dump(namespace) -> dict:
    """Everything a path can touch: devices and their addresses, the
    VLAN demux, every routing table, policy rules and ``iptables -S``."""
    def rows(table):
        return [(r.cidr, r.device, r.gateway, r.metric) for r in table]
    return {
        "devices": {name: (type(dev).__name__, list(dev.addresses), dev.up,
                           sorted(dev.vlan_subdevices))
                    for name, dev in namespace.devices.items()},
        "routes": rows(namespace.routes),
        "route_tables": {table_id: rows(table) for table_id, table
                         in namespace.route_tables.items()},
        "policy_rules": list(namespace.policy_rules),
        "iptables": {table: namespace.iptables.list_rules(table)
                     for table in ("filter", "nat", "mangle")},
    }


class TestInverseTable:
    def test_iptables_append_becomes_delete(self):
        assert inverse_script([
            f"{NS} iptables -A FORWARD -i a -o b -j ACCEPT",
            f"{NS} iptables -t nat -A POSTROUTING -o b -j MASQUERADE",
        ]) == [
            f"{NS} iptables -t nat -D POSTROUTING -o b -j MASQUERADE",
            f"{NS} iptables -D FORWARD -i a -o b -j ACCEPT",
        ]

    def test_new_chain_is_flushed_then_deleted(self):
        assert inverse_script([
            "iptables -N FW-3",
            "iptables -A FORWARD -m mark --mark 3 -j FW-3",
            "iptables -A FW-3 -p tcp --dport 22 -j ACCEPT",
            "iptables -A FW-3 -j DROP",
        ]) == [
            "iptables -D FORWARD -m mark --mark 3 -j FW-3",
            "iptables -F FW-3",
            "iptables -X FW-3",
        ]

    def test_flush_covers_only_the_chain_in_its_own_table(self):
        """A same-named chain in another table was not created here."""
        assert inverse_script([
            "iptables -N C",
            "iptables -t mangle -A C -j ACCEPT",
        ]) == ["iptables -t mangle -D C -j ACCEPT", "iptables -F C",
               "iptables -X C"]

    def test_ip_add_becomes_del(self):
        assert inverse_script([
            f"{NS} ip addr add 10.0.0.1/24 dev mux0.101",
            f"{NS} ip route add default via 10.0.0.254 dev mux0.101 "
            f"table 4",
            f"{NS} ip rule add fwmark 4 table 4",
        ]) == [
            f"{NS} ip rule del fwmark 4 table 4",
            f"{NS} ip route del default via 10.0.0.254 dev mux0.101 "
            f"table 4",
            f"{NS} ip addr del 10.0.0.1/24 dev mux0.101",
        ]

    def test_empty_script_has_empty_inverse(self):
        assert inverse_script([]) == []

    @pytest.mark.parametrize("command", [
        "ip link add link mux0 name mux0.101 type vlan id 101",
        f"{NS} ip link set mux0.101 up",
        f"{NS} iptables -I FORWARD -j ACCEPT",
        f"{NS} iptables -P FORWARD DROP",
        f"{NS} iptables -F",
        f"{NS} sysctl -w net.ipv4.ip_forward=1",
        "ip xfrm state flush",
        "ip neigh add 10.0.0.2 lladdr 02:00:00:00:00:01",
        "brctl addbr br0",
    ])
    def test_command_without_inverse_raises(self, command):
        with pytest.raises(CommandError, match="no inverse"):
            inverse_script([command])


class TestDeleteVerbs:
    @pytest.fixture
    def runner(self):
        runner = ScriptRunner(LinuxHost())
        runner.run_script([
            "ip netns add nnf-s",
            "ip link add sh type veth peer name mux0",
            "ip link set mux0 netns nnf-s",
        ])
        return runner

    def namespace(self, runner):
        return runner.host.namespace("nnf-s")

    def test_addr_del_drops_its_connected_route(self, runner):
        runner.run(f"{NS} ip addr add 10.0.0.1/24 dev mux0")
        assert [r.cidr for r in self.namespace(runner).routes] \
            == ["10.0.0.0/24"]
        runner.run(f"{NS} ip addr del 10.0.0.1/24 dev mux0")
        namespace = self.namespace(runner)
        assert namespace.device("mux0").addresses == []
        assert list(namespace.routes) == []

    def test_addr_del_keeps_route_another_address_needs(self, runner):
        runner.run(f"{NS} ip addr add 10.0.0.1/24 dev mux0")
        runner.run(f"{NS} ip addr add 10.0.0.2/24 dev mux0")
        runner.run(f"{NS} ip addr del 10.0.0.1/24 dev mux0")
        assert [r.cidr for r in self.namespace(runner).routes] \
            == ["10.0.0.0/24"]

    def test_addr_del_absent_is_an_error(self, runner):
        with pytest.raises(KeyError, match="not on mux0"):
            runner.run(f"{NS} ip addr del 10.0.0.1/24 dev mux0")

    def test_route_del_drops_the_table_it_empties(self, runner):
        runner.run_script([
            f"{NS} ip route add 10.0.0.0/24 dev mux0 table 7",
            f"{NS} ip route add default via 10.0.0.254 dev mux0 table 7",
        ])
        runner.run(f"{NS} ip route del default via 10.0.0.254 dev mux0 "
                   f"table 7")
        namespace = self.namespace(runner)
        assert [r.cidr for r in namespace.route_tables[7]] \
            == ["10.0.0.0/24"]
        runner.run(f"{NS} ip route del 10.0.0.0/24 dev mux0 table 7")
        assert namespace.route_tables == {}

    def test_route_del_in_main(self, runner):
        runner.run(f"{NS} ip route add 172.16.0.0/12 dev mux0")
        runner.run(f"{NS} ip route del 172.16.0.0/12")
        assert list(self.namespace(runner).routes) == []

    def test_route_del_removes_the_route_it_names(self, runner):
        """Without ``via`` the del prefers the route without a gateway,
        so it is the inverse of the add that wrote it."""
        runner.run_script([
            f"{NS} ip addr add 10.0.0.1/24 dev mux0",
            f"{NS} ip route add 172.16.0.0/16 via 10.0.0.254",
            f"{NS} ip route add 172.16.0.0/16 dev mux0",
        ])
        runner.run(f"{NS} ip route del 172.16.0.0/16 dev mux0")
        assert [(r.cidr, r.gateway) for r in self.namespace(runner).routes
                if r.cidr == "172.16.0.0/16"] \
            == [("172.16.0.0/16", "10.0.0.254")]

    def test_route_del_absent_is_an_error(self, runner):
        runner.run(f"{NS} ip route add 10.0.0.0/24 dev mux0 table 7")
        with pytest.raises(KeyError, match="no route"):
            runner.run(f"{NS} ip route del 10.0.0.0/24 dev mux0 table 8")
        with pytest.raises(KeyError, match="no route"):
            runner.run(f"{NS} ip route del 10.0.0.0/24 dev other table 7")
        with pytest.raises(KeyError, match="no route"):
            runner.run(f"{NS} ip route del default dev mux0 table 7")

    def test_failed_route_add_creates_no_table(self, runner):
        runner.run(f"{NS} ip route add 10.0.0.0/24 dev mux0 table 7")
        with pytest.raises(ValueError, match="duplicate"):
            runner.run(f"{NS} ip route add 10.0.0.0/24 dev mux0 table 7")
        runner.run(f"{NS} ip route del 10.0.0.0/24 dev mux0 table 7")
        assert self.namespace(runner).route_tables == {}

    def test_rule_del_removes_that_rule(self, runner):
        runner.run_script([f"{NS} ip rule add fwmark 3 table 3",
                           f"{NS} ip rule add fwmark 4 table 4",
                           f"{NS} ip rule add fwmark 0x10/0xf0 table 5"])
        runner.run(f"{NS} ip rule del fwmark 3 table 3")
        runner.run(f"{NS} ip rule del fwmark 0x10/0xf0 table 5")
        assert self.namespace(runner).policy_rules == [(4, 0xFFFFFFFF, 4)]

    def test_rule_del_absent_is_an_error(self, runner):
        runner.run(f"{NS} ip rule add fwmark 3 table 3")
        with pytest.raises(KeyError, match="no rule"):
            runner.run(f"{NS} ip rule del fwmark 3 table 4")

    def test_link_del_acts_in_the_commands_namespace(self, runner):
        """Two shared NNFs both have a ``mux0.101``; deleting one in its
        namespace leaves the other."""
        runner.run_script([
            "ip netns add nnf-t",
            "ip link add sh2 type veth peer name mux0",
            "ip link set mux0 netns nnf-t",
            f"{NS} ip link add link mux0 name mux0.101 type vlan id 101",
            "ip netns exec nnf-t ip link add link mux0 name mux0.101 "
            "type vlan id 101",
        ])
        runner.run("ip netns exec nnf-t ip link del mux0.101")
        assert "mux0.101" in self.namespace(runner).devices
        assert "mux0.101" not in runner.host.namespace("nnf-t").devices
        with pytest.raises(CommandError, match="no device"):
            runner.run("ip netns exec nnf-t ip link del mux0.101")


# -- add-path then its inverse, per sharable stock plugin ----------------------

_ADDRESSES = st.none() | st.sampled_from([
    "10.0.0.1/24", "10.0.0.2/24", "10.1.0.1/16", "100.64.1.2/24",
    "192.168.1.1/32"])
_GATEWAYS = st.none() | st.sampled_from(["100.64.1.1", "10.0.0.254"])
_PORT_LISTS = st.lists(
    st.tuples(st.sampled_from(["tcp", "udp"]),
              st.integers(min_value=1, max_value=65535)),
    max_size=3).map(lambda ports: ",".join(f"{p}:{n}" for p, n in ports))


@st.composite
def path_configs(draw, firewall=False):
    config = {}
    for key, values in (("lan.address", _ADDRESSES),
                        ("wan.address", _ADDRESSES),
                        ("gateway", _GATEWAYS)):
        value = draw(values)
        if value is not None:
            config[key] = value
    if firewall:
        policy = draw(st.sampled_from(["firewall.allow", "firewall.deny",
                                       None]))
        ports = draw(_PORT_LISTS)
        if policy is not None and ports:
            config[policy] = ports
    return config


def shared_component(plugin_name):
    """A shared instance's namespace, as the NNF driver builds it."""
    plugin = stock_registry().get(plugin_name)
    host = LinuxHost()
    runner = ScriptRunner(host)
    runner.run_script([
        "ip netns add nnf-s",
        "ip link add sh type veth peer name mux0",
        "ip link set mux0 netns nnf-s",
        f"{NS} ip link set mux0 up",
    ])
    runner.run_script(plugin.create_script(
        PluginContext(instance_id="shared", netns="nnf-s")))
    return plugin, runner, AdaptationLayer()


def attach(plugin, runner, layer, graph_id, config):
    """Attach one graph: subinterfaces, then its add-path script."""
    attachment = layer.attach_graph(graph_id, ["lan", "wan"])
    runner.run_script(layer.subinterface_commands("nnf-s", attachment))
    ctx = PluginContext(instance_id="shared", netns="nnf-s",
                        ports=dict(attachment.port_devices),
                        config=config, mark=attachment.mark)
    return ctx, plugin.add_path_script(ctx)


def assert_inverse_restores(plugin_name, neighbour, config):
    plugin, runner, layer = shared_component(plugin_name)
    runner.run_script(attach(plugin, runner, layer, "n", neighbour)[1])
    namespace = runner.host.namespace("nnf-s")
    ctx, path = attach(plugin, runner, layer, "g", config)
    before = namespace_dump(namespace)
    runner.run_script(path)
    if path:
        assert namespace_dump(namespace) != before
    runner.run_script(inverse_script(path))
    assert namespace_dump(namespace) == before


@settings(max_examples=60, deadline=None)
@given(neighbour=path_configs(), config=path_configs())
def test_nat_inverse_restores_namespace(neighbour, config):
    assert_inverse_restores("iptables-nat", neighbour, config)


@settings(max_examples=60, deadline=None)
@given(neighbour=path_configs(firewall=True),
       config=path_configs(firewall=True))
def test_firewall_inverse_restores_namespace(neighbour, config):
    assert_inverse_restores("iptables-firewall", neighbour, config)


def spec(plugin_name, graph_id, config, technology=Technology.NATIVE):
    """What the orchestrator hands a driver for one NF of ``graph_id``."""
    plugin = stock_registry().get(plugin_name)
    ports = ("lan",) if plugin_name == "dnsmasq" else ("lan", "wan")
    return InstanceSpec(
        instance_id=f"{graph_id}-nf", graph_id=graph_id, nf_id="nf",
        template_name=plugin.functional_type,
        functional_type=plugin.functional_type, logical_ports=ports,
        implementation=NfImplementation(
            technology=technology, image="img", cpu_cores=0.0, ram_mb=0.0,
            disk_mb=0.0,
            plugin=plugin_name if technology is Technology.NATIVE
            else None),
        config=dict(config))


def running(driver, instance_spec):
    instance = driver.create(instance_spec)
    driver.configure(instance)
    driver.start(instance)
    return instance


@settings(max_examples=60, deadline=None)
@given(neighbour=path_configs(firewall=True),
       config=path_configs(firewall=True),
       update=path_configs(firewall=True))
def test_firewall_inverse_restores_after_policy_update(neighbour, config,
                                                       update):
    """The driver's update rewrites the recorded path, so the detach
    after it still restores the shared namespace exactly."""
    driver = NativeDriver(LinuxHost(), stock_registry())
    running(driver, spec("iptables-firewall", "n", neighbour))
    namespace = driver.host.namespace("nnf-shared-iptables-firewall")
    before = namespace_dump(namespace)
    instance = running(driver, spec("iptables-firewall", "g", config))
    driver.update(instance, update)
    assert instance.configured == driver.registry.get(
        "iptables-firewall").add_path_script(driver._context(instance))
    driver.destroy(instance)
    assert namespace_dump(namespace) == before


# -- through the NNF driver ----------------------------------------------------------

def tenant_graph(graph_id, i, lan_ep="lan0"):
    """Native shared firewall -> native shared NAT, subscriber ``i``."""
    graph = Nffg(graph_id=graph_id)
    graph.add_nf("fw", "firewall", technology="native", config={
        "lan.address": f"10.{i}.0.1/24", "wan.address": f"10.{i}.1.1/24",
        "gateway": f"10.{i}.1.2", "firewall.allow": "udp:53,tcp:443"})
    graph.add_nf("nat", "nat", technology="native", config={
        "lan.address": f"10.{i}.1.2/24", "wan.address": f"100.64.{i}.2/24",
        "gateway": f"100.64.{i}.1"})
    graph.add_endpoint("lan", lan_ep)
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
    graph.add_flow_rule("r2", "vnf:fw:wan", "vnf:nat:lan")
    graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                        ip_dst=f"100.64.{i}.0/24")
    graph.add_flow_rule("r5", "vnf:nat:lan", "vnf:fw:wan")
    graph.add_flow_rule("r6", "vnf:fw:lan", "endpoint:lan")
    return graph


SHARED = ("nnf-shared-iptables-nat", "nnf-shared-iptables-firewall")


@pytest.fixture
def node():
    node = ComputeNode("paths")
    for interface in ("lan0", "lan1", "wan0"):
        node.add_physical_interface(interface)
    return node


def shared_dumps(node):
    return {name: namespace_dump(node.host.namespace(name))
            for name in SHARED}


def probe_leaves_masqueraded(node, lan_ep, i):
    egress = []
    wire = node.wire("wan0")
    wire.attach_handler(lambda device, frame: egress.append(frame))
    try:
        node.wire(lan_ep).transmit(make_udp_frame(
            MacAddress("02:aa:00:00:00:01"), MacAddress("02:aa:00:00:00:02"),
            f"10.{i}.0.50", "8.8.8.8", 4000 + i, 53, b"probe"))
    finally:
        wire.detach_handler()
    return [parse_frame(frame).ipv4.src for frame in egress] \
        == [f"100.64.{i}.2"]


def test_attach_detach_cycles_beside_a_resident_leave_nothing(node):
    node.deploy(tenant_graph("resident", 1))
    for name in SHARED:
        assert node.orchestrator.deployed["resident"].instances[
            "fw" if "firewall" in name else "nat"].netns == name
    after_first = shared_dumps(node)
    nat = node.host.namespace(SHARED[0])
    assert len(nat.policy_rules) == 1
    assert [len(table) for table in nat.route_tables.values()] == [3]
    assert sorted(nat.device("mux0").vlan_subdevices) == [101, 102]
    for cycle in range(50):
        node.deploy(tenant_graph("visitor", 2, lan_ep="lan1"))
        if cycle == 0:
            assert shared_dumps(node) != after_first
            assert probe_leaves_masqueraded(node, "lan1", 2)
        node.undeploy("visitor")
        assert shared_dumps(node) == after_first, f"cycle {cycle}"
    assert probe_leaves_masqueraded(node, "lan0", 1)


def native_driver(node):
    return node.compute.driver(Technology.NATIVE)


def test_half_applied_attach_is_undone_exactly(node):
    """Only the path commands that succeeded are recorded, so a
    detach after a failed configure removes exactly those."""
    node.deploy(tenant_graph("resident", 1))
    namespace = node.host.namespace(SHARED[0])
    before = namespace_dump(namespace)
    driver = native_driver(node)
    resident = node.orchestrator.deployed["resident"].instances["nat"]
    spec = type(resident.spec)(
        instance_id="half-nat", graph_id="half", nf_id="nat",
        template_name="nat", functional_type="nat",
        logical_ports=("lan", "wan"),
        implementation=resident.spec.implementation,
        # no valid gateway: the fifth command, the default route, fails
        config={"lan.address": "10.9.0.1/24",
                "wan.address": "100.64.9.2/24", "gateway": "gateway"})
    instance = driver.create(spec)
    with pytest.raises(ValueError, match="gateway"):
        driver.configure(instance)
    attachment = driver.shared.instance_of("iptables-nat").attachments["half"]
    assert [command.split(" ip ")[1].split()[:2]
            for command in attachment.path] == [
        ["addr", "add"], ["addr", "add"], ["route", "add"], ["route", "add"]]
    assert namespace.route_tables[attachment.mark]
    driver.destroy(instance)
    assert namespace_dump(namespace) == before


def test_last_tenant_detach_runs_no_teardown_commands(node):
    node.deploy(tenant_graph("only", 1))
    driver = native_driver(node)
    commands = []
    original = driver.runner.run

    def spy(command):
        commands.append(command)
        return original(command)
    driver.runner.run = spy
    node.undeploy("only")
    assert commands, "the detach ran nothing at all"
    assert not any(" del" in command.replace("netns del", "")
                   or " -D " in command or " -F " in command
                   or " -X " in command for command in commands), commands
    assert sorted(commands) == sorted(f"ip netns del {name}"
                                      for name in SHARED)
    for name in SHARED:
        assert name not in node.host.namespaces
    for trunk in ("sh-iptables-nat", "sh-iptables-firewall"):
        assert node.host.find_device(trunk) is None
