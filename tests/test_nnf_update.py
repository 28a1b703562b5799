"""An NNF update is the diff between the commands that ran and the new ones.

Plugins write no update script.  The driver records each configure (or,
shared, add-path) command as it succeeds; an update undoes the record's
suffix that differs from the newly rendered script, newest first, then
runs the new suffix.  A changed start script, or a daemon that scripts
cannot express, ends the update with the instance's stop and start.

These tests pin that an update lands where a fresh configure lands, on
every stock plugin that has a config, dedicated and shared; that a
failed update leaves the record equal to what is applied and the next
one converges; and that daemons pick their new config up.
"""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.catalog.templates import Technology
from repro.compute.drivers.docker import DockerDriver
from repro.compute.drivers.native import NativeDriver
from repro.core import ComputeNode
from repro.linuxnet import LinuxHost
from repro.net import MacAddress, make_udp_frame, parse_frame
from repro.nffg.model import Nffg
from repro.nnf.plugins import stock_registry
from repro.nnf.plugins.strongswan import tunnel_sa_parameters
from repro.perf.table1 import ipsec_cpe_graph
from tests.test_nnf_paths import namespace_dump, path_configs, running, spec

CLIENT = MacAddress("02:aa:00:00:00:01")
REMOTE = MacAddress("02:aa:00:00:00:02")


# -- a driver with one instance ------------------------------------------------------

def make_driver(technology):
    if technology is Technology.DOCKER:
        return DockerDriver(LinuxHost(), behaviors=stock_registry())
    return NativeDriver(LinuxHost(), stock_registry())


def dump(driver, instance):
    """:func:`namespace_dump` plus what daemons hold: SAs, policies,
    bound UDP ports and the forwarding switch."""
    namespace = driver.host.namespace(instance.netns)
    return {
        **namespace_dump(namespace),
        "xfrm": sorted((s.sa.spi, s.sa.src, s.sa.dst, s.sa.enc_key,
                        s.sa.auth_key) for s in namespace.xfrm.states()),
        "xfrm_policies": sorted(repr(p) for p in namespace.xfrm.policies()),
        "udp": sorted(namespace._udp_handlers),  # noqa: SLF001
        "ip_forward": namespace.ip_forward,
    }


def fresh(technology, plugin_name, config):
    """The dump of an instance configured with ``config`` from scratch,
    or None when that config does not configure at all."""
    driver = make_driver(technology)
    try:
        instance = running(driver, spec(plugin_name, "g", config,
                                        technology))
    except Exception:
        return None
    return dump(driver, instance)


# -- config strategies, per plugin ----------------------------------------------------

_TUNNEL_ADDRESSES = st.sampled_from(["203.0.113.2", "203.0.113.7"])
_SUBNETS = st.sampled_from(["192.168.1.0/24", "10.8.0.0/24",
                            "10.9.0.0/16"])


@st.composite
def router_configs(draw):
    config = draw(path_configs())
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        cidr = draw(st.sampled_from(["172.16.0.0/16", "172.17.0.0/16",
                                     "198.18.0.0/15"]))
        via = draw(st.sampled_from(["dev lan", "dev wan",
                                    "via 100.64.1.1", "via 10.0.0.254"]))
        config[f"route.{index}"] = f"{cidr} {via}"
    return config


@st.composite
def tunnel_configs(draw):
    config = draw(path_configs())
    config.update({
        "ipsec.local": draw(_TUNNEL_ADDRESSES),
        "ipsec.peer": draw(st.sampled_from(["198.51.100.9",
                                            "198.51.100.10"])),
        "ipsec.local_subnet": draw(_SUBNETS),
        "ipsec.remote_subnet": draw(st.sampled_from(["10.8.0.0/24",
                                                     "172.20.0.0/16"])),
        "ipsec.psk": draw(st.sampled_from(["hunter2", "correct-horse"])),
    })
    return config


@st.composite
def dhcp_configs(draw):
    config = {}
    address = draw(st.none() | st.sampled_from(["192.168.1.1/24",
                                                "10.0.0.1/24"]))
    if address is not None:
        config["lan.address"] = address
    names = draw(st.lists(st.sampled_from(["nas", "router", "tv"]),
                          unique=True, max_size=2))
    config["dns.static"] = ",".join(f"{name}.home=192.168.1.{i + 2}"
                                    for i, name in enumerate(names))
    return config


CONFIGS = {
    "iptables-nat": path_configs(),
    "iptables-firewall": path_configs(firewall=True),
    "static-router": router_configs(),
    "strongswan": tunnel_configs(),
    "dnsmasq": dhcp_configs(),
}

DEDICATED = [(Technology.DOCKER, name) for name in CONFIGS] + [
    (Technology.NATIVE, name)
    for name in ("static-router", "strongswan", "dnsmasq")]


@pytest.mark.parametrize("technology,plugin_name", DEDICATED,
                         ids=[f"{t.value}-{n}" for t, n in DEDICATED])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dedicated_update_equals_fresh_configure(technology, plugin_name,
                                                 data):
    c1 = data.draw(CONFIGS[plugin_name], label="c1")
    c2 = data.draw(CONFIGS[plugin_name], label="c2")
    expected = fresh(technology, plugin_name, c2)
    assume(expected is not None
           and fresh(technology, plugin_name, c1) is not None)
    driver = make_driver(technology)
    instance = running(driver, spec(plugin_name, "g", c1, technology))
    driver.update(instance, c2)
    assert dump(driver, instance) == expected
    assert instance.spec.config == c2


@pytest.mark.parametrize("plugin_name", ["iptables-nat",
                                         "iptables-firewall"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_update_equals_fresh_attach(plugin_name, data):
    neighbour, c1, c2 = (data.draw(CONFIGS[plugin_name], label=label)
                         for label in ("neighbour", "c1", "c2"))
    reference = make_driver(Technology.NATIVE)
    driver = make_driver(Technology.NATIVE)
    for each in (reference, driver):
        running(each, spec(plugin_name, "n", neighbour))
    netns = f"nnf-shared-{plugin_name}"
    running(reference, spec(plugin_name, "g", c2))
    expected = namespace_dump(reference.host.namespace(netns))
    namespace = driver.host.namespace(netns)
    before = namespace_dump(namespace)
    instance = running(driver, spec(plugin_name, "g", c1))
    driver.update(instance, c2)
    assert namespace_dump(namespace) == expected
    driver.destroy(instance)
    assert namespace_dump(namespace) == before


# -- a failed update is retried from the truth ----------------------------------------

class FailOnce:
    """Wrap ``runner.run`` so that call ``index`` raises, once."""

    def __init__(self, runner, index):
        self.runner, self.index, self.calls = runner, index, 0
        self.original = runner.run
        runner.run = self

    def __call__(self, command):
        self.calls += 1
        if self.calls - 1 == self.index:
            raise RuntimeError(f"injected failure of {command!r}")
        return self.original(command)


FAILING = [
    (Technology.DOCKER, "iptables-nat",
     {"lan.address": "10.1.0.1/24", "wan.address": "100.64.1.2/24",
      "gateway": "100.64.1.1"},
     {"lan.address": "10.1.0.1/24", "wan.address": "100.64.1.2/24",
      "gateway": "100.64.1.9"}),
    (Technology.DOCKER, "iptables-firewall",
     {"lan.address": "10.1.0.1/24", "firewall.allow": "udp:53,tcp:443"},
     {"lan.address": "10.2.0.1/24", "firewall.deny": "tcp:23"}),
    (Technology.NATIVE, "iptables-firewall",
     {"lan.address": "10.1.0.1/24", "firewall.allow": "udp:53,tcp:443"},
     {"lan.address": "10.1.0.1/24", "firewall.allow": "udp:53,tcp:80"}),
    (Technology.NATIVE, "strongswan",
     {"lan.address": "192.168.1.1/24", "wan.address": "203.0.113.2/24",
      "ipsec.local": "203.0.113.2", "ipsec.peer": "198.51.100.9",
      "ipsec.local_subnet": "192.168.1.0/24",
      "ipsec.remote_subnet": "10.8.0.0/24", "ipsec.psk": "old"},
     {"lan.address": "192.168.1.1/24", "wan.address": "203.0.113.2/24",
      "ipsec.local": "203.0.113.2", "ipsec.peer": "198.51.100.9",
      "ipsec.local_subnet": "192.168.1.0/24",
      "ipsec.remote_subnet": "172.20.0.0/16", "ipsec.psk": "new"}),
]


def test_repeated_firewall_port_keeps_chain_order_on_update():
    """``iptables -D`` removes the first matching rule, so a rule
    rendered twice would come back in the wrong place on undo."""
    c1 = {"firewall.allow": "tcp:22,udp:53,tcp:22"}
    c2 = {"firewall.allow": "tcp:22,udp:53"}
    driver = make_driver(Technology.DOCKER)
    instance = running(driver, spec("iptables-firewall", "g", c1,
                                    Technology.DOCKER))
    driver.update(instance, c2)
    assert dump(driver, instance) == fresh(Technology.DOCKER,
                                           "iptables-firewall", c2)


def driver_for(technology, plugin_name):
    """A fresh driver; a shared plugin first gets a resident graph, so
    ``g`` is not its component's only tenant."""
    driver = make_driver(technology)
    if (technology is Technology.NATIVE
            and stock_registry().get(plugin_name).sharable):
        running(driver, spec(plugin_name, "n", {}))
    return driver


@pytest.mark.parametrize("technology,plugin_name,c1,c2", FAILING,
                         ids=[f"{t.value}-{n}" for t, n, _, _ in FAILING])
def test_failed_update_converges_on_retry(technology, plugin_name, c1, c2):
    reference = driver_for(technology, plugin_name)
    expected = dump(reference, running(
        reference, spec(plugin_name, "g", c2, technology)))
    for index in itertools.count():
        driver = driver_for(technology, plugin_name)
        instance = running(driver, spec(plugin_name, "g", c1, technology))
        FailOnce(driver.runner, index)
        try:
            driver.update(instance, c2)
        except RuntimeError:
            pass
        else:
            break  # ``index`` is past the update's last command
        # The record is the truth: replaying it on a fresh instance
        # gives the same state.
        replay = driver_for(technology, plugin_name)
        twin = replay.create(spec(plugin_name, "g", c1, technology))
        replay.runner.run_script(instance.configured)
        twin.transition("configure")
        replay.start(twin)
        assert namespace_dump(replay.host.namespace(twin.netns)) \
            == namespace_dump(driver.host.namespace(instance.netns)), index
        driver.update(instance, c2)
        assert dump(driver, instance) == expected, index
    assert index > 2


def with_config(graph, nf_id, changes):
    """``graph`` with ``changes`` merged into NF ``nf_id``'s config."""
    graph.nfs = [dataclasses.replace(nf, config=tuple(sorted(
        {**nf.config_dict(), **changes}.items())))
        if nf.nf_id == nf_id else nf for nf in graph.nfs]
    return graph


# -- restarts: daemons pick the new config up, rule-only NNFs are not restarted ------

def test_dnsmasq_static_change_answers_the_new_name():
    node = ComputeNode("dns")
    node.add_physical_interface("lan0")
    graph = _dhcp_graph("nas.home=192.168.1.20")
    node.deploy(graph)
    node.update(_dhcp_graph("nas.home=192.168.1.21,tv.home=192.168.1.30"))
    assert _ask(node, b"Q:tv.home") == b"A:192.168.1.30"
    assert _ask(node, b"Q:nas.home") == b"A:192.168.1.21"


def _dhcp_graph(static):
    graph = Nffg(graph_id="dhcp")
    graph.add_nf("dns", "dhcp-server", config={
        "lan.address": "192.168.1.1/24", "dns.static": static})
    graph.add_endpoint("lan", "lan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:dns:lan")
    graph.add_flow_rule("r2", "vnf:dns:lan", "endpoint:lan")
    return graph


def _ask(node, query):
    replies = []
    wire = node.wire("lan0")
    wire.attach_handler(lambda device, frame: replies.append(frame))
    try:
        wire.transmit(make_udp_frame(CLIENT, REMOTE, "192.168.1.55",
                                     "192.168.1.1", 40000, 53, query))
    finally:
        wire.detach_handler()
    assert len(replies) == 1
    return parse_frame(replies[0]).udp.payload


def test_strongswan_psk_change_leaves_two_states_with_the_new_keys():
    node = ComputeNode("vpn")
    for interface in ("lan0", "wan0"):
        node.add_physical_interface(interface)
    graph = ipsec_cpe_graph("ipsec", "native")
    record = node.deploy(graph)
    xfrm = node.host.namespace(record.instances["vpn"].netns).xfrm
    old_keys = {state.sa.enc_key for state in xfrm.states()}
    node.update(with_config(ipsec_cpe_graph("ipsec", "native"), "vpn",
                            {"ipsec.psk": "rotated-psk"}))
    assert (len(xfrm.states()), len(xfrm.policies())) == (2, 2)
    params = tunnel_sa_parameters("203.0.113.2", "198.51.100.9",
                                  "rotated-psk")
    assert {state.sa.enc_key.hex() for state in xfrm.states()} \
        == {params["out"]["enc"], params["in"]["enc"]}
    assert not old_keys & {state.sa.enc_key for state in xfrm.states()}


def test_firewall_policy_change_runs_no_stop_or_start():
    driver = make_driver(Technology.DOCKER)
    instance = running(driver, spec(
        "iptables-firewall", "g",
        {"lan.address": "10.1.0.1/24", "firewall.allow": "udp:53"},
        Technology.DOCKER))
    plugin = stock_registry().get("iptables-firewall")
    lifecycle = set(plugin.start_script(driver._context(instance))
                    + plugin.stop_script(driver._context(instance)))
    commands = []
    original = driver.runner.run
    driver.runner.run = lambda command: (commands.append(command),
                                         original(command))
    driver.update(instance, {"lan.address": "10.1.0.1/24",
                             "firewall.allow": "udp:53,tcp:443"})
    assert commands and not lifecycle & set(commands)
    assert all(" iptables -" in command for command in commands), commands


# -- the gateway-only NAT update (it used to stick at "already on") --------------------

def nat_graph(index, technology, gateway):
    """Subscriber ``index``'s NAT between ``lan<index>`` and ``wan0``."""
    graph = Nffg(graph_id=f"tenant{index}")
    graph.add_nf("nat", "nat", technology=technology, config={
        "lan.address": f"10.{index}.0.1/24",
        "wan.address": f"100.64.{index}.2/24", "gateway": gateway})
    graph.add_endpoint("lan", f"lan{index}")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat:lan")
    graph.add_flow_rule("r2", "vnf:nat:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                        ip_dst=f"100.64.{index}.0/24")
    return graph


def _leaves_masqueraded(node, index):
    egress = []
    wire = node.wire("wan0")
    wire.attach_handler(lambda device, frame: egress.append(frame))
    try:
        node.wire(f"lan{index}").transmit(make_udp_frame(
            CLIENT, REMOTE, f"10.{index}.0.50", "8.8.8.8", 4000 + index,
            53, b"probe"))
    finally:
        wire.detach_handler()
    return [parse_frame(frame).ipv4.src for frame in egress] \
        == [f"100.64.{index}.2"]


@pytest.mark.parametrize("technology", [None, "docker"],
                         ids=["shared-native", "docker"])
def test_gateway_only_nat_update_succeeds(technology):
    node = ComputeNode("cpe")
    node.add_physical_interface("wan0")
    for index in (1, 2):
        node.add_physical_interface(f"lan{index}")
        node.deploy(nat_graph(index, technology, f"100.64.{index}.1"))
    for index in (1, 2):
        record = node.update(nat_graph(index, technology,
                                       f"100.64.{index}.254"))
        instance = record.instances["nat"]
        assert instance.is_running
        namespace = node.host.namespace(instance.netns)
        table = (namespace.route_tables[instance.mark] if instance.shared
                 else namespace.routes)
        assert [route.gateway for route in table
                if route.prefix_len == 0] == [f"100.64.{index}.254"]
    for index in (1, 2):
        assert _leaves_masqueraded(node, index)
