"""Golden scripts: every stock plugin's forward scripts, byte for byte.

The create, configure, start and add-path scripts of each bundled
plugin are rendered over a fixed set of contexts and compared with
``tests/data/plugin_scripts.json``.  A refactor of how the plugins
build their command strings must leave this file unchanged; a script
that raises is pinned by its exception type.
"""

import json
from pathlib import Path

from repro.nnf.plugin import PluginContext
from repro.nnf.plugins import stock_registry

GOLDEN = Path(__file__).parent / "data" / "plugin_scripts.json"

SCRIPTS = ("create", "configure", "start", "add_path")

_TUNNEL = {
    "ipsec.local": "203.0.113.2",
    "ipsec.peer": "198.51.100.9",
    "ipsec.local_subnet": "192.168.1.0/24",
    "ipsec.remote_subnet": "10.8.0.0/24",
    "ipsec.psk": "hunter2",
}

#: name -> config; every plugin is rendered with each of them.
CONFIGS = {
    "empty": {},
    "lan-only": {"lan.address": "192.168.1.1/24"},
    "wan-gateway": {"wan.address": "100.64.1.2/24",
                    "gateway": "100.64.1.1"},
    "full": {"lan.address": "10.1.0.1/24", "wan.address": "100.64.1.2/24",
             "gateway": "100.64.1.1", "firewall.allow": "udp:53,tcp:443",
             "route.1": "172.16.0.0/16 via 100.64.1.9",
             "route.2": "172.17.0.0/16 dev lan",
             "dhcp.range": "10.1.0.100,10.1.0.199", **_TUNNEL},
    "deny": {"lan.address": "10.2.0.1/24", "firewall.deny": "tcp:23"},
}

#: name -> (ports, mark): dedicated devices, shared subinterfaces, and
#: a context missing its ``wan`` port.
PORTS = {
    "dedicated": ({"lan": "eth0", "wan": "eth1"}, None),
    "shared": ({"lan": "mux0.103", "wan": "mux0.104"}, 2),
    "lan-port-only": ({"lan": "eth0"}, 2),
}


def render_all() -> dict:
    """``plugin -> ports -> config -> script -> lines | {"error": T}``."""
    registry = stock_registry()
    rendered = {}
    for name in registry.names():
        plugin = registry.get(name)
        per_plugin = rendered[name] = {}
        for ports_name, (ports, mark) in PORTS.items():
            per_ports = per_plugin[ports_name] = {}
            for config_name, config in CONFIGS.items():
                per_config = per_ports[config_name] = {}
                for script in SCRIPTS:
                    ctx = PluginContext(instance_id=f"{name}-1",
                                        netns="nnf-x", ports=dict(ports),
                                        config=dict(config), mark=mark)
                    try:
                        lines = getattr(plugin, f"{script}_script")(ctx)
                    except Exception as exc:  # pinned by type
                        per_config[script] = {"error": type(exc).__name__}
                    else:
                        per_config[script] = list(lines)
    return rendered


def test_stock_plugin_scripts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    rendered = render_all()
    assert sorted(rendered) == sorted(golden)
    for name in golden:
        assert rendered[name] == golden[name], name


def test_golden_covers_every_sharable_path():
    """The shared contexts really render paths (the file is not vacuous)."""
    golden = json.loads(GOLDEN.read_text())
    nat = golden["iptables-nat"]["shared"]["full"]["add_path"]
    assert any("ip rule add fwmark 2 table 2" in line for line in nat)
    assert golden["strongswan"]["shared"]["full"]["add_path"] == {
        "error": "PluginError"}
