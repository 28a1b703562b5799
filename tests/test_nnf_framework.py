"""NNF framework: plugin API, registry, adaptation layer, sharing."""

import pytest

from repro.catalog.resolver import NnfAvailability
from repro.nnf.adaptation import AdaptationLayer
from repro.nnf.plugin import NnfPlugin, PluginContext, PluginError
from repro.nnf.plugins import stock_registry
from repro.nnf.registry import NnfRegistry
from repro.nnf.sharing import SharedNnfManager, SharingError


class TestPluginContext:
    def test_port_lookup(self):
        ctx = PluginContext(instance_id="i", netns="ns",
                            ports={"lan": "eth0"})
        assert ctx.port("lan") == "eth0"
        with pytest.raises(PluginError, match="no device"):
            ctx.port("wan")

    def test_require_config(self):
        ctx = PluginContext(instance_id="i", netns="ns",
                            config={"k": "v"})
        assert ctx.require_config("k") == "v"
        with pytest.raises(PluginError, match="missing required"):
            ctx.require_config("absent")


class TestRegistry:
    def test_stock_registry_contents(self):
        registry = stock_registry()
        for name in ("iptables-nat", "iptables-firewall", "linuxbridge",
                     "strongswan", "dnsmasq", "static-router"):
            assert name in registry

    def test_installed_depends_on_package(self):
        registry = stock_registry(installed=("iptables",))
        assert registry.is_installed("iptables-nat")
        assert not registry.is_installed("strongswan")

    def test_unknown_plugin_not_installed(self):
        registry = stock_registry()
        assert not registry.is_installed("ghost")
        assert registry.availability("ghost").installed is False

    def test_duplicate_registration_rejected(self):
        registry = NnfRegistry()
        plugin = NnfPlugin()
        plugin.name = "x"
        registry.register(plugin)
        with pytest.raises(ValueError):
            registry.register(plugin)

    def test_availability_of_exclusive_plugin(self):
        registry = stock_registry()
        before = registry.availability("strongswan")
        assert before.usable and not before.busy
        registry.claim("strongswan", "g1")
        after = registry.availability("strongswan")
        assert after.busy and not after.usable
        registry.unclaim("strongswan", "g1")
        assert registry.availability("strongswan").usable

    def test_sharable_plugin_usable_while_busy(self):
        registry = stock_registry()
        registry.claim("iptables-nat", "g1")
        availability = registry.availability("iptables-nat")
        assert availability.sharable
        assert availability.usable

    def test_describe_rows(self):
        registry = stock_registry()
        registry.claim("dnsmasq", "g9")
        rows = {row["name"]: row for row in registry.describe()}
        assert rows["iptables-nat"]["sharable"] is True
        assert rows["dnsmasq"]["in-use-by"] == ["g9"]
        assert rows["strongswan"]["single-interface"] is False


class TestAdaptationLayer:
    def test_per_port_vids_unique(self):
        layer = AdaptationLayer()
        attachment = layer.attach_graph("g1", ["lan", "wan"])
        assert attachment.port_vids["lan"] != attachment.port_vids["wan"]
        assert attachment.port_devices["lan"].startswith("mux0.")

    def test_marks_and_vids_distinct_across_graphs(self):
        layer = AdaptationLayer()
        a = layer.attach_graph("g1", ["lan", "wan"])
        b = layer.attach_graph("g2", ["lan", "wan"])
        assert a.mark != b.mark
        assert set(a.port_vids.values()).isdisjoint(b.port_vids.values())

    def test_double_attach_rejected(self):
        layer = AdaptationLayer()
        layer.attach_graph("g1", ["lan"])
        with pytest.raises(ValueError):
            layer.attach_graph("g1", ["lan"])

    def test_detach_then_reattach(self):
        layer = AdaptationLayer()
        layer.attach_graph("g1", ["lan"])
        layer.detach_graph("g1")
        assert layer.graphs == []
        layer.attach_graph("g1", ["lan"])

    def test_subinterface_commands(self):
        layer = AdaptationLayer()
        attachment = layer.attach_graph("g1", ["lan"])
        commands = layer.subinterface_commands("nnf-shared", attachment)
        vid = attachment.port_vids["lan"]
        assert any(f"type vlan id {vid}" in command for command in commands)
        assert all(command.startswith("ip netns exec nnf-shared")
                   for command in commands)

    def test_vid_exhaustion(self):
        layer = AdaptationLayer(vid_base=4094)
        layer.attach_graph("g1", ["lan"])
        with pytest.raises(OverflowError):
            layer.attach_graph("g2", ["lan"])


class TestSharedManager:
    def plugin(self):
        registry = stock_registry()
        return registry.get("iptables-nat")

    def test_ensure_instance_idempotent(self):
        manager = SharedNnfManager()
        first, created1 = manager.ensure_instance(self.plugin(), "ns")
        second, created2 = manager.ensure_instance(self.plugin(), "ns")
        assert first is second
        assert created1 and not created2

    def test_non_sharable_rejected(self):
        manager = SharedNnfManager()
        registry = stock_registry()
        with pytest.raises(SharingError, match="not sharable"):
            manager.ensure_instance(registry.get("strongswan"), "ns")

    def test_attach_detach_lifecycle(self):
        manager = SharedNnfManager()
        manager.ensure_instance(self.plugin(), "ns")
        attachment = manager.attach("iptables-nat", "g1", ["lan", "wan"])
        assert attachment.mark == 1
        with pytest.raises(SharingError, match="already attached"):
            manager.attach("iptables-nat", "g1", ["lan"])
        manager.detach("iptables-nat", "g1")
        with pytest.raises(SharingError, match="not attached"):
            manager.detach("iptables-nat", "g1")

    def test_release_only_when_unused(self):
        manager = SharedNnfManager()
        manager.ensure_instance(self.plugin(), "ns")
        manager.attach("iptables-nat", "g1", ["lan"])
        assert manager.release_if_unused("iptables-nat") is None
        manager.detach("iptables-nat", "g1")
        released = manager.release_if_unused("iptables-nat")
        assert released is not None
        assert manager.instance_of("iptables-nat") is None

    def test_context_includes_mark_and_devices(self):
        manager = SharedNnfManager()
        instance, _created = manager.ensure_instance(self.plugin(), "ns")
        manager.attach("iptables-nat", "g1", ["lan", "wan"])
        ctx = instance.context_for("g1", {"gateway": "1.2.3.4"})
        assert ctx.mark == 1
        assert ctx.ports["lan"].startswith("mux0.")
        assert ctx.config["gateway"] == "1.2.3.4"


class TestPluginScripts:
    def test_base_plugin_sharable_guards(self):
        plugin = NnfPlugin()
        ctx = PluginContext(instance_id="i", netns="ns")
        with pytest.raises(PluginError):
            plugin.add_path_script(ctx)

    def test_strongswan_requires_tunnel_config(self):
        registry = stock_registry()
        plugin = registry.get("strongswan")
        ctx = PluginContext(instance_id="i", netns="ns",
                            ports={"lan": "eth0", "wan": "eth1"},
                            config={})
        with pytest.raises(PluginError):
            plugin.configure_script(ctx)

    def test_strongswan_sa_parameters_symmetric(self):
        from repro.nnf.plugins.strongswan import tunnel_sa_parameters
        left = tunnel_sa_parameters("1.1.1.1", "2.2.2.2", "psk")
        right = tunnel_sa_parameters("2.2.2.2", "1.1.1.1", "psk")
        # A's outbound SA must equal B's inbound SA.
        assert left["out"] == right["in"]
        assert left["in"] == right["out"]
        # Directions use distinct SPIs and keys.
        assert left["out"]["spi"] != left["in"]["spi"]
        assert left["out"]["enc"] != left["in"]["enc"]

    def test_firewall_policy_rules_allow_mode(self):
        registry = stock_registry()
        plugin = registry.get("iptables-firewall")
        ctx = PluginContext(instance_id="i", netns="ns",
                            ports={"lan": "eth0", "wan": "eth1"},
                            config={"firewall.allow": "udp:53,tcp:443"})
        commands = plugin.configure_script(ctx)
        dports = [c for c in commands if "--dport" in c]
        assert len(dports) == 2
        assert any(c.endswith("-j DROP") for c in commands)

    def test_firewall_policy_rules_deny_mode(self):
        registry = stock_registry()
        plugin = registry.get("iptables-firewall")
        ctx = PluginContext(instance_id="i", netns="ns",
                            ports={"lan": "eth0", "wan": "eth1"},
                            config={"firewall.deny": "tcp:23"})
        commands = plugin.configure_script(ctx)
        assert any("--dport 23" in c and "-j DROP" in c for c in commands)
        assert any(c.endswith("-j ACCEPT") for c in commands)
