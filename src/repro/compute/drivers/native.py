"""The NNF driver — the management driver this paper contributes.

"When a NNF should be used, the compute manager selects a NNF driver
developed as part of this work.  This NNF driver implements the same
abstraction defined for the other compute drivers and dynamically
activates the plugin associated to the selected NNF. [...]  The NNF
driver starts the NNF in a new network namespace, to provide a basic
form of isolation, and configures the NNF with a predefined
configuration script."  (paper §2)

Two instantiation modes:

* **dedicated** — multi-instance plugins get their own namespace with
  one veth per logical port, like any other driver's instance;
* **shared** — sharable plugins get (at most) one component instance;
  additional graphs are attached through the adaptation layer: one
  trunk port, per-graph VLAN subinterfaces, per-graph marks, and the
  plugin's ``add_path`` script building the isolated internal path.

Plugins write configure and add-path scripts only.  Each command is
recorded as it succeeds (a shared instance's record is its graph's
attachment ``path``), and an update is the diff against that record,
as in :meth:`~repro.compute.base.ComputeDriver.update`.  A detach runs
the record's :func:`~repro.linuxnet.cmdline.inverse_script`; a
last-tenant detach runs none, as ``ip netns del`` removes the whole
component.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.templates import Technology
from repro.compute.base import ComputeDriver, DriverError, Health
from repro.compute.instances import InstanceSpec, InstanceState, NfInstance
from repro.nnf.plugin import NnfPlugin, PluginContext
from repro.nnf.registry import NnfRegistry
from repro.nnf.sharing import SharedNnfManager
from repro.linuxnet.cmdline import inverse_script
from repro.linuxnet.host import LinuxHost

__all__ = ["NativeDriver"]


class NativeDriver(ComputeDriver):
    technology = Technology.NATIVE
    netns_prefix = "nnf"
    boot_seconds = 0.15  # namespace + a handful of commands

    #: NF process RSS charged for daemon-backed NNFs (strongSwan's
    #: charon measured 19.4 MB in Table 1); rule-only NNFs
    #: (iptables/bridge) cost kernel memory only, a fraction of a MB.
    default_daemon_rss_mb = 19.4
    rules_only_rss_mb = 0.4

    def __init__(self, host: LinuxHost, registry: NnfRegistry,
                 shared: Optional[SharedNnfManager] = None) -> None:
        super().__init__(host, behaviors=registry)
        self.registry = registry
        self.shared = shared if shared is not None else SharedNnfManager()

    # -- plugin selection -----------------------------------------------------------
    def _plugin_for(self, spec: InstanceSpec) -> NnfPlugin:
        plugin_name = spec.implementation.plugin
        if plugin_name is None:
            raise DriverError(
                f"{spec.instance_id}: native implementation without plugin")
        if plugin_name not in self.registry:
            raise DriverError(f"no NNF plugin {plugin_name!r} on this node")
        if not self.registry.is_installed(plugin_name):
            raise DriverError(
                f"NNF plugin {plugin_name!r}: host package "
                f"{self.registry.get(plugin_name).package!r} not installed")
        return self.registry.get(plugin_name)

    # -- create ------------------------------------------------------------------------
    def create(self, spec: InstanceSpec) -> NfInstance:
        plugin = self._plugin_for(spec)
        other_users = self.registry.users(plugin.name) - {spec.graph_id}
        if other_users and not plugin.multi_instance and not plugin.sharable:
            raise DriverError(
                f"NNF {plugin.name} is exclusive and already used by "
                f"graph(s) {sorted(other_users)}")
        if plugin.sharable and (other_users or plugin.single_interface):
            instance = self._create_shared(spec, plugin)
        else:
            instance = self._create_dedicated(spec, plugin)
        self.registry.claim(plugin.name, spec.graph_id)
        self.instances_created += 1
        return instance

    def _create_dedicated(self, spec: InstanceSpec,
                          plugin: NnfPlugin) -> NfInstance:
        instance = self._create_namespace_and_ports(spec)
        instance.plugin_name = plugin.name
        instance.boot_seconds = self.boot_seconds
        instance.runtime_ram_mb = self.runtime_ram_mb(instance)
        instance.transition("create")
        self._run(plugin.create_script(self._context(instance)))
        return instance

    def _create_shared(self, spec: InstanceSpec,
                       plugin: NnfPlugin) -> NfInstance:
        shared, created = self.shared.ensure_instance(
            plugin, netns=f"nnf-shared-{plugin.name}")
        if created:
            trunk_outer = f"sh-{plugin.name}"
            self._run([
                f"ip netns add {shared.netns}",
                f"ip link add {trunk_outer} type veth peer name "
                f"{shared.adaptation.trunk_device}",
                f"ip link set {shared.adaptation.trunk_device} netns "
                f"{shared.netns}",
                f"ip link set {trunk_outer} up",
                f"ip netns exec {shared.netns} ip link set "
                f"{shared.adaptation.trunk_device} up",
            ])
            bootstrap = PluginContext(instance_id=shared.instance_id,
                                      netns=shared.netns,
                                      config=dict(spec.config))
            self._run(plugin.create_script(bootstrap))
        attachment = self.shared.attach(plugin.name, spec.graph_id,
                                        list(spec.logical_ports))
        self._run(shared.adaptation.subinterface_commands(
            shared.netns, attachment))
        trunk_device = self.host.root.device(f"sh-{plugin.name}")
        instance = NfInstance(spec=spec, technology=self.technology,
                              netns=shared.netns, shared=True,
                              mark=attachment.mark,
                              plugin_name=plugin.name,
                              configured=attachment.path)
        instance.boot_seconds = self.boot_seconds if created else 0.05
        for logical in spec.logical_ports:
            instance.switch_devices[logical] = trunk_device
            instance.inner_devices[logical] = \
                attachment.port_devices[logical]
            instance.port_vlans[logical] = attachment.port_vids[logical]
        instance.runtime_ram_mb = (self.runtime_ram_mb(instance)
                                   if created else 0.0)
        instance.transition("create")
        return instance

    # -- configure / start / destroy -----------------------------------------------
    def _configure_script(self, plugin: NnfPlugin, instance: NfInstance,
                          ctx: PluginContext) -> list[str]:
        if instance.shared:
            return plugin.add_path_script(ctx)
        return plugin.configure_script(ctx)

    def start(self, instance: NfInstance) -> None:
        if not instance.shared:
            super().start(instance)
            return
        # Subinterfaces were raised at attach time; the component
        # itself is already live.
        self._raise_subinterfaces(instance)
        instance.transition("start")

    def stop(self, instance: NfInstance) -> None:
        if not instance.shared:
            super().stop(instance)
            return
        instance.transition("stop")

    def restart(self, instance: NfInstance) -> None:
        if not instance.shared:
            super().restart(instance)
            return
        # The component is shared across graphs — restarting one
        # attachment only re-raises its subinterfaces.
        self._raise_subinterfaces(instance)
        instance.transition("restart")

    def _raise_subinterfaces(self, instance: NfInstance) -> None:
        for device in instance.inner_devices.values():
            self._run([f"ip netns exec {instance.netns} "
                       f"ip link set {device} up"])

    def health(self, instance: NfInstance) -> Health:
        base = super().health(instance)
        if not base.healthy:
            return base
        if instance.shared and instance.plugin_name is not None:
            # The shared component must still be registered — a torn
            # down trunk means every attachment of it is dead.
            if self.shared.instance_of(instance.plugin_name) is None:
                return Health(
                    False,
                    f"shared component {instance.plugin_name} released")
        return base

    def _run_best_effort(self, commands: list[str]) -> None:
        """Teardown semantics of the real scripts' ``cmd || true``: a
        rule already gone (deleted out of band) must not abort the rest
        of the cleanup."""
        for command in commands:
            try:
                self._run([command])
            except Exception:
                pass

    def destroy(self, instance: NfInstance) -> None:
        plugin = self.registry.get(instance.plugin_name)
        if instance.shared:
            shared = self.shared.instance_of(plugin.name)
            if shared is not None:
                attachment = self.shared.detach(plugin.name,
                                                instance.graph_id)
                released = self.shared.release_if_unused(plugin.name)
                if released is None:
                    self._run_best_effort(
                        inverse_script(attachment.path)
                        + shared.adaptation.teardown_commands(
                            shared.netns, attachment))
                else:
                    trunk = f"sh-{plugin.name}"
                    found = self.host.find_device(trunk)
                    if found is not None:
                        ns, device = found
                        if device.peer is not None:
                            device.peer.peer = None
                        ns.remove_device(trunk)
                    self._run([f"ip netns del {released.netns}"])
            self.registry.unclaim(plugin.name, instance.graph_id)
            instance.transition("destroy")
            return
        self.registry.unclaim(plugin.name, instance.graph_id)
        super().destroy(instance)

    # -- context / accounting ---------------------------------------------------------
    def _context(self, instance: NfInstance) -> PluginContext:
        return PluginContext(instance_id=instance.instance_id,
                             netns=instance.netns,
                             ports=dict(instance.inner_devices),
                             config=dict(instance.spec.config),
                             mark=instance.mark)

    def runtime_ram_mb(self, instance: NfInstance) -> float:
        """Native RAM = just the NF process (Table 1: 19.4 MB for
        strongSwan); rule-only components cost well under a MB."""
        plugin = self.registry.get(instance.plugin_name)
        daemon_backed = plugin.functional_type in ("ipsec-endpoint",
                                                   "dhcp-server")
        if daemon_backed:
            text = instance.spec.config.get("nf_rss_mb")
            return float(text) if text else self.default_daemon_rss_mb
        return self.rules_only_rss_mb
