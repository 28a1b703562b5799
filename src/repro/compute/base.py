"""The driver abstraction every management driver implements.

Paper §2: "All the above drivers must implement a specific abstraction
defined by the local orchestrator, which enables multiple drivers to
coexist".  The abstraction is the lifecycle verb set (create /
configure / start / stop / update / destroy / restart) over
:class:`~repro.compute.instances.NfInstance`, the :meth:`health` probe
the reconciler polls on every tick, plus the port-attachment contract
(``switch_devices``/``port_vlans``) the steering layer reads.

The namespace-backed drivers share plumbing here: each NF instance gets
a network namespace and one veth pair per logical port, with the
root-namespace half left for the LSI to claim.  The guest-side
configuration is produced by the NNF *plugins* regardless of packaging
technology — a strongSwan VM and a strongSwan NNF run the same
component, so they are configured by the same command generator; only
the wrapping (and its costs) differ.

Plugins write no update script.  The driver records each configure
command on the instance as it succeeds (:attr:`NfInstance.configured`),
and an update is the diff between that record and the newly rendered
script: the record's differing suffix is undone newest first through
:func:`~repro.linuxnet.cmdline.inverse_script`, then the new suffix
runs.  A changed start script, or a daemon a script cannot express
(:meth:`~repro.nnf.plugin.NnfPlugin.post_start`), ends the update with
the instance's stop and start sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalog.templates import Technology
from repro.compute.instances import InstanceSpec, InstanceState, NfInstance
from repro.linuxnet.cmdline import ScriptRunner, inverse_script
from repro.linuxnet.host import LinuxHost
from repro.nnf.plugin import NnfPlugin, PluginContext
from repro.nnf.registry import NnfRegistry

__all__ = ["ComputeDriver", "DriverError", "Health"]


class DriverError(Exception):
    """Driver-level failure (bad spec, unusable plugin, ...)."""


@dataclass(frozen=True)
class Health:
    """Result of one :meth:`ComputeDriver.health` probe."""

    healthy: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.healthy


class ComputeDriver:
    """Base class for the management drivers."""

    technology: Technology
    #: modelled instantiation latency (seconds) added per instance
    boot_seconds: float = 1.0
    #: name prefix for instance namespaces
    netns_prefix: str = "nf"

    def __init__(self, host: LinuxHost,
                 behaviors: Optional[NnfRegistry] = None) -> None:
        self.host = host
        self.runner = ScriptRunner(host)
        #: plugin registry used as *behaviour generators* for guest
        #: configuration (may be shared with the native driver).
        self.behaviors = behaviors
        self.instances_created = 0
        self.commands_run = 0

    # -- shared plumbing ---------------------------------------------------------
    def _netns_name(self, spec: InstanceSpec) -> str:
        return f"{self.netns_prefix}-{spec.instance_id}"

    def _inner_port_name(self, spec: InstanceSpec, index: int,
                         logical: str) -> str:
        """Guest-side device name; technology-flavoured."""
        return logical

    def _run(self, commands: list[str]) -> None:
        self.commands_run += len(commands)
        self.runner.run_script(commands)

    def _apply(self, applied: list[str], script: list[str]) -> None:
        """Bring ``applied``, the commands that ran, to ``script``.

        The longest common prefix stays.  The rest of ``applied`` is
        undone newest first and the rest of ``script`` runs, each
        command recorded or popped as it succeeds, so ``applied``
        always equals what is applied and a failed call resumes from
        it.
        """
        keep = 0
        for ran, wanted in zip(applied, script):
            if ran != wanted:
                break
            keep += 1
        while len(applied) > keep:
            self._run(inverse_script(applied[-1:]))
            applied.pop()
        for command in script[keep:]:
            self._run([command])
            applied.append(command)

    def _stop_plugin(self, plugin: NnfPlugin, ctx: PluginContext) -> None:
        self._run(plugin.stop_script(ctx))
        plugin.post_stop(ctx, self.host)

    def _start_plugin(self, plugin: NnfPlugin, ctx: PluginContext) -> None:
        self._run(plugin.start_script(ctx))
        plugin.post_start(ctx, self.host)

    def _create_namespace_and_ports(self, spec: InstanceSpec) -> NfInstance:
        netns = self._netns_name(spec)
        self._run([f"ip netns add {netns}"])
        instance = NfInstance(spec=spec, technology=self.technology,
                              netns=netns)
        for index, logical in enumerate(spec.logical_ports):
            outer = f"{spec.instance_id}-{logical}"
            inner = self._inner_port_name(spec, index, logical)
            self._run([
                f"ip link add {outer} type veth peer name {inner}",
                f"ip link set {inner} netns {netns}",
                f"ip link set {outer} up",
            ])
            instance.switch_devices[logical] = self.host.root.device(outer)
            instance.inner_devices[logical] = inner
            instance.port_vlans[logical] = None
        return instance

    def _behavior_plugin(self, spec: InstanceSpec) -> Optional[NnfPlugin]:
        """Plugin acting as the guest's configuration generator."""
        if self.behaviors is None:
            return None
        for name in self.behaviors.names():
            plugin = self.behaviors.get(name)
            if plugin.functional_type == spec.functional_type:
                return plugin
        return None

    def _context(self, instance: NfInstance) -> PluginContext:
        return PluginContext(instance_id=instance.instance_id,
                             netns=instance.netns,
                             ports=dict(instance.inner_devices),
                             config=dict(instance.spec.config))

    # -- abstraction verbs ---------------------------------------------------------
    def create(self, spec: InstanceSpec) -> NfInstance:
        instance = self._create_namespace_and_ports(spec)
        instance.boot_seconds = self.boot_seconds
        instance.transition("create")
        plugin = self._behavior_plugin(spec)
        if plugin is not None:
            instance.plugin_name = plugin.name
            self._run(plugin.create_script(self._context(instance)))
        self.instances_created += 1
        return instance

    def _configure_script(self, plugin: NnfPlugin, instance: NfInstance,
                          ctx: PluginContext) -> list[str]:
        return plugin.configure_script(ctx)

    def configure(self, instance: NfInstance) -> None:
        plugin = self._named_plugin(instance)
        if plugin is not None:
            self._apply(instance.configured, self._configure_script(
                plugin, instance, self._context(instance)))
        instance.transition("configure")

    def start(self, instance: NfInstance) -> None:
        plugin = self._named_plugin(instance)
        if plugin is not None:
            self._start_plugin(plugin, self._context(instance))
        else:
            self._run([f"ip netns exec {instance.netns} ip link set "
                       f"{device} up"
                       for device in instance.inner_devices.values()])
        instance.transition("start")

    def stop(self, instance: NfInstance) -> None:
        plugin = self._named_plugin(instance)
        if plugin is not None:
            self._stop_plugin(plugin, self._context(instance))
        instance.transition("stop")

    def update(self, instance: NfInstance,
               new_config: dict[str, str]) -> None:
        """Apply ``new_config`` to a running instance.

        The instance keeps its old config until the update succeeded,
        so a failed update is retried from what is applied.
        """
        config = dict(new_config)
        plugin = self._named_plugin(instance)
        if plugin is not None:
            old, new = self._context(instance), self._context(instance)
            new.config = config
            self._apply(instance.configured,
                        self._configure_script(plugin, instance, new))
            if not instance.shared and (
                    type(plugin).post_start is not NnfPlugin.post_start
                    or plugin.start_script(old) != plugin.start_script(new)):
                self._stop_plugin(plugin, old)
                self._start_plugin(plugin, new)
        instance.spec.config.clear()
        instance.spec.config.update(config)
        instance.transition("update")

    def destroy(self, instance: NfInstance) -> None:
        plugin = self._named_plugin(instance)
        if plugin is not None and instance.state is not None:
            try:
                self._run(plugin.destroy_script(self._context(instance)))
            except Exception:
                pass  # teardown is best-effort, like the real scripts
        for device in instance.unique_switch_devices():
            if device.peer is not None:
                device.peer.peer = None
            if device.namespace is not None:
                device.namespace.remove_device(device.name)
        if instance.netns in self.host.namespaces:
            self._run([f"ip netns del {instance.netns}"])
        # else: the namespace already evaporated (crashed instance) —
        # destroy is idempotent so the reconciler can clean up wrecks.
        instance.transition("destroy")

    def restart(self, instance: NfInstance) -> None:
        """Heal a FAILED instance in place.

        The namespace and ports survived (only the NF itself died), so
        the driver re-runs its start machinery: stop scripts
        best-effort, then the start scripts, on the same substrate.
        Raises :class:`~repro.compute.instances.LifecycleError` when the
        instance is not FAILED.
        """
        plugin = self._named_plugin(instance)
        if plugin is not None:
            try:
                self._stop_plugin(plugin, self._context(instance))
            except Exception:
                pass  # the dead NF may not answer its stop scripts
            self._start_plugin(plugin, self._context(instance))
        else:
            self._run([f"ip netns exec {instance.netns} ip link set "
                       f"{device} up"
                       for device in instance.inner_devices.values()])
        instance.transition("restart")

    def health(self, instance: NfInstance) -> Health:
        """Probe whether the instance's substrate is still alive.

        The base probe checks the marked state and that the instance's
        network namespace still exists on the host; technology drivers
        refine it (poll loops for DPDK, component registration for
        shared NNFs).  The probe never mutates state — the reconciler
        decides what to do with an unhealthy verdict.
        """
        if instance.state is InstanceState.FAILED:
            return Health(False, "marked failed")
        if instance.state is InstanceState.DESTROYED:
            return Health(False, "destroyed")
        if instance.netns not in self.host.namespaces:
            return Health(False, f"namespace {instance.netns} is gone")
        return Health(True, instance.state.value)

    def _named_plugin(self, instance: NfInstance) -> Optional[NnfPlugin]:
        if instance.plugin_name is None or self.behaviors is None:
            return None
        return self.behaviors.get(instance.plugin_name)

    # -- bookkeeping -------------------------------------------------------------
    def runtime_ram_mb(self, instance: NfInstance) -> float:
        """Runtime RAM of the instance; overridden per technology."""
        return instance.spec.implementation.ram_mb
