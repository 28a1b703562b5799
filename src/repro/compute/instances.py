"""NF instance records and their lifecycle state machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.catalog.templates import NfImplementation, Technology
from repro.linuxnet.devices import NetDevice
from repro.resources.accounting import Allocation

__all__ = ["InstanceSpec", "InstanceState", "LifecycleError", "NfInstance"]


class LifecycleError(Exception):
    """Invalid state transition requested."""


class InstanceState(Enum):
    INIT = "init"
    CREATED = "created"
    CONFIGURED = "configured"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"
    DESTROYED = "destroyed"


#: Legal transitions: operation -> (allowed source states, target state).
#: ``fail`` records a health-probe failure (the reconciler's detection
#: path); ``restart`` is the in-place heal — the driver re-runs its
#: start machinery on the surviving namespace/ports.
_TRANSITIONS: dict[str, tuple[tuple[InstanceState, ...], InstanceState]] = {
    "create": ((InstanceState.INIT,), InstanceState.CREATED),
    "configure": ((InstanceState.CREATED,), InstanceState.CONFIGURED),
    "start": ((InstanceState.CONFIGURED, InstanceState.STOPPED),
              InstanceState.RUNNING),
    "stop": ((InstanceState.RUNNING,), InstanceState.STOPPED),
    "update": ((InstanceState.RUNNING,), InstanceState.RUNNING),
    "fail": ((InstanceState.RUNNING,), InstanceState.FAILED),
    "restart": ((InstanceState.FAILED,), InstanceState.RUNNING),
    "destroy": ((InstanceState.CREATED, InstanceState.CONFIGURED,
                 InstanceState.RUNNING, InstanceState.STOPPED,
                 InstanceState.FAILED),
                InstanceState.DESTROYED),
}


@dataclass(frozen=True)
class InstanceSpec:
    """What the orchestrator asks a driver to instantiate."""

    instance_id: str
    graph_id: str
    nf_id: str
    template_name: str
    functional_type: str
    logical_ports: tuple[str, ...]
    implementation: NfImplementation
    config: dict[str, str] = field(default_factory=dict)


@dataclass
class NfInstance:
    """A live (or torn-down) network function."""

    spec: InstanceSpec
    technology: Technology
    netns: str
    state: InstanceState = InstanceState.INIT
    #: logical port -> device in the root namespace (LSI attachment side)
    switch_devices: dict[str, NetDevice] = field(default_factory=dict)
    #: logical port -> device name inside the instance namespace
    inner_devices: dict[str, str] = field(default_factory=dict)
    #: logical port -> VLAN id the steering layer must push (shared NNFs)
    port_vlans: dict[str, Optional[int]] = field(default_factory=dict)
    allocation: Optional[Allocation] = None
    boot_seconds: float = 0.0
    runtime_ram_mb: float = 0.0
    shared: bool = False
    mark: Optional[int] = None
    plugin_name: Optional[str] = None
    #: configure (dedicated) or add-path (shared) commands that
    #: succeeded, in order; updates and detaches diff against it
    configured: list[str] = field(default_factory=list)

    @property
    def instance_id(self) -> str:
        return self.spec.instance_id

    @property
    def graph_id(self) -> str:
        return self.spec.graph_id

    @property
    def is_running(self) -> bool:
        return self.state is InstanceState.RUNNING

    @property
    def is_failed(self) -> bool:
        return self.state is InstanceState.FAILED

    def transition(self, operation: str) -> None:
        """Apply a lifecycle operation or raise :class:`LifecycleError`."""
        try:
            allowed, target = _TRANSITIONS[operation]
        except KeyError:
            raise LifecycleError(f"unknown operation {operation!r}") from None
        if self.state not in allowed:
            raise LifecycleError(
                f"{self.instance_id}: cannot {operation} from state "
                f"{self.state.value}")
        self.state = target

    def unique_switch_devices(self) -> list[NetDevice]:
        """Deduplicated root-side devices (a shared NNF trunk appears
        once even though several logical ports map onto it)."""
        seen: list[NetDevice] = []
        for device in self.switch_devices.values():
            if device not in seen:
                seen.append(device)
        return seen

    def __repr__(self) -> str:
        return (f"<NfInstance {self.instance_id} "
                f"[{self.technology.value}] {self.state.value}>")
