"""Sharability machinery: one native component, many service graphs.

Paper §2: a NNF that cannot spin up multiple instances must be
"sharable" to let several service graphs traverse it, which requires
(i) an ad-hoc marking mechanism distinguishing the graphs' traffic and
(ii) per-graph isolated internal paths.  This module owns the shared
instances: it hands each deploying graph a mark + adaptation-layer
attachment, whose ``path`` records the plugin's add-path commands as
they succeed.  Plugins write the add-path script only: detaching a graph
runs the recorded path's inverse and deletes its subinterfaces, and
detaching the last graph runs neither, as ``ip netns del`` does it all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.nnf.adaptation import AdaptationLayer, GraphAttachment
from repro.nnf.plugin import NnfPlugin, PluginContext

__all__ = ["SharedInstance", "SharedNnfManager", "SharingError"]


class SharingError(Exception):
    """NNF cannot accept another graph (exclusive and busy, etc.)."""


@dataclass
class SharedInstance:
    """One live shared NNF component."""

    plugin: NnfPlugin
    instance_id: str
    netns: str
    adaptation: AdaptationLayer
    base_config: dict[str, str] = field(default_factory=dict)
    attachments: dict[str, GraphAttachment] = field(default_factory=dict)

    @property
    def graph_count(self) -> int:
        return len(self.attachments)

    def context_for(self, graph_id: str,
                    config: Optional[dict[str, str]] = None) -> PluginContext:
        """Plugin context for one graph's internal path."""
        attachment = self.attachments[graph_id]
        merged = dict(self.base_config)
        merged.update(config or {})
        return PluginContext(instance_id=self.instance_id,
                             netns=self.netns,
                             ports=dict(attachment.port_devices),
                             config=merged,
                             mark=attachment.mark)


class SharedNnfManager:
    """Tracks shared instances per plugin on one node."""

    def __init__(self) -> None:
        self._instances: dict[str, SharedInstance] = {}

    def instance_of(self, plugin_name: str) -> Optional[SharedInstance]:
        return self._instances.get(plugin_name)

    def instances(self) -> list[SharedInstance]:
        return list(self._instances.values())

    # -- attach ------------------------------------------------------------------
    def ensure_instance(self, plugin: NnfPlugin, netns: str,
                        base_config: Optional[dict[str, str]] = None
                        ) -> tuple[SharedInstance, bool]:
        """Get-or-create the shared instance; returns (instance, created)."""
        if not plugin.sharable:
            raise SharingError(
                f"plugin {plugin.name} is not sharable; cannot multiplex "
                "service graphs through it")
        existing = self._instances.get(plugin.name)
        if existing is not None:
            return existing, False
        instance = SharedInstance(
            plugin=plugin,
            instance_id=f"shared-{plugin.name}",
            netns=netns,
            adaptation=AdaptationLayer(),
            base_config=dict(base_config or {}))
        self._instances[plugin.name] = instance
        return instance, True

    def attach(self, plugin_name: str, graph_id: str,
               logical_ports: list[str]) -> GraphAttachment:
        instance = self._require(plugin_name)
        if graph_id in instance.attachments:
            raise SharingError(
                f"graph {graph_id!r} already attached to {plugin_name}")
        attachment = instance.adaptation.attach_graph(graph_id,
                                                      logical_ports)
        instance.attachments[graph_id] = attachment
        return attachment

    def detach(self, plugin_name: str, graph_id: str) -> GraphAttachment:
        instance = self._require(plugin_name)
        attachment = instance.attachments.pop(graph_id, None)
        if attachment is None:
            raise SharingError(
                f"graph {graph_id!r} not attached to {plugin_name}")
        instance.adaptation.detach_graph(graph_id)
        return attachment

    def release_if_unused(self, plugin_name: str) -> Optional[SharedInstance]:
        """Drop the instance once its last graph detached."""
        instance = self._instances.get(plugin_name)
        if instance is not None and instance.graph_count == 0:
            del self._instances[plugin_name]
            return instance
        return None

    def _require(self, plugin_name: str) -> SharedInstance:
        instance = self._instances.get(plugin_name)
        if instance is None:
            raise SharingError(f"no shared instance of {plugin_name!r}")
        return instance
