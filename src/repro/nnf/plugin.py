"""NNF plugin API.

Each plugin mirrors the paper's implementation: "a collection of bash
scripts that control the basic lifecycle (create, update, etc.) of the
NF".  A script here is a list of command strings executed by
:class:`~repro.linuxnet.cmdline.ScriptRunner` against the simulated
host, so plugin behaviour is observable Linux state (namespaces,
iptables rules, xfrm entries), not Python side effects.

Plugins write configure scripts, and sharable plugins an ``add_path``
script building one *internal path* per service graph, keyed on the
graph's mark (paper §2, requirement (ii)).  They write no script to
update or remove either: the driver records each command as it
succeeds, an update is the diff between that record and the newly
rendered script, and a detach runs
:func:`~repro.linuxnet.cmdline.inverse_script` of the record (none at
all on the last graph's detach).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.linuxnet.host import LinuxHost

__all__ = ["NnfPlugin", "PluginContext", "PluginError"]


class PluginError(Exception):
    """Plugin misuse (missing config, unsupported operation)."""


@dataclass
class PluginContext:
    """Everything a plugin script template needs.

    ``ports`` maps each logical port name of the NF template to the
    device name inside the NNF's namespace.  For shared instances,
    ``mark`` is the graph's mark and port devices are the per-graph
    VLAN subinterfaces created by the adaptation layer.
    """

    instance_id: str
    netns: str
    ports: dict[str, str] = field(default_factory=dict)
    config: dict[str, str] = field(default_factory=dict)
    mark: Optional[int] = None

    def port(self, name: str) -> str:
        try:
            return self.ports[name]
        except KeyError:
            raise PluginError(
                f"{self.instance_id}: no device for logical port "
                f"{name!r} (have {sorted(self.ports)})") from None

    def require_config(self, key: str) -> str:
        try:
            return self.config[key]
        except KeyError:
            raise PluginError(
                f"{self.instance_id}: missing required config key "
                f"{key!r}") from None


class NnfPlugin:
    """Base plugin.  Subclasses override the ``*_script`` methods.

    Class attributes describe the NNF's constraints, which the
    resolver/orchestrator consult (paper §2):

    * ``sharable`` — can serve several graphs through one component
      instance (requires the marking + internal-path machinery);
    * ``multi_instance`` — can be started several times concurrently
      (one namespace each).  A plugin that is neither sharable nor
      multi-instance is exclusive: first graph wins;
    * ``single_interface`` — receives traffic on one interface only,
      so the adaptation layer must multiplex graphs onto it.

    A configure or add-path command that depends on the config needs
    an ``inverse_script`` row: the driver undoes it on an update.
    """

    name: str = "abstract"
    functional_type: str = ""
    sharable: bool = False
    multi_instance: bool = True
    single_interface: bool = False
    #: host package that must be installed for the plugin to be usable
    package: str = ""

    # -- lifecycle scripts ------------------------------------------------------
    def create_script(self, ctx: PluginContext) -> list[str]:
        """Bring the component into existence (netns is pre-created)."""
        return []

    def configure_script(self, ctx: PluginContext) -> list[str]:
        """Apply the predefined configuration (paper: configuration
        script applied by the NNF driver after start)."""
        return []

    def start_script(self, ctx: PluginContext) -> list[str]:
        return []

    def stop_script(self, ctx: PluginContext) -> list[str]:
        return []

    def destroy_script(self, ctx: PluginContext) -> list[str]:
        return []

    # -- sharable-NNF paths -------------------------------------------------------
    def add_path_script(self, ctx: PluginContext) -> list[str]:
        """Create the isolated internal path for one graph (ctx.mark);
        each command needs an ``inverse_script`` row."""
        if not self.sharable:
            raise PluginError(f"plugin {self.name} is not sharable")
        return []

    # -- daemon hook ---------------------------------------------------------------
    def post_start(self, ctx: PluginContext, host: "LinuxHost") -> None:
        """Launch daemon behaviour that scripts cannot express (e.g.
        binding a UDP socket).  Stands in for the component's long-
        running process."""

    def post_stop(self, ctx: PluginContext, host: "LinuxHost") -> None:
        """Undo :meth:`post_start`."""

    def __repr__(self) -> str:
        flags = []
        if self.sharable:
            flags.append("sharable")
        if self.single_interface:
            flags.append("single-if")
        if not self.multi_instance:
            flags.append("exclusive")
        return f"<NnfPlugin {self.name} [{' '.join(flags) or 'plain'}]>"
