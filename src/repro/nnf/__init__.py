"""Native Network Function framework — the paper's contribution.

A *Native Network Function* is a software component the CPE operating
system already ships (iptables, linuxbridge, strongSwan, dnsmasq, ...),
exposed to the NFV orchestrator as if it were a VNF:

* :mod:`repro.nnf.plugin` — the plugin API: each NNF is driven by a
  "collection of scripts" controlling its lifecycle (create /
  configure / start / stop / destroy), as in the paper's
  implementation; updates and detaches are derived from the commands
  that ran;
* :mod:`repro.nnf.registry` — which plugins are usable on a node
  (component installed?  sharable?  busy?);
* :mod:`repro.nnf.sharing` — the sharability machinery: one kernel
  component serving several service graphs, distinguished by marks,
  with isolated per-graph internal paths;
* :mod:`repro.nnf.adaptation` — the adaptation layer that feeds
  single-interface NNFs the traffic of many graphs over one switch
  port using VLAN marking;
* :mod:`repro.nnf.plugins` — bundled plugins: iptables NAT, iptables
  firewall, linuxbridge, strongSwan, dnsmasq, static router.

The NF config keys the bundled plugins read (all values strings, as
they arrive via JSON):

=======================  =====================================================
key                      meaning
=======================  =====================================================
``lan.address``          CIDR address of the LAN-side port
``wan.address``          CIDR address of the WAN-side port
``gateway``              default gateway IP
``firewall.allow``       comma list of ``proto:port`` to accept (else drop)
``firewall.deny``        comma list of ``proto:port`` to drop (else accept)
``route.<n>``            ``<cidr> via <gw>`` or ``<cidr> dev <port>``
``ipsec.peer``           outer address of the remote IPsec endpoint
``ipsec.local``          outer address of this endpoint
``ipsec.local_subnet``   protected subnet behind this endpoint
``ipsec.remote_subnet``  protected subnet behind the peer
``ipsec.psk``            pre-shared key (hex or text)
``dhcp.range``           ``first,last`` pool addresses
``dns.static``           comma list of ``name=ip`` answers
=======================  =====================================================
"""

from repro.nnf.adaptation import AdaptationLayer
from repro.nnf.plugin import NnfPlugin, PluginContext, PluginError
from repro.nnf.registry import NnfRegistry
from repro.nnf.sharing import SharedNnfManager, SharingError

__all__ = [
    "AdaptationLayer",
    "NnfPlugin",
    "NnfRegistry",
    "PluginContext",
    "PluginError",
    "SharedNnfManager",
    "SharingError",
]
