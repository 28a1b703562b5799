"""strongSwan IPsec endpoint plugin — the NNF of the paper's Table 1.

The daemon's role is key negotiation; per-packet ESP happens on the
kernel XFRM path ("The Strongswan implementation leverages kernel
processing to handle packets faster", paper §3).  The plugin therefore
emits ``ip xfrm state/policy`` commands with key material derived from
the configured PSK — both tunnel endpoints configured with the same PSK
derive matching SAs.  This stands in for the IKE exchange: the
repository has no key-exchange daemon, so SA keys come from the PSK
alone and a deploy needs no negotiation round trip.

Not sharable and not multi-instance: strongSwan keeps global kernel SA
state and a single charon control socket, so a second graph cannot get
an isolated instance of it — the canonical "exclusive NNF" the paper's
status-based placement rule exists for.
"""

from __future__ import annotations

import hashlib

from repro.ipsec.crypto import derive_keys
from repro.nnf.plugin import NnfPlugin, PluginContext
from repro.nnf.plugins._routes import dedicated_address_commands

__all__ = ["StrongswanPlugin", "tunnel_sa_parameters"]


def _spi_for(src: str, dst: str) -> int:
    """Deterministic SPI for the src->dst direction (both sides agree)."""
    digest = hashlib.sha256(f"{src}->{dst}".encode()).digest()
    return 0x1000 + (int.from_bytes(digest[:4], "big") % 0x0FFF0000)


def tunnel_sa_parameters(local: str, peer: str,
                         psk: str) -> dict[str, dict[str, str]]:
    """SA parameters for both directions of a tunnel.

    Returns ``{"out": {...}, "in": {...}}`` with spi/enc/auth hex
    strings, as both endpoints derive them from the shared PSK.
    """
    result = {}
    for direction, (src, dst) in (("out", (local, peer)),
                                  ("in", (peer, local))):
        spi = _spi_for(src, dst)
        enc, auth = derive_keys(psk.encode(), src.encode(), dst.encode(),
                                spi)
        result[direction] = {"src": src, "dst": dst, "spi": spi,
                             "enc": enc.hex(), "auth": auth.hex()}
    return result


class StrongswanPlugin(NnfPlugin):
    name = "strongswan"
    functional_type = "ipsec-endpoint"
    sharable = False
    multi_instance = False
    single_interface = False
    package = "strongswan"

    REQUIRED = ("ipsec.local", "ipsec.peer", "ipsec.local_subnet",
                "ipsec.remote_subnet", "ipsec.psk")

    def create_script(self, ctx: PluginContext) -> list[str]:
        return [
            f"ip netns exec {ctx.netns} sysctl -w net.ipv4.ip_forward=1",
        ]

    def configure_script(self, ctx: PluginContext) -> list[str]:
        for key in self.REQUIRED:
            ctx.require_config(key)
        commands = dedicated_address_commands(ctx)
        # Route protected remote traffic towards the tunnel device.
        commands.append(
            f"ip netns exec {ctx.netns} ip route add "
            f"{ctx.config['ipsec.remote_subnet']} dev {ctx.port('wan')}")
        return commands

    def start_script(self, ctx: PluginContext) -> list[str]:
        """Install kernel SAs + policies (what charon does after IKE)."""
        lan, wan = ctx.port("lan"), ctx.port("wan")
        local = ctx.config["ipsec.local"]
        peer = ctx.config["ipsec.peer"]
        local_subnet = ctx.config["ipsec.local_subnet"]
        remote_subnet = ctx.config["ipsec.remote_subnet"]
        params = tunnel_sa_parameters(local, peer, ctx.config["ipsec.psk"])
        out, inc = params["out"], params["in"]
        prefix = f"ip netns exec {ctx.netns}"
        return [
            f"{prefix} ip link set {lan} up",
            f"{prefix} ip link set {wan} up",
            f"{prefix} ip xfrm state add src {out['src']} dst {out['dst']} "
            f"proto esp spi {out['spi']} enc {out['enc']} "
            f"auth {out['auth']}",
            f"{prefix} ip xfrm state add src {inc['src']} dst {inc['dst']} "
            f"proto esp spi {inc['spi']} enc {inc['enc']} "
            f"auth {inc['auth']}",
            f"{prefix} ip xfrm policy add src {local_subnet} "
            f"dst {remote_subnet} dir out tmpl src {local} dst {peer}",
            f"{prefix} ip xfrm policy add src {remote_subnet} "
            f"dst {local_subnet} dir in tmpl src {peer} dst {local}",
        ]

    def stop_script(self, ctx: PluginContext) -> list[str]:
        """Withdraw the kernel SAs and policies :meth:`start_script`
        installed, so a restart installs them afresh."""
        return [f"ip netns exec {ctx.netns} ip xfrm state flush",
                f"ip netns exec {ctx.netns} ip xfrm policy flush"]

    def destroy_script(self, ctx: PluginContext) -> list[str]:
        return self.stop_script(ctx)
