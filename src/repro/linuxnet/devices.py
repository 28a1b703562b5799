"""Network devices: generic netdevs, veth pairs, loopback.

A :class:`NetDevice` delivers received frames either to the namespace
stack it is enslaved to, to a bridge, or to an externally registered
handler (that is how switch datapath ports and NF processes tap in).
Transmission goes to the connected peer (veth) or the attached link.

Ingress and egress are *batch-aware*: :meth:`NetDevice.transmit_batch`
moves a whole list of frames to the peer in one :meth:`receive_batch`
call, and a handler registered with a ``batch_handler`` companion
(switch datapath ports do this) receives the entire batch in one call —
real device traffic therefore lands on the switch's batched pipeline
(:meth:`~repro.switch.datapath.Datapath.process_batch_from`) instead of
the per-frame path.  Namespace stacks and bridges are batch sinks too
(:meth:`NetworkNamespace._stack_input_batch`,
:meth:`Bridge._bridge_input_batch`), so NF-bound egress amortizes the
same way switch-bound ingress does; only VLAN demux still degrades to
the per-frame :meth:`receive` loop, with identical observable
behavior.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from repro.net.addresses import MacAddress
from repro.net.ethernet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.linuxnet.namespace import NetworkNamespace

__all__ = ["Loopback", "NetDevice", "VethPair"]

FrameHandler = Callable[["NetDevice", EthernetFrame], None]
BatchFrameHandler = Callable[["NetDevice", Sequence[EthernetFrame]], None]

_mac_counter = itertools.count(1)


class NetDevice:
    """A network interface.

    Exactly one of three sinks consumes frames arriving at the device:

    1. an attached handler (``attach_handler``) — switch ports, taps;
    2. a bridge the device is enslaved to (set by ``Bridge.add_port``);
    3. the namespace IP stack, when the device is inside a namespace and
       is ``up``.

    Counters mirror ``/sys/class/net/<dev>/statistics``.
    """

    def __init__(self, name: str, mac: Optional[MacAddress] = None,
                 mtu: int = 1500) -> None:
        if not name or "/" in name:
            raise ValueError(f"bad device name: {name!r}")
        if mtu < 68:  # RFC 791 minimum
            raise ValueError(f"MTU below IPv4 minimum: {mtu}")
        self.name = name
        self.mac = mac if mac is not None else MacAddress.from_index(
            next(_mac_counter))
        self.mtu = mtu
        self.up = False
        self.namespace: Optional["NetworkNamespace"] = None
        self.addresses: list[tuple[str, int]] = []  # (ip, prefix_len)
        self.peer: Optional["NetDevice"] = None
        self.bridge = None  # set by repro.linuxnet.bridge.Bridge
        self.vlan_subdevices: dict[int, "VlanDevice"] = {}
        self._handler: Optional[FrameHandler] = None
        self._batch_handler: Optional[BatchFrameHandler] = None
        # statistics
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0

    # -- configuration -----------------------------------------------------
    def add_address(self, ip: str, prefix_len: int) -> None:
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length: {prefix_len}")
        entry = (ip, prefix_len)
        if entry in self.addresses:
            raise ValueError(f"address {ip}/{prefix_len} already on {self.name}")
        self.addresses.append(entry)
        if self.namespace is not None:
            self.namespace._on_address_added(self, ip, prefix_len)

    def remove_address(self, ip: str, prefix_len: int) -> None:
        if (ip, prefix_len) not in self.addresses:
            raise KeyError(f"address {ip}/{prefix_len} not on {self.name}")
        self.addresses.remove((ip, prefix_len))
        if self.namespace is not None:
            self.namespace._on_address_removed(self, ip, prefix_len)

    def set_up(self) -> None:
        self.up = True

    def set_down(self) -> None:
        self.up = False

    def attach_handler(self, handler: FrameHandler,
                       batch_handler: Optional[BatchFrameHandler] = None
                       ) -> None:
        """Divert received frames to ``handler`` (e.g. a switch port).

        ``batch_handler``, when given, receives whole frame batches
        arriving through :meth:`receive_batch` in one call instead of a
        per-frame loop — the hook through which real device ingress
        reaches the switch's batched pipeline.
        """
        if self._handler is not None:
            raise ValueError(f"device {self.name} already has a handler")
        self._handler = handler
        self._batch_handler = batch_handler

    def detach_handler(self) -> None:
        self._handler = None
        self._batch_handler = None

    # -- dataplane -----------------------------------------------------------
    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame out of this device."""
        if not self.up:
            self.tx_dropped += 1
            return
        if len(frame) > self.mtu + 18:  # L2 headers don't count against MTU
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        if self.peer is not None:
            self.peer.receive(frame)

    def transmit_batch(self, frames: Sequence[EthernetFrame]) -> None:
        """Send a batch out of this device in one peer delivery.

        Per-frame admission (up state, MTU) matches :meth:`transmit`
        exactly — oversized frames are dropped from the batch, the rest
        reach the peer together through :meth:`receive_batch`.
        """
        if not self.up:
            self.tx_dropped += len(frames)
            return
        limit = self.mtu + 18  # L2 headers don't count against MTU
        passed = []
        nbytes = 0
        for frame in frames:
            size = len(frame)
            if size > limit:
                self.tx_dropped += 1
                continue
            passed.append(frame)
            nbytes += size
        if not passed:
            return
        self.tx_packets += len(passed)
        self.tx_bytes += nbytes
        if self.peer is not None:
            self.peer.receive_batch(passed)

    def receive(self, frame: EthernetFrame) -> None:
        """A frame arrived at this device from the outside."""
        if not self.up:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        self.rx_bytes += len(frame)
        if (frame.vlan is not None and frame.vlan in self.vlan_subdevices
                and self._handler is None and self.bridge is None):
            sub = self.vlan_subdevices[frame.vlan]
            sub.receive(frame.without_vlan())
            return
        if self._handler is not None:
            self._handler(self, frame)
        elif self.bridge is not None:
            self.bridge._bridge_input(self, frame)
        elif self.namespace is not None:
            self.namespace._stack_input(self, frame)
        else:
            self.rx_dropped += 1
            self.rx_packets -= 1
            self.rx_bytes -= len(frame)

    def receive_batch(self, frames: Sequence[EthernetFrame]) -> None:
        """A whole batch arrived at this device from the outside.

        Every sink is batch-aware: a batch handler (switch ports) gets
        the full batch in one call — this is how real ingress traffic
        reaches
        :meth:`~repro.switch.datapath.Datapath.process_batch_from` — a
        bridge-enslaved device hands it to
        :meth:`~repro.linuxnet.bridge.Bridge._bridge_input_batch`, and
        a namespace device to
        :meth:`~repro.linuxnet.namespace.NetworkNamespace._stack_input_batch`;
        in each case counters are written once per batch.  Only VLAN
        demux (subinterface-carrying devices with no handler/bridge)
        still degrades to the per-frame :meth:`receive` loop.
        """
        if not self.up:
            self.rx_dropped += len(frames)
            return
        handler = self._batch_handler
        if handler is not None:
            self.rx_packets += len(frames)
            self.rx_bytes += sum(len(frame) for frame in frames)
            handler(self, frames)
            return
        if self._handler is None and not self.vlan_subdevices:
            if self.bridge is not None:
                self.rx_packets += len(frames)
                self.rx_bytes += sum(len(frame) for frame in frames)
                self.bridge._bridge_input_batch(self, frames)
                return
            if self.namespace is not None:
                self.rx_packets += len(frames)
                self.rx_bytes += sum(len(frame) for frame in frames)
                self.namespace._stack_input_batch(self, frames)
                return
        for frame in frames:
            self.receive(frame)

    def owns_address(self, ip: str) -> bool:
        return any(addr == ip for addr, _plen in self.addresses)

    def __repr__(self) -> str:
        where = self.namespace.name if self.namespace else "detached"
        state = "up" if self.up else "down"
        return f"<NetDevice {self.name} ({where}, {state}, {self.mac})>"


class VethPair:
    """A virtual Ethernet cable: two cross-connected devices.

    The NNF driver uses veth pairs to attach a namespace-confined NNF to
    a switch port, exactly as the real un-orchestrator does.
    """

    def __init__(self, name_a: str, name_b: str, mtu: int = 1500) -> None:
        if name_a == name_b:
            raise ValueError("veth endpoints must have distinct names")
        self.a = NetDevice(name_a, mtu=mtu)
        self.b = NetDevice(name_b, mtu=mtu)
        self.a.peer = self.b
        self.b.peer = self.a

    def __iter__(self):
        return iter((self.a, self.b))


class VlanDevice(NetDevice):
    """802.1Q subinterface (``eth0.101``-style).

    Frames transmitted through it are tagged with ``vid`` and sent via
    the parent; tagged frames arriving at the parent are demuxed to the
    matching subinterface by the namespace stack (tag stripped).  This
    is how a single-interface NNF tells service graphs apart — the
    paper's adaptation layer "configures it to receive the traffic from
    multiple service graphs, appropriately marked".
    """

    def __init__(self, parent: "NetDevice", vid: int,
                 name: Optional[str] = None) -> None:
        if not 0 <= vid <= 4095:
            raise ValueError(f"bad VLAN id {vid}")
        super().__init__(name or f"{parent.name}.{vid}", mac=parent.mac,
                         mtu=parent.mtu)
        self.parent = parent
        self.vid = vid
        parent.vlan_subdevices[vid] = self

    def transmit(self, frame: EthernetFrame) -> None:
        if not self.up:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        self.parent.transmit(frame.with_vlan(self.vid))

    def transmit_batch(self, frames: Sequence[EthernetFrame]) -> None:
        if not self.up:
            self.tx_dropped += len(frames)
            return
        self.tx_packets += len(frames)
        self.tx_bytes += sum(len(frame) for frame in frames)
        self.parent.transmit_batch(
            [frame.with_vlan(self.vid) for frame in frames])


class Loopback(NetDevice):
    """``lo`` — transmits straight back into the local stack."""

    def __init__(self) -> None:
        super().__init__("lo", mac=MacAddress("00:00:00:00:00:00"),
                         mtu=65536)

    def transmit(self, frame: EthernetFrame) -> None:
        if not self.up:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        self.receive(frame)

    def transmit_batch(self, frames: Sequence[EthernetFrame]) -> None:
        if not self.up:
            self.tx_dropped += len(frames)
            return
        self.tx_packets += len(frames)
        self.tx_bytes += sum(len(frame) for frame in frames)
        self.receive_batch(frames)
