"""Convenience constructors and a full-stack frame parser.

Traffic generators build frames with ``make_udp_frame``/``make_tcp_frame``;
datapath elements that must inspect L3/L4 (iptables, NAT, the XFRM hook)
use ``parse_frame`` which returns a :class:`ParsedFrame` bundle.

Decoding is *lazy*: a :class:`ParsedFrame` is constructed in O(1) and
each layer is decoded at most once, on first access.  A switch chain
that only matches on L2 fields therefore never pays for the IPv4/L4
decode, while a table with IP or port matches decodes each frame exactly
once no matter how many entries inspect it.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.addresses import MacAddress, ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Packet
from repro.net.transport import TcpSegment, UdpDatagram

__all__ = ["ParsedFrame", "make_tcp_frame", "make_udp_frame", "parse_frame"]

#: Both IPv4 addresses as ints, straight from header bytes 12..19.
_ADDRESS_PAIR = struct.Struct("!II").unpack_from


class ParsedFrame:
    """Lazily decoded view of a frame; deeper layers are None when absent.

    ``eth`` is always present; ``ipv4``/``udp``/``tcp`` decode on first
    access and are cached.  ``ip_ints`` exposes the addresses as 32-bit
    ints for the flow-table fast path (computed once per frame): read
    from the header bytes when ``ipv4`` decodes the frame itself, from
    the address strings when the L3 view was supplied or replaced.
    """

    __slots__ = ("eth", "_ipv4", "_udp", "_tcp",
                 "_l3_done", "_l4_done", "_ip_ints", "_wire_len")

    def __init__(self, eth: EthernetFrame,
                 ipv4: Optional[IPv4Packet] = None,
                 udp: Optional[UdpDatagram] = None,
                 tcp: Optional[TcpSegment] = None) -> None:
        self.eth = eth
        self._ipv4 = ipv4
        self._udp = udp
        self._tcp = tcp
        # Explicitly supplied layers pin the decode (legacy constructor
        # semantics: the bundle holds exactly the layers passed, so an
        # ipv4 without udp/tcp means "no L4 view", not "decode later").
        self._l3_done = ipv4 is not None
        self._l4_done = ipv4 is not None or udp is not None \
            or tcp is not None
        self._ip_ints: Optional[tuple[int, int]] = None
        self._wire_len: Optional[int] = None

    # -- lazy decode -------------------------------------------------------
    @property
    def ipv4(self) -> Optional[IPv4Packet]:
        if not self._l3_done:
            self._l3_done = True
            if self.eth.ethertype == ETHERTYPE_IPV4:
                payload = self.eth.payload
                try:
                    self._ipv4 = IPv4Packet.from_bytes(payload)
                except ValueError:
                    pass
                else:
                    self._ip_ints = _ADDRESS_PAIR(payload, 12)
        return self._ipv4

    @ipv4.setter
    def ipv4(self, value: Optional[IPv4Packet]) -> None:
        """Replace the L3 view (NAT-style rewrite); every derived view —
        address ints and the L4 decode — follows the new header."""
        self._ipv4 = value
        self._l3_done = True
        self._ip_ints = None
        self._udp = None
        self._tcp = None
        self._l4_done = False

    @property
    def udp(self) -> Optional[UdpDatagram]:
        self._decode_l4()
        return self._udp

    @udp.setter
    def udp(self, value: Optional[UdpDatagram]) -> None:
        self._udp = value
        self._l4_done = True

    @property
    def tcp(self) -> Optional[TcpSegment]:
        self._decode_l4()
        return self._tcp

    @tcp.setter
    def tcp(self, value: Optional[TcpSegment]) -> None:
        self._tcp = value
        self._l4_done = True

    def _decode_l4(self) -> None:
        if self._l4_done:
            return
        self._l4_done = True
        packet = self.ipv4
        if packet is None:
            return
        if packet.proto == IPPROTO_UDP:
            try:
                self._udp = UdpDatagram.from_bytes(packet.payload)
            except ValueError:
                pass
        elif packet.proto == IPPROTO_TCP:
            try:
                self._tcp = TcpSegment.from_bytes(packet.payload)
            except ValueError:
                pass

    # -- hot-path views ----------------------------------------------------
    @property
    def ip_ints(self) -> Optional[tuple[int, int]]:
        """(src_int, dst_int) of the IPv4 header, or None; cached.

        The lazy decode fills it from the header bytes; an L3 view
        passed to the constructor or the ``ipv4`` setter has no bytes
        behind it, so its address strings are converted instead.
        """
        ints = self._ip_ints
        if ints is None:
            packet = self.ipv4
            if packet is None:
                return None
            ints = self._ip_ints
            if ints is None:
                ints = (ip_to_int(packet.src), ip_to_int(packet.dst))
                self._ip_ints = ints
        return ints

    @property
    def wire_len(self) -> int:
        """On-wire frame length in bytes; computed once per frame.

        Byte counters (flow entries, switch ports) are written on every
        matched frame, so the length sum behind them is cached here
        rather than re-derived from the header layout each time.
        """
        size = self._wire_len
        if size is None:
            size = self._wire_len = len(self.eth)
        return size

    def derive(self, eth: EthernetFrame) -> "ParsedFrame":
        """A view of ``eth``, reusing every decode of this frame that is
        still valid.

        This is the zero-reparse primitive of the batched pipeline: when
        an action rewrites a frame, the switch derives the new frame's
        parse from the old one instead of starting over.  The L3/L4
        decode (and the cached ``ip_ints``) carries over only when the
        rewrite provably left the payload alone — same payload *object*
        and same ethertype.  Every supported switch action (VLAN
        push/pop, eth/VLAN set-field) rewrites L2 via ``replace`` and
        shares the payload bytes, so chains never re-decode IPv4/L4; a
        rewrite that swapped the payload gets a clean (dirty) parse.
        ``wire_len`` is never carried — tags change the frame length.
        """
        new = ParsedFrame(eth)
        old = self.eth
        if eth.payload is old.payload and eth.ethertype == old.ethertype:
            new._ipv4 = self._ipv4
            new._udp = self._udp
            new._tcp = self._tcp
            new._l3_done = self._l3_done
            new._l4_done = self._l4_done
            new._ip_ints = self._ip_ints
        return new

    @property
    def five_tuple(self) -> Optional[tuple[str, str, int, int, int]]:
        """(src_ip, dst_ip, proto, src_port, dst_port) or None."""
        if self.ipv4 is None:
            return None
        if self.udp is not None:
            return (self.ipv4.src, self.ipv4.dst, self.ipv4.proto,
                    self.udp.src_port, self.udp.dst_port)
        if self.tcp is not None:
            return (self.ipv4.src, self.ipv4.dst, self.ipv4.proto,
                    self.tcp.src_port, self.tcp.dst_port)
        return (self.ipv4.src, self.ipv4.dst, self.ipv4.proto, 0, 0)

    def __repr__(self) -> str:
        layers = ["eth"]
        if self._l3_done and self._ipv4 is not None:
            layers.append("ipv4")
        if self._l4_done and self._udp is not None:
            layers.append("udp")
        if self._l4_done and self._tcp is not None:
            layers.append("tcp")
        return f"<ParsedFrame {'/'.join(layers)} {self.eth!r}>"


def make_udp_frame(src_mac: "MacAddress | str", dst_mac: "MacAddress | str",
                   src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                   payload: bytes, vlan: Optional[int] = None,
                   ttl: int = 64) -> EthernetFrame:
    """Build an Ethernet/IPv4/UDP frame with valid checksums."""
    datagram = UdpDatagram(src_port=src_port, dst_port=dst_port,
                           payload=payload)
    packet = IPv4Packet(src=src_ip, dst=dst_ip, proto=IPPROTO_UDP,
                        payload=datagram.to_bytes(src_ip, dst_ip), ttl=ttl)
    return EthernetFrame(dst=MacAddress(dst_mac), src=MacAddress(src_mac),
                         ethertype=ETHERTYPE_IPV4,
                         payload=packet.to_bytes(), vlan=vlan)


def make_tcp_frame(src_mac: "MacAddress | str", dst_mac: "MacAddress | str",
                   src_ip: str, dst_ip: str, src_port: int, dst_port: int,
                   payload: bytes, seq: int = 0, ack: int = 0,
                   flags: int = 0x18, vlan: Optional[int] = None,
                   ttl: int = 64) -> EthernetFrame:
    """Build an Ethernet/IPv4/TCP frame (default flags PSH|ACK)."""
    segment = TcpSegment(src_port=src_port, dst_port=dst_port, seq=seq,
                         ack=ack, flags=flags, payload=payload)
    packet = IPv4Packet(src=src_ip, dst=dst_ip, proto=IPPROTO_TCP,
                        payload=segment.to_bytes(src_ip, dst_ip), ttl=ttl)
    return EthernetFrame(dst=MacAddress(dst_mac), src=MacAddress(src_mac),
                         ethertype=ETHERTYPE_IPV4,
                         payload=packet.to_bytes(), vlan=vlan)


def parse_frame(frame: "EthernetFrame | bytes") -> ParsedFrame:
    """Decode Ethernet eagerly; IPv4 and UDP/TCP decode lazily on access.

    Never raises on unknown upper layers: a frame that is not IPv4, or an
    IPv4 packet carrying an unhandled protocol, simply yields a
    :class:`ParsedFrame` with the deeper fields left as None.
    """
    eth = (frame if isinstance(frame, EthernetFrame)
           else EthernetFrame.from_bytes(frame))
    return ParsedFrame(eth=eth)
