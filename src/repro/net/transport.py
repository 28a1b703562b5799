"""UDP and (simplified) TCP segment codecs.

TCP here carries the fields needed for connection tracking (iptables
NAT) and throughput accounting, with real header packing but no
retransmission machinery — virtual links inside one node are loss-free,
as in the paper's testbed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addresses import ip_to_int
from repro.net.checksum import internet_checksum

__all__ = ["TcpSegment", "UdpDatagram", "pseudo_header"]

UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20

_UDP_HEADER = struct.Struct("!HHHH")
_TCP_HEADER = struct.Struct("!HHIIHHHH")

# TCP flag bits
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


def pseudo_header(src: str, dst: str, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used by the UDP/TCP checksums."""
    return struct.pack("!4s4sBBH",
                       ip_to_int(src).to_bytes(4, "big"),
                       ip_to_int(dst).to_bytes(4, "big"),
                       0, proto, length)


def _check_port(port: int, what: str) -> None:
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"{what} port out of range: {port}")


@dataclass
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        _check_port(self.src_port, "source")
        _check_port(self.dst_port, "destination")

    @property
    def length(self) -> int:
        return UDP_HEADER_LEN + len(self.payload)

    def to_bytes(self, src_ip: str = "0.0.0.0",
                 dst_ip: str = "0.0.0.0") -> bytes:
        header = struct.pack("!HHHH", self.src_port, self.dst_port,
                             self.length, 0)
        checksum = internet_checksum(
            pseudo_header(src_ip, dst_ip, 17, self.length)
            + header + self.payload)
        if checksum == 0:  # RFC 768: transmitted as all ones
            checksum = 0xFFFF
        return header[:6] + struct.pack("!H", checksum) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpDatagram":
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("UDP datagram too short")
        src_port, dst_port, length, _checksum = _UDP_HEADER.unpack_from(
            data, 0)
        if length < UDP_HEADER_LEN or length > len(data):
            raise ValueError("bad UDP length field")
        # 16-bit wire ports are valid by construction: build the object
        # structurally, as ``IPv4Packet.from_bytes`` does, and skip the
        # range checks of ``__post_init__``.
        datagram = cls.__new__(cls)
        datagram.__dict__ = {"src_port": src_port, "dst_port": dst_port,
                             "payload": data[UDP_HEADER_LEN:length]}
        return datagram


@dataclass
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes
    window: int = 65535

    def __post_init__(self) -> None:
        _check_port(self.src_port, "source")
        _check_port(self.dst_port, "destination")
        if not 0 <= self.seq < 1 << 32 or not 0 <= self.ack < 1 << 32:
            raise ValueError("TCP sequence numbers are 32-bit")

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCP_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCP_RST)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & TCP_ACK)

    @property
    def length(self) -> int:
        return TCP_HEADER_LEN + len(self.payload)

    def to_bytes(self, src_ip: str = "0.0.0.0",
                 dst_ip: str = "0.0.0.0") -> bytes:
        offset_flags = (5 << 12) | (self.flags & 0x3F)
        header = struct.pack("!HHIIHHHH", self.src_port, self.dst_port,
                             self.seq, self.ack, offset_flags,
                             self.window, 0, 0)
        checksum = internet_checksum(
            pseudo_header(src_ip, dst_ip, 6, self.length)
            + header + self.payload)
        header = header[:16] + struct.pack("!H", checksum) + header[18:]
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpSegment":
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("TCP segment too short")
        (src_port, dst_port, seq, ack, offset_flags, window,
         _checksum, _urgent) = _TCP_HEADER.unpack_from(data, 0)
        data_offset = (offset_flags >> 12) * 4
        if data_offset < TCP_HEADER_LEN or data_offset > len(data):
            raise ValueError("bad TCP data offset")
        # 16-bit ports, 32-bit seq/ack and masked flags are valid by
        # construction: built structurally, as in ``UdpDatagram``.
        segment = cls.__new__(cls)
        segment.__dict__ = {"src_port": src_port, "dst_port": dst_port,
                            "seq": seq, "ack": ack,
                            "flags": offset_flags & 0x3F,
                            "payload": data[data_offset:],
                            "window": window}
        return segment
