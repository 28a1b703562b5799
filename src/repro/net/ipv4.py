"""IPv4 header codec (RFC 791, no options beyond raw pass-through)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from socket import inet_ntoa

from repro.net.addresses import ip_to_int
from repro.net.checksum import internet_checksum

__all__ = [
    "IPPROTO_ICMP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "IPPROTO_ESP",
    "IPV4_HEADER_LEN",
    "IPv4Packet",
]

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ESP = 50

IPV4_HEADER_LEN = 20

_HEADER = struct.Struct("!BBHHHBBH4s4s")


@dataclass
class IPv4Packet:
    """An IPv4 packet; addresses are dotted-quad strings."""

    src: str
    dst: str
    proto: int
    payload: bytes
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    flags: int = 0b010  # DF set, as Linux does for locally generated traffic

    def __post_init__(self) -> None:
        # Validate addresses eagerly so malformed packets fail loudly at
        # the point of construction rather than deep inside a datapath.
        ip_to_int(self.src)
        ip_to_int(self.dst)
        if not 0 <= self.proto <= 255:
            raise ValueError(f"protocol out of range: {self.proto}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"TTL out of range: {self.ttl}")

    @property
    def total_length(self) -> int:
        return IPV4_HEADER_LEN + len(self.payload)

    def decrement_ttl(self) -> "IPv4Packet":
        """Return a copy with TTL-1; raises when TTL would hit zero."""
        if self.ttl <= 1:
            raise ValueError("TTL expired")
        return replace(self, ttl=self.ttl - 1)

    def to_bytes(self) -> bytes:
        version_ihl = (4 << 4) | 5
        header = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            self.flags << 13,
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            ip_to_int(self.src).to_bytes(4, "big"),
            ip_to_int(self.dst).to_bytes(4, "big"),
        )
        checksum = internet_checksum(header)
        header = header[:10] + struct.pack("!H", checksum) + header[12:]
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, verify_checksum: bool = True) -> "IPv4Packet":
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError(f"IPv4 packet too short: {len(data)} bytes")
        (version_ihl, tos, total_length, identification, flags_frag,
         ttl, proto, _checksum, src_raw, dst_raw) = _HEADER.unpack_from(
            data, 0)
        version = version_ihl >> 4
        ihl = (version_ihl & 0x0F) * 4
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        if ihl < IPV4_HEADER_LEN or len(data) < ihl:
            raise ValueError("bad IPv4 header length")
        if total_length > len(data):
            raise ValueError("IPv4 total length exceeds buffer")
        if verify_checksum and internet_checksum(data[:ihl]) != 0:
            raise ValueError("IPv4 header checksum mismatch")
        # Every field is valid by construction — a 4-byte address is a
        # dotted quad, proto and TTL are one byte each — so the object
        # is built structurally (``__new__`` + one ``__dict__``) instead
        # of through ``__post_init__``, whose re-parse of both address
        # strings and range checks could never fail here.
        packet = cls.__new__(cls)
        packet.__dict__ = {
            "src": inet_ntoa(src_raw),
            "dst": inet_ntoa(dst_raw),
            "proto": proto,
            "payload": data[ihl:total_length],
            "ttl": ttl,
            "identification": identification,
            "dscp": tos >> 2,
            "flags": flags_frag >> 13,
        }
        return packet

    def __repr__(self) -> str:
        return (f"<IPv4 {self.src}->{self.dst} proto={self.proto} "
                f"ttl={self.ttl} len={self.total_length}>")
