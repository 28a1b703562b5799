"""MAC and IPv4 address helpers.

IPv4 addresses are carried as dotted-quad strings at API boundaries and
as 32-bit ints inside hot paths (route lookup, NAT rewriting); the two
helpers below convert between the forms.
"""

from __future__ import annotations

import re
from socket import inet_aton, inet_ntoa

__all__ = ["MacAddress", "compile_cidr", "int_to_ip", "ip_to_int",
           "parse_cidr"]

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


class MacAddress:
    """48-bit MAC address, hashable, canonical lower-case colon form."""

    __slots__ = ("_value",)

    def __init__(self, address: "str | int | bytes | MacAddress") -> None:
        if isinstance(address, MacAddress):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address < 1 << 48:
                raise ValueError(f"MAC integer out of range: {address:#x}")
            self._value = address
        elif isinstance(address, bytes):
            if len(address) != 6:
                raise ValueError(f"MAC bytes must be 6 long, got {len(address)}")
            self._value = int.from_bytes(address, "big")
        elif isinstance(address, str):
            if not _MAC_RE.match(address):
                raise ValueError(f"malformed MAC address: {address!r}")
            self._value = int(address.replace(":", ""), 16)
        else:
            raise TypeError(f"cannot build MacAddress from {type(address)}")

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered MAC for interface ``index``."""
        if not 0 <= index < 1 << 40:
            raise ValueError("interface index out of MAC range")
        return cls((0x02 << 40) | index)

    @property
    def packed(self) -> bytes:
        return self._value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 0x01)

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        if isinstance(other, str):
            try:
                return self._value == MacAddress(other)._value
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i:i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")


def ip_to_int(address: str) -> int:
    """Dotted-quad string -> 32-bit int; raises ValueError on bad input.

    Canonical form only: four ASCII decimal octets 0-255, no leading
    zeros, nothing around them.  ``inet_aton`` parses in C but also
    accepts ``"1.2"``, ``"0x7f.1"``, ``"010.0.0.1"`` and trailing junk
    after a space, so the parse only counts when ``inet_ntoa`` gives the
    same string back.
    """
    try:
        packed = inet_aton(address)
    except (OSError, ValueError):  # ValueError: NUL or unencodable text
        raise ValueError(f"malformed IPv4 address: {address!r}") from None
    if inet_ntoa(packed) != address:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    return int.from_bytes(packed, "big")


def int_to_ip(value: int) -> str:
    """32-bit int -> dotted-quad string."""
    if not 0 <= value < 1 << 32:
        raise ValueError(f"IPv4 integer out of range: {value:#x}")
    return inet_ntoa(value.to_bytes(4, "big"))


def parse_cidr(cidr: str) -> tuple[int, int]:
    """Parse ``a.b.c.d/len`` into ``(network_int, prefix_len)``.

    The host bits are masked off, so ``10.0.0.7/24`` yields the network
    ``10.0.0.0``.
    """
    if "/" not in cidr:
        raise ValueError(f"CIDR must contain '/': {cidr!r}")
    addr, _, plen_text = cidr.partition("/")
    if not (plen_text.isascii() and plen_text.isdigit()):
        raise ValueError(f"malformed prefix length in {cidr!r}")
    plen = int(plen_text)
    if not 0 <= plen <= 32:
        raise ValueError(f"prefix length out of range in {cidr!r}")
    mask = 0 if plen == 0 else (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    return ip_to_int(addr) & mask, plen


def compile_cidr(cidr: str) -> tuple[int, int]:
    """Precompile a CIDR (bare addresses mean /32) for hot-path tests.

    Returns ``(network >> shift, shift)`` with ``shift = 32 - plen``, so
    a membership test is two integer ops and no string parsing:
    ``ip_int >> shift == network_shifted``.  For ``/0`` both sides are 0
    and every address matches.
    """
    network, plen = parse_cidr(cidr if "/" in cidr else cidr + "/32")
    shift = 32 - plen
    return network >> shift, shift
