"""RFC 1071 internet checksum."""

from __future__ import annotations

__all__ = ["internet_checksum"]


def internet_checksum(data: bytes) -> int:
    """One's-complement sum over 16-bit words, odd tail zero-padded.

    Read the padded buffer as one big-endian integer ``n``: it is the
    sum of ``word_i * 2**(16*k_i)``, and ``2**16 ≡ 1 (mod 0xFFFF)``, so
    ``n % 0xFFFF`` is the end-around-carry sum of its words, computed in
    C in one pass.  The one's-complement sum of words that are not all
    zero is never 0, so a non-zero multiple of 0xFFFF sums to 0xFFFF.
    """
    if len(data) % 2:
        data += b"\x00"
    n = int.from_bytes(data, "big")
    total = n % 0xFFFF
    if total == 0 and n:
        total = 0xFFFF
    return ~total & 0xFFFF
