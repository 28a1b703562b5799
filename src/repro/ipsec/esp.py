"""ESP tunnel-mode encapsulation/decapsulation (RFC 4303 layout).

Wire format produced::

    outer IPv4 (proto 50)
      SPI (4) | sequence (4) | IV (8)
      ciphertext( inner IPv4 packet || padding || pad_len (1) || next_header (1) )
      ICV (12) — truncated HMAC-SHA256 over SPI..ciphertext

Padding aligns the encrypted block to 4 bytes as the RFC requires
(cipher-block alignment is moot for a stream cipher, so the minimum
alignment applies).
"""

from __future__ import annotations

import hmac
import struct

from repro.ipsec.crypto import KeystreamCipher, hmac_sha256
from repro.ipsec.sa import SecurityAssociation
from repro.net.ipv4 import IPPROTO_ESP, IPv4Packet

__all__ = ["ESP_OVERHEAD_MIN", "EspError", "esp_decapsulate",
           "esp_encapsulate", "esp_overhead"]

_ESP_HEADER = struct.Struct("!II")  # SPI, sequence
_IV_LEN = 8
_ICV_LEN = 12
_NEXT_HEADER_IPV4 = 4  # IP-in-IP

#: Fixed bytes added before padding: outer IP + ESP hdr + IV + trailer + ICV.
ESP_OVERHEAD_MIN = 20 + _ESP_HEADER.size + _IV_LEN + 2 + _ICV_LEN


class EspError(Exception):
    """Authentication, format or replay failure during ESP processing."""


def esp_overhead(inner_length: int) -> int:
    """Exact byte overhead tunnel-mode ESP adds to an inner packet."""
    pad_len = (-(inner_length + 2)) % 4
    return ESP_OVERHEAD_MIN + pad_len


def _iv_for(sa: SecurityAssociation, seq: int) -> bytes:
    # Deterministic per-packet IV derived from the sequence number; fine
    # for a keystream keyed per-SA since (key, iv) pairs never repeat.
    return struct.pack("!II", sa.spi, seq)


def esp_encapsulate(sa: SecurityAssociation,
                    inner: IPv4Packet) -> IPv4Packet:
    """Wrap ``inner`` in an ESP tunnel to ``sa.dst``."""
    seq = sa.next_seq()
    plain = inner.to_bytes()
    pad_len = (-(len(plain) + 2)) % 4
    padding = bytes(range(1, pad_len + 1))  # RFC 4303 default pad bytes
    trailer = struct.pack("!BB", pad_len, _NEXT_HEADER_IPV4)
    iv = _iv_for(sa, seq)
    cipher = KeystreamCipher(sa.enc_key)
    ciphertext = cipher.encrypt(iv, plain + padding + trailer)
    body = _ESP_HEADER.pack(sa.spi, seq) + iv + ciphertext
    icv = hmac_sha256(sa.auth_key, body)[:_ICV_LEN]
    sa.packets_out += 1
    sa.bytes_out += len(plain)
    return IPv4Packet(src=sa.src, dst=sa.dst, proto=IPPROTO_ESP,
                      payload=body + icv)


def esp_decapsulate(sa: SecurityAssociation,
                    outer: IPv4Packet) -> IPv4Packet:
    """Authenticate, replay-check and unwrap an ESP packet."""
    if outer.proto != IPPROTO_ESP:
        raise EspError(f"not an ESP packet (proto={outer.proto})")
    payload = outer.payload
    if len(payload) < _ESP_HEADER.size + _IV_LEN + _ICV_LEN + 2:
        raise EspError("ESP payload too short")
    body, icv = payload[:-_ICV_LEN], payload[-_ICV_LEN:]
    expected = hmac_sha256(sa.auth_key, body)[:_ICV_LEN]
    if not hmac.compare_digest(icv, expected):
        raise EspError("ESP ICV mismatch (authentication failed)")
    spi, seq = _ESP_HEADER.unpack_from(body, 0)
    if spi != sa.spi:
        raise EspError(f"SPI mismatch: packet {spi:#x}, SA {sa.spi:#x}")
    sa.check_replay(seq)  # raises ReplayError; caller surfaces it
    iv = body[_ESP_HEADER.size:_ESP_HEADER.size + _IV_LEN]
    ciphertext = body[_ESP_HEADER.size + _IV_LEN:]
    cipher = KeystreamCipher(sa.enc_key)
    plain = cipher.decrypt(iv, ciphertext)
    if len(plain) < 2:
        raise EspError("decrypted ESP body too short")
    pad_len, next_header = plain[-2], plain[-1]
    if next_header != _NEXT_HEADER_IPV4:
        raise EspError(f"unsupported next header {next_header}")
    if pad_len + 2 > len(plain):
        raise EspError("pad length exceeds decrypted body")
    padding = plain[len(plain) - 2 - pad_len:len(plain) - 2]
    if padding != bytes(range(1, pad_len + 1)):
        raise EspError("ESP padding check failed")
    inner_bytes = plain[:len(plain) - 2 - pad_len]
    try:
        inner = IPv4Packet.from_bytes(inner_bytes)
    except ValueError as exc:
        raise EspError(f"inner packet malformed: {exc}") from exc
    sa.mark_seen(seq)
    sa.packets_in += 1
    sa.bytes_in += len(inner_bytes)
    return inner
