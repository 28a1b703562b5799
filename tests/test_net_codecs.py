"""The C-level checksum and address codecs against the per-byte loops.

``internet_checksum`` folds the whole buffer as one integer modulo
0xFFFF, and ``ip_to_int``/``int_to_ip`` go through ``inet_aton`` and
``inet_ntoa``.  The references below are the straightforward Python
versions they replaced, kept here only as oracles: every checksum and
every accept/reject decision must be bit-identical.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import int_to_ip, ip_to_int
from repro.net.checksum import internet_checksum


def reference_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def reference_ip_to_int(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {address!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def reference_int_to_ip(value: int) -> str:
    if not 0 <= value < 1 << 32:
        raise ValueError(f"IPv4 integer out of range: {value:#x}")
    return ".".join(str(b) for b in struct.pack("!I", value))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


class TestChecksum:
    @settings(max_examples=500, deadline=None)
    @given(st.binary(min_size=0, max_size=2048))
    def test_matches_reference(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @pytest.mark.parametrize("data", [
        b"",
        b"\x00",
        b"\x00" * 20,
        b"\x00" * 21,
        b"\xff",
        b"\xff" * 20,
        b"\xff" * 21,
        b"\xff\xff",                      # a single 0xFFFF word
        b"\x00\x01\xff\xfe",              # 1 + 0xFFFE = 0xFFFF
        b"\x80\x00\x7f\xff",              # 0x8000 + 0x7FFF = 0xFFFF
        b"\xff\xff\xff\xff\xff\xff",      # 3 * 0xFFFF
        b"\x12\x34" * 0xFFFF,             # a sum of 0x1234 * 0xFFFF
        b"\xff\xfe\x00",                  # odd tail padded
    ], ids=lambda data: f"{len(data)}B")
    def test_edge_cases_match_reference(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=20, max_size=60).filter(
        lambda header: len(header) % 2 == 0))
    def test_verify_over_checksummed_header_is_zero(self, header):
        # Zero the checksum field (bytes 10-11 of an IPv4 header), fill
        # it in, and the receiver's sum over the whole header is 0.
        blank = header[:10] + b"\x00\x00" + header[12:]
        filled = blank[:10] + struct.pack("!H", internet_checksum(blank)) \
            + blank[12:]
        assert internet_checksum(filled) == 0
        assert reference_checksum(filled) == 0


class TestAddressCodec:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_canonical_quads_round_trip(self, value):
        text = int_to_ip(value)
        assert text == reference_int_to_ip(value)
        assert ip_to_int(text) == reference_ip_to_int(text) == value

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet="0123456789. +-\t\n", max_size=20))
    def test_accepts_and_rejects_what_the_reference_does(self, text):
        assert _outcome(ip_to_int, text) \
            == _outcome(reference_ip_to_int, text)

    @pytest.mark.parametrize("text", [
        "1.2", "1.2.3", "1.2.3.4.5", "1.2.3.4 junk", "1.2.3.4 ", " 1.2.3.4",
        "01.2.3.4", "1.2.3.010", "0x7f.0.0.1", "256.0.0.1", "1.2.3.-4",
        "+1.2.3.4", "1..3.4", "", "1.2.3.4\x00", "1.2.3.4\n", "4294967295",
    ])
    def test_non_canonical_forms_rejected(self, text):
        with pytest.raises(ValueError):
            reference_ip_to_int(text)
        with pytest.raises(ValueError):
            ip_to_int(text)

    @pytest.mark.parametrize("text", [
        "\u0663.2.3.4",             # Arabic-Indic three
        "1.2.3.\uff14",             # fullwidth four
        "\u0967\u0969.0.0.1",       # Devanagari 13
        "\udc80.1.1.1",             # lone surrogate
    ])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="malformed IPv4 address"):
            ip_to_int(text)

    @pytest.mark.parametrize("value", [-1, 1 << 32])
    def test_int_out_of_range_rejected(self, value):
        with pytest.raises(ValueError, match="out of range"):
            int_to_ip(value)
