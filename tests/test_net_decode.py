"""The structural L3/L4 decoders against the constructor-based ones.

``IPv4Packet``, ``TcpSegment`` and ``UdpDatagram.from_bytes`` build
their object with ``__new__`` plus one ``__dict__`` assignment: every
decoded field is valid by construction, so the dataclass
``__post_init__`` checks are skipped.  The references below are the
decoders they replaced, which went through the validating constructor;
they are kept here only as oracles.  On random, corrupted and truncated
headers both sides must reject exactly the same inputs with the same
message and otherwise produce equal objects.  ``ParsedFrame.ip_ints``,
read from the header bytes by the lazy decode, must equal the ints of
the decoded address strings.
"""

import struct
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.net import MacAddress
from repro.net.addresses import int_to_ip, ip_to_int
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.checksum import internet_checksum
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPV4_HEADER_LEN, IPv4Packet
from repro.net.transport import (TCP_HEADER_LEN, UDP_HEADER_LEN,
                                 TcpSegment, UdpDatagram)


def reference_ipv4(data: bytes, verify_checksum: bool = True) -> IPv4Packet:
    if len(data) < IPV4_HEADER_LEN:
        raise ValueError(f"IPv4 packet too short: {len(data)} bytes")
    (version_ihl, tos, total_length, identification, flags_frag,
     ttl, proto, _checksum, src_raw, dst_raw) = struct.unpack_from(
        "!BBHHHBBH4s4s", data, 0)
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
    return IPv4Packet(
        src=int_to_ip(int.from_bytes(src_raw, "big")),
        dst=int_to_ip(int.from_bytes(dst_raw, "big")),
        proto=proto, payload=data[ihl:total_length], ttl=ttl,
        identification=identification, dscp=tos >> 2,
        flags=flags_frag >> 13)


def reference_udp(data: bytes) -> UdpDatagram:
    if len(data) < UDP_HEADER_LEN:
        raise ValueError("UDP datagram too short")
    src_port, dst_port, length, _checksum = struct.unpack_from(
        "!HHHH", data, 0)
    if length < UDP_HEADER_LEN or length > len(data):
        raise ValueError("bad UDP length field")
    return UdpDatagram(src_port=src_port, dst_port=dst_port,
                       payload=data[UDP_HEADER_LEN:length])


def reference_tcp(data: bytes) -> TcpSegment:
    if len(data) < TCP_HEADER_LEN:
        raise ValueError("TCP segment too short")
    (src_port, dst_port, seq, ack, offset_flags, window,
     _checksum, _urgent) = struct.unpack_from("!HHIIHHHH", data, 0)
    data_offset = (offset_flags >> 12) * 4
    if data_offset < TCP_HEADER_LEN or data_offset > len(data):
        raise ValueError("bad TCP data offset")
    return TcpSegment(src_port=src_port, dst_port=dst_port, seq=seq,
                      ack=ack, flags=offset_flags & 0x3F,
                      payload=data[data_offset:], window=window)


def _outcome(decode, *args):
    try:
        return decode(*args)
    except ValueError as error:
        return ("ValueError", str(error))


def _assert_same(cls, got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is cls
    assert vars(got) == vars(want)
    # A field added to the dataclass later must be set by the decoder.
    assert set(vars(got)) == {field.name for field in fields(cls)}


u8, u16, u32 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 32))


@st.composite
def ipv4_packets(draw) -> bytes:
    """Mostly well-formed headers; any field may be off."""
    version_ihl = draw(st.one_of(st.sampled_from([0x45, 0x46, 0x4F]), u8))
    ihl = (version_ihl & 0x0F) * 4
    options = draw(st.binary(min_size=max(0, ihl - IPV4_HEADER_LEN),
                             max_size=max(0, ihl - IPV4_HEADER_LEN)))
    payload = draw(st.binary(max_size=64))
    exact = IPV4_HEADER_LEN + len(options) + len(payload)
    total_length = draw(st.one_of(st.just(exact), u16,
                                  st.integers(0, exact)))
    header = struct.pack(
        "!BBHHHBBH4s4s", version_ihl, draw(u8), total_length, draw(u16),
        draw(u16), draw(u8), draw(st.one_of(st.sampled_from([6, 17]), u8)),
        0, draw(st.binary(min_size=4, max_size=4)),
        draw(st.binary(min_size=4, max_size=4))) + options
    checksum = draw(st.one_of(st.just(internet_checksum(header)), u16))
    return header[:10] + struct.pack("!H", checksum) + header[12:] + payload


@st.composite
def udp_datagrams(draw) -> bytes:
    payload = draw(st.binary(max_size=64))
    length = draw(st.one_of(st.just(UDP_HEADER_LEN + len(payload)), u16))
    return struct.pack("!HHHH", draw(u16), draw(u16), length,
                       draw(u16)) + payload


@st.composite
def tcp_segments(draw) -> bytes:
    offset = draw(st.one_of(st.just(5), st.integers(0, 15)))
    flags = draw(st.integers(0, (1 << 12) - 1))
    options = draw(st.binary(min_size=max(0, offset * 4 - TCP_HEADER_LEN),
                             max_size=max(0, offset * 4 - TCP_HEADER_LEN)))
    return struct.pack("!HHIIHHHH", draw(u16), draw(u16), draw(u32),
                       draw(u32), (offset << 12) | flags, draw(u16),
                       draw(u16), draw(u16)) + options \
        + draw(st.binary(max_size=64))


@st.composite
def mangled(draw, packets):
    """A packet, then maybe one corrupted byte, then maybe truncated."""
    data = bytearray(draw(packets))
    if data and draw(st.booleans()):
        index = draw(st.integers(0, len(data) - 1))
        data[index] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


@given(mangled(ipv4_packets()), st.booleans())
@settings(max_examples=600, deadline=None)
def test_ipv4_decode_equals_the_constructor_decode(data, verify):
    _assert_same(IPv4Packet,
                 _outcome(IPv4Packet.from_bytes, data, verify),
                 _outcome(reference_ipv4, data, verify))


@given(mangled(udp_datagrams()))
@settings(max_examples=400, deadline=None)
def test_udp_decode_equals_the_constructor_decode(data):
    _assert_same(UdpDatagram, _outcome(UdpDatagram.from_bytes, data),
                 _outcome(reference_udp, data))


@given(mangled(tcp_segments()))
@settings(max_examples=400, deadline=None)
def test_tcp_decode_equals_the_constructor_decode(data):
    _assert_same(TcpSegment, _outcome(TcpSegment.from_bytes, data),
                 _outcome(reference_tcp, data))


def test_any_byte_string_decodes_the_same_way():
    """Short all-pattern inputs: every length below the headers and
    each rejection branch, byte-identical outcomes."""
    for size in range(0, 28):
        for fill in (0x00, 0x45, 0x50, 0xFF):
            data = bytes([fill]) * size
            for verify in (True, False):
                _assert_same(IPv4Packet,
                             _outcome(IPv4Packet.from_bytes, data, verify),
                             _outcome(reference_ipv4, data, verify))
            _assert_same(UdpDatagram, _outcome(UdpDatagram.from_bytes, data),
                         _outcome(reference_udp, data))
            _assert_same(TcpSegment, _outcome(TcpSegment.from_bytes, data),
                         _outcome(reference_tcp, data))


SRC_MAC = MacAddress("02:aa:00:00:00:01")
DST_MAC = MacAddress("02:bb:00:00:00:02")


def _frame(payload: bytes) -> EthernetFrame:
    return EthernetFrame(dst=DST_MAC, src=SRC_MAC,
                         ethertype=ETHERTYPE_IPV4, payload=payload)


@given(mangled(ipv4_packets()))
@settings(max_examples=300, deadline=None)
def test_ip_ints_from_the_header_equal_the_address_strings(data):
    parsed = parse_frame(_frame(data))
    packet = parsed.ipv4
    if packet is None:
        assert parsed.ip_ints is None
    else:
        assert parsed.ip_ints == (ip_to_int(packet.src),
                                  ip_to_int(packet.dst))


def test_derive_carries_ip_ints_and_the_setter_resets_them():
    packet = IPv4Packet(src="10.0.0.1", dst="10.0.0.2", proto=17,
                        payload=b"")
    parsed = parse_frame(_frame(packet.to_bytes()))
    ints = parsed.ip_ints
    assert ints == (ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"))
    eth = parsed.eth
    tagged = EthernetFrame(dst=eth.dst, src=eth.src, ethertype=eth.ethertype,
                           payload=eth.payload, vlan=7)
    assert parsed.derive(tagged).ip_ints is ints
    parsed.ipv4 = IPv4Packet(src="192.0.2.9", dst="198.51.100.3",
                             proto=17, payload=b"")
    assert parsed.ip_ints == (ip_to_int("192.0.2.9"),
                              ip_to_int("198.51.100.3"))
    # An explicitly supplied L3 view has no bytes behind it.
    explicit = ParsedFrame(eth, ipv4=packet)
    assert explicit.ip_ints == ints
