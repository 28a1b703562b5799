"""Tests for crypto helpers, SAs (anti-replay) and ESP tunnel mode."""

import pytest
from hypothesis import given, strategies as st

from repro.ipsec import (
    EspError,
    KeystreamCipher,
    ReplayError,
    SecurityAssociation,
    SpiAllocator,
    derive_keys,
    esp_decapsulate,
    esp_encapsulate,
    hmac_sha256,
)
from repro.ipsec.esp import esp_overhead
from repro.net.ipv4 import IPPROTO_ESP, IPPROTO_UDP, IPv4Packet


def make_sa(spi=0x1001, src="203.0.113.1", dst="203.0.113.2"):
    enc, auth = derive_keys(b"pre-shared-secret", b"nonce-i", b"nonce-r", spi)
    return SecurityAssociation(spi=spi, src=src, dst=dst,
                               enc_key=enc, auth_key=auth)


def inner_packet(payload=b"secret data", src="192.168.1.10",
                 dst="10.8.0.1"):
    return IPv4Packet(src=src, dst=dst, proto=IPPROTO_UDP, payload=payload)


class TestCrypto:
    def test_keystream_roundtrip(self):
        cipher = KeystreamCipher(b"0123456789abcdef")
        ciphertext = cipher.encrypt(b"iv000000", b"attack at dawn")
        assert ciphertext != b"attack at dawn"
        assert cipher.decrypt(b"iv000000", ciphertext) == b"attack at dawn"

    def test_different_iv_different_keystream(self):
        cipher = KeystreamCipher(b"0123456789abcdef")
        a = cipher.encrypt(b"iv000001", b"\x00" * 32)
        b = cipher.encrypt(b"iv000002", b"\x00" * 32)
        assert a != b

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCipher(b"short")

    def test_hmac_known_vector(self):
        # RFC 4231 test case 2
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex().startswith("5bdcc146bf60754e6a042426089575c7")

    def test_derive_keys_deterministic_and_distinct(self):
        enc1, auth1 = derive_keys(b"s", b"ni", b"nr", 0x1000)
        enc2, auth2 = derive_keys(b"s", b"ni", b"nr", 0x1000)
        assert enc1 == enc2 and auth1 == auth2
        assert enc1 != auth1
        enc3, _ = derive_keys(b"s", b"ni", b"nr", 0x1001)
        assert enc3 != enc1

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            derive_keys(b"", b"a", b"b", 1)


class TestSecurityAssociation:
    def test_sequence_numbers_monotonic(self):
        sa = make_sa()
        assert sa.next_seq() == 1
        assert sa.next_seq() == 2

    def test_replay_window_accepts_in_order(self):
        sa = make_sa()
        for seq in range(1, 100):
            sa.check_replay(seq)
            sa.mark_seen(seq)

    def test_replay_detected(self):
        sa = make_sa()
        sa.mark_seen(5)
        with pytest.raises(ReplayError):
            sa.check_replay(5)

    def test_out_of_order_within_window_ok(self):
        sa = make_sa()
        sa.mark_seen(10)
        sa.check_replay(7)  # unseen, inside window
        sa.mark_seen(7)
        with pytest.raises(ReplayError):
            sa.check_replay(7)

    def test_stale_sequence_rejected(self):
        sa = make_sa()
        sa.mark_seen(100)
        with pytest.raises(ReplayError):
            sa.check_replay(100 - 64)

    def test_sequence_zero_invalid(self):
        sa = make_sa()
        with pytest.raises(ReplayError):
            sa.check_replay(0)

    def test_hard_lifetime_enforced(self):
        sa = make_sa()
        sa.hard_packet_limit = 2
        sa.next_seq()
        sa.next_seq()
        with pytest.raises(OverflowError):
            sa.next_seq()

    def test_bad_spi_rejected(self):
        with pytest.raises(ValueError):
            SecurityAssociation(spi=0, src="1.1.1.1", dst="2.2.2.2",
                                enc_key=b"k" * 16, auth_key=b"k" * 16)


class TestSpiAllocator:
    def test_unique_allocation(self):
        allocator = SpiAllocator()
        spis = {allocator.allocate() for _ in range(100)}
        assert len(spis) == 100

    def test_reserve_collision_rejected(self):
        allocator = SpiAllocator()
        spi = allocator.allocate()
        with pytest.raises(ValueError):
            allocator.reserve(spi)

    def test_reserved_range_rejected(self):
        allocator = SpiAllocator()
        with pytest.raises(ValueError):
            allocator.reserve(10)


class TestEsp:
    def test_encap_decap_roundtrip(self):
        out_sa = make_sa()
        in_sa = make_sa()  # same keys, fresh replay state
        inner = inner_packet()
        outer = esp_encapsulate(out_sa, inner)
        assert outer.proto == IPPROTO_ESP
        assert outer.src == out_sa.src and outer.dst == out_sa.dst
        recovered = esp_decapsulate(in_sa, outer)
        assert recovered == inner

    def test_payload_is_encrypted(self):
        sa = make_sa()
        outer = esp_encapsulate(sa, inner_packet(b"plaintext-marker"))
        assert b"plaintext-marker" not in outer.payload

    def test_tampering_detected(self):
        out_sa, in_sa = make_sa(), make_sa()
        outer = esp_encapsulate(out_sa, inner_packet())
        tampered = IPv4Packet(src=outer.src, dst=outer.dst, proto=outer.proto,
                              payload=outer.payload[:-1] +
                              bytes([outer.payload[-1] ^ 1]))
        with pytest.raises(EspError, match="ICV"):
            esp_decapsulate(in_sa, tampered)

    def test_replayed_packet_rejected(self):
        out_sa, in_sa = make_sa(), make_sa()
        outer = esp_encapsulate(out_sa, inner_packet())
        esp_decapsulate(in_sa, outer)
        with pytest.raises(ReplayError):
            esp_decapsulate(in_sa, outer)

    def test_mismatched_psk_fails_authentication(self):
        """Endpoints configured with different pre-shared keys derive
        different SAs under the same SPI: the tunnel comes up, but
        every packet fails the ICV check."""
        spi = 0x1001
        enc_a, auth_a = derive_keys(b"alpha", b"ni", b"nr", spi)
        enc_b, auth_b = derive_keys(b"beta", b"ni", b"nr", spi)
        assert enc_a != enc_b and auth_a != auth_b
        sender = SecurityAssociation(spi=spi, src="203.0.113.1",
                                     dst="203.0.113.2", enc_key=enc_a,
                                     auth_key=auth_a)
        receiver = SecurityAssociation(spi=spi, src="203.0.113.1",
                                       dst="203.0.113.2", enc_key=enc_b,
                                       auth_key=auth_b)
        outer = esp_encapsulate(sender, inner_packet())
        with pytest.raises(EspError, match="ICV"):
            esp_decapsulate(receiver, outer)

    def test_wrong_sa_rejected(self):
        out_sa = make_sa(spi=0x1001)
        other = make_sa(spi=0x2002)
        outer = esp_encapsulate(out_sa, inner_packet())
        with pytest.raises(EspError):
            esp_decapsulate(other, outer)

    def test_non_esp_packet_rejected(self):
        with pytest.raises(EspError):
            esp_decapsulate(make_sa(), inner_packet())

    def test_overhead_formula_matches_reality(self):
        out_sa = make_sa()
        for size in (0, 1, 2, 3, 4, 100, 1399, 1400):
            inner = inner_packet(b"q" * size)
            outer = esp_encapsulate(out_sa, inner)
            assert (outer.total_length - inner.total_length
                    == esp_overhead(inner.total_length)), size

    def test_counters_track_traffic(self):
        out_sa, in_sa = make_sa(), make_sa()
        for _ in range(3):
            esp_decapsulate(in_sa, esp_encapsulate(out_sa, inner_packet()))
        assert out_sa.packets_out == 3
        assert in_sa.packets_in == 3

    @given(st.binary(max_size=1400))
    def test_roundtrip_property(self, payload):
        out_sa, in_sa = make_sa(), make_sa()
        inner = inner_packet(payload)
        assert esp_decapsulate(in_sa, esp_encapsulate(out_sa, inner)) == inner
