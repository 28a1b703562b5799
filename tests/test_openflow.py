"""Codec round-trips, malformed-input fuzzing, controller<->agent."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.linuxnet import VethPair
from repro.net import MacAddress, make_udp_frame
from repro.openflow import ControlChannel, LsiController, SwitchAgent
from repro.openflow.messages import (
    OFP_VERSION,
    CodecError,
    FlowModCommand,
    OfpType,
    decode_message,
    encode_flow_mod,
    encode_hello,
)
from repro.switch import (
    Datapath,
    FlowMatch,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
)

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


class TestCodec:
    def test_hello_roundtrip(self):
        message = decode_message(encode_hello(7))
        assert message.msg_type is OfpType.HELLO
        assert message.xid == 7

    def test_flow_mod_roundtrip_full_match(self):
        match = FlowMatch(in_port=3, eth_src=MAC_A, eth_dst=MAC_B,
                          eth_type=0x0800, vlan_vid=42,
                          ip_src="10.0.0.0/24", ip_dst="192.168.1.5/32",
                          ip_proto=17, tp_src=1000, tp_dst=2000)
        actions = (PushVlan(7), SetField("eth_dst", MAC_A), PopVlan(),
                   Output(9))
        data = encode_flow_mod(1, FlowModCommand.ADD, match, actions,
                               priority=5, cookie=0xDEAD)
        message = decode_message(data)
        assert message.command is FlowModCommand.ADD
        assert message.match == match
        assert tuple(message.actions) == actions
        assert message.priority == 5
        assert message.cookie == 0xDEAD

    def test_flow_mod_wildcard_match(self):
        data = encode_flow_mod(2, FlowModCommand.DELETE, FlowMatch(), ())
        message = decode_message(data)
        assert message.match == FlowMatch()
        assert message.actions == []

    def test_select_output_roundtrip(self):
        from repro.switch import SelectOutput
        actions = (PopVlan(), SelectOutput((4, 9, 17)))
        data = encode_flow_mod(3, FlowModCommand.ADD,
                               FlowMatch(in_port=1), actions)
        message = decode_message(data)
        assert tuple(message.actions) == actions

    def test_select_output_group_roundtrip(self):
        # The state-group id travels the wire with the port list —
        # including non-ASCII group names — and its absence decodes to
        # a stateless (group=None) spread.
        from repro.switch import SelectOutput
        for group in ("eg/dpi:in", "gräph/nf:0"):
            actions = (SelectOutput((4, 9, 17), group=group),)
            data = encode_flow_mod(3, FlowModCommand.ADD,
                                   FlowMatch(in_port=1), actions)
            message = decode_message(data)
            assert tuple(message.actions) == actions
            assert message.actions[0].group == group
        stateless = (SelectOutput((4, 9)),)
        message = decode_message(encode_flow_mod(
            4, FlowModCommand.ADD, FlowMatch(in_port=1), stateless))
        assert message.actions[0].group is None

    def test_select_output_malformed_group_raises_codec_error(self):
        # A trailing-garbage or bad-flag group tail is a wire error.
        import struct
        from repro.openflow import messages
        two_ports = struct.pack("!HH", 4, 9)
        for tail in (b"\x02abc", b"\x00junk"):
            payload = struct.pack("!H", 2) + two_ports + tail
            record = struct.pack("!BB", 7, len(payload)) + payload
            data = struct.pack("!H", len(record)) + record
            with pytest.raises(CodecError):
                messages._decode_actions(data, 0)

    def test_malformed_select_output_raises_codec_error(self):
        # An empty (count=0) or truncated select record must surface
        # as a CodecError (the malformed-wire contract), never a
        # ValueError escaping from the action constructor.
        import struct
        from repro.openflow import messages
        empty_select = struct.pack("!H", 4) \
            + struct.pack("!BB", 7, 2) + b"\x00\x00"
        with pytest.raises(CodecError):
            messages._decode_actions(empty_select, 0)
        truncated = struct.pack("!H", 3) \
            + struct.pack("!BB", 7, 1) + b"\x00"
        with pytest.raises(CodecError):
            messages._decode_actions(truncated, 0)

    def test_negative_vlan_sentinels_roundtrip(self):
        from repro.switch.flowtable import ANY_VLAN, NO_VLAN
        for sentinel in (ANY_VLAN, NO_VLAN):
            data = encode_flow_mod(1, FlowModCommand.ADD,
                                   FlowMatch(vlan_vid=sentinel), ())
            assert decode_message(data).match.vlan_vid == sentinel

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\x01\x00")

    def test_length_mismatch_rejected(self):
        data = bytearray(encode_hello(1))
        data.extend(b"junk")
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_hello(1))
        data[0] = 9
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_flow_mod_priority_cookie_property(self, priority, cookie):
        data = encode_flow_mod(1, FlowModCommand.ADD, FlowMatch(in_port=1),
                               (Output(2),), priority=priority,
                               cookie=cookie)
        message = decode_message(data)
        assert message.priority == priority
        assert message.cookie == cookie


def frame_message(msg_type: int, body: bytes, xid: int = 1) -> bytes:
    """``body`` under a well-formed header: right version and length."""
    return struct.pack("!BBHI", OFP_VERSION, msg_type, 8 + len(body),
                       xid) + body


def flow_mod_body(match_tlvs: bytes = b"", command: int = 0) -> bytes:
    """A FLOW_MOD body with raw match TLVs and an empty action list."""
    return (struct.pack("!BHQ", command, 100, 0)
            + struct.pack("!H", len(match_tlvs)) + match_tlvs
            + struct.pack("!H", 0))


#: OpenFlow 1.0 type codes the control channel does not carry: ECHO,
#: PACKET_IN, PACKET_OUT, STATS and BARRIER.
RETIRED_TYPES = (2, 3, 10, 13, 16, 17, 18, 19)

#: Bodies under a valid header whose field decode raises struct.error,
#: ValueError or IndexError; each must surface as CodecError.
MALFORMED = {
    "error-body-1-byte": frame_message(OfpType.ERROR, b"\x00"),
    "flow-mod-body-short": frame_message(OfpType.FLOW_MOD, bytes(10)),
    "features-reply-body-short": frame_message(OfpType.FEATURES_REPLY,
                                               bytes(9)),
    "in-port-tlv-1-byte": frame_message(
        OfpType.FLOW_MOD, flow_mod_body(b"\x01\x01\x00")),
    "flow-mod-command-9": frame_message(
        OfpType.FLOW_MOD, flow_mod_body(command=9)),
    "vlan-vid-5000": frame_message(
        OfpType.FLOW_MOD, flow_mod_body(b"\x05\x02" + struct.pack(
            "!h", 5000))),
    "ip-src-prefix-40": frame_message(
        OfpType.FLOW_MOD, flow_mod_body(b"\x06\x05" + struct.pack(
            "!IB", 0x0A000000, 40))),
    "ip-proto-tlv-empty": frame_message(
        OfpType.FLOW_MOD, flow_mod_body(b"\x08\x00")),
}

_matches = st.builds(
    FlowMatch,
    in_port=st.none() | st.integers(1, 64),
    eth_dst=st.none() | st.just(MAC_B),
    eth_type=st.none() | st.just(0x0800),
    vlan_vid=st.none() | st.integers(1, 4094),
    ip_src=st.none() | st.just("10.0.0.0/24"),
    ip_proto=st.none() | st.just(17),
    tp_dst=st.none() | st.integers(0, 0xFFFF),
)
_actions = st.lists(st.sampled_from([
    Output(2), PushVlan(7), PopVlan(), SetField("eth_dst", MAC_A),
    SelectOutput((3, 4), group="g"),
]), max_size=4)


@st.composite
def random_bodies(draw):
    """Random bytes under a valid header, retired type codes included."""
    msg_type = draw(st.sampled_from(
        [int(t) for t in OfpType] + list(RETIRED_TYPES))
        | st.integers(0, 0xFF))
    return frame_message(msg_type, draw(st.binary(max_size=64)))


@st.composite
def mutated_flow_mods(draw):
    """A valid FLOW_MOD with body bytes overwritten, cut or appended."""
    data = bytearray(encode_flow_mod(
        1, draw(st.sampled_from(list(FlowModCommand))), draw(_matches),
        draw(_actions)))
    body = data[8:]
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(body) - 1))
        body[position] = draw(st.integers(0, 0xFF))
    body = body[:draw(st.integers(0, len(body)))] + draw(st.binary(
        max_size=8))
    msg_type = draw(st.sampled_from((OfpType.FLOW_MOD,) + RETIRED_TYPES))
    return frame_message(msg_type, bytes(body))


def check_rejected_or_decoded(data: bytes) -> None:
    """``decode_message`` returns or raises CodecError, nothing else.
    A bare agent fed the same bytes never raises; where the decode
    fails, it answers one ERROR and leaves its table alone."""
    try:
        decode_message(data)
    except CodecError:
        rejected = True
    else:
        rejected = False
    dp = Datapath(0x42, name="lsi-fuzz")
    channel = ControlChannel()  # no controller: replies stay queued
    agent = SwitchAgent(dp, channel)
    version = dp.table.version
    channel.controller_end.send(data)
    if not rejected:
        return
    assert agent.errors_sent == 1
    assert [label for label, _data in channel.undelivered] == ["controller"]
    reply = decode_message(channel.undelivered[0][1])
    assert reply.msg_type is OfpType.ERROR
    assert dp.table.version == version


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_known_malformed_body_is_codec_error(self, name):
        with pytest.raises(CodecError) as caught:
            decode_message(MALFORMED[name])
        assert caught.value.__cause__ is not None
        check_rejected_or_decoded(MALFORMED[name])

    @pytest.mark.parametrize("msg_type", RETIRED_TYPES)
    def test_retired_type_is_codec_error(self, msg_type):
        with pytest.raises(CodecError):
            decode_message(frame_message(msg_type, b""))
        check_rejected_or_decoded(frame_message(msg_type, b""))

    @settings(max_examples=400, deadline=None)
    @given(random_bodies())
    def test_random_body_decodes_or_is_codec_error(self, data):
        check_rejected_or_decoded(data)

    @settings(max_examples=400, deadline=None)
    @given(mutated_flow_mods())
    def test_mutated_flow_mod_decodes_or_is_codec_error(self, data):
        check_rejected_or_decoded(data)


def wired_pair():
    dp = Datapath(0x42, name="lsi-test")
    channel = ControlChannel()
    agent = SwitchAgent(dp, channel)
    controller = LsiController(channel, name="test-ctrl")
    return dp, channel, agent, controller


class TestControllerAgent:
    def test_handshake_discovers_dpid_and_ports(self):
        dp, _channel, _agent, controller = wired_pair()
        dp.add_port("port-a")
        dp.add_port("port-b")
        controller.handshake()
        assert controller.dpid == 0x42
        assert controller.ports == {1: "port-a", 2: "port-b"}

    def test_flow_add_lands_in_table(self):
        dp, _channel, agent, controller = wired_pair()
        controller.handshake()
        controller.flow_add(FlowMatch(in_port=1), (Output(2),), priority=9)
        assert len(dp.table) == 1
        (entry,) = list(dp.table)
        assert entry.priority == 9
        assert agent.flow_mods_applied == 1

    def test_flow_delete_by_cookie_tears_down_graph_rules(self):
        dp, _channel, _agent, controller = wired_pair()
        controller.handshake()
        controller.flow_add(FlowMatch(in_port=1), (Output(2),), cookie=0xA1)
        controller.flow_add(FlowMatch(in_port=2), (Output(1),), cookie=0xA1)
        controller.flow_add(FlowMatch(in_port=3), (Output(1),), cookie=0xB2)
        controller.flow_delete_by_cookie(0xA1)
        assert len(dp.table) == 1

    def test_table_miss_is_a_counted_drop(self):
        # A steering-managed LSI does not punt a miss to its
        # controller: the datapath counts it and drops it, and the
        # control channel stays silent.
        dp, channel, _agent, controller = wired_pair()
        controller.handshake()
        pair = VethPair("sw0", "nf0")
        pair.b.set_up()
        dp.add_port("sw0", device=pair.a)
        exchanged = channel.messages_exchanged
        pair.b.transmit(make_udp_frame(MAC_A, MAC_B, "1.1.1.1", "2.2.2.2",
                                       1, 2, b"miss"))
        assert dp.table_misses == 1
        assert dp.dropped == 1
        assert channel.messages_exchanged == exchanged
    def test_channel_counts_messages(self):
        _dp, channel, _agent, controller = wired_pair()
        controller.handshake()
        assert channel.messages_exchanged >= 4  # hello x2, features req/rep
