"""Binary codec for the control-channel messages.

Every message is ``header || body`` with the 8-byte header::

    version (B) | type (B) | length (H) | xid (I)

Matches are encoded as TLV lists, actions as typed records — the same
shape OpenFlow uses, with simplified field layouts.  All multi-byte
integers are network byte order.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.net.addresses import MacAddress, int_to_ip, parse_cidr
from repro.switch.actions import (
    Action,
    Controller,
    Output,
    PopVlan,
    PushVlan,
    SelectOutput,
    SetField,
)
from repro.switch.flowtable import FlowMatch

__all__ = [
    "CodecError",
    "FlowModCommand",
    "OFP_VERSION",
    "OfpType",
    "decode_message",
    "encode_error",
    "encode_features_reply",
    "encode_features_request",
    "encode_flow_mod",
    "encode_hello",
]

OFP_VERSION = 0x01

_HEADER = struct.Struct("!BBHI")


class CodecError(Exception):
    """Malformed message bytes."""


class OfpType(enum.IntEnum):
    HELLO = 0
    ERROR = 1
    FEATURES_REQUEST = 5
    FEATURES_REPLY = 6
    FLOW_MOD = 14


class FlowModCommand(enum.IntEnum):
    ADD = 0
    DELETE = 3
    DELETE_STRICT = 4


# -- match TLVs ---------------------------------------------------------------

_MF_IN_PORT = 1
_MF_ETH_SRC = 2
_MF_ETH_DST = 3
_MF_ETH_TYPE = 4
_MF_VLAN_VID = 5
_MF_IP_SRC = 6
_MF_IP_DST = 7
_MF_IP_PROTO = 8
_MF_TP_SRC = 9
_MF_TP_DST = 10


def _encode_match(match: FlowMatch) -> bytes:
    out = bytearray()

    def tlv(field_id: int, payload: bytes) -> None:
        out.extend(struct.pack("!BB", field_id, len(payload)))
        out.extend(payload)

    if match.in_port is not None:
        tlv(_MF_IN_PORT, struct.pack("!H", match.in_port))
    if match.eth_src is not None:
        tlv(_MF_ETH_SRC, match.eth_src.packed)
    if match.eth_dst is not None:
        tlv(_MF_ETH_DST, match.eth_dst.packed)
    if match.eth_type is not None:
        tlv(_MF_ETH_TYPE, struct.pack("!H", match.eth_type))
    if match.vlan_vid is not None:
        tlv(_MF_VLAN_VID, struct.pack("!h", match.vlan_vid))
    if match.ip_src is not None:
        network, plen = parse_cidr(
            match.ip_src if "/" in match.ip_src else match.ip_src + "/32")
        tlv(_MF_IP_SRC, struct.pack("!IB", network, plen))
    if match.ip_dst is not None:
        network, plen = parse_cidr(
            match.ip_dst if "/" in match.ip_dst else match.ip_dst + "/32")
        tlv(_MF_IP_DST, struct.pack("!IB", network, plen))
    if match.ip_proto is not None:
        tlv(_MF_IP_PROTO, struct.pack("!B", match.ip_proto))
    if match.tp_src is not None:
        tlv(_MF_TP_SRC, struct.pack("!H", match.tp_src))
    if match.tp_dst is not None:
        tlv(_MF_TP_DST, struct.pack("!H", match.tp_dst))
    return struct.pack("!H", len(out)) + bytes(out)


def _decode_match(data: bytes, offset: int) -> tuple[FlowMatch, int]:
    if offset + 2 > len(data):
        raise CodecError("truncated match length")
    (length,) = struct.unpack_from("!H", data, offset)
    offset += 2
    end = offset + length
    if end > len(data):
        raise CodecError("truncated match body")
    kwargs: dict = {}
    while offset < end:
        field_id, flen = struct.unpack_from("!BB", data, offset)
        offset += 2
        payload = data[offset:offset + flen]
        if len(payload) != flen:
            raise CodecError("truncated match TLV")
        offset += flen
        if field_id == _MF_IN_PORT:
            kwargs["in_port"] = struct.unpack("!H", payload)[0]
        elif field_id == _MF_ETH_SRC:
            kwargs["eth_src"] = MacAddress(payload)
        elif field_id == _MF_ETH_DST:
            kwargs["eth_dst"] = MacAddress(payload)
        elif field_id == _MF_ETH_TYPE:
            kwargs["eth_type"] = struct.unpack("!H", payload)[0]
        elif field_id == _MF_VLAN_VID:
            kwargs["vlan_vid"] = struct.unpack("!h", payload)[0]
        elif field_id == _MF_IP_SRC:
            network, plen = struct.unpack("!IB", payload)
            kwargs["ip_src"] = f"{int_to_ip(network)}/{plen}"
        elif field_id == _MF_IP_DST:
            network, plen = struct.unpack("!IB", payload)
            kwargs["ip_dst"] = f"{int_to_ip(network)}/{plen}"
        elif field_id == _MF_IP_PROTO:
            kwargs["ip_proto"] = payload[0]
        elif field_id == _MF_TP_SRC:
            kwargs["tp_src"] = struct.unpack("!H", payload)[0]
        elif field_id == _MF_TP_DST:
            kwargs["tp_dst"] = struct.unpack("!H", payload)[0]
        else:
            raise CodecError(f"unknown match field {field_id}")
    return FlowMatch(**kwargs), end


# -- action records ------------------------------------------------------------

_AT_OUTPUT = 0
_AT_PUSH_VLAN = 1
_AT_POP_VLAN = 2
_AT_SET_ETH_SRC = 3
_AT_SET_ETH_DST = 4
_AT_SET_VLAN_VID = 5
_AT_CONTROLLER = 6
# OpenFlow 1.1+ "select" group, flattened: the hash-balanced replica
# port set travels inline as a count-prefixed port list.
_AT_SELECT = 7


def _encode_actions(actions: Sequence[Action]) -> bytes:
    out = bytearray()

    def record(atype: int, payload: bytes = b"") -> None:
        out.extend(struct.pack("!BB", atype, len(payload)))
        out.extend(payload)

    for action in actions:
        if isinstance(action, Output):
            record(_AT_OUTPUT, struct.pack("!H", action.port))
        elif isinstance(action, PushVlan):
            record(_AT_PUSH_VLAN, struct.pack("!HB", action.vid, action.pcp))
        elif isinstance(action, PopVlan):
            record(_AT_POP_VLAN)
        elif isinstance(action, Controller):
            record(_AT_CONTROLLER, struct.pack("!H", action.max_len))
        elif isinstance(action, SelectOutput):
            # Count-prefixed port list, then the (possibly empty)
            # state-group id: the group names a per-flow state table
            # on the executing datapath, so it must survive the wire
            # hop from controller to agent like any other action field.
            group = (action.group or "").encode("utf-8")
            record(_AT_SELECT, struct.pack(
                f"!H{len(action.ports)}H", len(action.ports),
                *action.ports) + struct.pack("!B", 1 if action.group
                                             is not None else 0) + group)
        elif isinstance(action, SetField):
            if action.field == "eth_src":
                record(_AT_SET_ETH_SRC, MacAddress(action.value).packed)
            elif action.field == "eth_dst":
                record(_AT_SET_ETH_DST, MacAddress(action.value).packed)
            else:
                record(_AT_SET_VLAN_VID, struct.pack("!H", int(action.value)))
        else:  # pragma: no cover - closed union
            raise CodecError(f"unencodable action {action!r}")
    return struct.pack("!H", len(out)) + bytes(out)


def _decode_actions(data: bytes, offset: int) -> tuple[list[Action], int]:
    if offset + 2 > len(data):
        raise CodecError("truncated action list length")
    (length,) = struct.unpack_from("!H", data, offset)
    offset += 2
    end = offset + length
    if end > len(data):
        raise CodecError("truncated action list")
    actions: list[Action] = []
    while offset < end:
        atype, alen = struct.unpack_from("!BB", data, offset)
        offset += 2
        payload = data[offset:offset + alen]
        if len(payload) != alen:
            raise CodecError("truncated action record")
        offset += alen
        if atype == _AT_OUTPUT:
            actions.append(Output(struct.unpack("!H", payload)[0]))
        elif atype == _AT_PUSH_VLAN:
            vid, pcp = struct.unpack("!HB", payload)
            actions.append(PushVlan(vid, pcp))
        elif atype == _AT_POP_VLAN:
            actions.append(PopVlan())
        elif atype == _AT_CONTROLLER:
            actions.append(Controller(struct.unpack("!H", payload)[0]))
        elif atype == _AT_SELECT:
            if len(payload) < 2:
                raise CodecError("truncated select-output action")
            (count,) = struct.unpack_from("!H", payload)
            ports_end = 2 + 2 * count
            if count == 0 or len(payload) < ports_end:
                raise CodecError("malformed select-output action")
            ports = struct.unpack_from(f"!{count}H", payload, 2)
            group: "str | None" = None
            tail = payload[ports_end:]
            if tail:
                # Flagged state-group id (absent in records encoded
                # before stateful selects existed — those decode to a
                # stateless spread, which is what they meant).
                if tail[0] == 1:
                    group = tail[1:].decode("utf-8")
                elif tail[0] != 0 or len(tail) > 1:
                    raise CodecError("malformed select-output group")
            actions.append(SelectOutput(ports, group=group))
        elif atype == _AT_SET_ETH_SRC:
            actions.append(SetField("eth_src", MacAddress(payload)))
        elif atype == _AT_SET_ETH_DST:
            actions.append(SetField("eth_dst", MacAddress(payload)))
        elif atype == _AT_SET_VLAN_VID:
            actions.append(SetField("vlan_vid",
                                    struct.unpack("!H", payload)[0]))
        else:
            raise CodecError(f"unknown action type {atype}")
    return actions, end


# -- decoded message views -------------------------------------------------------

@dataclass
class Message:
    """Decoded message; body fields populated per type."""

    msg_type: OfpType
    xid: int
    # FLOW_MOD
    command: Optional[FlowModCommand] = None
    match: Optional[FlowMatch] = None
    actions: list[Action] = field(default_factory=list)
    priority: int = 0
    cookie: int = 0
    # FEATURES_REPLY
    dpid: int = 0
    port_names: dict[int, str] = field(default_factory=dict)
    # ERROR
    code: int = 0
    payload: bytes = b""


def _pack(msg_type: OfpType, xid: int, body: bytes) -> bytes:
    total = _HEADER.size + len(body)
    if total > 0xFFFF:
        raise CodecError(f"message too large: {total} bytes")
    return _HEADER.pack(OFP_VERSION, int(msg_type), total, xid) + body


def encode_hello(xid: int) -> bytes:
    return _pack(OfpType.HELLO, xid, b"")


def encode_error(xid: int, code: int, detail: bytes = b"") -> bytes:
    return _pack(OfpType.ERROR, xid, struct.pack("!H", code) + detail)


def encode_features_request(xid: int) -> bytes:
    return _pack(OfpType.FEATURES_REQUEST, xid, b"")


def encode_features_reply(xid: int, dpid: int,
                          ports: dict[int, str]) -> bytes:
    body = bytearray(struct.pack("!QH", dpid, len(ports)))
    for port_no, name in sorted(ports.items()):
        raw = name.encode()[:16]
        body.extend(struct.pack("!H16s", port_no, raw))
    return _pack(OfpType.FEATURES_REPLY, xid, bytes(body))


def encode_flow_mod(xid: int, command: FlowModCommand, match: FlowMatch,
                    actions: Sequence[Action] = (), priority: int = 100,
                    cookie: int = 0) -> bytes:
    body = struct.pack("!BHQ", int(command), priority, cookie)
    body += _encode_match(match)
    body += _encode_actions(actions)
    return _pack(OfpType.FLOW_MOD, xid, body)


def decode_message(data: bytes) -> Message:
    """Decode one complete message; raises :class:`CodecError` on junk.

    A body too short for its fields, or holding a value its field type
    rejects (a command byte with no :class:`FlowModCommand`, a VLAN id
    out of range, a /40 prefix), surfaces as :class:`CodecError` with
    the original exception chained as its cause.
    """
    if len(data) < _HEADER.size:
        raise CodecError("truncated header")
    version, raw_type, length, xid = _HEADER.unpack_from(data, 0)
    if version != OFP_VERSION:
        raise CodecError(f"unsupported version {version}")
    if length != len(data):
        raise CodecError(f"length field {length} != buffer {len(data)}")
    try:
        msg_type = OfpType(raw_type)
    except ValueError:
        raise CodecError(f"unknown message type {raw_type}") from None
    message = Message(msg_type=msg_type, xid=xid)
    body = data[_HEADER.size:]
    try:
        if msg_type == OfpType.ERROR:
            (message.code,) = struct.unpack_from("!H", body, 0)
            message.payload = body[2:]
        elif msg_type == OfpType.FEATURES_REPLY:
            dpid, count = struct.unpack_from("!QH", body, 0)
            message.dpid = dpid
            offset = 10
            for _ in range(count):
                port_no, raw_name = struct.unpack_from("!H16s", body, offset)
                offset += 18
                message.port_names[port_no] = \
                    raw_name.rstrip(b"\x00").decode()
        elif msg_type == OfpType.FLOW_MOD:
            command, priority, cookie = struct.unpack_from("!BHQ", body, 0)
            message.command = FlowModCommand(command)
            message.priority = priority
            message.cookie = cookie
            match, offset = _decode_match(body, 11)
            message.match = match
            message.actions, _offset = _decode_actions(body, offset)
    except (struct.error, ValueError, IndexError) as exc:
        raise CodecError(f"malformed {msg_type.name} body: {exc}") from exc
    return message
