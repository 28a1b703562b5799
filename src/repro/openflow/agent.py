"""Switch-side protocol endpoint: applies FLOW_MODs to the datapath.

The agent owns the switch end of a :class:`ControlChannel`, decodes
incoming messages, mutates the flow table and answers HELLO and
FEATURES_REQUEST.  Anything it cannot decode or has no handler for is
answered with an ERROR.  It sends nothing on a table miss: the
datapath counts the miss (``table_misses``) and the drop (``dropped``).
"""

from __future__ import annotations

from repro.openflow.channel import ControlChannel
from repro.openflow.messages import (
    CodecError,
    FlowModCommand,
    Message,
    decode_message,
    encode_error,
    encode_features_reply,
    encode_hello,
)
from repro.switch.datapath import Datapath
from repro.switch.flowtable import FlowEntry

__all__ = ["SwitchAgent"]

_ERR_BAD_REQUEST = 1
_ERR_BAD_FLOW_MOD = 2


class SwitchAgent:
    """Binds a :class:`Datapath` to the switch end of a channel."""

    def __init__(self, datapath: Datapath, channel: ControlChannel) -> None:
        self.datapath = datapath
        self.channel = channel
        self.flow_mods_applied = 0
        self.errors_sent = 0
        channel.switch_end.on_receive(self._on_bytes)

    def _on_bytes(self, data: bytes) -> None:
        try:
            message = decode_message(data)
        except CodecError:
            self.errors_sent += 1
            self.channel.switch_end.send(
                encode_error(0, _ERR_BAD_REQUEST))
            return
        handler = getattr(self, f"_handle_{message.msg_type.name.lower()}",
                          None)
        if handler is None:
            self.errors_sent += 1
            self.channel.switch_end.send(
                encode_error(message.xid, _ERR_BAD_REQUEST))
            return
        handler(message)

    def _handle_hello(self, message: Message) -> None:
        self.channel.switch_end.send(encode_hello(message.xid))

    def _handle_features_request(self, message: Message) -> None:
        ports = {number: port.name
                 for number, port in self.datapath.ports.items()}
        self.channel.switch_end.send(encode_features_reply(
            message.xid, self.datapath.dpid, ports))

    def _handle_flow_mod(self, message: Message) -> None:
        if message.match is None or message.command is None:
            self.errors_sent += 1
            self.channel.switch_end.send(
                encode_error(message.xid, _ERR_BAD_FLOW_MOD))
            return
        if message.command is FlowModCommand.ADD:
            self.datapath.table.add(FlowEntry(
                match=message.match, actions=tuple(message.actions),
                priority=message.priority, cookie=message.cookie))
        elif message.command is FlowModCommand.DELETE:
            self.datapath.table.delete(match=message.match,
                                       cookie=message.cookie or None)
        else:  # DELETE_STRICT
            self.datapath.table.delete(match=message.match,
                                       priority=message.priority,
                                       strict=True)
        self.flow_mods_applied += 1
