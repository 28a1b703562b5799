"""Per-LSI OpenFlow controller.

The traffic-steering manager instantiates one of these per LSI (as in
Figure 1) and drives the flow tables exclusively through it, so every
steering decision crosses the binary control channel.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.openflow.channel import ControlChannel
from repro.openflow.messages import (
    FlowModCommand,
    OfpType,
    decode_message,
    encode_features_request,
    encode_flow_mod,
    encode_hello,
)
from repro.switch.actions import Action
from repro.switch.flowtable import FlowMatch

__all__ = ["LsiController"]


class LsiController:
    """Controller endpoint: handshake and flow programming."""

    def __init__(self, channel: ControlChannel, name: str = "ctrl") -> None:
        self.channel = channel
        self.name = name
        self._xids = itertools.count(1)
        self.dpid: Optional[int] = None
        self.ports: dict[int, str] = {}
        self.connected = False
        self.flow_mods_sent = 0
        channel.controller_end.on_receive(self._on_bytes)

    # -- handshake -----------------------------------------------------------
    def handshake(self) -> None:
        """HELLO exchange followed by a features request."""
        self.channel.controller_end.send(encode_hello(next(self._xids)))
        self.channel.controller_end.send(
            encode_features_request(next(self._xids)))
        if self.dpid is None:
            raise RuntimeError(f"{self.name}: features reply not received")
        self.connected = True

    # -- flow programming -------------------------------------------------------
    def flow_add(self, match: FlowMatch, actions: Sequence[Action],
                 priority: int = 100, cookie: int = 0) -> None:
        self.flow_mods_sent += 1
        self.channel.controller_end.send(encode_flow_mod(
            next(self._xids), FlowModCommand.ADD, match, actions,
            priority=priority, cookie=cookie))

    def flow_delete(self, match: FlowMatch,
                    cookie: int = 0, strict: bool = False,
                    priority: int = 0) -> None:
        self.flow_mods_sent += 1
        command = (FlowModCommand.DELETE_STRICT if strict
                   else FlowModCommand.DELETE)
        self.channel.controller_end.send(encode_flow_mod(
            next(self._xids), command, match, (), priority=priority,
            cookie=cookie))

    def flow_delete_by_cookie(self, cookie: int) -> None:
        """Remove every flow installed with ``cookie`` (graph teardown)."""
        self.flow_delete(FlowMatch(), cookie=cookie)

    # -- inbound ---------------------------------------------------------------
    def _on_bytes(self, data: bytes) -> None:
        message = decode_message(data)
        if message.msg_type is OfpType.FEATURES_REPLY:
            self.dpid = message.dpid
            self.ports = dict(message.port_names)
        elif message.msg_type is OfpType.ERROR:
            raise RuntimeError(
                f"{self.name}: switch reported error code {message.code}")
        # A HELLO reply needs no action.
