"""OpenFlow-style control channel between controllers and LSIs.

Each LSI in the compute node "is managed by its own OpenFlow controller
that dynamically inserts the proper rules in flow table(s)" (paper §2).
This package implements a binary, struct-packed message codec modelled
on OpenFlow 1.0, cut to the messages steering sends and the switch
answers (HELLO / FEATURES_REQUEST / FEATURES_REPLY / FLOW_MOD / ERROR),
an in-process channel that really serialises every message to bytes
and back, the switch-side agent, and the controller class the
traffic-steering manager drives.

The wire format is OpenFlow-*inspired* rather than byte-compatible
with the OpenFlow 1.0 specification: the type codes, header and
FLOW_MOD semantics follow it, while the match and action bodies are
simplified TLV layouts.  Table misses are not punted to the
controller; the datapath counts them as drops.
"""

from repro.openflow.channel import ControlChannel
from repro.openflow.controller import LsiController
from repro.openflow.messages import (
    FlowModCommand,
    OfpType,
    decode_message,
    encode_flow_mod,
    encode_hello,
)
from repro.openflow.agent import SwitchAgent

__all__ = [
    "ControlChannel",
    "FlowModCommand",
    "LsiController",
    "OfpType",
    "SwitchAgent",
    "decode_message",
    "encode_flow_mod",
    "encode_hello",
]
