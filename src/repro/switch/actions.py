"""Flow-entry actions: output, VLAN tag manipulation, header rewrites.

Actions are applied in sequence to a frame; an action list with no
Output action drops the packet (OpenFlow semantics).

One reference, one production form:

* **Reference** — :meth:`~repro.switch.datapath.Datapath.execute_interpreted`
  walks the action list per frame, dispatching on each action's type:
  the property suite's oracle, and the executor of one-shot OpenFlow
  packet-out lists.
* **Production** — :func:`compile_actions` lowers the list *once*
  (:func:`lower_actions`) into ``(composed L2 rewrite, sinks)``
  segments: each run of VLAN/MAC transforms between two emission
  points becomes one field splice (:func:`compile_splice`), and the
  point where a pop / set-vid would hit an untagged frame is resolved
  symbolically, so the per-frame program never inspects an action.
  :class:`~repro.switch.flowtable.FlowEntry` compiles its list at
  construction; chain fusion (:mod:`repro.switch.fusion`) composes the
  same lowering hop by hop into whole-chain programs.

A compiled program is bound to the exact action tuple it was built
from; see :meth:`FlowEntry.invalidate` for the (rare) rebinding case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence, Union

from repro.net.addresses import MacAddress
from repro.net.builder import ParsedFrame, parse_frame
from repro.net.ethernet import EthernetFrame

__all__ = ["Action", "ActionError", "CompiledActions", "Controller",
           "EmitFn", "FLOOD_PORT", "Output", "PopVlan", "PushVlan",
           "SelectOutput", "SetField", "compile_actions", "compile_select",
           "compile_splice", "flow_hash", "flow_key", "lower_actions",
           "rendezvous_select", "resolve_select", "splice_fields_valid"]

#: Pseudo port number: send to every port except ingress.
FLOOD_PORT = 0xFFFB
#: Pseudo port number: punt to the OpenFlow controller.
CONTROLLER_PORT = 0xFFFD


class ActionError(Exception):
    """Invalid action application (e.g. pop on an untagged frame)."""


@dataclass(frozen=True)
class Output:
    """Emit the frame on a port (or FLOOD)."""

    port: int

    def __str__(self) -> str:
        return "output:FLOOD" if self.port == FLOOD_PORT \
            else f"output:{self.port}"


@dataclass(frozen=True)
class Controller:
    """Punt the frame to the controller (packet-in)."""

    max_len: int = 128

    def __str__(self) -> str:
        return "output:CONTROLLER"


@dataclass(frozen=True)
class PushVlan:
    """Tag the frame; the traffic-marking primitive of the adaptation layer."""

    vid: int
    pcp: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.vid <= 4095:
            raise ValueError(f"bad VLAN id {self.vid}")

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        return frame.with_vlan(self.vid, self.pcp)

    def __str__(self) -> str:
        return f"push_vlan:{self.vid}"


@dataclass(frozen=True)
class PopVlan:
    """Strip the outer VLAN tag."""

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if frame.vlan is None:
            raise ActionError("pop_vlan on an untagged frame")
        return frame.without_vlan()

    def __str__(self) -> str:
        return "pop_vlan"


#: 32-bit golden-ratio multiplier (Knuth); the per-step mixer of
#: :func:`flow_hash`.
_HASH_MULT = 0x9E3779B1


def flow_hash(parsed: ParsedFrame) -> int:
    """Deterministic 5-tuple hash of a parsed frame.

    Reads the :class:`~repro.net.builder.ParsedFrame`'s cached views —
    ``ip_ints`` for the addresses, the lazy UDP/TCP decode for the
    ports — so on the batched pipeline (which carries the parse across
    every hop) hashing a frame costs a few integer multiplies and **no
    parsing**.  The value is a pure function of (src, dst, proto,
    sport, dport): every frame of one flow hashes identically in both
    directions of the pipeline and across process restarts (no
    ``hash()`` randomization).  Non-IPv4 frames (ARP, raw L2) hash
    their (src MAC, dst MAC, ethertype): every L2 conversation gets a
    stable value of its own instead of all collapsing to 0 — so
    L2-only traffic both spreads across a replica group *and* keeps
    per-conversation affinity.  Never raises, whatever the payload.
    """
    ints = parsed.ip_ints
    if ints is None:
        eth = parsed.eth
        h = ((int(eth.src) * _HASH_MULT) ^ int(eth.dst)) & 0xFFFFFFFF
        h = ((h * _HASH_MULT) ^ eth.ethertype) & 0xFFFFFFFF
        h = (h * _HASH_MULT) & 0xFFFFFFFF
        return (h ^ (h >> 16)) & 0xFFFF
    h = ((ints[0] * _HASH_MULT) ^ ints[1]) & 0xFFFFFFFF
    h = ((h * _HASH_MULT) ^ parsed.ipv4.proto) & 0xFFFFFFFF
    udp = parsed.udp
    if udp is not None:
        l4 = (udp.src_port << 16) | udp.dst_port
    else:
        tcp = parsed.tcp
        l4 = ((tcp.src_port << 16) | tcp.dst_port) if tcp is not None else 0
    h = ((h ^ l4) * _HASH_MULT) & 0xFFFFFFFF
    # Small replica counts read few bits; finish with a fold so every
    # bit carries entropy from the whole word.
    return (h ^ (h >> 16)) & 0xFFFF


def flow_key(parsed: ParsedFrame) -> tuple:
    """Exact flow identity of a frame (state-table key).

    Where :func:`flow_hash` folds the flow down to 16 bits for the
    rendezvous weights, the *state* table needs collision-free
    identity: a hash collision between two flows must never glue their
    connection state together.  IPv4 frames key on the full 5-tuple
    ints; everything else keys on the L2 conversation (src MAC, dst
    MAC, ethertype).  Pure function of the frame, never raises.
    """
    ints = parsed.ip_ints
    if ints is None:
        eth = parsed.eth
        return (int(eth.src), int(eth.dst), eth.ethertype)
    udp = parsed.udp
    if udp is not None:
        l4 = (udp.src_port << 16) | udp.dst_port
    else:
        tcp = parsed.tcp
        l4 = ((tcp.src_port << 16) | tcp.dst_port) if tcp is not None else 0
    return (ints[0], ints[1], parsed.ipv4.proto, l4)


def _port_seed(port: int) -> int:
    """Per-port rendezvous seed: a 32-bit avalanche of the port number.

    Computed once per compiled program (or once per selection for the
    uncompiled reference path) — never per frame per port.
    """
    x = (port + 0x9E3779B9) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    x = ((x ^ (x >> 13)) * 0xC2B2AE35) & 0xFFFFFFFF
    return (x ^ (x >> 16)) & 0xFFFFFFFF


def rendezvous_select(ports: "tuple[int, ...]", flow: int,
                      seeds: "tuple[int, ...] | None" = None) -> int:
    """Highest-random-weight (rendezvous) port choice for a flow.

    Every (flow, port) pair gets an independent 32-bit weight; the
    port with the highest weight wins (ties break to the lowest port
    number, deterministically).  The defining property — what replaces
    the old ``ports[hash % N]`` — is *minimal churn*: adding a port
    moves exactly the flows the new port now wins (≈1/(N+1) of them),
    removing a port moves exactly the flows it owned (≈1/N), and every
    other flow keeps its port.  Pure integer arithmetic on
    :func:`flow_hash` output: deterministic across process restarts.

    ``seeds`` is the precomputed :func:`_port_seed` tuple aligned with
    ``ports``; hot paths pass it, one-shot callers may omit it.
    """
    if seeds is None:
        seeds = tuple(_port_seed(port) for port in ports)
    best = ports[0]
    x = (flow ^ seeds[0]) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    best_weight = (x ^ (x >> 13)) & 0xFFFFFFFF
    for i in range(1, len(ports)):
        x = (flow ^ seeds[i]) & 0xFFFFFFFF
        x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
        weight = (x ^ (x >> 13)) & 0xFFFFFFFF
        if weight > best_weight or (weight == best_weight
                                    and ports[i] < best):
            best_weight = weight
            best = ports[i]
    return best


def _carried_parse(dp: Any, frame: EthernetFrame) -> ParsedFrame:
    """The pipeline's parse of ``frame``, without re-parsing.

    Every datapath ingress path rebinds ``dp.carried[0]`` to the
    current frame's :class:`ParsedFrame` before actions run, so this
    is an attribute read plus an identity check.  A caller running a
    program *outside* a pipeline pass (tests calling ``entry.compiled``
    directly) has no carried parse and pays a one-off ``parse_frame``
    — never the fast path.
    """
    cell = getattr(dp, "carried", None)
    if cell is not None:
        parsed = cell[0]
        if parsed is not None and parsed.eth is frame:
            return parsed
    return parse_frame(frame)


@dataclass(frozen=True)
class SelectOutput:
    """Hash-select one of several output ports (replica load balancing).

    The steering layer installs this on rules whose destination NF is a
    replica group: the frame leaves on the *rendezvous* winner of its
    flow hash over ``ports`` (:func:`rendezvous_select`), so every
    frame of one 5-tuple always takes the same port — *flow affinity* —
    and a stateful replica behind each port sees complete flows.  When
    the replica set changes, rendezvous hashing bounds the damage to
    ~1/N of flows (the old modulo remapped nearly all of them).

    ``group``, when set, names a per-flow *state table* on the
    executing datapath (:mod:`repro.switch.state`): established flows
    then stick to the replica that owns their state even across
    replica-set changes, not just across hash-stable ones.  The group
    id is codec-serializable (it rides the OpenFlow flow-mod) and is
    chosen by the steering layer to be stable across scale events —
    that stability is what carries ownership from one replica set to
    the next.
    """

    ports: tuple[int, ...]
    group: "str | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", tuple(self.ports))
        if not self.ports:
            raise ValueError("select-output needs at least one port")

    def __str__(self) -> str:
        text = "select:" + "|".join(str(port) for port in self.ports)
        return text if self.group is None else f"{text}@{self.group}"


@dataclass(frozen=True)
class SetField:
    """Rewrite a header field (eth_src / eth_dst / vlan_vid)."""

    field: str
    value: "int | str | MacAddress"

    _ALLOWED = ("eth_src", "eth_dst", "vlan_vid")

    def __post_init__(self) -> None:
        if self.field not in self._ALLOWED:
            raise ValueError(f"unsupported set-field {self.field!r}; "
                             f"one of {self._ALLOWED}")

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if self.field == "eth_src":
            return replace(frame, src=MacAddress(self.value))
        if self.field == "eth_dst":
            return replace(frame, dst=MacAddress(self.value))
        if frame.vlan is None:
            raise ActionError("set vlan_vid on an untagged frame")
        return replace(frame, vlan=int(self.value))

    def __str__(self) -> str:
        return f"set_{self.field}:{self.value}"


def resolve_select(dp: Any, action: SelectOutput,
                   parsed: ParsedFrame) -> int:
    """Reference semantics of :class:`SelectOutput` for one frame.

    Only the interpreted action loop resolves ports through here, so
    the compiled picker (:func:`compile_select`) has exactly one
    oracle: stateless selects are pure rendezvous over the flow hash;
    stateful selects (``group`` set) consult the executing datapath's
    per-flow state table (:mod:`repro.switch.state`).
    """
    if action.group is None:
        return rendezvous_select(action.ports, flow_hash(parsed))
    table = dp.flow_state.table(action.group)
    return table.steer(parsed, action.ports, frozenset(action.ports))


def compile_select(action: SelectOutput):
    """The per-frame replica picker of one SelectOutput, constants hoisted.

    The one place production code builds a replica pick: per-hop
    programs (:func:`compile_actions`) and the chain-fusion select
    tail (:class:`~repro.switch.fusion.FusedSelectChain`) both call
    the returned ``pick(dp, parsed) -> port``, so they choose from
    identical constants — ports, aligned rendezvous seeds
    (:func:`_port_seed`) and, for stateful spreads, the frozen
    live-port set.  A stateful picker resolves its datapath's state
    table on first use and caches it (a program only ever runs on the
    datapath whose table holds its entry).
    """
    ports = action.ports
    seeds = tuple(_port_seed(port) for port in ports)
    group = action.group
    if group is None:
        def pick(dp: Any, parsed: ParsedFrame) -> int:
            return rendezvous_select(ports, flow_hash(parsed), seeds)
        return pick
    port_set = frozenset(ports)
    cache: list = [None, None]

    def pick_stateful(dp: Any, parsed: ParsedFrame) -> int:
        if cache[0] is not dp:
            cache[0] = dp
            cache[1] = dp.flow_state.table(group)
        return cache[1].steer(parsed, ports, port_set, seeds)
    return pick_stateful


Action = Union[Output, Controller, PushVlan, PopVlan, SetField,
               SelectOutput]

#: ``emit(out_port, in_port, frame)`` — how a compiled program hands a
#: frame to the datapath's routing policy (FLOOD expansion, drops).
EmitFn = Callable[[int, int, EthernetFrame], None]

#: ``compiled(dp, in_port, frame, emit)`` — one call runs the whole
#: action list for one frame.  ``dp`` is duck-typed: the program only
#: touches ``packet_in_handler``, ``action_errors``, ``dropped`` and —
#: for hash-select programs — ``carried``, the two-slot
#: ``[ParsedFrame, wire_len]`` cell every datapath ingress path rebinds
#: to the current frame before actions run (see :func:`_carried_parse`).
#: Every compiled program carries a ``mutates`` attribute: True when the
#: list contains a frame transform (push/pop/set-field), i.e. when an
#: emitted frame can be a different object than the input frame.  A
#: non-mutating program only ever emits the ingress frame itself, which
#: lets ``Datapath._batch_hop`` forward its carried parse without
#: even an identity check.  A program that is nothing but one constant
#: output also carries ``out_port``.
CompiledActions = Callable[[Any, int, EthernetFrame, EmitFn], None]


def splice_fields_valid(fields: dict) -> bool:
    """Whether a composed rewrite passes the ``EthernetFrame``
    constructor checks for every frame (VLAN id and PCP in range)."""
    vlan = fields.get("vlan")
    if vlan is not None and not 0 <= vlan <= 0xFFF:
        return False
    pcp = fields.get("vlan_pcp")
    if pcp is not None and not 0 <= pcp <= 7:
        return False
    return True


def compile_splice(fields: dict):
    """The frame→frame closure applying one composed L2 rewrite, or
    ``None`` for the identity.

    ``replace(eth, **fields)`` would run the dataclass constructor
    and its range checks once per frame; the constants are validated
    once, here, and the splice builds the frame structurally
    (``__new__`` + one dict merge).  A constant the constructor would
    reject keeps the per-frame ``replace``, which raises on every
    frame exactly as the reference interpreter's ``apply`` does.
    """
    if not fields:
        return None
    fields = dict(fields)
    if not splice_fields_valid(fields):
        return lambda eth: replace(eth, **fields)

    def splice(eth: EthernetFrame, _new=EthernetFrame.__new__,
               _cls=EthernetFrame, _fields=fields) -> EthernetFrame:
        out = _new(_cls)
        out.__dict__ = {**eth.__dict__, **_fields}
        return out
    return splice


def lower_actions(actions: Sequence[Action]) -> tuple:
    """Lower an action list to ``(segments, cut_tagged, cut_untagged)``.

    The one place the VLAN/MAC rewrite composition lives.  A *segment*
    is ``(fields, sinks)``: ``fields`` is the ``EthernetFrame`` field
    dict composed from the transforms since the previous emission
    point (relative to the frame that point emitted; empty when
    nothing was rewritten), ``sinks`` the emitting actions
    (``Output`` / ``SelectOutput`` / ``Controller``) that see the
    rewritten frame.  A one-port ``SelectOutput`` has nothing to pick
    and lowers to a plain ``Output``.

    The composition is frame-independent; only *where the list aborts*
    is not — ``PopVlan`` / set ``vlan_vid`` on an untagged frame is an
    :class:`ActionError` that ends the list with the segments before
    it already emitted.  That point is resolved symbolically for both
    ingress tag states: ``cut_tagged`` / ``cut_untagged`` is how many
    sinks a frame that arrived tagged / untagged reaches before the
    error, ``None`` when it runs the whole list.

    Unknown action types (and malformed set-field MACs) fail here, at
    install time, instead of on the first matching packet.
    """
    segments: list = []
    fields: dict = {}
    emitted = False  # has the open ``fields`` dict been emitted yet?
    tagged = [True, False]  # current tag state per ingress tag state
    cuts: list = [None, None]
    reached = 0  # sinks so far
    for action in actions:
        kind = type(action)
        if kind is Output or kind is Controller or kind is SelectOutput:
            reached += 1
            if kind is SelectOutput and len(action.ports) == 1:
                action = Output(action.ports[0])
            if emitted:
                segments[-1][1].append(action)
            else:
                segments.append((fields, [action]))
                emitted = True
            continue
        if emitted:
            fields = {}
            emitted = False
        if kind is PushVlan:
            fields["vlan"] = action.vid
            fields["vlan_pcp"] = action.pcp
            tagged = [True, True]
        elif kind is PopVlan or (kind is SetField
                                 and action.field == "vlan_vid"):
            for branch in (0, 1):
                if not tagged[branch] and cuts[branch] is None:
                    cuts[branch] = reached
            if kind is PopVlan:
                fields["vlan"] = None
                fields["vlan_pcp"] = 0
                tagged = [False, False]
            else:
                fields["vlan"] = int(action.value)
        elif kind is SetField:
            fields["src" if action.field == "eth_src" else "dst"] = \
                MacAddress(action.value)
        else:
            raise TypeError(f"unknown action {action!r}")
    return segments, cuts[0], cuts[1]


def _pure_output(out: int) -> CompiledActions:
    def run_out(dp: Any, in_port: int, frame: EthernetFrame,
                emit: EmitFn) -> None:
        emit(out, in_port, frame)
    run_out.mutates = False
    # Pure-output marker: the batched pipeline reads this to skip the
    # program call (and the carried-cell rebind) entirely and enqueue
    # the parsed frame straight on the port.
    run_out.out_port = out
    return run_out


def _compile_sink(action: "Output | SelectOutput | Controller"):
    """``sink(dp, in_port, frame, current, emit)`` for one emitting
    action: ``frame`` is the ingress frame, ``current`` the rewritten
    one the sink hands on."""
    if type(action) is Output:
        out = action.port

        def output(dp, in_port, frame, current, emit) -> None:
            emit(out, in_port, current)
        return output
    if type(action) is SelectOutput:
        pick = compile_select(action)

        def select(dp, in_port, frame, current, emit) -> None:
            # Hash on the *ingress* frame's parse: every transform is
            # L2-only, so the 5-tuple is the carried one either way.
            emit(pick(dp, _carried_parse(dp, frame)), in_port, current)
        return select

    def punt(dp, in_port, frame, current, emit) -> None:
        handler = dp.packet_in_handler
        if handler is not None:
            handler(dp, in_port, current)
        else:
            dp.dropped += 1  # no controller to punt to
    return punt


def compile_actions(actions: Sequence[Action]) -> CompiledActions:
    """Compile an action list into a single per-frame closure.

    The returned program is semantically identical to interpreting the
    list: transforms apply left to right, an :class:`ActionError`
    increments ``dp.action_errors`` and aborts the rest of the list
    (frames already emitted stay emitted), and a list containing no
    Output/Controller counts the frame as dropped.  The property suite
    in ``tests/test_compiled_actions.py`` asserts this equivalence over
    random action lists and frames.

    There is one lowering (:func:`lower_actions`): each segment's
    rewrite becomes one :func:`compile_splice` closure and each sink
    one :func:`_compile_sink` closure, so the per-frame work is a walk
    over ``(rewrite, sink)`` steps — cut short, per ingress tag state,
    at the symbolically resolved error point.  Constant work (set-field
    MAC targets, rendezvous seeds) happens here, not per frame.
    """
    acts = tuple(actions)
    # Most installs are plain forwarding rules: skip the lowering.
    if len(acts) == 1 and type(acts[0]) is Output:
        return _pure_output(acts[0].port)
    segments, cut_tagged, cut_untagged = lower_actions(acts)
    if len(acts) == 1 and segments and type(segments[0][1][0]) is Output:
        return _pure_output(segments[0][1][0].port)  # one-port select

    flat = []
    for fields, sinks in segments:
        rewrite = compile_splice(fields)
        for action in sinks:
            flat.append((rewrite, _compile_sink(action)))
            rewrite = None
    steps = tuple(flat)
    # ``plans[frame.vlan is None]``: the steps a tagged / untagged
    # ingress frame runs, and whether they end in an action error.
    plans = ((steps[:cut_tagged], cut_tagged is not None),
             (steps[:cut_untagged], cut_untagged is not None))
    drops = not steps

    def run(dp: Any, in_port: int, frame: EthernetFrame,
            emit: EmitFn) -> None:
        steps, failed = plans[frame.vlan is None]
        current = frame
        for rewrite, sink in steps:
            if rewrite is not None:
                current = rewrite(current)
            sink(dp, in_port, frame, current, emit)
        if failed:
            dp.action_errors += 1
        elif drops:
            dp.dropped += 1
    run.mutates = any(type(action) in (PushVlan, PopVlan, SetField)
                      for action in acts)
    return run
