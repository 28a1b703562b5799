"""The traced run's span recorder and its fixed list of timing shims.

nfbench edits no source: the traced run wraps a listed set of callables
at each layer boundary (:data:`SHIMS`) and puts the originals back when
it ends.  A wrapped call records one span — name, start, end, the span
that caused it, and the trace id of the batch or request in flight —
into an in-memory list, and folds it into per-name totals as it closes:
call count, inclusive time, self time (inclusive minus the part child
spans cover, their shims' own cost included, so that cost is in no
layer's self time) and, where a call carries many frames, the frame
count.

Everything the shims time is a public name of its layer, with two
listed exceptions that have no public equivalent: the namespace stack
entry points ``NetworkNamespace._stack_input[_batch]`` (what a device
calls to hand frames to the IP stack) and the lock proxy around
``Reconciler.lock``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, NamedTuple, Optional

__all__ = ["SHIMS", "Shim", "SpanTracer", "installed"]

_clock = time.perf_counter_ns

#: spans kept for the ``--out`` dump; totals keep counting past it
MAX_SPANS = 200_000


class SpanTracer:
    """Span list plus per-name running totals (see module docstring)."""

    def __init__(self) -> None:
        #: wrapped calls pass straight through while this is False
        self.on = False
        #: id of the batch / request the generator is driving
        self.trace_id = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: per name id: [calls, inclusive ns, self ns, units]
        self.totals: list[list[int]] = []
        #: per name id: every inclusive duration, for names that need
        #: a median (see ``keep_samples``)
        self.samples: dict[int, list[int]] = {}
        #: (span id, parent span id, trace id, name id, start ns, end ns)
        self.spans: list[tuple] = []
        #: scratch state of the ``rename`` callbacks
        self.memo: dict = {}
        #: ``(file, first line, name)`` of every wrapped function ->
        #: its span name; the key ``pstats`` uses, for the cross-check
        self.entry_points: dict[tuple, str] = {}
        self._next_span = 0
        self._stacks: dict[int, list] = {}

    def name_id(self, name: str, keep_samples: bool = False) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0, 0, 0, 0])
        if keep_samples:
            self.samples.setdefault(index, [])
        return index

    # -- recording ---------------------------------------------------------
    def push(self) -> list:
        """Open a span on the calling thread; returns its frame."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        self._next_span += 1
        frame = [self._next_span, 0, stack]
        stack.append(frame)
        return frame

    def pop(self, frame: list, name_id: int, start: int, end: int,
            units: int = 0, entered: int = 0) -> None:
        """Close ``frame``: fold it into the totals, charge the parent.

        ``start``..``end`` is the wrapped call itself; ``entered`` is
        when its shim was entered.  The parent is charged from
        ``entered`` to the end of this method, so the shim's own cost
        lands in nobody's self time.
        """
        stack = frame[2]
        stack.pop()
        duration = end - start
        total = self.totals[name_id]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        total[3] += units
        kept = self.samples.get(name_id)
        if kept is not None:
            kept.append(duration)
        parent = stack[-1] if stack else None
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent[0] if parent else 0,
                               self.trace_id, name_id, start, end))
        if parent is not None:
            parent[1] += _clock() - (entered or start)

    @property
    def span_count(self) -> int:
        """Spans recorded so far (the list keeps the first MAX_SPANS)."""
        return self._next_span

    def span(self, name: str):
        """Context manager for the harness's own spans (one per op)."""
        return _HarnessSpan(self, self.name_id(name))

    # -- reading -----------------------------------------------------------
    def total(self, name: str) -> "tuple[int, int, int, int]":
        index = self._ids.get(name)
        if index is None:
            return (0, 0, 0, 0)
        return tuple(self.totals[index])

    def durations(self, name: str) -> list[int]:
        index = self._ids.get(name)
        return self.samples.get(index, []) if index is not None else []

    def self_ns_by_prefix(self) -> dict[str, int]:
        """Self time summed by the first dotted component of each name."""
        shares: dict[str, int] = {}
        for name, total in zip(self.names, self.totals):
            prefix = name.split(".", 1)[0]
            shares[prefix] = shares.get(prefix, 0) + total[2]
        return shares

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["span", "parent", "trace", "name", "start_ns",
                           "end_ns"],
                "spans": self.spans,
                "dropped": self.span_count - len(self.spans)}


class _HarnessSpan:
    __slots__ = ("tracer", "name_id", "frame", "start")

    def __init__(self, tracer: SpanTracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.frame = self.tracer.push()
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.pop(self.frame, self.name_id, self.start, _clock())


def _wrap(tracer: SpanTracer, fn: Callable, name: str,
          units: Optional[Callable] = None,
          rename: Optional[Callable] = None,
          keep_samples: bool = False) -> Callable:
    """``fn`` with a span around it.

    ``units(args)`` gives the frames (or rules) the call carries;
    ``rename(args, result, memo)`` picks the span name once the call is
    over (a verb, a hit/insert split), composed as ``name.suffix``.
    """
    fixed = tracer.name_id(name, keep_samples) if rename is None else -1
    code = getattr(fn, "__code__", None)
    if code is not None:
        tracer.entry_points[(code.co_filename, code.co_firstlineno,
                             code.co_name)] = name

    def shim(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        entered = _clock()
        frame = tracer.push()
        result = None
        start = _clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _clock()
            name_id = fixed
            if rename is not None:
                name_id = tracer.name_id(
                    f"{name}.{rename(args, result, tracer.memo)}",
                    keep_samples)
            tracer.pop(frame, name_id, start, end,
                       units(args) if units is not None else 0, entered)

    shim.__wrapped__ = fn
    shim.__name__ = getattr(fn, "__name__", name)
    return shim


class Shim(NamedTuple):
    """One wrapped callable: ``module:Class.attr`` or ``module:func``."""

    target: str
    span: str
    units: Optional[Callable] = None
    rename: Optional[Callable] = None
    keep_samples: bool = False


def _frames_arg(index: int) -> Callable:
    def count(args) -> int:
        frames = args[index]
        return len(frames) if hasattr(frames, "__len__") else 0
    return count


def _steer_outcome(args, result, memo: dict) -> str:
    # The table's own ``inserted`` counter says whether this call
    # inserted; the previous reading lives in the tracer's memo
    # (FlowStateTable is slot-only, so not on the instance).
    table = args[0]
    key = ("steer", id(table))
    before = memo.get(key)
    memo[key] = table.inserted
    return "insert" if before is not None and before != table.inserted \
        else "hit"


def _verb(args, result, memo: dict) -> str:
    return str(args[1]).upper()


def _tick_outcome(args, result, memo: dict) -> str:
    return "noop" if result is not None and not result.steps else "work"


#: The fixed shim list.  Span names start with the layer's short name;
#: ``layers.LAYER_OF_PREFIX`` maps them back to package names.
SHIMS: tuple[Shim, ...] = (
    # net
    Shim("repro.net.builder:parse_frame", "net.parse"),
    Shim("repro.net.ethernet:EthernetFrame.from_bytes", "net.from_bytes"),
    Shim("repro.net.ipv4:IPv4Packet.from_bytes", "net.from_bytes"),
    Shim("repro.net.transport:UdpDatagram.from_bytes", "net.from_bytes"),
    Shim("repro.net.transport:TcpSegment.from_bytes", "net.from_bytes"),
    Shim("repro.net.ipv4:IPv4Packet.to_bytes", "net.to_bytes"),
    Shim("repro.net.transport:UdpDatagram.to_bytes", "net.to_bytes"),
    Shim("repro.net.transport:TcpSegment.to_bytes", "net.to_bytes"),
    # switch.flowtable
    Shim("repro.switch.flowtable:FlowTable.lookup", "flowtable.lookup"),
    Shim("repro.switch.flowtable:FlowTable.add", "flowtable.add"),
    Shim("repro.switch.flowtable:FlowTable.delete", "flowtable.delete"),
    Shim("repro.switch.flowtable:FlowTable.slice_winner",
         "flowtable.slice_winner"),
    # switch.actions (compile_actions is special-cased in installed():
    # the programs it returns are wrapped too, one span name per shape)
    Shim("repro.switch.actions:compile_actions", "actions.compile"),
    # switch.fusion
    Shim("repro.switch.fusion:FusionEngine.trace", "fusion.trace"),
    Shim("repro.switch.fusion:FusionEngine.build_slot", "fusion.build_slot"),
    Shim("repro.switch.fusion:FusionEngine.invalidate", "fusion.invalidate"),
    Shim("repro.switch.fusion:FusedChain.run", "fusion.run",
         units=_frames_arg(1)),
    Shim("repro.switch.fusion:FusedSelectChain.run", "fusion.run",
         units=_frames_arg(1)),
    # switch.state
    Shim("repro.switch.state:FlowStateTable.steer", "state.steer",
         rename=_steer_outcome),
    # switch.datapath / lsi
    Shim("repro.switch.datapath:Datapath.process_batch_from",
         "datapath.batch", units=_frames_arg(2)),
    Shim("repro.switch.datapath:Datapath.process", "datapath.process"),
    # linuxnet
    Shim("repro.linuxnet.devices:NetDevice.transmit",
         "linuxnet.device_xmit", units=lambda args: 1),
    Shim("repro.linuxnet.devices:NetDevice.transmit_batch",
         "linuxnet.device_xmit", units=_frames_arg(1)),
    Shim("repro.linuxnet.devices:VlanDevice.transmit",
         "linuxnet.device_xmit", units=lambda args: 1),
    Shim("repro.linuxnet.devices:VlanDevice.transmit_batch",
         "linuxnet.device_xmit", units=_frames_arg(1)),
    Shim("repro.linuxnet.namespace:NetworkNamespace._stack_input",
         "linuxnet.ns_forward", units=lambda args: 1),
    Shim("repro.linuxnet.namespace:NetworkNamespace._stack_input_batch",
         "linuxnet.ns_forward", units=_frames_arg(2)),
    Shim("repro.linuxnet.iptables:Ruleset.traverse",
         "linuxnet.iptables_traverse"),
    Shim("repro.linuxnet.conntrack:ConnTrack.lookup",
         "linuxnet.conntrack_lookup"),
    Shim("repro.linuxnet.conntrack:ConnTrack.create",
         "linuxnet.conntrack_create"),
    Shim("repro.linuxnet.cmdline:ScriptRunner.run", "linuxnet.cmd"),
    # compute / nnf
    Shim("repro.compute.manager:ComputeManager.create", "compute.create"),
    Shim("repro.compute.manager:ComputeManager.configure",
         "compute.configure"),
    Shim("repro.compute.manager:ComputeManager.start", "compute.start"),
    Shim("repro.compute.manager:ComputeManager.stop", "compute.stop"),
    Shim("repro.compute.manager:ComputeManager.update", "compute.update"),
    Shim("repro.compute.manager:ComputeManager.destroy", "compute.destroy"),
    Shim("repro.compute.manager:ComputeManager.health", "compute.health"),
    Shim("repro.nnf.sharing:SharedNnfManager.attach", "nnf.shared_attach"),
    # core.steering
    Shim("repro.core.steering:TrafficSteeringManager.create_graph_network",
         "steering.create_network"),
    Shim("repro.core.steering:TrafficSteeringManager.remove_graph_network",
         "steering.remove_network"),
    Shim("repro.core.steering:TrafficSteeringManager.attach_instances",
         "steering.attach_instances"),
    Shim("repro.core.steering:TrafficSteeringManager.install_rules",
         "steering.install_rule", units=_frames_arg(3)),
    Shim("repro.core.steering:TrafficSteeringManager.uninstall_rule",
         "steering.uninstall_rule"),
    Shim("repro.core.steering:TrafficSteeringManager.invalidate_fusion",
         "steering.invalidate_fusion"),
    Shim("repro.core.steering:TrafficSteeringManager.inject_batch",
         "steering.inject", units=_frames_arg(2)),
    # openflow
    Shim("repro.openflow.controller:LsiController.flow_add",
         "openflow.flowmod"),
    Shim("repro.openflow.controller:LsiController.flow_delete",
         "openflow.flowmod"),
    Shim("repro.openflow.channel:Endpoint.send", "openflow.msg"),
    # core.reconciler / orchestrator
    Shim("repro.core.reconciler:Reconciler.set_desired",
         "reconciler.set_desired"),
    Shim("repro.core.reconciler:Reconciler.plan", "reconciler.plan"),
    Shim("repro.core.reconciler:Reconciler.tick", "reconciler.tick",
         rename=_tick_outcome),
    Shim("repro.core.orchestrator:LocalOrchestrator.apply",
         "reconciler.apply"),
    Shim("repro.core.orchestrator:LocalOrchestrator.undeploy",
         "reconciler.undeploy"),
    Shim("repro.core.orchestrator:LocalOrchestrator.status",
         "reconciler.status"),
    # nffg
    Shim("repro.nffg.json_codec:nffg_from_dict", "nffg.decode"),
    Shim("repro.nffg.json_codec:nffg_to_dict", "nffg.encode"),
    Shim("repro.nffg.validate:validate_nffg", "nffg.validate"),
    Shim("repro.nffg.replicas:expand_replicas", "nffg.expand"),
    Shim("repro.nffg.diff:diff_nffg", "nffg.diff"),
    # catalog / resources
    Shim("repro.catalog.resolver:VnfResolver.resolve", "catalog.resolve"),
    Shim("repro.resources.accounting:ResourceAccountant.allocate",
         "resources.admit"),
    # rest
    Shim("repro.rest.app:RestApp.handle", "rest.handle", rename=_verb,
         keep_samples=True),
    Shim("repro.rest.app:Response.to_bytes", "rest.encode"),
    # telemetry
    Shim("repro.telemetry.metrics:MetricsRegistry.sample",
         "telemetry.sample"),
    Shim("repro.telemetry.export:render_prometheus", "telemetry.render"),
    Shim("repro.telemetry.histograms:render_histograms",
         "telemetry.render"),
)

_ACTION_SHAPES = {
    ("Output",): "output",
    ("PushVlan", "Output"): "push-output",
    ("PopVlan", "Output"): "pop-output",
}


def _action_shape(actions) -> str:
    kinds = tuple(type(action).__name__ for action in actions)
    if "SelectOutput" in kinds:
        return "select"
    return _ACTION_SHAPES.get(kinds, "other")


def _wrap_compile(tracer: SpanTracer, compile_fn: Callable) -> Callable:
    """``compile_actions`` timed, and each program it returns timed
    under ``actions.exec.<shape>`` (attributes the datapath reads off
    the program — ``mutates``, ``out_port`` — carry over)."""
    timed_compile = _wrap(tracer, compile_fn, "actions.compile")

    def compile_shim(actions):
        program = timed_compile(actions)
        shim = _wrap(tracer, program,
                     f"actions.exec.{_action_shape(tuple(actions))}")
        shim.__dict__.update(program.__dict__)
        return shim

    compile_shim.__wrapped__ = compile_fn
    return compile_shim


class _TimedLock:
    """Context-manager proxy timing how long ``__enter__`` waits."""

    __slots__ = ("lock", "tracer", "name_id")

    def __init__(self, lock, tracer: SpanTracer, name_id: int) -> None:
        self.lock = lock
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        tracer = self.tracer
        if not tracer.on:
            return self.lock.__enter__()
        entered = _clock()
        frame = tracer.push()
        start = _clock()
        try:
            return self.lock.__enter__()
        finally:
            tracer.pop(frame, self.name_id, start, _clock(), 0, entered)

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.lock, name)


def _resolve(target: str):
    """``(owner, attribute name, raw attribute)`` of a shim target."""
    module_name, _, path = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, vars(owner)[attr]


class installed:
    """``with installed(tracer):`` — every shim in :data:`SHIMS` live.

    Module-level functions are rebound in every loaded ``repro`` module
    that imported them by name; on exit every binding goes back.
    """

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> SpanTracer:
        tracer = self.tracer
        try:
            for shim in SHIMS:
                owner, attr, raw = _resolve(shim.target)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(_wrap(
                        tracer, raw.__func__, shim.span, shim.units,
                        shim.rename, shim.keep_samples)))
                    continue
                if attr == "compile_actions":
                    wrapped = _wrap_compile(tracer, raw)
                else:
                    wrapped = _wrap(tracer, raw, shim.span, shim.units,
                                    shim.rename, shim.keep_samples)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, key, wrapped)
            self._install_lock_proxy()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return tracer

    def _install_lock_proxy(self) -> None:
        from repro.core.reconciler import Reconciler
        tracer = self.tracer
        name_id = tracer.name_id("reconciler.lock_wait")
        original = vars(Reconciler)["lock"]

        def lock(self, graph_id):
            return _TimedLock(original(self, graph_id), tracer, name_id)

        self._set(Reconciler, "lock", lock)

    def __exit__(self, *exc) -> None:
        self.tracer.on = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
