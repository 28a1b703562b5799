"""The four nfbench workloads.

Each workload builds its system through the program's public entry
points only (``repro.switch``, ``ComputeNode``, ``NodeHttpServer``,
``ControlLoop``), drives it as one closed loop — the next operation
starts when the previous one has returned — and checks what came out.
The runner (:mod:`.harness`) owns the clock and the window; a workload
only says what one cycle is and times its operations through the
:class:`Recorder` it is handed.
"""

from __future__ import annotations

import http.client
import json
import time
from array import array

from repro.core.node import ComputeNode
from repro.linuxnet.devices import VethPair
from repro.resources.capabilities import NodeCapabilities, NodeClass
from repro.rest.server import NodeHttpServer
from repro.switch import (
    Datapath,
    FlowEntry,
    FlowMatch,
    Output,
    SelectOutput,
    VirtualLink,
)
from repro.telemetry.loop import ControlLoop

from . import gen

__all__ = ["BY_NAME", "ControlChurn", "NodeNat", "Recorder", "SwitchFast",
           "SwitchMixed", "Workload"]

_clock = time.perf_counter_ns

#: hops of the bare switch chain
HOPS = 4
#: state group of the terminal select in ``switch-mixed``
_LB_GROUP = "nfbench-lb"
_SHARED_NAT = "iptables-nat"


class Recorder:
    """Wall time of every closed-loop operation of one window."""

    def __init__(self, tracer=None) -> None:
        #: ns per operation; a packed array, so the sample store costs
        #: 8 bytes an operation and a faster run does not read as a
        #: bigger ``rss_mb``
        self.times = array("q")
        self.tracer = tracer

    def op(self, fn, *args):
        """Run and time one operation; returns what ``fn`` returns."""
        tracer = self.tracer
        if tracer is None:
            start = _clock()
            result = fn(*args)
            self.times.append(_clock() - start)
            return result
        tracer.trace_id += 1
        with tracer.span("harness.op"):
            start = _clock()
            result = fn(*args)
            self.times.append(_clock() - start)
        return result


class Workload:
    """What the runner needs from a workload."""

    name = ""
    #: set-ups per run (``setup_s`` and, where activation happens in
    #: set-up, ``activate_ms_p50`` are quiet-host estimates over them)
    setup_reps = 3

    def __init__(self, seed: int, small: bool = False) -> None:
        if small:  # the smoke test's sizes (small inputs as well)
            self.setup_reps = 1
            self.warmup_cycles = 1
        #: operations attempted / failed so far (frames or requests
        #: and post-conditions); the runner reports them verbatim
        self.attempted = 0
        self.failed = 0
        #: verified work since :meth:`begin_window`
        self.work_done = 0
        #: first few failures, in words
        self.problems: list[str] = []
        #: configuration request -> first frame at the egress, ms
        self.activations: list[float] = []

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(what)

    def absorb(self, other: "Workload") -> None:
        """Take over another instance's tallies (a throw-away set-up
        copy, or the reference pass of a traced run)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.activations += other.activations

    def setup(self) -> None:
        """Build the system (may be called again after teardown)."""
        raise NotImplementedError

    def warmup(self) -> None:
        """A fixed number of cycles that fuse programs and prime state."""
        recorder = Recorder()
        for _ in range(self.warmup_cycles):
            self.cycle(recorder)

    def begin_window(self) -> None:
        self.work_done = 0

    def cycle(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def after_window(self, recorder: Recorder) -> None:
        """Measured work that follows the window (fleet ticks)."""

    def verify(self) -> None:
        """End-of-run output checks; failures go through :meth:`fail`."""

    def counts(self) -> dict:
        """Cumulative public counters the layer metrics are read from."""
        return {}

    def reported(self) -> dict:
        """Untraced figures reported without a bound (control fleet)."""
        return {}

    def teardown(self) -> None:
        pass


# -- bare switch ---------------------------------------------------------------

def _sink(datapath: Datapath, name: str, capture):
    """A terminal port: a counting sink, or (``capture`` a list) a
    device whose wire side records ``(port_no, frame)``."""
    if capture is None:
        return datapath.add_port(name)
    pair = VethPair(f"{datapath.name}-{name}", f"{datapath.name}-{name}-w")
    pair.b.set_up()
    port = datapath.add_port(name, device=pair.a)
    pair.b.attach_handler(
        lambda device, frame, n=port.port_no: capture.append((n, frame)))
    return port


def _chain(first_in_ports: int):
    """``HOPS`` datapaths joined by virtual links with port-only rules on
    every hop but the last; returns ``(hops, in_port of the last hop)``."""
    hops = [Datapath(0x9000 + i, name=f"hop{i}") for i in range(HOPS)]
    for n in range(first_in_ports):
        hops[0].add_port(f"ingress{n + 1}")
    in_ports = list(range(1, first_in_ports + 1))
    for left, right in zip(hops, hops[1:]):
        link = VirtualLink.connect(left, right, name=f"vl-{left.name}")
        out = link.far_port(left).port_no
        for in_port in in_ports:
            left.install(FlowEntry(match=FlowMatch(in_port=in_port),
                                   actions=(Output(out),)))
        in_ports = [link.far_port(right).port_no]
    return hops, in_ports[0]


def build_fast(capture=None):
    """The ``switch-fast`` topology; returns ``(hops, sinks)``."""
    hops, last_in = _chain(1)
    sink = _sink(hops[-1], "sink", capture)
    hops[-1].install(FlowEntry(match=FlowMatch(in_port=last_in),
                               actions=(Output(sink.port_no),)))
    return hops, [sink]


def build_mixed(filler: int, capacity: int, capture=None):
    """The ``switch-mixed`` topology; returns ``(hops, sinks)``.

    Ingress table: ``filler`` steering-shaped ``(in_port, vlan)``
    entries with a low-priority CIDR wildcard every tenth (the shape of
    ``perf.dataplane.build_steering_table``), port-only rules on both
    ingress ports, and on port 2 a higher-priority ``ip_dst`` rule —
    what steering emits for endpoint classification — which turns that
    port's dispatch slot negative.  The last hop spreads over three
    replica ports through a capacity-bounded state table.
    """
    hops, last_in = _chain(2)
    ingress = hops[0]
    out = ingress.port_by_name(f"vl-{ingress.name}-{hops[1].name}").port_no
    for k in range(filler):
        ingress.install(FlowEntry(
            match=FlowMatch(in_port=10 + k % 8, vlan_vid=100 + k // 8),
            actions=(Output(out),)))
        if k % 10 == 0:
            ingress.install(FlowEntry(
                match=FlowMatch(in_port=10 + k % 8,
                                ip_dst=f"10.{k % 200}.0.0/16"),
                actions=(Output(out),), priority=10))
    ingress.install(FlowEntry(
        match=FlowMatch(in_port=2, ip_dst="10.200.0.0/16"),
        actions=(Output(out),), priority=200))
    last = hops[-1]
    last.flow_state.capacity = capacity
    sinks = [_sink(last, f"replica{n}", capture) for n in range(3)]
    last.install(FlowEntry(
        match=FlowMatch(in_port=last_in),
        actions=(SelectOutput(tuple(s.port_no for s in sinks),
                              group=_LB_GROUP),)))
    return hops, sinks


_FUSION_KEYS = ("hits", "misses", "dispatch-hits", "dispatch-misses",
                "invalidations", "programs-built")


def _fusion_totals(per_engine) -> dict:
    """``FusionEngine.stats()`` dicts summed over several engines."""
    totals = dict.fromkeys(_FUSION_KEYS, 0)
    for stats in per_engine:
        for key in _FUSION_KEYS:
            totals[key] += stats[key]
    return totals


def _sink_totals(sinks) -> "list[tuple[int, int]]":
    return [(port.tx_packets, port.tx_bytes) for port in sinks]


class _Switch(Workload):
    """Shared parts of the two bare-switch workloads."""

    def _build(self, capture=None):
        raise NotImplementedError

    def _first_frames(self) -> "list[tuple[int, object]]":
        """One ``(in_port, frame)`` per ingress port, for activation."""
        raise NotImplementedError

    def _replay_batches(self) -> "list[tuple[int, list]]":
        """``(in_port, frames)`` batches for the reference replay."""
        raise NotImplementedError

    def setup(self) -> None:
        started = _clock()
        self.hops, self.sinks = self._build()
        self.ingress = self.hops[0]
        probes = self._first_frames()
        for in_port, frame in probes:
            self.ingress.process_batch_from(in_port, [frame])
        delivered = sum(port.tx_packets for port in self.sinks)
        self.activations.append((_clock() - started) / 1e6)
        self.attempted += len(probes)
        if delivered != len(probes):
            self.fail(len(probes) - delivered,
                      f"first frames: {delivered}/{len(probes)} at the sink")
        self.offered = 0
        self._sink_base = delivered

    def verify(self) -> None:
        # Sink counters equal offered frames (the window's share was
        # already credited cycle by cycle or here, see subclasses).
        delivered = sum(p.tx_packets for p in self.sinks) - self._sink_base
        if delivered != self.offered:
            self.fail(abs(self.offered - delivered),
                      f"sinks counted {delivered}, offered {self.offered}")
        # Replay one batch per ingress port through the measured
        # topology and through a fresh reference one driven frame by
        # frame with fusion off; per replica port, packets and bytes
        # must agree, and the reference must emit the input bytes.
        captured: list = []
        reference, ref_sinks = self._build(capture=captured)
        for datapath in reference:
            datapath.fusion.enabled = False
        before = _sink_totals(self.sinks)
        sent = []
        for in_port, frames in self._replay_batches():
            self.ingress.process_batch_from(in_port, frames)
            for frame in frames:
                reference[0].process(in_port, frame)
            sent += frames
        self.attempted += len(sent)
        after = _sink_totals(self.sinks)
        for index, port in enumerate(ref_sinks):
            got = [frame for number, frame in captured
                   if number == port.port_no]
            want = (len(got), sum(len(frame) for frame in got))
            seen = (after[index][0] - before[index][0],
                    after[index][1] - before[index][1])
            if seen != want:
                self.fail(abs(seen[0] - want[0]) or 1,
                          f"replay: {port.name} measured {seen}, "
                          f"reference {want}")
        if sorted(frame.to_bytes() for _, frame in captured) \
                != sorted(frame.to_bytes() for frame in sent):
            self.fail(1, "replay: reference egress bytes differ from input")

    def counts(self) -> dict:
        fusion = _fusion_totals(datapath.fusion.stats()
                                for datapath in self.hops)
        state = self.hops[-1].flow_state.stats()
        return {"fusion": fusion, "state": state, "offered": self.offered,
                "flowtable.entries": sum(len(dp.table) for dp in self.hops)}


class SwitchFast(_Switch):
    name = "switch-fast"
    setup_reps = 10
    warmup_cycles = 200

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.inputs = gen.SwitchFastInputs(
            seed, *((128, 32) if small else (1024, gen.BATCH)))
        self._next = 0

    def _build(self, capture=None):
        return build_fast(capture)

    def _first_frames(self):
        return [(1, self.inputs.batches[0][0])]

    def _replay_batches(self):
        return [(1, self.inputs.batches[0])]

    def cycle(self, recorder: Recorder) -> None:
        batches = self.inputs.batches
        batch = batches[self._next % len(batches)]
        self._next += 1
        recorder.op(self.ingress.process_batch_from, 1, batch)
        # Delivery is settled once, in verify(): reading the sink per
        # 100 us op would cost a measurable share of it.
        self.offered += len(batch)
        self.attempted += len(batch)
        self.work_done += len(batch)


class SwitchMixed(_Switch):
    name = "switch-mixed"
    setup_reps = 4
    warmup_cycles = 48
    #: cycles between the unrelated flow-mod on hop 2
    FLOWMOD_EVERY = 64

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        pool, batch = (128, 32) if small else (512, gen.BATCH)
        self.inputs = gen.SwitchMixedInputs(seed, pool, batch)
        self.filler = 64 if small else 1000
        # Both live populations fit; what the window adds beyond them
        # is evicted again.
        self.capacity = 2 * pool + pool // 2
        self._next = 0
        self._mod = FlowEntry(match=FlowMatch(in_port=99, vlan_vid=7),
                              actions=(Output(1),), priority=50)

    def _build(self, capture=None):
        return build_mixed(self.filler, self.capacity, capture)

    def _first_frames(self):
        return [(1, self.inputs.port1_batches[0][0]),
                (2, self.inputs.population[0])]

    def _replay_batches(self):
        return [(1, self.inputs.port1_batches[0]),
                (2, self.inputs.next_port2_batch())]

    def _run(self, batch1: list, batch2: list, flowmod: bool) -> None:
        ingress = self.ingress
        ingress.process_batch_from(1, batch1)
        ingress.process_batch_from(2, batch2)
        if flowmod:
            table = self.hops[2].table
            table.add(self._mod)
            table.delete(match=self._mod.match, priority=self._mod.priority,
                         strict=True)

    def cycle(self, recorder: Recorder) -> None:
        batches = self.inputs.port1_batches
        batch1 = batches[self._next % len(batches)]
        batch2 = self.inputs.next_port2_batch()
        self._next += 1
        before = sum(port.tx_packets for port in self.sinks)
        recorder.op(self._run, batch1, batch2,
                    self._next % self.FLOWMOD_EVERY == 0)
        offered = len(batch1) + len(batch2)
        delivered = sum(port.tx_packets for port in self.sinks) - before
        self.offered += offered
        self.attempted += offered
        self.work_done += delivered
        if delivered != offered:
            self.fail(offered - delivered,
                      f"cycle {self._next}: {delivered}/{offered} delivered")


# -- full node -------------------------------------------------------------------

class _Rest:
    """One persistent HTTP/1.1 connection to a node's REST socket."""

    def __init__(self, server: NodeHttpServer) -> None:
        host, port = server.address
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body: bytes = b""):
        """``(status, payload bytes)`` of one round trip."""
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body or None,
                                headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _wan_bytes(address: str) -> bytes:
    return bytes(int(part) for part in address.split("."))


def _masqueraded(got, sent, wan: bytes) -> bool:
    """Whether egress frame ``got`` is ``sent`` with only its source
    rewritten to ``wan``: IPv4 source at payload bytes 12..16,
    destination at 16..20, UDP destination port at 22..24 and the UDP
    payload from 28 on must all be as sent.  Compared on raw bytes so
    the check itself never calls into the layers being timed."""
    out, src = got.payload, sent.payload
    return (out[12:16] == wan and out[16:20] == src[16:20]
            and out[22:24] == src[22:24] and out[28:] == src[28:])


class NodeNat(Workload):
    name = "node-nat"
    setup_reps = 3
    warmup_cycles = 16

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.inputs = gen.NatInputs(
            seed, *((2, 32) if small else (16, gen.BATCH)))
        self._next = 0

    def setup(self) -> None:
        inputs = self.inputs
        node = self.node = ComputeNode("nfbench-nat")
        node.add_physical_interface("wan0")
        for subscriber in inputs.subscribers:
            node.add_physical_interface(f"lan{subscriber}")
        self.egress: list = []
        node.wire("wan0").attach_handler(
            lambda device, frame: self.egress.append(frame))
        # The graphs go in over the real socket.  The server stays up
        # until teardown (stopping it waits out its half-second poll,
        # which would be noise in setup_s); its thread sleeps in
        # select() through the window.
        self.server = NodeHttpServer(node).start()
        rest = _Rest(self.server)
        try:
            for subscriber in inputs.subscribers:
                body = inputs.body(subscriber)
                probe = inputs.activation[subscriber]
                started = _clock()
                status, _ = rest.request("PUT", f"/nffg/s{subscriber}", body)
                node.wire(f"lan{subscriber}").transmit(probe)
                self.activations.append((_clock() - started) / 1e6)
                self.attempted += 2
                if status != 201:
                    self.fail(1, f"PUT s{subscriber} -> {status}")
                if not (self.egress and _masqueraded(
                        self.egress[-1], probe,
                        _wan_bytes(inputs.wan_address(subscriber)))):
                    self.fail(1, f"s{subscriber}: probe not masqueraded")
                del self.egress[:]
        finally:
            rest.close()
        #: distinct 5-tuples this node has been sent
        self.flows_sent = len(inputs.subscribers)
        self._established_sent: set = set()
        self.offered = 0

    def _check(self, subscriber: int, batch: list) -> int:
        """How many frames of ``batch`` left ``wan0`` correctly."""
        egress = self.egress
        wan = _wan_bytes(self.inputs.wan_address(subscriber))
        good = 0
        if len(egress) == len(batch):
            good = sum(_masqueraded(got, sent, wan)
                       for sent, got in zip(batch, egress))
        del egress[:]
        return good

    def cycle(self, recorder: Recorder) -> None:
        subscribers = self.inputs.subscribers
        subscriber = subscribers[self._next % len(subscribers)]
        self._next += 1
        batch = self.inputs.next_batch(subscriber)
        self.flows_sent += self.inputs.minted
        if subscriber not in self._established_sent:
            self._established_sent.add(subscriber)
            self.flows_sent += len(self.inputs.established[subscriber])
        recorder.op(self.node.steering.inject_batch, f"lan{subscriber}",
                    batch)
        good = self._check(subscriber, batch)
        self.offered += len(batch)
        self.attempted += len(batch)
        self.work_done += good
        if good != len(batch):
            self.fail(len(batch) - good,
                      f"batch {self._next} on lan{subscriber}: {good}/"
                      f"{len(batch)} frames correct at wan0")

    def _conntrack(self):
        shared = self.node.shared_nnfs.instance_of(_SHARED_NAT)
        return self.node.host.namespace(shared.netns).conntrack

    def verify(self) -> None:
        self.attempted += 1
        entries = len(self._conntrack().entries())
        if entries != self.flows_sent:
            self.fail(1, f"conntrack holds {entries} entries, "
                         f"{self.flows_sent} distinct flows sent")

    def teardown(self) -> None:
        self.server.stop()

    def counts(self) -> dict:
        steering = self.node.steering
        fusion = _fusion_totals(steering.fusion_stats().values())
        state = {"pinned": 0, "inserted": 0, "evicted": 0}
        for stats in steering.flow_state_stats().values():
            for key in state:
                state[key] += stats[key]
        return {"fusion": fusion, "state": state, "offered": self.offered,
                "flowtable.entries": sum(steering.flow_counts().values()),
                "conntrack.entries": len(self._conntrack())}


def _fleet_capabilities() -> NodeCapabilities:
    """A node sized so admission never refuses (the bench is about the
    control plane, not admission control)."""
    return NodeCapabilities(
        node_class=NodeClass.DATACENTER, cpu_cores=65536, cpu_mhz=2600,
        ram_mb=1 << 26, disk_mb=1 << 30,
        features=frozenset({"native", "docker", "kvm", "linux", "netns",
                            "iptables", "xfrm"}))


class ControlChurn(Workload):
    name = "control-churn"
    setup_reps = 3
    warmup_cycles = 2
    #: every Nth cycle ends with a ``GET /metrics`` scrape
    SCRAPE_EVERY = 8
    #: steady ``loop.step()`` ticks after the window
    STEADY_TICKS = 20

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.inputs = gen.ChurnInputs(seed, 8 if small else 512,
                                      4 if small else 64)
        self._next = 0
        #: socket round trips in ns, per verb, plus the scrapes
        self.rtt = {"PUT": [], "GET": [], "DELETE": [], "scrape": []}
        self.scrape_bytes: list[int] = []
        self.steady_ticks: list[int] = []

    def setup(self) -> None:
        inputs = self.inputs
        node = self.node = ComputeNode("nfbench-churn",
                                       capabilities=_fleet_capabilities())
        for interface in ("lan0", "wan0", "sub0"):
            node.add_physical_interface(interface)
        self.egress: list = []
        node.wire("wan0").attach_handler(
            lambda device, frame: self.egress.append(frame))
        self.server = NodeHttpServer(node).start()
        self.rest = _Rest(self.server)
        self.loop = ControlLoop(node.orchestrator, node.telemetry,
                                interval=1.0, shards=4)
        reconciler = node.orchestrator.reconciler
        started = _clock()
        for graph in inputs.fleet:
            reconciler.set_desired(graph)
        ticks = 0
        while self.loop.step()["steps-executed"]:
            ticks += 1
            if ticks > 16:
                self.fail(1, "fleet did not converge in 16 ticks")
                break
        self.converge_ms_per_graph = \
            (_clock() - started) / 1e6 / len(inputs.fleet)
        self.attempted += 1
        # What "nothing leaked" means at the end of the run.
        self.baseline = self._footprint()

    def _footprint(self) -> tuple:
        node = self.node
        return (sorted(node.orchestrator.list_graphs()),
                len(node.host.namespaces),
                dict(node.steering.flow_counts()))

    def _request(self, recorder: Recorder, verb: str, path: str,
                 body: bytes, expect: int, kind: str = ""):
        status, payload = recorder.op(self.rest.request, verb, path, body)
        self.rtt[kind or verb].append(recorder.times[-1])
        self.attempted += 1
        if status == expect:
            self.work_done += 1
        else:
            self.fail(1, f"{verb} {path} -> {status}, expected {expect}")
        return payload

    def cycle(self, recorder: Recorder) -> None:
        inputs = self.inputs
        subscriber = inputs.order[self._next % len(inputs.order)]
        self._next += 1
        path = f"/nffg/{inputs.graph_id(subscriber)}"
        probe = inputs.frames[subscriber]
        started = _clock()
        self._request(recorder, "PUT", path, inputs.create_body[subscriber],
                      201)
        self.node.wire("sub0").transmit(probe)
        self.activations.append((_clock() - started) / 1e6)
        self.attempted += 1
        if not (self.egress and _masqueraded(
                self.egress[-1], probe,
                _wan_bytes(inputs.wan_address(subscriber)))):
            self.fail(1, f"{path}: probe not masqueraded at wan0")
        del self.egress[:]
        self._request(recorder, "PUT", path, inputs.update_body[subscriber],
                      200)
        status = self._request(recorder, "GET", path + "/status", b"", 200)
        self.attempted += 1
        try:
            converged = json.loads(status).get("converged") is True
        except ValueError:
            converged = False
        if not converged:
            self.fail(1, f"{path}: status not converged after update")
        self._request(recorder, "DELETE", path, b"", 204)
        if self._next % self.SCRAPE_EVERY == 0:
            text = self._request(recorder, "GET", "/metrics", b"", 200,
                                 kind="scrape")
            self.scrape_bytes.append(len(text))

    def after_window(self, recorder: Recorder) -> None:
        for _ in range(self.STEADY_TICKS):
            started = _clock()
            stats = self.loop.step()
            self.steady_ticks.append(_clock() - started)
            self.attempted += 1
            if stats["steps-executed"]:
                self.fail(1, "steady tick executed steps on a converged "
                             "fleet")

    def verify(self) -> None:
        self.attempted += 1
        status, payload = self.rest.request("GET", "/nffg")
        listed = sorted(json.loads(payload)["nffgs"]) if status == 200 \
            else None
        graphs, namespaces, flows = self._footprint()
        if listed != self.baseline[0] or graphs != self.baseline[0]:
            self.fail(1, "leaked or lost a graph: GET /nffg differs from "
                         "the post-set-up fleet")
        elif namespaces != self.baseline[1]:
            self.fail(1, f"{namespaces} namespaces at the end, "
                         f"{self.baseline[1]} after set-up")
        elif flows != self.baseline[2]:
            self.fail(1, "flow counts differ from their post-set-up values")

    def counts(self) -> dict:
        steering = self.node.steering
        return {"flowtable.entries": sum(steering.flow_counts().values()),
                "graphs_created": self._next,
                "step_histograms": _step_sums(self.node.tracer)}

    def reported(self) -> dict:
        ticks = sorted(self.steady_ticks)
        fleet = len(self.inputs.fleet)
        return {
            "control.converge_ms_per_graph": self.converge_ms_per_graph,
            "control.tick_us_per_graph":
                ticks[len(ticks) // 2] / 1e3 / fleet if ticks else 0.0,
        }

    def teardown(self) -> None:
        self.rest.close()
        self.server.stop()


def _step_sums(tracer) -> dict:
    """``kind -> (seconds, count)`` of the program's own
    ``reconcile_step`` histogram family."""
    from .spec import STEP_KINDS
    sums = {}
    for kind in STEP_KINDS:
        histogram = tracer.histograms.get("reconcile_step", (kind,))
        sums[kind] = ((histogram.sum, histogram.total)
                      if histogram is not None else (0.0, 0))
    return sums


BY_NAME = {cls.name: cls for cls in (SwitchFast, SwitchMixed, NodeNat,
                                     ControlChurn)}
