"""Seeded input generation: frames, flow schedules, graph documents.

Every input of a run derives from ``--seed`` through one
``random.Random`` per workload; the program under test only ever sees
the generated frames and documents.  Inputs that depend on how far a
run gets (the new flows of each batch) come from the same generator in
a fixed order, so batch *n* is the same bytes on every run of a seed.
``fingerprint()`` hashes the fixed inputs plus the first few scheduled
batches; the smoke test uses it to pin determinism.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from repro.net import MacAddress, make_tcp_frame, make_udp_frame
from repro.nffg.json_codec import nffg_to_dict
from repro.nffg.model import Nffg

__all__ = ["BATCH", "ChurnInputs", "NatInputs", "SwitchFastInputs",
           "SwitchMixedInputs", "new_per_batch"]

#: frames per ingress call, fixed by the workload definitions (the
#: smoke test passes a smaller one)
BATCH = 256


def new_per_batch(batch: int) -> int:
    """New flows per batch where a workload mixes hits and inserts: a
    tenth."""
    return max(1, round(batch / 10))


#: UDP payload sizes giving 64 B and 1400 B frames on the wire
#: (14 Ethernet + 20 IPv4 + 8 UDP + payload + 4 FCS the model omits)
_SMALL = 18
_LARGE = 1354

_TCP_SYN = 0x02
_TCP_ACK = 0x10

_GATEWAY_MAC = MacAddress("02:aa:00:00:00:fe")


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"nfbench:{seed}:{workload}")


def _mac(rng: random.Random) -> MacAddress:
    return MacAddress.from_index(rng.randrange(1, 1 << 24))


def _digest(frames) -> str:
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(frame.to_bytes())
    return digest.hexdigest()


class SwitchFastInputs:
    """1024 UDP flows of 64 B frames, as four 256-frame batches."""

    def __init__(self, seed: int, flows: int = 1024,
                 batch: int = BATCH) -> None:
        rng = _rng(seed, "switch-fast")
        started = time.perf_counter_ns()
        frames = [make_udp_frame(
            _mac(rng), _GATEWAY_MAC,
            f"10.{rng.randrange(200)}.{rng.randrange(256)}."
            f"{rng.randrange(1, 255)}", "10.200.0.2",
            rng.randrange(1024, 65536), 5001, bytes(_SMALL))
            for _ in range(flows)]
        self.frame_build_ns = (time.perf_counter_ns() - started) / flows
        self.batches = [frames[i:i + batch]
                        for i in range(0, len(frames), batch)]

    def fingerprint(self) -> str:
        return _digest(frame for batch in self.batches for frame in batch)


class SwitchMixedInputs:
    """TCP flows for the two ingress ports of ``switch-mixed``.

    Port 1 replays a fixed pool of established flows.  Port 2 carries
    a sliding population: each batch is 230 frames of established
    flows drawn from it plus 26 SYNs of flows never seen before; the
    new flows join the population (as established) and the oldest
    leave, so the terminal hop's state table keeps inserting and, once
    full, evicting.  Half the port-2 flows fall under the ingress
    table's ``ip_dst`` rule, half under the port-only rule behind it.
    """

    def __init__(self, seed: int, pool: int = 1024,
                 batch: int = BATCH) -> None:
        self._rng = _rng(seed, "switch-mixed")
        self._serial = 0
        self.batch = batch
        self.new = new_per_batch(batch)
        started = time.perf_counter_ns()
        port1 = [self._flow(_TCP_ACK)[0] for _ in range(pool)]
        self.population = [self._flow(_TCP_ACK)[0] for _ in range(pool)]
        self.frame_build_ns = \
            (time.perf_counter_ns() - started) / (2 * pool)
        self.port1_batches = [port1[i:i + batch]
                              for i in range(0, pool, batch)]

    def _flow(self, first_flags: int):
        """Frames of one new flow: ``(first frame, established frame)``."""
        rng = self._rng
        self._serial += 1
        serial = self._serial
        src = f"10.{(serial >> 16) & 0x7F}.{(serial >> 8) & 0xFF}." \
              f"{serial & 0xFF}"
        dst = (f"10.200.{rng.randrange(256)}.{rng.randrange(1, 255)}"
               if serial % 2 else
               f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}")
        mac, sport = _mac(rng), rng.randrange(1024, 65536)
        first = make_tcp_frame(mac, _GATEWAY_MAC, src, dst, sport, 443,
                               bytes(6), flags=first_flags)
        if first_flags == _TCP_ACK:
            return first, first
        return first, make_tcp_frame(mac, _GATEWAY_MAC, src, dst, sport,
                                     443, bytes(6), flags=_TCP_ACK)

    def next_port2_batch(self) -> list:
        """The next scheduled port-2 batch (advances the population)."""
        rng = self._rng
        population = self.population
        batch = [population[rng.randrange(len(population))]
                 for _ in range(self.batch - self.new)]
        for _ in range(self.new):
            syn, established = self._flow(_TCP_SYN)
            batch.append(syn)
            population.append(established)
        del population[:self.new]
        return batch

    def fingerprint(self) -> str:
        frames = [frame for batch in self.port1_batches for frame in batch]
        frames += self.population
        for _ in range(3):
            frames += self.next_port2_batch()
        return _digest(frames)


class NatInputs:
    """Per-subscriber UDP flows for ``node-nat``.

    Each subscriber owns 230 established flows; a batch is those plus
    26 flows never sent before, with 64 B and 1400 B frames
    interleaved so every batch carries both extremes.  New flows are
    one-shot: conntrack has no aging in the model, so the schedule
    stops minting them at :data:`CONNTRACK_BUDGET` and repeats the
    last ones — a run never overflows the table it measures.
    """

    #: distinct flows a run may create (the table holds 65536)
    CONNTRACK_BUDGET = 60000

    def __init__(self, seed: int, subscribers: int = 16,
                 batch: int = BATCH) -> None:
        self._rng = _rng(seed, "node-nat")
        self.new = new_per_batch(batch)
        self.subscribers = list(range(1, subscribers + 1))
        self._serial = 0
        self.distinct_flows = 0
        started = time.perf_counter_ns()
        self.activation = {i: self._frame(i) for i in self.subscribers}
        self.established = {
            i: [self._frame(i) for _ in range(batch - self.new)]
            for i in self.subscribers}
        self.frame_build_ns = \
            (time.perf_counter_ns() - started) / self._serial
        self._last_new: dict[int, list] = {}
        #: flows the last :meth:`next_batch` call minted (0 once the
        #: budget is spent)
        self.minted = 0

    def _frame(self, subscriber: int):
        rng = self._rng
        self._serial += 1
        serial = self._serial
        self.distinct_flows += 1
        size = _SMALL if serial % 2 else _LARGE
        return make_udp_frame(
            MacAddress.from_index(0x100 + subscriber), _GATEWAY_MAC,
            f"10.{subscriber}.0.{rng.randrange(2, 255)}",
            f"198.{18 + (serial >> 16 & 1)}.{serial >> 8 & 0xFF}."
            f"{serial & 0xFF}",
            1024 + serial % 60000, 53,
            bytes([serial & 0xFF]) * size)

    def next_batch(self, subscriber: int) -> list:
        """The subscriber's next batch: established flows plus new ones
        interleaved at a fixed stride."""
        self.minted = 0
        if self.distinct_flows + self.new <= self.CONNTRACK_BUDGET \
                or subscriber not in self._last_new:
            self._last_new[subscriber] = [self._frame(subscriber)
                                          for _ in range(self.new)]
            self.minted = self.new
        fresh = self._last_new[subscriber]
        batch = list(self.established[subscriber])
        stride = len(batch) // len(fresh)
        for index, frame in enumerate(fresh):
            batch.insert(index * (stride + 1), frame)
        return batch

    def wan_address(self, subscriber: int) -> str:
        return f"100.64.{subscriber}.2"

    def graph(self, subscriber: int) -> Nffg:
        """``lan{i}`` -> shared native NAT -> ``wan0`` (the
        ``bench_scaling_graphs.subscriber_graph`` shape)."""
        graph = Nffg(graph_id=f"s{subscriber}")
        graph.add_nf("nat", "nat", config={
            "lan.address": f"10.{subscriber}.0.1/24",
            "wan.address": f"{self.wan_address(subscriber)}/24",
            "gateway": f"100.64.{subscriber}.1"})
        graph.add_endpoint("lan", f"lan{subscriber}")
        graph.add_endpoint("wan", "wan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat:lan")
        graph.add_flow_rule("r2", "vnf:nat:lan", "endpoint:lan")
        graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
        graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                            ip_dst=f"100.64.{subscriber}.0/24")
        return graph

    def body(self, subscriber: int) -> bytes:
        return json.dumps(nffg_to_dict(self.graph(subscriber))).encode()

    def fingerprint(self) -> str:
        frames = list(self.activation.values())
        for subscriber in self.subscribers:
            frames += self.established[subscriber]
        for subscriber in self.subscribers[:3]:
            frames += self.next_batch(subscriber)
        digest = hashlib.sha256(_digest(frames).encode())
        for subscriber in self.subscribers:
            digest.update(self.body(subscriber))
        return digest.hexdigest()


class ChurnInputs:
    """Fleet graphs, the subscriber pool and its churn order.

    Fleet graph *k* is one docker firewall between VLAN ``100+k`` of
    ``lan0`` and ``wan0``.  A churn subscriber is a two-NF chain —
    docker firewall, then the shared native NAT — on its own access
    interface ``sub0``; its update document changes only the firewall
    policy, which plans as one ``reconfigure`` step.
    """

    def __init__(self, seed: int, fleet: int = 512, pool: int = 64) -> None:
        rng = _rng(seed, "control-churn")
        self.fleet = [self._fleet_graph(k) for k in range(fleet)]
        self.pool = list(range(1, pool + 1))
        self.order = list(self.pool)
        rng.shuffle(self.order)
        started = time.perf_counter_ns()
        self.frames = {
            i: make_udp_frame(
                _mac(rng), _GATEWAY_MAC, f"10.{i}.0.{rng.randrange(2, 255)}",
                f"198.18.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                rng.randrange(1024, 65536), 53, bytes(_SMALL))
            for i in self.pool}
        self.frame_build_ns = \
            (time.perf_counter_ns() - started) / len(self.pool)
        self.create_body = {i: self._body(i, "udp:53") for i in self.pool}
        self.update_body = {i: self._body(i, "udp:53,tcp:443")
                            for i in self.pool}

    @staticmethod
    def _fleet_graph(index: int) -> Nffg:
        graph = Nffg(graph_id=f"g{index:04d}", name=f"fleet #{index}")
        graph.add_nf("fw", "firewall", technology="docker",
                     config={"firewall.allow": "udp:53"})
        graph.add_endpoint("lan", "lan0", vlan_id=100 + index)
        graph.add_endpoint("wan", "wan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
        graph.add_flow_rule("r2", "vnf:fw:wan", "endpoint:wan")
        return graph

    @staticmethod
    def graph_id(subscriber: int) -> str:
        return f"sub{subscriber}"

    def wan_address(self, subscriber: int) -> str:
        return f"100.64.{subscriber}.2"

    def _body(self, i: int, allow: str) -> bytes:
        graph = Nffg(graph_id=self.graph_id(i), name=f"subscriber {i}")
        graph.add_nf("fw", "firewall", technology="docker", config={
            "lan.address": f"10.{i}.0.1/24",
            "wan.address": f"10.{i}.1.1/24",
            "gateway": f"10.{i}.1.2",
            "firewall.allow": allow})
        graph.add_nf("nat", "nat", config={
            "lan.address": f"10.{i}.1.2/24",
            "wan.address": f"{self.wan_address(i)}/24",
            "gateway": f"100.64.{i}.1"})
        graph.add_endpoint("lan", "sub0")
        graph.add_endpoint("wan", "wan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
        graph.add_flow_rule("r2", "vnf:fw:wan", "vnf:nat:lan")
        graph.add_flow_rule("r3", "vnf:nat:wan", "endpoint:wan")
        graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat:wan",
                            ip_dst=f"100.64.{i}.0/24")
        graph.add_flow_rule("r5", "vnf:nat:lan", "vnf:fw:wan")
        graph.add_flow_rule("r6", "vnf:fw:lan", "endpoint:lan")
        return json.dumps(nffg_to_dict(graph)).encode()

    def fingerprint(self) -> str:
        digest = hashlib.sha256(repr(self.order).encode())
        for graph in self.fleet:
            digest.update(json.dumps(nffg_to_dict(graph),
                                     sort_keys=True).encode())
        for i in self.pool:
            digest.update(self.frames[i].to_bytes())
            digest.update(self.create_body[i])
            digest.update(self.update_body[i])
        return digest.hexdigest()
