"""NF-FG data model."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.net.addresses import compile_cidr

__all__ = ["Endpoint", "FlowRule", "MAX_REPLICAS", "NfInstanceSpec",
           "Nffg", "PortRef", "ScalingPolicy"]

#: Per-NF replica ceiling: a hash spread wider than this on one node
#: says "shard the graph", not "add another replica".  (Re-exported by
#: :mod:`repro.nffg.validate` for historical imports.)
MAX_REPLICAS = 64


@dataclass(frozen=True)
class PortRef:
    """Reference to a traffic attachment point inside a graph.

    ``kind`` is ``"vnf"`` (then ``element`` is the NF id and ``port``
    the logical port name) or ``"endpoint"`` (then ``element`` is the
    endpoint id and ``port`` is empty).
    """

    kind: str
    element: str
    port: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("vnf", "endpoint"):
            raise ValueError(f"bad port-ref kind {self.kind!r}")
        if not self.element:
            raise ValueError("port ref needs a non-empty element id")
        if self.kind == "vnf" and not self.port:
            raise ValueError("vnf port refs need a port name")

    @classmethod
    def parse(cls, text: str) -> "PortRef":
        """Parse ``vnf:fw1:lan`` / ``endpoint:wan`` forms."""
        parts = text.split(":")
        if parts[0] == "vnf" and len(parts) == 3:
            return cls(kind="vnf", element=parts[1], port=parts[2])
        if parts[0] == "endpoint" and len(parts) == 2:
            return cls(kind="endpoint", element=parts[1])
        raise ValueError(f"malformed port ref {text!r}")

    def __str__(self) -> str:
        if self.kind == "vnf":
            return f"vnf:{self.element}:{self.port}"
        return f"endpoint:{self.element}"


@dataclass(frozen=True)
class NfInstanceSpec:
    """One NF requested by the graph.

    ``template`` names an :class:`~repro.catalog.templates.NfTemplate`
    in the repository.  ``technology`` optionally pins the packaging
    ("vm", "docker", "dpdk", "native"); ``None`` delegates the VNF/NNF
    choice to the orchestrator — the paper's default.  ``config`` is the
    NF-specific configuration handed to the driver (and translated by
    the NNF config layer for native components).

    ``replicas`` asks for a horizontally scaled NF: ``N > 1`` makes the
    reconciler realize N identical instances and the steering layer
    hash-balance traffic across them with 5-tuple flow affinity (see
    :mod:`repro.nffg.replicas`).  The default of 1 is the paper's
    single-instance semantics, byte-for-byte unchanged.
    """

    nf_id: str
    template: str
    technology: Optional[str] = None
    config: tuple[tuple[str, str], ...] = ()
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(
                f"NF {self.nf_id!r}: replicas must be >= 1, "
                f"got {self.replicas}")

    def config_dict(self) -> dict[str, str]:
        return dict(self.config)

    @classmethod
    def with_config(cls, nf_id: str, template: str,
                    config: Optional[dict[str, str]] = None,
                    technology: Optional[str] = None,
                    replicas: int = 1) -> "NfInstanceSpec":
        return cls(nf_id=nf_id, template=template, technology=technology,
                   config=tuple(sorted((config or {}).items())),
                   replicas=replicas)


@dataclass(frozen=True)
class Endpoint:
    """Graph attachment to the outside world.

    ``ep_type`` is ``"interface"`` (a node NIC such as ``wan0``) or
    ``"vlan"`` (an 802.1Q subset of a NIC).
    """

    ep_id: str
    ep_type: str = "interface"
    interface: str = ""
    vlan_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ep_type not in ("interface", "vlan"):
            raise ValueError(f"bad endpoint type {self.ep_type!r}")
        if self.ep_type == "vlan" and self.vlan_id is None:
            raise ValueError(f"vlan endpoint {self.ep_id} needs vlan_id")
        if not self.interface:
            raise ValueError(f"endpoint {self.ep_id} needs an interface")


@dataclass(frozen=True)
class ScalingPolicy:
    """How one NF scales: target load per replica plus guard rails.

    Part of the *graph*, not of any driver process: policies serialize
    with the NF-FG (``"scaling-policies"`` in the JSON document, or
    ``PUT /graphs/{id}/policies`` on a live graph), live in the
    reconciler's durable desired state, and are honored by any node's
    control loop — ``repro serve`` autoscales a policy-carrying graph
    with no Python driver script attached (the RDCL-style
    service-description model: everything needed to *run* the service
    rides in its description).
    """

    nf_id: str
    target_pps: float
    min_replicas: int = 1
    max_replicas: int = 4
    #: scale in only if the load would use at most this fraction of the
    #: reduced group's capacity (hysteresis gap against flapping)
    scale_in_headroom: float = 0.7
    #: minimum seconds between replica-count changes for this NF
    cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if not self.nf_id:
            raise ValueError("scaling policy needs a non-empty nf id")
        if self.target_pps <= 0:
            raise ValueError(f"{self.nf_id}: target_pps must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"{self.nf_id}: need 1 <= min_replicas <= max_replicas")
        if self.max_replicas > MAX_REPLICAS:
            raise ValueError(
                f"{self.nf_id}: max_replicas exceeds the graph cap "
                f"of {MAX_REPLICAS}")
        if not 0 < self.scale_in_headroom <= 1:
            raise ValueError(
                f"{self.nf_id}: scale_in_headroom must be in (0, 1]")
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"{self.nf_id}: cooldown_seconds must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {"nf": self.nf_id, "target-pps": self.target_pps,
                "min-replicas": self.min_replicas,
                "max-replicas": self.max_replicas,
                "scale-in-headroom": self.scale_in_headroom,
                "cooldown-seconds": self.cooldown_seconds}

    @classmethod
    def from_dict(cls, entry: dict[str, Any]) -> "ScalingPolicy":
        if not isinstance(entry, dict):
            raise ValueError("scaling policy must be an object")
        if "nf" not in entry or "target-pps" not in entry:
            raise ValueError(
                "scaling policy needs at least 'nf' and 'target-pps'")
        known = {"nf", "target-pps", "min-replicas", "max-replicas",
                 "scale-in-headroom", "cooldown-seconds"}
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ValueError(
                f"scaling policy has unknown keys: {', '.join(unknown)}")
        try:
            return cls(
                nf_id=str(entry["nf"]),
                target_pps=float(entry["target-pps"]),
                min_replicas=int(entry.get("min-replicas", 1)),
                max_replicas=int(entry.get("max-replicas", 4)),
                scale_in_headroom=float(
                    entry.get("scale-in-headroom", 0.7)),
                cooldown_seconds=float(
                    entry.get("cooldown-seconds", 5.0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad scaling policy: {exc}") from exc


#: inclusive upper bound of each integer match field
_MATCH_FIELD_MAX = {"eth_type": 0xFFFF, "vlan_id": 4095, "ip_proto": 255,
                    "tp_src": 65535, "tp_dst": 65535}


@dataclass(frozen=True)
class FlowMatchSpec:
    """Match half of a big-switch flow rule (port_in plus optional L2-L4)."""

    port_in: PortRef
    eth_type: Optional[int] = None
    vlan_id: Optional[int] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("ip_src", "ip_dst"):
            value = getattr(self, name)
            if value is not None:
                compile_cidr(value)  # a bare address means /32
        for name, top in _MATCH_FIELD_MAX.items():
            value = getattr(self, name)
            if value is not None and not 0 <= value <= top:
                raise ValueError(f"match {name} out of range: {value}")


@dataclass(frozen=True)
class FlowRule:
    """One big-switch steering rule: match on a port, output to a port."""

    rule_id: str
    match: FlowMatchSpec
    output: PortRef
    priority: int = 100

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 65535:
            raise ValueError(f"priority out of range in rule {self.rule_id}")


@dataclass
class Nffg:
    """A complete forwarding graph."""

    graph_id: str
    name: str = ""
    nfs: list[NfInstanceSpec] = field(default_factory=list)
    endpoints: list[Endpoint] = field(default_factory=list)
    flow_rules: list[FlowRule] = field(default_factory=list)
    #: scaling policies persisted with the graph (durable state the
    #: autoscaler reads — no driver process needed to keep them alive)
    policies: list[ScalingPolicy] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------
    def add_nf(self, nf_id: str, template: str,
               technology: Optional[str] = None,
               config: Optional[dict[str, str]] = None,
               replicas: int = 1) -> NfInstanceSpec:
        spec = NfInstanceSpec.with_config(nf_id, template, config,
                                          technology, replicas=replicas)
        self.nfs.append(spec)
        return spec

    def add_endpoint(self, ep_id: str, interface: str,
                     vlan_id: Optional[int] = None) -> Endpoint:
        endpoint = Endpoint(ep_id=ep_id,
                            ep_type="vlan" if vlan_id is not None
                            else "interface",
                            interface=interface, vlan_id=vlan_id)
        self.endpoints.append(endpoint)
        return endpoint

    def add_policy(self, nf_id: str, target_pps: float,
                   **fields_) -> ScalingPolicy:
        policy = ScalingPolicy(nf_id=nf_id, target_pps=target_pps,
                               **fields_)
        self.policies.append(policy)
        return policy

    def add_flow_rule(self, rule_id: str, port_in: str, output: str,
                      priority: int = 100, **match_fields) -> FlowRule:
        rule = FlowRule(
            rule_id=rule_id,
            match=FlowMatchSpec(port_in=PortRef.parse(port_in),
                                **match_fields),
            output=PortRef.parse(output),
            priority=priority)
        self.flow_rules.append(rule)
        return rule

    def connect(self, a: str, b: str, rule_prefix: str = "",
                priority: int = 100) -> tuple[FlowRule, FlowRule]:
        """Install the symmetric rule pair for a bidirectional hop."""
        prefix = rule_prefix or f"{a}->{b}"
        forward = self.add_flow_rule(f"{prefix}:fwd", a, b,
                                     priority=priority)
        backward = self.add_flow_rule(f"{prefix}:rev", b, a,
                                      priority=priority)
        return forward, backward

    # -- lookups ------------------------------------------------------------------
    def nf(self, nf_id: str) -> NfInstanceSpec:
        for spec in self.nfs:
            if spec.nf_id == nf_id:
                return spec
        raise KeyError(f"graph {self.graph_id} has no NF {nf_id!r}")

    def endpoint(self, ep_id: str) -> Endpoint:
        for endpoint in self.endpoints:
            if endpoint.ep_id == ep_id:
                return endpoint
        raise KeyError(f"graph {self.graph_id} has no endpoint {ep_id!r}")

    def chain_of(self) -> list[str]:
        """NF ids in rule order — handy for examples and logging."""
        seen: list[str] = []
        for rule in self.flow_rules:
            for ref in (rule.match.port_in, rule.output):
                if ref.kind == "vnf" and ref.element not in seen:
                    seen.append(ref.element)
        return seen
