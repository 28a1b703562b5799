"""JSON (de)serialisation of NF-FGs, un-orchestrator style.

Document shape::

    {"forwarding-graph": {
        "id": "g1", "name": "...",
        "VNFs": [{"id": "fw", "template": "firewall",
                  "technology": "native",               # optional
                  "replicas": 2,                        # optional (default 1)
                  "configuration": {"key": "value"}}],  # optional
        "end-points": [{"id": "wan", "type": "interface",
                        "interface": "wan0", "vlan-id": 101}],
        "big-switch": {"flow-rules": [
            {"id": "r1", "priority": 100,
             "match": {"port_in": "endpoint:wan", "ip_dst": "10.0.0.0/24"},
             "action": {"output": "vnf:fw:wan"}}]},
        "scaling-policies": [                       # optional
            {"nf": "fw", "target-pps": 50000.0,
             "min-replicas": 1, "max-replicas": 4}]}}
"""

from __future__ import annotations

import json
from typing import Any

from repro.nffg.model import (
    Endpoint,
    FlowMatchSpec,
    FlowRule,
    Nffg,
    NfInstanceSpec,
    PortRef,
    ScalingPolicy,
)

__all__ = ["nffg_from_dict", "nffg_from_json", "nffg_to_dict",
           "nffg_to_json"]

#: optional match fields and the JSON type each must carry
_MATCH_FIELDS = {"eth_type": int, "vlan_id": int, "ip_src": str,
                 "ip_dst": str, "ip_proto": int, "tp_src": int, "tp_dst": int}


def nffg_to_dict(graph: Nffg) -> dict[str, Any]:
    vnfs = []
    for spec in graph.nfs:
        entry: dict[str, Any] = {"id": spec.nf_id, "template": spec.template}
        if spec.technology is not None:
            entry["technology"] = spec.technology
        if spec.config:
            entry["configuration"] = spec.config_dict()
        if spec.replicas != 1:
            entry["replicas"] = spec.replicas
        vnfs.append(entry)
    endpoints = []
    for endpoint in graph.endpoints:
        entry = {"id": endpoint.ep_id, "type": endpoint.ep_type,
                 "interface": endpoint.interface}
        if endpoint.vlan_id is not None:
            entry["vlan-id"] = endpoint.vlan_id
        endpoints.append(entry)
    rules = []
    for rule in graph.flow_rules:
        match: dict[str, Any] = {"port_in": str(rule.match.port_in)}
        for field_name in _MATCH_FIELDS:
            value = getattr(rule.match, field_name)
            if value is not None:
                match[field_name] = value
        rules.append({"id": rule.rule_id, "priority": rule.priority,
                      "match": match,
                      "action": {"output": str(rule.output)}})
    body: dict[str, Any] = {
        "id": graph.graph_id,
        "name": graph.name,
        "VNFs": vnfs,
        "end-points": endpoints,
        "big-switch": {"flow-rules": rules},
    }
    if graph.policies:
        body["scaling-policies"] = [p.to_dict() for p in graph.policies]
    return {"forwarding-graph": body}


def nffg_to_json(graph: Nffg, indent: int = 2) -> str:
    return json.dumps(nffg_to_dict(graph), indent=indent, sort_keys=True)


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ValueError(f"NF-FG JSON: missing {key!r} in {context}")
    return mapping[key]


_KIND_NAMES = {dict: "an object", list: "an array", int: "an integer",
               str: "a string"}


def _expect(value: Any, kind: type, path: str) -> Any:
    """``value`` if it is a JSON ``kind``; ValueError naming ``path``."""
    if not isinstance(value, kind) or kind is int and type(value) is bool:
        raise ValueError(f"NF-FG JSON: {path} must be {_KIND_NAMES[kind]}, "
                         f"got {value!r:.40}")
    return value


def nffg_from_dict(document: dict[str, Any]) -> Nffg:
    _expect(document, dict, "top level")
    body = _expect(_require(document, "forwarding-graph", "document root"),
                   dict, "forwarding-graph")
    graph = Nffg(graph_id=str(_require(body, "id", "forwarding-graph")),
                 name=str(body.get("name", "")))
    for index, entry in enumerate(_expect(body.get("VNFs", []), list,
                                          "VNFs")):
        _expect(entry, dict, f"VNFs[{index}]")
        config = _expect(entry.get("configuration", {}), dict,
                         f"VNFs[{index}].configuration")
        graph.nfs.append(NfInstanceSpec.with_config(
            nf_id=str(_require(entry, "id", "VNF")),
            template=str(_require(entry, "template", "VNF")),
            technology=entry.get("technology"),
            config={str(k): str(v) for k, v in config.items()},
            replicas=_expect(entry.get("replicas", 1), int,
                             f"VNFs[{index}].replicas")))
    for index, entry in enumerate(_expect(body.get("end-points", []), list,
                                          "end-points")):
        _expect(entry, dict, f"end-points[{index}]")
        vlan_id = entry.get("vlan-id")
        if vlan_id is not None:
            _expect(vlan_id, int, f"end-points[{index}].vlan-id")
        graph.endpoints.append(Endpoint(
            ep_id=str(_require(entry, "id", "end-point")),
            ep_type=str(entry.get("type", "interface")),
            interface=str(_require(entry, "interface", "end-point")),
            vlan_id=vlan_id))
    big_switch = _expect(body.get("big-switch", {}), dict, "big-switch")
    for index, entry in enumerate(_expect(big_switch.get("flow-rules", []),
                                          list, "big-switch.flow-rules")):
        path = f"flow-rules[{index}]"
        _expect(entry, dict, path)
        raw_match = _expect(_require(entry, "match", "flow-rule"), dict,
                            f"{path}.match")
        kwargs = {name: _expect(raw_match[name], kind,
                                f"{path}.match.{name}")
                  for name, kind in _MATCH_FIELDS.items()
                  if raw_match.get(name) is not None}
        port_in = PortRef.parse(str(_require(raw_match, "port_in",
                                             "flow-rule match")))
        try:
            match = FlowMatchSpec(port_in=port_in, **kwargs)
        except ValueError as exc:
            raise ValueError(f"NF-FG JSON: {path}.match: {exc}") from None
        action = _expect(_require(entry, "action", "flow-rule"), dict,
                         f"{path}.action")
        graph.flow_rules.append(FlowRule(
            rule_id=str(_require(entry, "id", "flow-rule")),
            priority=_expect(entry.get("priority", 100), int,
                             f"{path}.priority"),
            match=match,
            output=PortRef.parse(str(_require(action, "output",
                                              "flow-rule action")))))
    for entry in _expect(body.get("scaling-policies", []), list,
                         "scaling-policies"):
        graph.policies.append(ScalingPolicy.from_dict(entry))
    return graph


def nffg_from_json(text: str) -> Nffg:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"NF-FG JSON: not valid JSON ({exc})") from exc
    return nffg_from_dict(document)
