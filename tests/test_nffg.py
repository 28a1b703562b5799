"""NF-FG model, JSON codec, validation and diff tests."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.nffg.diff import diff_nffg
from repro.nffg.json_codec import (
    nffg_from_dict,
    nffg_from_json,
    nffg_to_dict,
    nffg_to_json,
)
from repro.nffg.model import Endpoint, Nffg, NfInstanceSpec, PortRef
from repro.nffg.validate import NffgValidationError, validate_nffg


def sample_graph() -> Nffg:
    graph = Nffg(graph_id="g1", name="sample")
    graph.add_nf("fw", "firewall", technology="native",
                 config={"firewall.allow": "udp:53"})
    graph.add_nf("nat1", "nat")
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0", vlan_id=200)
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan", priority=10)
    graph.add_flow_rule("r2", "vnf:fw:wan", "vnf:nat1:lan")
    graph.add_flow_rule("r3", "vnf:nat1:wan", "endpoint:wan",
                        ip_dst="0.0.0.0/0")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat1:wan")
    graph.add_flow_rule("r5", "vnf:nat1:lan", "vnf:fw:wan")
    graph.add_flow_rule("r6", "vnf:fw:lan", "endpoint:lan")
    return graph


def _paths(value, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _splice(document, path, value):
    """A deep copy of ``document`` with ``value`` put at ``path``."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def _skeleton():
    graph = sample_graph()
    graph.add_nf("lb", "dpi", replicas=2)
    graph.add_policy("lb", 1000.0)
    return nffg_to_dict(graph)


_SKELETON = _skeleton()
_SKELETON_PATHS = list(_paths(_SKELETON))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)


class TestPortRef:
    def test_parse_vnf(self):
        ref = PortRef.parse("vnf:fw:lan")
        assert (ref.kind, ref.element, ref.port) == ("vnf", "fw", "lan")

    def test_parse_endpoint(self):
        ref = PortRef.parse("endpoint:wan")
        assert (ref.kind, ref.element) == ("endpoint", "wan")

    def test_roundtrip_str(self):
        for text in ("vnf:a:b", "endpoint:x"):
            assert str(PortRef.parse(text)) == text

    def test_malformed_rejected(self):
        for bad in ("vnf:a", "endpoint:a:b", "switch:a", "vnf::p", ""):
            with pytest.raises(ValueError):
                PortRef.parse(bad)

    def test_vnf_needs_port(self):
        with pytest.raises(ValueError):
            PortRef(kind="vnf", element="fw")


class TestModel:
    def test_connect_builds_symmetric_rules(self):
        graph = Nffg(graph_id="g")
        graph.add_nf("a", "nat")
        graph.add_endpoint("e", "eth0")
        fwd, rev = graph.connect("endpoint:e", "vnf:a:lan")
        assert fwd.match.port_in.kind == "endpoint"
        assert rev.match.port_in.kind == "vnf"

    def test_lookup_helpers(self):
        graph = sample_graph()
        assert graph.nf("fw").template == "firewall"
        assert graph.endpoint("wan").vlan_id == 200
        with pytest.raises(KeyError):
            graph.nf("missing")
        with pytest.raises(KeyError):
            graph.endpoint("missing")

    def test_chain_of_lists_nfs_in_rule_order(self):
        assert sample_graph().chain_of() == ["fw", "nat1"]

    def test_endpoint_requires_interface(self):
        with pytest.raises(ValueError):
            Endpoint(ep_id="x", interface="")

    def test_vlan_endpoint_requires_vid(self):
        with pytest.raises(ValueError):
            Endpoint(ep_id="x", ep_type="vlan", interface="eth0")

    def test_flow_rule_priority_range(self):
        graph = Nffg(graph_id="g")
        graph.add_endpoint("e", "eth0")
        graph.add_nf("a", "nat")
        with pytest.raises(ValueError):
            graph.add_flow_rule("r", "endpoint:e", "vnf:a:lan",
                                priority=70000)

    def test_config_dict_is_stable(self):
        spec = NfInstanceSpec.with_config("a", "nat",
                                          {"k2": "v2", "k1": "v1"})
        assert spec.config == (("k1", "v1"), ("k2", "v2"))
        assert spec.config_dict() == {"k1": "v1", "k2": "v2"}


class TestJsonCodec:
    def test_roundtrip_preserves_graph(self):
        graph = sample_graph()
        assert nffg_from_dict(nffg_to_dict(graph)) == graph

    def test_json_string_roundtrip(self):
        graph = sample_graph()
        assert nffg_from_json(nffg_to_json(graph)) == graph

    def test_document_shape(self):
        document = nffg_to_dict(sample_graph())
        body = document["forwarding-graph"]
        assert body["id"] == "g1"
        assert {v["id"] for v in body["VNFs"]} == {"fw", "nat1"}
        assert body["big-switch"]["flow-rules"][0]["match"]["port_in"] \
            == "endpoint:lan"

    def test_vlan_endpoint_field(self):
        document = nffg_to_dict(sample_graph())
        wan = [e for e in document["forwarding-graph"]["end-points"]
               if e["id"] == "wan"][0]
        assert wan["vlan-id"] == 200

    def test_missing_fields_reported(self):
        with pytest.raises(ValueError, match="missing 'id'"):
            nffg_from_dict({"forwarding-graph": {
                "id": "x", "VNFs": [{"template": "nat"}]}})

    def test_not_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            nffg_from_json("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError):
            nffg_from_json("[1,2,3]")
        with pytest.raises(ValueError, match="top level must be an object"):
            nffg_from_dict("forwarding-graph")

    @pytest.mark.parametrize("path, value, reason", [
        (("VNFs",), {"id": "fw"}, "VNFs must be an array"),
        (("big-switch", "flow-rules", 0, "match"), "x",
         r"flow-rules\[0\]\.match must be an object"),
        (("big-switch", "flow-rules", 0, "priority"), "10",
         r"flow-rules\[0\]\.priority must be an integer"),
        (("big-switch", "flow-rules", 2, "match", "ip_dst"), 5,
         r"flow-rules\[2\]\.match\.ip_dst must be a string"),
        (("scaling-policies", 0, "min-replicas"), float("inf"),
         "bad scaling policy"),
    ], ids=["vnfs", "match", "priority", "ip_dst", "policy"])
    def test_wrong_type_names_its_path(self, path, value, reason):
        with pytest.raises(ValueError, match=reason):
            nffg_from_dict(_splice(_SKELETON, ("forwarding-graph",) + path,
                                   value))

    @pytest.mark.parametrize("field, value", [
        ("ip_dst", "203.0.113.0/99"),
        ("ip_dst", "\u0662\u0660\u0663.0.113.0/24"),  # Arabic-Indic 203
        ("ip_src", "10.0.0.0/\u0662\u0664"),
        ("ip_src", "10.0.0.256"),
        ("tp_dst", 70000),
        ("tp_src", -1),
        ("ip_proto", 256),
        ("eth_type", 0x10000),
        ("vlan_id", 4096),
    ])
    def test_bad_match_value_names_its_path(self, field, value):
        """A match value the dataplane cannot install is a decode error
        (the REST layer's 400), not a deploy that fails halfway."""
        with pytest.raises(ValueError, match=r"flow-rules\[2\]\.match: "
                           r".*(out of range|malformed)"):
            nffg_from_dict(_splice(
                _SKELETON, ("forwarding-graph", "big-switch", "flow-rules",
                            2, "match", field), value))
        graph = Nffg(graph_id="g")
        with pytest.raises(ValueError):
            graph.add_flow_rule("r", "endpoint:e", "vnf:a:lan",
                                **{field: value})

    def test_match_values_at_their_bounds_decode(self):
        graph = Nffg(graph_id="g")
        graph.add_flow_rule("r1", "endpoint:e", "vnf:a:lan",
                            ip_src="10.0.0.7", ip_dst="0.0.0.0/0",
                            tp_src=0, tp_dst=65535, ip_proto=255,
                            eth_type=0xFFFF, vlan_id=4095)
        assert nffg_from_dict(nffg_to_dict(graph)) == graph

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_SKELETON_PATHS), _JSON_VALUES)
    def test_any_spliced_json_value_decodes_or_raises_value_error(
            self, path, value):
        """A REST body is arbitrary JSON: whatever value lands wherever
        in the document, decoding yields an NF-FG or a ValueError (the
        REST layer's 400), never a TypeError or AttributeError."""
        document = _splice(_SKELETON, path, value)
        try:
            graph = nffg_from_dict(document)
        except ValueError:
            return
        assert isinstance(graph, Nffg)

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=8),
           st.integers(min_value=0, max_value=4095))
    def test_roundtrip_property(self, name, vlan):
        graph = Nffg(graph_id=name)
        graph.add_nf("n1", "nat")
        graph.add_endpoint("e1", "eth0", vlan_id=vlan)
        graph.add_flow_rule("r1", "endpoint:e1", "vnf:n1:lan")
        graph.add_flow_rule("r2", "vnf:n1:lan", "endpoint:e1")
        assert nffg_from_json(nffg_to_json(graph)) == graph


class TestValidate:
    def test_valid_graph_passes(self):
        validate_nffg(sample_graph())

    def test_unknown_template_flagged(self):
        with pytest.raises(NffgValidationError, match="unknown template"):
            validate_nffg(sample_graph(), known_templates={"nat"})

    def test_dangling_rule_reference(self):
        graph = sample_graph()
        graph.add_flow_rule("bad", "vnf:ghost:lan", "endpoint:lan")
        with pytest.raises(NffgValidationError, match="unknown NF"):
            validate_nffg(graph)

    def test_unreferenced_nf_flagged(self):
        graph = Nffg(graph_id="g")
        graph.add_nf("orphan", "nat")
        graph.add_endpoint("e", "eth0")
        with pytest.raises(NffgValidationError, match="not referenced"):
            validate_nffg(graph)

    def test_duplicate_ids_flagged(self):
        graph = sample_graph()
        graph.nfs.append(graph.nfs[0])
        with pytest.raises(NffgValidationError, match="duplicate NF ids"):
            validate_nffg(graph)

    def test_self_loop_flagged(self):
        graph = Nffg(graph_id="g")
        graph.add_nf("a", "nat")
        graph.add_endpoint("e", "eth0")
        graph.add_flow_rule("keep", "endpoint:e", "vnf:a:lan")
        graph.add_flow_rule("loop", "vnf:a:lan", "vnf:a:lan")
        with pytest.raises(NffgValidationError, match="loops back"):
            validate_nffg(graph)

    def test_all_problems_collected(self):
        graph = Nffg(graph_id="")
        graph.add_nf("a", "nat")
        try:
            validate_nffg(graph, known_templates=set())
        except NffgValidationError as exc:
            assert len(exc.problems) >= 3
        else:
            pytest.fail("expected validation failure")

    def test_bad_technology_flagged(self):
        graph = Nffg(graph_id="g")
        graph.add_nf("a", "nat", technology="baremetal")
        graph.add_endpoint("e", "eth0")
        graph.add_flow_rule("r", "endpoint:e", "vnf:a:lan")
        with pytest.raises(NffgValidationError, match="technology"):
            validate_nffg(graph)


class TestDiff:
    def test_empty_diff(self):
        diff = diff_nffg(sample_graph(), sample_graph())
        assert diff.empty

    def test_added_and_removed_rules(self):
        old = sample_graph()
        new = sample_graph()
        new.flow_rules = [r for r in new.flow_rules if r.rule_id != "r6"]
        new.add_flow_rule("r7", "endpoint:lan", "vnf:nat1:lan")
        diff = diff_nffg(old, new)
        assert [r.rule_id for r in diff.removed_rules] == ["r6"]
        assert [r.rule_id for r in diff.added_rules] == ["r7"]

    def test_changed_rule_is_remove_plus_add(self):
        old = sample_graph()
        new = sample_graph()
        new.flow_rules = [r for r in new.flow_rules if r.rule_id != "r1"]
        new.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan", priority=99)
        diff = diff_nffg(old, new)
        assert len(diff.added_rules) == 1
        assert len(diff.removed_rules) == 1

    def test_reconfigured_nf_detected(self):
        old = sample_graph()
        new = sample_graph()
        new.nfs = [NfInstanceSpec.with_config(
            "fw", "firewall", {"firewall.allow": "tcp:443"}, "native")
            if spec.nf_id == "fw" else spec for spec in new.nfs]
        diff = diff_nffg(old, new)
        assert [s.nf_id for s in diff.reconfigured_nfs] == ["fw"]
        assert not diff.added_nfs and not diff.removed_nfs

    def test_technology_change_is_replace(self):
        old = sample_graph()
        new = sample_graph()
        new.nfs = [NfInstanceSpec.with_config(
            "fw", "firewall", {"firewall.allow": "udp:53"}, "docker")
            if spec.nf_id == "fw" else spec for spec in new.nfs]
        diff = diff_nffg(old, new)
        assert [s.nf_id for s in diff.added_nfs] == ["fw"]
        assert [s.nf_id for s in diff.removed_nfs] == ["fw"]

    def test_cross_graph_diff_rejected(self):
        with pytest.raises(ValueError):
            diff_nffg(Nffg(graph_id="a"), Nffg(graph_id="b"))

    def test_summary_format(self):
        old = sample_graph()
        new = sample_graph()
        new.add_nf("extra", "bridge")
        new.add_flow_rule("r9", "endpoint:lan", "vnf:extra:p0")
        diff = diff_nffg(old, new)
        assert "+1/-0 NFs" in diff.summary()
