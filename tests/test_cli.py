"""CLI subcommand tests (argument wiring + output contracts)."""

import json

import pytest

from repro.cli.main import _build_parser, main
from repro.nffg.json_codec import nffg_to_json
from repro.nffg.model import Nffg


def nat_graph_json() -> str:
    graph = Nffg(graph_id="cli-test")
    graph.add_nf("nat1", "nat", config={
        "lan.address": "192.168.1.1/24",
        "wan.address": "203.0.113.2/24",
        "gateway": "203.0.113.1"})
    graph.add_endpoint("lan", "lan0")
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:nat1:lan")
    graph.add_flow_rule("r2", "vnf:nat1:lan", "endpoint:lan")
    graph.add_flow_rule("r3", "vnf:nat1:wan", "endpoint:wan")
    graph.add_flow_rule("r4", "endpoint:wan", "vnf:nat1:wan",
                        ip_dst="203.0.113.0/24")
    return nffg_to_json(graph)


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "KVM/QEMU" in out and "Native NF" in out
    assert "796" in out  # paper column present


def test_table1_rejects_non_positive_frame_bytes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table1", "--frame-bytes", "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--frame-bytes" in err and "Traceback" not in err


def test_table1_fails_when_probe_leaves_wan_in_cleartext(monkeypatch,
                                                         capsys):
    monkeypatch.setattr("repro.perf.table1._probe_esp",
                        lambda node: (True, False))
    assert main(["table1"]) == 1
    assert "vm (cleartext)" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    (option, value)
    for option in ("--interval", "--watch")
    for value in ("0", "-1", "nan", "inf")
] + [("--shards", "0"), ("--shards", "-1")])
def test_period_and_shard_options_reject_bad_values(option, value, capsys):
    command = "top" if option == "--watch" else "serve"
    # The parser, not main: main would start a server if a bad value
    # got through.
    with pytest.raises(SystemExit) as excinfo:
        _build_parser().parse_args([command, option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


def test_node_command(capsys):
    assert main(["node"]) == 0
    description = json.loads(capsys.readouterr().out)
    assert description["class"] == "cpe"
    assert "nnfs" in description


def test_deploy_command(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(nat_graph_json())
    assert main(["deploy", str(path), "--show-flows"]) == 0
    out = capsys.readouterr().out
    assert "nat1: native" in out
    assert "datapath LSI-0" in out


def test_deploy_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["deploy", str(tmp_path / "nope.json")])


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(nat_graph_json())
    assert main(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_graph(tmp_path, capsys):
    graph = Nffg(graph_id="broken")
    graph.add_nf("orphan", "nat")
    path = tmp_path / "bad.json"
    path.write_text(nffg_to_json(graph))
    assert main(["validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture
def served_node():
    from repro.core.node import ComputeNode
    from repro.nffg.json_codec import nffg_from_json
    from repro.rest.server import NodeHttpServer

    node = ComputeNode("cli-served")
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    server = NodeHttpServer(node, port=0).start()
    node.deploy(nffg_from_json(nat_graph_json()))
    try:
        yield node, server
    finally:
        server.stop()


def test_graph_events_command(served_node, capsys):
    node, server = served_node
    assert main(["graph", "events", "cli-test", "--url", server.url]) == 0
    out = capsys.readouterr().out
    assert "desired-set" in out
    assert "converged" in out


def test_graph_events_of_a_removed_graph_still_served(served_node, capsys):
    node, server = served_node
    node.undeploy("cli-test")
    assert main(["graph", "events", "cli-test", "--url", server.url]) == 0
    out = capsys.readouterr().out
    assert "desired-set" in out and "removed" in out


def test_graph_reconcile_command(served_node, capsys):
    node, server = served_node
    assert main(["graph", "reconcile", "cli-test",
                 "--url", server.url]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_graph_status_command(served_node, capsys):
    node, server = served_node
    assert main(["graph", "status", "cli-test", "--url", server.url]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["graph-id"] == "cli-test"
    assert status["converged"] is True


def test_graph_events_unknown_graph_exits(served_node):
    node, server = served_node
    with pytest.raises(SystemExit, match="404"):
        main(["graph", "events", "ghost", "--url", server.url])


def test_graph_command_unreachable_node_exits():
    with pytest.raises(SystemExit, match="cannot reach"):
        main(["graph", "events", "g1",
              "--url", "http://127.0.0.1:9"])  # discard port: refused
