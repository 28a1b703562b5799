"""REST app, client and socket-server tests."""

import json

import pytest

from repro import ComputeNode, Nffg, RestApp, RestClient
from repro.nffg.json_codec import nffg_to_dict


@pytest.fixture
def node():
    node = ComputeNode("rest-test")
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    return node


@pytest.fixture
def client(node):
    return RestClient(RestApp(node))


def nat_graph(graph_id="g1"):
    graph = Nffg(graph_id=graph_id)
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
    return graph


def _graph_body(**fields):
    return {"forwarding-graph": {"id": "g1", **fields}}


#: Well-formed JSON of the wrong shape: each once dropped the connection.
BADLY_SHAPED_BODIES = [
    5,
    {"forwarding-graph": 5},
    _graph_body(VNFs=5),
    _graph_body(VNFs=[5]),
    _graph_body(**{"end-points": [5]}),
    _graph_body(**{"big-switch": {"flow-rules": [5]}}),
    _graph_body(**{"end-points": [{"id": "lan", "type": "vlan",
                                   "interface": "lan0", "vlan-id": "7"}]}),
]


class TestRestApp:
    def test_root_describes_node(self, client):
        description = client.node_description()
        assert description["name"] == "rest-test"
        assert "native" in description["technologies"]
        assert description["deployed-graphs"] == []

    def test_deploy_and_status(self, client):
        body = client.deploy_graph(nat_graph())
        assert body["nfs"]["nat1"]["technology"] == "native"
        status = client.graph_status("g1")
        assert status["nfs"]["nat1"]["state"] == "running"
        assert client.list_graphs() == ["g1"]

    def test_get_deployed_graph_document(self, client):
        client.deploy_graph(nat_graph())
        response = client.get("/nffg/g1")
        assert response.status == 200
        assert response.body["forwarding-graph"]["id"] == "g1"

    def test_put_is_update_when_deployed(self, client, node):
        client.deploy_graph(nat_graph())
        updated = nat_graph()
        updated.flow_rules = updated.flow_rules[:3]
        response = client.put("/nffg/g1", nffg_to_dict(updated))
        assert response.status == 200  # update, not create
        assert response.body["flow-rules"] == 3

    def test_undeploy(self, client, node):
        client.deploy_graph(nat_graph())
        client.undeploy_graph("g1")
        assert client.list_graphs() == []
        assert node.accountant.ram_used_mb == 0

    def test_404_for_unknown_paths_and_graphs(self, client):
        assert client.get("/nope").status == 404
        assert client.get("/nffg/ghost/status").status == 404
        assert client.delete("/nffg/ghost").status == 404

    def test_405_for_wrong_method(self, client):
        response = client.app.handle("DELETE", "/")
        assert response.status == 405

    def test_400_for_malformed_body(self, client):
        response = client.app.handle("PUT", "/nffg/g1", b"{broken")
        assert response.status == 400
        response = client.app.handle("PUT", "/nffg/g1", b"")
        assert response.status == 400
        for body in BADLY_SHAPED_BODIES:
            response = client.app.handle("PUT", "/nffg/g1",
                                         json.dumps(body).encode())
            assert response.status == 400, body
            assert "must be" in response.body["error"], body

    @pytest.mark.parametrize("field, value", [
        ("ip_dst", "203.0.113.0/99"),
        ("tp_dst", 70000),
        ("ip_dst", "\u0662\u0660\u0663.0.113.0/24"),  # Arabic-Indic 203
    ])
    def test_400_for_bad_match_value_and_nothing_deployed(
            self, client, node, field, value):
        document = nffg_to_dict(nat_graph())
        rule = document["forwarding-graph"]["big-switch"]["flow-rules"][3]
        rule["match"][field] = value
        response = client.app.handle("PUT", "/nffg/g1",
                                     json.dumps(document).encode())
        assert response.status == 400, response.body
        assert "flow-rules[3].match" in response.body["error"]
        assert client.list_graphs() == []
        assert node.accountant.ram_used_mb == 0

    def test_400_for_id_mismatch(self, client):
        response = client.put("/nffg/other", nffg_to_dict(nat_graph()))
        assert response.status == 400

    def test_409_for_orchestration_failure(self, client):
        graph = Nffg(graph_id="bad")
        graph.add_nf("x", "ghost-template")
        graph.add_endpoint("lan", "lan0")
        graph.add_flow_rule("r1", "endpoint:lan", "vnf:x:lan")
        response = client.put("/nffg/bad", nffg_to_dict(graph))
        assert response.status == 409
        assert "unknown template" in response.body["error"]

    def test_nnfs_inventory(self, client):
        rows = client.list_nnfs()
        names = {row["name"] for row in rows}
        assert "iptables-nat" in names
        assert "strongswan" in names

    def test_response_bytes_json(self, client):
        response = client.get("/")
        decoded = json.loads(response.to_bytes())
        assert decoded["name"] == "rest-test"


class TestHttpServer:
    def test_real_socket_roundtrip(self, node):
        import urllib.error
        import urllib.request

        from repro.rest.server import NodeHttpServer
        try:
            server = NodeHttpServer(node, port=0).start()
        except OSError:
            pytest.skip("cannot bind a localhost socket here")
        try:
            with urllib.request.urlopen(f"{server.url}/") as reply:
                body = json.loads(reply.read())
            assert body["name"] == "rest-test"
            request = urllib.request.Request(
                f"{server.url}/nffg/g1",
                data=json.dumps(nffg_to_dict(nat_graph())).encode(),
                method="PUT")
            with urllib.request.urlopen(request) as reply:
                assert reply.status == 201
            with urllib.request.urlopen(f"{server.url}/nffg") as reply:
                assert json.loads(reply.read())["nffgs"] == ["g1"]
            # Error status propagates over the socket too.
            try:
                urllib.request.urlopen(f"{server.url}/nffg/ghost")
                pytest.fail("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            server.stop()

    def test_badly_shaped_nffg_is_a_400_not_a_dropped_connection(self, node):
        import http.client

        from repro.rest.server import NodeHttpServer
        try:
            server = NodeHttpServer(node, port=0).start()
        except OSError:
            pytest.skip("cannot bind a localhost socket here")
        try:
            connection = http.client.HTTPConnection(*server.address,
                                                    timeout=5)
            connection.request("PUT", "/nffg/g1",
                               body=json.dumps(_graph_body(VNFs=[5])))
            reply = connection.getresponse()
            assert reply.status == 400
            assert "VNFs[0] must be an object" \
                in json.loads(reply.read())["error"]
            connection.close()
        finally:
            server.stop()


class _SendSpy:
    """An accepted socket that records every ``sendall`` it is handed."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []

    def sendall(self, data):
        self.sends.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def fleet_graph(index):
    graph = Nffg(graph_id=f"fleet{index}")
    graph.add_nf("fw", "firewall", technology="docker",
                 config={"firewall.allow": "udp:53"})
    graph.add_endpoint("lan", "lan0", vlan_id=100 + index)
    graph.add_endpoint("wan", "wan0")
    graph.add_flow_rule("r1", "endpoint:lan", "vnf:fw:lan")
    graph.add_flow_rule("r2", "vnf:fw:wan", "endpoint:wan")
    return graph


@pytest.fixture
def spied_server():
    """A served 63-graph node whose accepted sockets and in-process
    responses are both recorded."""
    from repro.resources.capabilities import NodeCapabilities
    from repro.rest.server import NodeHttpServer

    node = ComputeNode("rest-socket",
                       capabilities=NodeCapabilities.datacenter_server())
    node.add_physical_interface("lan0")
    node.add_physical_interface("wan0")
    for index in range(63):
        node.deploy(fleet_graph(index))
    try:
        server = NodeHttpServer(node, port=0)
    except OSError:
        pytest.skip("cannot bind a localhost socket here")
    accepted, handled = [], []
    get_request = server._server.get_request
    handle = server.app.handle

    def spying_get_request():
        sock, address = get_request()
        accepted.append(_SendSpy(sock))
        return accepted[-1], address

    def spying_handle(method, path, body=b""):
        handled.append(handle(method, path, body))
        return handled[-1]

    server._server.get_request = spying_get_request
    server.app.handle = spying_handle
    server.start()
    try:
        yield server, accepted, handled
    finally:
        server.stop()


class TestSocketBehaviour:
    """By count, not by clock: a response split over two writes stalls
    on the client's delayed ACK, so what is pinned is the number of
    ``sendall`` calls and the socket option, not a latency."""

    def test_one_sendall_per_response_and_nodelay(self, spied_server):
        import http.client
        import socket

        server, accepted, handled = spied_server
        connection = http.client.HTTPConnection(*server.address)
        body = json.dumps(nffg_to_dict(nat_graph())).encode()
        exchanges = [("PUT", "/nffg/g1", body, 201),
                     ("GET", "/nffg/g1/status", None, 200),
                     ("GET", "/metrics", None, 200),
                     ("DELETE", "/nffg/g1", None, 204)]
        try:
            for count, (verb, path, payload, status) in enumerate(
                    exchanges, start=1):
                connection.request(verb, path, body=payload)
                reply = connection.getresponse()
                received = reply.read()
                assert len(accepted) == 1, "the connection is kept alive"
                spy = accepted[0]
                assert len(spy.sends) == count, (
                    f"{verb} {path} left in "
                    f"{len(spy.sends) - count + 1} writes")
                # Status, length and bytes are the in-process result's.
                expected = handled[-1].to_bytes()
                assert reply.status == handled[-1].status == status
                assert int(reply.getheader("Content-Length")) \
                    == len(expected)
                assert received == expected
                assert reply.getheader("Content-Type") \
                    == handled[-1].content_type
                head, _, sent_body = spy.sends[-1].partition(b"\r\n\r\n")
                assert head.startswith(f"HTTP/1.1 {status} ".encode())
                assert sent_body == expected
            assert len(handled) == len(exchanges)
            assert handled[3].to_bytes() == b""          # 204: head only
            assert len(handled[2].to_bytes()) > 64 * 1024  # >> one buffer
            assert accepted[0].getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY) != 0
        finally:
            connection.close()

    def test_hostile_content_length_is_a_400_and_a_close(self, spied_server):
        import socket
        import urllib.request

        server, accepted, handled = spied_server
        for length in ("banana", "-5", "1e3", "12 34"):
            with socket.create_connection(server.address, timeout=5) as raw:
                raw.sendall(f"PUT /nffg/g1 HTTP/1.1\r\nHost: node\r\n"
                            f"Content-Length: {length}\r\n\r\n".encode())
                reply = b""
                while True:  # the server closes: recv() reaches EOF
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith("HTTP/1.1 400 "), length
            assert "Connection: close" in lines
            assert "Content-Length" in json.loads(body)["error"]
            assert f"Content-Length: {len(body)}" in lines
            assert len(accepted[-1].sends) == 1
        assert handled == [], "no such request ever reached the app"
        # The server threads survived: the next connection is served.
        with urllib.request.urlopen(f"{server.url}/nffg") as reply:
            assert len(json.loads(reply.read())["nffgs"]) == 63
