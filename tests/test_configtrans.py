"""``parse_port_list``: the firewall plugin's ``proto:port`` lists."""

import pytest

from repro.nnf.plugin import PluginError as TranslationError
from repro.nnf.plugins.iptables_firewall import parse_port_list


class TestPortList:
    def test_parses_mixed_list(self):
        assert parse_port_list("tcp:22, udp:53") == [("tcp", 22),
                                                     ("udp", 53)]

    def test_empty_entries_skipped(self):
        assert parse_port_list("udp:53,,") == [("udp", 53)]

    def test_bad_proto_rejected(self):
        with pytest.raises(TranslationError):
            parse_port_list("icmp:0")

    def test_bad_port_rejected(self):
        with pytest.raises(TranslationError):
            parse_port_list("tcp:abc")
