"""Cost model, memory model and Table 1 driver tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.templates import Technology
from repro.perf.costmodel import CostModel, NfWorkload
from repro.perf.memory import MemoryModel
from repro.perf.table1 import PAPER_TABLE1, ipsec_cpe_graph, run_table1


class TestCostModel:
    def test_vm_slower_than_native_for_every_workload(self):
        model = CostModel()
        for workload in (NfWorkload.ipsec_esp(), NfWorkload.nat(),
                         NfWorkload.firewall(), NfWorkload.bridge()):
            native = model.nf_seconds(Technology.NATIVE, workload, 1500)
            vm = model.nf_seconds(Technology.VM, workload, 1500,
                                  uses_kernel_datapath=False)
            assert vm.total > native.total, workload.name

    def test_docker_close_to_native(self):
        model = CostModel()
        workload = NfWorkload.ipsec_esp()
        native = model.nf_seconds(Technology.NATIVE, workload, 1500)
        docker = model.nf_seconds(Technology.DOCKER, workload, 1500)
        assert 1.0 < docker.total / native.total < 1.01

    def test_dpdk_cheapest_per_packet(self):
        model = CostModel()
        workload = NfWorkload.bridge()
        dpdk = model.nf_seconds(Technology.DPDK, workload, 1500)
        native = model.nf_seconds(Technology.NATIVE, workload, 1500)
        assert dpdk.total < native.total

    def test_marking_and_tagging_costs_added(self):
        model = CostModel()
        workload = NfWorkload.nat()
        plain = model.nf_seconds(Technology.NATIVE, workload, 1500)
        shared = model.nf_seconds(Technology.NATIVE, workload, 1500,
                                  marking_rules=4, tagged_port=True)
        expected = (4 * model.mark_rule_seconds
                    + 2 * model.vlan_op_seconds)
        assert shared.total - plain.total == pytest.approx(expected)

    def test_chain_adds_switch_path_and_lookups(self):
        model = CostModel()
        workload = NfWorkload.nat()
        hop = model.nf_seconds(Technology.NATIVE, workload, 1500)
        chain1 = model.chain_seconds([hop])
        chain3 = model.chain_seconds([hop, hop, hop])
        assert chain3.total > 3 * hop.total
        assert chain3.components["extra-lookups"] == pytest.approx(
            2 * model.extra_lookup_seconds)
        assert chain1.components["switch-path"] == pytest.approx(
            model.switch_path_seconds)

    def test_closed_form_throughput(self):
        assert CostModel.throughput_mbps(12e-6, 1500) == pytest.approx(
            1000.0)
        with pytest.raises(ValueError):
            CostModel.throughput_mbps(0.0, 1500)
        with pytest.raises(ValueError):
            CostModel.throughput_mbps(12e-6, 0)

    @given(st.integers(min_value=64, max_value=9000))
    @settings(max_examples=25)
    def test_cost_monotone_in_frame_size(self, frame_bytes):
        model = CostModel()
        workload = NfWorkload.ipsec_esp()
        small = model.nf_seconds(Technology.NATIVE, workload, 64)
        big = model.nf_seconds(Technology.NATIVE, workload, frame_bytes)
        assert big.total >= small.total


class TestMemoryModel:
    def test_table1_ram_column(self):
        model = MemoryModel()
        rss = 19.4
        assert model.runtime_mb(Technology.NATIVE, rss) == pytest.approx(
            PAPER_TABLE1["native"]["ram_mb"])
        assert model.runtime_mb(Technology.DOCKER, rss) == pytest.approx(
            PAPER_TABLE1["docker"]["ram_mb"])
        assert model.runtime_mb(Technology.VM, rss) == pytest.approx(
            PAPER_TABLE1["vm"]["ram_mb"])

    def test_breakdown_sums_to_total(self):
        model = MemoryModel()
        for technology in (Technology.NATIVE, Technology.DOCKER,
                           Technology.VM, Technology.DPDK):
            breakdown = model.breakdown(technology, 19.4)
            assert sum(breakdown.values()) == pytest.approx(
                model.runtime_mb(technology, 19.4))

    def test_vm_ram_independent_of_nf_rss(self):
        model = MemoryModel()
        assert model.runtime_mb(Technology.VM, 5.0) == model.runtime_mb(
            Technology.VM, 50.0)


class TestIperfAndTable1:
    def test_ipsec_graph_is_valid(self):
        from repro.nffg.validate import validate_nffg
        validate_nffg(ipsec_cpe_graph("x", "native"))

    def test_table1_rows_complete(self):
        only_in = {"vm-exits": "vm", "guest-copies": "vm",
                   "veth-hop": "docker"}
        for frame_bytes in (64, 1500, 9000):
            rows = run_table1(frame_bytes=frame_bytes)
            assert [row.flavor for row in rows] == ["vm", "docker", "native"]
            for row in rows:
                assert row.probe_delivered and row.esp_on_wire
                assert row.throughput_mbps > 0
                # Throughput is exactly attributable to its breakdown.
                assert row.throughput_mbps == pytest.approx(
                    CostModel.throughput_mbps(sum(row.breakdown.values()),
                                              frame_bytes), rel=1e-12)
                assert "kernel-stack" in row.breakdown
                for name, flavor in only_in.items():
                    assert (name in row.breakdown) == (row.flavor == flavor)

    def test_table1_shape_holds(self):
        rows = {row.flavor: row for row in run_table1()}
        assert rows["vm"].throughput_mbps < rows["docker"].throughput_mbps
        assert rows["vm"].ram_mb > rows["docker"].ram_mb \
            > rows["native"].ram_mb
        assert rows["vm"].image_mb > rows["docker"].image_mb \
            > rows["native"].image_mb
