"""Tests for the CIOQ switch architecture (§4)."""

import pytest

from repro.core.config import DibsConfig
from repro.net.audit import assert_conserved
from repro.net.cioq import CioqSwitch
from repro.net.network import Network, SwitchQueueConfig
from repro.sim.engine import Scheduler
from repro.topo import fat_tree
from repro.transport.base import dibs_host_config


def cioq_net(dibs=False, speedup=2.0, ingress=16, buffer_pkts=30, seed=1):
    return Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(
            discipline="ecn", buffer_pkts=buffer_pkts, ecn_threshold_pkts=8,
            architecture="cioq", cioq_speedup=speedup, cioq_ingress_pkts=ingress,
        ),
        dibs=DibsConfig() if dibs else DibsConfig.disabled(),
        seed=seed,
    )


class TestConstruction:
    def test_network_builds_cioq_switches(self):
        net = cioq_net()
        assert all(isinstance(sw, CioqSwitch) for sw in net.switches)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CioqSwitch(0, "s", Scheduler(), fabric_speedup=0.0)
        with pytest.raises(ValueError):
            CioqSwitch(0, "s", Scheduler(), ingress_capacity_pkts=0)
        with pytest.raises(ValueError):
            SwitchQueueConfig(architecture="banyan")


class TestForwarding:
    def test_single_flow_completes(self):
        net = cioq_net()
        flow = net.start_flow("host_0", "host_15", 50_000, transport="dctcp")
        net.run(until=1.0)
        assert flow.completed

    def test_fabric_adds_service_latency(self):
        """A CIOQ hop costs an extra size/(speedup*rate) per switch."""
        out_net = Network(fat_tree(k=4), seed=1)
        f1 = out_net.start_flow("host_0", "host_15", 1_460, transport="dctcp")
        out_net.run(until=0.1)

        cq_net = cioq_net(speedup=2.0)
        f2 = cq_net.start_flow("host_0", "host_15", 1_460, transport="dctcp")
        cq_net.run(until=0.1)
        assert f2.fct > f1.fct
        # 6 switch hops of a 1500B packet at 2x 1Gbps: +36us on the data
        # path (and the same for the ACK), bounded well under 2x overall.
        assert f2.fct < f1.fct * 2

    def test_ingress_overflow_counted(self):
        # An under-provisioned fabric (slower than line rate) with tiny
        # input buffers overflows at the ingress under incast.
        net = cioq_net(speedup=0.5, ingress=2, buffer_pkts=100)
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
        net.run(until=2.0)
        assert net.counters().drop_report()["ingress_overflow"] > 0

    def test_conservation_with_ingress_drops(self):
        net = cioq_net(speedup=0.5, ingress=2, buffer_pkts=100)
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
        net.run()
        assert_conserved(net)


class TestDibsOnCioq:
    def test_dibs_detours_at_forwarding_engine(self):
        net = cioq_net(dibs=True, buffer_pkts=10, seed=2)
        cfg = dibs_host_config()
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        assert all(f.completed for f in flows)
        assert net.counters().total_detours() > 0
        # Egress overflow is eliminated; only ingress pressure remains and
        # with speedup 2 + 16-pkt inputs it does not materialize.
        assert net.counters().drop_report()["overflow"] == 0

    def test_cioq_dibs_beats_cioq_droptail(self):
        def qct(dibs):
            net = cioq_net(dibs=dibs, buffer_pkts=10, seed=3)
            cfg = dibs_host_config() if dibs else "dctcp"
            flows = [
                net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
                for i in range(1, 13)
            ]
            net.run(until=5.0)
            assert all(f.completed for f in flows)
            return max(f.receiver_done_time for f in flows)

        assert qct(True) < qct(False)

    def test_ingress_occupancy_introspection(self):
        net = cioq_net()
        sw = net.switches[0]
        assert sw.ingress_occupancy() == {}
        net.start_flow("host_0", "host_15", 20_000, transport="dctcp")
        net.run(until=1.0)
        # After drain all ingress buffers are empty again.
        assert all(v == 0 for v in sw.ingress_occupancy().values())
