"""Unit/integration tests for Ethernet flow control (PFC, §6)."""

import pytest

from repro.core.config import DibsConfig
from repro.net.network import Network, SwitchQueueConfig
from repro.net.pfc import PfcController, enable_pfc
from repro.topo import fat_tree, linear


def pfc_network(buffer_pkts=20, xoff=0.8, xon=0.5, topo=None):
    return Network(
        topo if topo is not None else fat_tree(k=4),
        switch_queues=SwitchQueueConfig(
            discipline="ecn", buffer_pkts=buffer_pkts, ecn_threshold_pkts=8,
            pfc=True, pfc_xoff_fraction=xoff, pfc_xon_fraction=xon,
        ),
        dibs=DibsConfig.disabled(),
        seed=1,
    )


class TestConfiguration:
    def test_controllers_attached_per_switch(self):
        net = pfc_network()
        assert len(net.pfc_controllers) == len(net.switches)
        for controller in net.pfc_controllers:
            assert controller.xon_pkts < controller.xoff_pkts

    def test_ports_have_observers(self):
        net = pfc_network()
        for sw in net.switches:
            assert all(p.on_queue_change is not None for p in sw.ports)

    def test_no_pfc_by_default(self):
        net = Network(fat_tree(k=4))
        assert net.pfc_controllers == []

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            enable_pfc(Network(fat_tree(k=4)), xoff_fraction=0.5, xon_fraction=0.5)
        net = Network(fat_tree(k=4))
        with pytest.raises(ValueError):
            PfcController(net.switches[0], xoff_pkts=5, xon_pkts=5)
        with pytest.raises(ValueError):
            PfcController(net.switches[0], xoff_pkts=5, xon_pkts=2, pause_duration_s=0.0)


class TestPauseMechanics:
    def test_port_pause_blocks_transmission(self):
        net = Network(fat_tree(k=4))
        # Pause both of the edge switch's uplinks: nothing leaves the pod.
        net.port_between("edge_0_0", "agg_0_0").pause()
        net.port_between("edge_0_0", "agg_0_1").pause()
        flow = net.start_flow("host_0", "host_15", 5_000, transport="dctcp")
        net.run(until=0.05)
        assert not flow.completed

    def test_timed_pause_expires(self):
        net = Network(fat_tree(k=4))
        net.port_between("edge_0_0", "agg_0_0").pause(duration_s=0.001)
        net.port_between("edge_0_0", "agg_0_1").pause(duration_s=0.001)
        flow = net.start_flow("host_0", "host_15", 5_000, transport="dctcp")
        net.run(until=0.05)
        assert flow.completed
        assert flow.fct > 0.001  # held for the pause duration

    def test_resume_releases_queue(self):
        net = Network(fat_tree(k=4))
        # host_0's edge uplinks both paused: nothing leaves the pod.
        p1 = net.port_between("edge_0_0", "agg_0_0")
        p2 = net.port_between("edge_0_0", "agg_0_1")
        p1.pause()
        p2.pause()
        flow = net.start_flow("host_0", "host_15", 5_000, transport="dctcp")
        net.run(until=0.01)
        assert not flow.completed
        p1.resume()
        p2.resume()
        net.run(until=0.1)
        assert flow.completed

    def test_resume_when_not_paused_is_noop(self):
        net = Network(fat_tree(k=4))
        port = net.port_between("edge_0_0", "agg_0_0")
        port.resume()  # must not raise or transmit anything
        assert not port.busy


class TestLosslessness:
    def test_pfc_nearly_eliminates_incast_drops(self):
        """The §6 claim PFC shares with DIBS: a (near-)lossless fabric.

        A handful of drops can slip in between XOFF crossing and the pause
        taking effect — the headroom-tuning burden the paper points out."""
        net = pfc_network(buffer_pkts=20)
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        assert all(f.completed for f in flows)
        assert net.counters().drop_report()["overflow"] <= 5
        assert sum(c.pause_frames_sent for c in net.pfc_controllers) > 0

    def test_without_pfc_same_incast_drops(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(discipline="ecn", buffer_pkts=20, ecn_threshold_pkts=8),
            seed=1,
        )
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        assert net.counters().drop_report()["overflow"] > 0

    def test_no_ports_left_paused_after_drain(self):
        net = pfc_network(buffer_pkts=20)
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        # Timed pauses expire and XON resumes fire: nothing stays wedged.
        for switch in net.switches:
            assert all(not p.paused for p in switch.ports)
        for host in net.hosts:
            assert not host.nic.paused


class TestHeadOfLineBlocking:
    def test_pause_cascade_reaches_innocent_hosts(self):
        """PFC's pathology (§6): the pause cascade is indiscriminate — it
        stalls hosts that never sent toward the hotspot.  DIBS never
        touches innocent senders."""

        def run(pfc: bool, dibs: bool):
            queues = SwitchQueueConfig(
                discipline="ecn", buffer_pkts=15, ecn_threshold_pkts=5, pfc=pfc,
            )
            net = Network(
                fat_tree(k=4),
                switch_queues=queues,
                dibs=DibsConfig() if dibs else DibsConfig.disabled(),
                seed=2,
            )
            transport = "dibs" if dibs else "dctcp"
            # Incast into host_0 from hosts 4..14; host_15 is innocent.
            for i in range(4, 15):
                net.start_flow(f"host_{i}", "host_0", 40_000, transport=transport, kind="query")
            victim = net.start_flow("host_15", "host_1", 10_000, transport=transport,
                                    kind="background", at=0.0005)
            net.run(until=5.0)
            assert victim.completed
            return net

        pfc_net = run(pfc=True, dibs=False)
        # host_1 only carries the victim's ACKs, yet the congested edge
        # switch's indiscriminate PAUSE stalls its NIC too.
        assert pfc_net.host("host_1").nic.pauses_received > 0

        dibs_net = run(pfc=False, dibs=True)
        # DIBS never back-pressures any host.
        assert all(h.nic.pauses_received == 0 for h in dibs_net.hosts)


class TestPfcScheme:
    def test_scheme_wires_everything(self):
        from repro.experiments import SCALED_DEFAULTS

        scenario = SCALED_DEFAULTS.with_overrides(scheme="dctcp-pfc")
        net = scenario.build_network()
        assert net.pfc_controllers
        cfg = scenario.transport_config()
        assert cfg.dctcp
        assert cfg.fast_retransmit_threshold == 3
