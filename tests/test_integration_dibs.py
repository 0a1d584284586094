"""Integration tests for DIBS-specific behaviours the paper calls out."""

import pytest

from repro.core.config import DibsConfig
from repro.core.detour import make_policy
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import fat_tree, linear


def incast_network(dibs_config, buffer_pkts=10, seed=6, ttl=255):
    from repro.transport.base import dibs_host_config

    net = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=buffer_pkts, ecn_threshold_pkts=4),
        dibs=dibs_config,
        seed=seed,
    )
    cfg = dibs_host_config(ttl=ttl)
    flows = [
        net.start_flow(f"host_{i}", "host_0", 20_000, transport=cfg, kind="query")
        for i in range(1, 13)
    ]
    return net, flows


class TestNoImpactWhenIdle:
    def test_dibs_never_triggers_without_congestion(self):
        """'DIBS has no impact on normal operations' (§2)."""
        net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=1)
        f = net.start_flow("host_0", "host_9", 100_000, transport="dibs")
        net.run(until=1.0)
        assert f.completed
        assert net.counters().total_detours() == 0

    def test_light_load_identical_with_and_without_dibs(self):
        def run(dibs):
            net = Network(fat_tree(k=4), dibs=DibsConfig() if dibs else DibsConfig.disabled(), seed=1)
            f = net.start_flow("host_0", "host_9", 100_000, transport="dibs")
            net.run(until=1.0)
            return f.fct

        assert run(True) == run(False)


class TestDetourMechanics:
    def test_detours_eliminate_losses(self):
        net, flows = incast_network(DibsConfig())
        net.run(until=5.0)
        assert all(f.completed for f in flows)
        assert net.counters().total_drops() == 0
        assert net.counters().total_detours() > 0

    def test_detoured_packets_never_reach_wrong_host(self):
        net, flows = incast_network(DibsConfig())
        net.run(until=5.0)
        assert all(h.misdelivered == 0 for h in net.hosts)

    def test_low_ttl_forces_drops(self):
        """§5.5.3: with a low TTL, DIBS is forced to drop detour-looped
        packets as TTL expires."""
        net_low, flows_low = incast_network(DibsConfig(), ttl=12, seed=6)
        net_low.run(until=5.0)
        net_high, flows_high = incast_network(DibsConfig(), ttl=255, seed=6)
        net_high.run(until=5.0)
        assert net_low.counters().drop_report()["ttl_expired"] > 0
        assert net_high.counters().drop_report()["ttl_expired"] == 0

    def test_ttl_has_no_effect_without_dibs(self):
        """Fig. 13: TTL never binds on shortest-path forwarding."""
        net, flows = incast_network(DibsConfig.disabled(), ttl=12)
        net.run(until=5.0)
        assert net.counters().drop_report()["ttl_expired"] == 0

    @pytest.mark.parametrize("policy", ["random", "load-aware", "flow-based", "probabilistic"])
    def test_all_policies_complete_incast(self, policy):
        net, flows = incast_network(DibsConfig(policy=make_policy(policy)))
        net.run(until=5.0)
        assert all(f.completed for f in flows)

    def test_no_ingress_detour_variant_still_works(self):
        net, flows = incast_network(DibsConfig(allow_detour_to_ingress=False))
        net.run(until=5.0)
        assert all(f.completed for f in flows)

    def test_detour_cap_bounds_per_packet_detours(self):
        net, flows = incast_network(DibsConfig(max_detours_per_packet=3))
        net.run(until=5.0)
        # With the cap, packets give up and drop instead of looping.
        assert net.counters().drop_report()["no_detour_port"] >= 0
        assert all(f.completed for f in flows)


class TestLinearTopologyFootnote:
    def test_dibs_works_on_a_chain(self):
        """§7 footnote 10: DIBS functions even on a linear topology, where
        the only detour direction is backwards."""
        from repro.transport.base import dibs_host_config

        net = Network(
            linear(switches=3, hosts_per_switch=2),
            switch_queues=SwitchQueueConfig(buffer_pkts=5, ecn_threshold_pkts=2),
            dibs=DibsConfig(),
            seed=2,
        )
        # Everyone sends to host_0 (attached to sw_0).
        flows = [
            net.start_flow(f"host_{i}", "host_0", 15_000, transport=dibs_host_config(), kind="query")
            for i in range(1, 6)
        ]
        net.run(until=5.0)
        assert all(f.completed for f in flows)
        assert net.counters().total_detours() > 0


class TestCollateralDamage:
    def test_background_flow_unharmed_by_remote_incast(self):
        """§5.4.1: flows not crossing the hotspot are unaffected."""
        from repro.transport.base import dibs_host_config

        def run(with_incast):
            net = Network(
                fat_tree(k=4),
                switch_queues=SwitchQueueConfig(buffer_pkts=20, ecn_threshold_pkts=8),
                dibs=DibsConfig(),
                seed=3,
            )
            # Background flow entirely inside pod 3 (hosts 12..15).
            bg = net.start_flow("host_12", "host_13", 10_000, transport=dibs_host_config(), kind="background")
            if with_incast:
                for i in range(1, 4):
                    for j in range(4, 12):
                        net.start_flow(f"host_{j}", f"host_{i}", 20_000, transport=dibs_host_config(), kind="query")
            net.run(until=5.0)
            assert bg.completed
            return bg.fct

        clean = run(False)
        contested = run(True)
        # Same-rack traffic does not cross the congested pods at all.
        assert contested < clean * 2 + 1e-3


class TestEcnOnDetouredPackets:
    def test_detoured_packets_still_marked(self):
        """§5.3: 'The detoured packets are also marked.'"""
        net, flows = incast_network(DibsConfig(), buffer_pkts=10)
        net.run(until=5.0)
        assert net.counters().total_ecn_marks() > 0
        # Senders saw the marks: at least one flow echoed CE.
        assert sum(f.marked_acks for f in flows) > 0
