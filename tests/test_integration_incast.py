"""Integration tests: the paper's headline incast behaviour (Fig. 6/7).

These run the same incast experiment under the three Click-testbed settings
(infinite buffer, droptail, droptail+DIBS) and check the orderings the
paper reports, end to end through topology, routing, switching, and TCP.
"""

import pytest

from repro.core.config import DibsConfig
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import click_testbed, fat_tree


def run_incast(scheme, n_senders=5, flows_per_sender=10, flow_bytes=32_000, buffer_pkts=100):
    """The §5.2 testbed incast: senders 0..n-1 each send 10 flows of 32 KB
    to the last server.  Returns (qct, per-flow FCTs, network)."""
    if scheme == "infinite":
        queues = SwitchQueueConfig(discipline="infinite", infinite_with_ecn=False)
        dibs = DibsConfig.disabled()
        transport = "tcp"
    elif scheme == "droptail":
        queues = SwitchQueueConfig(discipline="droptail", buffer_pkts=buffer_pkts)
        dibs = DibsConfig.disabled()
        transport = "tcp"
    elif scheme == "detour":
        queues = SwitchQueueConfig(discipline="droptail", buffer_pkts=buffer_pkts)
        dibs = DibsConfig()
        # §5.2: fast retransmissions disabled when detouring.
        transport = "tcp-dibs"
    else:
        raise ValueError(scheme)

    from repro.transport.base import TcpConfig

    tcp = TcpConfig(fast_retransmit_threshold=None) if transport == "tcp-dibs" else TcpConfig()
    net = Network(click_testbed(), switch_queues=queues, dibs=dibs, seed=11)
    target = f"host_{len(net.hosts) - 1}"
    flows = []
    for s in range(n_senders):
        for _ in range(flows_per_sender):
            flows.append(net.start_flow(f"host_{s}", target, flow_bytes, transport=tcp, kind="query"))
    net.run(until=5.0)
    assert all(f.completed for f in flows), f"incomplete flows under {scheme}"
    qct = max(f.receiver_done_time for f in flows)
    return qct, [f.fct for f in flows], net


class TestClickIncast:
    @pytest.fixture(scope="class")
    def results(self):
        return {scheme: run_incast(scheme) for scheme in ("infinite", "droptail", "detour")}

    def test_infinite_buffer_is_near_optimal(self, results):
        qct_inf, _, net = results["infinite"]
        # 50 x 32 KB = 1.6 MB over a 1 Gbps edge: ~13.5 ms minimum.
        ideal = 50 * 32_000 * 8 / 1e9
        assert qct_inf < ideal * 2.0
        assert net.counters().total_drops() == 0

    def test_detour_close_to_infinite(self, results):
        # The paper: infinite completes in 25 ms, DIBS in 27 ms.
        qct_inf, _, _ = results["infinite"]
        qct_det, _, _ = results["detour"]
        assert qct_det < qct_inf * 1.5

    def test_droptail_much_slower(self, results):
        qct_drop, _, _ = results["droptail"]
        qct_det, _, _ = results["detour"]
        # Droptail suffers timeouts; the paper saw 51 ms vs 27 ms.
        assert qct_drop > qct_det * 1.5

    def test_detour_eliminates_drops_and_timeouts(self, results):
        _, fcts, net = results["detour"]
        assert net.counters().total_drops() == 0
        assert net.counters().total_detours() > 0

    def test_droptail_has_drops(self, results):
        _, _, net = results["droptail"]
        assert net.counters().total_drops() > 0

    def test_droptail_tail_flows_hit_timeouts(self, results):
        # Fig. 6(b): ~9% of droptail flows take an RTO (minRTO=10ms);
        # with DIBS every flow finishes quickly.
        _, fcts_drop, _ = results["droptail"]
        _, fcts_det, _ = results["detour"]
        assert max(fcts_drop) > 0.010
        assert max(fcts_det) < max(fcts_drop)


class TestBufferSweepShape:
    """Fig. 7's shape: DIBS ~flat across buffer sizes, DCTCP degrades as
    buffers shrink."""

    @staticmethod
    def run_one(scheme, buffer_pkts):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(
                discipline="ecn", buffer_pkts=buffer_pkts,
                ecn_threshold_pkts=max(2, min(20, buffer_pkts // 3)),
            ),
            dibs=DibsConfig() if scheme == "dibs" else DibsConfig.disabled(),
            seed=5,
        )
        flows = [
            net.start_flow(f"host_{i}", "host_0", 20_000,
                           transport="dibs" if scheme == "dibs" else "dctcp", kind="query")
            for i in range(1, 13)
        ]
        net.run(until=5.0)
        done = [f for f in flows if f.completed]
        assert len(done) == len(flows)
        return max(f.receiver_done_time for f in flows)

    def test_dibs_insensitive_to_buffer_size(self):
        small = self.run_one("dibs", 10)
        large = self.run_one("dibs", 100)
        assert small < large * 3 + 0.005

    def test_dctcp_degrades_at_small_buffers(self):
        dctcp_small = self.run_one("dctcp", 10)
        dibs_small = self.run_one("dibs", 10)
        assert dibs_small < dctcp_small

    def test_schemes_converge_at_large_buffers(self):
        dctcp_large = self.run_one("dctcp", 200)
        dibs_large = self.run_one("dibs", 200)
        # With buffers big enough for the whole burst, both are lossless
        # and complete in similar time.
        assert abs(dctcp_large - dibs_large) < 0.5 * max(dctcp_large, dibs_large)
