"""Unit tests for detour/drop traces and path tracing."""

import pytest

from repro.core.config import DibsConfig
from repro.metrics.trace import DetourTrace, QueueOccupancyTrace, arc_counts
from repro.net.network import Network, SwitchQueueConfig
from repro.topo import fat_tree


def incast_net(trace_paths=False, buffer_pkts=10):
    net = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=buffer_pkts, ecn_threshold_pkts=4),
        dibs=DibsConfig(),
        seed=4,
        trace_paths=trace_paths,
    )
    return net


def launch_incast(net, n=12, size=30_000):
    return [
        net.start_flow(f"host_{i}", "host_0", size, transport="dibs", kind="query")
        for i in range(1, n + 1)
    ]


class TestDetourTrace:
    def test_records_detour_events(self):
        net = incast_net()
        trace = DetourTrace(net)
        launch_incast(net)
        net.run(until=1.0)
        assert len(trace.detour_events) == net.counters().total_detours()
        assert trace.detour_events, "incast against 10-pkt buffers must detour"

    def test_events_sorted_in_time(self):
        net = incast_net()
        trace = DetourTrace(net)
        launch_incast(net)
        net.run(until=1.0)
        times = [t for t, *_ in trace.detour_events]
        assert times == sorted(times)

    def test_detours_concentrate_in_receiver_pod(self):
        net = incast_net()
        trace = DetourTrace(net)
        launch_incast(net)
        net.run(until=1.0)
        by_switch = trace.detours_by_switch()
        # host_0 hangs off edge_0_0 in pod 0: Fig. 2 shows the receiver's
        # edge switch and its pod's aggregation switches do the detouring.
        top = max(by_switch, key=by_switch.get)
        assert top in {"edge_0_0", "agg_0_0", "agg_0_1"}
        pod0 = {"edge_0_0", "agg_0_0", "agg_0_1"}
        pod0_detours = sum(v for k, v in by_switch.items() if k in pod0)
        assert pod0_detours > sum(by_switch.values()) / 2

    def test_timeline_binning(self):
        net = incast_net()
        trace = DetourTrace(net)
        launch_incast(net)
        net.run(until=1.0)
        timeline = trace.detour_timeline(bin_s=1e-3)
        total = sum(sum(series) for series in timeline.values())
        assert total == len(trace.detour_events)

    def test_timeline_requires_positive_bin(self):
        net = incast_net()
        trace = DetourTrace(net)
        with pytest.raises(ValueError):
            trace.detour_timeline(0.0)

    def test_max_detours_seen(self):
        net = incast_net()
        trace = DetourTrace(net)
        launch_incast(net)
        net.run(until=1.0)
        assert trace.max_detours_seen() >= 1

    def test_drop_events_empty_with_dibs_on_moderate_load(self):
        net = incast_net(buffer_pkts=30)
        trace = DetourTrace(net)
        launch_incast(net, n=8, size=20_000)
        net.run(until=1.0)
        assert trace.drop_events == []


class TestQueueOccupancyTrace:
    def test_samples_selected_switches(self):
        net = incast_net()
        occ = QueueOccupancyTrace(net, ["edge_0_0", "agg_0_0"], interval_s=1e-3)
        occ.start(stop_at=0.02)
        launch_incast(net)
        net.run(until=0.03)
        assert occ.samples
        t0, snap = occ.samples[0]
        assert set(snap) == {"edge_0_0", "agg_0_0"}
        assert len(snap["edge_0_0"]) == 4  # K=4 switch has 4 ports

    def test_peak_occupancy_reflects_congestion(self):
        net = incast_net()
        occ = QueueOccupancyTrace(net, ["edge_0_0"], interval_s=2e-4)
        occ.start(stop_at=0.05)
        launch_incast(net)
        net.run(until=0.05)
        assert occ.peak_occupancy("edge_0_0") >= 9  # the 10-pkt buffer fills

    def test_defaults_to_all_switches(self):
        net = incast_net()
        occ = QueueOccupancyTrace(net, interval_s=1e-3)
        occ.start(stop_at=0.002)
        net.run(until=0.01)
        assert set(occ.samples[0][1]) == {s.name for s in net.switches}

    def test_invalid_interval(self):
        net = incast_net()
        with pytest.raises(ValueError):
            QueueOccupancyTrace(net, interval_s=0)


class TestPathTracing:
    def test_paths_recorded_end_to_end(self):
        net = incast_net(trace_paths=True)
        flow = net.start_flow("host_4", "host_0", 1_460, transport="dibs")
        net.run(until=0.1)
        assert flow.completed

    def test_detoured_packet_has_longer_path(self):
        net = incast_net(trace_paths=True)
        flows = launch_incast(net)
        paths = []

        # Capture data packet paths at the receiver.
        receiver = net.host("host_0")
        for fid, endpoint in list(receiver._endpoints.items()):
            def wrapped(pkt, _orig=endpoint):
                if pkt.is_data and pkt.path:
                    paths.append((pkt.detours, list(pkt.path)))
                _orig(pkt)

            receiver._endpoints[fid] = wrapped
        net.run(until=1.0)
        detoured = [p for d, p in paths if d > 0]
        direct = [p for d, p in paths if d == 0]
        assert detoured and direct
        assert max(len(p) for p in detoured) > max(len(p) for p in direct) - 1

    def test_arc_counts(self):
        counts = arc_counts(["a", "b", "c", "b", "c"])
        assert counts == {("a", "b"): 1, ("b", "c"): 2, ("c", "b"): 1}

    def test_arc_counts_empty(self):
        assert arc_counts([]) == {}
        assert arc_counts(["solo"]) == {}
