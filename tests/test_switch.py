"""Unit tests for the switch forwarding pipeline and DIBS detouring."""

import random

import pytest

from repro.core.config import DibsConfig
from repro.core.detour import LoadAwareDetourPolicy
from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, EcnQueue
from repro.net.switch import (
    DROP_NO_DETOUR,
    DROP_NO_ROUTE,
    DROP_TTL,
    Switch,
)
from repro.sim.engine import Scheduler


class Star:
    """One switch, one attached host, and N neighbor switches.

    The neighbor switches have no FIB entries, so packets park in their
    queues — convenient for inspecting where the hub sent things.
    """

    def __init__(self, neighbors=3, queue_capacity=2, dibs=None, host_queue_capacity=2):
        self.sched = Scheduler()
        self.host = Host(0, "h0", self.sched)
        self.hub = Switch(100, "hub", self.sched, dibs=dibs, rng=random.Random(1))
        # Port 0 on the hub faces the host.
        hub_host_port = Port(self.hub, DropTailQueue(host_queue_capacity), 1e9, 0.0)
        host_port = Port(self.host, DropTailQueue(100), 1e9, 0.0)
        connect(hub_host_port, host_port)
        self.neighbors = []
        for i in range(neighbors):
            nbr = Switch(101 + i, f"nbr{i}", self.sched, rng=random.Random(2 + i))
            hub_port = Port(self.hub, DropTailQueue(queue_capacity), 1e9, 0.0)
            nbr_port = Port(nbr, DropTailQueue(queue_capacity), 1e9, 0.0)
            connect(hub_port, nbr_port)
            self.neighbors.append((nbr, hub_port))
        # Route to the host via port 0.
        self.hub.fib = {0: [0]}

    def inject(self, pkt, in_port=1):
        self.hub.receive(pkt, in_port)


def data_pkt(flow=1, dst=0, ttl=64):
    return Packet(flow_id=flow, src=5, dst=dst, payload=1460, ttl=ttl)


class TestForwarding:
    def test_forwards_toward_fib_port(self):
        star = Star()
        star.inject(data_pkt())
        star.sched.run()
        assert star.host._endpoints == {}  # unclaimed but delivered
        assert star.host.unclaimed == 1
        assert star.hub.counters.forwards == 1

    def test_ttl_decremented_per_hop(self):
        star = Star()
        pkt = data_pkt(ttl=10)
        star.inject(pkt)
        assert pkt.ttl == 9

    def test_ttl_expiry_drops(self):
        star = Star()
        pkt = data_pkt(ttl=1)
        star.inject(pkt)
        star.sched.run()
        assert star.hub.counters.drops_ttl == 1
        assert star.hub.counters.forwards == 0

    def test_no_route_drops(self):
        star = Star()
        pkt = data_pkt(dst=42)  # no FIB entry
        star.inject(pkt)
        assert star.hub.counters.drops_no_route == 1

    def test_overflow_drop_without_dibs(self):
        star = Star(host_queue_capacity=1)
        # First packet goes into the transmitter, second occupies the queue,
        # third overflows.
        for _ in range(3):
            star.inject(data_pkt())
        assert star.hub.counters.drops_overflow == 1

    def test_hop_counter_increments(self):
        star = Star()
        pkt = data_pkt()
        star.inject(pkt)
        assert pkt.hops == 1

    def test_send_to_directly_downed_port_counts_one_drop(self):
        # Port.set_down() without refresh_fault_state leaves the FIB (and
        # the route memo) pointing at the dead port; the port counts the
        # packet as link_down and the switch must not count it again.
        star = Star()
        star.inject(data_pkt())  # memoizes the route to the host port
        star.hub.ports[0].set_down()
        star.inject(data_pkt())
        assert star.hub.ports[0].drops_link_down == 2  # killed + rejected
        assert star.hub.counters.drops == 0
        assert star.hub.counters.forwards == 1

    def test_path_appended_when_tracing(self):
        star = Star()
        pkt = data_pkt()
        pkt.path = []
        star.inject(pkt)
        assert pkt.path == ["hub"]


class TestEcmp:
    def make_two_path_switch(self):
        sched = Scheduler()
        sw = Switch(10, "sw", sched, rng=random.Random(0))
        sinks = []
        for i in range(2):
            nbr = Switch(20 + i, f"n{i}", sched, rng=random.Random(i))
            p_sw = Port(sw, DropTailQueue(1000), 1e9, 0.0)
            p_n = Port(nbr, DropTailQueue(1000), 1e9, 0.0)
            connect(p_sw, p_n)
            sinks.append(nbr)
        sw.fib = {0: [0, 1]}
        return sched, sw, sinks

    def test_same_flow_same_port(self):
        sched, sw, sinks = self.make_two_path_switch()
        for _ in range(20):
            sw.receive(data_pkt(flow=7), in_port=0)
        lens = [len(p.queue) + p.pkts_sent for p in sw.ports]
        assert sorted(lens) == [0, 20]  # all on one port

    def test_flows_spread_across_ports(self):
        sched, sw, sinks = self.make_two_path_switch()
        for flow in range(200):
            sw.receive(data_pkt(flow=flow), in_port=0)
        used = [len(p.queue) + p.pkts_sent for p in sw.ports]
        assert min(used) > 50  # roughly balanced hash

    def test_ecmp_choice_is_deterministic(self):
        # The same flow must hash identically in two separate builds.
        picks = []
        for _ in range(2):
            sched, sw, sinks = self.make_two_path_switch()
            sw.receive(data_pkt(flow=99), in_port=0)
            picks.append(max(range(2), key=lambda i: len(sw.ports[i].queue) + sw.ports[i].pkts_sent))
        assert picks[0] == picks[1]

    def test_memoized_pick_matches_hash_and_survives_repeats(self):
        from repro.sim.rng import stable_hash

        sched, sw, sinks = self.make_two_path_switch()
        for _ in range(5):
            sw.receive(data_pkt(flow=7), in_port=0)
        expected = sw.fib[0][stable_hash(7, sw.node_id) % 2]
        # The memo holds the output Port itself, not its index.
        assert sw._ecmp_cache[(0, 7)] is sw.ports[expected]
        assert sw.ports[expected].pkts_sent + len(sw.ports[expected].queue) == 5
        # A multi-hop destination never lands in the per-destination memo.
        assert 0 not in sw._route

    def test_fib_install_invalidates_ecmp_cache(self):
        # Both memos: the ECMP picks and the per-destination routes.
        sched, sw, sinks = self.make_two_path_switch()
        self._fill_both_memos(sw)
        sw.install_fib({0: [1, 0], 5: [0]})
        assert not sw._route and not sw._ecmp_cache
        sw.receive(data_pkt(flow=7, dst=5), in_port=0)
        assert sw._route[5] is sw.ports[0]  # re-resolved from the new FIB
        # Direct assignment (the Network builder idiom) also invalidates.
        self._fill_both_memos(sw)
        sw.fib = {0: [0, 1]}
        assert not sw._route and not sw._ecmp_cache

    def test_single_hop_destination_memoized_per_destination(self):
        sched, sw, sinks = self.make_two_path_switch()
        sw.install_fib({0: [0, 1], 5: [1]})
        for flow in range(10):
            sw.receive(data_pkt(flow=flow, dst=5), in_port=0)
        # One entry for the destination, whatever the flow.
        assert sw._route == {5: sw.ports[1]}
        assert not sw._ecmp_cache
        assert sw.ports[1].pkts_sent + len(sw.ports[1].queue) == 10

    def _fill_both_memos(self, sw):
        sw.install_fib({0: [0, 1], 5: [1]})
        sw.receive(data_pkt(flow=7, dst=0), in_port=0)
        sw.receive(data_pkt(flow=7, dst=5), in_port=0)
        assert sw._route and sw._ecmp_cache

    def test_port_down_then_refresh_invalidates_both_memos(self):
        sched, sw, sinks = self.make_two_path_switch()
        self._fill_both_memos(sw)
        sw.ports[1].set_down()
        killed = sw.ports[1].drops_link_down  # packets caught mid-flight
        sw.refresh_fault_state()
        assert not sw._route and not sw._ecmp_cache
        for flow in range(20):
            sw.receive(data_pkt(flow=flow, dst=0), in_port=0)
        sw.receive(data_pkt(flow=7, dst=5), in_port=0)
        # No cached pick points at the dead port: dst 0 is down to one
        # live hop (now a per-destination entry), and dst 5, whose only
        # hop died, has no route at all.
        assert sw._route == {0: sw.ports[0]}
        assert not sw._ecmp_cache
        assert sw.counters.drops_no_route == 1
        assert sw.ports[1].drops_link_down == killed  # nothing sent to it

    def test_detour_toggle_invalidates_both_memos(self):
        sched, sw, sinks = self.make_two_path_switch()
        self._fill_both_memos(sw)
        sw.set_detour_enabled(False)
        assert not sw._route and not sw._ecmp_cache
        self._fill_both_memos(sw)
        sw.set_detour_enabled(True)
        assert not sw._route and not sw._ecmp_cache

    def test_packet_spray_round_robins_and_is_never_memoized(self):
        sched = Scheduler()
        sw = Switch(10, "sw", sched, rng=random.Random(0), ecmp_mode="packet")
        for i in range(3):
            nbr = Switch(20 + i, f"n{i}", sched, rng=random.Random(i))
            connect(Port(sw, DropTailQueue(1000), 1e9, 0.0),
                    Port(nbr, DropTailQueue(1000), 1e9, 0.0))
        sw.fib = {0: [0, 1, 2], 5: [2]}
        for _ in range(30):
            sw.receive(data_pkt(flow=7), in_port=0)  # one flow, sprayed
        used = [len(p.queue) + p.pkts_sent for p in sw.ports]
        assert used == [10, 10, 10]
        assert not sw._ecmp_cache and 0 not in sw._route
        # Single-hop destinations are still memoized under spraying.
        sw.receive(data_pkt(flow=7, dst=5), in_port=0)
        assert sw._route == {5: sw.ports[2]}


class TestDibsDetour:
    def test_detours_when_desired_queue_full(self):
        star = Star(host_queue_capacity=1, dibs=DibsConfig())
        for _ in range(2):
            star.inject(data_pkt())  # fills transmitter + queue
        pkt = data_pkt()
        star.inject(pkt)
        assert star.hub.counters.detours == 1
        assert pkt.detours == 1
        assert star.hub.counters.drops == 0
        # It must sit in one of the neighbor-facing queues.
        parked = sum(len(p.queue) + p.pkts_sent for _, p in star.neighbors)
        assert parked == 1

    def test_never_detours_toward_hosts(self):
        # Hub's only non-desired ports are the host port and neighbors;
        # the host port must never be chosen.
        star = Star(neighbors=1, queue_capacity=1, host_queue_capacity=1, dibs=DibsConfig())
        for _ in range(2):
            star.inject(data_pkt())
        for _ in range(5):
            star.inject(data_pkt())
        # All detours landed on the single neighbor port (capacity 1 +
        # transmitter) and overflow beyond that is dropped, not sent to a
        # second host port.
        assert star.host.misdelivered == 0

    def test_drop_when_all_neighbors_full(self):
        star = Star(neighbors=2, queue_capacity=1, host_queue_capacity=1, dibs=DibsConfig())
        # Fill host port (1 tx + 1 queued) and both neighbor ports
        # (1 tx + 1 queued each).
        for _ in range(6):
            star.inject(data_pkt())
        star.inject(data_pkt())
        assert star.hub.counters.drops_no_detour >= 1

    def test_max_detours_cap(self):
        cfg = DibsConfig(max_detours_per_packet=2)
        star = Star(host_queue_capacity=1, dibs=cfg)
        for _ in range(2):
            star.inject(data_pkt())
        pkt = data_pkt()
        pkt.detours = 2  # already at the cap
        star.inject(pkt)
        assert star.hub.counters.drops_no_detour == 1

    def test_detour_callback_invoked(self):
        star = Star(host_queue_capacity=1, dibs=DibsConfig())
        events = []
        star.hub.on_detour = lambda t, sw, pkt: events.append((t, sw.name))
        for _ in range(3):
            star.inject(data_pkt())
        assert events and events[0][1] == "hub"

    def test_drop_callback_invoked_with_reason(self):
        star = Star()
        reasons = []
        star.hub.on_drop = lambda t, sw, pkt, reason: reasons.append(reason)
        star.inject(data_pkt(ttl=1))
        assert reasons == [DROP_TTL]
        star.inject(data_pkt(dst=42))
        assert reasons[-1] == DROP_NO_ROUTE

    def test_dibs_disabled_is_plain_droptail(self):
        star = Star(host_queue_capacity=1, dibs=DibsConfig.disabled())
        for _ in range(4):
            star.inject(data_pkt())
        assert star.hub.counters.detours == 0
        assert star.hub.counters.drops_overflow == 2

    def test_detour_avoids_full_neighbors(self):
        star = Star(neighbors=3, queue_capacity=1, host_queue_capacity=1, dibs=DibsConfig())
        # Fill host port.
        for _ in range(2):
            star.inject(data_pkt())
        # Fill neighbor 0's port directly.
        nbr0_port = star.neighbors[0][1]
        nbr0_port.send(data_pkt())
        nbr0_port.send(data_pkt())
        candidates = star.hub.detour_candidates(star.hub.ports[0], in_port=1)
        assert nbr0_port not in candidates
        assert len(candidates) == 2

    def test_load_aware_policy_picks_emptiest(self):
        cfg = DibsConfig(policy=LoadAwareDetourPolicy())
        star = Star(neighbors=3, queue_capacity=10, host_queue_capacity=1, dibs=cfg)
        for _ in range(2):
            star.inject(data_pkt())
        # Preload neighbor 0 and 1 queues.
        star.neighbors[0][1].queue.enqueue(data_pkt())
        star.neighbors[0][1].queue.enqueue(data_pkt())
        star.neighbors[1][1].queue.enqueue(data_pkt())
        star.inject(data_pkt())
        # Neighbor 2's hub-side port was empty; the detour must go there.
        assert len(star.neighbors[2][1].queue) + star.neighbors[2][1].pkts_sent >= 1


class TestIntrospection:
    def test_queue_occupancy(self):
        star = Star(host_queue_capacity=5)
        for _ in range(3):
            star.inject(data_pkt())
        occ = star.hub.queue_occupancy()
        assert occ[0] == 2  # one in transmitter, two queued

    def test_buffer_fill_fraction(self):
        star = Star(neighbors=1, queue_capacity=10, host_queue_capacity=10)
        assert star.hub.buffer_fill_fraction() == 0.0
        for _ in range(6):
            star.inject(data_pkt())
        assert 0.0 < star.hub.buffer_fill_fraction() <= 1.0

    def test_counters_as_dict(self):
        star = Star()
        star.inject(data_pkt())
        d = star.hub.counters.as_dict()
        assert d["forwards"] == 1
        assert set(d) == {
            "forwards",
            "detours",
            "drops_overflow",
            "drops_ttl",
            "drops_no_route",
            "drops_no_detour",
            "drops_switch_failed",
        }
