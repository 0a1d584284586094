"""Fault injection, livelock watchdog, and runtime invariant guards."""

import copy
import json
import random

import pytest

from repro.cli import main as cli_main
from repro.core.config import DibsConfig
from repro.experiments.parallel import RunTelemetry, execute_runs, RunRequest
from repro.experiments.runner import canonical_payload, run_pooled, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS, flap_storm
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    InvariantChecker,
    InvariantError,
    LivelockError,
    Watchdog,
    install_faults,
    LINK_DOWN,
    LINK_UP,
    PACKET_CORRUPT,
    SWITCH_FAIL,
    SWITCH_RECOVER,
)
from repro.net.audit import assert_conserved, conservation_report
from repro.net.network import Network, SwitchQueueConfig
from repro.net.packet import Packet
from repro.routing.fib import compute_fibs
from repro.sim.engine import Scheduler
from repro.topo import fat_tree


def incast_net(dibs=True, seed=3, buffer_pkts=10):
    net = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=buffer_pkts, ecn_threshold_pkts=4),
        dibs=DibsConfig() if dibs else DibsConfig.disabled(),
        seed=seed,
    )
    return net


def start_incast(net, n=8, target="host_0", transport="dibs"):
    flows = []
    for i in range(1, n + 1):
        flows.append(
            net.start_flow(f"host_{i}", target, 20_000, transport=transport, kind="query")
        )
    return flows


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
class TestSchedule:
    def test_events_sorted_by_time_stably(self):
        sched = FaultSchedule(
            [
                FaultEvent(0.2, LINK_DOWN, "a", "b"),
                FaultEvent(0.1, LINK_DOWN, "c", "d"),
                FaultEvent(0.1, LINK_UP, "c", "d"),
            ]
        )
        assert [ev.time for ev in sched] == [0.1, 0.1, 0.2]
        # Same-timestamp events keep insertion order (stable sort).
        assert [ev.kind for ev in sched][:2] == [LINK_DOWN, LINK_UP]

    def test_tuple_roundtrip(self):
        sched = FaultSchedule(
            [
                FaultEvent(0.1, SWITCH_FAIL, "core_0"),
                FaultEvent(0.2, PACKET_CORRUPT, "a", "b", 3),
            ]
        )
        rows = sched.as_tuples()
        again = FaultSchedule.from_tuples([list(r) for r in rows])  # lists OK
        assert again.as_tuples() == rows

    def test_spec_parsing_dict_and_positional(self):
        spec = {
            "events": [
                {"time": 0.1, "kind": "link_down", "a": "x", "b": "y"},
                [0.2, "switch_fail", "core_0"],
                {"time": 0.3, "kind": "packet_corrupt", "node_a": "x",
                 "node_b": "y", "count": 5},
            ]
        }
        sched = FaultSchedule.from_spec(spec)
        assert len(sched) == 3
        assert sched.events[2].count == 5

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, LINK_DOWN, "a", "b")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor_strike", "a", "b")
        with pytest.raises(ValueError):
            FaultEvent(0.0, LINK_DOWN, "a")  # link needs two endpoints
        with pytest.raises(ValueError):
            FaultEvent(0.0, SWITCH_FAIL, "a", "b")  # switch takes one node
        with pytest.raises(ValueError):
            FaultEvent(0.0, PACKET_CORRUPT, "a", "b", 0)

    def test_poisson_flaps_deterministic_and_paired(self):
        links = [("a", "b"), ("c", "d")]
        one = FaultSchedule.poisson_link_flaps(links, 100.0, 0.1, random.Random(7), 0.001)
        two = FaultSchedule.poisson_link_flaps(links, 100.0, 0.1, random.Random(7), 0.001)
        assert one.as_tuples() == two.as_tuples()
        downs = [ev for ev in one if ev.kind == LINK_DOWN]
        ups = [ev for ev in one if ev.kind == LINK_UP]
        assert len(downs) == len(ups) > 0

    def test_zero_rates_produce_empty_schedules(self):
        links = [("a", "b")]
        assert not FaultSchedule.poisson_link_flaps(links, 0.0, 1.0, random.Random(1))
        assert not FaultSchedule.uniform_corruption(links, 0.0, 1.0, random.Random(1))

    def test_uniform_corruption_deterministic(self):
        links = [("a", "b"), ("c", "d")]
        one = FaultSchedule.uniform_corruption(links, 500.0, 0.05, random.Random(9))
        two = FaultSchedule.uniform_corruption(links, 500.0, 0.05, random.Random(9))
        assert one.as_tuples() == two.as_tuples()
        assert all(ev.kind == PACKET_CORRUPT for ev in one)


# ----------------------------------------------------------------------
# injector: links
# ----------------------------------------------------------------------
class TestLinkFaults:
    def test_unknown_node_rejected_at_arm_time(self):
        net = incast_net()
        sched = FaultSchedule([FaultEvent(0.0, LINK_DOWN, "nope_0", "core_0")])
        with pytest.raises(ValueError, match="unknown node"):
            FaultInjector(net, sched).arm()

    def test_nonexistent_link_rejected_at_arm_time(self):
        net = incast_net()
        # Both names exist but there is no edge_0_0 <-> core_0 link.
        sched = FaultSchedule([FaultEvent(0.0, LINK_DOWN, "edge_0_0", "core_0")])
        with pytest.raises(ValueError, match="nonexistent link"):
            FaultInjector(net, sched).arm()

    def test_down_then_up_flow_recovers(self):
        net = incast_net(dibs=False, seed=11)
        sched = FaultSchedule.from_tuples(
            [(0.0, LINK_DOWN, "edge_0_0", "host_1"), (0.03, LINK_UP, "edge_0_0", "host_1")]
        )
        injector = FaultInjector(net, sched).arm()
        flow = net.start_flow("host_0", "host_1", 5_000, transport="dctcp")
        net.run(until=1.0)
        assert injector.applied == {LINK_DOWN: 1, LINK_UP: 1}
        # The flow stalls against the dead link, then completes on recovery.
        assert flow.completed
        assert net.counters().total_drops() > 0
        assert_conserved(net)

    def test_reroute_removes_and_restores_paths(self):
        net = incast_net(seed=12)
        edge = net.switch("edge_0_0")
        agg_port = net.port_between("edge_0_0", "agg_0_0").index
        dst = net.host("host_5").node_id  # inter-pod destination
        assert agg_port in edge.fib[dst]
        sched = FaultSchedule.from_tuples(
            [(0.001, LINK_DOWN, "edge_0_0", "agg_0_0"),
             (0.002, LINK_UP, "edge_0_0", "agg_0_0")]
        )
        FaultInjector(net, sched).arm()
        net.run(until=0.0015)
        assert agg_port not in edge.fib.get(dst, [])
        assert edge._ecmp_cache == {}  # memoized picks invalidated
        net.run(until=0.0025)
        assert agg_port in edge.fib[dst]

    def test_local_filter_without_reroute(self):
        net = incast_net(seed=13)
        edge = net.switch("edge_0_0")
        agg_port = net.port_between("edge_0_0", "agg_0_0").index
        dst = net.host("host_5").node_id
        sched = FaultSchedule.from_tuples([(0.001, LINK_DOWN, "edge_0_0", "agg_0_0")])
        FaultInjector(net, sched, reroute=False).arm()
        net.run(until=0.0015)
        # The endpoint filters its own dead port even without reconvergence.
        assert agg_port not in edge.fib.get(dst, [])

    def test_detour_mask_excludes_down_ports(self):
        net = incast_net(seed=14)
        edge = net.switch("edge_0_0")
        desired = net.port_between("edge_0_0", "host_0")
        before = edge.detour_candidates(desired, in_port=desired.index)
        down = net.port_between("edge_0_0", "agg_0_0")
        down.set_down()
        after = edge.detour_candidates(desired, in_port=desired.index)
        assert down in before and down not in after
        assert len(after) == len(before) - 1

    def test_direct_set_down_counts_each_drop_once(self):
        # Port.set_down() without refresh_fault_state (a public API the
        # injector pairs with a refresh, but callers need not): the FIB
        # still routes into the dead port, which counts every rejected
        # packet as link_down.  The switch must not add an overflow drop.
        net = incast_net(dibs=False, seed=16)
        net.start_flow("host_0", "host_1", 20_000, transport="dctcp")
        net.run(until=0.00003)  # a few packets out, most still to come
        net.port_between("edge_0_0", "host_1").set_down()
        net.run(until=0.05)
        report = net.counters().drop_report()
        assert report["link_down"] > 0
        assert report["overflow"] == 0
        assert net.counters().total_drops() == report["link_down"]
        assert_conserved(net)

    def test_incast_under_dead_core_links_conserves(self):
        net = incast_net(seed=15)
        sched = FaultSchedule.from_tuples(
            [(0.0, LINK_DOWN, "agg_0_0", "core_0"),
             (0.0, LINK_DOWN, "agg_1_0", "core_1")]
        )
        injector = FaultInjector(net, sched).arm()
        flows = start_incast(net, n=8)
        net.run(until=2.0)
        assert injector.applied[LINK_DOWN] == 2
        assert all(f.completed for f in flows)
        assert_conserved(net)


# ----------------------------------------------------------------------
# route memo (Network.recompute_routes)
# ----------------------------------------------------------------------
def fresh_tables(net):
    """Every switch's port table from a fresh ``compute_fibs`` run on the
    live topology, translated independently of the network's own code."""
    fibs = compute_fibs(net.live_topology())
    return [
        {
            net.node(dst).node_id: [net.port_between(sw.name, hop).index for hop in hops]
            for dst, hops in fibs[sw.name].items()
        }
        for sw in net.switches
    ]


def installed(net):
    return [sw._fib_full for sw in net.switches]


class TestRouteMemo:
    def test_flap_cycle_installs_fresh_tables(self):
        net = incast_net(seed=31)
        sched = FaultSchedule.from_tuples(
            [(0.001, LINK_DOWN, "agg_0_0", "core_0"),
             (0.002, LINK_UP, "agg_0_0", "core_0"),
             (0.003, LINK_DOWN, "agg_0_0", "core_0")]
        )
        FaultInjector(net, sched).arm()
        start_incast(net, n=4)
        tables = []
        for until in (0.0015, 0.0025, 0.0035):
            net.run(until=until)
            assert installed(net) == fresh_tables(net)
            tables.append(installed(net))
        # The cut really changed routes, and healing restored them.
        assert tables[0] != tables[1]
        # The second visit to the down set reinstalled the stored tables.
        assert all(a is b for a, b in zip(tables[0], tables[2]))
        assert len(net._route_memo) == 2

    def test_all_up_install_reuses_build_time_tables(self):
        net = incast_net(seed=32)
        build = installed(net)
        assert build == fresh_tables(net)
        for tx, rx in (("agg_0_0", "core_0"), ("core_0", "agg_0_0")):
            net.port_between(tx, rx).set_down()
        net.recompute_routes()
        assert installed(net) != build
        for tx, rx in (("agg_0_0", "core_0"), ("core_0", "agg_0_0")):
            net.port_between(tx, rx).set_up()
        net.recompute_routes()
        assert all(a is b for a, b in zip(installed(net), build))

    def test_refresh_never_mutates_memoized_tables(self):
        net = incast_net(seed=33)
        sched = FaultSchedule.from_tuples(
            [(0.001, LINK_DOWN, "edge_0_0", "agg_0_0"),
             (0.002, LINK_UP, "edge_0_0", "agg_0_0"),
             (0.003, LINK_DOWN, "agg_1_0", "core_1")]
        )
        FaultInjector(net, sched).arm()
        start_incast(net, n=8)
        net.run(until=0.004)
        memo = copy.deepcopy(net._route_memo)
        # Port faults outside the reroute path, filtered locally by every
        # switch over the installed (memoized) tables; then the breaker's
        # toggle, which refreshes too.
        net.port_between("edge_0_0", "agg_0_1").set_down()
        net.port_between("agg_0_0", "core_0").set_down()
        for sw in net.switches:
            sw.refresh_fault_state()
            sw.set_detour_enabled(False)
            sw.set_detour_enabled(True)
        net.run(until=0.02)
        edge = net.switch("edge_0_0")
        assert edge._fib is not edge._fib_full
        assert net._route_memo == memo

    def test_every_recompute_bumps_generation_and_clears_route_memos(self):
        net = incast_net(seed=34)
        down = [net.port_between("agg_0_0", "core_0"), net.port_between("core_0", "agg_0_0")]
        # A miss (the link down), then hits only: all up (the build-time
        # entry), down again, all up again.
        for step, is_down in enumerate([True, False, True, False]):
            for port in down:
                if is_down:
                    port.set_down()
                else:
                    port.set_up()
            for sw in net.switches:
                sw._route[10_000 + step] = down[0]
                sw._ecmp_cache[(10_000, step)] = down[0]
            generation = net.topology_generation
            net.recompute_routes()
            assert net.topology_generation == generation + 1
            assert len(net._route_memo) == 2
            for sw in net.switches:
                assert sw._route == {} and sw._ecmp_cache == {}

    def test_switch_fail_and_recover_reuse_the_memo(self):
        net = incast_net(seed=35)
        build = installed(net)
        sched = FaultSchedule.from_tuples(
            [(0.001, SWITCH_FAIL, "core_0"), (0.002, SWITCH_RECOVER, "core_0"),
             (0.003, SWITCH_FAIL, "core_0")]
        )
        FaultInjector(net, sched).arm()
        start_incast(net, n=4)
        net.run(until=0.0015)
        failed = installed(net)
        assert failed == fresh_tables(net) and failed != build
        net.run(until=0.0025)
        assert all(a is b for a, b in zip(installed(net), build))
        net.run(until=0.0035)
        assert all(a is b for a, b in zip(installed(net), failed))
        assert len(net._route_memo) == 2


# ----------------------------------------------------------------------
# injector: switches & corruption
# ----------------------------------------------------------------------
class TestSwitchFaults:
    def test_failed_switch_drops_everything(self):
        net = incast_net(seed=21)
        core = net.switch("core_0")
        core.failed = True
        core.receive(Packet(flow_id=1, src=1, dst=0, payload=1460), 0)
        assert core.counters.drops_switch_failed == 1

    def test_fail_and_recover_midrun(self):
        net = incast_net(seed=22)
        sched = FaultSchedule.from_tuples(
            [(0.0, SWITCH_FAIL, "core_0"), (0.05, SWITCH_RECOVER, "core_0")]
        )
        injector = FaultInjector(net, sched).arm()
        flows = start_incast(net, n=8, target="host_0")
        net.run(until=2.0)
        assert injector.applied == {SWITCH_FAIL: 1, SWITCH_RECOVER: 1}
        core = net.switch("core_0")
        assert not core.failed
        assert all(port.up for port in core.ports)
        assert all(f.completed for f in flows)
        assert_conserved(net)

    def test_switch_fail_rejected_for_host_target(self):
        net = incast_net()
        sched = FaultSchedule([FaultEvent(0.0, SWITCH_FAIL, "host_0")])
        with pytest.raises(ValueError, match="not a switch"):
            FaultInjector(net, sched).arm()

    def test_corruption_drops_exactly_count_then_recovers(self):
        net = incast_net(dibs=False, seed=23)
        sched = FaultSchedule.from_tuples(
            [(0.0, PACKET_CORRUPT, "edge_0_0", "host_1", 3)]
        )
        FaultInjector(net, sched).arm()
        flow = net.start_flow("host_0", "host_1", 20_000, transport="dctcp")
        net.run(until=1.0)
        assert net.counters().drop_report()["corrupt"] == 3
        assert flow.completed  # losses repaired by retransmission
        assert_conserved(net)


# ----------------------------------------------------------------------
# watchdog & hop guard
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_detects_frozen_clock(self):
        sched = Scheduler()

        def spin():
            sched.schedule(0.0, spin)

        sched.schedule(0.0, spin)
        Watchdog(sched, check_every_events=1_000, stall_checks=2).install()
        with pytest.raises(LivelockError, match="stuck"):
            sched.run(max_events=10_000_000)
        # Aborted within a few check intervals, not at the event cap.
        assert sched.events_processed < 10_000

    def test_no_false_positive_on_healthy_run(self):
        net = incast_net(seed=31)
        Watchdog(net.scheduler, check_every_events=100, stall_checks=2).install(net)
        flows = start_incast(net, n=4)
        net.run(until=2.0)
        assert all(f.completed for f in flows)

    def test_hop_guard_trips_on_explosion(self):
        net = incast_net(seed=32)
        edge = net.switch("edge_0_0")
        edge.hop_limit = 5
        pkt = Packet(flow_id=1, src=1, dst=0, payload=1460, ttl=255)
        pkt.hops = 5
        with pytest.raises(LivelockError, match="hop guard"):
            edge.receive(pkt, 0)

    def test_install_tightens_hop_limit(self):
        net = incast_net(seed=33)
        Watchdog(net.scheduler, max_hops=64).install(net)
        assert all(sw.hop_limit == 64 for sw in net.switches)


class TestDetourLoopTermination:
    def test_no_live_detour_port_drops_instead_of_looping(self):
        net = incast_net(seed=41)
        edge = net.switch("edge_0_0")
        # Kill every switch-facing port: the detour mask becomes empty.
        for port in edge.ports:
            if port.peer_node is not None and not port.peer_is_host:
                port.set_down()
        desired = net.port_between("edge_0_0", "host_0")
        pkt = Packet(flow_id=1, src=1, dst=0, payload=1460, ttl=255)
        edge._detour(pkt, desired, in_port=desired.index)
        assert edge.counters.drops_no_detour == 1

    def test_starved_detour_fabric_terminates(self):
        # Incast into pod 0 with both of the pod's aggregation uplink pairs
        # dead: detour space inside the pod shrinks to the edge switches.
        # The run must terminate (TTL + watchdog guard) and conserve.
        net = incast_net(seed=42, buffer_pkts=5)
        Watchdog(net.scheduler, check_every_events=10_000, stall_checks=3).install(net)
        sched = FaultSchedule.from_tuples(
            [(0.0, LINK_DOWN, "agg_0_0", "core_0"),
             (0.0, LINK_DOWN, "agg_0_0", "core_1"),
             (0.0, LINK_DOWN, "agg_0_1", "core_2"),
             (0.0, LINK_DOWN, "agg_0_1", "core_3")]
        )
        FaultInjector(net, sched).arm()
        start_incast(net, n=8)
        net.run(until=2.0)  # must return, not hang
        assert_conserved(net)


# ----------------------------------------------------------------------
# invariant checker & mid-run conservation
# ----------------------------------------------------------------------
class TestInvariants:
    def test_ledger_exact_midrun_with_inflight(self):
        net = incast_net(seed=51)
        start_incast(net, n=8)
        saw_inflight = False
        for t in (0.0002, 0.0005, 0.001, 0.003, 0.01):
            net.run(until=t)
            report = conservation_report(net)
            assert report.leaked == 0, report.as_dict()
            saw_inflight = saw_inflight or report.in_flight > 0
        assert saw_inflight  # the column is live, not vacuously zero
        net.run()
        assert_conserved(net)

    def test_checker_runs_periodically(self):
        net = incast_net(seed=52)
        checker = InvariantChecker(net, interval_s=0.001, stop_at=0.01).start()
        start_incast(net, n=4)
        net.run(until=0.02)
        assert checker.checks_run >= 9

    def test_checker_detects_pool_skew(self):
        net = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(discipline="dba"),
            seed=53,
        )
        checker = InvariantChecker(net, interval_s=0.001)
        checker.check_now()  # clean network passes
        pool = next(iter(net._dba_pools.values()))
        pool.take(1_000)  # corrupt the accounting
        with pytest.raises(InvariantError, match="skew"):
            checker.check_now()

    def test_checker_detects_leak(self):
        net = incast_net(seed=54)
        flow = net.start_flow("host_0", "host_5", 5_000, transport="dctcp")
        net.run()
        checker = InvariantChecker(net, interval_s=0.001)
        checker.check_now()
        flow.packets_sent += 7  # phantom creations -> ledger leak
        with pytest.raises(InvariantError, match="conservation"):
            checker.check_now()


# ----------------------------------------------------------------------
# scenario / executor integration
# ----------------------------------------------------------------------
FAULTY = SCALED_DEFAULTS.with_overrides(
    name="tiny-faults",
    duration_s=0.03,
    drain_s=0.3,
    qps=100.0,
    incast_degree=6,
    bg_enabled=False,
    faults=((0.005, LINK_DOWN, "agg_0_0", "core_0", 1),
            (0.012, LINK_UP, "agg_0_0", "core_0", 1)),
    link_flap_rate=20.0,
    link_flap_downtime_s=0.002,
    corrupt_rate=300.0,
    invariant_check_interval_s=0.01,
)


def _measured(monkeypatch, scenario, **env):
    """The run's canonical payload under exactly the transmit-path/engine
    variables in ``env``."""
    monkeypatch.delenv("REPRO_ELIDE_TX", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    return canonical_payload(run_scenario(scenario))


class TestScenarioIntegration:
    def test_run_scenario_applies_and_reports_faults(self):
        result = run_scenario(FAULTY)
        assert result.faults_applied.get(LINK_DOWN, 0) >= 1
        assert result.faults_applied.get(LINK_UP, 0) >= 1
        assert result.faults_applied.get(PACKET_CORRUPT, 0) >= 1
        assert result.invariant_checks > 0
        assert result.drops.get("corrupt", 0) > 0

    @pytest.mark.parametrize("scheme", ["dibs-dba", "bshare"])
    def test_shared_pool_audited_under_faults(self, scheme):
        # DBA queues charge and release the shared pool in place; the
        # armed InvariantChecker compares each pool's used_bytes with its
        # member queues' byte counts at every audit, through link-down,
        # flap and corruption losses, and raises on any skew.
        result = run_scenario(FAULTY.with_overrides(scheme=scheme))
        assert result.faults_applied.get(LINK_DOWN, 0) >= 1
        assert result.faults_applied.get(PACKET_CORRUPT, 0) >= 1
        assert result.invariant_checks > 0
        assert result.drops.get("corrupt", 0) > 0
        assert result.drops.get("link_down", 0) > 0

    def test_generated_schedule_is_seed_deterministic(self):
        net_a = FAULTY.build_network()
        net_b = FAULTY.build_network()
        inj_a = install_faults(net_a, FAULTY)
        inj_b = install_faults(net_b, FAULTY)
        assert inj_a.schedule.as_tuples() == inj_b.schedule.as_tuples()
        other = install_faults(
            FAULTY.with_overrides(seed=99).build_network(),
            FAULTY.with_overrides(seed=99),
        )
        assert other.schedule.as_tuples() != inj_a.schedule.as_tuples()

    def test_install_faults_noop_without_faults(self):
        scenario = SCALED_DEFAULTS
        net = scenario.build_network()
        assert install_faults(net, scenario) is None
        assert net.fault_injector is None

    def test_serial_and_parallel_bit_identical_under_faults(self):
        serial = run_pooled(FAULTY, seeds=(0, 1))
        parallel = run_pooled(FAULTY, seeds=(0, 1), workers=2)
        assert canonical_payload(serial) == canonical_payload(parallel)

    def test_flap_storm_identical_across_transmit_paths(self, monkeypatch):
        # An uncontrolled flap storm exercises jittered deliveries, link
        # kills mid-flight and mid-run audits.  Neither the seed transmit
        # path nor the heap engine may change a canonical metric or the
        # logical event count.  (With the controller on, REPRO_ELIDE_TX=0
        # diverges: see docs/INTERNALS.md, "Known identity gap".)
        storm = flap_storm(duration_s=0.5, drain_s=0.5, invariant_check_interval_s=0.05)
        default = _measured(monkeypatch, storm)
        assert default["faults_applied"].get(LINK_DOWN, 0) > 0
        assert default["fault_packets_killed"] > 0
        assert default["invariant_checks"] > 0
        assert _measured(monkeypatch, storm, REPRO_ELIDE_TX="0") == default
        assert _measured(monkeypatch, storm, REPRO_ENGINE="heap") == default

    @pytest.mark.parametrize("scheme", ["dibs-dba", "bshare"])
    def test_shared_pool_identical_across_transmit_paths(self, monkeypatch, scheme):
        # Shared-buffer ports under link faults and corruption: DBA ports
        # take the idle-send bypass and the switch's inline admission test
        # (BShare ports take neither).  The seed transmit path and the
        # heap engine must agree with them on every canonical metric and
        # on the logical event count.
        scenario = FAULTY.with_overrides(scheme=scheme)
        default = _measured(monkeypatch, scenario)
        assert default["faults_applied"].get(LINK_DOWN, 0) > 0
        assert default["invariant_checks"] > 0
        assert default["events"] > 0
        assert _measured(monkeypatch, scenario, REPRO_ELIDE_TX="0") == default
        assert _measured(monkeypatch, scenario, REPRO_ENGINE="heap") == default

    def test_livelock_failures_are_not_retried(self):
        telemetry = RunTelemetry()
        bad = FAULTY.with_overrides(
            name="hops", faults=None, link_flap_rate=0.0, corrupt_rate=0.0, ttl=-16
        )
        # ttl=-16 drives the watchdog's TTL+margin hop bound to zero, so the
        # very first switch hop raises a deterministic LivelockError.
        results = execute_runs(
            [RunRequest(key="bad", scenario=bad)],
            workers=1,
            max_retries=3,
            telemetry=telemetry,
        )
        assert results == {}
        assert telemetry.runs_failed == 1
        assert telemetry.retries == 0  # deterministic abort: no retry burn
        assert "LivelockError" in telemetry.failures[0].reason


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _write_spec(self, tmp_path, events):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"events": events}))
        return str(spec)

    def test_faults_flag_runs_and_exits_zero(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            [{"time": 0.0, "kind": "link_down", "a": "agg_0_0", "b": "core_0"}],
        )
        code = cli_main([
            "run", "--scheme", "dibs", "--duration-s", "0.02", "--qps", "50",
            "--no-background", "--faults", spec,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults" in out

    def test_failed_runs_exit_nonzero(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            [{"time": 0.0, "kind": "link_down", "a": "nope_0", "b": "core_0"}],
        )
        code = cli_main([
            "run", "--scheme", "dibs", "--duration-s", "0.02", "--qps", "50",
            "--no-background", "--faults", spec,
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "error" in out or "failed" in out
