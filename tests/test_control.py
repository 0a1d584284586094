"""Closed-loop runtime controller: spec, actuators, breaker, determinism.

Covers the repro.control package plus its hostile-regime companions:

* ControllerSpec JSON round trip and fail-fast validation;
* Actuators cache invalidation across fault transitions (topology
  generation) and the ECMP-memo audit on controller-driven detour
  toggles;
* the detour-storm circuit breaker: trip, degraded-mode counters,
  re-arm after cooldown, and the livelock watchdog staying quiet
  through the degraded window;
* determinism of controlled runs: serial vs --workers 2, calendar vs
  heap engine, and across --resume replay;
* link jitter (seeded, FIFO-preserving) and the diurnal background
  generator.
"""

import json

import pytest

from repro.control import Actuators, ControllerSpec, RuntimeController
from repro.core.config import DibsConfig
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import RunRequest, execute_runs
from repro.experiments.runner import canonical_payload, run_pooled, run_scenario
from repro.experiments.scenarios import SPACE_DC_DEFAULTS, Scenario, flap_storm, space_dc
from repro.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultInjector, FaultSchedule
from repro.net.network import Network, SwitchQueueConfig
from repro.net.queues import DynamicBufferQueue, EcnQueue, PFabricQueue, SharedBufferPool
from repro.topo import fat_tree, leaf_spine
from repro.workload.background import DiurnalBackgroundTraffic
from repro.workload.distributions import web_search_background

# A controlled hostile point small enough for unit tests: the full storm
# grid lives in bench_controller_resilience.
CONTROLLED = flap_storm(
    "dibs", duration_s=0.4, drain_s=0.8, controller=True,
)


def dctcp_net(seed=1):
    return Network(
        leaf_spine(),
        switch_queues=SwitchQueueConfig(buffer_pkts=20, ecn_threshold_pkts=8),
        dibs=DibsConfig.disabled(),
        seed=seed,
    )


def dibs_net(seed=1, buffer_pkts=10):
    return Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=buffer_pkts, ecn_threshold_pkts=4),
        dibs=DibsConfig(),
        seed=seed,
    )


# ----------------------------------------------------------------------
# ControllerSpec
# ----------------------------------------------------------------------
class TestControllerSpec:
    def test_defaults_validate(self):
        ControllerSpec().validate()

    def test_json_round_trip(self):
        spec = ControllerSpec(cadence_events=500, detour_rate_trip=0.5)
        again = ControllerSpec.from_json_text(spec.to_json_text())
        assert again == spec

    def test_none_and_empty_give_defaults(self):
        assert ControllerSpec.from_json_text(None) == ControllerSpec()
        assert ControllerSpec.from_json_text("") == ControllerSpec()

    def test_partial_overrides_keep_other_defaults(self):
        spec = ControllerSpec.from_json_text('{"cooldown_s": 0.2}')
        assert spec.cooldown_s == 0.2
        assert spec.cadence_events == ControllerSpec().cadence_events

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown controller spec keys"):
            ControllerSpec.from_json_text('{"cooldwn_s": 0.2}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ControllerSpec.from_json_text("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            ControllerSpec.from_json_text("[1, 2]")

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            ControllerSpec(detour_rate_trip=1.5).validate()
        with pytest.raises(ValueError):
            ControllerSpec(occupancy_low=0.5, occupancy_high=0.2).validate()
        with pytest.raises(ValueError):
            ControllerSpec(cooldown_s=0.0).validate()

    def test_scenario_validates_spec_eagerly(self):
        bad = Scenario(controller=True, controller_spec='{"bogus_knob": 1}')
        with pytest.raises(ValueError, match="unknown controller spec keys"):
            bad.validate()

    def test_scenario_jitter_and_diurnal_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            Scenario(link_jitter_s=-1e-6).validate()
        with pytest.raises(ValueError, match="amplitude"):
            Scenario(bg_diurnal_amplitude=1.0).validate()
        with pytest.raises(ValueError, match="period"):
            Scenario(bg_diurnal_period_s=-0.1).validate()


# ----------------------------------------------------------------------
# Actuators
# ----------------------------------------------------------------------
class TestActuators:
    def test_set_ecn_threshold_reaches_all_live_queues(self):
        net = dctcp_net()
        act = Actuators(net)
        touched = act.set_ecn_threshold(3)
        assert touched > 0
        thresholds = {
            port.queue.mark_threshold_pkts
            for sw in net.switches
            for port in sw.ports
            if isinstance(port.queue, EcnQueue)
        }
        assert thresholds == {3}
        assert act.current_ecn_threshold() == 3

    def test_detour_cap_writes_shared_config(self):
        net = dibs_net()
        act = Actuators(net)
        assert act.current_detour_cap() == 0  # unlimited, the paper's config
        act.set_detour_cap(16)
        assert net.dibs.max_detours_per_packet == 16
        # Every switch shares the same DibsConfig object.
        assert all(sw.dibs.max_detours_per_packet == 16 for sw in net.switches)

    def test_dba_alpha_reaches_every_pool(self):
        net = Network(
            leaf_spine(),
            switch_queues=SwitchQueueConfig(
                discipline="dba", dba_total_bytes=200_000, ecn_threshold_pkts=8
            ),
            dibs=DibsConfig.disabled(),
            seed=1,
        )
        act = Actuators(net)
        assert act.current_dba_alpha() is not None
        act.set_dba_alpha(0.5)
        assert all(pool.alpha == 0.5 for pool in net._dba_pools.values())

    def test_no_ecn_queues_degrades_to_noop(self):
        net = Network(
            leaf_spine(),
            switch_queues=SwitchQueueConfig(discipline="droptail", buffer_pkts=20),
            dibs=DibsConfig(),
            seed=1,
        )
        act = Actuators(net)
        assert act.current_ecn_threshold() is None
        assert act.set_ecn_threshold(5) == 0

    def test_fault_transition_invalidates_cache(self):
        """Satellite 1: Port.set_down()-killed state and fault-filtered FIB
        views must not leave the actuator applying retunes to stale
        targets."""
        net = dctcp_net()
        act = Actuators(net)
        gen0 = act.cached_generation
        a, b = net.fabric_links()[0]
        injector = FaultInjector(
            net,
            FaultSchedule([
                FaultEvent(0.001, LINK_DOWN, a, b),
                FaultEvent(0.002, LINK_UP, a, b),
            ]),
        ).arm()
        net.run(until=0.0015)  # the link is down now
        assert net.topology_generation > gen0
        down_ports = [
            port
            for sw in net.switches
            for port in sw.ports
            if not port.up and isinstance(port.queue, EcnQueue)
        ]
        assert down_ports, "fault should have taken switch ports down"
        act.set_ecn_threshold(6)
        assert act.cached_generation == net.topology_generation
        # Live queues were retuned; the dead port's queue was skipped.
        for port in down_ports:
            assert port.queue.mark_threshold_pkts != 6
        net.run(until=0.003)  # link back up; generation bumped again
        act.set_ecn_threshold(7)
        assert all(
            port.queue.mark_threshold_pkts == 7
            for sw in net.switches
            for port in sw.ports
            if isinstance(port.queue, EcnQueue)
        )

    def test_direct_set_down_is_respected_at_apply_time(self):
        """A Port.set_down() that bypasses the injector (no generation
        bump) is still honoured: application re-checks port.up live."""
        net = dctcp_net()
        act = Actuators(net)
        act.set_ecn_threshold(9)  # build the cache
        victim = net.switches[0].ports[0]
        assert isinstance(victim.queue, EcnQueue)
        victim.set_down()
        act.set_ecn_threshold(5)
        assert victim.queue.mark_threshold_pkts == 9  # untouched while down

    def test_detour_toggle_clears_ecmp_memo_and_fastpath(self):
        """Satellite 1: controller-driven detour disable/re-enable goes
        through the same invalidation as fault events."""
        net = dibs_net()
        act = Actuators(net)
        sw = net.switches[0]
        assert sw.detour_enabled and sw._plain_detour
        sw._ecmp_cache[(1, 2)] = 0  # a memoized pick to invalidate
        act.set_detour_enabled(sw, False)
        assert not sw.detour_enabled and not sw._plain_detour
        assert not sw._ecmp_cache
        sw._ecmp_cache[(3, 4)] = 1
        act.set_detour_enabled(sw, True)
        assert sw.detour_enabled and sw._plain_detour
        assert not sw._ecmp_cache

    def test_disabled_switch_drops_instead_of_detouring(self):
        down = run_scenario(
            CONTROLLED.with_overrides(
                controller=False, name="detours-off-everywhere", duration_s=0.2,
                drain_s=0.4,
            )
        )
        assert down.detours > 0  # sanity: this point detours when enabled
        net = CONTROLLED.with_overrides(controller=False).build_network()
        for sw in net.switches:
            sw.set_detour_enabled(False)
        assert all(not sw._plain_detour for sw in net.switches)


# ----------------------------------------------------------------------
# the circuit breaker (synthetic storm)
# ----------------------------------------------------------------------
def _storm_spec(**overrides):
    base = dict(
        cadence_events=300,
        detour_rate_trip=0.05,
        min_window_detours=5,
        cooldown_s=0.002,
        min_retune_interval_s=0.0005,
    )
    base.update(overrides)
    return ControllerSpec(**base)


class TestCircuitBreaker:
    def _storm_net(self, seed=3):
        net = dibs_net(seed=seed, buffer_pkts=5)
        for i in range(1, 13):
            net.start_flow(f"host_{i}", "host_0", 40_000, transport="dibs", kind="query")
        return net

    def test_storm_trips_degrades_and_rearms(self):
        net = self._storm_net()
        ctl = RuntimeController(net, spec=_storm_spec()).install()
        net.run(until=0.5)
        assert ctl.breaker_trips >= 1
        assert ctl.degraded_ticks >= 1
        assert ctl.breaker_rearms >= 1
        # Cooldowns expire inside the run: every tripped switch re-armed.
        assert ctl.degraded_now == 0
        assert all(sw.detour_enabled for sw in net.switches)

    def test_watchdog_quiet_through_degraded_window(self):
        """The degraded window (detours off -> drops) must never look like
        a livelock to the hop-count watchdog."""
        from repro.faults.watchdog import Watchdog

        net = self._storm_net()
        Watchdog(net.scheduler, max_hops=255 + 16).install(net)
        ctl = RuntimeController(net, spec=_storm_spec()).install()
        net.run(until=0.5)  # LivelockError would propagate out of run()
        assert ctl.breaker_trips >= 1

    def test_degraded_mode_visible_in_counters_scope(self):
        net = self._storm_net()
        ctl = RuntimeController(net, spec=_storm_spec(cooldown_s=10.0)).install()
        net.run(until=0.5)
        assert ctl.breaker_trips >= 1
        assert ctl.degraded_now >= 1  # cooldown outlives the run: still tripped
        scope = net.counters().scopes["controller"]
        assert scope["breaker_trips"] == ctl.breaker_trips
        assert scope["degraded_now"] == ctl.degraded_now
        assert scope["degraded_ticks"] == ctl.degraded_ticks
        assert scope["ticks"] == ctl.ticks

    def test_tick_windows_match_counter_snapshots_under_flaps(self):
        """The tick reads the switches' pipeline counters directly; at
        every tick its windows must equal those derived from a full
        Network.counters() snapshot (forwards summed over switch scopes,
        drops over the five switch-pipeline reasons), through a storm
        with link flaps."""
        drop_keys = ("drops_overflow", "drops_ttl", "drops_no_route",
                     "drops_no_detour", "drops_switch_failed")
        net = self._storm_net()
        flaps = []
        for i, (a, b) in enumerate(net.fabric_links()[:6]):
            t = 100e-6 + 50e-6 * i  # inside the initial burst
            flaps += [FaultEvent(t, LINK_DOWN, a, b), FaultEvent(t + 200e-6, LINK_UP, a, b)]
        # The receiver's own link too, across the first retransmission
        # round: its edge switch drops with no_route.
        flaps += [FaultEvent(0.0103, LINK_DOWN, "edge_0_0", "host_0"),
                  FaultEvent(0.0110, LINK_UP, "edge_0_0", "host_0")]
        FaultInjector(net, FaultSchedule(flaps)).arm()
        generation = net.topology_generation
        ctl = RuntimeController(net, spec=_storm_spec())

        def reference():
            snapshot = net.counters()
            switches = {
                name[len("switch."):]: counters
                for name, counters in snapshot.scopes.items()
                if name.startswith("switch.") and "." not in name[len("switch."):]
            }
            forwards = snapshot.total("forwards", "switch.")
            drops = sum(c.get(k, 0) for c in switches.values() for k in drop_keys)
            return forwards, drops, switches

        def assert_windows_match(ref):
            forwards, drops, switches = ref
            assert (ctl._prev_forwards, ctl._prev_drops) == (forwards, drops)
            for name, state in ctl._breakers.items():
                assert state.prev_forwards == switches[name]["forwards"]
                assert state.prev_detours == switches[name]["detours"]

        real_tick = ctl._tick
        windows = []

        def checked_tick(scheduler):
            ref = reference()
            before = (ctl._prev_forwards, ctl._prev_drops)
            real_tick(scheduler)
            assert_windows_match(ref)
            windows.append((ref[0] - before[0], ref[1] - before[1]))

        ctl._tick = checked_tick  # install() hooks the instance attribute
        ctl.install()
        assert_windows_match(reference())
        net.run(until=0.5)
        assert len(windows) == ctl.ticks > 0
        assert sum(d for _f, d in windows) == ctl._prev_drops > 0
        assert net.topology_generation == generation + len(flaps)  # every flap landed
        report = net.counters().drop_report()
        assert report["overflow"] > 0 and report["no_route"] > 0
        # The decisions taken on those windows, as the snapshot-reading
        # controller took them on this storm.
        assert (ctl.breaker_trips, ctl.breaker_rearms) == (8, 8)

    def test_tick_cadence_follows_spec(self):
        net = dibs_net()
        ctl = RuntimeController(net, spec=_storm_spec(cadence_events=100)).install()
        net.start_flow("host_1", "host_0", 30_000, transport="dibs")
        net.run(until=0.2)
        assert ctl.ticks == net.scheduler.events_processed // 100

    def test_double_install_rejected(self):
        net = dibs_net()
        ctl = RuntimeController(net).install()
        with pytest.raises(RuntimeError, match="already installed"):
            ctl.install()


# ----------------------------------------------------------------------
# hysteresis + rate limiting
# ----------------------------------------------------------------------
class TestHysteresis:
    def test_tighten_then_relax_restores_baselines(self):
        net = dibs_net()
        spec = _storm_spec(min_retune_interval_s=0.0)
        ctl = RuntimeController(net, spec=spec).install()
        baseline_ecn = ctl._ecn_baseline
        sched = net.scheduler
        # Force the tighten branch repeatedly (signals injected directly:
        # the branch logic is what's under test, not the plumbing).
        for _ in range(10):
            ctl._tighten(sched.now)
        assert ctl._ecn_current == spec.ecn_min_threshold_pkts
        assert ctl._cap_current == spec.detour_cap_min
        assert ctl.stats_dict()["retunes_total"] > 0
        for _ in range(20):
            ctl._relax(sched.now)
        assert ctl._ecn_current == baseline_ecn
        assert ctl._cap_current == 0  # unlimited again
        # The ECN queues really carry the restored threshold.
        assert Actuators(net).current_ecn_threshold() == baseline_ecn

    def test_rate_limit_bounds_retunes(self):
        net = dibs_net()
        ctl = RuntimeController(
            net, spec=_storm_spec(min_retune_interval_s=1e9)
        ).install()
        ctl._tighten(net.scheduler.now)
        first = ctl.stats_dict()["retunes_total"]
        ctl._tighten(net.scheduler.now)
        assert ctl.stats_dict()["retunes_total"] == first  # still in holdoff

    def test_retunes_show_up_in_queue_counters(self):
        """Satellite 2: queue counter_dicts report the live tunables, so a
        trace of counter snapshots captures every retune."""
        net = dctcp_net()
        Actuators(net).set_ecn_threshold(3)
        snapshot = net.counters()
        port_scopes = [
            counters
            for scope, counters in snapshot.scopes.items()
            if ".port" in scope and "mark_threshold_pkts" in counters
        ]
        assert port_scopes
        assert all(c["mark_threshold_pkts"] == 3 for c in port_scopes)


# ----------------------------------------------------------------------
# queue tunables in counter_dict (satellite 2, unit level)
# ----------------------------------------------------------------------
class TestQueueTunableCounters:
    def test_ecn_queue_reports_threshold(self):
        q = EcnQueue(10, mark_threshold_pkts=4)
        assert q.counter_dict()["mark_threshold_pkts"] == 4
        q.mark_threshold_pkts = 2
        assert q.counter_dict()["mark_threshold_pkts"] == 2

    def test_pfabric_queue_reports_capacity(self):
        assert PFabricQueue(24).counter_dict()["capacity_pkts"] == 24

    def test_dba_queue_reports_alpha_and_threshold(self):
        pool = SharedBufferPool(100_000, alpha=0.75)
        q = DynamicBufferQueue(pool, mark_threshold_pkts=6)
        counters = q.counter_dict()
        assert counters["dba_alpha_milli"] == 750
        assert counters["mark_threshold_pkts"] == 6
        pool.alpha = 0.5
        assert q.counter_dict()["dba_alpha_milli"] == 500

    def test_dba_queue_without_marking_omits_threshold(self):
        q = DynamicBufferQueue(SharedBufferPool(100_000))
        assert "mark_threshold_pkts" not in q.counter_dict()
        assert "dba_alpha_milli" in q.counter_dict()


# ----------------------------------------------------------------------
# determinism of controlled runs (satellite 3)
# ----------------------------------------------------------------------
class TestControlledDeterminism:
    def test_controlled_run_repeats_bit_identically(self):
        a = run_scenario(CONTROLLED)
        b = run_scenario(CONTROLLED)
        assert canonical_payload(a) == canonical_payload(b)
        assert a.controller_stats["ticks"] > 0

    def test_serial_vs_two_workers(self):
        serial = run_pooled(CONTROLLED, seeds=(0, 1))
        parallel = run_pooled(CONTROLLED, seeds=(0, 1), workers=2)
        assert canonical_payload(serial) == canonical_payload(parallel)
        assert serial.controller_stats == parallel.controller_stats
        assert serial.controller_stats["ticks"] > 0

    def test_calendar_vs_heap_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "calendar")
        calendar = run_scenario(CONTROLLED)
        monkeypatch.setenv("REPRO_ENGINE", "heap")
        heap = run_scenario(CONTROLLED)
        assert canonical_payload(calendar) == canonical_payload(heap)

    def test_resume_replay_identical(self, tmp_path):
        requests = [
            RunRequest(key=f"s{seed}", scenario=CONTROLLED.with_overrides(seed=seed))
            for seed in (0, 1)
        ]
        journal = RunJournal(tmp_path / "j")
        first = execute_runs(requests, workers=1, journal=journal)
        # Resume: both cells load from the journal, nothing re-runs.
        second = execute_runs(
            requests, workers=1, journal=RunJournal(tmp_path / "j"), resume=True
        )
        assert set(first) == set(second) == {"s0", "s1"}
        for key in first:
            assert canonical_payload(first[key]) == canonical_payload(second[key])
        assert all(r.controller_stats["ticks"] > 0 for r in second.values())

    def test_controller_off_leaves_run_untouched(self):
        """Installing no controller must reproduce the pre-controller
        trajectory: the controller field defaults keep old journals valid."""
        base = CONTROLLED.with_overrides(controller=False)
        a = run_scenario(base)
        b = run_scenario(base)
        assert canonical_payload(a) == canonical_payload(b)
        assert a.controller_stats == {}


# ----------------------------------------------------------------------
# link jitter
# ----------------------------------------------------------------------
class TestLinkJitter:
    def test_zero_jitter_identical_to_baseline(self):
        plain = SPACE_DC_DEFAULTS.with_overrides(
            link_jitter_s=0.0, duration_s=0.2, drain_s=0.4
        )
        a = run_scenario(plain)
        b = run_scenario(plain)
        assert canonical_payload(a) == canonical_payload(b)

    def test_jitter_is_deterministic_and_changes_trajectory(self):
        jittered = SPACE_DC_DEFAULTS.with_overrides(duration_s=0.2, drain_s=0.4)
        plain = jittered.with_overrides(link_jitter_s=0.0)
        j1, j2 = run_scenario(jittered), run_scenario(jittered)
        assert canonical_payload(j1) == canonical_payload(j2)
        p = run_scenario(plain)
        assert canonical_payload(j1) != canonical_payload(p)

    def test_jitter_never_reorders_a_link(self):
        """FIFO clamp: per-link arrival times are monotone even when the
        jitter draw would invert two back-to-back deliveries."""
        import random

        from repro.net.host import Host
        from repro.net.link import Port, connect
        from repro.net.packet import Packet
        from repro.net.queues import DropTailQueue
        from repro.sim.engine import Scheduler

        sched = Scheduler()
        a, b = Host(0, "a", sched), Host(1, "b", sched)
        pa = Port(a, DropTailQueue(1000), rate_bps=1e9, delay_s=1e-3)
        pb = Port(b, DropTailQueue(1000), rate_bps=1e9, delay_s=1e-3)
        connect(pa, pb)
        pa.set_jitter(5e-3, random.Random(7))  # jitter >> serialization time
        got = []
        # Ports cache the peer's bound receive at connect time; override the
        # cached hook so delivery order is observed directly.
        pa._peer_receive = lambda pkt, in_port: got.append(pkt.seq)
        for seq in range(50):
            pa.send(Packet(flow_id=1, src=0, dst=1, seq=seq))
        sched.run()
        assert got == sorted(got)
        assert len(got) == 50

    def test_negative_jitter_rejected(self):
        import random

        net = dctcp_net()
        port = net.switches[0].ports[0]
        with pytest.raises(ValueError):
            port.set_jitter(-1e-3, random.Random(1))


# ----------------------------------------------------------------------
# diurnal background workload
# ----------------------------------------------------------------------
class TestDiurnalBackground:
    def test_rate_multiplier_peak_and_trough(self):
        net = dctcp_net()
        gen = DiurnalBackgroundTraffic(
            net, interarrival_s=0.1, size_dist=web_search_background(),
            period_s=1.0, amplitude=0.6,
        )
        assert gen.rate_multiplier(0.25) == pytest.approx(1.6)  # peak
        assert gen.rate_multiplier(0.75) == pytest.approx(0.4)  # trough
        assert gen.rate_multiplier(0.0) == pytest.approx(1.0)

    def test_more_arrivals_near_peak_than_trough(self):
        net = dctcp_net(seed=5)
        gen = DiurnalBackgroundTraffic(
            net, interarrival_s=0.004, size_dist=web_search_background(),
            stop_at=1.0, period_s=1.0, amplitude=0.9,
        )
        starts = []
        gen._arrival = lambda host: (starts.append(net.scheduler.now), gen._schedule_next(host))  # type: ignore[method-assign]
        gen.start()
        net.scheduler.run(until=1.0)
        peak = sum(1 for t in starts if 0.0 <= t < 0.5)
        trough = sum(1 for t in starts if 0.5 <= t < 1.0)
        assert peak > 1.5 * trough

    def test_scenario_selects_diurnal_generator(self):
        result = run_scenario(
            SPACE_DC_DEFAULTS.with_overrides(
                duration_s=0.2, drain_s=0.3, query_enabled=False
            )
        )
        assert result.bg_flows_started > 0

    def test_amplitude_bounds_enforced(self):
        net = dctcp_net()
        with pytest.raises(ValueError):
            DiurnalBackgroundTraffic(
                net, interarrival_s=0.1, size_dist=web_search_background(),
                period_s=1.0, amplitude=1.0,
            )
        with pytest.raises(ValueError):
            DiurnalBackgroundTraffic(
                net, interarrival_s=0.1, size_dist=web_search_background(),
                period_s=0.0,
            )


# ----------------------------------------------------------------------
# end-to-end wiring: scenario -> runner -> export
# ----------------------------------------------------------------------
class TestControlledScenarioWiring:
    def test_controller_stats_exported(self, tmp_path):
        from repro.metrics.export import export_result_json

        result = run_scenario(CONTROLLED)
        assert result.controller_stats["ticks"] > 0
        out = export_result_json(result, tmp_path / "result.json")
        payload = json.loads(out.read_text())
        assert payload["controller"]["ticks"] == result.controller_stats["ticks"]

    def test_controller_stats_merge_per_key(self):
        merged = run_pooled(CONTROLLED, seeds=(0, 1))
        singles = [
            run_scenario(CONTROLLED.with_overrides(seed=seed)) for seed in (0, 1)
        ]
        for key in merged.controller_stats:
            assert merged.controller_stats[key] == sum(
                s.controller_stats[key] for s in singles
            )

    def test_cli_controller_flag(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main([
            "run", "--scheme", "dibs", "--controller",
            "--duration-s", "0.05", "--drain-s", "0.2", "--qps", "100",
            "--incast-degree", "6",
        ])
        assert code == 0
        assert "scheme=dibs" in capsys.readouterr().out

    def test_cli_controller_spec_file(self, tmp_path, capsys):
        from repro.cli import build_parser, main as cli_main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"cadence_events": 500, "cooldown_s": 0.01}))
        args = build_parser().parse_args([
            "run", "--scheme", "dibs", "--controller-spec", str(spec_file),
        ])
        from repro.cli import _scenario_from_args

        scenario = _scenario_from_args(args)
        assert scenario.controller
        spec = ControllerSpec.from_json_text(scenario.controller_spec)
        assert spec.cadence_events == 500 and spec.cooldown_s == 0.01
        # Canonical form: whitespace variants of the same file hash alike.
        spec_file.write_text('{ "cooldown_s" : 0.01,  "cadence_events": 500 }')
        args2 = build_parser().parse_args([
            "run", "--scheme", "dibs", "--controller-spec", str(spec_file),
        ])
        assert _scenario_from_args(args2).controller_spec == scenario.controller_spec

    def test_cli_rejects_bad_spec_file(self, tmp_path):
        from repro.cli import build_parser, _scenario_from_args

        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"not_a_knob": 3}')
        args = build_parser().parse_args([
            "run", "--scheme", "dibs", "--controller-spec", str(spec_file),
        ])
        with pytest.raises(ValueError, match="unknown controller spec keys"):
            _scenario_from_args(args)

    def test_scenario_journal_round_trip(self):
        from dataclasses import asdict

        from repro.experiments.journal import scenario_from_json_dict

        sc = CONTROLLED
        again = scenario_from_json_dict(json.loads(json.dumps(asdict(sc))))
        assert again == sc
