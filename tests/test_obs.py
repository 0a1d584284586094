"""Observability (repro.obs): counters, profiler, heartbeat, trace.

The load-bearing property throughout: instrumentation never perturbs the
event calendar, so identical seeds produce bit-identical metrics with
observability on or off.
"""

import json

import pytest

from repro.experiments.runner import RunOptions, canonical_payload, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS, flap_storm
from repro.obs.counters import CounterRegistry
from repro.obs.heartbeat import ExecutorHeartbeat, HeartbeatWriter
from repro.obs.profiler import format_profile, merge_profiles
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    summarize_trace,
    validate_record,
)
from repro.sim.engine import Scheduler
from tests import golden

TINY = SCALED_DEFAULTS.with_overrides(
    name="obs-tiny", duration_s=0.02, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)


def _start_queries(network, scenario):
    from repro.workload.query import QueryTraffic

    QueryTraffic(
        network, qps=scenario.qps, degree=scenario.incast_degree,
        response_bytes=scenario.response_bytes,
        transport=scenario.transport_config(), stop_at=scenario.duration_s,
    ).start()


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_snapshot_totals_match_device_counters(self):
        # The network-wide totals sum the per-device counters the hot
        # paths bump.
        network = TINY.build_network()
        _start_queries(network, TINY)
        network.run(until=0.3)
        snap = network.counters()
        detours = sum(switch.counters.detours for switch in network.switches)
        assert snap.total_detours() == detours > 0
        assert snap.total_ecn_marks() == sum(
            port.queue.marks for switch in network.switches for port in switch.ports
        )
        assert snap.drop_report()["overflow"] == sum(
            switch.counters.drops_overflow for switch in network.switches
        )
        assert snap.total_drops() == sum(snap.drop_report().values())

    def test_scopes_cover_every_device(self):
        network = TINY.build_network()
        snap = network.counters()
        scopes = {name for name, _ in snap.iter_scopes()}
        for switch in network.switches:
            assert f"switch.{switch.name}" in scopes
            for port in switch.ports:
                assert f"switch.{switch.name}.port{port.index}" in scopes
        for host in network.hosts:
            assert f"host.{host.name}" in scopes
            assert f"host.{host.name}.nic" in scopes

    def test_flat_matches_nested_view(self):
        network = TINY.build_network()
        network.run(until=0.3)
        snap = network.counters()
        flat = snap.flat()
        nested = snap.as_dict()
        assert flat == {
            f"{scope}.{counter}": value
            for scope, counters in nested.items()
            for counter, value in counters.items()
        }
        assert snap.total("detours", "switch.") == sum(
            v for k, v in flat.items()
            if k.startswith("switch.") and k.endswith(".detours")
        )

    def test_snapshot_is_frozen_copy(self):
        network = TINY.build_network()
        before = network.counters()
        network.switches[0].counters.detours += 7
        assert before.total_detours() == 0
        assert network.counters().total_detours() == 7

    def test_registry_rejects_nothing_and_merges_scopes(self):
        registry = CounterRegistry()
        registry.register("a", lambda: {"x": 1})
        registry.register("a", lambda: {"y": 2})
        snap = registry.snapshot()
        assert snap.get("a", "x") == 1
        assert snap.get("a", "y") == 2


def _prefix_drop_report(snap):
    """``drop_report`` as ten ``total()`` prefix sums, one per cause: the
    oracle the one-pass report must equal, key order included."""
    total = snap.total
    return {
        "overflow": total("drops_overflow", "switch."),
        "ttl_expired": total("drops_ttl", "switch."),
        "no_route": total("drops_no_route", "switch."),
        "no_detour_port": total("drops_no_detour", "switch."),
        "host_nic": total("queue_drops", "host."),
        "pfabric_evictions": total("pfabric_evictions", "switch."),
        "ingress_overflow": total("ingress_overflow", "switch."),
        "switch_failed": total("drops_switch_failed", "switch."),
        "link_down": total("link_down"),
        "corrupt": total("corrupt"),
    }


def _assert_drop_report_matches_oracle(snap):
    report = snap.drop_report()
    oracle = _prefix_drop_report(snap)
    assert report == oracle
    assert list(report) == list(oracle)
    assert snap.total_drops() == sum(oracle.values())
    return report


class TestDropReport:
    def test_every_cause_and_lookalike_scopes(self):
        registry = CounterRegistry()
        scopes = {
            "switch.agg_0": {"forwards": 50, "drops_overflow": 1, "drops_ttl": 2,
                             "drops_no_route": 3, "drops_no_detour": 4,
                             "drops_switch_failed": 5, "ingress_overflow": 6},
            "switch.agg_0.port1": {"queue_drops": 70, "pfabric_evictions": 7,
                                   "link_down": 8, "corrupt": 9},
            "switch.core_0": {"drops_overflow": 20, "drops_ttl": 21},
            "host.host_0": {"misdelivered": 1, "unclaimed": 2},
            "host.host_0.nic": {"queue_drops": 10, "link_down": 11, "corrupt": 12},
            # Look-alikes: only link_down and corrupt count outside the
            # switch./host. prefixes, and a prefix needs its dot.
            "pfc.agg_0": {"drops_overflow": 100, "queue_drops": 200, "link_down": 13,
                          "corrupt": 14, "pfabric_evictions": 300},
            "controller": {"drops_ttl": 400, "ingress_overflow": 500,
                           "drops_switch_failed": 550, "link_down": 15, "corrupt": 16},
            "switchboard": {"drops_overflow": 600, "drops_no_route": 650},
            "hosts.host_1": {"queue_drops": 700},
            "hostile": {"queue_drops": 800},
        }
        for scope, counters in scopes.items():
            registry.register(scope, lambda counters=counters: counters)
        report = _assert_drop_report_matches_oracle(registry.snapshot())
        assert all(report.values())
        assert report["overflow"] == 21 and report["host_nic"] == 10
        assert report["link_down"] == 8 + 11 + 13 + 15

    def test_cioq_run(self):
        from repro.net.network import Network, SwitchQueueConfig
        from repro.topo import fat_tree

        network = Network(
            fat_tree(k=4),
            switch_queues=SwitchQueueConfig(
                buffer_pkts=100, ecn_threshold_pkts=8, architecture="cioq",
                cioq_speedup=0.5, cioq_ingress_pkts=2),
            seed=1,
        )
        for i in range(1, 13):
            network.start_flow(f"host_{i}", "host_0", 20_000, transport="dctcp", kind="query")
        network.run(until=0.5)
        report = _assert_drop_report_matches_oracle(network.counters())
        assert report["ingress_overflow"] > 0

    def test_pfabric_run(self):
        scenario = TINY.with_overrides(scheme="pfabric", incast_degree=12)
        network = scenario.build_network()
        _start_queries(network, scenario)
        network.run(until=0.3)
        report = _assert_drop_report_matches_oracle(network.counters())
        assert report["pfabric_evictions"] > 0

    def test_fault_run_at_every_audit(self, monkeypatch):
        """A flap storm with the controller (its own counter scope),
        corruption and mid-run audits: every report the run takes, the
        invariant checker's included, equals the oracle."""
        from repro.experiments.scenarios import flap_storm
        from repro.obs.counters import CounterSnapshot

        reports = []
        one_pass = CounterSnapshot.drop_report

        def checked(snap):
            report = one_pass(snap)
            assert report == _prefix_drop_report(snap)
            reports.append(report)
            return report

        monkeypatch.setattr(CounterSnapshot, "drop_report", checked)
        result = run_scenario(flap_storm(
            duration_s=0.5, drain_s=0.2, controller=True, corrupt_rate=200.0,
            invariant_check_interval_s=0.02, seed=1))
        assert len(reports) > 30
        assert result.drops == reports[-1]
        for cause in ("link_down", "corrupt", "no_route", "no_detour_port"):
            assert result.drops[cause] > 0


# ----------------------------------------------------------------------
# determinism under instrumentation (the ISSUE's acceptance property)
# ----------------------------------------------------------------------
class TestDeterminismUnderInstrumentation:
    def test_metrics_bit_identical_with_all_obs_on(self, tmp_path):
        instrumented = RunOptions(
            profile=True,
            heartbeat_interval_s=0.001,
            heartbeat_path=str(tmp_path / "hb.jsonl"),
            trace_file=str(tmp_path / "run.trace.jsonl"),
            trace_occupancy_interval_s=0.002,
            span_sample_rate=0.25,
            flight_recorder_dir=str(tmp_path / "flight"),
        )
        plain = run_scenario(TINY)
        traced = run_scenario(TINY.with_overrides(timeseries_interval_s=0.002), instrumented)
        assert traced.timeseries and traced.span_records
        traced.timeseries = None  # the recorded series is the one thing this run adds
        assert canonical_payload(plain) == canonical_payload(traced)
        assert traced.profile is not None
        assert (tmp_path / "hb.jsonl").exists()
        assert (tmp_path / "run.trace.jsonl").exists()

    def test_profile_categories_sum_to_event_count(self):
        result = run_scenario(TINY, RunOptions(profile=True))
        profile = result.profile
        assert profile["total_events"] == result.events
        assert sum(c["events"] for c in profile["categories"].values()) == result.events
        assert profile["total_wall_s"] > 0
        assert "link.deliver" in profile["categories"]

    def test_merge_profiles(self):
        results = [
            run_scenario(TINY.with_overrides(seed=seed), RunOptions(profile=True))
            for seed in (0, 1)
        ]
        merged = merge_profiles(r.profile for r in results)
        assert merged["total_events"] == sum(r.events for r in results)
        assert merge_profiles([None, None]) is None
        assert "link.deliver" in format_profile(merged)

    def test_pooled_profile_keeps_sample_stride(self):
        # sample_stride is what says whether a profile is exact; pooling
        # seeds must not drop it.
        from repro.experiments.runner import run_pooled

        single = run_scenario(TINY, RunOptions(profile=True))
        pooled = run_pooled(TINY, seeds=(0, 1), options=RunOptions(profile=True))
        assert pooled.profile["sample_stride"] == single.profile["sample_stride"]
        exact = dict(single.profile, sample_stride=1)
        assert merge_profiles([exact, exact])["sample_stride"] == 1
        # Inputs that disagree have no single stride to report.
        assert "sample_stride" not in merge_profiles([single.profile, exact])


def _transport_cb():
    pass


def _workload_cb():
    pass


# profile_category keys off the callback's module: stamp the helpers so
# they land in two distinct, predictable categories.
_transport_cb.__module__ = "repro.transport.tcp"
_workload_cb.__module__ = "repro.workload.query"


class _TickClock:
    """Deterministic perf_counter stand-in: every read advances 1.0s."""

    def __init__(self):
        self.value = 0.0
        self.reads = 0

    def __call__(self):
        self.value += 1.0
        self.reads += 1
        return self.value


class TestProfilerAttribution:
    """Regression tests for the two run-loop attribution bugs: the exact
    loop resetting its window on every event whenever hooks were merely
    installed, and the sampled loop charging its trailing window to a
    peeked-but-never-executed event at the `until` horizon."""

    def test_exact_loop_one_clock_read_per_event_with_idle_hooks(self, monkeypatch):
        # Hooks installed but never firing must not change the clock
        # discipline: one read per event, and the category totals must
        # equal the wall time between the loop's first and last read
        # (the buggy per-event reset silently discarded half of it).
        import time as time_mod

        from repro.obs.profiler import SchedulerProfiler

        clock = _TickClock()
        monkeypatch.setattr(time_mod, "perf_counter", clock)
        sched = Scheduler()
        SchedulerProfiler(sample_stride=1).install(sched)
        sched.add_hook(lambda s: None, 10_000)  # installed, never fires
        for i in range(5):
            sched.schedule_at(i * 1e-3, _transport_cb)
        start = clock.value
        sched.run()
        elapsed = clock.value - start - 1.0  # minus the loop's initial read
        profile = sched.profiler.as_dict()
        assert profile["categories"]["transport.timer"]["events"] == 5
        assert profile["total_wall_s"] == pytest.approx(elapsed)
        assert clock.reads == 1 + 5  # the loop's initial read + one per event

    def test_exact_loop_excludes_hook_time_only_when_hook_fires(self, monkeypatch):
        import time as time_mod

        from repro.obs.profiler import SchedulerProfiler

        clock = _TickClock()
        monkeypatch.setattr(time_mod, "perf_counter", clock)
        sched = Scheduler()
        SchedulerProfiler(sample_stride=1).install(sched)
        # The hook burns 3 fake-clock ticks every 2 events; that time must
        # not be charged to any category.
        sched.add_hook(lambda s: (clock(), clock(), clock()), 2)
        for i in range(4):
            sched.schedule_at(i * 1e-3, _transport_cb)
        sched.run()
        profile = sched.profiler.as_dict()
        # Each event's own attribution is exactly one tick.
        assert profile["categories"]["transport.timer"]["events"] == 4
        assert profile["total_wall_s"] == pytest.approx(4.0)

    def test_sampled_leftover_charged_to_last_executed_event(self):
        from repro.obs.profiler import SchedulerProfiler

        sched = Scheduler()
        SchedulerProfiler(sample_stride=16).install(sched)
        for i in range(3):
            sched.schedule_at(i * 1e-3, _transport_cb)
        sched.schedule_at(2.0, _workload_cb)  # peeked at the break, never run
        processed = sched.run(until=1.0)
        assert processed == 3
        profile = sched.profiler.as_dict()
        # The trailing partial window (3 events) belongs to the category
        # of the last event that actually executed -- not to the future
        # event whose peek broke the loop.
        assert profile["categories"]["transport.timer"]["events"] == 3
        assert "workload.arm" not in profile["categories"]
        assert profile["total_events"] == processed

    def test_sampled_totals_exact_after_horizon_resume(self):
        from repro.obs.profiler import SchedulerProfiler

        sched = Scheduler()
        SchedulerProfiler(sample_stride=16).install(sched)
        for i in range(3):
            sched.schedule_at(i * 1e-3, _transport_cb)
        sched.schedule_at(2.0, _workload_cb)
        sched.run(until=1.0)
        sched.run()  # resume past the horizon; the straggler now runs
        profile = sched.profiler.as_dict()
        assert profile["total_events"] == 4
        assert profile["categories"]["transport.timer"]["events"] == 3
        assert profile["categories"]["workload.arm"]["events"] == 1


class TestProfilePins:
    """Per-category event counts of whole profiled runs.  The window
    lengths come from a fixed LCG and each window is charged to the event
    that closes it, so the counts are deterministic, and they move
    whenever the window attribution does."""

    CONTROLLED = flap_storm("dibs", seed=0, **golden.STORM_CTL)
    PINS = {
        ("tiny", 16): {"link.deliver": 5362, "link.tx": 5944},
        ("tiny", 1): {"link.deliver": 5650, "link.tx": 5650, "workload.arm": 6},
        # Watchdog and controller hooks installed; the controller's fires
        # every 2,000 events.
        ("controlled", 16): {"link.deliver": 7189, "link.tx": 8786, "workload.arm": 42},
        ("controlled", 1): {"faults": 6, "link.deliver": 7788, "link.tx": 8193,
                            "transport.timer": 4, "workload.arm": 26},
    }

    @pytest.mark.parametrize("case", list(PINS), ids=lambda case: f"{case[0]}-stride{case[1]}")
    def test_category_events_are_pinned(self, case, monkeypatch):
        import repro.obs.profiler as profiler_mod

        name, stride = case

        class Profiler(profiler_mod.SchedulerProfiler):
            def __init__(self):
                super().__init__(sample_stride=stride)

        # run_scenario builds its profiler with the default stride.
        monkeypatch.setattr(profiler_mod, "SchedulerProfiler", Profiler)
        scenario = TINY if name == "tiny" else self.CONTROLLED
        result = run_scenario(scenario, RunOptions(profile=True))
        events = {c: d["events"] for c, d in result.profile["categories"].items()}
        assert events == self.PINS[case]
        assert result.profile["total_events"] == result.events
        if name == "controlled":  # profiling moved nothing
            assert golden.measured(result) == golden.expected("runs", "storm-ctl/dibs/s0")


# ----------------------------------------------------------------------
# heartbeat
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_sim_heartbeat_records(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        run_scenario(TINY, RunOptions(
            heartbeat_interval_s=0.001, heartbeat_path=str(path),
        ))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "expected at least the final heartbeat"
        assert all(r["type"] == "sim" for r in records)
        assert records[-1]["final"] is True
        assert records[-1]["pending"] == 0
        assert records[-1]["events"] > 0
        assert records[-1]["label"] == "obs-tiny"

    def test_seed_placeholder_expands(self, tmp_path):
        from repro.experiments.runner import run_pooled

        run_pooled(
            TINY,
            seeds=(0, 1),
            options=RunOptions(
                heartbeat_interval_s=0.001,
                heartbeat_path=str(tmp_path / "hb_{seed}.jsonl"),
            ),
        )
        assert (tmp_path / "hb_0.jsonl").exists()
        assert (tmp_path / "hb_1.jsonl").exists()

    def test_executor_heartbeat(self, tmp_path):
        path = tmp_path / "exec.jsonl"
        hb = ExecutorHeartbeat(HeartbeatWriter(str(path)), interval_s=1e-9)
        hb.emit(completed=1, total=4, running=[{"key": "a", "attempt": 1, "wall_s": 0.1}],
                pending=2)
        hb.writer.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["type"] == "executor"
        assert record["completed"] == 1
        assert record["in_flight"] == 1
        assert record["queued"] == 2

    def test_executor_heartbeat_threads_through_run_pooled(self, tmp_path):
        from repro.experiments.runner import run_pooled

        path = tmp_path / "exec.jsonl"
        hb = ExecutorHeartbeat(HeartbeatWriter(str(path)), interval_s=1e-9)
        run_pooled(TINY, seeds=(0, 1), heartbeat=hb)
        hb.writer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert all(r["type"] == "executor" for r in records)
        assert records[-1]["total"] == 2

    @pytest.mark.parametrize("interval_s", [1e-9, 3600.0], ids=["every-poll", "final-only"])
    def test_executor_heartbeats_carry_each_finished_fingerprint_once(
            self, tmp_path, interval_s):
        from repro.experiments.parallel import RunRequest, execute_runs

        path = tmp_path / "exec.jsonl"
        hb = ExecutorHeartbeat(HeartbeatWriter(str(path)), interval_s=interval_s)
        requests = [RunRequest(key=("c", seed), scenario=TINY.with_overrides(seed=seed))
                    for seed in range(4)]
        results = execute_runs(requests, workers=2, heartbeat=hb)
        hb.writer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        finished = [r["finished"] for r in records]
        union = {key: fp for batch in finished for key, fp in batch.items()}
        # Each fingerprint is reported once, in the first record after its
        # cell settled; the last record is written when the batch ends.
        assert sum(len(batch) for batch in finished) == len(union)
        assert union == {str(key): result.fingerprint for key, result in results.items()}
        assert records[-1]["completed"] == 4


# ----------------------------------------------------------------------
# structured trace
# ----------------------------------------------------------------------
class TestTraceSchema:
    def test_every_record_validates(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        run_scenario(TINY, RunOptions(
            trace_file=str(path), trace_occupancy_interval_s=0.005,
        ))
        records = list(read_trace(path))  # read_trace validates each line
        kinds = {r["type"] for r in records}
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "counters"
        assert "detour" in kinds
        assert "occupancy" in kinds
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)

    def test_validate_record_rejects_malformed(self):
        good = {"v": 1, "type": "drop", "t": 0.1,
                "node": "s", "flow": 1, "reason": "overflow"}
        assert validate_record(dict(good)) == good
        with pytest.raises(ValueError, match="version"):
            validate_record({**good, "v": 99})
        with pytest.raises(ValueError, match="type"):
            validate_record({**good, "type": "nonsense"})
        with pytest.raises(ValueError, match="missing"):
            validate_record({"v": 1, "type": "drop", "t": 0.1})
        with pytest.raises(ValueError, match="missing 't'"):
            validate_record({"v": 1, "type": "meta"})

    def test_read_trace_reports_line_numbers(self, tmp_path):
        # Mid-file corruption (a non-JSON line with real records after it)
        # is a broken trace and still raises with the line number ...
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v":1,"type":"meta","t":0}\n'
                        'not json\n'
                        '{"v":1,"type":"meta","t":1}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(read_trace(path))

    def test_read_trace_tolerates_torn_final_line(self, tmp_path):
        # ... but a truncated FINAL line is the signature of a torn write
        # from an interrupted run: yield the complete records and warn.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"v":1,"type":"meta","t":0}\n'
                        '{"v":1,"type":"drop","t":1,"node":"s","flow":1,"reason":"over')
        with pytest.warns(RuntimeWarning, match="torn.jsonl:2.*truncated final"):
            records = list(read_trace(path))
        assert [r["type"] for r in records] == ["meta"]
        # Schema violations on a complete final line are still errors.
        path2 = tmp_path / "schema.jsonl"
        path2.write_text('{"v":1,"type":"meta","t":0}\n{"v":99,"type":"meta","t":1}\n')
        with pytest.raises(ValueError, match="version"):
            list(read_trace(path2))

    def test_summary_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        result = run_scenario(TINY, RunOptions(
            trace_file=str(path), trace_occupancy_interval_s=0.005,
        ))
        summary = summarize_trace(path)
        assert summary["meta"] == {"label": "obs-tiny", "seed": 0}
        # The trace saw exactly the detours the run counted.
        assert sum(summary["detours_by_switch"].values()) == result.detours
        assert summary["final_counters"]["switch." + max(
            summary["detours_by_switch"], key=summary["detours_by_switch"].get
        ) + ".detours"] > 0
        assert summary["by_type"]["occupancy"] > 0

    def test_trace_chains_existing_detour_trace(self, tmp_path):
        from repro.metrics.trace import DetourTrace
        from repro.obs.trace import TraceWriter

        network = TINY.build_network()
        anatomy = DetourTrace(network)  # installed first, must keep working
        writer = TraceWriter(tmp_path / "t.jsonl").attach(network)
        _start_queries(network, TINY)
        network.run(until=0.3)
        writer.finish()
        traced = sum(1 for _ in read_trace(tmp_path / "t.jsonl", kind="detour"))
        assert traced == len(anatomy.detour_events)
        assert traced > 0

    def test_detour_trace_attached_last_keeps_earlier_sinks(self, tmp_path):
        # A DetourTrace attached after a trace writer and a flight
        # recorder must not disconnect them: all three see every detour.
        from repro.metrics.trace import DetourTrace
        from repro.obs.forensics import FlightRecorder
        from repro.obs.trace import TraceWriter

        scenario = TINY.with_overrides(buffer_pkts=25)
        network = scenario.build_network()
        writer = TraceWriter(tmp_path / "t.jsonl").attach(network)
        recorder = FlightRecorder(network, tmp_path / "flight", capacity=100_000).install()
        anatomy = DetourTrace(network)
        _start_queries(network, scenario)
        network.run(until=0.3)
        writer.finish()
        total = network.counters().total_detours()
        assert total > 0
        assert sum(1 for _ in read_trace(tmp_path / "t.jsonl", kind="detour")) == total
        assert sum(1 for r in recorder.ring if r["type"] == "detour") == total
        assert len(anatomy.detour_events) == total


# ----------------------------------------------------------------------
# scheduler hooks and O(1) pending
# ----------------------------------------------------------------------
class TestSchedulerObsHooks:
    def test_hooks_fire_on_event_cadence(self):
        sched = Scheduler()
        seen = []
        sched.add_hook(lambda s: seen.append(s.events_processed), 10)
        for i in range(35):
            sched.schedule_at(i * 0.001, lambda: None)
        sched.run()
        assert seen == [10, 20, 30]

    def test_remove_hook(self):
        sched = Scheduler()
        seen = []
        handle = sched.add_hook(lambda s: seen.append(1), 1)
        sched.schedule_at(0.0, lambda: None)
        sched.run()
        sched.remove_hook(handle)
        sched.schedule_at(1.0, lambda: None)
        sched.run()
        assert seen == [1]

    def test_pending_is_live_count_not_heap_size(self):
        sched = Scheduler()
        events = [sched.schedule_at(i * 0.001, lambda: None) for i in range(100)]
        assert sched.pending == 100
        for ev in events[50:]:
            ev.cancel()
        # Cancelled events still sit in the heap, but pending must not
        # count them (and must not cost a heap scan to say so).
        assert sched.pending == 50
        sched.run()
        assert sched.pending == 0

    def test_cancel_after_fire_is_noop_for_pending(self):
        sched = Scheduler()
        fired = sched.schedule_at(0.0, lambda: None)
        sched.run()
        fired.cancel()
        fired.cancel()
        assert sched.pending == 0


# ----------------------------------------------------------------------
# unified exporter
# ----------------------------------------------------------------------
class TestWriteArtifacts:
    def test_full_bundle(self, tmp_path):
        from repro.metrics.export import write_artifacts

        trace = tmp_path / "run.trace.jsonl"
        options = RunOptions(profile=True, trace_file=str(trace))
        result = run_scenario(TINY, options)
        out = tmp_path / "bundle"
        written = write_artifacts(result, out, options=options)
        names = {p.name for p in written.values()}
        assert names >= {"result.json", "flows.csv", "queries.csv",
                         "profile.json", "run.trace.jsonl", "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        from repro.metrics.export import MANIFEST_VERSION
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["skipped"] == {}
        payload = json.loads((out / "result.json").read_text())
        assert payload["profile"]["total_events"] == result.events

    def test_collectorless_result_skips_csvs(self, tmp_path):
        from repro.metrics.export import write_artifacts

        result = run_scenario(TINY)
        result.collector = None  # as after a process boundary
        written = write_artifacts(result, tmp_path / "bundle")
        assert "flows" not in written
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert "flows" in manifest["skipped"]

    def test_fully_resumed_run_says_its_cells_did_not_run(self, tmp_path):
        from repro.experiments.journal import RunJournal, scenario_hash
        from repro.experiments.parallel import RunTelemetry
        from repro.experiments.runner import run_pooled
        from repro.metrics.export import write_artifacts

        journal = tmp_path / "journal"
        run_pooled(TINY, seeds=(0, 1), journal=RunJournal(journal))
        options = RunOptions(span_sample_rate=0.25,
                             trace_file=str(tmp_path / "t_{seed}.jsonl"))
        telemetry = RunTelemetry()
        result = run_pooled(TINY, seeds=(0, 1), journal=RunJournal(journal), resume=True,
                            telemetry=telemetry, options=options)
        assert telemetry.cells_resumed == 2
        write_artifacts(result, tmp_path / "bundle", telemetry=telemetry, options=options)
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        keys = [scenario_hash(TINY.with_overrides(seed=seed)) for seed in (0, 1)]
        assert manifest["resumed"]["journal_keys"] == keys
        assert set(manifest["skipped"]) == {"flows", "queries", "trace", "spans"}
        for reason in manifest["skipped"].values():
            assert "resumed from the journal" in reason and "none ran" in reason

    def test_seed_placeholder_collects_all_traces(self, tmp_path):
        from repro.experiments.runner import run_pooled
        from repro.metrics.export import write_artifacts

        options = RunOptions(trace_file=str(tmp_path / "t_{seed}.jsonl"))
        result = run_pooled(TINY, seeds=(0, 1), options=options)
        written = write_artifacts(result, tmp_path / "bundle", options=options)
        names = {p.name for p in written.values()}
        assert {"t_0.jsonl", "t_1.jsonl"} <= names
        # Pooled serial results keep a merged collector, so CSVs exist too.
        assert "flows.csv" in names
