"""Durable sweep checkpointing: journal, resume, replay bundles, shutdown.

Covers the acceptance criteria of the robustness PR:

* a sweep interrupted mid-run (SIGINT surfacing as ``KeyboardInterrupt``,
  or SIGKILL of a worker) and restarted with ``resume=True`` yields pooled
  results bit-identical to an uninterrupted run, re-executing only
  unjournaled cells;
* the journal never contains a torn/partial JSON file;
* ``repro replay`` reproduces a journaled failure's abort (same exception
  class) from its bundle alone;
* retries back off exponentially with deterministic jitter and escalate
  their timeout, orphaned workers are cleaned up on interrupt, and a
  runaway event queue aborts with ``ResourceError`` instead of an OOM kill.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_INTERRUPTED, main as cli_main
from repro.experiments.journal import (
    RunJournal,
    exception_class_from_reason,
    load_replay_bundle,
    scenario_from_json_dict,
    scenario_hash,
)
from repro.experiments import settle as settle_mod
from repro.experiments.parallel import (
    RunRequest,
    RunTelemetry,
    execute_runs,
    run_grid,
)
from repro.experiments.runner import RunOptions, canonical_payload, fingerprint, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS, Scenario
from repro.server import JobScheduler, JobStore
from repro.sim.engine import ResourceError, Scheduler

TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny-journal", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)

# One non-default value per RunOptions field.
WATCHING = {
    "profile": True,
    "heartbeat_interval_s": 0.5,
    "heartbeat_path": "hb.jsonl",
    "trace_file": "t_{seed}.jsonl",
    "trace_occupancy_interval_s": 0.005,
    "span_sample_rate": 0.25,
    "flight_recorder_dir": "flight",
}

# A non-default value for every field Scenario keeps.
OVERRIDES = {
    "name": "other", "scheme": "dctcp", "topology": "leafspine", "k": 6,
    "link_rate_bps": 1e10, "link_delay_s": 1e-5, "link_jitter_s": 1e-6,
    "oversubscription": 2.0, "buffer_pkts": 31, "ecn_threshold_pkts": 9,
    "pfabric_queue_pkts": 25, "dba_total_bytes": 1_000_000,
    "detour_policy": "load-aware", "ttl": 12, "min_rto_s": 0.02,
    "init_cwnd_pkts": 4, "pfabric_rto_s": 1e-3, "pfabric_window_pkts": 8,
    "dupack_threshold": 5, "bg_enabled": True, "bg_interarrival_s": 0.2,
    "bg_diurnal_period_s": 1.0, "bg_diurnal_amplitude": 0.25,
    "query_enabled": False, "qps": 50.0, "incast_degree": 7,
    "response_bytes": 30_000, "duration_s": 0.04, "drain_s": 0.4, "seed": 1,
    "faults": ((0.01, "link_down", "a", "b"),), "link_flap_rate": 1.0,
    "link_flap_downtime_s": 2e-3, "corrupt_rate": 1.0, "watchdog": False,
    "invariant_check_interval_s": 0.01, "max_pending_events": 1000,
    "controller": True, "controller_spec": "{}", "timeseries_interval_s": 0.01,
}

# Fails deterministically inside the run: validate() rejects the scheme.
RAISING = TINY.with_overrides(scheme="does-not-exist", name="raising")

# Cannot finish inside a tight wall-clock timeout.
SLOW = TINY.with_overrides(duration_s=5.0, drain_s=1.0, name="slow")


def _assert_journal_clean(directory: Path) -> None:
    """Every file in the journal tree parses as JSON; no tmp droppings."""
    files = [p for p in directory.rglob("*") if p.is_file()]
    assert files, "journal directory is empty"
    for path in files:
        assert ".tmp." not in path.name, f"leftover temp file {path}"
        json.loads(path.read_text())  # raises on a torn file


# ----------------------------------------------------------------------
# content keying
# ----------------------------------------------------------------------
class TestScenarioHash:
    def test_stable_across_calls(self):
        assert scenario_hash(TINY) == scenario_hash(TINY)

    def test_every_override_changes_the_key(self):
        assert set(OVERRIDES) == {f.name for f in dataclasses.fields(Scenario)}
        base = scenario_hash(TINY)
        for name, value in OVERRIDES.items():
            assert scenario_hash(TINY.with_overrides(**{name: value})) != base, name

    @pytest.mark.parametrize("name", sorted(WATCHING))
    def test_run_options_leave_the_key_alone(self, name, tmp_path):
        # An instrumented rerun finds the plain run's journal entry.
        assert {f.name for f in dataclasses.fields(RunOptions)} == set(WATCHING)
        value = WATCHING[name]
        if isinstance(value, str):
            value = str(tmp_path / value)
        extra = ({"trace_file": str(tmp_path / "t.jsonl")}
                 if name == "trace_occupancy_interval_s" else {})
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="k", scenario=TINY)
        plain = execute_runs([request], journal=journal)
        telemetry = RunTelemetry()
        rerun = execute_runs([request], journal=journal, resume=True, telemetry=telemetry,
                             options=RunOptions(**{name: value}, **extra))
        assert telemetry.cells_resumed == 1
        assert rerun["k"].fingerprint == plain["k"].fingerprint
        assert [p.name for p in (tmp_path / "j").glob("*.json")] == [
            scenario_hash(TINY) + ".json"]

    def test_key_is_pinned(self):
        # Journal keys are content addresses: a change to the hashed blob
        # orphans every journal on disk.  This digest predates the retired
        # trace_paths execution flag's removal and must never move.
        assert scenario_hash(TINY) == (
            "b94e45c4e87903d6014fe8b76268649e7fcccfadba9b290a1f2a15beed6cb626")

    def test_json_roundtrip_preserves_hash(self):
        scen = TINY.with_overrides(faults=((0.0, "link_down", "a", "b", 1),))
        rebuilt = scenario_from_json_dict(json.loads(json.dumps(dataclasses.asdict(scen))))
        assert rebuilt == scen
        assert scenario_hash(rebuilt) == scenario_hash(scen)

    def test_exception_class_from_reason(self):
        assert exception_class_from_reason("ValueError: nope") == "ValueError"
        assert exception_class_from_reason("LivelockError: frozen clock") == "LivelockError"
        assert exception_class_from_reason("timeout after 5s") is None
        assert exception_class_from_reason("worker crashed (exit code -9)") is None


# ----------------------------------------------------------------------
# journal round trip + resume
# ----------------------------------------------------------------------
class TestJournalRoundTrip:
    def test_success_roundtrip_and_atomicity(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="only", scenario=TINY)
        results = execute_runs([request], workers=1, journal=journal)
        _assert_journal_clean(tmp_path / "j")
        reloaded = journal.lookup(request)
        assert reloaded is not None
        assert canonical_payload(reloaded) == canonical_payload(results["only"])
        # Bit-identical samples through the JSON round trip, not merely close.
        assert reloaded.qct_values == results["only"].qct_values

    def test_lookup_misses_on_different_scenario(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        execute_runs([RunRequest(key="a", scenario=TINY)], workers=1, journal=journal)
        assert journal.lookup(RunRequest(key="a", scenario=TINY.with_overrides(seed=9))) is None

    def test_lookup_ignores_garbage_files(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="a", scenario=TINY)
        journal.entry_path(request).write_text("{ not json")
        assert journal.lookup(request) is None

    def test_resume_skips_journaled_cells_entirely(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in (0, 1)]
        first = execute_runs(requests, workers=1, journal=journal)
        telemetry = RunTelemetry()
        second = execute_runs(requests, workers=1, journal=RunJournal(tmp_path / "j"),
                              resume=True, telemetry=telemetry)
        assert telemetry.cells_resumed == 2
        assert telemetry.runs_completed == 2
        assert not telemetry.per_run_wall  # nothing actually executed
        for key in first:
            assert canonical_payload(first[key]) == canonical_payload(second[key])

    def test_resume_after_partial_journal_is_bit_identical(self, tmp_path):
        cells = {"a": TINY, "b": TINY.with_overrides(buffer_pkts=10)}
        seeds = (0, 1)
        clean = run_grid(cells, seeds=seeds, workers=2)
        # Simulate an interrupt that landed after cell "a" finished: only
        # its (cell, seed) runs made it into the journal.
        journal = RunJournal(tmp_path / "j")
        execute_runs(
            [RunRequest(key=("a", s), scenario=TINY.with_overrides(seed=s)) for s in seeds],
            workers=2, journal=journal,
        )
        telemetry = RunTelemetry()
        resumed = run_grid(cells, seeds=seeds, workers=2, telemetry=telemetry,
                           journal=RunJournal(tmp_path / "j"), resume=True)
        assert telemetry.cells_resumed == 2  # cell "a" seeds came from disk
        assert telemetry.runs_total == 4
        assert clean.keys() == resumed.keys()
        for key in clean:
            assert canonical_payload(clean[key]) == canonical_payload(resumed[key]), key

    def test_edited_entry_reruns_exactly_that_cell(self, tmp_path):
        cells = {"a": TINY, "b": TINY.with_overrides(buffer_pkts=10)}
        seeds = (0, 1)
        clean = run_grid(cells, seeds=seeds, workers=1)
        journal = RunJournal(tmp_path / "j")
        run_grid(cells, seeds=seeds, workers=1, journal=journal)
        edited = RunRequest(key=("b", 1), scenario=cells["b"].with_overrides(seed=1))
        path = journal.entry_path(edited)
        entry = json.loads(path.read_text())
        assert entry["fingerprint"] == fingerprint(entry["result"])
        entry["result"]["qct_values"][0] += 1e-6
        path.write_text(json.dumps(entry))
        assert journal.lookup(edited) is None
        telemetry = RunTelemetry()
        resumed = run_grid(cells, seeds=seeds, workers=1, telemetry=telemetry,
                           journal=RunJournal(tmp_path / "j"), resume=True)
        assert telemetry.cells_resumed == 3
        assert list(telemetry.per_run_wall) == [str(("b", 1))]
        assert journal.lookup(edited) is not None  # re-journaled intact
        for key in clean:
            assert canonical_payload(clean[key]) == canonical_payload(resumed[key]), key

    def test_entry_without_fingerprint_still_loads(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="only", scenario=TINY)
        results = execute_runs([request], workers=1, journal=journal)
        path = journal.entry_path(request)
        entry = json.loads(path.read_text())
        del entry["fingerprint"]
        path.write_text(json.dumps(entry))
        reloaded = journal.lookup(request)
        assert reloaded is not None
        assert reloaded.fingerprint == results["only"].fingerprint


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkilled_worker_is_retried_and_journal_never_torn(self, tmp_path, monkeypatch):
        monkeypatch.setattr(settle_mod, "_BACKOFF_BASE_S", 0.01)
        journal = RunJournal(tmp_path / "j")
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(3)]
        killed = threading.Event()

        def killer():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    os.kill(children[0].pid, signal.SIGKILL)
                    killed.set()
                    return
                time.sleep(0.001)

        thread = threading.Thread(target=killer)
        thread.start()
        telemetry = RunTelemetry()
        results = execute_runs(requests, workers=2, max_retries=3, telemetry=telemetry,
                               journal=journal)
        thread.join()
        assert killed.is_set(), "killer never saw a worker process"
        # Every cell completed despite the SIGKILL; the killed attempt was
        # retried (unless the kill raced the worker's own completion).
        assert set(results) == {("c", s) for s in range(3)}
        assert telemetry.runs_completed == 3
        _assert_journal_clean(tmp_path / "j")
        assert journal.completed_count() == 3

    def test_crash_reason_records_exit_code(self, tmp_path):
        # A SIGKILLed worker surfaces as "worker crashed (exit code -9)" —
        # exercised above nondeterministically; here we pin the reason
        # parser contract used by the replay bundle writer.
        assert exception_class_from_reason("worker crashed (exit code -9)") is None


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_interrupt_returns_partial_results_without_orphans(self):
        state = {"raised": False}

        def hook(event):
            if event.status == "ok" and not state["raised"]:
                state["raised"] = True
                raise KeyboardInterrupt

        telemetry = RunTelemetry()
        # The poll that brings the first ok settles at most both workers'
        # cells, and at most two more are in flight for the shutdown drain
        # to collect: five cells can never all finish, however fast a run is.
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(5)]
        results = execute_runs(requests, workers=2, telemetry=telemetry, progress=hook)
        assert state["raised"]
        assert telemetry.interrupted
        assert 1 <= len(results) < 5
        assert "INTERRUPTED" in telemetry.summary()
        # No orphaned workers: everything was terminated and joined.
        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_interrupt_flushes_completed_cells_to_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        state = {"raised": False}

        def hook(event):
            if event.status == "ok" and not state["raised"]:
                state["raised"] = True
                raise KeyboardInterrupt

        telemetry = RunTelemetry()
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(4)]
        results = execute_runs(requests, workers=2, telemetry=telemetry,
                               progress=hook, journal=journal)
        assert telemetry.interrupted
        # Everything that settled before (or drained during) shutdown is
        # durable, and nothing is torn.
        assert journal.completed_count() == len(results)
        _assert_journal_clean(tmp_path / "j")

    def test_serial_interrupt_is_contained_too(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        calls = {"n": 0}
        real = parallel_mod.run_scenario

        def flaky(scenario, options):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(scenario, options)

        monkeypatch.setattr(parallel_mod, "run_scenario", flaky)
        telemetry = RunTelemetry()
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(3)]
        results = execute_runs(requests, workers=1, telemetry=telemetry)
        assert telemetry.interrupted
        assert telemetry.mode == "serial"
        assert len(results) == 1


# ----------------------------------------------------------------------
# retry backoff + timeout escalation
# ----------------------------------------------------------------------
class TestRetryBackoff:
    def test_backoff_is_deterministic_per_key_and_attempt(self):
        backoff = settle_mod._backoff_delay
        a = backoff(("cell", 0), 1)
        assert a == backoff(("cell", 0), 1)
        assert a != backoff(("cell", 1), 1)
        assert a != backoff(("cell", 0), 2)

    def test_backoff_grows_exponentially_and_caps(self, monkeypatch):
        base, cap = 0.1, 5.0
        monkeypatch.setattr(settle_mod, "_BACKOFF_BASE_S", base)
        monkeypatch.setattr(settle_mod, "_BACKOFF_CAP_S", cap)
        for attempt in (1, 2, 3, 8, 30):
            delay = settle_mod._backoff_delay("k", attempt)
            nominal = min(cap, base * 2 ** (attempt - 1))
            assert 0.5 * nominal <= delay < 1.5 * nominal
        assert settle_mod._backoff_delay("k", 64) < 1.5 * cap

    def test_default_cap_bounds_any_attempt(self):
        assert settle_mod._backoff_delay("x", 1000) < 1.5 * settle_mod._BACKOFF_CAP_S

    def test_retries_record_backoff_in_telemetry_and_bundle(self, tmp_path, monkeypatch):
        monkeypatch.setattr(settle_mod, "_BACKOFF_BASE_S", 0.01)
        journal = RunJournal(tmp_path / "j")
        telemetry = RunTelemetry()
        execute_runs([RunRequest(key="bad", scenario=RAISING)], workers=1,
                     max_retries=2, telemetry=telemetry, journal=journal)
        assert telemetry.runs_failed == 1
        assert telemetry.retries == 2
        assert telemetry.backoff_waits == 2
        assert telemetry.backoff_total_s > 0
        (failure,) = telemetry.failures
        assert failure.attempts == 3
        bundle = load_replay_bundle(failure.bundle)
        assert bundle["expect_exception"] == "ValueError"
        assert len(bundle["attempts"]) == 3
        assert bundle["attempts"][0]["backoff_s"] > 0
        assert "backoff_s" not in bundle["attempts"][-1]  # final attempt: no retry
        assert "ValueError" in bundle["traceback"]

    def test_timeout_escalates_per_attempt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(settle_mod, "_BACKOFF_BASE_S", 0.01)
        journal = RunJournal(tmp_path / "j")
        telemetry = RunTelemetry()
        results = execute_runs([RunRequest(key="slow", scenario=SLOW)], workers=2,
                               timeout_s=0.2, max_retries=1, telemetry=telemetry,
                               journal=journal)
        assert results == {}
        assert telemetry.runs_failed == 1
        assert telemetry.timeout_escalations == 1
        (failure,) = telemetry.failures
        bundle = load_replay_bundle(failure.bundle)
        timeouts = [a["timeout_s"] for a in bundle["attempts"]]
        assert timeouts[0] == pytest.approx(0.2)
        assert timeouts[1] == pytest.approx(0.3)  # x1.5 escalation
        assert bundle["expect_exception"] is None  # wall-clock timeout

    def test_telemetry_export_includes_robustness_counters(self):
        telemetry = RunTelemetry()
        payload = telemetry.as_dict()
        for key in ("backoff_waits", "backoff_total_s", "timeout_escalations",
                    "interrupted", "cells_resumed", "cells_journaled"):
            assert key in payload


# ----------------------------------------------------------------------
# replay bundles + CLI
# ----------------------------------------------------------------------
class TestReplay:
    def test_replay_reproduces_deterministic_abort(self, tmp_path, capsys):
        journal = RunJournal(tmp_path / "j")
        telemetry = RunTelemetry()
        execute_runs([RunRequest(key="bad", scenario=RAISING)], workers=1,
                     max_retries=0, telemetry=telemetry, journal=journal)
        (failure,) = telemetry.failures
        assert failure.bundle and Path(failure.bundle).exists()
        code = cli_main(["replay", failure.bundle])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced ValueError" in out

    def test_legacy_entry_and_bundle_with_run_options_load(self, tmp_path, capsys):
        # Entries and bundles written while the run options were Scenario
        # fields carry them in their "scenario" payload.
        def legacy(path):
            data = json.loads(path.read_text())
            data["scenario"].update(WATCHING, trace_file=str(tmp_path / "t_{seed}.jsonl"),
                                    flight_recorder_dir=str(tmp_path / "flight"),
                                    heartbeat_path=str(tmp_path / "hb.jsonl"))
            path.write_text(json.dumps(data))
            return data["scenario"]

        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="fine", scenario=TINY)
        execute_runs([request], journal=journal)
        assert scenario_from_json_dict(legacy(journal.entry_path(request))) == TINY
        assert journal.lookup(request) is not None
        assert cli_main(["jobs", str(tmp_path / "j")]) == 0

        telemetry = RunTelemetry()
        execute_runs([RunRequest(key="bad", scenario=RAISING)], max_retries=0,
                     telemetry=telemetry, journal=journal)
        bundle = Path(telemetry.failures[0].bundle)
        assert scenario_from_json_dict(legacy(bundle)) == RAISING
        capsys.readouterr()
        assert cli_main(["replay", str(bundle)]) == 0
        assert "reproduced ValueError" in capsys.readouterr().out
        assert not (tmp_path / "flight").exists() and not (tmp_path / "hb.jsonl").exists()

    def test_replay_flags_non_reproducing_bundle(self, tmp_path, capsys):
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="fine", scenario=TINY)
        path = journal.record_failure(
            request, "ValueError: it was transient after all",
            [{"attempt": 1, "reason": "ValueError: transient", "wall_s": 0.1,
              "timeout_s": None}],
        )
        code = cli_main(["replay", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "did NOT reproduce" in out

    def test_replay_rejects_non_bundle_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"kind": "result"}))
        with pytest.raises(ValueError, match="not a replay bundle"):
            load_replay_bundle(path)

    def test_success_supersedes_stale_bundle(self, tmp_path):
        journal = RunJournal(tmp_path / "j")
        request = RunRequest(key="flappy", scenario=TINY)
        journal.record_failure(request, "timeout after 0.1s",
                               [{"attempt": 1, "reason": "timeout after 0.1s",
                                 "wall_s": 0.1, "timeout_s": 0.1}])
        assert journal.bundle_path(request).exists()
        results = execute_runs([request], workers=1, journal=journal)
        assert "flappy" in results
        assert not journal.bundle_path(request).exists()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliJournal:
    RUN_ARGS = [
        "run", "--scheme", "dibs", "--qps", "80", "--duration-s", "0.03",
        "--drain-s", "0.3", "--incast-degree", "6", "--no-background",
    ]

    def test_resume_requires_journal_dir(self):
        with pytest.raises(SystemExit):
            cli_main(self.RUN_ARGS + ["--resume"])

    def test_run_journals_then_resumes(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "j")
        assert cli_main(self.RUN_ARGS + ["--journal-dir", journal_dir]) == 0
        first = capsys.readouterr().out
        assert cli_main(self.RUN_ARGS + ["--journal-dir", journal_dir, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 resumed" in second
        # The scenario table itself is identical; only the journal footer differs.
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_exit_interrupted_constant(self):
        assert EXIT_INTERRUPTED == 130


# ----------------------------------------------------------------------
# event-queue pressure guard
# ----------------------------------------------------------------------
class TestResourceGuard:
    def test_scheduler_guard_raises_with_diagnostics(self):
        sched = Scheduler(max_pending_events=10)
        for _ in range(10):
            sched.schedule(0.001, lambda: None)
        with pytest.raises(ResourceError, match="10 pending events"):
            sched.schedule(0.001, lambda: None)

    def test_guard_disabled_with_zero(self):
        sched = Scheduler(max_pending_events=0)
        assert sched.max_pending_events is None
        for _ in range(100):
            sched.schedule(0.001, lambda: None)

    def test_scenario_wires_guard_and_abort_is_not_retried(self, tmp_path):
        runaway = TINY.with_overrides(max_pending_events=50, name="runaway")
        journal = RunJournal(tmp_path / "j")
        telemetry = RunTelemetry()
        results = execute_runs([RunRequest(key="r", scenario=runaway)], workers=1,
                               max_retries=3, telemetry=telemetry, journal=journal)
        assert results == {}
        assert telemetry.runs_failed == 1
        assert telemetry.retries == 0  # deterministic abort: never retried
        (failure,) = telemetry.failures
        assert failure.reason.startswith("ResourceError")
        bundle = load_replay_bundle(failure.bundle)
        assert bundle["expect_exception"] == "ResourceError"

    def test_scenario_rejects_negative_guard(self):
        with pytest.raises(ValueError, match="max pending events"):
            Scenario(max_pending_events=-1).validate()


# ----------------------------------------------------------------------
# execution claims (concurrent writers sharing a journal directory)
# ----------------------------------------------------------------------
class TestExecutionClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        assert journal.try_claim(request)
        assert not journal.try_claim(request)  # held (by us, but held)
        assert journal.claim_count() == 1
        journal.release_claim(request)
        assert journal.claim_count() == 0
        assert journal.try_claim(request)

    def test_release_is_idempotent(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        journal.release_claim(request)  # nothing to release: no error
        assert journal.try_claim(request)
        journal.release_claim(request)
        journal.release_claim(request)

    def test_dead_owner_claim_is_taken_over(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        # Forge a claim owned by a pid that cannot exist anymore.
        journal.claim_path(request).write_text(
            json.dumps({"pid": 2 ** 22 + 1, "time": time.time(), "key": "c"}))
        assert journal.try_claim(request)  # stale: owner is dead

    def test_expired_claim_is_taken_over(self, tmp_path):
        journal = RunJournal(tmp_path, claim_ttl_s=0.01)
        request = RunRequest(key="c", scenario=TINY)
        journal.claim_path(request).write_text(
            json.dumps({"pid": os.getpid(), "time": time.time() - 60, "key": "c"}))
        assert journal.try_claim(request)  # stale: older than the TTL

    def test_torn_claim_falls_back_to_mtime(self, tmp_path):
        journal = RunJournal(tmp_path, claim_ttl_s=3600)
        request = RunRequest(key="c", scenario=TINY)
        journal.claim_path(request).write_text("{not json")
        # Fresh mtime: not stale, claim denied.
        assert not journal.try_claim(request)

    def test_stale_takeover_leaves_no_droppings(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        journal.claim_path(request).write_text(
            json.dumps({"pid": 2 ** 22 + 1, "time": time.time(), "key": "c"}))
        assert journal.try_claim(request)
        # Exactly our fresh claim remains: no renamed-aside temp files.
        assert journal.claim_count() == 1
        assert [p.name for p in tmp_path.iterdir()] == [
            journal.claim_path(request).name]

    def test_stale_takeover_never_removes_a_racing_fresh_claim(
            self, tmp_path, monkeypatch):
        """Two contenders judge the same claim stale; the winner replaces
        it with a fresh claim before the loser removes it.  The loser's
        compare-and-rename must notice the content changed, restore the
        fresh claim intact, and back off."""
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        path = journal.claim_path(request)
        path.write_text(
            json.dumps({"pid": 2 ** 22 + 1, "time": time.time(), "key": "c"}))
        fresh = json.dumps(
            {"pid": os.getpid(), "time": time.time(), "key": "winner"})
        real_rename = os.rename
        def winner_races_in(src, dst):
            # The takeover winner lands its fresh claim between the
            # loser's staleness read and the loser's rename-aside.
            if Path(src) == path:
                path.write_text(fresh)
            real_rename(src, dst)
        monkeypatch.setattr(os, "rename", winner_races_in)
        assert not journal.try_claim(request)  # loser backs off
        assert path.read_text() == fresh  # winner's claim survived intact
        assert journal.claim_count() == 1

    def test_record_success_releases_the_claim(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=TINY)
        assert journal.try_claim(request)
        result = execute_runs([request], workers=1)["c"]
        journal.record_success(request, result)
        assert journal.claim_count() == 0
        assert journal.lookup(request) is not None

    def test_record_failure_releases_the_claim(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="c", scenario=RAISING)
        assert journal.try_claim(request)
        journal.record_failure(request, "ValueError: nope",
                               [{"attempt": 1, "reason": "ValueError: nope"}])
        assert journal.claim_count() == 0

    @pytest.mark.parametrize("cells", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_concurrent_resumers_execute_each_cell_exactly_once(self, tmp_path, workers, cells):
        """Two resume-mode executors sharing a journal: the claim file makes
        one execute each cell while the other parks it, moves on to the next
        cell, and later resumes the journaled entry."""
        journal_dir = tmp_path / "shared"
        requests = [RunRequest(key=("cell", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(cells)]
        telemetries = [RunTelemetry(), RunTelemetry()]
        threads = [
            threading.Thread(
                target=execute_runs,
                args=(requests,),
                kwargs=dict(workers=workers, journal=RunJournal(journal_dir),
                            resume=True, telemetry=telemetries[i]),
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        # Both completed every cell; exactly one of them actually ran each.
        assert all(t.runs_completed == cells for t in telemetries)
        assert sum(t.cells_resumed for t in telemetries) == cells
        assert sum(t.cells_journaled for t in telemetries) == cells
        assert RunJournal(journal_dir).claim_count() == 0
        _assert_journal_clean(journal_dir)


def _settle_failing_cell(driver, scenario, journal, max_retries):
    """Settle one always-failing cell through ``driver``.

    Returns ``(key, bundle, retries)``: the key the driver retried under,
    the replay bundle it wrote, and its retry count.
    """
    if driver == "server":
        sched = JobScheduler(JobStore(), journal=journal, workers=2,
                             max_retries=max_retries).start()
        try:
            job = sched.submit("t", 0, scenario).job
            assert sched.wait_idle(60)
        finally:
            sched.drain(timeout_s=10)
        assert job.state == "failed"
        assert len(job.attempts) == job.attempt
        return job.id, load_replay_bundle(job.bundle), sched.retries
    telemetry = RunTelemetry()
    results = execute_runs([RunRequest(key="cell", scenario=scenario)],
                           workers=1 if driver == "serial" else 2,
                           max_retries=max_retries, telemetry=telemetry,
                           journal=journal, resume=True)
    assert results == {}
    assert telemetry.runs_failed == 1
    (failure,) = telemetry.failures
    assert failure.attempts == len(load_replay_bundle(failure.bundle)["attempts"])
    return "cell", load_replay_bundle(failure.bundle), telemetry.retries


class TestOnePolicyThreeDrivers:
    """Serial, pooled, and server executors share one settlement policy."""

    @pytest.mark.parametrize(
        "scenario, max_retries, expect_attempts",
        [(RAISING, 2, 3),  # transient by policy: retried to the budget
         (TINY.with_overrides(max_pending_events=50, name="runaway"), 3, 1)],
        ids=["raising", "runaway"],
    )
    @pytest.mark.parametrize("driver", ["serial", "workers2", "server"])
    def test_failing_cell_settles_the_same_in_every_driver(
            self, tmp_path, monkeypatch, driver, scenario, max_retries, expect_attempts):
        monkeypatch.setattr(settle_mod, "_BACKOFF_BASE_S", 0.01)
        with pytest.raises(Exception) as raised:
            run_scenario(scenario)
        reason = f"{raised.type.__name__}: {raised.value}"
        journal = RunJournal(tmp_path / "j")
        key, bundle, retries = _settle_failing_cell(driver, scenario, journal, max_retries)
        attempts = bundle["attempts"]
        assert [a["attempt"] for a in attempts] == list(range(1, expect_attempts + 1))
        assert [a["reason"] for a in attempts] == [reason] * expect_attempts
        assert retries == expect_attempts - 1
        # Every attempt but the last waited the policy's backoff.
        assert [a.get("backoff_s") for a in attempts[:-1]] == [
            settle_mod._backoff_delay(key, n) for n in range(1, expect_attempts)]
        assert "backoff_s" not in attempts[-1]
        assert bundle["expect_exception"] == raised.type.__name__
        assert journal.claim_count() == 0


class TestBundleBounds:
    def test_failures_dir_keeps_newest_n_per_class(self, tmp_path):
        journal = RunJournal(tmp_path, max_bundles_per_class=2)
        for seed in range(5):
            request = RunRequest(key=f"r{seed}",
                                 scenario=RAISING.with_overrides(seed=seed))
            journal.record_failure(request, "ValueError: nope",
                                   [{"attempt": 1, "reason": "ValueError: nope"}])
            time.sleep(0.02)  # distinct mtimes so "newest" is well defined
        bundles = list(journal.iter_bundles())
        assert len(bundles) == 2
        seeds = sorted(b["seed"] for b in bundles)
        assert seeds == [3, 4]  # the two newest survived

    def test_pruning_is_per_class(self, tmp_path):
        journal = RunJournal(tmp_path, max_bundles_per_class=1)
        other = RAISING.with_overrides(name="other-class")
        for seed in range(3):
            journal.record_failure(
                RunRequest(key=f"a{seed}", scenario=RAISING.with_overrides(seed=seed)),
                "ValueError: nope", [])
            journal.record_failure(
                RunRequest(key=f"b{seed}", scenario=other.with_overrides(seed=seed)),
                "ValueError: nope", [])
            time.sleep(0.02)
        classes = [b["scenario_class"] for b in journal.iter_bundles()]
        assert sorted(classes) == ["other-class:does-not-exist",
                                   "raising:does-not-exist"]

    def test_journal_stats_counts_everything(self, tmp_path):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="ok", scenario=TINY)
        result = execute_runs([request], workers=1)["ok"]
        journal.record_success(request, result)
        journal.record_failure(RunRequest(key="bad", scenario=RAISING),
                               "ValueError: nope", [])
        journal.try_claim(RunRequest(key="held", scenario=SLOW))
        assert journal.stats() == {"entries": 1, "failure_bundles": 1, "claims": 1}
