"""The ``repro serve`` job server: admission, fairness, chaos, drain.

Covers the acceptance criteria of the server PR:

* a 20-job burst with workers SIGKILLed at random still brings every job
  to a terminal state, journaled results are byte-identical to serial
  execution, duplicate submissions never execute twice, and a drain
  leaves zero orphaned processes;
* submissions beyond the admission bound shed deterministically with
  503 + ``Retry-After``; two tenants submitting simultaneously complete
  in DRR-fair interleaved order; a crash-looping scenario class trips its
  circuit breaker (reject-fast with the replay bundle attached) and
  re-arms after the cooldown;
* SIGTERM mid-submission drains cleanly: in-flight runs finish and
  journal, queued jobs spool and replay on restart, exit code 0.
"""

import asyncio
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import RunRequest, Settlement
from repro.experiments.runner import canonical_payload, fingerprint, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS
from repro.experiments.settle import Cell
from repro.server import (
    AdmissionGate,
    ClassBreaker,
    JobScheduler,
    JobStore,
    build_server,
    read_spool,
    retry_after_header,
    scenario_from_submission,
    write_spool,
)

TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny-server", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)

# Aborts deterministically with ResourceError on the first event: the
# cheapest way to manufacture a permanent (non-retryable) failure.
BROKEN = TINY.with_overrides(max_pending_events=1, name="broken-server")


def _scheduler(tmp_path, **kwargs) -> JobScheduler:
    kwargs.setdefault("store", JobStore())
    kwargs.setdefault("journal", RunJournal(tmp_path / "journal"))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("spool_path", tmp_path / "spool.json")
    return JobScheduler(**kwargs)


# ----------------------------------------------------------------------
# admission gate (fake clock: fully deterministic)
# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_burst_then_rate_limit(self):
        clock = [0.0]
        gate = AdmissionGate(rate_per_s=2.0, burst=3, max_queued=100,
                             clock=lambda: clock[0])
        assert [gate.admit(0)[0] for _ in range(3)] == [True, True, True]
        ok, retry_after, reason = gate.admit(0)
        assert not ok and reason == "rate-limited"
        assert retry_after == pytest.approx(0.5)  # one token at 2/s
        clock[0] += 0.5  # the quoted wait is exactly sufficient
        assert gate.admit(0)[0]

    def test_queue_depth_bound_sheds_even_with_tokens(self):
        gate = AdmissionGate(rate_per_s=10.0, burst=10, max_queued=2,
                             clock=lambda: 0.0)
        assert gate.admit(1)[0]
        ok, retry_after, reason = gate.admit(2)
        assert not ok and reason == "queue-full"
        assert retry_after >= 1.0 / 10.0
        assert gate.stats()["shed_depth"] == 1

    def test_retry_after_header_is_integral_and_positive(self):
        assert retry_after_header(0.0) == "1"
        assert retry_after_header(0.2) == "1"
        assert retry_after_header(3.01) == "4"

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError):
            AdmissionGate(rate_per_s=0, burst=1, max_queued=1)
        with pytest.raises(ValueError):
            AdmissionGate(rate_per_s=1, burst=0, max_queued=1)
        with pytest.raises(ValueError):
            AdmissionGate(rate_per_s=1, burst=1, max_queued=0)


class TestClassBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        clock = [0.0]
        breaker = ClassBreaker(fail_threshold=3, cooldown_s=10.0,
                               clock=lambda: clock[0])
        for i in range(2):
            assert not breaker.record_failure("c:x", "boom")
        assert breaker.check("c:x")[0]  # two failures: still closed
        assert breaker.record_failure("c:x", "boom", bundle="/b/3.json")  # trips
        allowed, info = breaker.check("c:x")
        assert not allowed
        assert info["breaker"] == "open"
        assert info["bundle"] == "/b/3.json"
        assert info["retry_after_s"] == pytest.approx(10.0)
        # Cooldown elapses: half-open lets a probe through.
        clock[0] += 10.0
        allowed, info = breaker.check("c:x")
        assert allowed and info["breaker"] == "half-open"
        breaker.record_success("c:x")
        assert breaker.states()["c:x"]["state"] == "closed"
        assert breaker.states()["c:x"]["rearms"] == 1

    def test_half_open_failure_reopens_immediately(self):
        clock = [0.0]
        breaker = ClassBreaker(fail_threshold=1, cooldown_s=5.0,
                               clock=lambda: clock[0])
        breaker.record_failure("c:x", "boom")
        clock[0] += 5.0
        assert breaker.check("c:x")[0]  # half-open probe allowed
        assert breaker.record_failure("c:x", "boom")  # single failure re-opens
        assert not breaker.check("c:x")[0]
        assert breaker.states()["c:x"]["trips"] == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = ClassBreaker(fail_threshold=2, cooldown_s=5.0)
        breaker.record_failure("c:x", "boom")
        breaker.record_success("c:x")
        assert not breaker.record_failure("c:x", "boom")  # count restarted
        assert not breaker.any_open()

    def test_classes_are_independent(self):
        breaker = ClassBreaker(fail_threshold=1, cooldown_s=5.0)
        breaker.record_failure("a:x", "boom")
        assert not breaker.check("a:x")[0]
        assert breaker.check("b:x")[0]


# ----------------------------------------------------------------------
# spool persistence
# ----------------------------------------------------------------------
class TestSpool:
    def test_roundtrip_rehydrates_scenarios(self, tmp_path):
        store = JobStore()
        jobs = [store.create("t", 3, TINY.with_overrides(seed=s)) for s in (0, 1)]
        path = write_spool(tmp_path / "spool.json", jobs)
        records = read_spool(path)
        assert [r["tenant"] for r in records] == ["t", "t"]
        assert [r["priority"] for r in records] == [3, 3]
        assert [r["scenario"].seed for r in records] == [0, 1]
        assert records[0]["scenario"] == TINY  # a real Scenario again

    def test_spool_written_with_run_option_fields_still_loads(self, tmp_path):
        # Spools from before the run options left Scenario carry them.
        store = JobStore()
        path = write_spool(tmp_path / "spool.json", [store.create("t", 0, TINY)])
        payload = json.loads(path.read_text())
        payload["jobs"][0]["scenario"].update(profile=True, trace_file="t.jsonl")
        path.write_text(json.dumps(payload))
        assert [r["scenario"] for r in read_spool(path)] == [TINY]

    def test_torn_or_missing_spool_reads_empty(self, tmp_path):
        assert read_spool(tmp_path / "absent.json") == []
        torn = tmp_path / "torn.json"
        torn.write_text('{"version": 1, "jobs": [{"scenario"')
        assert read_spool(torn) == []

    def test_wrong_version_reads_empty(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 99, "jobs": []}))
        assert read_spool(path) == []


# ----------------------------------------------------------------------
# scheduler submission paths
# ----------------------------------------------------------------------
class TestSubmitPaths:
    def test_run_then_cache_then_active_dedupe(self, tmp_path):
        sched = _scheduler(tmp_path).start()
        try:
            first = sched.submit("a", 0, TINY)
            assert first.status == "queued"
            assert sched.wait_idle(60)
            assert first.job.state == "done" and not first.job.cached
            # Journal hit: same content, no execution.
            again = sched.submit("a", 0, TINY)
            assert again.status == "cached"
            assert again.job.cached and again.job.state == "done"
            # Active dedupe: two quick submissions of a NEW scenario while
            # the first is still queued/running share one execution.
            fresh = TINY.with_overrides(seed=7)
            one = sched.submit("a", 0, fresh)
            two = sched.submit("b", 0, fresh)
            assert one.status == "queued"
            assert two.status == "deduped"
            assert two.job.id == one.job.id
            assert sched.wait_idle(60)
            assert one.job.state == "done"
        finally:
            sched.drain(timeout_s=10)

    def test_shed_when_queue_is_full(self, tmp_path):
        sched = _scheduler(
            tmp_path,
            admission=AdmissionGate(rate_per_s=1000.0, burst=1000, max_queued=1),
        )  # never started: nothing dequeues, so the bound is deterministic
        assert sched.submit("a", 0, TINY).status == "queued"
        shed = sched.submit("a", 0, TINY.with_overrides(seed=1))
        assert shed.status == "shed"
        assert shed.info["reason"] == "queue-full"
        assert shed.retry_after_s > 0

    def test_shed_when_rate_limited(self, tmp_path):
        sched = _scheduler(
            tmp_path,
            admission=AdmissionGate(rate_per_s=0.01, burst=1, max_queued=100),
        )
        assert sched.submit("a", 0, TINY).status == "queued"
        shed = sched.submit("a", 0, TINY.with_overrides(seed=1))
        assert shed.status == "shed"
        assert shed.info["reason"] == "rate-limited"

    def test_cancel_queued_but_not_running(self, tmp_path):
        sched = _scheduler(tmp_path)  # not started: jobs stay queued
        out = sched.submit("a", 0, TINY)
        ok, why = sched.cancel(out.job.id)
        assert ok and out.job.state == "cancelled"
        ok, why = sched.cancel(out.job.id)
        assert not ok and why == "cancelled"
        ok, why = sched.cancel("nope")
        assert not ok and why == "not-found"

    def test_cancel_releases_a_held_journal_claim(self, tmp_path):
        sched = _scheduler(tmp_path)  # not started: the job stays queued
        job = sched.submit("a", 0, TINY).job
        # Simulate a job cancelled out of retry backoff: the claim taken
        # at first launch is held across retries while state is "queued".
        cell = Cell(RunRequest(key=job.id, scenario=job.scenario))
        assert sched.settler.acquire(cell).action == "launch"
        assert job.id in sched.settler.claims
        ok, _ = sched.cancel(job.id)
        assert ok
        assert sched.journal.claim_count() == 0
        assert job.id not in sched.settler.claims
        # A resubmission of the same scenario is admitted afresh instead
        # of parking behind the dead job's claim until the TTL.
        assert sched.submit("a", 0, TINY).status == "queued"

    def test_shed_and_deduped_submissions_leave_no_records(self, tmp_path):
        sched = _scheduler(
            tmp_path,
            admission=AdmissionGate(rate_per_s=1000.0, burst=1000, max_queued=1),
        )  # never started: nothing dequeues
        queued = sched.submit("a", 0, TINY)
        assert queued.status == "queued"
        deduped = sched.submit("b", 0, TINY)
        assert deduped.status == "deduped"
        assert deduped.job.id == queued.job.id
        shed = sched.submit("a", 0, TINY.with_overrides(seed=1))
        assert shed.status == "shed"
        # Only the admitted job exists: rejected submissions retain no
        # probe record, so a shed flood cannot grow the store unboundedly.
        assert sched.store.counts() == {"queued": 1, "total": 1}

    def test_submit_while_draining_is_shed(self, tmp_path):
        sched = _scheduler(tmp_path).start()
        sched.drain(timeout_s=5)
        out = sched.submit("a", 0, TINY)
        assert out.status == "shed"
        assert out.info["reason"] == "draining"


# ----------------------------------------------------------------------
# fairness
# ----------------------------------------------------------------------
class TestFairness:
    def test_two_tenants_interleave_drr(self, tmp_path):
        """Tenant A floods first, B second; with one worker the launch
        order still alternates A,B,A,B,... rather than finishing all of
        A's backlog first."""
        sched = _scheduler(tmp_path, workers=1)
        jobs = {}
        for i in range(3):
            jobs[f"a{i}"] = sched.submit("a", 0, TINY.with_overrides(seed=10 + i)).job
        for i in range(3):
            jobs[f"b{i}"] = sched.submit("b", 0, TINY.with_overrides(seed=20 + i)).job
        sched.start()
        try:
            assert sched.wait_idle(120)
            order = sorted(jobs.values(), key=lambda j: j.started_at)
            tenants = [j.tenant for j in order]
            assert tenants == ["a", "b", "a", "b", "a", "b"]
        finally:
            sched.drain(timeout_s=10)

    def test_priority_orders_within_a_tenant(self, tmp_path):
        sched = _scheduler(tmp_path, workers=1)
        low = sched.submit("a", 0, TINY.with_overrides(seed=30)).job
        high = sched.submit("a", 9, TINY.with_overrides(seed=31)).job
        mid = sched.submit("a", 5, TINY.with_overrides(seed=32)).job
        sched.start()
        try:
            assert sched.wait_idle(120)
            order = sorted([low, high, mid], key=lambda j: j.started_at)
            assert [j.id for j in order] == [high.id, mid.id, low.id]
        finally:
            sched.drain(timeout_s=10)


# ----------------------------------------------------------------------
# circuit breaker, end to end
# ----------------------------------------------------------------------
class TestBreakerEndToEnd:
    def test_crash_looping_class_trips_then_rearms(self, tmp_path):
        sched = _scheduler(
            tmp_path, workers=1,
            breaker=ClassBreaker(fail_threshold=2, cooldown_s=0.5),
        ).start()
        try:
            # Two permanent failures (ResourceError is not retried) trip
            # the class open.
            for seed in (0, 1):
                out = sched.submit("a", 0, BROKEN.with_overrides(seed=seed))
                assert out.status == "queued"
                assert sched.wait_idle(60)
                assert out.job.state == "failed"
                assert out.job.error.startswith("ResourceError")
                assert out.job.bundle is not None
            rejected = sched.submit("a", 0, BROKEN.with_overrides(seed=2))
            assert rejected.status == "breaker-open"
            assert rejected.info["bundle"] is not None  # replay pointer
            assert rejected.retry_after_s > 0
            # After the cooldown the class half-opens; a healthy probe of
            # the same class (same name:scheme) re-arms it.
            time.sleep(0.6)
            probe = sched.submit("a", 0,
                                 TINY.with_overrides(name="broken-server", seed=3))
            assert probe.status == "queued"
            assert sched.wait_idle(60)
            assert probe.job.state == "done"
            states = sched.breaker.states()
            assert states["broken-server:dibs"]["state"] == "closed"
            assert states["broken-server:dibs"]["rearms"] == 1
        finally:
            sched.drain(timeout_s=10)


# ----------------------------------------------------------------------
# chaos: random worker kills during a burst
# ----------------------------------------------------------------------
class TestChaos:
    def test_burst_survives_random_worker_kills(self, tmp_path):
        sched = _scheduler(tmp_path, workers=4, max_retries=10).start()
        rng = random.Random(1234)
        outs = []
        try:
            for seed in range(20):
                out = sched.submit(f"t{seed % 3}", 0, TINY.with_overrides(seed=seed))
                assert out.status == "queued"
                outs.append(out)
            # Duplicates submitted mid-burst must never execute twice.
            dupes = [sched.submit("dup", 0, TINY.with_overrides(seed=s))
                     for s in range(5)]
            assert all(d.status in ("deduped", "cached") for d in dupes)
            # Kill random in-flight workers while the burst runs.
            kills = 0
            deadline = time.monotonic() + 120
            while not sched.idle() and time.monotonic() < deadline:
                pids = sched.running_pids()
                if pids and kills < 8 and rng.random() < 0.4:
                    try:
                        os.kill(rng.choice(pids), signal.SIGKILL)
                        kills += 1
                    except (ProcessLookupError, PermissionError):
                        pass
                time.sleep(0.1)
            assert sched.idle(), "burst did not finish under chaos"
            assert kills > 0, "chaos loop never killed anything"
            # Every job terminal and successful: kills surfaced as crashes
            # and were retried, never leaked as failures.
            for out in outs:
                assert out.job.state == "done", (out.job.id, out.job.error)
            # Crash retries actually happened and were accounted.  Not
            # every kill retries — a SIGKILL can land on a worker that
            # already settled but is not yet reaped — so require at least
            # one rather than kills-1 (flaky under full-suite load).
            assert sched.retries >= 1
            summary = sched.drain(timeout_s=15)
            assert summary["spooled"] == 0
        finally:
            if sched._thread is not None:  # belt and braces on assert failure
                sched.drain(timeout_s=10)
        # Zero orphans after the drain.
        for child in multiprocessing.active_children():
            assert not child.is_alive(), f"orphaned worker {child.pid}"
        # Results are byte-identical to serial execution of the same cells.
        journal = RunJournal(tmp_path / "journal")
        for seed in (0, 7, 19):
            scenario = TINY.with_overrides(seed=seed)
            journaled = journal.lookup(RunRequest(key="x", scenario=scenario))
            assert journaled is not None
            assert canonical_payload(journaled) == canonical_payload(run_scenario(scenario))


# ----------------------------------------------------------------------
# drain + spool replay
# ----------------------------------------------------------------------
class TestDrainAndSpool:
    def test_drain_spools_queued_jobs_and_restart_replays_them(self, tmp_path):
        store = JobStore()
        sched = _scheduler(tmp_path, store=store, workers=1)
        submitted = [sched.submit("a", 0, TINY.with_overrides(seed=40 + i)).job
                     for i in range(4)]
        # Never started: everything is still queued when the drain hits.
        summary = sched.drain(timeout_s=2)
        assert summary["spooled"] == 4
        assert all(job.state == "spooled" for job in submitted)
        spool = tmp_path / "spool.json"
        assert spool.exists()
        assert len(read_spool(spool)) == 4
        # A new incarnation on the same state dir replays and completes.
        sched2 = _scheduler(tmp_path, workers=2).start()
        try:
            assert sched2.spool_replayed == 4
            assert not spool.exists()  # consumed
            assert sched2.wait_idle(120)
            journal = RunJournal(tmp_path / "journal")
            for i in range(4):
                scenario = TINY.with_overrides(seed=40 + i)
                journaled = journal.lookup(RunRequest(key="x", scenario=scenario))
                assert journaled is not None
                assert canonical_payload(journaled) == canonical_payload(run_scenario(scenario))
        finally:
            sched2.drain(timeout_s=10)

    def test_drain_transient_failure_is_spooled_not_lost(self, tmp_path):
        """A transient failure settling mid-drain re-enqueues the job so
        the spool scan finds it: accepted work survives the restart."""
        sched = _scheduler(tmp_path)  # never started: settled by hand
        job = sched.submit("a", 0, TINY).job
        with sched._lock:
            job.state = "running"  # as _launch_locked would leave it
            job.attempt = 1
            cell = Cell(RunRequest(key=job.id, scenario=job.scenario),
                        attempts=job.attempts)
            assert sched.settler.acquire(cell).action == "launch"  # claim held
            sched._running[0] = cell
            sched._tenant_queues["a"].clear()  # the launch consumed the entry
            sched._draining = True
            sched._settle_locked(Settlement(
                launch_id=0,
                request=RunRequest(key=job.id, scenario=job.scenario),
                attempt=1, status="crash", payload=None, wall=0.1,
                timeout_s=None, exitcode=-9))
        assert job.state == "queued"
        assert sched.journal.claim_count() == 0  # released for the next incarnation
        summary = sched.drain(timeout_s=1)
        assert summary["spooled"] == 1
        assert job.state == "spooled"
        assert len(read_spool(tmp_path / "spool.json")) == 1

    def test_drain_without_spool_path_just_marks_jobs(self, tmp_path):
        sched = _scheduler(tmp_path, spool_path=None)
        job = sched.submit("a", 0, TINY).job
        summary = sched.drain(timeout_s=1)
        assert summary["spooled"] == 1
        assert job.state == "spooled"


# ----------------------------------------------------------------------
# HTTP layer (in-process asyncio)
# ----------------------------------------------------------------------
async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob)


class TestHttpApi:
    def _tiny_body(self, **extra):
        scenario = {"name": "tiny-server", "duration_s": 0.03, "drain_s": 0.3,
                    "qps": 100.0, "incast_degree": 6, "bg_enabled": False}
        scenario.update(extra.pop("scenario", {}))
        return {"tenant": "a", "scenario": scenario, **extra}

    def test_submit_poll_cache_and_errors(self, tmp_path):
        async def scenario_flow():
            server = build_server(tmp_path, workers=2, rate_per_s=1000,
                                  burst=100, max_queued=50)
            server.scheduler.start()
            await server.start()
            port = server.bound_port
            try:
                st, _, body = await _http(port, "POST", "/jobs", self._tiny_body())
                assert st == 202 and body["state"] == "queued"
                jid = body["job"]["id"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    st, _, body = await _http(port, "GET", f"/jobs/{jid}")
                    if body["job"]["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert body["job"]["state"] == "done"
                assert body["job"]["result"]["events"] > 0
                # Cache hit on identical content.
                st, _, body = await _http(port, "POST", "/jobs", self._tiny_body())
                assert st == 200 and body["cached"] is True
                # Full result behind /result; its fingerprint is the summary's.
                st, _, body = await _http(port, "GET", f"/jobs/{jid}/result")
                assert st == 200 and "result_full" in body["job"]
                assert body["job"]["result"]["fingerprint"] == fingerprint(
                    body["job"]["result_full"])
                # Listing + counts.
                st, _, body = await _http(port, "GET", "/jobs?tenant=a")
                assert st == 200 and len(body["jobs"]) >= 1
                # Validation errors.
                st, _, body = await _http(
                    port, "POST", "/jobs", self._tiny_body(scenario={"bogus": 1}))
                assert st == 400 and "bogus" in body["error"]
                st, _, body = await _http(
                    port, "POST", "/jobs",
                    self._tiny_body(scenario={"scheme": "not-a-scheme"}))
                assert st == 400
                st, _, body = await _http(port, "GET", "/jobs/zzz")
                assert st == 404
                st, _, body = await _http(port, "PUT", "/jobs")
                assert st == 405
                st, _, body = await _http(port, "GET", "/healthz")
                assert st == 200
                st, _, body = await _http(port, "GET", "/readyz")
                assert st == 200 and body["ready"] is True
            finally:
                await server.stop()
            server.scheduler.drain(timeout_s=10)

        asyncio.run(scenario_flow())

    def test_overload_sheds_with_retry_after(self, tmp_path):
        async def scenario_flow():
            server = build_server(tmp_path, workers=1, rate_per_s=1000,
                                  burst=100, max_queued=1)
            # Scheduler deliberately NOT started: queued jobs stay queued,
            # so the depth bound trips deterministically.
            await server.start()
            port = server.bound_port
            try:
                st, _, _ = await _http(port, "POST", "/jobs", self._tiny_body())
                assert st == 202
                st, headers, body = await _http(
                    port, "POST", "/jobs",
                    self._tiny_body(scenario={"seed": 1}))
                assert st == 503
                assert body["reason"] == "queue-full"
                assert int(headers["retry-after"]) >= 1
            finally:
                await server.stop()

        asyncio.run(scenario_flow())

    def test_run_options_are_refused(self, tmp_path):
        # Output paths are how a run is watched, not part of a scenario: a
        # tenant must not get the server to write files where it names.
        async def scenario_flow():
            server = build_server(tmp_path / "state", workers=1, rate_per_s=1000,
                                  burst=100, max_queued=50)
            server.scheduler.start()
            await server.start()
            port = server.bound_port
            try:
                for field, target in (("trace_file", "t.jsonl"),
                                      ("flight_recorder_dir", "flight"),
                                      ("heartbeat_path", "hb.jsonl")):
                    st, _, body = await _http(port, "POST", "/jobs", self._tiny_body(
                        scenario={field: str(tmp_path / target)}))
                    assert st == 400 and field in body["error"], (field, st, body)
            finally:
                await server.stop()
            server.scheduler.drain(timeout_s=10)

        asyncio.run(scenario_flow())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state"]

    def test_scenario_from_submission_validates(self):
        scenario = scenario_from_submission(
            {"base": "paper", "scenario": {"seed": 3}})
        assert scenario.k == 8 and scenario.seed == 3
        with pytest.raises(ValueError, match="unknown base"):
            scenario_from_submission({"base": "nope"})
        with pytest.raises(ValueError, match="unknown scenario fields"):
            scenario_from_submission({"scenario": {"zap": 1}})
        with pytest.raises(ValueError):
            scenario_from_submission({"scenario": {"duration_s": -1}})


# ----------------------------------------------------------------------
# SIGTERM drain, end to end (subprocess)
# ----------------------------------------------------------------------
def _serve_proc(state_dir, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
         "--port", "0", "--workers", "2", "--rate", "1000", "--burst", "100",
         "--drain-timeout", "30", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    announce = json.loads(proc.stdout.readline())
    return proc, announce


def _post_job(port, seed, duration_s=0.03):
    import urllib.request

    body = json.dumps({
        "tenant": "a",
        "scenario": {"name": "tiny-server", "duration_s": duration_s, "drain_s": 0.3,
                     "qps": 100.0, "incast_degree": 6, "bg_enabled": False,
                     "seed": seed},
    }).encode()
    req = urllib.request.Request(f"http://127.0.0.1:{port}/jobs", data=body,
                                 method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_mid_submission_drains_and_restart_replays(self, tmp_path):
        state = tmp_path / "state"
        proc, announce = _serve_proc(state)
        assert announce["spool_replayed"] == 0
        port = announce["listening"]["port"]
        try:
            # Burst of jobs, then SIGTERM immediately: some in flight, the
            # rest still queued.
            for seed in range(6):
                status, _ = _post_job(port, seed)
                assert status == 202
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        drained = json.loads(out.strip().splitlines()[-1])["drained"]
        journal = RunJournal(state)
        finished = journal.completed_count()
        spool = read_spool(state / "spool.json")
        # Every accepted job is accounted for: journaled or spooled.
        assert finished + len(spool) + drained["spooled"] >= 6
        assert finished + len(spool) <= 6 + 1  # no duplication either
        # Journaled results are byte-identical to an uninterrupted serial
        # run of the same scenario.
        for entry in journal.iter_entries():
            seed = entry["scenario"]["seed"]
            scenario = TINY.with_overrides(seed=seed)
            journaled = journal.lookup(RunRequest(key="x", scenario=scenario))
            assert journaled is not None
            assert canonical_payload(journaled) == canonical_payload(run_scenario(scenario))
        if spool:
            # Restart on the same state dir: the spool replays and the
            # remaining jobs complete.
            proc2, announce2 = _serve_proc(state)
            try:
                assert announce2["spool_replayed"] == len(spool)
                deadline = time.monotonic() + 90
                while time.monotonic() < deadline:
                    if RunJournal(state).completed_count() >= 6:
                        break
                    time.sleep(0.2)
                assert RunJournal(state).completed_count() >= 6
            finally:
                proc2.send_signal(signal.SIGTERM)
                proc2.communicate(timeout=60)
            assert proc2.returncode == 0
            assert not (state / "spool.json").exists()


    def test_run_timeout_fails_the_job_and_keeps_serving(self, tmp_path):
        # Workers are forked after the server turned SIGTERM into a wake-up
        # of its event loop.  A worker that kept that handler answered the
        # timeout's terminate() by waking the server, which then drained.
        import urllib.request

        proc, announce = _serve_proc(tmp_path / "state", "--run-timeout", "0.5",
                                     "--max-retries", "0")
        port = announce["listening"]["port"]
        try:
            status, body = _post_job(port, 0, duration_s=3.0)
            assert status == 202
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/jobs/{body['job']['id']}",
                        timeout=10) as resp:
                    job = json.loads(resp.read())["job"]
                if job["state"] == "failed":
                    break
                time.sleep(0.1)
            assert job["state"] == "failed"
            assert job["error"] == "timeout after 0.5s"
            assert proc.poll() is None, "the server drained on its worker's timeout"
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert json.loads(out.strip().splitlines()[-1])["drained"]["spooled"] == 0


# ----------------------------------------------------------------------
# CLI: repro jobs
# ----------------------------------------------------------------------
class TestJobsCli:
    def test_lists_entries_and_bundles(self, tmp_path, capsys):
        journal = RunJournal(tmp_path)
        request = RunRequest(key="ok", scenario=TINY)
        result = run_scenario(TINY)
        journal.record_success(request, result)
        journal.record_failure(RunRequest(key="bad", scenario=BROKEN),
                               "ResourceError: too many events",
                               [{"attempt": 1, "reason": "ResourceError: x",
                                 "wall_s": 0.1}])
        code = cli_main(["jobs", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tiny-server:dibs" in out
        assert "broken-server:dibs" in out
        assert "ResourceError" in out
        assert result.fingerprint[:12] in out
        assert "1 journaled, 1 failed, 0 claimed" in out

    def test_failures_only_and_missing_dir(self, tmp_path, capsys):
        journal = RunJournal(tmp_path)
        journal.record_success(RunRequest(key="ok", scenario=TINY),
                               run_scenario(TINY))
        code = cli_main(["jobs", str(tmp_path), "--failures"])
        out = capsys.readouterr().out
        assert code == 0
        assert "journaled runs" not in out
        code = cli_main(["jobs", str(tmp_path / "nope")])
        assert code == 1
