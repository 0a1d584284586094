"""Parallel sweep executor: equivalence, fallback, crash/timeout containment,
and the lifecycle of the pool's long-lived workers."""

import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import struct
import subprocess
import sys
import time

import pytest

from repro.experiments.journal import RunJournal
from repro.experiments.parallel import (
    InlinePool,
    RunRequest,
    RunTelemetry,
    WorkerPool,
    _interrupt_on_sigterm,
    execute_runs,
    run_grid,
)
from repro.experiments.runner import canonical_payload, run_pooled, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS
from repro.experiments.sweep import sweep
from repro.metrics.stats import percentile

TINY_OVERRIDES = dict(name="tiny-parallel", duration_s=0.03, drain_s=0.3, qps=100.0,
                      incast_degree=6, bg_enabled=False)
TINY = SCALED_DEFAULTS.with_overrides(**TINY_OVERRIDES)

# A scenario whose worker raises immediately: validate() rejects the scheme
# inside build_network, in the child process.
RAISING = TINY.with_overrides(scheme="does-not-exist", name="raising")

# A scenario that cannot finish within a tight timeout: 5 simulated seconds
# of incast takes far longer than the 0.2 s wall-clock budget below.
SLOW = TINY.with_overrides(duration_s=5.0, drain_s=1.0, name="slow")


class TestSerialParallelEquivalence:
    def test_run_pooled_workers_match_serial(self):
        serial = run_pooled(TINY, seeds=(0, 1))
        parallel = run_pooled(TINY, seeds=(0, 1), workers=2)
        assert canonical_payload(serial) == canonical_payload(parallel)
        # Pooled percentiles are bit-identical, not merely close.
        assert percentile(serial.qct_values, 99) == percentile(parallel.qct_values, 99)
        assert parallel.scenario == TINY

    def test_sweep_workers_match_serial(self):
        kwargs = dict(parameter="buffer_pkts", values=(10, 30), schemes=("dibs",), seeds=(0, 1))
        serial = sweep(TINY, **kwargs, workers=1)
        parallel = sweep(TINY, **kwargs, workers=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert canonical_payload(serial[key]) == canonical_payload(parallel[key]), key

    def test_merge_order_is_seed_order_not_completion_order(self):
        pooled = run_pooled(TINY, seeds=(1, 0), workers=2)
        a = run_pooled(TINY, seeds=(1,))
        assert pooled.qct_values[: len(a.qct_values)] == a.qct_values


class TestDegradation:
    def test_workers_one_runs_serially(self):
        telemetry = RunTelemetry()
        results = execute_runs(
            [RunRequest(key="only", scenario=TINY)], workers=1, telemetry=telemetry,
        )
        assert telemetry.mode == "serial"
        assert telemetry.workers == 1
        assert telemetry.runs_completed == 1
        assert results["only"].queries_started > 0

    def test_telemetry_accounts_for_every_run(self):
        telemetry = RunTelemetry()
        progress_events = []
        results = run_grid(
            {"a": TINY, "b": TINY.with_overrides(buffer_pkts=10)},
            seeds=(0, 1),
            workers=2,
            telemetry=telemetry,
            progress=progress_events.append,
        )
        assert set(results) == {"a", "b"}
        assert telemetry.runs_total == 4
        assert telemetry.runs_completed == 4
        assert telemetry.runs_failed == 0
        assert telemetry.events_total > 0
        assert telemetry.events_per_second > 0
        assert len(telemetry.per_run_wall) == 4
        assert [e.status for e in progress_events] == ["ok"] * 4
        assert {e.completed for e in progress_events} == {1, 2, 3, 4}


class TestFailureContainment:
    def test_raising_worker_is_retried_then_reported(self):
        telemetry = RunTelemetry()
        results = execute_runs(
            [RunRequest(key="bad", scenario=RAISING), RunRequest(key="good", scenario=TINY)],
            workers=2,
            max_retries=1,
            telemetry=telemetry,
        )
        # The sweep survives: the healthy run completes, the raising one is
        # retried once and then reported instead of propagating.
        assert "good" in results
        assert "bad" not in results
        assert telemetry.retries == 1
        assert telemetry.runs_failed == 1
        (failure,) = telemetry.failures
        assert failure.key == "bad"
        assert failure.attempts == 2
        assert "ValueError" in failure.reason

    def test_raising_worker_serial_path_also_contained(self):
        telemetry = RunTelemetry()
        results = execute_runs(
            [RunRequest(key="bad", scenario=RAISING)],
            workers=1,
            max_retries=0,
            telemetry=telemetry,
        )
        assert results == {}
        assert telemetry.runs_failed == 1
        assert "ValueError" in telemetry.failures[0].reason

    def test_timed_out_worker_is_killed_and_reported(self):
        telemetry = RunTelemetry()
        results = execute_runs(
            [RunRequest(key="slow", scenario=SLOW)],
            workers=2,
            timeout_s=0.2,
            max_retries=0,
            telemetry=telemetry,
        )
        assert results == {}
        assert telemetry.runs_failed == 1
        assert "timeout" in telemetry.failures[0].reason

    def test_failed_cell_pools_surviving_seeds(self):
        # Seed runs share a cell; one raising cell must not poison another.
        telemetry = RunTelemetry()
        results = run_grid(
            {"ok": TINY, "broken": RAISING},
            seeds=(0,),
            workers=2,
            max_retries=0,
            telemetry=telemetry,
        )
        assert set(results) == {"ok"}
        assert telemetry.runs_failed == 1

    def test_all_seeds_failing_raises_for_run_pooled(self):
        with pytest.raises(RuntimeError, match="every seed run failed"):
            run_pooled(RAISING, seeds=(0,), workers=2, max_retries=0)


def _run_on_pool(pool, requests, timeout_s=None):
    """Launch ``requests`` in order as slots free up; return the settlements
    by key and ``(key, pid)`` for every launch, in launch order."""
    todo = list(requests)
    settled, served = {}, []
    while todo or pool.active:
        while todo and pool.has_slot:
            request = todo.pop(0)
            launch_id = pool.launch(request, timeout_s=timeout_s)
            served.append((request.key, pool.pid_of(launch_id)))
        for settlement in pool.poll(block_s=0.05):
            settled[settlement.request.key] = settlement
    return settled, served


def _wait_reaped(pid, timeout_s=10.0):
    """Wait until ``pid`` is no longer a live child (``active_children``
    reaps it, so the pool then sees it as dead)."""
    deadline = time.monotonic() + timeout_s
    while pid in {child.pid for child in multiprocessing.active_children()}:
        assert time.monotonic() < deadline, f"worker {pid} never died"
        time.sleep(0.01)


def _alive(pid):
    """Whether ``pid`` runs (a zombie left for a non-reaping init counts as dead)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerLifecycle:
    @pytest.mark.parametrize("raising_at", [None, 3], ids=["all-ok", "raising-in-middle"])
    def test_six_cells_share_two_workers_and_match_serial(self, raising_at):
        scenarios = [TINY.with_overrides(seed=seed) for seed in range(6)]
        if raising_at is not None:
            scenarios[raising_at] = RAISING
        requests = [RunRequest(key=i, scenario=s) for i, s in enumerate(scenarios)]
        pool = WorkerPool(2)
        try:
            settled, served = _run_on_pool(pool, requests)
        finally:
            pool.shutdown()
        # Two workers serve all six cells; a raising cell's worker is the
        # only one replaced.
        replaced = 0 if raising_at is None else 1
        assert len({pid for _key, pid in served}) <= 2 + replaced
        assert len(served) == 6
        for index, scenario in enumerate(scenarios):
            settlement = settled[index]
            if index == raising_at:
                assert settlement.status == "error"
                assert "ValueError" in settlement.reason
                continue
            assert settlement.status == "ok", settlement.reason
            assert canonical_payload(settlement.result) == canonical_payload(
                run_scenario(scenario)), index

    def test_raising_cells_worker_never_serves_again(self):
        requests = [RunRequest(key="first", scenario=TINY),
                    RunRequest(key="bad", scenario=RAISING)]
        requests += [RunRequest(key=seed, scenario=TINY.with_overrides(seed=seed))
                     for seed in range(1, 5)]
        pool = WorkerPool(2)
        try:
            settled, served = _run_on_pool(pool, requests)
            assert settled["bad"].status == "error"
            bad_pid = dict(served)["bad"]
            assert [key for key, pid in served if pid == bad_pid] == ["bad"]
            # Retired with its sentinel and joined: no longer a child.
            assert bad_pid not in {child.pid for child in multiprocessing.active_children()}
        finally:
            pool.shutdown()

    def test_timed_out_launch_gets_a_fresh_worker(self):
        pool = WorkerPool(1)
        try:
            _, first = _run_on_pool(pool, [RunRequest(key="warm", scenario=TINY)])
            settled, slow = _run_on_pool(pool, [RunRequest(key="slow", scenario=SLOW)],
                                         timeout_s=0.3)
            assert settled["slow"].status == "timeout"
            settled, after = _run_on_pool(pool, [RunRequest(key="next", scenario=TINY)])
            assert settled["next"].status == "ok"
        finally:
            pool.shutdown()
        assert slow[0][1] == first[0][1]  # the idle worker was reused...
        assert after[0][1] != slow[0][1]  # ...and replaced after the timeout

    def test_timed_out_worker_dies_of_sigterm_and_posts_nothing(self, monkeypatch):
        # The executor forks workers while SIGTERM raises KeyboardInterrupt
        # in this process; a worker must not inherit that handler, or
        # terminate() becomes a caught exception and a stale error message.
        posted = []
        reap = WorkerPool._reap

        def read_then_reap(worker, join_timeout_s=5.0):
            worker.proc.join(join_timeout_s)
            try:  # the worker's pipe: end of file unless it answered
                posted.append(worker.conn.recv())
            except EOFError:
                pass
            reap(worker, join_timeout_s)

        monkeypatch.setattr(WorkerPool, "_reap", staticmethod(read_then_reap))
        pool = WorkerPool(1)
        try:
            with _interrupt_on_sigterm():
                settled, _ = _run_on_pool(pool, [RunRequest(key="slow", scenario=SLOW)],
                                          timeout_s=0.3)
            (settlement,) = settled.values()
            assert settlement.status == "timeout"
            assert settlement.exitcode == -signal.SIGTERM
            assert posted == []
        finally:
            pool.shutdown()

    def test_worker_dying_mid_answer_loses_only_its_own_launch(self, monkeypatch):
        # Launch 0's worker writes half of its answer's frame and exits;
        # each worker answers on its own pipe, so launch 1's answer still
        # arrives and the pool keeps serving.
        send = multiprocessing.connection.Connection.send

        def send_half_then_die(conn, obj):
            if isinstance(obj, tuple) and len(obj) == 3 and obj[0] == 0:
                data = pickle.dumps(obj)
                os.write(conn.fileno(), struct.pack("!i", len(data)) + data[:len(data) // 2])
                os._exit(1)
            send(conn, obj)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", send_half_then_die)
        requests = [RunRequest(key=seed, scenario=TINY.with_overrides(seed=seed))
                    for seed in range(3)]
        pool = WorkerPool(2)
        try:
            settled, _ = _run_on_pool(pool, requests)
        finally:
            pool.shutdown()
        assert settled[0].status == "crash"
        assert settled[0].exitcode == 1
        for seed in (1, 2):
            assert settled[seed].status == "ok", settled[seed].reason
            assert canonical_payload(settled[seed].result) == canonical_payload(
                run_scenario(requests[seed].scenario))

    def test_idle_worker_killed_is_replaced_without_a_settlement(self):
        pool = WorkerPool(1)
        try:
            _, first = _run_on_pool(pool, [RunRequest(key="a", scenario=TINY)])
            idle_pid = first[0][1]
            os.kill(idle_pid, signal.SIGKILL)
            _wait_reaped(idle_pid)
            assert pool.poll(block_s=0.3) == []  # nothing was running: no settlement
            settled, after = _run_on_pool(
                pool, [RunRequest(key="b", scenario=TINY.with_overrides(seed=1))])
        finally:
            pool.shutdown()
        assert settled["b"].status == "ok"
        assert settled["b"].attempt == 1
        assert after[0][1] != idle_pid

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
    def test_idle_worker_exits_when_its_parent_dies(self, tmp_path):
        # A parent killed outright cannot send the sentinel; its idle
        # worker must notice on its own instead of waiting forever.
        script = (
            "import os, signal\n"
            "from repro.experiments.parallel import RunRequest, WorkerPool\n"
            "from repro.experiments.scenarios import SCALED_DEFAULTS\n"
            "pool = WorkerPool(1)\n"
            f"scenario = SCALED_DEFAULTS.with_overrides(**{TINY_OVERRIDES!r})\n"
            "launch_id = pool.launch(RunRequest(key='a', scenario=scenario))\n"
            "print(pool.pid_of(launch_id), flush=True)\n"
            "while not pool.poll(block_s=0.05):\n"
            "    pass\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = tmp_path / "worker.pid"
        with open(out, "w") as stdout:  # a file: the orphan must not hold our pipe
            parent = subprocess.run([sys.executable, "-c", script], env=env, stdout=stdout,
                                    stderr=subprocess.DEVNULL, timeout=60)
        assert parent.returncode == -signal.SIGKILL
        worker_pid = int(out.read_text().split()[0])
        deadline = time.monotonic() + 10
        while _alive(worker_pid):
            assert time.monotonic() < deadline, f"orphaned worker {worker_pid} still running"
            time.sleep(0.05)

    def test_shutdown_stops_idle_and_busy_workers(self):
        pool = WorkerPool(2)
        _run_on_pool(pool, [RunRequest(key=seed, scenario=TINY.with_overrides(seed=seed))
                            for seed in range(2)])
        pool.launch(RunRequest(key="slow", scenario=SLOW))
        assert pool.active == 1  # one busy worker, one idle
        assert len(multiprocessing.active_children()) == 2
        pool.shutdown()
        assert multiprocessing.active_children() == []


class TestLaunchBeforeJournal:
    """A poll's freed slots are refilled before its settlements are
    journaled, so finished workers do not wait on the journal writes."""

    CELLS = {f"b{b}": TINY.with_overrides(buffer_pkts=b) for b in range(10, 16)}

    @staticmethod
    def _entries(directory):
        return {entry["_path"].rsplit("/", 1)[1]: entry["fingerprint"]
                for entry in RunJournal(directory).iter_entries()}

    def test_third_cell_launches_before_first_entry_is_written(self, tmp_path, monkeypatch):
        events = []
        launch, record = WorkerPool.launch, RunJournal.record_success

        def logged_launch(pool, request, *args, **kwargs):
            events.append(("launch", request.key))
            return launch(pool, request, *args, **kwargs)

        def slow_record(journal, request, *args, **kwargs):
            time.sleep(0.05)
            events.append(("entry", request.key))
            return record(journal, request, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "launch", logged_launch)
        monkeypatch.setattr(RunJournal, "record_success", slow_record)
        parallel = run_grid(self.CELLS, workers=2, journal=RunJournal(tmp_path / "parallel"))
        launches = [i for i, (kind, _key) in enumerate(events) if kind == "launch"]
        entries = [i for i, (kind, _key) in enumerate(events) if kind == "entry"]
        assert len(launches) == len(entries) == 6
        assert launches[2] < entries[0]

        serial = run_grid(self.CELLS, workers=1, journal=RunJournal(tmp_path / "serial"))
        assert parallel.keys() == serial.keys() == self.CELLS.keys()
        for key in serial:
            assert canonical_payload(parallel[key]) == canonical_payload(serial[key]), key
        assert self._entries(tmp_path / "parallel") == self._entries(tmp_path / "serial")

    @pytest.mark.parametrize("workers, pool_class", [(1, InlinePool), (2, WorkerPool)],
                             ids=["serial", "workers-2"])
    def test_interrupt_in_the_launch_pass_journals_taken_settlements(
            self, tmp_path, monkeypatch, workers, pool_class):
        launch = pool_class.launch
        calls = {"n": 0}

        def interrupted_launch(pool, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > workers:  # the first relaunch after a poll
                raise KeyboardInterrupt
            return launch(pool, *args, **kwargs)

        monkeypatch.setattr(pool_class, "launch", interrupted_launch)
        journal = RunJournal(tmp_path / "j")
        telemetry = RunTelemetry()
        requests = [RunRequest(key=("c", s), scenario=TINY.with_overrides(seed=s))
                    for s in range(4)]
        results = execute_runs(requests, workers=workers, telemetry=telemetry,
                               journal=journal)
        assert telemetry.interrupted
        assert len(results) >= 1
        assert journal.completed_count() == len(results)


class TestPercentileRegression:
    def test_hypothesis_counterexample_stays_in_bracket(self):
        # The exact falsifying example hypothesis found on the seed:
        # interpolating between two equal denormals rounds the result just
        # above max(values).
        values = [-1.0] * 5 + [-6.125288476333144e-234] * 2
        for p in (0, 25, 50, 75, 99, 100):
            result = percentile(values, p)
            assert min(values) <= result <= max(values)
        assert percentile(values, 99) == -6.125288476333144e-234
