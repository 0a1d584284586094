"""Parallel sweep executor: equivalence, fallback, crash/timeout containment,
and the lifecycle of the pool's long-lived workers."""

import multiprocessing
import os
import queue
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.parallel import (
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

    def test_timed_out_worker_dies_of_sigterm_and_posts_nothing(self):
        # The executor forks workers while SIGTERM raises KeyboardInterrupt
        # in this process; a worker must not inherit that handler, or
        # terminate() becomes a caught exception and a stale error message.
        pool = WorkerPool(1)
        try:
            with _interrupt_on_sigterm():
                settled, _ = _run_on_pool(pool, [RunRequest(key="slow", scenario=SLOW)],
                                          timeout_s=0.3)
            (settlement,) = settled.values()
            assert settlement.status == "timeout"
            assert settlement.exitcode == -signal.SIGTERM
            with pytest.raises(queue.Empty):
                pool._out_queue.get(timeout=1.0)
        finally:
            pool.shutdown()

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
