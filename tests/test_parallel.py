"""Parallel sweep executor: equivalence, fallback, crash/timeout containment."""


import pytest

from repro.experiments.parallel import (
    RunRequest,
    RunTelemetry,
    execute_runs,
    run_grid,
)
from repro.experiments.runner import canonical_payload, run_pooled
from repro.experiments.scenarios import SCALED_DEFAULTS
from repro.experiments.sweep import sweep
from repro.metrics.stats import percentile

TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny-parallel", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)

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
