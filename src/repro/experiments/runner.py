"""Run scenarios and collect the paper's metrics."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence, Union

from repro.experiments.scenarios import Scenario
from repro.faults.guards import InvariantChecker
from repro.faults.injector import install_faults
from repro.faults.watchdog import Watchdog
from repro.metrics.stats import percentile
from repro.sim.engine import SimulationError
from repro.workload.background import BackgroundTraffic, DiurnalBackgroundTraffic
from repro.workload.distributions import web_search_background
from repro.workload.query import QueryTraffic

__all__ = [
    "ExperimentResult",
    "RunOptions",
    "run_scenario",
    "run_pooled",
    "merge_results",
    "result_to_dict",
    "result_from_dict",
    "canonical_payload",
    "fingerprint",
    "UNMEASURED_FIELDS",
]


@dataclass(frozen=True)
class RunOptions:
    """How a run is watched, as opposed to what it simulates (:class:`Scenario`).

    None of these perturbs the event calendar: identical seeds give
    bit-identical metrics with them on or off (``wall_seconds`` and the
    profile payload excepted), so none is part of a run's journal key
    (:func:`repro.experiments.journal.scenario_hash`).  In a path,
    ``"{seed}"`` expands to the run's seed and ``"{cell}"`` to the first
    12 hex digits of the run's journal key, which differ between the
    cells of a sweep and are the same when ``--resume`` reruns one.
    """

    profile: bool = False  # per-category scheduler profiling
    heartbeat_interval_s: float = 0.0  # 0 disables the progress heartbeat
    heartbeat_path: Optional[str] = None  # None = stderr
    trace_file: Optional[str] = None  # structured JSONL trace
    trace_occupancy_interval_s: float = 0.0  # 0 = no occupancy sampling
    span_sample_rate: float = 0.0  # share of (flow, seq) keys traced hop by hop
    flight_recorder_dir: Optional[str] = None  # anomaly dump bundles; None = off

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s < 0:
            raise ValueError("heartbeat interval cannot be negative (0 disables)")
        if self.trace_occupancy_interval_s < 0:
            raise ValueError("trace occupancy interval cannot be negative (0 disables)")
        if self.trace_occupancy_interval_s > 0 and not self.trace_file:
            raise ValueError("trace occupancy sampling requires a trace_file")
        if not (0.0 <= self.span_sample_rate <= 1.0):
            raise ValueError("span sample rate must be in [0, 1] (0 disables)")

    def check_seeds(self, seeds: Sequence[int]) -> None:
        """Refuse to run several seeds into one trace file: it is opened
        for writing, so only the last seed's trace would survive (and under
        ``--workers`` two seeds would write it at once).  ``{cell}`` also
        tells seeds apart (the seed is part of the journal key)."""
        path = self.trace_file
        if path and "{seed}" not in path and "{cell}" not in path and len(set(seeds)) > 1:
            raise ValueError(f"trace file {path!r} would keep only the last of "
                             f"{len(set(seeds))} seeds; put '{{seed}}' in its path")

    def check_cells(self, cells: int) -> None:
        """Refuse to run several grid cells into one output path: the cells
        of a sweep share their seeds, so ``{seed}`` cannot tell them apart
        and each cell would overwrite the last one's output."""
        paths = (self.trace_file, self.heartbeat_path, self.flight_recorder_dir)
        shared = [path for path in paths if path and "{cell}" not in path]
        if cells > 1 and shared:
            raise ValueError(f"output path {shared[0]!r} would be shared by {cells} "
                             f"grid cells; put '{{cell}}' in its path")


NO_OPTIONS = RunOptions()


@dataclass
class ExperimentResult:
    """Everything the benches report for one scenario run."""

    scenario: Scenario
    qct_values: list[float] = field(default_factory=list)
    bg_fct_short_values: list[float] = field(default_factory=list)
    bg_fct_large_values: list[float] = field(default_factory=list)
    bg_large_total: int = 0
    bg_large_completed: int = 0
    queries_started: int = 0
    queries_completed: int = 0
    bg_flows_started: int = 0
    flows_completed: int = 0
    flows_total: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    detours: int = 0
    ecn_marks: int = 0
    timeouts: int = 0
    retransmits: int = 0
    events: int = 0
    wall_seconds: float = 0.0
    # Wall time spent inside the event loop alone (``network.run``),
    # excluding network construction and metrics extraction.  Nothing in
    # the package reads it; it stays because every journal entry and
    # ``result.json`` carries it.
    run_loop_seconds: float = 0.0
    # Fault-injection accounting (all zero/empty for fault-free runs).
    faults_applied: dict[str, int] = field(default_factory=dict)
    fault_packets_killed: int = 0
    invariant_checks: int = 0
    # Runtime-controller accounting (repro.control): cumulative counters
    # from RuntimeController.stats_dict() — ticks, retunes, breaker trips /
    # re-arms, degraded ticks.  Empty for uncontrolled runs; merged per-key
    # like ``drops`` when pooling (gauges deliberately stay out, they make
    # no sense summed across seeds).
    controller_stats: dict[str, int] = field(default_factory=dict)
    # Observability (repro.obs): the per-category scheduler profile payload
    # (None unless options.profile), and the run's live MetricsCollector.
    # The collector is a convenience handle for exporters — it never
    # crosses a process boundary (result_to_dict drops it) and is absent
    # from merged results.
    profile: Optional[dict] = None
    collector: Optional[object] = field(default=None, repr=False, compare=False)
    # Hook-driven goodput/utilization series (repro.metrics.timeseries);
    # None unless scenario.timeseries_interval_s > 0.  Merged results hold
    # {"per_seed": {...}} since per-seed series cannot be meaningfully
    # summed.
    timeseries: Optional[dict] = None
    # Finished span records (repro.obs.spans); None unless
    # options.span_sample_rate > 0.  In-memory only, like the collector:
    # result_to_dict drops them (workers persist spans via the per-seed
    # trace file instead).
    span_records: Optional[list] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def qct_p99_ms(self) -> Optional[float]:
        if not self.qct_values:
            return None
        return percentile(self.qct_values, 99) * 1e3

    @property
    def qct_p50_ms(self) -> Optional[float]:
        if not self.qct_values:
            return None
        return percentile(self.qct_values, 50) * 1e3

    @property
    def bg_fct_p99_ms(self) -> Optional[float]:
        if not self.bg_fct_short_values:
            return None
        return percentile(self.bg_fct_short_values, 99) * 1e3

    @property
    def bg_fct_large_p99_ms(self) -> Optional[float]:
        """99th-pct FCT of large (>=100 KB) background flows — the metric
        pFabric's strict priority scheduling hurts (Fig. 16a)."""
        if not self.bg_fct_large_values:
            return None
        return percentile(self.bg_fct_large_values, 99) * 1e3

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    @property
    def fingerprint(self) -> str:
        """SHA-256 of what this run measured (see :func:`fingerprint`)."""
        return fingerprint(self)

    def row(self) -> dict[str, object]:
        """Flat summary row for report tables."""

        def fmt(value: Optional[float]) -> str:
            return f"{value:.2f}" if value is not None else "-"

        return {
            "scenario": self.scenario.name,
            "scheme": self.scenario.scheme,
            "qct_p99_ms": fmt(self.qct_p99_ms),
            "bg_fct_p99_ms": fmt(self.bg_fct_p99_ms),
            "queries": f"{self.queries_completed}/{self.queries_started}",
            "drops": self.total_drops,
            "detours": self.detours,
            "timeouts": self.timeouts,
        }


def _recover_spans(options: RunOptions, scenario: Scenario, seeds) -> Optional[list]:
    """Reload sampled spans from per-seed trace files.

    Results that crossed a process boundary (``--workers``, journal
    resume) drop their in-memory span records; when the run also routed
    spans through a ``trace_file``, reading the per-seed files back in
    seed order reproduces the serial merge bit-identically.  Returns
    ``None`` when spans weren't sampled, weren't persisted, or any
    per-seed file is missing (a partial recovery would silently
    misattribute, so none is returned at all).
    """
    if options.span_sample_rate <= 0 or not options.trace_file:
        return None
    from repro.obs.trace import read_trace

    records: list = []
    for seed in seeds:
        path = _expand_path(options.trace_file, scenario.with_overrides(seed=seed))
        try:
            records.extend(read_trace(path, kind="span"))
        except FileNotFoundError:
            return None
    return records


def _expand_path(path: Optional[str], scenario: Scenario) -> Optional[str]:
    """Expand ``{seed}`` and ``{cell}`` (see :class:`RunOptions`) in one
    run's heartbeat, trace or flight-recorder path."""
    if path is None:
        return None
    if "{cell}" in path:
        from repro.experiments.journal import scenario_hash

        path = path.replace("{cell}", scenario_hash(scenario)[:12])
    return path.replace("{seed}", str(scenario.seed))


def attach_instruments(network, scenario: Scenario, options: RunOptions, transport):
    """Attach the instruments ``options``, ``scenario.controller`` and
    ``scenario.timeseries_interval_s`` ask for.

    Returns ``(instruments, flight)``: the instruments in attach order —
    profiler, tracer, flight recorder, timeseries, spans, controller,
    heartbeat — and the flight recorder (or ``None``), which the guards
    and the abort path also dump into.  Each instrument has ``finish()``,
    which :func:`run_scenario` calls in reverse attach order even when the
    run aborts, and ``contribute(result)``.  None schedules a simulator
    event; only the controller (an experiment knob) changes what is measured.
    """
    seed, label = scenario.seed, scenario.name
    instruments: list = []
    if options.profile:
        from repro.obs.profiler import SchedulerProfiler

        instruments.append(SchedulerProfiler().install(network.scheduler))
    tracer = flight = controller = None
    if options.trace_file:
        from repro.obs.trace import TraceWriter

        tracer = TraceWriter(_expand_path(options.trace_file, scenario), label=label, seed=seed,
                             occupancy_interval_s=options.trace_occupancy_interval_s)
        instruments.append(tracer.attach(network))
    if options.flight_recorder_dir:
        from repro.obs.forensics import FlightRecorder

        flight = FlightRecorder(network, _expand_path(options.flight_recorder_dir, scenario),
                                label=label, seed=seed)
        instruments.append(flight.install())
    if scenario.timeseries_interval_s > 0:
        from repro.metrics.timeseries import TimeseriesRecorder

        instruments.append(TimeseriesRecorder(
            network, scenario.timeseries_interval_s, collector=network.collector).install())
    if options.span_sample_rate > 0:  # finishes before the tracer it flushes through
        from repro.obs.spans import SpanRecorder

        instruments.append(SpanRecorder(network, options.span_sample_rate, seed=seed,
                                        tracer=tracer, flight=flight).attach())
    if scenario.controller:
        from repro.control import ControllerSpec, RuntimeController

        controller = RuntimeController(
            network, spec=ControllerSpec.from_json_text(scenario.controller_spec),
            transport=transport)
        controller.recorder = flight
        instruments.append(controller.install())
    if options.heartbeat_interval_s > 0:
        from repro.obs.heartbeat import HeartbeatWriter, SimHeartbeat

        writer = HeartbeatWriter(_expand_path(options.heartbeat_path, scenario))
        instruments.append(SimHeartbeat(
            writer, options.heartbeat_interval_s, label=label, seed=seed,
            controller=controller).install(network.scheduler))
    return instruments, flight


def run_scenario(scenario: Scenario, options: RunOptions = NO_OPTIONS) -> ExperimentResult:
    """Build the network, attach workloads, run to drain, return metrics.

    Workload arrivals stop at ``scenario.duration_s``; the simulator then
    keeps running for up to ``scenario.drain_s`` more simulated seconds so
    in-flight queries can finish (the paper reports completion times of
    *completed* queries; we additionally report how many never finished).
    ``options`` says how the run is watched (see :class:`RunOptions`).
    """
    started = time.perf_counter()
    network = scenario.build_network()
    transport = scenario.transport_config()
    injector = install_faults(network, scenario)
    instruments, flight = attach_instruments(network, scenario, options, transport)
    if scenario.watchdog:
        # A packet legitimately traverses at most its initial TTL switch
        # hops; a healthy margin on top keeps the guard from ever firing on
        # a correct run while still bounding detour loops.
        Watchdog(
            network.scheduler, max_hops=scenario.ttl + 16, recorder=flight
        ).install(network)
    checker = None
    if scenario.invariant_check_interval_s > 0:
        checker = InvariantChecker(
            network,
            scenario.invariant_check_interval_s,
            stop_at=scenario.duration_s + scenario.drain_s,
            recorder=flight,
        ).start()
    background, query = _start_workloads(network, scenario, transport)

    run_started = time.perf_counter()
    try:
        try:
            network.run(until=scenario.duration_s + scenario.drain_s)
        except SimulationError as exc:
            # Anomaly sources that cannot reach the flight recorder
            # themselves (e.g. the switch hop guard raising LivelockError
            # mid-pipeline) still get a dump; sources that already dumped
            # (watchdog, invariant checker) are covered by the dedup below.
            if flight is not None and not flight.dumps:
                flight.dump("abort-" + type(exc).__name__, str(exc))
            raise
        run_elapsed = time.perf_counter() - run_started
    finally:
        # Flush instrumentation even when a guard aborts the run: a partial
        # trace/heartbeat tail is exactly what a failure post-mortem needs.
        for instrument in reversed(instruments):
            instrument.finish()
    if checker is not None:
        # Final sweep at quiescence, so a violation in the last partial
        # interval cannot slip through.
        checker.check_now()

    result = _measure(network, scenario, background, query)
    result.wall_seconds = time.perf_counter() - started
    result.run_loop_seconds = run_elapsed
    if injector is not None:
        result.faults_applied = dict(injector.applied)
        result.fault_packets_killed = injector.packets_killed
    if checker is not None:
        result.invariant_checks = checker.checks_run
    for instrument in instruments:
        instrument.contribute(result)
    return result


def _start_workloads(network, scenario: Scenario, transport):
    """Start the background and query generators the scenario enables;
    returns ``(background, query)``, each ``None`` when disabled."""
    background = None
    if scenario.bg_enabled:
        common = dict(interarrival_s=scenario.bg_interarrival_s,
                      size_dist=web_search_background(), transport=transport,
                      stop_at=scenario.duration_s)
        if scenario.bg_diurnal_period_s > 0:
            background = DiurnalBackgroundTraffic(
                network, period_s=scenario.bg_diurnal_period_s,
                amplitude=scenario.bg_diurnal_amplitude, **common)
        else:
            background = BackgroundTraffic(network, **common)
        background.start()
    query = None
    if scenario.query_enabled:
        query = QueryTraffic(
            network,
            qps=scenario.qps,
            degree=scenario.incast_degree,
            response_bytes=scenario.response_bytes,
            transport=transport,
            stop_at=scenario.duration_s,
        )
        query.start()
    return background, query


def _measure(network, scenario: Scenario, background, query) -> ExperimentResult:
    """The paper's metrics from a finished run's collector and counters."""
    collector = network.collector
    result = ExperimentResult(scenario=scenario)
    result.qct_values = collector.qct_values()
    result.bg_fct_short_values = collector.fct_values(kind="background", min_size=1_000, max_size=10_000)
    result.bg_fct_large_values = collector.fct_values(kind="background", min_size=100_000)
    large = [f for f in collector.flows if f.kind == "background" and f.size >= 100_000]
    result.bg_large_total = len(large)
    result.bg_large_completed = sum(1 for f in large if f.completed)
    result.queries_started = query.queries_started if query else 0
    result.queries_completed = sum(1 for q in collector.queries if q.completed)
    result.bg_flows_started = background.flows_started if background else 0
    result.flows_total = len(collector.flows)
    result.flows_completed = sum(1 for f in collector.flows if f.completed)
    snapshot = network.counters()
    result.drops = snapshot.drop_report()
    result.detours = snapshot.total_detours()
    result.ecn_marks = snapshot.total_ecn_marks()
    result.timeouts = sum(f.timeouts for f in collector.flows)
    result.retransmits = sum(f.retransmits for f in collector.flows)
    result.events = network.scheduler.events_processed
    result.collector = collector
    return result


# Scalar counters summed when pooling seeds.  Kept in one place so the
# serial and parallel mergers cannot drift apart.
_SUM_FIELDS = (
    "bg_large_total",
    "bg_large_completed",
    "queries_started",
    "queries_completed",
    "bg_flows_started",
    "flows_completed",
    "flows_total",
    "detours",
    "ecn_marks",
    "timeouts",
    "retransmits",
    "events",
    "wall_seconds",
    "run_loop_seconds",
    "fault_packets_killed",
    "invariant_checks",
)

_SAMPLE_FIELDS = ("qct_values", "bg_fct_short_values", "bg_fct_large_values")


def merge_results(scenario: Scenario, results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Pool per-seed results into a *fresh* :class:`ExperimentResult`.

    Samples concatenate in the order given (callers pass seed order, which
    makes pooled percentiles deterministic regardless of which process or
    worker produced each piece); counters are summed.  The inputs are not
    mutated, so per-seed results stay usable by callers, and the merged
    result carries ``scenario`` — the base point, without any per-seed
    overrides.
    """
    if not results:
        raise ValueError("need at least one result to merge")
    merged = ExperimentResult(scenario=scenario)
    for result in results:
        for name in _SAMPLE_FIELDS:
            getattr(merged, name).extend(getattr(result, name))
        for key, value in result.drops.items():
            merged.drops[key] = merged.drops.get(key, 0) + value
        for key, value in result.faults_applied.items():
            merged.faults_applied[key] = merged.faults_applied.get(key, 0) + value
        for key, value in result.controller_stats.items():
            merged.controller_stats[key] = merged.controller_stats.get(key, 0) + value
        for name in _SUM_FIELDS:
            setattr(merged, name, getattr(merged, name) + getattr(result, name))
    from repro.obs.profiler import merge_profiles

    merged.profile = merge_profiles(result.profile for result in results)
    if all(result.collector is not None for result in results):
        # Serial pools keep their live collectors; expose one pooled view so
        # exporters (write_artifacts) can dump per-flow/per-query records
        # for the merged result too.  Results that crossed a process
        # boundary arrive collector-less and the merged view stays None.
        from repro.metrics.collector import MetricsCollector

        pooled = MetricsCollector()
        for result in results:
            pooled.flows.extend(result.collector.flows)
            pooled.queries.extend(result.collector.queries)
            pooled.fault_events.extend(result.collector.fault_events)
        merged.collector = pooled
    if all(result.span_records is not None for result in results):
        # Concatenate in the given (seed) order — span records carry their
        # seed, so attribution stays per-(seed, flow) and deterministic.
        merged.span_records = [
            record for result in results for record in result.span_records
        ]
    ts_results = [result for result in results if result.timeseries is not None]
    if ts_results:
        if len(results) == 1:
            merged.timeseries = dict(results[0].timeseries)
        else:
            merged.timeseries = {
                "per_seed": {
                    str(result.scenario.seed): result.timeseries
                    for result in ts_results
                }
            }
    return merged


def result_to_dict(result: ExperimentResult, include_scenario: bool = True) -> dict:
    """Flatten a result into plain builtins for a process boundary.

    The parallel executor ships results back from workers as dicts so the
    protocol stays identical under ``fork`` and ``spawn`` start methods.
    """
    payload = {
        f.name: getattr(result, f.name)
        for f in fields(ExperimentResult)
        # The collector holds live simulation objects and span records can
        # be bulky; both stay behind (workers persist spans through the
        # per-seed trace file when one is configured).
        if f.name not in ("scenario", "collector", "span_records")
    }
    payload["drops"] = dict(result.drops)
    payload["faults_applied"] = dict(result.faults_applied)
    payload["controller_stats"] = dict(result.controller_stats)
    for name in _SAMPLE_FIELDS:
        payload[name] = list(payload[name])
    if include_scenario:
        payload["scenario"] = asdict(result.scenario)
    return payload


# The fields a run's fingerprint leaves out.  ``scenario`` is the input,
# not the output; the collector and span records are in-memory handles
# that never reach a payload; the wall times and the scheduler profile
# (itself wall time) say how long the run took, not what it measured.
UNMEASURED_FIELDS = ("scenario", "collector", "span_records",
                     "wall_seconds", "run_loop_seconds", "profile")


def canonical_payload(result: Union[ExperimentResult, dict]) -> dict:
    """Everything a run measured, as plain builtins.

    This is the one definition of "the same run": serial and
    ``--workers``, calendar and heap, elision on and off, fresh and
    ``--resume`` must all agree on it.  ``result`` is an
    :class:`ExperimentResult` or a :func:`result_to_dict` payload (with
    or without its scenario), so journal entries and job results need no
    rehydration.  ``timeseries`` stays in: it is simulated behaviour, and
    a run that records it differs from one that does not.
    """
    if not isinstance(result, dict):
        result = result_to_dict(result, include_scenario=False)
    return {name: value for name, value in result.items()
            if name not in UNMEASURED_FIELDS}


def fingerprint(result: Union[ExperimentResult, dict]) -> str:
    """SHA-256 hex digest of :func:`canonical_payload` as sorted-key JSON."""
    text = json.dumps(canonical_payload(result), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def result_from_dict(payload: dict, scenario: Optional[Scenario] = None) -> ExperimentResult:
    """Rehydrate :func:`result_to_dict` output.

    ``scenario`` overrides any serialized scenario (the executor reattaches
    the original object it already holds rather than trusting the wire).
    """
    data = dict(payload)
    serialized = data.pop("scenario", None)
    if scenario is None:
        if serialized is None:
            raise ValueError("payload carries no scenario and none was given")
        scenario = Scenario(**serialized)
    return ExperimentResult(scenario=scenario, **data)


def run_pooled(
    scenario: Scenario,
    seeds=(0,),
    workers: int = 1,
    run_timeout_s: Optional[float] = None,
    max_retries: int = 1,
    telemetry=None,
    journal=None,
    resume: bool = False,
    heartbeat=None,
    options: RunOptions = NO_OPTIONS,
) -> ExperimentResult:
    """Run the scenario once per seed and pool the samples.

    Tail percentiles (the paper's 99th) are noisy on short scaled runs;
    pooling QCT/FCT samples over independent seeds recovers a stable tail
    without simulating paper-length runs.  Counters are summed.

    With ``workers > 1`` the per-seed runs execute in parallel worker
    processes (see :mod:`repro.experiments.parallel`); the merged result is
    identical to the serial one for the same seeds.

    Passing a :class:`~repro.experiments.parallel.RunTelemetry` routes even
    the ``workers == 1`` case through the failure-containing executor:
    per-seed failures (including watchdog/invariant aborts) are recorded
    in the telemetry and only pool-wide failure raises.  The same applies
    to ``journal`` (a :class:`~repro.experiments.journal.RunJournal`):
    per-seed results are checkpointed, and ``resume=True`` reloads
    journaled seeds instead of re-running them.

    ``heartbeat`` (an :class:`repro.obs.heartbeat.ExecutorHeartbeat`)
    emits periodic JSONL progress records while the pool executes;
    ``options`` (:class:`RunOptions`) says how each seed's run is watched.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    options.check_seeds(seeds)
    if workers > 1 or telemetry is not None or journal is not None or heartbeat is not None:
        # Failure-contained: seeds that fail permanently are dropped from
        # the pool (and recorded in telemetry); only losing every seed raises.
        from repro.experiments.parallel import RunTelemetry, run_grid

        if telemetry is None:
            telemetry = RunTelemetry()
        merged = run_grid({"pooled": scenario}, seeds=seeds, workers=workers,
                          timeout_s=run_timeout_s, max_retries=max_retries,
                          telemetry=telemetry, journal=journal, resume=resume,
                          heartbeat=heartbeat, options=options).get("pooled")
        if merged is None:
            if telemetry.interrupted:
                raise RuntimeError(f"interrupted before any seed of {scenario.name!r} completed")
            reasons = "; ".join(f.reason for f in telemetry.failures) or "unknown"
            raise RuntimeError(f"every seed run failed for {scenario.name!r}: {reasons}")
        if merged.span_records is None:
            merged.span_records = _recover_spans(options, scenario, seeds)
        return merged
    results = [
        run_scenario(scenario.with_overrides(seed=seed), options)
        for seed in seeds
    ]
    return merge_results(scenario, results)
