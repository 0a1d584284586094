"""Observability overhead benchmark — proving off-mode is free.

Not a paper figure: guards the repro.obs bargain.  Three claims are
measured (and, with ``--check``, enforced):

1. **Off-mode is free.**  The current plain run loop is compared against
   an in-repo replica of the pre-observability loop (binary heap, same
   Event objects, no hook/settle support) on a no-op event calendar.
   The replica runs on `_HeapCalendar`, a minimal heapq calendar defined
   here (events ordered by ``(time, seq)`` with a Python comparison, as
   the engine's heap once was), because the default engine has no heap
   at all (it is a calendar queue; see `repro.sim.engine`).  Gate:
   slowdown <= 2%.  Since the calendar
   engine is *faster* than the heap replica, the gate now passes with
   margin; it remains in place to catch an obs feature re-introducing
   per-event cost.
2. **Profiled mode is cheap.**  The same calendar with the default
   (sampled) `SchedulerProfiler` installed versus without.  Gate:
   slowdown <= 8%.  The default profiler reads the clock once per
   ~16-31 event window (see `repro.obs.profiler`), so the per-event cost
   is a local countdown decrement; `sample_stride=1` (exact per-event
   timing) is reported ungated for contrast.
3. **Metrics are bit-identical either way.**  One scenario is run with
   every obs feature on (profile + heartbeat + trace + occupancy
   sampling + spans + timeseries + flight recorder) and with everything
   off; every metric except wall time and the instrumentation payloads
   must match byte for byte.  (The scenario objects themselves
   legitimately differ — the obs knobs — so the comparison covers the
   metrics payload, not the scenario echo.)
4. **Span sampling is cheap.**  The incast packet pipeline with a
   `SpanRecorder` at the default 1/64 rate versus the same pipeline
   without one; a spans-off A/A arm measures the pipeline noise floor
   (spans off *is* the plain pipeline: every per-packet check is a
   `pkt.span is not None` slot test that exists either way).  Gate:
   sampled slowdown <= 5% plus the observed noise floor.

Both gates run on the controlled calendar, not on a full experiment,
deliberately: an A/A test (two identical arms) of `run_scenario` wall
time on a shared CI box shows several percent of spread — more than the
budgets being enforced — while the calendar arms, interleaved with GC
parked, reproduce far more tightly.  A full incast pipeline and a full
experiment are still timed and reported as *ungated* context rows.
Per-arm minima are compared (see `_interleaved_best`): preemption and
allocator noise only ever add time, so the minimum is the least-biased
estimate of true cost.  The calendar set carries its own A/A arm as a
noise meter — when even two identical arms disagree beyond
`AA_TOLERANCE`, the run reports the ratios but refuses to turn them
into a CI verdict.

Usage::

    python benchmarks/bench_obs_overhead.py [--rounds N] [--check]

``--check`` exits non-zero when a gate fails (the CI smoke leg); it
prints the table without rewriting ``benchmarks/results/bench_obs_overhead.txt``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import DibsConfig
from repro.experiments.report import format_table
from repro.experiments.runner import RunOptions, canonical_payload, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS
from repro.net.network import Network, SwitchQueueConfig
from repro.obs.profiler import SchedulerProfiler
from repro.sim.engine import Event, Scheduler
from repro.topo import fat_tree

import common

# Short samples on purpose: contention bursts on a shared box last tens
# of milliseconds, so a ~35ms sample either dodges a burst entirely or is
# discarded by the best-of reduction — where a 100ms+ sample would smear
# the burst into every measurement.
RAW_EVENTS = 20_000

# Gates (fractional slowdown of the best-of-N calendar time): the
# off-mode loop versus the pre-observability replica, and the sampled
# profiled loop versus the off-mode one.  The profiled budget was 5%
# when the off-mode loop ran on a binary heap; the calendar engine cut
# the off-mode per-event cost, so the *same absolute* per-event profiler
# cost (a countdown decrement, ~16-31 events per clock read) is now a
# larger fraction of the denominator.  Budget restated against the
# faster loop; the absolute cost is unchanged and still gated.
OFF_MODE_BUDGET = 0.02
PROFILED_BUDGET = 0.08
# Sampled span tracing (default 1/64 rate) on the incast pipeline.
SPANS_BUDGET = 0.05

# Maximum spread tolerated between the two identical "obs off" arms
# before the gates are declared unenforceable on this machine: if two
# A/A arms disagree by more than this, a few-percent gate verdict would
# be weather, not signal.
AA_TOLERANCE = 0.015

DETERMINISM_SCENARIO = SCALED_DEFAULTS.with_overrides(
    name="obs-overhead", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)

# Ungated context row: a real experiment (incast plus the workload and
# metrics layers run_scenario brings in) with and without --profile.
EXPERIMENT_SCENARIO = SCALED_DEFAULTS.with_overrides(
    name="obs-profiled-context", duration_s=0.08, drain_s=0.3, qps=150.0,
    incast_degree=8, bg_enabled=False,
)


def _noop():
    pass


# ----------------------------------------------------------------------
# arm 0: the pre-observability run loop, replicated on a heap calendar
# ----------------------------------------------------------------------
class _HeapEvent(Event):
    """An engine event ordered by ``(time, seq)`` for heapq, with the
    pure-Python comparison the heap engine's events had."""

    __slots__ = ()

    def __lt__(self, other: "_HeapEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _HeapCalendar:
    """Just enough of a heapq scheduler for the replica loop below."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._events_processed = 0

    def schedule_at(self, time: float, fn, *args) -> _HeapEvent:
        ev = _HeapEvent(time, self._seq, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev


def _legacy_run(sched: _HeapCalendar, until=None, max_events=None) -> int:
    """The run loop as it was before hooks/profiling/settling existed,
    operating on a heap calendar (the default engine is now a calendar
    queue with no ``_heap``).  This is the in-repo baseline the
    off-mode gate compares against — measured fresh on the same machine
    and Python, so the comparison survives hardware changes where a
    stored number would not."""
    processed = 0
    heap = sched._heap
    while heap:
        ev = heap[0]
        if until is not None and ev.time > until:
            break
        heapq.heappop(heap)
        if ev.cancelled:
            continue
        sched.now = ev.time
        ev.fn(*ev.args)
        processed += 1
        sched._events_processed += 1
        if max_events is not None and processed >= max_events:
            break
    return processed


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _raw_calendar(run_loop, make_profiler=None, make_sched=Scheduler) -> float:
    """Seconds to drain RAW_EVENTS no-op events (GC parked while timing:
    collection pauses land on whichever arm happens to cross a threshold,
    which is exactly the kind of noise a 2% gate cannot absorb)."""
    sched = make_sched()
    if make_profiler is not None:
        make_profiler().install(sched)
    for i in range(RAW_EVENTS):
        sched.schedule_at(i * 1e-6, _noop)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        processed = run_loop(sched)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    assert processed == RAW_EVENTS
    return elapsed


def _experiment(profiled: bool) -> float:
    """Seconds to run a full experiment, optionally profiled.

    Timed end to end (build + run + aggregation), which is the wall time
    a user actually pays for turning ``--profile`` on.
    """
    options = RunOptions(profile=profiled)
    started = time.perf_counter()
    run_scenario(EXPERIMENT_SCENARIO, options)
    return time.perf_counter() - started


def _pipeline(profiled: bool = False, span_rate: float = 0.0) -> float:
    """Seconds to run the bare incast packet pipeline, optionally profiled
    or with sampled span tracing attached."""
    net = Network(
        fat_tree(k=4),
        switch_queues=SwitchQueueConfig(buffer_pkts=30, ecn_threshold_pkts=8),
        dibs=DibsConfig(),
        seed=1,
    )
    if profiled:
        SchedulerProfiler().install(net.scheduler)
    spans = None
    if span_rate > 0:
        from repro.obs.spans import SpanRecorder

        spans = SpanRecorder(net, span_rate, seed=1).attach()
    flows = [
        net.start_flow(f"host_{i}", "host_0", 30_000, transport="dibs", kind="query")
        for i in range(1, 13)
    ]
    started = time.perf_counter()
    net.run(until=2.0)
    elapsed = time.perf_counter() - started
    assert all(f.completed for f in flows)
    if spans is not None:
        spans.finish()
        assert spans.records  # the sampled arm must actually sample
    return elapsed


def _interleaved_best(arms: dict, rounds: int, shuffle: bool = False) -> dict:
    """Run every arm once per round (round-robin) and return each arm's
    *minimum* time.  Noise (scheduler preemption, other tenants) only ever
    adds time, so the minimum is the least-biased estimate of an arm's
    true cost — medians still wobble by several percent on a shared box,
    which is more than the gates budget for.  ``shuffle`` randomizes the
    within-round order (seeded, reproducible) so interference that is
    periodic at round granularity cannot bias one arm systematically."""
    rng = random.Random(0x0B5C0DE)
    names = list(arms)
    samples = {name: [] for name in arms}
    for name, fn in arms.items():  # one untimed warmup pass per arm
        fn()
    for _ in range(rounds):
        if shuffle:
            rng.shuffle(names)
        for name in names:
            samples[name].append(arms[name]())
    return {name: min(times) for name, times in samples.items()}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def _determinism_identical() -> bool:
    with tempfile.TemporaryDirectory(prefix="obs-overhead-") as tmp:
        tmp = Path(tmp)
        instrumented = RunOptions(
            profile=True,
            heartbeat_interval_s=0.001,
            heartbeat_path=str(tmp / "hb.jsonl"),
            trace_file=str(tmp / "run.trace.jsonl"),
            trace_occupancy_interval_s=0.002,
            span_sample_rate=0.25,
            flight_recorder_dir=str(tmp / "flight"),
        )
        on = run_scenario(DETERMINISM_SCENARIO.with_overrides(timeseries_interval_s=0.002),
                          instrumented)
        on.timeseries = None  # the recorded series is the one thing this arm adds
        off = run_scenario(DETERMINISM_SCENARIO)
        return canonical_payload(on) == canonical_payload(off)


# ----------------------------------------------------------------------
def run(full: bool = False, rounds: int = 5) -> tuple[str, list[str]]:
    """Return the report text and a list of gate failures (empty = pass)."""
    raw_arms = {
        "legacy loop (pre-obs replica)": _raw_calendar_legacy,
        "current loop, obs off": _raw_calendar_current,
        # Identical to the arm above: the spread between the two is the
        # measurement noise floor, and the gates are only enforced when
        # that floor is well under the budgets being checked.
        "current loop, obs off (A/A)": _raw_calendar_current,
        "current loop, profiled": lambda: _raw_calendar(
            lambda sched: sched.run(), SchedulerProfiler),
        "current loop, profiled exact": lambda: _raw_calendar(
            lambda sched: sched.run(),
            lambda: SchedulerProfiler(sample_stride=1)),
    }
    def _raw_verdict(measured: dict) -> tuple:
        """(aa_spread, off_ratio, prof_ratio, gates_ok) for a raw set.

        The observed A/A spread is credited against the budgets: a gate
        only fails by a margin the measurement demonstrably can resolve.
        A real regression (e.g. accidentally running the exact loop,
        +30%+) still trips it; arm-level weather does not.
        """
        off_best = min(measured["current loop, obs off"],
                       measured["current loop, obs off (A/A)"])
        aa = abs(measured["current loop, obs off (A/A)"]
                 / measured["current loop, obs off"] - 1.0)
        off_ratio = off_best / measured["legacy loop (pre-obs replica)"]
        prof_ratio = measured["current loop, profiled"] / off_best
        ok = (aa <= AA_TOLERANCE
              and off_ratio <= 1 + OFF_MODE_BUDGET + aa
              and prof_ratio <= 1 + PROFILED_BUDGET + aa)
        return aa, off_ratio, prof_ratio, ok

    # The gated arms get 3x the rounds of the context arms; when the A/A
    # spread or a gate is out of budget the whole set is re-measured and
    # per-arm minima merged (a contention burst only ever inflates
    # samples, so the merged minimum converges on the quiet-machine cost
    # instead of failing CI on a noisy neighbour).
    raw = _interleaved_best(raw_arms, 3 * rounds, shuffle=True)
    for _ in range(2):
        if _raw_verdict(raw)[-1]:
            break
        again = _interleaved_best(raw_arms, 3 * rounds, shuffle=True)
        raw = {name: min(raw[name], again[name]) for name in raw}
    pipe_arms = {
        "pipeline, obs off": lambda: _pipeline(),
        # Identical to the arm above (spans off IS the plain pipeline):
        # the spread between the two is the pipeline noise floor the
        # spans gate credits.
        "pipeline, spans off (A/A)": lambda: _pipeline(),
        "pipeline, spans 1/64": lambda: _pipeline(span_rate=1.0 / 64.0),
        "pipeline, profiled": lambda: _pipeline(profiled=True),
    }

    def _pipe_verdict(measured: dict) -> tuple:
        """(aa_spread, spans_ratio, gate_ok) for a pipeline set."""
        off_best = min(measured["pipeline, obs off"],
                       measured["pipeline, spans off (A/A)"])
        aa = abs(measured["pipeline, spans off (A/A)"]
                 / measured["pipeline, obs off"] - 1.0)
        spans_ratio = measured["pipeline, spans 1/64"] / off_best
        return aa, spans_ratio, spans_ratio <= 1 + SPANS_BUDGET + aa

    pipe = _interleaved_best(pipe_arms, rounds)
    for _ in range(2):
        if _pipe_verdict(pipe)[-1]:
            break
        again = _interleaved_best(pipe_arms, rounds)
        pipe = {name: min(pipe[name], again[name]) for name in pipe}
    experiment = _interleaved_best(
        {
            "experiment, obs off": lambda: _experiment(profiled=False),
            "experiment, profiled": lambda: _experiment(profiled=True),
        },
        rounds,
    )
    identical = _determinism_identical()

    aa_spread, off_ratio, prof_ratio, _ = _raw_verdict(raw)
    # The two A/A arms are the same measurement; their joint minimum is
    # the best off-mode estimate.
    off_best = min(raw["current loop, obs off"],
                   raw["current loop, obs off (A/A)"])
    exact_ratio = raw["current loop, profiled exact"] / off_best
    pipe_aa, spans_ratio, _ = _pipe_verdict(pipe)
    pipe_off_best = min(pipe["pipeline, obs off"],
                        pipe["pipeline, spans off (A/A)"])
    pipe_ratio = pipe["pipeline, profiled"] / pipe_off_best
    exp_ratio = experiment["experiment, profiled"] / experiment["experiment, obs off"]

    rows = [
        {
            "arm": "raw calendar, legacy loop",
            "best_s": f"{raw['legacy loop (pre-obs replica)']:.4f}",
            "events_per_s": f"{RAW_EVENTS / raw['legacy loop (pre-obs replica)']:,.0f}",
            "vs_baseline": "1.000 (baseline)",
        },
        {
            "arm": "raw calendar, obs off",
            "best_s": f"{off_best:.4f}",
            "events_per_s": f"{RAW_EVENTS / off_best:,.0f}",
            "vs_baseline": f"{off_ratio:.3f} (gate <= {1 + OFF_MODE_BUDGET:.2f})",
        },
        {
            "arm": "raw calendar, profiled",
            "best_s": f"{raw['current loop, profiled']:.4f}",
            "events_per_s": f"{RAW_EVENTS / raw['current loop, profiled']:,.0f}",
            "vs_baseline": f"{prof_ratio:.3f} (gate <= {1 + PROFILED_BUDGET:.2f}, vs obs off)",
        },
        {
            "arm": "raw calendar, profiled exact",
            "best_s": f"{raw['current loop, profiled exact']:.4f}",
            "events_per_s": f"{RAW_EVENTS / raw['current loop, profiled exact']:,.0f}",
            "vs_baseline": f"{exact_ratio:.3f} (stride 1, ungated)",
        },
        {
            "arm": "packet pipeline, obs off",
            "best_s": f"{pipe_off_best:.4f}",
            "events_per_s": "-",
            "vs_baseline": "1.000 (baseline)",
        },
        {
            "arm": "packet pipeline, spans 1/64",
            "best_s": f"{pipe['pipeline, spans 1/64']:.4f}",
            "events_per_s": "-",
            "vs_baseline": f"{spans_ratio:.3f} (gate <= {1 + SPANS_BUDGET:.2f})",
        },
        {
            "arm": "packet pipeline, profiled",
            "best_s": f"{pipe['pipeline, profiled']:.4f}",
            "events_per_s": "-",
            "vs_baseline": f"{pipe_ratio:.3f} (context, ungated)",
        },
        {
            "arm": "full experiment, obs off",
            "best_s": f"{experiment['experiment, obs off']:.4f}",
            "events_per_s": "-",
            "vs_baseline": "1.000 (baseline)",
        },
        {
            "arm": "full experiment, profiled",
            "best_s": f"{experiment['experiment, profiled']:.4f}",
            "events_per_s": "-",
            "vs_baseline": f"{exp_ratio:.3f} (context, ungated)",
        },
    ]
    text = format_table(rows, title=f"observability overhead (best of {rounds} interleaved rounds)")
    text += (
        f"\nA/A noise floor (two identical obs-off arms): "
        f"{100 * aa_spread:.2f}% (tolerance {100 * AA_TOLERANCE:.1f}%)"
    )
    text += (
        f"\npipeline A/A noise floor (two identical spans-off arms): "
        f"{100 * pipe_aa:.2f}%"
    )
    text += "\nmetrics bit-identical with all obs on vs off: " + ("yes" if identical else "NO")

    failures = []
    if aa_spread > AA_TOLERANCE:
        # Two identical arms disagree by more than the gates' budgets can
        # absorb: a verdict either way would be noise.  Report loudly but
        # do not fail CI on the weather.
        text += (
            f"\nWARNING: overhead gates not enforced — A/A spread "
            f"{100 * aa_spread:.2f}% exceeds {100 * AA_TOLERANCE:.1f}% "
            f"(machine too noisy for a "
            f"{100 * min(OFF_MODE_BUDGET, PROFILED_BUDGET):.0f}% budget)"
        )
    else:
        # The observed noise floor is credited on top of each budget:
        # a failure must exceed what the measurement can resolve.
        if off_ratio > 1 + OFF_MODE_BUDGET + aa_spread:
            failures.append(
                f"off-mode loop is {100 * (off_ratio - 1):.1f}% slower than the "
                f"pre-obs baseline (budget {100 * OFF_MODE_BUDGET:.0f}% "
                f"+ {100 * aa_spread:.2f}% noise floor)"
            )
        if prof_ratio > 1 + PROFILED_BUDGET + aa_spread:
            failures.append(
                f"sampled profiled loop is {100 * (prof_ratio - 1):.1f}% slower than "
                f"off-mode (budget {100 * PROFILED_BUDGET:.0f}% "
                f"+ {100 * aa_spread:.2f}% noise floor)"
            )
    if spans_ratio > 1 + SPANS_BUDGET + pipe_aa:
        failures.append(
            f"1/64-sampled span tracing is {100 * (spans_ratio - 1):.1f}% slower "
            f"than the spans-off pipeline (budget {100 * SPANS_BUDGET:.0f}% "
            f"+ {100 * pipe_aa:.2f}% noise floor)"
        )
    if not identical:
        failures.append("metrics differ between obs-on and obs-off runs")
    return text, failures


def _raw_calendar_legacy() -> float:
    return _raw_calendar(_legacy_run, make_sched=_HeapCalendar)


def _raw_calendar_current() -> float:
    return _raw_calendar(lambda sched: sched.run())


def main() -> int:
    parser = argparse.ArgumentParser(description="Measure observability overhead")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed rounds per arm (interleaved; median reported)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an overhead gate fails (CI mode); "
                             "print the table without saving it")
    args = parser.parse_args()
    text, failures = run(rounds=args.rounds)
    if not args.check:
        # A gate run prints its table; only a measurement run rewrites
        # the committed benchmarks/results/bench_obs_overhead.txt.
        common.save_table("bench_obs_overhead", text)
    print(text)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
