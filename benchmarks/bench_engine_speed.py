"""Engine speed benchmark — calendar queue versus the binary heap.

Not a paper figure: records the before/after trajectory of the engine
rewrite (heapq calendar -> bucketed calendar queue + tx-done elision +
hot-path hoists, see `repro.sim.engine` and INTERNALS.md) and guards it
against regression.  Two workloads:

1. **raw event chain** — ``_CHAIN_ACTORS`` self-rescheduling no-op
   timers drained for ``RAW_EVENTS`` events.  This is the steady-state
   regime the calendar queue is designed for (a bounded band of pending
   events marching forward in time — exactly how ports and transports
   schedule), with no packet pipeline on top.  Pure scheduler cost.
2. **fig07 incast (K=8)** — the paper's incast experiment (300 qps of
   40-degree partition/aggregate queries, Table 1/2 operating point) on
   the full K=8 fat-tree, 128 hosts, run end to end through
   ``run_scenario``.  This is the workload the ROADMAP names as the
   binding constraint; events/s here is the number that decides whether
   the suite runs figures at K=4 or K=8.  Paper scale matters for the
   engine comparison: a heap pays O(log n) Python-level comparisons per
   push/pop, so the K=4 cell (a few hundred pending events) understates
   the gap the real pending-set size (thousands) produces, while the
   calendar's bucket math is O(1) at either scale.

Determinism is checked on the *scaled* K=4 fig07 cell (fast enough to
run several times per invocation); ``--full`` extends the same
engine-A/A identity check to the K=8 workload.

The "before" arm is the real before: the seed engine (a binary heap,
every tx-done dispatched) as it stood at the last commit that had it.
``BENCH_engine.json``'s ``before_arm`` names that commit, the
environment that selected the seed engine there, and its scheduler
class.  Each invocation exports that commit's ``src/`` with
``git archive`` into a temporary directory and runs the before arm's
samples on the export; a checkout without that commit (a shallow clone)
fails, naming it, rather than skipping the arm.  Events/s is computed
over *logical* events — dispatched plus elided tx-dones — which both
arms count identically, so the two arms divide the same numerator.

Every timed sample runs in a **fresh subprocess**: repeated runs inside
one interpreter inherit allocator fragmentation and GC pressure from
earlier arms (measurably — tens of percent on this workload), so
in-process interleaving biases whichever arm runs later.  A process per
sample keeps the arms independent; interleaving the arms round-by-round
still cancels slow machine drift; best-of-N discards the one-sided
noise (noise only ever adds time).

Determinism (always checked, and enforced under ``--check``):

* **engine A/A** — the fig07 scenario's canonical metrics (everything
  except wall time and instrumentation payloads) must be byte-identical
  between this tree and the seed engine for the same seed;
* **serial == parallel** — ``run_pooled`` over two seeds with
  ``workers=1`` and ``workers=2`` must pool to byte-identical metrics,
  and both must match the seed engine's serial pooled result.

``--check`` additionally gates speed: the live calendar/heap fig07
events/s *ratio* is compared against the ratio recorded in
``BENCH_engine.json``; the leg fails if the live ratio has lost more
than ``REGRESSION_TOLERANCE`` (20%) of the committed one.  Comparing
ratios rather than absolute events/s keeps the gate meaningful across
machines — absolute throughput is hardware weather, the speedup is the
property this PR claims.  See BENCH_engine.md for methodology.

A ``--check`` run prints its table without rewriting
``benchmarks/results/bench_engine_speed.txt``.

Usage::

    python benchmarks/bench_engine_speed.py [--rounds N] [--full]
    python benchmarks/bench_engine_speed.py --check
    python benchmarks/bench_engine_speed.py --update-baseline
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.report import format_table
from repro.experiments.runner import fingerprint, run_pooled, run_scenario

import common

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "BENCH_engine.json"

RAW_EVENTS = 200_000
_CHAIN_ACTORS = 64

# --check fails when the live calendar/heap fig07 speedup drops below
# (1 - tolerance) times the committed baseline's speedup.
REGRESSION_TOLERANCE = 0.20

# Timed workload: the paper's incast experiment on the full K=8 fat-tree
# (128 hosts) at the Table 1/2 operating point, shortened to smoke length
# — long enough to reach steady state (hundreds of thousands of events),
# short enough that interleaved multi-round sampling stays in seconds.
FIG07_FULL = PAPER_DEFAULTS.with_overrides(
    name="fig07-incast-k8", scheme="dibs", duration_s=0.05, drain_s=0.3,
)

# Determinism workload: the scaled K=4 small-buffer DIBS incast cell (see
# bench_fig07_buffer_sweep) — the same pipeline at a size cheap enough to
# run the A/A and pooled identity checks several times per invocation.
FIG07_CELL = SCALED_DEFAULTS.with_overrides(
    name="fig07-incast", scheme="dibs", buffer_pkts=25, ecn_threshold_pkts=8,
    duration_s=0.2, drain_s=0.5,
)

# The after arm: this tree's engine.
AFTER_SCHEDULER = "repro.sim.engine:Scheduler"


def _before_arm() -> dict:
    """The seed engine's commit, the environment that selected it there,
    and its scheduler class (``module:Class``), from BENCH_engine.json."""
    return json.loads(BASELINE_PATH.read_text())["before_arm"]


def _export_before(into: str) -> str:
    """Export the before arm's commit's ``src/`` under ``into`` with
    ``git archive``; returns the exported ``src`` path.  Raises
    RuntimeError naming the commit when it cannot be exported."""
    commit = _before_arm()["commit"]
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", commit, "src"],
            capture_output=True, check=False)
    except OSError as exc:
        raise RuntimeError(f"cannot export seed-engine commit {commit}: {exc}") from exc
    if proc.returncode != 0:
        raise RuntimeError(
            f"cannot export seed-engine commit {commit} with git archive "
            f"({proc.stderr.decode().strip()}); the before arm needs a git "
            f"checkout holding that commit (a shallow clone does not)")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into)
    return os.path.join(into, "src")


def _arms(before_src: str) -> dict:
    """Arm name -> the ``src`` tree its samples import, the environment
    they run under, and the scheduler class the raw chain drives."""
    before = _before_arm()
    return {
        "heap": {"src": before_src, "env": before["env"], "scheduler": before["scheduler"]},
        "calendar": {"src": str(REPO_ROOT / "src"), "env": {}, "scheduler": AFTER_SCHEDULER},
    }


def _raw_chain(make_sched) -> float:
    """Seconds to drain RAW_EVENTS chained no-op events (GC parked).

    ``_CHAIN_ACTORS`` timers each perpetually reschedule themselves with
    a fixed per-actor period; the mutually staggered periods keep bucket
    occupancy mixed instead of phase-locked.  ``max_events`` bounds the
    run, so both engines execute exactly RAW_EVENTS dispatches over an
    identical event stream.
    """
    sched = make_sched()

    def tick(period: float) -> None:
        sched.schedule_once(period, tick, period)

    for i in range(_CHAIN_ACTORS):
        # Distinct start offsets and mutually irrational-ish periods.
        sched.schedule_once(1e-7 + i * 3.7e-9, tick, 1e-6 + i * 1.3e-8)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        sched.run(max_events=RAW_EVENTS)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    assert sched.events_processed == RAW_EVENTS
    return elapsed


def _fig07_run():
    """(run_loop_seconds, logical_events) for one K=8 fig07 run.

    The denominator is the event-loop wall alone: building a 128-host
    fat-tree is a fixed cost identical in both arms, and folding it into
    the divisor dilutes exactly the ratio this benchmark measures.
    """
    result = run_scenario(FIG07_FULL)
    return result.run_loop_seconds, result.events


def _worker_main(workload: str, scheduler: str) -> int:
    """Sample subprocess entry point: print one JSON record.  Runs on
    whichever ``src`` tree and environment the parent gave it."""
    if workload == "raw":
        module, _, name = scheduler.partition(":")
        wall = _raw_chain(getattr(importlib.import_module(module), name))
        payload = {"wall": wall, "events": RAW_EVENTS}
    elif workload == "fig07":
        wall, events = _fig07_run()
        payload = {"wall": wall, "events": events}
    elif workload == "identity":
        payload = {
            "cell": fingerprint(run_scenario(FIG07_CELL)),
            "pooled": fingerprint(run_pooled(FIG07_CELL, seeds=(0, 1), workers=1)),
        }
    else:  # "identity-full"
        payload = {"full": fingerprint(run_scenario(FIG07_FULL))}
    print(json.dumps(payload))
    return 0


def _child_env(arm: dict) -> dict:
    """This environment plus the arm's variables, with the arm's ``src``
    first on ``PYTHONPATH`` and every other entry made absolute (the
    sample runs from ``benchmarks/``, where a relative entry such as
    ``PYTHONPATH=src`` would miss)."""
    entries = [arm["src"]] + [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return dict(os.environ, **arm["env"], PYTHONPATH=os.pathsep.join(entries))


def _sample(workload: str, arm: dict) -> dict:
    """Run one sample in a fresh interpreter (see module docstring)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--worker", workload, "--scheduler", arm["scheduler"]],
        capture_output=True, text=True, check=False,
        cwd=BENCH_DIR, env=_child_env(arm),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} sample on {arm['src']} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(arms: dict, rounds: int = 3) -> dict:
    """Best-of-`rounds` subprocess measurements, arms interleaved."""
    samples = {"raw": {"heap": [], "calendar": []},
               "fig07": {"heap": [], "calendar": []}}
    events = {"raw": {}, "fig07": {}}
    for _ in range(rounds):
        for workload in ("raw", "fig07"):
            for engine in ("heap", "calendar"):
                record = _sample(workload, arms[engine])
                samples[workload][engine].append(record["wall"])
                events[workload][engine] = record["events"]
    out = {}
    for engine in ("heap", "calendar"):
        raw_wall = min(samples["raw"][engine])
        fig_wall = min(samples["fig07"][engine])
        fig_events = events["fig07"][engine]
        out[engine] = {
            "raw_chain_events_per_s": round(RAW_EVENTS / raw_wall, 1),
            "fig07_events": fig_events,
            "fig07_wall_s": round(fig_wall, 4),
            "fig07_events_per_s": round(fig_events / fig_wall, 1),
        }
    out["speedup_raw_chain"] = round(
        out["calendar"]["raw_chain_events_per_s"] / out["heap"]["raw_chain_events_per_s"], 3)
    out["speedup_fig07"] = round(
        out["calendar"]["fig07_events_per_s"] / out["heap"]["fig07_events_per_s"], 3)
    return out


def _determinism_failures(arms: dict) -> list[str]:
    """A/A and serial-vs-parallel identity checks on the scaled cell:
    this tree in-process, the seed engine in a sample subprocess."""
    failures = []
    seed = _sample("identity", arms["heap"])
    if fingerprint(run_scenario(FIG07_CELL)) != seed["cell"]:
        failures.append("fig07 metrics differ between the calendar and seed engines (seed fixed)")
    serial = fingerprint(run_pooled(FIG07_CELL, seeds=(0, 1), workers=1))
    parallel = fingerprint(run_pooled(FIG07_CELL, seeds=(0, 1), workers=2))
    if serial != parallel:
        failures.append("pooled fig07 metrics differ between workers=1 and workers=2 (calendar)")
    if serial != seed["pooled"]:
        failures.append("pooled fig07 metrics differ between the calendar and seed engines")
    return failures


def _full_smoke(arms: dict) -> tuple[dict, list[str]]:
    """K=8 / 128-host smoke: calendar throughput plus the engine A/A
    identity check at paper scale (the quick checks only cover K=4)."""
    failures = []
    result = run_scenario(FIG07_FULL)
    if fingerprint(result) != _sample("identity-full", arms["heap"])["full"]:
        failures.append(
            "K=8 fig07 metrics differ between the calendar and seed engines (seed fixed)")
    return {
        "events": result.events,
        "wall_s": round(result.run_loop_seconds, 2),
        "events_per_s": round(result.events / result.run_loop_seconds, 1),
    }, failures


def _baseline_payload(measured: dict) -> dict:
    return {
        "workload": ("fig07-incast-k8: PAPER_DEFAULTS K=8 fat-tree "
                     "(128 hosts), scheme=dibs, Table 1/2 operating point, "
                     "0.05s + 0.3s drain"),
        "raw_chain_events": RAW_EVENTS,
        "trajectory": [
            dict(label="before: heapq engine, no tx-done elision (seed)",
                 engine="heap", **measured["heap"]),
            dict(label="after: calendar queue + tx-done elision + hot-path hoists",
                 engine="calendar", **measured["calendar"]),
        ],
        "speedup_raw_chain": measured["speedup_raw_chain"],
        "speedup_fig07": measured["speedup_fig07"],
        "regression_tolerance": REGRESSION_TOLERANCE,
        "before_arm": _before_arm(),
        "note": ("events/s divides logical events (dispatched + elided "
                 "tx-dones; identical across engines) by wall seconds. "
                 "--check compares speedup ratios, not absolute events/s: "
                 "ratios survive hardware changes. See BENCH_engine.md."),
    }


def run(arms: dict, full: bool = False, rounds: int = 3) -> tuple[str, list[str]]:
    """Return the report text and a list of failures (empty = pass)."""
    failures = _determinism_failures(arms)
    measured = measure(arms, rounds=rounds)

    rows = []
    for engine in ("heap", "calendar"):
        m = measured[engine]
        rows.append({
            "engine": engine,
            "raw chain ev/s": f"{m['raw_chain_events_per_s']:,.0f}",
            "fig07 events": f"{m['fig07_events']:,}",
            "fig07 wall_s": f"{m['fig07_wall_s']:.3f}",
            "fig07 ev/s": f"{m['fig07_events_per_s']:,.0f}",
        })
    text = format_table(
        rows,
        title=f"engine speed (best of {rounds} fresh-process rounds, interleaved)")
    text += (
        f"\nspeedup: raw chain {measured['speedup_raw_chain']:.2f}x, "
        f"fig07 incast K=8 {measured['speedup_fig07']:.2f}x (calendar vs heap)"
    )
    text += "\ndeterminism (engine A/A, serial==parallel pooled): " + (
        "ok" if not failures else "; ".join(failures))

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        committed = baseline["speedup_fig07"]
        floor = committed * (1 - REGRESSION_TOLERANCE)
        text += (
            f"\nbaseline fig07 speedup {committed:.2f}x "
            f"(gate: live >= {floor:.2f}x)"
        )
        if measured["speedup_fig07"] < floor:
            failures.append(
                f"fig07 speedup regressed: live {measured['speedup_fig07']:.2f}x "
                f"< {floor:.2f}x ({100 * REGRESSION_TOLERANCE:.0f}% below the "
                f"committed {committed:.2f}x)"
            )
    else:
        text += "\nno BENCH_engine.json baseline committed — speed gate skipped"

    if full:
        smoke, smoke_failures = _full_smoke(arms)
        failures.extend(smoke_failures)
        text += (
            f"\nK=8 smoke (128 hosts, calendar): {smoke['events']:,} events "
            f"in {smoke['wall_s']:.2f}s wall = {smoke['events_per_s']:,.0f} ev/s"
            f"; engine A/A at K=8: "
            + ("ok" if not smoke_failures else "; ".join(smoke_failures))
        )

    return text, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the event engine")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per arm (interleaved; best reported)")
    parser.add_argument("--full", action="store_true",
                        help="also run the paper-scale K=8 / 128-host smoke")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on determinism or speed-gate failure (CI mode); "
                             "print the table without saving it")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite BENCH_engine.json from this run's measurements")
    parser.add_argument("--worker", choices=("raw", "fig07", "identity", "identity-full"),
                        help=argparse.SUPPRESS)  # internal: one sample
    parser.add_argument("--scheduler", default=AFTER_SCHEDULER,
                        help=argparse.SUPPRESS)  # internal: the raw chain's class
    args = parser.parse_args()

    if args.worker:
        return _worker_main(args.worker, args.scheduler)

    with tempfile.TemporaryDirectory(prefix="seed-engine-") as tmp:
        try:
            arms = _arms(_export_before(tmp))
        except RuntimeError as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            return 1
        if args.update_baseline:
            failures = _determinism_failures(arms)
            if failures:
                for failure in failures:
                    print(f"REFUSING BASELINE UPDATE: {failure}", file=sys.stderr)
                return 1
            measured = measure(arms, rounds=args.rounds)
            BASELINE_PATH.write_text(
                json.dumps(_baseline_payload(measured), indent=2) + "\n")
            print(f"wrote {BASELINE_PATH}")
            print(json.dumps(measured, indent=2))
            return 0
        text, failures = run(arms, full=args.full, rounds=args.rounds)

    if not args.check:
        # A gate run prints its table; only a measurement run rewrites
        # the committed benchmarks/results/bench_engine_speed.txt.
        common.save_table("bench_engine_speed", text)
    print(text)
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
