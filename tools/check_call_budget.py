"""CI gate on exact counts of the Python work per simulated event.

Every count below runs in a fresh interpreter with ``PYTHONHASHSEED=0``
and repeats exactly run to run, so these gates catch added Python work
that a wall-time gate cannot resolve on a noisy host.  Each figure is
checked against its ceiling in ``tools/call_budget.json``:

* **Calls per event** of every workload listed under ``ceilings``: the
  perf harness's count run at smoke scale, launched through
  ``benchmarks/perf/run.py`` (``run.launch``: the pinned environment and
  the harness's timeout) and checked against ``pins.json`` with
  ``run.check`` (``ok``, fingerprint and event count).  Its ``cProfile``
  call count inside ``Network.run`` is divided by the pinned smoke event
  count, exactly as ``run.py`` defines ``py_calls_per_event``.
* **Instrument cost** on one fixed cell (``CELL``: the CI cell, 11,306
  events): the calls inside ``Network.run`` with ``--profile`` and with
  spans sampled at the default 1/64, each divided by the plain run's
  calls.  Profiled and plain runs share one run loop, so everything the
  profiler adds is calls.
* **Bytecodes per event** of the plain cell, counted with
  ``sys.settrace`` and ``f_trace_opcodes`` inside ``Network.run``.  It
  sees per-event work that makes no call, such as extra statements in
  the run loop or in an existing call, which the call counts cannot.

A run that fails, does not match its pins, or whose instrumented cell
measures something other than the plain one fails the gate.  A figure
more than the ``py_calls_per_event`` bound in ``BENCHMARK.json`` (1%)
above its ceiling fails; more than that bound below fails too, because
the ceiling is stale: the change that made the gain lowers the ceiling
to the new value, which the FAIL line prints.  No figure here is a wall
time: a slower C-level call shows only in the benchmark's events_per_s.

Usage: python tools/check_call_budget.py   (exit 0 pass, 1 fail)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
PERF = REPO / "benchmarks" / "perf"
BUDGET = TOOLS / "call_budget.json"

sys.path.insert(0, str(PERF))
import run  # noqa: E402  (the perf harness, importable only from its directory)

# The fixed cell of the instrument and bytecode gates (the cell the CLI
# steps of CI run), and per run: its RunOptions and what it counts.
CELL = dict(scheme="dibs", duration_s=0.03, drain_s=0.3, qps=100.0,
            incast_degree=6, bg_enabled=False, seed=0)
CELL_RUNS = {"plain": ({}, "calls"), "profile": ({"profile": True}, "calls"),
             "spans": ({"span_sample_rate": 1.0 / 64.0}, "calls"),
             "bytecodes": ({}, "bytecodes")}


def measure(mode: str) -> None:
    """Child side: run the cell as ``mode`` says, print one JSON line."""
    import cProfile
    import pstats

    from repro.experiments.runner import RunOptions, fingerprint, run_scenario
    from repro.experiments.scenarios import SCALED_DEFAULTS
    from repro.net.network import Network

    options, what = CELL_RUNS[mode]
    executed = [0]

    def count_opcode(frame, event, arg):
        if event == "opcode":
            executed[0] += 1
        return count_opcode

    def trace_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return count_opcode

    profile = cProfile.Profile()
    start, stop = ((profile.enable, profile.disable) if what == "calls"
                   else (lambda: sys.settrace(trace_frame), lambda: sys.settrace(None)))
    network_run = Network.run

    def counted_run(network, *args, **kwargs):
        start()
        try:
            return network_run(network, *args, **kwargs)
        finally:
            stop()

    Network.run = counted_run
    result = run_scenario(SCALED_DEFAULTS.with_overrides(**CELL), RunOptions(**options))
    count = pstats.Stats(profile).total_calls if what == "calls" else executed[0]
    print(json.dumps({"events": result.events, "fingerprint": fingerprint(result),
                      "count": count}))


def _cell(mode: str) -> dict:
    """One run of the cell in a fresh interpreter; ``None`` if it failed."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import check_call_budget; " \
           f"check_call_budget.measure({mode!r})"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env, text=True,
                          capture_output=True, timeout=run.HARD_STOP_S)
    if proc.returncode != 0:
        print(f"FAIL cell {mode}: {(proc.stderr.strip().splitlines() or ['no output'])[-1]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _gate(label: str, value: float, ceiling: float, bound: float, unit: str) -> bool:
    """Print one figure against its ceiling; True when it passes."""
    change = value / ceiling - 1.0
    line = f"{label}: {value:.4f} {unit}, ceiling {ceiling:.4f} ({change:+.2%})"
    if change > bound:
        print(f"FAIL {line}")
    elif change < -bound:
        print(f"FAIL {line}: the ceiling is stale, lower it to {value:.4f}")
    else:
        print(f"ok   {line}")
    return abs(change) <= bound


def main() -> int:
    budget = json.loads(BUDGET.read_text())
    spec = json.loads(run.BENCHMARK.read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "py_calls_per_event")
    pins = run.load_pins()
    failed = False
    for workload, ceiling in budget["ceilings"].items():
        record = run.launch("count", workload, smoke=True)
        problems = run.check("count", workload, record, pins, smoke=True)
        if problems:
            print(f"FAIL {workload}: {'; '.join(problems)}")
            failed = True
            continue
        pin = pins[f"smoke/{workload}"]
        value = record["py_calls"] / pin.get("count_events", pin["events"])
        failed |= not _gate(workload, value, ceiling, bound, "calls/event")

    runs = {mode: _cell(mode) for mode in CELL_RUNS}
    if None in runs.values():
        return 1
    plain = runs["plain"]
    moved = [mode for mode, record in runs.items()
             if (record["events"], record["fingerprint"]) != (plain["events"], plain["fingerprint"])]
    if moved:
        print(f"FAIL cell: {', '.join(moved)} measured something other than the plain run")
        return 1
    values = {
        "profile_calls_ratio": (runs["profile"]["count"] / plain["count"], "x plain calls"),
        "spans_calls_ratio": (runs["spans"]["count"] / plain["count"], "x plain calls"),
        "bytecodes_per_event": (runs["bytecodes"]["count"] / plain["events"], "bytecodes/event"),
    }
    for name, (value, unit) in values.items():
        failed |= not _gate(f"cell {name}", value, budget["cell"][name], bound, unit)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
