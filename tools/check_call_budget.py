"""CI gate on the exact Python call count per simulated event.

For every workload in ``tools/call_budget.json`` this launches the perf
harness's count run at smoke scale through ``benchmarks/perf/run.py``
(``run.launch``: a fresh interpreter with the pinned environment and the
harness's timeout), checks the record against ``pins.json`` with
``run.check`` (``ok``, fingerprint and event count), and divides its
``cProfile`` call count (inside ``Network.run``) by the pinned smoke
event count, exactly as ``run.py`` defines ``py_calls_per_event``.  The
count is exact and repeats run to run, so it catches added Python work
that wall-time gates cannot resolve on a noisy host.  It cannot see
extra bytecode inside an existing call.

* A run that fails or does not match its pins fails the gate.
* A count more than the ``py_calls_per_event`` bound in
  ``BENCHMARK.json`` (1%) above its ceiling fails the gate.
* A count more than that bound below its ceiling passes with a warning:
  the ceiling is stale, and should be lowered to the new value in the
  same change.

Usage: python tools/check_call_budget.py   (exit 0 pass, 1 fail)
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PERF = REPO / "benchmarks" / "perf"
BUDGET = Path(__file__).resolve().parent / "call_budget.json"

sys.path.insert(0, str(PERF))
import run  # noqa: E402  (the perf harness, importable only from its directory)


def main() -> int:
    ceilings = json.loads(BUDGET.read_text())["ceilings"]
    spec = json.loads(run.BENCHMARK.read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "py_calls_per_event")
    pins = run.load_pins()
    failed = False
    for workload, ceiling in ceilings.items():
        record = run.launch("count", workload, smoke=True)
        problems = run.check("count", workload, record, pins, smoke=True)
        if problems:
            print(f"FAIL {workload}: {'; '.join(problems)}")
            failed = True
            continue
        pin = pins[f"smoke/{workload}"]
        value = record["py_calls"] / pin.get("count_events", pin["events"])
        change = value / ceiling - 1.0
        line = f"{workload}: {value:.4f} calls/event, ceiling {ceiling:.4f} ({change:+.2%})"
        if change > bound:
            print(f"FAIL {line}")
            failed = True
        elif change < -bound:
            print(f"WARN {line}: the ceiling is stale, lower it to {value:.4f}")
        else:
            print(f"ok   {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
