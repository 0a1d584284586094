"""Outside-in performance benchmark for the repro simulator.

Every measurement runs the program in a fresh subprocess (``child.py``)
and observes it from outside: no timed sample ever carries a wrapper.

* **Timed samples** give the end-to-end metrics (median, quartiles, n).
* **One count run** per workload switches ``cProfile`` on for the run
  loop only and gives the exact Python call count.
* **One traced run** per workload wraps each layer's entry points and
  gives the per-layer ledger (``ledger.py``).

Every run is checked: its canonical-metrics fingerprint and logical
event count must equal the pins in ``pins.json``, simulation runs must
pass the packet-conservation audit, the sweep must finish and journal
every cell, and the traced run must close its ledger within 1%.

Usage::

    # one workload, as the benchmark contract runs it (last line: JSON)
    python benchmarks/perf/run.py --workload incast_k8_dibs --seed 1 --seconds 25 --trace 0
    # every workload interleaved round-robin for 7 rounds, plus count and traced runs
    python benchmarks/perf/run.py [--out benchmarks/perf/results/NAME.json]
    # two full sets back to back: does the benchmark agree with itself?
    python benchmarks/perf/run.py --aa
    # K=4 variants, 2 rounds (what test_perf_bench.py runs)
    python benchmarks/perf/run.py --smoke
    # rewrite pins.json (only for a change meant to alter simulated results)
    python benchmarks/perf/run.py --pin

No ``PYTHONPATH`` is needed: children get ``src/`` from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_SAMPLES = 3
# A run stops starting children after this long, and kills any child
# still running at HARD_STOP_S, so it always exits inside three minutes.
SOFT_STOP_S = 130.0
HARD_STOP_S = 160.0
CLOSURE_TOLERANCE = 0.01

# name -> unit.  Directions and bounds live in BENCHMARK.json.
END_TO_END = {
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "py_calls_per_event": "calls/event",
    "cells_per_min": "cells/min",
}

LAYERS = (
    "sim.dispatch", "sim.schedule", "net.link", "net.switch", "core.detour",
    "net.queues", "net.host", "transport", "workload", "metrics", "faults",
    "watchdog", "control", "experiments.executor", "experiments.journal",
)
_LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("share", "fraction"),
                 ("ns_per_call", "ns"))
# name -> (unit, better)
PER_LAYER = {
    f"{layer}.{field}": (unit, "lower")
    for layer in LAYERS for field, unit in _LAYER_FIELDS
}
RATIOS = {
    "core.detour.detour_ratio": ("ratio", "lower"),
    "net.link.fast_path_share": ("fraction", "higher"),
    "net.queues.drop_ratio": ("ratio", "lower"),
    "transport.retx_ratio": ("ratio", "lower"),
}
PER_LAYER.update(RATIOS)
PER_LAYER.update({
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "experiments.overhead_ms_per_cell": ("ms", "lower"),
    "trace.loop_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wrapper_ns": ("ns", "lower"),
    "trace.closure_error": ("fraction", "lower"),
})


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Set-up is timed with cached bytecode, as a user's second run sees it;
    # the first child in a fresh checkout (a count or traced run) fills
    # the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # The engine and transmit path the pins were taken on.
    env.pop("REPRO_ENGINE", None)
    env.pop("REPRO_ELIDE_TX", None)
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it
    to empty (sweep children fork workers of their own)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(kind: str, workload: str, *, smoke: bool = False, sim_seed: int = 0,
           order_seed: int = 0, timeout: float = HARD_STOP_S) -> dict:
    """Run one child; return its record (``ok`` false on any failure)."""
    cmd = [sys.executable, str(CHILD), kind, workload,
           "--sim-seed", str(sim_seed), "--order-seed", str(order_seed)]
    if smoke:
        cmd.append("--smoke")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        return {"ok": False, "error": f"timeout after {timeout:.0f}s", "wall_s": timeout}
    finally:
        _reap_group(proc.pid)
    wall = time.perf_counter() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}", "wall_s": wall}
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "error": f"unparsable output: {lines[-1][:200]}", "wall_s": wall}
    record["wall_s"] = wall
    return record


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def _pin_key(workload: str, smoke: bool) -> str:
    return f"smoke/{workload}" if smoke else workload


def check(kind: str, workload: str, record: dict, pins: dict, smoke: bool = False) -> list[str]:
    """Everything wrong with one child's record (empty list: it passed)."""
    if not record.get("ok"):
        return [record.get("error", "failed")]
    pin = pins[_pin_key(workload, smoke)]
    prefix = "count_" if kind == "count" and "count_events" in pin else ""
    problems = []
    if record["fingerprint"] != pin[prefix + "fingerprint"]:
        problems.append(f"fingerprint {record['fingerprint'][:12]} != pinned "
                        f"{pin[prefix + 'fingerprint'][:12]}")
    if record["events"] != pin[prefix + "events"]:
        problems.append(f"{record['events']} events != pinned {pin[prefix + 'events']}")
    if kind == "sample" and record["wrapped"]:
        problems.append(f"timed sample ran {record['wrapped']} wrapped entry points")
    if kind == "trace" and record["closure_error"] > CLOSURE_TOLERANCE:
        unwrapped = sorted(record["unwrapped_callbacks"].items(), key=lambda kv: -kv[1])
        problems.append(f"ledger closure off by {record['closure_error']:.2%}; unwrapped "
                        f"callbacks: {', '.join(f'{name} x{n}' for name, n in unwrapped[:5])}")
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def summary(values: list[float]) -> dict:
    """Median, quartiles and count of a sample."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _inverse(stats: dict, numerator: float) -> dict:
    """numerator / x, applied to a summary of x (quartiles swap)."""
    return {"median": numerator / stats["median"], "q1": numerator / stats["q3"],
            "q3": numerator / stats["q1"], "n": stats["n"]}


def end_to_end(workload: str, samples: list[dict], count: dict | None, pins: dict,
               smoke: bool = False) -> dict:
    """End-to-end metric summaries from passing samples and a count run."""
    pin = pins[_pin_key(workload, smoke)]
    loop = summary([s["loop_s"] for s in samples])
    if workloads.WORKLOADS[workload][0] == workloads.SWEEP:
        cells_per_min = _inverse(loop, pin["cells"] * 60.0)
    else:
        cells_per_min = _inverse(summary([s["cell_s"] for s in samples]), 60.0)
    metrics = {
        "events_per_s": _inverse(loop, pin["events"]),
        "setup_s": summary([s["setup_s"] for s in samples]),
        "peak_rss_mb": summary([s["rss_mb"] for s in samples]),
        "cells_per_min": cells_per_min,
    }
    if count is not None:
        events = pin.get("count_events", pin["events"])
        metrics["py_calls_per_event"] = summary([count["py_calls"] / events])
    return metrics


def trace_mismatch(traced: dict, samples: list[dict]) -> list[str]:
    """The traced run must compute exactly what the untraced samples did."""
    if {s["fingerprint"] for s in samples} != {traced["fingerprint"]}:
        return ["traced fingerprint differs from the untraced samples"]
    return []


def metric_line(label: str, metric: str, stats: dict) -> str:
    return (f"{label:18s} {metric:20s} {stats['median']:14.6g} {END_TO_END[metric]:12s} "
            f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]")


def per_layer(traced: dict, samples: list[dict]) -> dict:
    """The per-layer metrics of one traced run."""
    metrics = {}
    for layer in LAYERS:
        row = traced["layers"].get(layer, {"calls": 0, "self_s": 0.0, "share": 0.0,
                                           "ns_per_call": 0.0})
        for field, _unit in _LAYER_FIELDS:
            metrics[f"{layer}.{field}"] = row[field]
    for name in RATIOS:  # the sweep's traced run has no packets to take ratios of
        metrics[name] = traced.get("ratios", {}).get(name, 0.0)
    metrics["setup.import_s"] = traced["import_s"]
    metrics["setup.build_s"] = traced["build_s"]
    metrics["experiments.overhead_ms_per_cell"] = traced.get("overhead_ms_per_cell", 0.0)
    metrics["trace.loop_s"] = traced["loop_s"]
    untraced = statistics.median(s["loop_s"] for s in samples) if samples else 0.0
    metrics["trace.overhead_ratio"] = traced["loop_s"] / untraced if untraced else 0.0
    metrics["trace.wrapper_ns"] = traced["wrapper_ns"]
    metrics["trace.closure_error"] = traced["closure_error"]
    return metrics


# ----------------------------------------------------------------------
# one workload, as the benchmark contract runs it
# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> int:
    pins = load_pins()
    started = time.perf_counter()
    attempted = failed = 0
    problems: list[str] = []

    def run_child(kind: str, order_seed: int = 0):
        nonlocal attempted, failed
        remaining = HARD_STOP_S - (time.perf_counter() - started)
        record = launch(kind, workload, smoke=smoke, order_seed=order_seed,
                        timeout=max(1.0, remaining))
        attempted += 1
        found = check(kind, workload, record, pins, smoke)
        if found:
            failed += 1
            problems.extend(f"{kind}: {p}" for p in found)
            print(f"FAILED {workload} {kind}: {'; '.join(found)}", file=sys.stderr)
        # A run that finished still has timings; correct=false flags it.
        return record if record.get("ok") else None

    first = run_child("trace" if trace else "count")
    samples: list[dict] = []
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        last = samples[-1]["wall_s"] if samples else 0.0
        if index >= MIN_SAMPLES and elapsed + last > seconds:
            break
        if elapsed > SOFT_STOP_S:
            break
        record = run_child("sample", order_seed=seed * 1000 + index)
        index += 1
        if record is not None:
            samples.append(record)
    if first is None or not samples:
        print(f"{workload}: no finished {'traced' if trace else 'count'} run or sample",
              file=sys.stderr)
        return 1
    if trace:
        problems.extend(trace_mismatch(first, samples))
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in per_layer(first, samples).items()}
    else:
        stats = end_to_end(workload, samples, first, pins, smoke)
        metrics = {name: {"value": stats[name]["median"], "unit": END_TO_END[name]}
                   for name in END_TO_END}
        for name in END_TO_END:
            print(metric_line(workload, name, stats[name]))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# every workload, interleaved
# ----------------------------------------------------------------------
def collect(names=tuple(workloads.WORKLOADS), rounds: int = 7, smoke: bool = False,
            trace: bool = True, log=print) -> dict:
    """One count run each (which also fills the bytecode cache), timed
    samples round-robin over ``names``, then one traced run each.
    Returns the full report."""
    pins = load_pins()
    report = {name: {"samples": [], "failures": [], "attempted": 0} for name in names}

    def run_child(kind, name, **kwargs):
        record = launch(kind, name, smoke=smoke, **kwargs)
        entry = report[name]
        entry["attempted"] += 1
        problems = check(kind, name, record, pins, smoke)
        if problems:
            entry["failures"].append({"kind": kind, "problems": problems})
            log(f"FAILED {name} {kind}: {'; '.join(problems)}")
        return record if record.get("ok") else None

    counted = {name: run_child("count", name) for name in names}
    for round_index in range(rounds):
        # Rotate the starting workload so none always runs first.
        order = names[round_index % len(names):] + names[:round_index % len(names)]
        for name in order:
            record = run_child("sample", name, order_seed=round_index)
            if record is not None:
                report[name]["samples"].append(record)
        log(f"round {round_index + 1}/{rounds} done")
    for name in names:
        entry = report[name]
        entry["py_calls"] = counted[name]["py_calls"] if counted[name] else None
        if entry["samples"]:
            entry["end_to_end"] = end_to_end(name, entry["samples"], counted[name], pins, smoke)
        if trace:
            traced = run_child("trace", name)
            if traced is not None:
                mismatch = trace_mismatch(traced, entry["samples"])
                if mismatch:
                    entry["failures"].append({"kind": "trace", "problems": mismatch})
                entry["per_layer"] = per_layer(traced, entry["samples"])
                entry["entry_calls"] = traced["entry_calls"]
        entry["failed_share"] = len(entry["failures"]) / max(1, entry["attempted"])
        entry["fingerprint"] = pins[_pin_key(name, smoke)]["fingerprint"]
        entry["events"] = pins[_pin_key(name, smoke)]["events"]
    return report


def _format_report(report: dict) -> str:
    lines = []
    for name, entry in report.items():
        lines.append(f"== {name}  (failed_share {entry['failed_share']:.3f}, "
                     f"events {entry['events']:,})")
        for metric, stats in entry.get("end_to_end", {}).items():
            lines.append(metric_line(name, metric, stats))
        layer_rows = entry.get("per_layer")
        if layer_rows:
            lines.append(f"   {'layer':22s} {'calls':>10s} {'self_s':>9s} {'share':>7s} "
                         f"{'ns/call':>9s}")
            for layer in LAYERS:
                calls = layer_rows[f"{layer}.calls"]
                if not calls and not layer_rows[f"{layer}.self_s"]:
                    continue
                lines.append(f"   {layer:22s} {calls:10,d} {layer_rows[f'{layer}.self_s']:9.4f} "
                             f"{layer_rows[f'{layer}.share']:7.1%} "
                             f"{layer_rows[f'{layer}.ns_per_call']:9.0f}")
            for metric in PER_LAYER:
                layer, field = metric.rsplit(".", 1)
                if layer in LAYERS and field in dict(_LAYER_FIELDS):
                    continue
                lines.append(f"   {metric:32s} {layer_rows[metric]:.6g} {PER_LAYER[metric][0]}")
    return "\n".join(lines)


def _host() -> dict:
    import platform

    return {"python": platform.python_version(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count()}


def _json_report(report: dict, label: str) -> dict:
    out = {"label": label, "host": _host(), "workloads": {}}
    for name, entry in report.items():
        out["workloads"][name] = {
            key: entry.get(key) for key in (
                "events", "fingerprint", "attempted", "failures", "failed_share",
                "py_calls", "end_to_end", "per_layer", "entry_calls")
        }
        out["workloads"][name]["sample_walls"] = {
            field: [s[field] for s in entry["samples"]]
            for field in ("loop_s", "setup_s", "cell_s", "rss_mb")
        }
    return out


# ----------------------------------------------------------------------
# A/A: two full sets of the same code
# ----------------------------------------------------------------------
def _worse_by(metric: str, first: float, second: float, directions: dict) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if directions[metric] == "lower":
        return (second - first) / first
    return (first - second) / first


def aa(rounds: int, smoke: bool, log=print) -> tuple[str, bool]:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [collect(rounds=rounds, smoke=smoke, trace=False, log=log) for _ in range(2)]
    lines = [f"{'workload':18s} {'metric':20s} {'median A':>14s} {'median B':>14s} "
             f"{'B worse by':>10s} {'bound':>6s}  within"]
    ok = True
    for name in sets[0]:
        a, b = sets[0][name], sets[1][name]
        for metric in END_TO_END:
            first = a["end_to_end"][metric]["median"]
            second = b["end_to_end"][metric]["median"]
            gap = _worse_by(metric, first, second, directions)
            within = abs(gap) <= bounds[metric]
            ok &= within
            lines.append(f"{name:18s} {metric:20s} {first:14.6g} {second:14.6g} "
                         f"{gap:+10.2%} {bounds[metric]:6.2f}  {'yes' if within else 'NO'}")
        same_calls = a["py_calls"] == b["py_calls"]
        ok &= same_calls and not a["failures"] and not b["failures"]
        lines.append(f"{name:18s} failed_share A {a['failed_share']:.3f} B {b['failed_share']:.3f}; "
                     f"py_calls identical: {'yes' if same_calls else 'NO'}")
    return "\n".join(lines), ok


# ----------------------------------------------------------------------
# pins
# ----------------------------------------------------------------------
def make_pins(log=print) -> dict:
    """One sample and one count run per workload (full and smoke)."""
    pins = {}
    for smoke in (False, True):
        for name in workloads.WORKLOADS:
            sample = launch("sample", name, smoke=smoke)
            counted = launch("count", name, smoke=smoke)
            for record in (sample, counted):
                if not record.get("ok"):
                    raise RuntimeError(f"{name}: {record.get('error')}")
            pin = {"events": sample["events"], "fingerprint": sample["fingerprint"]}
            if workloads.WORKLOADS[name][0] == workloads.SWEEP:
                pin.update(cells=sample["cells"], count_events=counted["events"],
                           count_fingerprint=counted["fingerprint"])
            elif counted["fingerprint"] != sample["fingerprint"]:
                raise RuntimeError(f"{name}: count run and sample disagree")
            pins[_pin_key(name, smoke)] = pin
            log(f"pinned {_pin_key(name, smoke)}: {pin}")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in performance benchmark")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                        help="run one workload for --seconds (the benchmark contract)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the sweep's cell submission order")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long one contract run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="K=4 variants of the workloads")
    parser.add_argument("--aa", action="store_true", help="two full sets, compared")
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    parser.add_argument("--out", help="write the full report as JSON to this path")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark needs the simulator sources at {SRC}", file=sys.stderr)
        return 2
    rounds = 2 if args.smoke else 7
    if args.pin:
        pins = make_pins()
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"wrote {PINS}")
        return 0
    if args.workload:
        return contract_run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.smoke)
    if args.aa:
        text, ok = aa(rounds, args.smoke)
        print(text)
        return 0 if ok else 1
    report = collect(rounds=rounds, smoke=args.smoke)
    print(_format_report(report))
    if args.out:
        label = Path(args.out).stem
        Path(args.out).write_text(json.dumps(_json_report(report, label), indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(not entry["failures"] for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
