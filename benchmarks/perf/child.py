"""One benchmark subprocess: a timed sample, a count run or a traced run.

``run.py`` starts a fresh interpreter for each of these, so no wrapper,
profiler or allocator state from one kind of run reaches another::

    python benchmarks/perf/child.py {sample,count,trace} WORKLOAD
        [--smoke] [--sim-seed N] [--order-seed N]

The last line of standard output is one JSON object.  ``ok`` is false
when the run raised, failed its audit or lost a sweep cell; comparing
the fingerprint and event count with the pins is the parent's job.
"""

import time

T0 = time.perf_counter()  # child start, before repro is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import ledger  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter

# Where the sweep's journal lives while it runs.
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def canonical_fingerprint(result) -> str:
    """SHA-256 of everything measured, minus wall times and
    instrumentation payloads (the bench_engine_speed canonical form)."""
    from repro.experiments.runner import result_to_dict

    payload = result_to_dict(result, include_scenario=False)
    for name in ("wall_seconds", "run_loop_seconds", "profile", "collector"):
        payload.pop(name, None)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _combined_fingerprint(results: dict) -> str:
    rows = sorted((key, canonical_fingerprint(result)) for key, result in results.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _wrapped() -> int:
    return (ledger.wrapped_count(ledger.SIM_LAYERS)
            + ledger.wrapped_count(ledger.EXPERIMENT_LAYERS))


def _rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _import_simulator() -> float:
    """Import what a simulation run starts from; return when that ended."""
    import repro.experiments.scenarios  # noqa: F401
    import repro.net.network  # noqa: F401

    return clock()


def _nothing() -> None:
    pass


class Window:
    """While open, wraps ``Network.run`` (the run loop) and
    ``Scenario.build_network`` (to keep the network for the audit)."""

    def __init__(self, on_enter=_nothing, on_exit=_nothing) -> None:
        from repro.experiments.scenarios import Scenario
        from repro.net.network import Network

        self.network = None
        self.build_s = 0.0
        self.enter = None
        self.loop_s = 0.0
        self.finished = None  # when the last cell's metrics were extracted
        build = Scenario.build_network
        run = Network.run
        window = self

        def build_network(scenario, *args, **kwargs):
            started = clock()
            window.network = build(scenario, *args, **kwargs)
            window.build_s += clock() - started
            return window.network

        def run_loop(network, *args, **kwargs):
            on_enter()
            entered = clock()
            if window.enter is None:
                window.enter = entered
            try:
                return run(network, *args, **kwargs)
            finally:
                window.loop_s += clock() - entered
                on_exit()

        self._patches = ((Scenario, "build_network", build, build_network),
                         (Network, "run", run, run_loop))

    def __enter__(self) -> "Window":
        for cls, name, _original, patched in self._patches:
            setattr(cls, name, patched)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original, _patched in self._patches:
            setattr(cls, name, original)


def _run_cell(scenario, window: Window):
    from repro.experiments.runner import run_scenario
    from repro.net.audit import assert_conserved

    result = run_scenario(scenario)
    window.finished = clock()  # the audit below is a check, not part of the cell
    assert_conserved(window.network)
    return result


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def sim_sample(args) -> dict:
    imported = _import_simulator()
    with Window() as window:
        result = _run_cell(workloads.scenario(args.workload, args.smoke, args.sim_seed), window)
    return {
        "fingerprint": canonical_fingerprint(result),
        "events": result.events,
        "import_s": imported - T0,
        "setup_s": window.enter - T0,
        "loop_s": window.loop_s,
        "cell_s": window.finished - T0,
        "rss_mb": _rss_mb(),
        "wrapped": _wrapped(),
    }


class _CallCounter:
    """cProfile switched on only while the run loop runs."""

    def __init__(self) -> None:
        import cProfile

        self.profile = cProfile.Profile()

    def enter(self) -> None:
        self.profile.enable()

    def exit(self) -> None:
        self.profile.disable()

    def total_calls(self) -> int:
        import pstats

        return pstats.Stats(self.profile).total_calls


def sim_count(args) -> dict:
    counter = _CallCounter()
    with Window(counter.enter, counter.exit) as window:
        result = _run_cell(workloads.scenario(args.workload, args.smoke, args.sim_seed), window)
    return {
        "fingerprint": canonical_fingerprint(result),
        "events": result.events,
        "py_calls": counter.total_calls(),
    }


def sim_trace(args, layers=ledger.SIM_LAYERS) -> dict:
    imported = _import_simulator()
    # Installed before the network is built (ports cache bound methods)
    # and after the import is timed.
    tracer = ledger.Tracer(layers, callbacks=True).install()
    try:
        with Window(tracer.start, tracer.stop) as window:
            result = _run_cell(workloads.scenario(args.workload, args.smoke, args.sim_seed),
                               window)
    finally:
        tracer.uninstall()
    loop_s = window.loop_s
    led = tracer.ledger(loop_s)
    layers = led["layers"]
    # The run loop itself: everything in the window outside the top-level
    # calls (callbacks, hooks).  The network runs once, so every logical
    # event is inside the window.
    dispatch_s = loop_s - led["top_s"]
    layers["sim.dispatch"] = {
        "calls": result.events,
        "self_s": dispatch_s,
        "share": dispatch_s / loop_s,
        "ns_per_call": dispatch_s / result.events * 1e9,
    }
    calls = led["entry_calls"]
    enqueues = calls["net.queues:enqueue"]
    sends = calls["net.link:send"]
    return {
        "fingerprint": canonical_fingerprint(result),
        "events": result.events,
        "loop_s": loop_s,
        "import_s": imported - T0,
        "build_s": window.build_s,
        "wrapper_ns": ledger.wrapper_overhead_ns(),
        "closure_error": led["closure_error"],
        "unwrapped_callbacks": led["unwrapped_callbacks"],
        "layers": layers,
        "entry_calls": calls,
        "ratios": {
            "core.detour.detour_ratio": _ratio(result.detours, calls["net.switch:receive"]),
            "net.link.fast_path_share": 1.0 - enqueues / sends if sends else 0.0,
            "net.queues.drop_ratio": _ratio(
                window.network.counters().total("queue_drops"), enqueues),
            "transport.retx_ratio": _ratio(
                result.retransmits, calls["transport:_transmit_segment"]),
        },
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _grid(args, layers=None) -> dict:
    """Run the sweep grid; with ``layers``, trace them over ``run_grid``."""
    from repro.experiments import RunJournal, RunTelemetry, run_grid

    cells = workloads.sweep_cells(args.smoke, args.order_seed, args.sim_seed)
    imported = clock()
    tracer = ledger.Tracer(layers).install() if layers else None
    os.makedirs(WORK, exist_ok=True)
    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=WORK)
    try:
        journal = RunJournal(journal_dir)
        telemetry = RunTelemetry()
        if tracer:
            tracer.start()
        entered = clock()
        results = run_grid(cells, seeds=(args.sim_seed,), workers=workloads.SWEEP_WORKERS,
                           journal=journal, telemetry=telemetry)
        grid_s = clock() - entered
        if tracer:
            tracer.stop()
        journaled = journal.completed_count()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(journal_dir, ignore_errors=True)
    if telemetry.failures or len(results) != len(cells):
        reasons = "; ".join(f.reason for f in telemetry.failures)
        raise RuntimeError(f"{len(results)}/{len(cells)} cells ok: {reasons}")
    if journaled != len(cells):
        raise RuntimeError(f"{journaled} journal entries for {len(cells)} cells")
    record = {
        "fingerprint": _combined_fingerprint(results),
        "events": sum(result.events for result in results.values()),
        "cells": len(cells),
        "import_s": imported - T0,
        "setup_s": entered - T0,
        "loop_s": grid_s,
        "cell_wall_s": sum(result.wall_seconds for result in results.values()),
    }
    if tracer:
        record["ledger"] = tracer.ledger(grid_s)
    return record


def sweep_sample(args) -> dict:
    record = _grid(args)
    record["cell_s"] = clock() - T0
    record["rss_mb"] = _rss_mb(children=True)
    record["wrapped"] = _wrapped()
    return record


def sweep_count(args) -> dict:
    counter = _CallCounter()
    with Window(counter.enter, counter.exit) as window:
        results = {key: _run_cell(cell, window)
                   for key, cell in workloads.count_cells(args.sim_seed).items()}
    return {
        "fingerprint": _combined_fingerprint(results),
        "events": sum(result.events for result in results.values()),
        "py_calls": counter.total_calls(),
    }


def sweep_trace(args) -> dict:
    record = _grid(args, ledger.EXPERIMENT_LAYERS)
    led = record["ledger"]
    grid_s = record["loop_s"]
    return {
        "fingerprint": record["fingerprint"],
        "events": record["events"],
        "loop_s": grid_s,
        "import_s": record["import_s"],
        "build_s": 0.0,
        "wrapper_ns": ledger.wrapper_overhead_ns(),
        # No scheduler callbacks run in this process, so there is nothing
        # for the layers to leave unowned: the error is 0 by construction.
        "closure_error": led["closure_error"],
        "unwrapped_callbacks": {},
        "layers": led["layers"],
        "entry_calls": led["entry_calls"],
        "overhead_ms_per_cell": (grid_s * workloads.SWEEP_WORKERS - record["cell_wall_s"])
        / record["cells"] * 1e3,
    }


RUNS = {
    ("sample", workloads.SIM): sim_sample,
    ("count", workloads.SIM): sim_count,
    ("trace", workloads.SIM): sim_trace,
    ("sample", workloads.SWEEP): sweep_sample,
    ("count", workloads.SWEEP): sweep_count,
    ("trace", workloads.SWEEP): sweep_trace,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("sample", "count", "trace"))
    parser.add_argument("workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sim-seed", type=int, default=0)
    parser.add_argument("--order-seed", type=int, default=0)
    args = parser.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload][0]
    try:
        record = RUNS[(args.kind, kind)](args)
        record["ok"] = True
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed run
        record = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
