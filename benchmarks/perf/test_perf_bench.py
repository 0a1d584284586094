"""Smoke test of the outside-in performance benchmark, on K=4 variants.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the contract command for every workload (end-to-end and traced)
plus a two-round interleaved report of timed and count runs, all on
the small ``--smoke`` scenarios, so it finishes in under a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import pytest

import child
import ledger
import run
import workloads

NAMES = tuple(workloads.WORKLOADS)


def _contract(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--smoke", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def contract() -> dict:
    return {(name, trace): _contract(name, trace) for name in NAMES for trace in (0, 1)}


@pytest.fixture(scope="module")
def report() -> dict:
    return run.collect(rounds=2, smoke=True, trace=False, log=lambda *_: None)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads(run.BENCHMARK.read_text())


def test_benchmark_json_matches_the_harness(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


def test_every_metric_prints_with_its_unit(contract, spec):
    for name in NAMES:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = contract[(name, trace)]
            assert result["correct"], (name, trace)
            assert result["attempted"] >= 1 + run.MIN_SAMPLES
            assert result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in listed}
            for metric in listed:
                printed = result["metrics"][metric["name"]]
                assert printed["unit"] == metric["unit"]
                assert isinstance(printed["value"], (int, float))
        for metric in spec["end_to_end"]:
            assert contract[(name, 0)]["metrics"][metric["name"]]["value"] > 0


def test_py_calls_per_event_repeats_exactly(contract, report):
    for name in NAMES:
        pin = run.load_pins()[f"smoke/{name}"]
        events = pin.get("count_events", pin["events"])
        again = report[name]["py_calls"] / events
        assert contract[(name, 0)]["metrics"]["py_calls_per_event"]["value"] == again


def test_perturbed_scenario_fails_the_fingerprint_check():
    record = run.launch("sample", "incast_k8_dibs", smoke=True, sim_seed=1)
    assert record["ok"]
    problems = run.check("sample", "incast_k8_dibs", record, run.load_pins(), smoke=True)
    assert any(problem.startswith("fingerprint") for problem in problems)


def test_report_is_clean(report):
    for name, entry in report.items():
        assert entry["failures"] == [], name
        assert entry["failed_share"] == 0.0
        assert len(entry["samples"]) == 2
    text = run._format_report(report)
    for metric, unit in run.END_TO_END.items():
        assert f"{metric} " in text and f" {unit} " in text


def _layers(contract, name) -> dict:
    return {metric: printed["value"]
            for metric, printed in contract[(name, 1)]["metrics"].items()}


def test_ledger_closes(contract):
    for name in NAMES:
        layers = _layers(contract, name)
        assert layers["trace.closure_error"] <= run.CLOSURE_TOLERANCE
        assert layers["trace.wrapper_ns"] > 0
        if name != "sweep_k4_journal":
            assert layers["trace.overhead_ratio"] > 1.0
            shares = sum(layers[f"{layer}.share"] for layer in run.LAYERS)
            assert shares == pytest.approx(1.0, abs=run.CLOSURE_TOLERANCE)


def test_unwrapped_callback_breaks_closure():
    # Port._deliver is a scheduled callback; without its wrapper its time
    # belongs to no layer, and the closure check must say so.
    layers = dict(ledger.SIM_LAYERS)
    layers["net.link"] = [("repro.net.link", "Port", ("send", "_tx_next", "set_down", "set_up"))]
    args = argparse.Namespace(workload="flapstorm_ctl", smoke=True, sim_seed=0)
    record = child.sim_trace(args, layers)
    record["ok"] = True
    problems = run.check("trace", "flapstorm_ctl", record, run.load_pins(), smoke=True)
    assert record["closure_error"] > run.CLOSURE_TOLERANCE
    assert any("Port._deliver" in problem for problem in problems)
    assert ledger.wrapped_count(ledger.SIM_LAYERS) == 0


def test_layer_predictions(contract):
    layers = {name: _layers(contract, name) for name in NAMES}
    assert layers["incast_k8_dibs"]["core.detour.calls"] > 0
    assert layers["incast_k8_dba"]["core.detour.calls"] == 0
    assert (layers["incast_k8_dba"]["net.queues.calls"]
            >= 2 * layers["incast_k8_dibs"]["net.queues.calls"])
    for name in NAMES:
        on_flapstorm = name == "flapstorm_ctl"
        assert (layers[name]["faults.calls"] > 0) == on_flapstorm
        assert (layers[name]["control.calls"] > 0) == on_flapstorm
        on_sweep = name == "sweep_k4_journal"
        assert (layers[name]["experiments.executor.calls"] > 0) == on_sweep
        assert (layers[name]["experiments.journal.calls"] > 0) == on_sweep
        assert (layers[name]["sim.dispatch.calls"] > 0) != on_sweep


def test_timed_samples_run_unwrapped_methods(report):
    for entry in report.values():
        assert all(sample["wrapped"] == 0 for sample in entry["samples"])
    # The detector is not vacuous: it sees wrappers when they are there.
    tracer = ledger.Tracer(ledger.SIM_LAYERS).install()
    try:
        assert ledger.wrapped_count(ledger.SIM_LAYERS) > 0
    finally:
        tracer.uninstall()
    assert ledger.wrapped_count(ledger.SIM_LAYERS) == 0
