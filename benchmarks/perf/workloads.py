"""The benchmark's four workloads and their K=4 smoke variants.

Importing this module does not import ``repro``; the builders do, so
the parent process of the benchmark stays free of simulator code.
"""

from __future__ import annotations

import random

SIM = "sim"
SWEEP = "sweep"

# name -> (kind, why)
WORKLOADS: dict[str, tuple[str, str]] = {
    "incast_k8_dibs": (
        SIM,
        "paper K=8 incast under DIBS: the detour path; continues the "
        "BENCH_engine.json fig07 trajectory (614,433 events)"),
    "incast_k8_dba": (
        SIM,
        "same traffic on dibs-dba: the shared pool absorbs the burst, so no "
        "detours and every send goes through the queue layer"),
    "flapstorm_ctl": (
        SIM,
        "flap storm with controller and mid-run audits: the only workload "
        "where faults, control, jitter and loss recovery carry weight"),
    "sweep_k4_journal": (
        SWEEP,
        "64 short K=4 cells on 2 workers into a fresh journal: the executor, "
        "journal and process spawn layers"),
}

SWEEP_SCHEMES = ("dctcp", "dibs", "dibs-dba", "bshare")
SWEEP_BUFFERS = tuple(range(10, 26))
SMOKE_SWEEP_BUFFERS = (10, 25)
SWEEP_WORKERS = 2
# The sweep's count run profiles one cell per scheme (the smallest
# buffer) instead of all 64: the count repeats exactly either way, and
# the subset keeps the count run short.
COUNT_BUFFER = 10


def scenario(name: str, smoke: bool = False, seed: int = 0):
    """The pinned scenario of a simulation workload."""
    from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
    from repro.experiments.scenarios import flap_storm

    if name in ("incast_k8_dibs", "incast_k8_dba"):
        scheme = "dibs" if name == "incast_k8_dibs" else "dibs-dba"
        # The smoke variant keeps the paper's 300 qps on the K=4 tree.
        base = SCALED_DEFAULTS.with_overrides(qps=300.0) if smoke else PAPER_DEFAULTS
        return base.with_overrides(
            name=name, scheme=scheme, duration_s=0.05, drain_s=0.3, seed=seed)
    if name == "flapstorm_ctl":
        duration, drain = (0.5, 0.5) if smoke else (4.0, 2.0)
        return flap_storm(
            duration_s=duration, drain_s=drain, controller=True,
            invariant_check_interval_s=0.05, seed=seed)
    raise ValueError(f"{name!r} is not a simulation workload")


def _cell(scheme: str, buffer_pkts: int, seed: int):
    from repro.experiments import SCALED_DEFAULTS

    return SCALED_DEFAULTS.with_overrides(
        name=f"sweep-{scheme}-b{buffer_pkts}", scheme=scheme,
        buffer_pkts=buffer_pkts, duration_s=0.02, drain_s=0.1, qps=200.0,
        bg_enabled=False, seed=seed)


def sweep_cells(smoke: bool = False, order_seed: int = 0, seed: int = 0) -> dict:
    """The sweep grid, keyed ``"<scheme>/b<buffer>"``.

    ``order_seed`` shuffles the order in which cells reach the executor:
    it changes which cells share the workers and the journal's write
    order, never a cell's result.
    """
    buffers = SMOKE_SWEEP_BUFFERS if smoke else SWEEP_BUFFERS
    keys = [(scheme, b) for scheme in SWEEP_SCHEMES for b in buffers]
    random.Random(order_seed).shuffle(keys)
    return {f"{scheme}/b{b}": _cell(scheme, b, seed) for scheme, b in keys}


def count_cells(seed: int = 0) -> dict:
    """The sweep cells the count run profiles."""
    return {f"{scheme}/b{COUNT_BUFFER}": _cell(scheme, COUNT_BUFFER, seed)
            for scheme in SWEEP_SCHEMES}
