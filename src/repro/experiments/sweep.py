"""Parameter sweeps (Table 2) and scheme comparisons.

``sweep`` runs one scenario per (parameter value x scheme) and returns the
results keyed by (value, scheme) — exactly the series the paper plots in
Figures 7–16.  The ranges of Table 2 are recorded in
:data:`PAPER_RANGES`; the scaled ranges the default benches use are in
:data:`SCALED_RANGES`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.experiments.parallel import run_grid
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import Scenario

__all__ = ["sweep", "compare_schemes", "PAPER_RANGES", "SCALED_RANGES"]

# Table 2 of the paper: parameter ranges explored, bold defaults.
PAPER_RANGES = {
    "bg_interarrival_s": {"values": [0.010, 0.020, 0.040, 0.080, 0.120], "default": 0.120},
    "qps": {"values": [300, 500, 1000, 1500, 2000, 6000, 8000, 10000, 12000, 15000], "default": 300},
    "response_bytes": {"values": [20_000, 30_000, 40_000, 50_000, 160_000], "default": 20_000},
    "incast_degree": {"values": [40, 60, 80, 100], "default": 40},
    "buffer_pkts": {"values": [1, 5, 10, 25, 40, 100, 200], "default": 100},
    "ttl": {"values": [12, 24, 36, 48, 255], "default": 255},
    "oversubscription": {"values": [1, 2, 3, 4], "default": 1},
}

# The scaled equivalents used by the default bench suite (K=4, 16 hosts,
# 30-pkt buffers): the burst-to-buffer and degree-to-cluster ratios track
# the paper's.
SCALED_RANGES = {
    "bg_interarrival_s": {"values": [0.010, 0.020, 0.040, 0.080, 0.120], "default": 0.120},
    "qps": {"values": [300, 500, 1000, 1500, 2000], "default": 300},
    "response_bytes": {"values": [20_000, 30_000, 40_000, 50_000], "default": 20_000},
    "incast_degree": {"values": [6, 9, 12, 15], "default": 12},
    "buffer_pkts": {"values": [5, 10, 20, 30, 60, 100], "default": 30},
    "ttl": {"values": [12, 24, 36, 48, 255], "default": 255},
    "oversubscription": {"values": [1, 2, 3, 4], "default": 1},
}


def sweep(
    base: Scenario,
    parameter: str,
    values: Iterable,
    schemes: Sequence[str] = ("dctcp", "dibs"),
    seeds: Sequence[int] = (0,),
    run_timeout_s: Optional[float] = None,
    **grid_kwargs,
) -> dict[tuple[object, str], ExperimentResult]:
    """Run ``base`` once per (value, scheme, seed) combination, pooling
    seeds into one result per (value, scheme).

    ``parameter`` must be a :class:`Scenario` field name.  Results are
    keyed by ``(value, scheme)``.

    The grid executes through :func:`repro.experiments.parallel.run_grid`,
    which takes the other keyword arguments (``workers``, ``max_retries``,
    ``progress``, ``telemetry``, ``journal``, ``resume``, ``heartbeat``,
    ``options``): with ``workers > 1`` the (value, scheme, seed) runs fan
    out across worker processes — pooled results are identical to the
    serial run for the same seeds — and a run that crashes or exceeds
    ``run_timeout_s`` is retried ``max_retries`` times (with jittered
    exponential backoff and escalating timeouts), then recorded in
    ``telemetry`` (its cell is pooled from the surviving seeds, or omitted
    if none survive).  With a ``journal``, ``resume=True`` reloads
    journaled runs so an interrupted sweep picks up where it left off and
    produces bit-identical pooled results.
    """
    if not hasattr(base, parameter):
        raise ValueError(f"scenario has no parameter {parameter!r}")
    cells: dict[tuple[object, str], Scenario] = {}
    for value in values:
        for scheme in schemes:
            cells[(value, scheme)] = base.with_overrides(
                **{parameter: value},
                scheme=scheme,
                name=f"{base.name}:{parameter}={value}:{scheme}",
            )
    return run_grid(cells, seeds=seeds, timeout_s=run_timeout_s, **grid_kwargs)


def compare_schemes(
    base: Scenario,
    schemes: Sequence[str],
    seeds: Sequence[int] = (0,),
    workers: int = 1,
) -> dict[str, ExperimentResult]:
    """Run the same operating point under several schemes."""
    cells = {
        scheme: base.with_overrides(scheme=scheme, name=f"{base.name}:{scheme}")
        for scheme in schemes
    }
    return run_grid(cells, seeds=seeds, workers=workers)
