"""§5.6 — fairness among long-lived flows.

Hosts are split into node-disjoint pairs with N long-lived flows in both
directions (paper: 64 pairs x N=1..16 on 128 hosts, Jain's index > 0.9).
Scaled: 8 pairs on 16 hosts.  Absolute Jain values on a small fat-tree are
limited by flow-level ECMP collisions (some flows share a fabric link), so
we report DIBS alongside plain DCTCP — the paper's point is that detouring
does not *degrade* fairness.
"""

from repro.core.config import DibsConfig
from repro.experiments import PAPER_DEFAULTS, SCALED_DEFAULTS
from repro.experiments.report import format_table
from repro.workload.longlived import LongLivedFlows

import common

NAME = "fairness_longlived"


def _jain(scenario, flows_per_direction):
    net = scenario.build_network()
    workload = LongLivedFlows(net, flows_per_direction, transport=scenario.transport_config())
    workload.start()
    net.run(until=scenario.duration_s)
    return workload.fairness(until=scenario.duration_s), net.counters().total_detours()


def run(full: bool = False) -> str:
    base = (PAPER_DEFAULTS if full else SCALED_DEFAULTS).with_overrides(
        duration_s=0.5 if full else 0.08, name="fairness",
    )
    counts = [1, 2, 4, 8, 16] if full else [1, 2, 4, 8]
    rows = []
    for n in counts:
        row = {"flows_per_direction": n, "total_flows": len(base.build_topology().hosts) * n}
        for scheme in ("dctcp", "dibs"):
            jain, detours = _jain(base.with_overrides(scheme=scheme), n)
            row[f"{scheme}:jain"] = f"{jain:.3f}"
            if scheme == "dibs":
                row["dibs:detours"] = detours
        rows.append(row)
    title = (
        "Section 5.6: Jain's fairness index over long-lived flow goodput.\n"
        "Paper shape: index > 0.9 for all N at K=8 (128 hosts).  On the\n"
        "scaled K=4 fabric ECMP collisions cap the absolute index; the\n"
        "preserved result is dibs:jain ~= dctcp:jain (DIBS adds no unfairness)."
    )
    return format_table(rows, title=title)


def test_fairness_longlived(benchmark):
    common.bench_entry(benchmark, NAME, lambda: run(False))


if __name__ == "__main__":
    common.cli_main(NAME, run)
