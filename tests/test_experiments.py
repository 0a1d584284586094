"""Unit tests for the experiment harness (scenarios, runner, sweeps, report)."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.report import format_cdf, format_sweep, format_table
from repro.experiments.runner import (
    UNMEASURED_FIELDS,
    ExperimentResult,
    canonical_payload,
    fingerprint,
    result_to_dict,
    run_scenario,
)
from repro.experiments.scenarios import PAPER_DEFAULTS, SCALED_DEFAULTS, SCHEMES, Scenario
from repro.experiments.sweep import PAPER_RANGES, SCALED_RANGES, compare_schemes, sweep
from repro.net.queues import DynamicBufferQueue, EcnQueue, PFabricQueue
from repro.transport.base import TcpConfig
from repro.transport.pfabric import PFabricConfig

# A tiny, fast scenario for harness tests.
TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny", duration_s=0.05, drain_s=0.5, qps=60.0, incast_degree=6,
    bg_interarrival_s=0.05,
)


class TestScenarioAssembly:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_builds(self, scheme):
        scenario = TINY.with_overrides(scheme=scheme)
        net = scenario.build_network()
        assert len(net.hosts) == 16

    def test_dibs_scheme_enables_detouring(self):
        assert TINY.with_overrides(scheme="dibs").dibs_config().enabled
        assert not TINY.with_overrides(scheme="dctcp").dibs_config().enabled

    def test_dibs_hosts_disable_fast_retransmit(self):
        cfg = TINY.with_overrides(scheme="dibs").transport_config()
        assert cfg.fast_retransmit_threshold is None
        cfg = TINY.with_overrides(scheme="dctcp").transport_config()
        assert cfg.fast_retransmit_threshold == 3

    def test_dupack_override(self):
        cfg = TINY.with_overrides(scheme="dibs", dupack_threshold=10).transport_config()
        assert cfg.fast_retransmit_threshold == 10

    def test_pfabric_transport(self):
        cfg = TINY.with_overrides(scheme="pfabric").transport_config()
        assert isinstance(cfg, PFabricConfig)

    def test_ttl_propagates_to_hosts(self):
        cfg = TINY.with_overrides(scheme="dibs", ttl=12).transport_config()
        assert isinstance(cfg, TcpConfig)
        assert cfg.ttl == 12

    def test_queue_disciplines_match_scheme(self):
        net = TINY.with_overrides(scheme="pfabric").build_network()
        assert isinstance(net.switch("edge_0_0").ports[0].queue, PFabricQueue)
        net = TINY.with_overrides(scheme="dibs-dba").build_network()
        assert isinstance(net.switch("edge_0_0").ports[0].queue, DynamicBufferQueue)
        net = TINY.with_overrides(scheme="dctcp").build_network()
        assert isinstance(net.switch("edge_0_0").ports[0].queue, EcnQueue)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            TINY.with_overrides(scheme="bogus").validate()

    def test_oversubscription_threads_through(self):
        topo = TINY.with_overrides(oversubscription=4.0).build_topology()
        fabric_rates = {
            link.rate_bps
            for link in topo.links
            if not link.node_a.startswith("host") and not link.node_b.startswith("host")
        }
        assert fabric_rates == {0.25e9}

    def test_paper_defaults_match_table1(self):
        assert PAPER_DEFAULTS.k == 8
        assert PAPER_DEFAULTS.buffer_pkts == 100
        assert PAPER_DEFAULTS.min_rto_s == 0.010
        assert PAPER_DEFAULTS.init_cwnd_pkts == 10
        assert PAPER_DEFAULTS.qps == 300.0
        assert PAPER_DEFAULTS.incast_degree == 40
        assert PAPER_DEFAULTS.response_bytes == 20_000

    @pytest.mark.parametrize("topology", ["testbed", "leafspine", "linear", "jellyfish"])
    def test_alternate_topologies_build(self, topology):
        scenario = TINY.with_overrides(topology=topology)
        topo = scenario.build_topology()
        topo.validate()


class TestRunner:
    def test_run_produces_query_metrics(self):
        result = run_scenario(TINY.with_overrides(scheme="dibs"))
        assert result.queries_started > 0
        assert result.queries_completed == result.queries_started
        assert result.qct_p99_ms is not None and result.qct_p99_ms > 0

    def test_background_only(self):
        result = run_scenario(TINY.with_overrides(query_enabled=False))
        assert result.queries_started == 0
        assert result.qct_p99_ms is None
        assert result.bg_flows_started > 0

    def test_query_only(self):
        result = run_scenario(TINY.with_overrides(bg_enabled=False))
        assert result.bg_flows_started == 0
        assert result.queries_started > 0

    def test_dibs_beats_dctcp_at_tiny_buffers(self):
        base = TINY.with_overrides(buffer_pkts=10, ecn_threshold_pkts=4)
        dctcp = run_scenario(base.with_overrides(scheme="dctcp"))
        dibs = run_scenario(base.with_overrides(scheme="dibs"))
        assert dibs.qct_p99_ms < dctcp.qct_p99_ms
        assert dibs.total_drops == 0
        assert dctcp.total_drops > 0

    def test_result_row_format(self):
        result = run_scenario(TINY)
        row = result.row()
        assert set(row) == {
            "scenario", "scheme", "qct_p99_ms", "bg_fct_p99_ms",
            "queries", "drops", "detours", "timeouts",
        }

    def test_same_seed_reproducible(self):
        a = run_scenario(TINY)
        b = run_scenario(TINY)
        assert a.qct_values == b.qct_values
        assert a.detours == b.detours


PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _perf_workloads():
    spec = importlib.util.spec_from_file_location("perf_workloads", PERF_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFingerprint:
    @pytest.mark.parametrize("workload", ["flapstorm_ctl", "incast_k8_dibs"])
    def test_reproduces_the_benchmark_pins(self, monkeypatch, workload):
        # The benchmark's children hash with their own copy of the canonical
        # form; these pins hold the two definitions together.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_ELIDE_TX", raising=False)
        pins = json.loads((PERF_DIR / "pins.json").read_text())
        result = run_scenario(_perf_workloads().scenario(workload, smoke=True))
        assert fingerprint(result) == pins[f"smoke/{workload}"]["fingerprint"]
        assert result.events == pins[f"smoke/{workload}"]["events"]

    def test_every_field_is_measured_or_named_unmeasured(self):
        measured = set(canonical_payload(run_scenario(TINY)))
        for f in dataclasses.fields(ExperimentResult):
            assert (f.name in measured) != (f.name in UNMEASURED_FIELDS), f.name
        assert "timeseries" in measured

    def test_payload_forms_agree(self):
        result = run_scenario(TINY)
        wire = json.loads(json.dumps(result_to_dict(result), default=str))
        assert canonical_payload(wire) == canonical_payload(result)
        assert fingerprint(wire) == fingerprint(result) == result.fingerprint
        assert "fingerprint" not in result_to_dict(result)


class TestSweep:
    def test_sweep_covers_grid(self):
        results = sweep(TINY, "buffer_pkts", [10, 30], schemes=("dctcp", "dibs"))
        assert set(results) == {(10, "dctcp"), (10, "dibs"), (30, "dctcp"), (30, "dibs")}

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(TINY, "nonsense", [1])

    def test_compare_schemes(self):
        out = compare_schemes(TINY, ("dctcp", "dibs"))
        assert set(out) == {"dctcp", "dibs"}

    def test_ranges_cover_paper_table2(self):
        assert set(PAPER_RANGES) == set(SCALED_RANGES)
        assert PAPER_RANGES["qps"]["default"] == 300
        assert PAPER_RANGES["incast_degree"]["values"] == [40, 60, 80, 100]
        assert PAPER_RANGES["ttl"]["values"][:4] == [12, 24, 36, 48]


class TestReport:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="T")

    def test_format_sweep(self):
        results = sweep(TINY, "buffer_pkts", [10], schemes=("dibs",))
        text = format_sweep(results, "buffer_pkts", title="Fig X")
        assert "Fig X" in text
        assert "dibs:qct_p99_ms" in text
        assert "10" in text

    def test_format_cdf(self):
        pts = [(float(i), (i + 1) / 10) for i in range(10)]
        text = format_cdf(pts, title="cdf", samples=5)
        assert "cdf" in text
        assert "fraction" in text

    def test_format_cdf_empty(self):
        assert "(no data)" in format_cdf([])
