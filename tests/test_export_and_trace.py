"""Tests for result export and trace replay."""

import csv
import json

import pytest

from repro.core.config import DibsConfig
from repro.metrics.export import (
    export_result_json,
    flows_to_records,
    queries_to_records,
    write_flows_csv,
    write_queries_csv,
)
from repro.net.network import Network
from repro.topo import fat_tree
from repro.workload.tracefile import (
    TraceEntry,
    TraceReplay,
    load_trace,
    record_trace,
    save_trace,
)


def small_run():
    net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=1)
    for i in range(1, 5):
        net.start_flow(f"host_{i}", "host_0", 5_000, transport="dibs", kind="query")
    q = net.collector.new_query(0, 0, 0.0)
    for f in net.collector.flows:
        q.attach(f)
    net.run(until=1.0)
    return net


class TestExport:
    def test_flow_records_complete(self):
        net = small_run()
        records = flows_to_records(net.collector)
        assert len(records) == 4
        assert all(r["completed"] for r in records)
        assert all(r["fct"] > 0 for r in records)

    def test_query_records(self):
        net = small_run()
        records = queries_to_records(net.collector)
        assert len(records) == 1
        assert records[0]["degree"] == 4
        assert records[0]["completed"]

    def test_csv_roundtrip(self, tmp_path):
        net = small_run()
        path = write_flows_csv(net.collector, tmp_path / "flows.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["kind"] == "query"

    def test_queries_csv(self, tmp_path):
        net = small_run()
        path = write_queries_csv(net.collector, tmp_path / "q.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_result_json(self, tmp_path):
        from repro.experiments import SCALED_DEFAULTS, run_scenario

        result = run_scenario(SCALED_DEFAULTS.with_overrides(
            duration_s=0.02, drain_s=0.3, qps=100, incast_degree=6, bg_enabled=False,
        ))
        path = export_result_json(result, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        assert payload["scenario"]["scheme"] == "dibs"
        assert payload["queries_started"] >= 1
        assert isinstance(payload["qct_values"], list)
        assert payload["fingerprint"] == result.fingerprint


class TestTraceEntries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEntry(-1.0, "host_0", "host_1", 100)
        with pytest.raises(ValueError):
            TraceEntry(0.0, "host_0", "host_1", 0)
        with pytest.raises(ValueError):
            TraceEntry(0.0, "host_0", "host_0", 100)

    def test_save_load_roundtrip(self, tmp_path):
        entries = [
            TraceEntry(0.002, "host_1", "host_0", 5_000, "query"),
            TraceEntry(0.001, "host_2", "host_3", 10_000),
        ]
        path = save_trace(entries, tmp_path / "t.csv")
        loaded = load_trace(path)
        assert loaded[0].start_s == 0.001  # sorted
        assert loaded[1].kind == "query"
        assert loaded == sorted(entries, key=lambda e: e.start_s)

    def test_numeric_host_names_canonicalized(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_s,src,dst,size_bytes\n0.0,1,0,1000\n")
        entries = load_trace(path)
        assert entries[0].src == "host_1"
        assert entries[0].dst == "host_0"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,who\n1,2\n")
        with pytest.raises(ValueError):
            load_trace(path)


class TestReplay:
    def test_replay_executes_trace(self):
        entries = [
            TraceEntry(0.001 * i, f"host_{i + 1}", "host_0", 5_000, "query")
            for i in range(5)
        ]
        net = Network(fat_tree(k=4), dibs=DibsConfig(), seed=2)
        replay = TraceReplay(net, entries, transport="dibs")
        replay.start()
        net.run(until=1.0)
        assert len(replay.flows) == 5
        assert all(f.completed for f in replay.flows)
        assert [f.start_time for f in replay.flows] == [0.0, 0.001, 0.002, 0.003, 0.004]

    def test_record_then_replay_identical_workload(self, tmp_path):
        net = small_run()
        path = record_trace(net.collector, net, tmp_path / "rec.csv")
        entries = load_trace(path)
        assert len(entries) == 4

        net2 = Network(fat_tree(k=4), dibs=DibsConfig(), seed=1)
        replay = TraceReplay(net2, entries, transport="dibs")
        replay.start()
        net2.run(until=1.0)
        # Same workload, same seed, same code path => identical FCTs.
        original = sorted(f.fct for f in net.collector.flows)
        replayed = sorted(f.fct for f in replay.flows)
        assert original == replayed

    def test_past_entry_rejected(self):
        net = Network(fat_tree(k=4), seed=0)
        net.run(until=0.5)
        replay = TraceReplay(net, [TraceEntry(0.1, "host_0", "host_1", 100)])
        with pytest.raises(ValueError):
            replay.start()
