"""Packet-odyssey forensics: spans, FCT attribution, flight recorder, explain.

The load-bearing properties: span sampling is a pure function of
(seed, flow, seq) so span sets are bit-identical across worker fan-out
and journal resume (and one is pinned in the golden corpus); and the
instrumentation rides run-loop hooks, so metrics are bit-identical with
spans on or off.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import RunOptions, canonical_payload, run_pooled, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS, flap_storm
from repro.obs.forensics import (
    attribute_flows,
    format_attribution,
    format_odyssey,
    load_spans,
    span_components,
)
from repro.obs.spans import span_sampled
from repro.sim.engine import LivelockError
from tests import golden

TINY = SCALED_DEFAULTS.with_overrides(
    name="forensics-tiny", duration_s=0.02, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)
SPANS = RunOptions(span_sample_rate=0.25)


def _span_lines(result):
    return [json.dumps(r, sort_keys=True) for r in result.span_records]


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
class TestSpanSampling:
    def test_sampler_is_a_pure_function(self):
        picks = {(f, s): span_sampled(7, f, s, 0.25)
                 for f in range(20) for s in range(50)}
        # Same key, same verdict — order and repetition never matter.
        for (f, s), verdict in picks.items():
            assert span_sampled(7, f, s, 0.25) is verdict
        # The seed reshuffles which packets are picked.
        other = {(f, s): span_sampled(8, f, s, 0.25) for (f, s) in picks}
        assert other != picks

    def test_rate_endpoints(self):
        keys = [(f, s) for f in range(10) for s in range(100)]
        assert not any(span_sampled(0, f, s, 0.0) for f, s in keys)
        assert all(span_sampled(0, f, s, 1.0) for f, s in keys)
        frac = sum(span_sampled(0, f, s, 0.25) for f, s in keys) / len(keys)
        assert 0.15 < frac < 0.35


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestSpanDeterminism:
    def test_metrics_identical_with_spans_on_or_off(self):
        assert canonical_payload(run_scenario(TINY)) == canonical_payload(run_scenario(TINY, SPANS))

    def test_span_set_matches_golden_corpus(self):
        # Recorded while the heap engine and the unelided transmit path
        # gave the same span lines and metrics.
        result = run_scenario(TINY, SPANS)
        assert result.span_records
        assert (dict(golden.measured(result), spans=golden.digest(_span_lines(result)))
                == golden.expected("spans", "tiny"))

    def test_workers_and_resume_identical(self, tmp_path):
        from repro.experiments.journal import RunJournal

        opts = RunOptions(span_sample_rate=0.25, trace_file=str(tmp_path / "t-{seed}.jsonl"))
        serial = run_pooled(TINY, seeds=(0, 1), options=opts)
        fanned = run_pooled(TINY, seeds=(0, 1), workers=2, options=opts)
        assert _span_lines(fanned) == _span_lines(serial)
        # A resumed run reloads journaled cells; spans come back from the
        # per-seed trace files bit-identically.
        journal = RunJournal(tmp_path / "journal")
        run_pooled(TINY, seeds=(0, 1), journal=journal, resume=True, options=opts)
        resumed = run_pooled(TINY, seeds=(0, 1), journal=RunJournal(tmp_path / "journal"),
                             resume=True, options=opts)
        assert _span_lines(resumed) == _span_lines(serial)
        assert canonical_payload(resumed) == canonical_payload(serial)


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
class TestAttribution:
    def test_components_account_for_delivered_latency(self):
        result = run_scenario(TINY, SPANS)
        delivered = [s for s in result.span_records if s["status"] == "delivered"]
        assert delivered
        for span in delivered:
            parts = span_components(span)
            # Per-hop queueing delays sum to the span's queueing component,
            # detoured hops included.
            assert parts["queueing_s"] == pytest.approx(
                sum(h.get("q_s", 0.0) for h in span["hops"]))
            assert parts["latency_s"] == pytest.approx(
                parts["serialization_s"] + parts["queueing_s"]
                + parts["propagation_s"])
            assert parts["latency_s"] == pytest.approx(span["t"] - span["t_send"])

    def test_detour_hops_carry_cause_and_port(self):
        result = run_scenario(TINY, SPANS)
        assert result.detours > 0
        detoured = [h for s in result.span_records for h in s["hops"]
                    if h.get("detour")]
        assert detoured  # at rate 0.25 some sampled packet detoured
        for hop in detoured:
            assert hop["cause"] in ("queue_full", "policy")
            assert isinstance(hop["desired"], int)

    def test_rows_are_ranked_and_formatted(self):
        result = run_scenario(TINY, SPANS)
        rows = attribute_flows(result.span_records)
        fcts = [r["span_fct_s"] for r in rows if r["span_fct_s"] is not None]
        assert fcts == sorted(fcts, reverse=True)
        table = format_attribution(rows, limit=5)
        assert "queueing" in table and str(rows[0]["flow"]) in table
        odyssey = format_odyssey(result.span_records[0])
        assert "totals:" in odyssey

    def test_attribution_is_stable_across_record_order(self):
        result = run_scenario(TINY, SPANS)
        shuffled = list(reversed(result.span_records))
        assert attribute_flows(shuffled) == attribute_flows(result.span_records)


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_abort_produces_a_dump(self, tmp_path):
        # ttl=-16 drives the watchdog's hop bound to zero: the first switch
        # hop aborts deterministically, and the runner's fallback dumps the
        # ring before re-raising.
        opts = RunOptions(span_sample_rate=0.25, flight_recorder_dir=str(tmp_path / "flight"))
        with pytest.raises(LivelockError):
            run_scenario(TINY.with_overrides(ttl=-16), opts)
        dumps = sorted((tmp_path / "flight").glob("flight-*.jsonl"))
        assert len(dumps) == 1
        meta = json.loads(dumps[0].read_text().splitlines()[0])
        assert meta["type"] == "meta"
        assert meta["reason"] == "abort-LivelockError"

    def test_breaker_trip_dumps_and_explains(self, tmp_path):
        scn = flap_storm("dibs", duration_s=0.3, drain_s=0.5, controller=True)
        result = run_scenario(scn, RunOptions(
            span_sample_rate=0.25, flight_recorder_dir=str(tmp_path / "flight")))
        assert result.controller_stats["breaker_trips"] > 0
        dumps = sorted((tmp_path / "flight").glob("flight-*breaker-trip*.jsonl"))
        assert dumps
        # The dump is a readable trace: spans survive in the ring and the
        # explain pipeline reconstructs odysseys straight from it.
        spans = load_spans(dumps[0])
        assert spans
        rows = attribute_flows(spans)
        assert rows and rows[0]["spans"] > 0


# ----------------------------------------------------------------------
# exporter + CLI round trip
# ----------------------------------------------------------------------
class TestExplain:
    def test_artifacts_carry_spans_and_attribution(self, tmp_path):
        from repro.metrics.export import write_artifacts

        result = run_scenario(TINY, SPANS)
        written = write_artifacts(result, tmp_path / "bundle")
        assert "spans" in written and "fct_attribution" in written
        reloaded = load_spans(written["spans"])
        assert ([json.dumps(r, sort_keys=True) for r in reloaded]
                == _span_lines(result))
        payload = json.loads(written["fct_attribution"].read_text())
        assert payload["flows"] == attribute_flows(result.span_records)

    def test_spans_recovered_from_trace_after_process_boundary(self, tmp_path):
        from repro.metrics.export import write_artifacts

        opts = RunOptions(span_sample_rate=0.25, trace_file=str(tmp_path / "run.jsonl"))
        result = run_scenario(TINY, opts)
        expected = _span_lines(result)
        result.span_records = None  # as after crossing a process boundary
        written = write_artifacts(result, tmp_path / "bundle", options=opts)
        assert ([json.dumps(r, sort_keys=True)
                 for r in load_spans(written["spans"])] == expected)

    def test_explain_cli_round_trip(self, tmp_path, capsys):
        out = tmp_path / "art"
        code = cli_main([
            "run", "--duration-s", "0.02", "--qps", "100", "--incast-degree",
            "6", "--no-background", "--spans", "--span-sample-rate", "0.25",
            "--out-dir", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        assert cli_main(["explain", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rank" in text and "queueing" in text and "totals:" in text

    def test_explain_without_spans_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"v":2,"type":"meta","t":0}\n')
        assert cli_main(["explain", str(empty)]) == 1
        assert cli_main(["explain", str(tmp_path / "missing")]) == 1

    def test_trace_cli_filters_spans(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        run_scenario(TINY, RunOptions(span_sample_rate=0.25, trace_file=str(trace)))
        assert cli_main(["trace", str(trace), "--type", "span",
                         "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(l)["type"] == "span" for l in lines)


# ----------------------------------------------------------------------
# satellite: heartbeat carries controller state
# ----------------------------------------------------------------------
class TestHeartbeatController:
    def test_records_carry_knobs_and_breakers(self, tmp_path):
        hb = tmp_path / "hb.jsonl"
        run_scenario(TINY.with_overrides(controller=True), RunOptions(
            heartbeat_interval_s=60.0, heartbeat_path=str(hb)))
        records = [json.loads(l) for l in hb.read_text().splitlines()]
        assert records  # finish() always emits a final record
        ctl = records[-1]["controller"]
        assert set(ctl) >= {"ecn_threshold_pkts", "detour_cap", "dba_alpha",
                            "degraded_now", "breakers_tripped"}
        assert isinstance(ctl["breakers_tripped"], list)

    def test_records_without_controller_stay_flat(self, tmp_path):
        hb = tmp_path / "hb.jsonl"
        run_scenario(TINY, RunOptions(heartbeat_interval_s=60.0, heartbeat_path=str(hb)))
        records = [json.loads(l) for l in hb.read_text().splitlines()]
        assert records and all("controller" not in r for r in records)


# ----------------------------------------------------------------------
# satellite: timeseries wiring
# ----------------------------------------------------------------------
class TestTimeseriesWiring:
    def test_run_scenario_collects_series(self, tmp_path):
        from repro.metrics.export import write_artifacts

        result = run_scenario(TINY.with_overrides(timeseries_interval_s=0.005))
        ts = result.timeseries
        assert ts["interval_s"] == 0.005
        assert len(ts["times_s"]) >= 2
        assert ts["flows"] and ts["ports"]
        for series in ts["flows"].values():
            assert len(series) == len(ts["times_s"])
        written = write_artifacts(result, tmp_path / "bundle")
        assert json.loads(written["timeseries"].read_text()) == ts

    def test_metrics_identical_with_timeseries_on_or_off(self):
        on = run_scenario(TINY.with_overrides(timeseries_interval_s=0.005))
        on.timeseries = None  # the recorded series is the one thing this arm adds
        assert canonical_payload(on) == canonical_payload(run_scenario(TINY))
