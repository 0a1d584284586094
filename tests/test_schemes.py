"""The scheme registry and the competitor pack (BShare, FairQ, tinybuf).

Three contracts under test:

* **registry API** — registration order, duplicate protection, unknown
  names listing what exists, and a third-party scheme running end-to-end
  through the normal Scenario/runner path with zero core edits;
* **legacy byte-identity** — the registry reproduces the exact
  ``SwitchQueueConfig``/``TcpConfig`` objects of the old if/elif chains,
  and journal content keys are pinned to their pre-registry hex values so
  ``--resume`` of old journals still hits;
* **competitor determinism** — each new scheme is bit-identical serial vs
  ``workers=2``, calendar vs heap engine, and across a journal resume,
  and BShare keeps the shared pool's conservation invariants.
"""


import pytest

from repro.experiments.journal import RunJournal, scenario_hash
from repro.experiments.parallel import RunRequest, RunTelemetry, execute_runs
from repro.experiments.runner import canonical_payload, run_pooled, run_scenario
from repro.experiments.scenarios import SCALED_DEFAULTS, SCHEMES, Scenario
from repro.experiments.schemes import (
    SchemeSpec,
    available_schemes,
    get_scheme,
    register_scheme,
)
from repro.experiments.schemes import _REGISTRY, _tcp_transport
from repro.experiments.sweep import compare_schemes
from repro.faults.guards import InvariantChecker
from repro.net.network import SwitchQueueConfig
from repro.net.queues import BShareQueue, FairQQueue
from repro.transport.fairq import FairQConfig
from repro.transport.pfabric import PFabricConfig
from repro.transport.tinybuf import TinyBufferConfig
from repro.workload.query import QueryTraffic

LEGACY_SCHEMES = (
    "dctcp", "dibs", "dctcp-inf", "tcp", "tcp-inf", "tcp-dibs",
    "pfabric", "dctcp-dba", "dibs-dba", "dctcp-pfc", "dctcp-spray",
)
NEW_SCHEMES = ("bshare", "fairq", "tinybuf")

TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny-schemes", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)


class TestRegistryApi:
    def test_legacy_names_first_in_historical_order(self):
        assert available_schemes()[: len(LEGACY_SCHEMES)] == LEGACY_SCHEMES
        assert SCHEMES == available_schemes()

    def test_competitors_registered(self):
        for name in NEW_SCHEMES:
            assert name in available_schemes()

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="bshare"):
            get_scheme("bogus-scheme")

    def test_duplicate_registration_rejected(self):
        spec = get_scheme("dctcp")
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(spec)
        # replace=True is the explicit override path.
        assert register_scheme(spec, replace=True) is spec

    def test_spec_requires_transport(self):
        with pytest.raises(ValueError, match="transport"):
            SchemeSpec("half-baked", "no transport factory")

    def test_third_party_scheme_end_to_end(self):
        """A plugin scheme runs through Scenario/runner with no core edits."""
        register_scheme(SchemeSpec(
            "third-party-test", "droptail + DCTCP, for the registry test",
            discipline="droptail",
            transport=_tcp_transport(dctcp=True, dupack_default=3),
        ))
        try:
            scenario = TINY.with_overrides(scheme="third-party-test")
            scenario.validate()
            result = run_scenario(scenario)
            assert result.queries_completed > 0
        finally:
            del _REGISTRY["third-party-test"]

    def test_scenario_validate_rejects_unregistered(self):
        with pytest.raises(ValueError, match="registered"):
            TINY.with_overrides(scheme="nope").validate()


class TestLegacyByteIdentity:
    """The registry reproduces the old if/elif outputs exactly."""

    def _expected_queue_config(self, scenario: Scenario) -> SwitchQueueConfig:
        scheme = scenario.scheme
        discipline = {
            "dctcp": "ecn", "dibs": "ecn", "dctcp-pfc": "ecn", "dctcp-spray": "ecn",
            "dctcp-inf": "infinite", "tcp-inf": "infinite",
            "tcp": "droptail", "tcp-dibs": "droptail",
            "pfabric": "pfabric", "dctcp-dba": "dba", "dibs-dba": "dba",
        }[scheme]
        return SwitchQueueConfig(
            discipline=discipline,
            buffer_pkts=scenario.buffer_pkts,
            ecn_threshold_pkts=scenario.ecn_threshold_pkts,
            pfabric_queue_pkts=scenario.pfabric_queue_pkts,
            dba_total_bytes=scenario.dba_total_bytes,
            infinite_with_ecn=(scheme == "dctcp-inf"),
            pfc=(scheme == "dctcp-pfc"),
            ecmp_mode="packet" if scheme == "dctcp-spray" else "flow",
        )

    @pytest.mark.parametrize("scheme", LEGACY_SCHEMES)
    def test_switch_queue_config_unchanged(self, scheme):
        scenario = SCALED_DEFAULTS.with_overrides(scheme=scheme)
        assert scenario.switch_queue_config() == self._expected_queue_config(scenario)

    @pytest.mark.parametrize("scheme", LEGACY_SCHEMES)
    def test_transport_config_unchanged(self, scheme):
        scenario = SCALED_DEFAULTS.with_overrides(scheme=scheme)
        config = scenario.transport_config()
        if scheme == "pfabric":
            assert isinstance(config, PFabricConfig)
            return
        assert type(config).__name__ == "TcpConfig"  # not a paced subclass
        dctcp = scheme.startswith("dctcp") or scheme in ("dibs", "dibs-dba")
        assert config.dctcp is dctcp and config.ecn is dctcp
        if scheme in ("dibs", "tcp-dibs", "dibs-dba"):
            assert config.fast_retransmit_threshold is None
        elif scheme == "dctcp-spray":
            assert config.fast_retransmit_threshold == 10
        else:
            assert config.fast_retransmit_threshold == 3

    @pytest.mark.parametrize("scheme", LEGACY_SCHEMES)
    def test_dibs_enablement_unchanged(self, scheme):
        scenario = SCALED_DEFAULTS.with_overrides(scheme=scheme)
        expected = scheme in ("dibs", "tcp-dibs", "dibs-dba")
        assert scenario.dibs_config().enabled is expected
        assert get_scheme(scheme).dibs_enabled is expected

    def test_dupack_override_still_beats_scheme_default(self):
        dibs = SCALED_DEFAULTS.with_overrides(scheme="dibs", dupack_threshold=7)
        assert dibs.transport_config().fast_retransmit_threshold == 7
        dctcp = SCALED_DEFAULTS.with_overrides(scheme="dctcp", dupack_threshold=None)
        assert dctcp.transport_config().fast_retransmit_threshold is None

    # Pre-registry scenario_hash values for SCALED_DEFAULTS.with_overrides(
    # scheme=..., seed=3), captured on the last if/elif commit.  A change
    # here means every journaled legacy run stops resuming — do not
    # "update" these without understanding exactly why they moved.
    JOURNAL_PINS = {
        "dctcp": "0a1178794a4ac3e10ac0479ced718f6548edd4ca43313c689c823842dfd0d9c6",
        "dibs": "013e4197f082c3bf2b8b9aad8ad25f0bb99eb81f5da38b52375de1ec6b572486",
        "dctcp-inf": "0dedde3b46cb9b5a0fc858e9352ba3c9d8d1611cb10aa2ef675ec0e40c0e4ded",
        "tcp": "32ffee3bdd68ecfd06bf652e4a631a8d69b279d09f1bc249e2da56f0564a0995",
        "tcp-inf": "01f12845395b823d2cc203aee0625d0324b1113783ebee0784448a63dae1511f",
        "tcp-dibs": "e67fa46dbae632255f58184bd2860bb12502baa39007bb4e64609f4ba61e0a7b",
        "pfabric": "e7ef091b6a4869037777f846545826c47261f1c15cc7f9c44c91b00770795c52",
        "dctcp-dba": "1bba01b2922af19e10a74009c4274a34071a099ae32131e924e69e3e25a14c37",
        "dibs-dba": "e09b2694c6cf30aa38412a919563989045074b63b2e8d99ddbb6792fdd9fb159",
        "dctcp-pfc": "407fb83649959fcd63e0624bb0d7718800b40b6813927822735b7bccabc1d0e3",
        "dctcp-spray": "17fc68d81b09df2dfb15b3a2b58731ba9631d4f0429651ce2c401119bdb78a30",
    }

    @pytest.mark.parametrize("scheme", LEGACY_SCHEMES)
    def test_journal_keys_byte_identical(self, scheme):
        got = scenario_hash(SCALED_DEFAULTS.with_overrides(scheme=scheme, seed=3))
        assert got == self.JOURNAL_PINS[scheme]


class TestCompetitorSchemes:
    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_runs_and_completes_queries(self, scheme):
        result = run_scenario(TINY.with_overrides(scheme=scheme))
        assert result.queries_completed == result.queries_started > 0

    def test_bshare_uses_bshare_queues(self):
        net = TINY.with_overrides(scheme="bshare").build_network()
        queue = net.switches[0].ports[0].queue
        assert isinstance(queue, BShareQueue)
        assert queue.target_delay_s > 0

    def test_fairq_uses_fairq_queues_and_paced_transport(self):
        scenario = TINY.with_overrides(scheme="fairq")
        net = scenario.build_network()
        assert isinstance(net.switches[0].ports[0].queue, FairQQueue)
        assert isinstance(scenario.transport_config(), FairQConfig)

    def test_tinybuf_shallow_buffers_and_aggressive_rto(self):
        scenario = SCALED_DEFAULTS.with_overrides(scheme="tinybuf")
        queues = scenario.switch_queue_config()
        assert queues.buffer_pkts <= 16
        assert queues.ecn_threshold_pkts <= 8
        config = scenario.transport_config()
        assert isinstance(config, TinyBufferConfig)
        assert config.min_rto < scenario.min_rto_s

    def test_fairq_sender_learns_the_signalled_rate(self):
        scenario = TINY.with_overrides(scheme="fairq")
        net = scenario.build_network()
        flow = net.start_flow("host_0", "host_5", 60_000, scenario.transport_config())
        net.run(until=0.5)
        assert flow.completed
        # The receiver echoed a bottleneck share and the sender locked on.
        stamps = sum(
            port.queue.rate_stamps
            for switch in net.switches for port in switch.ports
            if isinstance(port.queue, FairQQueue)
        )
        assert stamps > 0

    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_serial_matches_workers(self, scheme):
        scenario = TINY.with_overrides(scheme=scheme)
        serial = run_pooled(scenario, seeds=(0, 1))
        parallel = run_pooled(scenario, seeds=(0, 1), workers=2)
        assert canonical_payload(serial) == canonical_payload(parallel)

    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_calendar_matches_heap_engine(self, scheme, monkeypatch):
        scenario = TINY.with_overrides(scheme=scheme)
        monkeypatch.setenv("REPRO_ENGINE", "calendar")
        calendar = run_scenario(scenario)
        monkeypatch.setenv("REPRO_ENGINE", "heap")
        heap = run_scenario(scenario)
        assert canonical_payload(calendar) == canonical_payload(heap)

    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_resume_is_bit_identical(self, scheme, tmp_path):
        requests = [
            RunRequest(key=f"s{seed}", scenario=TINY.with_overrides(scheme=scheme, seed=seed))
            for seed in (0, 1)
        ]
        journal = RunJournal(tmp_path / "j")
        first = execute_runs(requests, workers=1, journal=journal)
        telemetry = RunTelemetry()
        resumed = execute_runs(requests, workers=1, journal=RunJournal(tmp_path / "j"),
                               resume=True, telemetry=telemetry)
        assert telemetry.cells_resumed == 2
        for key in ("s0", "s1"):
            assert canonical_payload(first[key]) == canonical_payload(resumed[key])

    def test_compare_schemes_covers_the_shootout_pack(self):
        results = compare_schemes(
            TINY, schemes=("dctcp", "dibs", "bshare", "fairq", "tinybuf"), seeds=(0,)
        )
        assert set(results) == {"dctcp", "dibs", "bshare", "fairq", "tinybuf"}
        for result in results.values():
            assert result.queries_completed > 0


class TestBShareConservation:
    """The shared pool must balance exactly, through every release path."""

    def test_pool_balances_after_incast(self):
        scenario = TINY.with_overrides(scheme="bshare")
        net = scenario.build_network()
        QueryTraffic(
            net, qps=scenario.qps, degree=scenario.incast_degree,
            response_bytes=scenario.response_bytes,
            transport=scenario.transport_config(),
            stop_at=scenario.duration_s,
        ).start()
        net.run(until=scenario.duration_s + scenario.drain_s)
        InvariantChecker(net, interval_s=0.05).check_now()
        assert net._dba_pools  # bshare switches actually share a pool
        for pool in net._dba_pools.values():
            assert pool.used_bytes == 0  # fully drained, nothing leaked

    def test_pool_balances_under_faults_and_corruption(self):
        # Flaps exercise set_down()/clear(), corruption exercises the
        # mid-queue release path; the periodic audits raise on any leak.
        scenario = TINY.with_overrides(
            scheme="bshare",
            link_flap_rate=5.0, link_flap_downtime_s=0.002, corrupt_rate=50.0,
            invariant_check_interval_s=0.005,
        )
        result = run_scenario(scenario)
        assert result.invariant_checks > 0  # in-run audits all passed
