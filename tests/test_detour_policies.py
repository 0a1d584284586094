"""Unit tests for the DIBS detour policy implementations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DibsConfig
from repro.core.detour import (
    FlowBasedDetourPolicy,
    LoadAwareDetourPolicy,
    ProbabilisticDetourPolicy,
    RandomDetourPolicy,
    make_policy,
)
from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, DynamicBufferQueue, EcnQueue, SharedBufferPool
from repro.net.switch import Switch
from repro.sim.engine import Scheduler


class Dummy(Node):
    def receive(self, pkt, in_port):
        pass


def make_ports(n, capacity=10):
    sched = Scheduler()
    node = Dummy(0, "sw", sched)
    return [Port(node, DropTailQueue(capacity), 1e9, 0.0) for _ in range(n)]


def pkt(flow=1):
    return Packet(flow_id=flow, src=0, dst=1, payload=1460)


class TestRegistry:
    @pytest.mark.parametrize("name", ["random", "load-aware", "flow-based", "probabilistic"])
    def test_make_policy_by_name(self, name):
        assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("bogus")

    def test_kwargs_forwarded(self):
        policy = make_policy("probabilistic", onset=0.5)
        assert policy.onset == 0.5


class TestShouldDetour:
    def test_default_trigger_is_full_queue(self):
        ports = make_ports(2, capacity=1)
        policy = RandomDetourPolicy()
        rng = random.Random(0)
        assert not policy.should_detour(pkt(), ports[0], rng)
        ports[0].queue.enqueue(pkt())
        assert policy.should_detour(pkt(), ports[0], rng)


class TestRandomPolicy:
    def test_returns_none_without_candidates(self):
        assert RandomDetourPolicy().choose(pkt(), make_ports(1)[0], [], random.Random(0)) is None

    def test_choice_is_among_candidates(self):
        ports = make_ports(4)
        policy = RandomDetourPolicy()
        rng = random.Random(0)
        for _ in range(50):
            choice = policy.choose(pkt(), ports[0], ports[1:], rng)
            assert choice in ports[1:]

    def test_uniformity(self):
        ports = make_ports(4)
        policy = RandomDetourPolicy()
        rng = random.Random(42)
        counts = {p.index: 0 for p in ports[1:]}
        for _ in range(3000):
            counts[policy.choose(pkt(), ports[0], ports[1:], rng).index] += 1
        for c in counts.values():
            assert 800 < c < 1200  # ~1000 each


class TestLoadAwarePolicy:
    def test_picks_emptiest_queue(self):
        ports = make_ports(4)
        for _ in range(3):
            ports[1].queue.enqueue(pkt())
        ports[2].queue.enqueue(pkt())
        policy = LoadAwareDetourPolicy()
        choice = policy.choose(pkt(), ports[0], ports[1:], random.Random(0))
        assert choice is ports[3]

    def test_random_tie_break(self):
        ports = make_ports(4)
        policy = LoadAwareDetourPolicy()
        rng = random.Random(1)
        seen = {policy.choose(pkt(), ports[0], ports[1:], rng) for _ in range(100)}
        assert seen == set(ports[1:])

    def test_none_without_candidates(self):
        ports = make_ports(1)
        assert LoadAwareDetourPolicy().choose(pkt(), ports[0], [], random.Random(0)) is None


class TestFlowBasedPolicy:
    def test_same_flow_same_port(self):
        ports = make_ports(5)
        policy = FlowBasedDetourPolicy()
        rng = random.Random(0)
        choices = {policy.choose(pkt(flow=7), ports[0], ports[1:], rng) for _ in range(20)}
        assert len(choices) == 1

    def test_different_flows_spread(self):
        ports = make_ports(5)
        policy = FlowBasedDetourPolicy()
        rng = random.Random(0)
        choices = {
            policy.choose(pkt(flow=f), ports[0], ports[1:], rng).index for f in range(100)
        }
        assert len(choices) > 1

    def test_none_without_candidates(self):
        ports = make_ports(1)
        assert FlowBasedDetourPolicy().choose(pkt(), ports[0], [], random.Random(0)) is None


class TestProbabilisticPolicy:
    def test_no_detour_below_onset(self):
        ports = make_ports(2, capacity=10)
        policy = ProbabilisticDetourPolicy(onset=0.8)
        rng = random.Random(0)
        for _ in range(5):
            ports[0].queue.enqueue(pkt())  # 50% occupancy
        assert not any(policy.should_detour(pkt(), ports[0], rng) for _ in range(100))

    def test_always_detours_when_full(self):
        ports = make_ports(2, capacity=4)
        policy = ProbabilisticDetourPolicy(onset=0.5)
        rng = random.Random(0)
        for _ in range(4):
            ports[0].queue.enqueue(pkt())
        assert all(policy.should_detour(pkt(), ports[0], rng) for _ in range(20))

    def test_intermediate_occupancy_detours_sometimes(self):
        ports = make_ports(2, capacity=10)
        policy = ProbabilisticDetourPolicy(onset=0.5)
        rng = random.Random(0)
        for _ in range(9):
            ports[0].queue.enqueue(pkt())  # 90%: p = 0.8
        outcomes = [policy.should_detour(pkt(), ports[0], rng) for _ in range(500)]
        rate = sum(outcomes) / len(outcomes)
        assert 0.7 < rate < 0.9

    def test_invalid_onset_rejected(self):
        with pytest.raises(ValueError):
            ProbabilisticDetourPolicy(onset=1.0)
        with pytest.raises(ValueError):
            ProbabilisticDetourPolicy(onset=-0.1)


class TestDibsConfig:
    def test_default_enabled_random(self):
        cfg = DibsConfig()
        assert cfg.enabled
        assert cfg.policy.name == "random"
        assert cfg.allow_detour_to_ingress
        assert cfg.max_detours_per_packet == 0

    def test_disabled_constructor(self):
        assert not DibsConfig.disabled().enabled


# ----------------------------------------------------------------------
# Switch._detour's inline random pick
# ----------------------------------------------------------------------
def make_hub(n_neighbors, dibs=None, rng=None, capacity=1000):
    """A DIBS switch whose port 0 is the desired port and ports
    1..n_neighbors face neighbor switches (the detour candidates)."""
    sched = Scheduler()
    hub = Switch(10, "hub", sched, dibs=dibs if dibs is not None else DibsConfig(),
                 rng=rng if rng is not None else random.Random(0))
    for i in range(n_neighbors + 1):
        port = Port(hub, DropTailQueue(capacity), 1e9, 0.0)
        connect(port, Port(Dummy(20 + i, f"n{i}", sched), DropTailQueue(capacity), 1e9, 0.0))
        port.pause()  # detoured packets stay queued where they landed
    return hub


def picked(hub, before):
    """The port whose queue took a packet since ``before`` (enqueue
    counts), or None."""
    grew = [port for port, n in zip(hub.ports, before) if port.queue.enqueues > n]
    assert len(grew) <= 1
    return grew[0] if grew else None


def detour_once(hub, desired, in_port, packet=None):
    before = [port.queue.enqueues for port in hub.ports]
    drops = hub.counters.drops_no_detour
    hub._detour(packet if packet is not None else pkt(), desired, in_port)
    return picked(hub, before), hub.counters.drops_no_detour - drops


class TestInlineRandomPick:
    """The random policy's pick is inlined in Switch._detour as CPython's
    _randbelow_with_getrandbits.  It must draw exactly what
    ``rng.randrange(n)`` draws, so that a CPython change to randrange
    fails here instead of silently moving every DIBS result."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2014, 123456789])
    def test_draw_equals_randrange_for_every_n(self, seed):
        for n in range(1, 65):
            hub = make_hub(n, rng=random.Random(seed))
            reference = random.Random(seed)
            for _ in range(3):
                chosen, drops = detour_once(hub, hub.ports[0], in_port=0)
                assert drops == 0
                assert chosen is hub.ports[1 + reference.randrange(n)]
                assert hub.rng.getstate() == reference.getstate()

    def test_draw_consumes_what_the_policy_consumes(self):
        # The state after a detour equals the state after the policy's own
        # choose over the same candidates (rejection draws included).
        hub = make_hub(5, rng=random.Random(3))
        for _ in range(200):
            reference = random.Random()
            reference.setstate(hub.rng.getstate())
            candidates = hub.detour_candidates(hub.ports[0], 0)
            expected = RandomDetourPolicy().choose(pkt(), hub.ports[0], candidates, reference)
            chosen, _drops = detour_once(hub, hub.ports[0], in_port=0)
            assert chosen is expected
            assert hub.rng.getstate() == reference.getstate()


# A random detour-port state: each port's peer (neighbor switch, host, or
# unconnected), link state, queue discipline and fill; the ingress port;
# the ingress rule.
port_states = st.fixed_dictionaries({
    "peer": st.sampled_from(["switch", "switch", "host", "none"]),
    "up": st.booleans(),
    "queue": st.sampled_from(["droptail", "ecn", "dba"]),
    "fill": st.integers(0, 3),
})
hub_states = st.fixed_dictionaries({
    "ports": st.lists(port_states, min_size=1, max_size=6),
    "in_port": st.integers(0, 6),
    "allow_ingress": st.booleans(),
    "pool_pkts": st.integers(2, 8),
    "seed": st.integers(0, 2**32 - 1),
})


def build_state(state, policy=None, rng=None):
    """A switch with one desired port (index 0, full droptail facing a
    neighbor switch) plus the ports ``state`` describes; every port is
    paused so its fill stays queued."""
    sched = Scheduler()
    dibs = DibsConfig(policy=policy if policy is not None else RandomDetourPolicy(),
                      allow_detour_to_ingress=state["allow_ingress"])
    hub = Switch(10, "hub", sched, dibs=dibs,
                 rng=rng if rng is not None else random.Random(state["seed"]))
    pool = SharedBufferPool(state["pool_pkts"] * 1500, alpha=1.0, reserved_pkts_per_port=1)
    make_queue = {
        "droptail": lambda: DropTailQueue(3),
        "ecn": lambda: EcnQueue(3, 1),
        "dba": lambda: DynamicBufferQueue(pool),
    }
    specs = [{"peer": "switch", "up": True, "queue": "droptail", "fill": 3}] + state["ports"]
    for i, spec in enumerate(specs):
        port = Port(hub, make_queue[spec["queue"]](), 1e9, 0.0)
        if spec["peer"] == "switch":
            connect(port, Port(Dummy(20 + i, f"n{i}", sched), DropTailQueue(3), 1e9, 0.0))
        elif spec["peer"] == "host":
            connect(port, Port(Host(40 + i, f"h{i}", sched), DropTailQueue(3), 1e9, 0.0))
        port.pause()
        for _ in range(spec["fill"]):
            port.send(Packet(flow_id=9, src=0, dst=1, payload=1460))
        if not spec["up"]:
            port.set_down()
    return hub


class TestDetourParity:
    """Over random port states, Switch._detour decides exactly as
    detour_candidates followed by RandomDetourPolicy().choose."""

    @settings(deadline=None, max_examples=300)
    @given(state=hub_states)
    def test_inline_pick_matches_candidates_plus_policy(self, state):
        hub = build_state(state)
        desired, in_port = hub.ports[0], state["in_port"]
        # detour_candidates states the §2 eligibility rule.
        eligible = [
            port for port in hub.ports
            if port is not desired and port.peer_node is not None
            and not port.peer_is_host and port.up
            and (state["allow_ingress"] or port.index != in_port)
            and not port.queue.is_full()
        ]
        candidates = hub.detour_candidates(desired, in_port)
        assert candidates == eligible
        reference = random.Random(state["seed"])
        expected = RandomDetourPolicy().choose(pkt(), desired, candidates, reference)
        chosen, drops = detour_once(hub, desired, in_port)
        assert chosen is expected
        assert drops == (1 if expected is None else 0)
        assert hub.counters.detours == (0 if expected is None else 1)
        assert hub.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("policy", [
        LoadAwareDetourPolicy(), FlowBasedDetourPolicy(), ProbabilisticDetourPolicy(),
        RandomDetourPolicy(),
    ], ids=lambda p: p.name)
    def test_other_policies_and_rng_subclasses_reach_choose(self, policy):
        class SubRandom(random.Random):
            pass

        # The random policy takes the inline pick only on an exact
        # random.Random; a subclass may override its draws.
        rng = SubRandom(5) if type(policy) is RandomDetourPolicy else random.Random(5)
        state = {"ports": [{"peer": "switch", "up": True, "queue": "droptail", "fill": 0}] * 3,
                 "in_port": 1, "allow_ingress": True, "pool_pkts": 4, "seed": 5}
        hub = build_state(state, policy=policy, rng=rng)
        calls = []
        real_choose = policy.choose

        def spy(packet, desired, candidates, rng):
            calls.append(list(candidates))
            return real_choose(packet, desired, candidates, rng)

        policy.choose = spy
        chosen, drops = detour_once(hub, hub.ports[0], 1)
        assert calls == [hub.ports[1:]]
        assert chosen in hub.ports[1:] and drops == 0
