"""The golden corpus: recorded results that pin the simulator's one
event order and one transmit model.

``corpus.json`` holds, per entry, what a run measured: the runner's
fingerprint (:func:`repro.experiments.runner.fingerprint`, the SHA-256
of everything a run measured) and its logical event count, or, for an
entry below the runner (a hand-wired link, a sampled span set), a
SHA-256 digest of the observed values.  Each entry was checked, when it
was recorded, against a second engine (a binary heap) and against the
transmit path that dispatches every tx-done; CHANGES.md has that table.
A change that moves an entry changes what the simulator does.

Sections: ``runs`` (the grid below, checked by ``tests/test_golden.py``,
plus single scenarios that other tests pin), ``link`` (the
``tests/test_link.py`` elision traffic cases) and ``spans``
(``tests/test_forensics.py``).  ``python -m tests.golden.record``
rewrites the file; only a change meant to move results may do that,
and it says why.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.experiments.runner import fingerprint
from repro.experiments.scenarios import SCALED_DEFAULTS, SCHEMES, flap_storm
from repro.faults import LINK_DOWN, LINK_UP

CORPUS_PATH = Path(__file__).with_name("corpus.json")

# A small K=4 incast: six senders, no background traffic.
TINY = SCALED_DEFAULTS.with_overrides(
    name="tiny-schemes", duration_s=0.03, drain_s=0.3, qps=100.0,
    incast_degree=6, bg_enabled=False,
)
# The same incast under a scheduled link fault, Poisson flaps, packet
# corruption and mid-run invariant audits.
FAULTY = TINY.with_overrides(
    name="tiny-faults",
    faults=((0.005, LINK_DOWN, "agg_0_0", "core_0", 1),
            (0.012, LINK_UP, "agg_0_0", "core_0", 1)),
    link_flap_rate=20.0,
    link_flap_downtime_s=0.002,
    corrupt_rate=300.0,
    invariant_check_interval_s=0.01,
)
# The space-DC flap storm with the runtime controller on (jittered
# links, flaps, controller ticks), shortened to smoke length.
STORM_CTL = dict(duration_s=0.2, drain_s=0.3, controller=True)
SEEDS = (0, 1)
TOPOLOGIES = ("fattree", "leafspine", "jellyfish")


def grid() -> dict:
    """Entry name -> scenario for every cell ``tests/test_golden.py``
    checks: each registered scheme on the tiny incast, the faulty incast
    and the controlled flap storm, for each seed; plus a DIBS incast on
    each topology that takes one."""
    cells = {}
    for scheme in SCHEMES:
        for seed in SEEDS:
            cells[f"tiny/{scheme}/s{seed}"] = TINY.with_overrides(scheme=scheme, seed=seed)
            cells[f"faulty/{scheme}/s{seed}"] = FAULTY.with_overrides(scheme=scheme, seed=seed)
            cells[f"storm-ctl/{scheme}/s{seed}"] = flap_storm(scheme, seed=seed, **STORM_CTL)
    for topology in TOPOLOGIES:
        cells[f"topology/{topology}"] = TINY.with_overrides(
            name=f"tiny-{topology}", scheme="dibs", topology=topology)
    return cells


def measured(result) -> dict:
    """What the corpus keeps of one run."""
    return {"fingerprint": fingerprint(result), "events": result.events}


def digest(value) -> str:
    """SHA-256 of ``repr(value)``: floats repr exactly, dicts keep
    insertion order, so equal observations give equal digests."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@lru_cache(maxsize=None)
def _corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def expected(section: str, name: str) -> dict:
    """The recorded entry ``name`` of ``section``."""
    return _corpus()[section][name]


def entries(section: str) -> list:
    return list(_corpus()[section])
