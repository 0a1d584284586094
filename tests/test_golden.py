"""The golden corpus (``tests/golden``): every registered scheme on a
tiny incast, a faulty incast and a controlled flap storm, for two seeds,
plus a DIBS incast per topology, must reproduce its recorded fingerprint
and logical event count."""

import pytest

from repro.experiments.runner import run_scenario
from tests import golden

GRID = golden.grid()


@pytest.mark.parametrize("name", list(GRID))
def test_cell_matches_corpus(name):
    assert golden.measured(run_scenario(GRID[name])) == golden.expected("runs", name)


def test_corpus_holds_every_cell_and_nothing_stale():
    pinned_elsewhere = {"storm/dibs", "controlled/dibs"}
    assert set(golden.entries("runs")) == set(GRID) | pinned_elsewhere
