"""Rewrite ``tests/golden/corpus.json`` from the simulator as it is.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.golden.record [--out PATH]

Only a change that is meant to move results runs this (see the package
docstring); review the diff of the corpus like code.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.runner import run_scenario
from tests.golden import CORPUS_PATH, digest, grid, measured


def record() -> dict:
    from tests.test_control import CONTROLLED
    from tests.test_faults import STORM
    from tests.test_forensics import SPANS, TINY, _span_lines
    from tests.test_link import ELISION_BURSTS, ELISION_QUEUES, TestElisionEquivalence

    runs = {name: measured(run_scenario(scenario)) for name, scenario in grid().items()}
    runs["storm/dibs"] = measured(run_scenario(STORM))
    runs["controlled/dibs"] = measured(run_scenario(CONTROLLED))
    link = {}
    for kind, make in ELISION_QUEUES.items():
        observed = TestElisionEquivalence._run_traffic(make(), ELISION_BURSTS.get(kind))
        link[kind] = {"digest": digest(observed), "events": observed[3]}
    traced = run_scenario(TINY, SPANS)
    spans = {"tiny": dict(measured(traced), spans=digest(_span_lines(traced)))}
    return {"runs": runs, "link": link, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(CORPUS_PATH), help="where to write the corpus")
    args = parser.parse_args()
    with open(args.out, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
