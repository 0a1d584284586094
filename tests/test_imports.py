"""Import hygiene: a run loads only what it uses, and lazy exports resolve.

Each check runs in a fresh interpreter, so no module this test session
already imported can hide a missing or an extra import.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# What a plain run_scenario never touches.
NOT_FOR_A_RUN = (
    "multiprocessing",
    "repro.experiments.parallel",
    "repro.experiments.journal",
    "repro.metrics.export",
    "repro.obs.forensics",
    "repro.net.pfc",
    "repro.server",
)


def run_python(script: str):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_run_loads_no_executor_export_or_server_module():
    loaded = run_python(
        "import json, sys\n"
        "from repro.experiments.runner import run_scenario\n"
        "from repro.experiments.scenarios import SCALED_DEFAULTS\n"
        "result = run_scenario(SCALED_DEFAULTS.with_overrides(\n"
        "    duration_s=0.005, drain_s=0.05, bg_enabled=False))\n"
        "assert result.events > 0\n"
        f"print(json.dumps([m for m in {NOT_FOR_A_RUN!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_every_export_resolves_to_its_defining_object():
    # The packages are found by walking the source tree; each name in a
    # package's __all__ must be the object its defining module holds.
    # repro.analysis.compare and repro.experiments.sweep are submodules
    # named like the functions their packages export; the sweep module is
    # imported before its package's names are read.
    problems = run_python(
        "import importlib, json, pkgutil\n"
        "import repro\n"
        "import repro.experiments.sweep\n"
        "problems = []\n"
        "packages = [repro] + [importlib.import_module(info.name)\n"
        "    for info in pkgutil.walk_packages(repro.__path__, 'repro.') if info.ispkg]\n"
        "for package in packages:\n"
        "    for name in package.__all__:\n"
        "        value = getattr(package, name)\n"
        "        source = package._exports.get(name)\n"
        "        if source is not None and value is not getattr(\n"
        "                importlib.import_module(source), name):\n"
        "            problems.append(f'{package.__name__}.{name}')\n"
        "    if not set(package.__all__) <= set(dir(package)):\n"
        "        problems.append(f'{package.__name__}: dir()')\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = set(repro.__all__) - set(namespace)\n"
        "problems += sorted(f'star: {name}' for name in missing)\n"
        "from repro.experiments import sweep\n"
        "if not callable(sweep) or sweep.__module__ != 'repro.experiments.sweep':\n"
        "    problems.append('repro.experiments.sweep is not the function')\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


def test_submodules_resolve_as_attributes():
    names = run_python(
        "import json\n"
        "import repro\n"
        "print(json.dumps([repro.experiments.journal.RunJournal.__name__,\n"
        "                  repro.net.pfc.enable_pfc.__name__]))\n"
    )
    assert names == ["RunJournal", "enable_pfc"]


def test_unknown_name_raises_attribute_error():
    outcome = run_python(
        "import json\n"
        "import repro.net\n"
        "try:\n"
        "    repro.net.NoSuchThing\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert outcome == "module 'repro.net' has no attribute 'NoSuchThing'"
