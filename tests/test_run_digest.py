"""The committed run-equivalence digest: reruns give identical results.

``tools/run_digest.py`` prints one SHA-256 per fixed reduce + validate
scenario, so two checkouts can be compared run by run. Here one scenario
runs twice in one process and must give the same digest.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", ROOT / "tools" / "run_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_rerun_has_the_same_digest():
    tool = _run_digest()
    assert len(tool.SCENARIOS) == 25
    name = "rc_ladder:300 delta2 symmetric"
    first = tool.digest(name)
    assert len(first) == 64
    assert tool.digest(name) == first
