"""What a ``repro`` process may import: numpy, and nothing heavier.

``scipy.stats`` used to ride in through ``repro.flash.ecc`` for one
expression and was the largest single cost of *starting* the simulator
(docs/PERFORMANCE.md, "Cold start"). The runtime is numpy-only now;
these tests keep it so, in fresh subprocesses — this process has pytest,
hypothesis and usually scipy loaded, so it cannot tell.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parents[1]
POISON = Path(__file__).resolve().parent / "poison"

#: Test- and plotting-only packages no runtime import may pull in.
FORBIDDEN = ("scipy", "hypothesis", "pytest", "matplotlib", "pandas")

PROBE = f"""
import sys
import repro, repro.cli, repro.workloads.engine, repro.sim.shard
from repro.flash.tiredness import TirednessPolicy
assert 0.0 < TirednessPolicy().max_rber(0) < 0.01
loaded = sorted(name for name in {FORBIDDEN!r} if name in sys.modules)
assert not loaded, f"runtime imported {{loaded}}"
"""


def python(*args: str, poison: bool = False):
    path = ([str(POISON)] if poison else []) + [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})


def test_runtime_imports_nothing_beyond_numpy():
    result = python("-c", PROBE)
    assert result.returncode == 0, result.stderr


def test_the_poison_path_really_hides_scipy():
    """Negative control: without it the next test would prove nothing."""
    result = python("-c", "import scipy", poison=True)
    assert result.returncode != 0
    assert "scipy is poisoned" in result.stderr


def test_cli_runs_without_scipy(tmp_path):
    assert python("-c", PROBE, poison=True).returncode == 0
    fleet = python("-m", "repro", "fleet", "--devices", "6", "--years", "2",
                   "--blocks", "16", poison=True)
    assert fleet.returncode == 0, fleet.stderr
    scenario = python("-m", "repro", "run", "scenarios/quick_fleet.json",
                      "--out", str(tmp_path), poison=True)
    assert scenario.returncode == 0, scenario.stderr


def test_src_does_not_mention_scipy():
    """``grep -rn scipy src/`` is empty: no import, no fallback."""
    hits = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "scipy" in path.read_text()]
    assert hits == []
