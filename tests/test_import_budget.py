"""What a ``repro`` process may import: numpy, and nothing heavier.

``scipy.stats`` used to ride in through ``repro.flash.ecc`` for one
expression and was the largest single cost of *starting* the simulator
(docs/PERFORMANCE.md, "How a gain is measured"). The runtime is
numpy-only now; these tests keep it so, in fresh subprocesses — this
process has pytest, hypothesis and usually scipy loaded, so it cannot
tell. The claim checker is a reader: it loads no simulator at all.
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
    for name in ("quick_fleet", "fleet_sweep"):
        scenario = python("-m", "repro", "run", f"scenarios/{name}.json",
                          "--out", str(tmp_path), poison=True)
        assert scenario.returncode == 0, scenario.stderr


#: What the claim checker must never load: it reads tables, it does not
#: simulate.
SIMULATORS = ("repro.sim", "repro.io", "repro.workloads", "repro.flash")

REPORT = f"""
import sys, tempfile
from pathlib import Path
from repro.reporting.claims import build_report
from repro.reporting.export import load_experiments
with tempfile.TemporaryDirectory() as run:
    report = build_report(experiments=load_experiments(Path(run)))
assert report["summary"]["skip"] == 18, report["summary"]
simulators = tuple(f"{{name}}." for name in {SIMULATORS!r})
loaded = sorted(name for name in sys.modules
                if f"{{name}}.".startswith(simulators))
assert not loaded, f"the claim checker imported {{loaded}}"
"""


def test_the_claim_checker_loads_no_simulator():
    result = python("-c", REPORT)
    assert result.returncode == 0, result.stderr


#: A lifetime walk reads percentiles at its end (``stats.snapshot()``);
#: ``np.percentile`` would import ``numpy.ma`` there, inside whatever
#: times the walk.
LIFETIME = """
import sys
from repro.flash.geometry import FlashGeometry
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.sim.lifetime import run_write_lifetime
device = SalamanderSSD.create(
    FlashGeometry(blocks=16, fpages_per_block=8),
    SalamanderConfig(msize_lbas=32, mode="regen"), seed=1)
result = run_write_lifetime(device, utilization=0.5, seed=2,
                            max_writes=2000)
assert result.host_writes == 2000, result
assert result.stats["write_latency_p99_us"] > 0, result.stats
assert "numpy.ma" not in sys.modules, "the lifetime walk imported numpy.ma"
"""


def test_a_lifetime_walk_leaves_numpy_ma_unimported():
    result = python("-c", LIFETIME)
    assert result.returncode == 0, result.stderr


def test_src_does_not_mention_scipy():
    """``grep -rn scipy src/`` is empty: no import, no fallback."""
    hits = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "scipy" in path.read_text()]
    assert hits == []
