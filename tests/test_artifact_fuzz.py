"""Damage what the CLI wrote, hand it back: exit 0, 1 or 2 — never 3.

The matrix in ``tests/test_malformed_inputs.py`` walks the malformations
someone thought of. This sweep draws them: every artifact two fleet
``repro run`` calls and the ``repro run`` of a probe scenario and of the
agreement scenario just wrote is truncated at a drawn byte offset, has a drawn leaf replaced by a
drawn JSON value, or has drawn bytes spliced in, and goes back, at a
fixed name in a fresh run directory, through every command that reads
that kind of file.
Whatever the damage, the verdict is "fine" (0), "claim violated" (1) or
"configuration error" (2); an unexpected-error exit is a validator that
checked a key was there and not what it held.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PROBE = str(SCENARIOS / "slo_default.json")
AGREEMENT = str(SCENARIOS / "agreement.json")

#: (artifact the CLI wrote, the name it is read back under, a command
#: line that reads it from the run directory ``@``)
CONSUMERS = [
    ("fleet/metrics.json", "metrics.json", ["report", "@"]),
    ("run/metrics.json", "metrics.json", ["report", "@"]),
    ("fleet/timeseries.jsonl", "timeseries.jsonl", ["report", "@"]),
    ("run/timeseries.jsonl", "timeseries.jsonl", ["report", "@"]),
    ("fleet/trace.jsonl", "trace.jsonl", ["report", "@"]),
    ("probe/reqtrace.jsonl", "trace.jsonl", ["report", "@"]),
    ("probe/endurance.jsonl", "endurance.jsonl", ["report", "@"]),
    ("probe/endurance.jsonl", "endurance.jsonl",
     ["report", "@", "--against", "@"]),
    ("fleet/fleet.json", "fleet.json", ["report", "@"]),
    ("agreement/agreement.json", "agreement.json", ["report", "@"]),
]

#: Every mode, four devices on 16 blocks for a year: what the retired
#: ``repro fleet --devices 4 --years 1 --blocks 16`` ran.
FLEET = {"name": "fleet", "kind": "fleet", "seed": 2025,
         "params": {"devices": 4, "horizon_days": 365, "step_days": 10,
                    "dwpd": 2.0,
                    "geometry": {"blocks": 16, "fpages_per_block": 64}}}
SCENARIO = {"name": "tiny", "kind": "fleet", "seed": 3,
            "params": {"devices": 4, "horizon_days": 400, "step_days": 40,
                       "geometry": {"blocks": 16, "fpages_per_block": 16}},
            "modes": ["baseline", "regen"]}


def quiet(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Where one small fleet ``run``, one ``run`` of the shipped probe
    and agreement scenarios and one ``run`` of ``SCENARIO`` wrote their
    run directories."""
    root = tmp_path_factory.mktemp("written")
    (root / "fleet.json").write_text(json.dumps(FLEET))
    assert quiet(["run", f"{root}/fleet.json",
                  "--out", f"{root}/fleet"])[0] == 0
    assert quiet(["run", PROBE, "--out", f"{root}/probe"])[0] == 0
    assert quiet(["run", AGREEMENT, "--out", f"{root}/agreement"])[0] == 0
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert quiet(["run", f"{root}/scenario.json",
                  "--out", f"{root}/run"])[0] == 0
    return root


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, path + (index,))
    if path:
        yield path      # containers are replaceable too


def replace_leaf(data: bytes, pick: int, value) -> bytes:
    """One JSON leaf (of a drawn line, for JSONL) replaced by ``value``."""
    lines = data.decode("utf-8").splitlines()
    whole = not lines[0].rstrip().endswith("}")     # an indented document
    texts = ["\n".join(lines)] if whole else lines
    index = pick % len(texts)
    document = json.loads(texts[index])
    paths = list(leaves(document))
    path = paths[(pick // len(texts)) % len(paths)]
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    texts[index] = json.dumps(document)
    return ("\n".join(texts) + "\n").encode("utf-8")


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6), st.just([]), st.just({}), st.just([None]),
    st.just({"a": 1}))


@seed(20250)
@settings(max_examples=150, deadline=None, database=None)
@given(consumer=st.integers(0, len(CONSUMERS) - 1),
       how=st.sampled_from(["truncate", "leaf", "splice"]),
       where=st.floats(0.0, 1.0), pick=st.integers(0, 10**6),
       value=JSON_VALUES, junk=st.binary(max_size=6))
def test_damaged_artifact_never_exits_3(written, consumer, how, where,
                                        pick, value, junk):
    source, name, argv = CONSUMERS[consumer]
    data = (written / source).read_bytes()
    offset = int(where * len(data))
    if how == "leaf":
        damaged = replace_leaf(data, pick, value)
    elif how == "truncate":
        damaged = data[:offset]
    else:
        damaged = data[:offset] + junk + data[offset + pick % 4:]
    target = written / "damaged"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir()
    (target / name).write_bytes(damaged)
    code, err = quiet([str(target) if part == "@" else part
                       for part in argv])
    assert code in (0, 1, 2), (
        f"{' '.join(argv)} on {source} ({how} @ {offset}): exit {code}\n"
        f"{err}")
    if code == 2:
        assert len(err.splitlines()) == 1, err
