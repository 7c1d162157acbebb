"""Damage what the CLI wrote, hand it back: exit 0, 1 or 2 — never 3.

The matrix in ``tests/test_malformed_inputs.py`` walks the malformations
someone thought of. This sweep draws them: every artifact ``repro fleet``
and ``repro run`` just wrote is truncated at a drawn byte offset, has a
drawn leaf replaced by a drawn JSON value, or has drawn bytes spliced
in, and goes back through every command that reads that kind of file.
Whatever the damage, the verdict is "fine" (0), "claim violated" (1) or
"configuration error" (2); an unexpected-error exit is a validator that
checked a key was there and not what it held.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cli import main

SLO = str(Path(__file__).resolve().parent.parent / "scenarios"
          / "slo_default.json")

#: (artifact the CLI wrote, a command line that reads it back)
CONSUMERS = [
    ("m.json", ["report", "--metrics", "@"]),
    ("ts.jsonl", ["report", "--timeseries", "@"]),
    ("ts.csv", ["report", "--timeseries", "@"]),
    ("t.jsonl", ["report", "--trace", "@"]),
    ("rt.jsonl", ["report", "--trace", "@"]),
    ("rt.jsonl", ["slo", "--slo", SLO, "--reqtrace", "@"]),
    ("e.jsonl", ["report", "--endurance", "@"]),
    ("e.jsonl", ["wear", "report", "--endurance", "@"]),
    ("e.jsonl", ["wear", "forecast", "--endurance", "@",
                 "--horizon", "500", "--check"]),
    ("e.jsonl", ["wear", "diff", "--endurance", "@", "--against", "@"]),
    ("tiny.json", ["report", "--artifact", "@"]),
]

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
    """Where one small ``fleet``, one ``slo --measure`` and one ``run``
    wrote their artifacts."""
    root = tmp_path_factory.mktemp("written")
    fleet = ["fleet", "--devices", "4", "--years", "1", "--blocks", "16"]
    assert quiet(fleet + [
        "--metrics-out", f"{root}/m.json", "--trace-out", f"{root}/t.jsonl",
        "--timeseries-out", f"{root}/ts.jsonl"])[0] == 0
    assert quiet(["slo", "--slo", SLO, "--measure",
                  "--reqtrace-out", f"{root}/rt.jsonl",
                  "--endurance-out", f"{root}/e.jsonl"])[0] == 0
    assert quiet(fleet + ["--timeseries-out", f"{root}/ts.csv"])[0] == 0
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert quiet(["run", f"{root}/scenario.json", "--out", str(root),
                  "--timeseries-out", f"{root}/unused.jsonl"])[0] == 0
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
    name, argv = CONSUMERS[consumer]
    data = (written / name).read_bytes()
    offset = int(where * len(data))
    if how == "leaf" and not name.endswith(".csv"):
        damaged = replace_leaf(data, pick, value)
    elif how == "truncate":
        damaged = data[:offset]
    else:
        damaged = data[:offset] + junk + data[offset + pick % 4:]
    target = written / f"damaged-{name}"
    target.write_bytes(damaged)
    code, err = quiet([str(target) if part == "@" else part
                       for part in argv])
    assert code in (0, 1, 2), (
        f"{' '.join(argv)} on {name} ({how} @ {offset}): exit {code}\n{err}")
    if code == 2:
        assert len(err.splitlines()) == 1, err
