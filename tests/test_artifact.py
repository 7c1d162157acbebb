"""``repro.artifact``: the one door, its errors, and that it is the only one.

Unit tests for each reader/writer and each way ``require`` says no; then
the rule itself, held structurally: an ``ast`` walk over ``src/repro``
asserting nobody but ``artifact.py`` opens, reads, writes or JSON-parses
a file, nor maps an I/O or decode error to ``ConfigError`` — with the
pre-door ``repro/obs/reqtrace.py`` I/O half as the negative control.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import artifact
from repro.errors import ConfigError
from tests.test_malformed_inputs import refuse_reading

SRC = Path(repro.__file__).resolve().parent


class TestReadText:
    def test_missing_directory_not_utf8(self, tmp_path):
        with pytest.raises(ConfigError, match=r"thing not found: .*nope"):
            artifact.read_text(tmp_path / "nope", "thing")
        with pytest.raises(ConfigError, match="cannot read thing .*: Is a "
                                              "directory"):
            artifact.read_text(tmp_path, "thing")
        bad = tmp_path / "bad"
        bad.write_bytes(b"ok \xff\xfe")
        with pytest.raises(ConfigError, match="bad is not UTF-8 text: "
                                              ".* at byte 3"):
            artifact.read_text(bad, "thing")

    def test_unreadable(self, tmp_path, monkeypatch):
        path = tmp_path / "locked"
        path.write_text("{}")
        # The read refused as chmod 000 refuses it, root included.
        refuse_reading(path, monkeypatch)
        with pytest.raises(ConfigError, match="Permission denied"):
            artifact.read_text(path, "thing")

    def test_utf8_both_ways_and_bytes_kept(self, tmp_path):
        path = artifact.write_text(tmp_path / "a" / "b" / "x.txt",
                                   "p99 ≤ 900 µs\r\nnext\n")
        assert path.read_bytes() == "p99 ≤ 900 µs\r\nnext\n".encode("utf-8")
        assert artifact.read_text(path, "thing").startswith("p99 ≤ 900 µs")


class TestJson:
    def test_not_json_empty_not_an_object(self, tmp_path):
        path = tmp_path / "x.json"
        for text, wanted in (("{nope", "x.json is not valid JSON"),
                             ("", "x.json is not valid JSON"),
                             ("[1, 2]", r"x.json is not a JSON object "
                                        r"\(got list\)")):
            path.write_text(text)
            with pytest.raises(ConfigError, match=wanted):
                artifact.read_json(path, "thing")

    def test_jsonl_skips_blank_lines_and_names_the_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert list(artifact.read_jsonl(path, "thing")) == [
            (f"thing {path}:1", {"a": 1}), (f"thing {path}:4", {"a": 2})]
        path.write_text('{"a": 1}\n\n{"a":\n')
        with pytest.raises(ConfigError, match=r"x.jsonl:3 is not valid JSON"):
            list(artifact.read_jsonl(path, "thing"))
        path.write_text('{"a": 1}\n7\n')
        with pytest.raises(ConfigError, match=r"x.jsonl:2 is not a JSON "
                                              r"object"):
            list(artifact.read_jsonl(path, "thing"))

    def test_write_jsonl_read_records_round_trip(self, tmp_path):
        header = {"kind": "header", "schema": "s/v1", "meta": {"b": 1}}
        rows = [{"kind": "row", "z": 1, "a": [1.5, None]},
                {"kind": "other"}, {"kind": "row", "z": 2}]
        path = artifact.write_jsonl(tmp_path / "d" / "x.jsonl",
                                    [header, *rows])
        assert path.read_text().splitlines()[1] == \
            '{"a": [1.5, null], "kind": "row", "z": 1}'
        assert artifact.read_records(path, "thing", "s/v1", "row") == \
            (header, [rows[0], rows[2]])
        with pytest.raises(ConfigError, match=r"unsupported thing .*x.jsonl:1"
                                              r" schema: 's/v1'"):
            artifact.read_records(path, "thing", "s/v2", "row")
        artifact.write_jsonl(path, rows)
        with pytest.raises(ConfigError, match="has no s/v1 header"):
            artifact.read_records(path, "thing", "s/v1", "row")

    def test_dumps_is_canonical_and_strict(self):
        assert artifact.dumps({"b": 1, "a": [True]}) == \
            '{\n  "a": [\n    true\n  ],\n  "b": 1\n}'
        with pytest.raises(ValueError):
            artifact.dumps({"x": float("nan")})

    def test_unwritable_target(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(ConfigError, match="cannot write"):
            artifact.write_text(tmp_path / "file" / "x.json", "{}")
        with pytest.raises(ConfigError, match="cannot write .*: Is a dir"):
            artifact.write_text(tmp_path, "{}")


class TestRequire:
    def test_object_schema_absent_key(self):
        with pytest.raises(ConfigError, match=r"doc is not a JSON object "
                                              r"\(got str\)"):
            artifact.require("x", "doc")
        with pytest.raises(ConfigError, match="unsupported doc schema: None "
                                              r"\(expected 's/v1'\)"):
            artifact.require({}, "doc", schema="s/v1")
        with pytest.raises(ConfigError, match="doc missing 'b'"):
            artifact.require({"a": 1}, "doc", {"a": int, "b": int})
        document = {"schema": "s/v1", "a": 1}
        assert artifact.require(document, "doc", {"a": int},
                                schema="s/v1") is document

    def test_types(self):
        ok = {"n": 1, "x": 1, "f": 0.5, "s": "a", "b": True, "none": None,
              "d": {}, "l": []}
        artifact.require(ok, "doc", {"n": int, "x": float, "f": float,
                                     "s": str, "b": bool, "d": dict,
                                     "l": list, "none": (str, type(None))})
        for field, kind, value, said in (
                ("n", int, True, "'n' must be int, got True"),
                ("x", float, False, "'x' must be float, got False"),
                ("n", int, 1.0, "'n' must be int, got 1.0"),
                ("x", float, "1", "'x' must be float, got '1'"),
                ("s", str, 3, "'s' must be str, got 3"),
                ("d", dict, [], r"'d' must be dict, got \[\]"),
                ("s", (str, type(None)), 0, "'s' must be str or NoneType")):
            with pytest.raises(ConfigError, match=f"doc: {said}"):
                artifact.require({**ok, field: value}, "doc", {field: kind})

    def test_optional_is_typed_only_when_present(self):
        artifact.require({}, "doc", optional={"seed": int})
        with pytest.raises(ConfigError, match="'seed' must be int"):
            artifact.require({"seed": "x"}, "doc", optional={"seed": int})


# -- the rule, held structurally ---------------------------------------------

_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes",
               "write_bytes"}
_MAPPED = {"OSError", "IOError", "FileNotFoundError", "UnicodeDecodeError",
           "UnicodeError", "JSONDecodeError"}

#: (file, receiver.call) that touch a file descriptor but not an artifact.
ALLOWED = {
    ("cli.py", "os.open"):
        "main() re-points stdout at os.devnull after BrokenPipeError so "
        "the interpreter's exit-time flush cannot raise a second time",
}


def file_calls(source: str) -> list[str]:
    """``receiver.call`` for every file or JSON-parse call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            raises = any(isinstance(n, ast.Raise) and n.exc is not None
                         and "ConfigError" in ast.dump(n.exc)
                         for n in ast.walk(node))
            found += [f"except {name} -> ConfigError"
                      for name in sorted(names & _MAPPED) if raises]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append("open")
        elif isinstance(func, ast.Attribute):
            receiver = (func.value.id if isinstance(func.value, ast.Name)
                        else "<expr>")
            if func.attr in _FILE_CALLS and receiver != "artifact":
                found.append(f"{receiver}.{func.attr}")
            elif func.attr in ("load", "loads") and receiver == "json":
                found.append(f"json.{func.attr}")
    return found


def test_only_artifact_py_touches_a_file():
    offenders = {}
    seen_allowed = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "artifact.py":
            continue
        name = str(path.relative_to(SRC))
        calls = file_calls(path.read_text())
        seen_allowed |= {(name, call) for call in calls}
        calls = [call for call in calls if (name, call) not in ALLOWED]
        if calls:
            offenders[name] = calls
    assert not offenders, (
        f"only repro/artifact.py may open or parse a file: {offenders}")
    assert set(ALLOWED) <= seen_allowed, "stale allow-list entry"


def test_the_door_itself_is_seen_by_the_walk():
    calls = file_calls((SRC / "artifact.py").read_text())
    assert {"<expr>.read_text", "path.open", "json.loads",
            "except OSError -> ConfigError",
            "except UnicodeDecodeError -> ConfigError",
            "except JSONDecodeError -> ConfigError"} <= set(calls)


#: The I/O half of ``repro/obs/reqtrace.py`` as it stood before the door.
PRE_DOOR_REQTRACE = '''
def write_reqtrace(path, records, header=None, meta=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps(header or _header(meta), sort_keys=True))
        handle.write("\\n")
    return path


def load_reqtrace(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"reqtrace artifact not found: {path}")
    for line_number, line in enumerate(path.read_text().splitlines(),
                                       start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigError(
                f"reqtrace artifact {path}:{line_number} is not valid "
                f"JSON: {error}") from error
'''


def test_negative_control_the_old_reqtrace_is_caught():
    assert sorted(file_calls(PRE_DOOR_REQTRACE)) == [
        "except JSONDecodeError -> ConfigError", "json.loads", "path.open",
        "path.read_text"]


# -- UTF-8 whatever the locale ------------------------------------------------

def _cli_round_trip(out: Path, env: dict) -> dict[str, bytes]:
    """``fleet --out``, ``run`` and ``report --artifact`` into ``out``."""
    out.mkdir()
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps({
        "name": "tiny", "kind": "fleet", "seed": 3, "modes": ["baseline"],
        "params": {"devices": 4, "horizon_days": 200, "step_days": 50,
                   "geometry": {"blocks": 16, "fpages_per_block": 16}}}))
    for argv in (
            ["fleet", "--devices", "4", "--years", "1", "--blocks", "16",
             "--out", "fleet.json"],
            ["run", "scenario.json", "--out", "."],
            ["report", "--artifact", "tiny.json", "--markdown", "report.md",
             "--json", "report.json"]):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=out, timeout=300,
            capture_output=True, env={**os.environ, **env,
                                      "PYTHONPATH": str(SRC.parent)})
        assert done.returncode == 0, done.stderr.decode()
    return {name: (out / name).read_bytes()
            for name in ("fleet.json", "tiny.json", "report.md",
                         "report.json")}


def test_artifact_bytes_do_not_depend_on_the_locale(tmp_path):
    default = _cli_round_trip(tmp_path / "default", {})
    ascii_locale = _cli_round_trip(
        tmp_path / "c", {"LC_ALL": "C", "PYTHONUTF8": "0"})
    assert default == ascii_locale
    assert any(byte > 127 for byte in default["report.md"]), (
        "the report no longer holds a non-ASCII character: this test "
        "needs another witness")
