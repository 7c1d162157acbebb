"""Every file the CLI reads x every way it can be wrong -> exit 2, one line.

The contract as a matrix: the eleven command-line inputs that name a
file, each fed a missing path, a directory, an unreadable file, bytes
that are not UTF-8, an empty file, valid JSON that is not an object, a
foreign schema, a document with a required field dropped and one with a
field of the wrong type. ``main`` must return 2 and stderr must be
exactly one ``repro: configuration error: ...`` line naming the path or
the field — never 3, never a traceback. A control row feeds each input
its valid form, so a malformed row cannot pass on a wrong base document.
"""

from __future__ import annotations

import copy
import errno
import json
import os
import pathlib

import pytest

from repro.cli import main

SLO = {"schema": "repro.obs.slo/v1", "objectives": [
    {"name": "p99", "kind": "latency", "percentile": 99.0,
     "threshold_us": 1e9}]}
FAULTS = {"schema": "repro.faults/v1", "events": [
    {"site": "fleet.step", "fault": "device_loss", "when": 1}]}
SCENARIO = {"name": "tiny", "kind": "fleet", "seed": 3,
            "params": {"devices": 4, "horizon_days": 200, "step_days": 50,
                       "geometry": {"blocks": 16, "fpages_per_block": 16}},
            "modes": ["baseline"]}
REQTRACE = [
    {"kind": "header", "name": "reqtrace", "time": 0.0, "meta": {},
     "schema": "repro.obs.reqtrace/v1"},
    {"kind": "request", "name": "io.read", "time": 0.0, "end_time": 5.0,
     "op": "read", "device_kind": "baseline", "stream": 0, "attrs": {},
     "submit_us": 0.0, "end_us": 5.0, "total_us": 5.0, "wait_us": 1.0,
     "service_us": 4.0, "segments": {"queue_wait": 1.0, "device": 4.0}}]
_BY_CAUSE = {cause: 0 for cause in ("gc", "wear_level", "scrub", "shrink",
                                    "regen", "meta", "remount")}
ENDURANCE = [
    {"kind": "header", "name": "endurance", "time": 0.0, "meta": {},
     "schema": "repro.obs.endurance/v1"},
    {"kind": "device", "name": "d0", "blocks": 2,
     "programs": {"host": 3, **_BY_CAUSE}, "total_programs": 3,
     "program_opages": {"host": 12, **_BY_CAUSE},
     "total_program_opages": 12,
     "erases": {"host": 0, **_BY_CAUSE}, "total_erases": 0,
     "mean_pec": 0.0, "max_pec": 0, "pec_histogram": {"0": 2}, "waf": 1.0,
     "forecast": {"eta_host_opages": 10.0, "mean_pec": 1.0,
                  "pec_limit": 12.0, "slope_pec_per_host_opage": 0.5}}]
METRICS = {"schema": "repro.obs.metrics/v1", "metrics": [
    {"name": "repro_x_total", "type": "counter", "help": "x", "unit": None,
     "labelnames": [], "samples": [{"labels": {}, "value": 1.0}]}]}
TIMESERIES = [
    {"schema": "repro.obs.timeseries/v1", "cadence": 1.0, "capacity": 8,
     "samples_taken": 2},
    {"name": "repro_x", "labels": {"mode": "baseline"}, "unit": None,
     "kind": "gauge", "resolution": 0.0, "downsamples": 0,
     "t": [0.0, 1.0], "v": [1.0, 2.0]}]
TRACE = [{"kind": "span", "name": "step", "time": 0.0, "end_time": 2.0,
          "span_id": 1, "parent_id": None, "attrs": {}}]
EXPERIMENT = {"experiment": "e", "meta": {},
              "tables": {"t": {"headers": ["a"], "rows": [[1]]}},
              "series": {}}
OPS = "# trace n_lbas=8\nW 1 00ff\nR 1\nT 1\n"

_TRAFFIC = ["traffic", "--tenants", "4", "--duration", "400", "--cells", "1"]


def jsonl(records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


def edited(document, path, value=KeyError):
    """A deep copy with ``path`` (keys/indices) set, or dropped."""
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return document


def forms(valid, render, schema, dropped, mistyped) -> dict:
    """The four content forms of a JSON input, as text."""
    return {"valid": render(valid), "wrong schema": render(schema),
            "field dropped": render(edited(valid, dropped)),
            "field mistyped": render(edited(valid, *mistyped))}


class Input:
    """One file-taking command line, the forms of its file, and what the
    dropped / mistyped messages must name."""

    def __init__(self, name, argv, forms, field, helpers=()):
        self.name, self._argv, self.forms = name, argv, forms
        self.field, self.helpers = field, helpers

    def argv(self, path, tmp_path):
        out = [str(path) if part == "@" else part for part in self._argv]
        for flag, text in self.helpers:
            helper = tmp_path / f"helper{flag}"
            helper.write_text(text)
            out += [flag, str(helper)]
        if out[0] in ("run", "traffic"):
            out += ["--out", str(tmp_path / "out")]
        return out


def one(document) -> str:
    return json.dumps(document)


_SLO_FORMS = forms(SLO, one, edited(SLO, ["schema"], "repro.obs.slo/v0"),
                   ["objectives", 0, "name"],
                   (["objectives", 0, "percentile"], "p"))

INPUTS = [
    Input("run SCENARIO", ["run", "@"],
          forms(SCENARIO, one, edited(SCENARIO, ["kind"], "teleport"),
                ["kind"], (["params", "devices"], "many")),
          ("kind", "devices")),
    Input("fleet --faults",
          ["fleet", "--devices", "4", "--years", "1", "--blocks", "16",
           "--faults", "@"],
          forms(FAULTS, one, edited(FAULTS, ["schema"], "repro.faults/v0"),
                ["events"], (["events", 0, "when"], "soon")),
          ("events", "when")),
    Input("slo --slo", ["slo", "--slo", "@"], _SLO_FORMS,
          ("name", "percentile"), helpers=(("--reqtrace", jsonl(REQTRACE)),)),
    Input("slo --reqtrace", ["slo", "--reqtrace", "@"],
          forms(REQTRACE, jsonl,
                edited(REQTRACE, [0, "schema"], "repro.obs.reqtrace/v0"),
                [1, "total_us"], ([1, "total_us"], "a")),
          ("total_us", "total_us"), helpers=(("--slo", one(SLO)),)),
    Input("wear --endurance", ["wear", "report", "--endurance", "@"],
          forms(ENDURANCE, jsonl,
                edited(ENDURANCE, [0, "schema"], "repro.obs.endurance/v0"),
                [1, "waf"], ([1, "programs"], 5)),
          ("waf", "programs")),
    Input("report --metrics", ["report", "--metrics", "@"],
          forms(METRICS, one,
                edited(METRICS, ["schema"], "repro.obs.metrics/v0"),
                ["metrics"], (["metrics"], 5)),
          ("metrics", "metrics")),
    Input("report --timeseries", ["report", "--timeseries", "@"],
          forms(TIMESERIES, jsonl,
                edited(TIMESERIES, [0, "schema"], "repro.obs.timeseries/v0"),
                [1, "t"], ([1, "t"], "x")),
          ("'t'", "'t'")),
    # No schema tag on these two: "wrong schema" is a foreign artifact.
    Input("report --trace", ["report", "--trace", "@"],
          forms(TRACE, jsonl, TIMESERIES, [0, "time"],
                ([0, "time"], "noon")),
          ("time", "time")),
    Input("report --artifact", ["report", "--artifact", "@"],
          forms(EXPERIMENT, one, METRICS, ["tables"], (["series"], [])),
          ("tables", "series")),
    # The replay format is lines, not JSON.
    Input("traffic --trace", _TRAFFIC + ["--trace", "@"],
          {"valid": OPS,
           "wrong schema": OPS.replace("# trace n_lbas", "# trace/v9 lbas"),
           "field dropped": OPS.replace("R 1\n", "R\n"),
           "field mistyped": OPS.replace("R 1\n", "R one\n")},
          ("trace line", "trace line")),
    Input("traffic --slo", _TRAFFIC + ["--slo", "@"], _SLO_FORMS,
          ("name", "percentile")),
]

#: The one cell that is not an error: a run that recorded no span writes
#: an empty trace, and ``repro report --trace`` reads it as no records.
EMPTY_IS_VALID = "report --trace"

MALFORMATIONS = ("missing", "directory", "unreadable", "not UTF-8", "empty",
                 "not an object", "wrong schema", "field dropped",
                 "field mistyped")


def place(entry: Input, form: str, tmp_path, monkeypatch):
    """Put the input's ``form`` on disk; return its path.

    An ``unreadable`` file is a valid one whose read is refused. The
    refusal is made, not asked of the file system: root reads a
    chmod-000 file, and the suite runs as root in CI.
    """
    path = tmp_path / "input.jsonl"
    if form == "missing":
        return path
    if form == "directory":
        path.mkdir()
    elif form == "not UTF-8":
        path.write_bytes(b"\xff\xfe{}\n")
    elif form == "empty":
        path.write_bytes(b"")
    elif form == "not an object":
        path.write_text("[1, 2]\n")
    else:
        path.write_text(entry.forms["valid" if form == "unreadable"
                                    else form], encoding="utf-8")
        if form == "unreadable":
            refuse_reading(path, monkeypatch)
    return path


def refuse_reading(path, monkeypatch) -> None:
    """Make ``Path.read_text`` of ``path`` (and only of it) fail as a
    file without read permission does."""
    read_text = pathlib.Path.read_text

    def refused(self, *args, **kwargs):
        if self == path:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", refused)


def run(entry: Input, path, tmp_path, capsys):
    code = main(entry.argv(path, tmp_path))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("entry", INPUTS, ids=lambda entry: entry.name)
def test_the_valid_form_is_accepted(entry, tmp_path, capsys, monkeypatch):
    """Control: every base document really is valid for its command."""
    code, err = run(entry, place(entry, "valid", tmp_path, monkeypatch),
                    tmp_path, capsys)
    assert code == 0, err


@pytest.mark.parametrize("form", MALFORMATIONS)
@pytest.mark.parametrize("entry", INPUTS, ids=lambda entry: entry.name)
def test_malformed_file_is_exit_2_and_one_line(entry, form, tmp_path,
                                               capsys, monkeypatch):
    path = place(entry, form, tmp_path, monkeypatch)
    code, err = run(entry, path, tmp_path, capsys)
    if form == "empty" and entry.name == EMPTY_IS_VALID:
        assert code == 0, err
        return
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("repro: configuration error: ")
    if form in ("field dropped", "field mistyped"):
        assert entry.field[form == "field mistyped"] in lines[0], err
    elif form != "wrong schema":
        assert str(path) in lines[0], err


@pytest.mark.parametrize("argv, records, edit", [
    (["wear", "forecast", "--endurance", "@"], ENDURANCE,
     ([1, "programs"], 5)),
    (["slo", "--reqtrace", "@", "--slo", "@slo"], REQTRACE,
     ([1, "end_us"], "z")),
    (["wear", "report", "--endurance", "@"], ENDURANCE,
     ([1, "mean_pec"], True)),    # a bool is not a number
], ids=["wear forecast programs=5", "slo end_us=z", "wear mean_pec=true"])
def test_mistyped_fields_named_in_the_issue(argv, records, edit, tmp_path,
                                            capsys):
    path = tmp_path / "input.jsonl"
    path.write_text(jsonl(edited(records, *edit)))
    slo = tmp_path / "slo.json"
    slo.write_text(json.dumps(SLO))
    argv = [{"@": str(path), "@slo": str(slo)}.get(part, part)
            for part in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and edit[0][-1] in err, err
