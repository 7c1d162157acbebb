"""Every file the CLI reads x every way it can be wrong -> exit 2, one line.

The contract as a matrix: the eleven inputs the CLI reads — a path on
the command line, or an artifact at its fixed name in a run directory —
each fed a missing path, a directory, an unreadable file, bytes that
are not UTF-8, an empty file, valid JSON that is not an object, a
foreign schema, a document with a required field dropped and one with a
field of the wrong type. For a run-directory artifact "missing" is the
directory itself; the file sits at its fixed name for every other row.
``main`` must return 2 and stderr must be exactly one ``repro:
configuration error: ...`` line naming the path or the field — never 3,
never a traceback. A control row feeds each input its valid form, so a
malformed row cannot pass on a wrong base document.

A run-directory row is named after its command and the artifact it
reads, in flag form: ``report --metrics`` is the ``metrics.json`` of
``repro report DIR``, ``report --against`` the ``endurance.jsonl`` of
its ``--against DIR2``, ``report --experiment`` a ``<name>.json``
experiment document (one with no schema tag, so its "wrong schema" is a
foreign document). The two ``traffic`` rows are the inputs a traffic
scenario of ``repro run`` adds, named as the options they replaced: the
file its ``trace`` param names, and its embedded ``slo`` object. The
``slo --slo`` row is likewise a probe scenario's embedded ``slo``
object, named as the option of the ``repro slo`` it replaced.

A scenario's own fields are rows of a second table
(``TRAFFIC_FIELDS``): each a document ``repro run`` must refuse with
exit 2 and one line naming the field — a traffic scenario's, and a
field a kind would ignore (``modes`` off a fleet or probe, ``seed`` on
a kind whose draws are fixed, ``params`` on the agreement kind).
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
EXPERIMENT = {"experiment": "fleet", "meta": {"kind": "fleet"},
              "series": {}, "tables": {"summary": {
                  "headers": ["mode", "mean_lifetime_days"],
                  "rows": [["baseline", 400.0], ["shrink", 520.0]]}}}
TRACE = [{"kind": "span", "name": "step", "time": 0.0, "end_time": 2.0,
          "span_id": 1, "parent_id": None, "attrs": {}}]
OPS = "# trace n_lbas=8\nW 1 00ff\nR 1\nT 1\n"

TRAFFIC = {"name": "traffic", "kind": "traffic",
           "params": {"tenants": 4, "duration_us": 400.0, "cells": 1}}
PROBE = {"name": "probe", "kind": "probe", "modes": ["baseline"],
         "params": {"requests": 40, "every": 4}}


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
    """One command line that reads a file, the forms of that file, and
    what the dropped / mistyped messages must name.

    ``@`` in ``argv`` is the input: the file itself, or, when ``file``
    is set, the run directory that holds it under that name. ``@dir`` is
    a second run directory holding the valid ``dir_files``; ``@scenario``
    is ``scenario`` written to a file, its ``"@"`` params set to the
    input's path.
    """

    def __init__(self, name, argv, forms, field, file=None,
                 dir_files=None, scenario=None):
        self.name, self._argv, self.forms = name, argv, forms
        self.field = field
        self.file, self.dir_files = file, dir_files or {}
        self.scenario = scenario

    def argv(self, path, tmp_path):
        given = {"@": path, "@dir": tmp_path / "helper_dir",
                 "@scenario": tmp_path / "helper_scenario.json"}
        if self.scenario:
            params = {key: str(path) if value == "@" else value
                      for key, value in self.scenario["params"].items()}
            given["@scenario"].write_text(
                json.dumps({**self.scenario, "params": params}))
        if self.dir_files:
            given["@dir"].mkdir(exist_ok=True)
            for name, text in self.dir_files.items():
                (given["@dir"] / name).write_text(text)
        out = [str(given.get(part, part)) for part in self._argv]
        if out[0] == "run":
            out += ["--out", str(tmp_path / "out")]
        return out


def one(document) -> str:
    return json.dumps(document)


def embedded_slo(scenario) -> dict:
    """The content forms of a scenario whose ``slo`` object is the
    malformed part."""
    return forms({**scenario, "slo": SLO}, one,
                 {**scenario, "slo": edited(SLO, ["schema"],
                                            "repro.obs.slo/v0")},
                 ["slo", "objectives", 0, "name"],
                 (["slo", "objectives", 0, "percentile"], "p"))


_ENDURANCE_FORMS = forms(
    ENDURANCE, jsonl,
    edited(ENDURANCE, [0, "schema"], "repro.obs.endurance/v0"),
    [1, "waf"], ([1, "programs"], 5))

INPUTS = [
    Input("run SCENARIO", ["run", "@"],
          forms(SCENARIO, one, edited(SCENARIO, ["kind"], "teleport"),
                ["kind"], (["params", "devices"], "many")),
          ("kind", "devices")),
    # The fault plan of a fleet run (`repro run` of a fleet scenario).
    Input("fleet --faults",
          ["run", "scenarios/quick_fleet.json", "--faults", "@"],
          forms(FAULTS, one, edited(FAULTS, ["schema"], "repro.faults/v0"),
                ["events"], (["events", 0, "when"], "soon")),
          ("events", "when")),
    # A probe scenario's embedded objectives.
    Input("slo --slo", ["run", "@"], embedded_slo(PROBE),
          ("name", "percentile")),
    # The wear ledger of `repro report DIR`, and of its `--against DIR2`.
    Input("report --endurance", ["report", "@"], _ENDURANCE_FORMS,
          ("waf", "programs"), file="endurance.jsonl"),
    Input("report --against", ["report", "@dir", "--against", "@"],
          _ENDURANCE_FORMS, ("waf", "programs"), file="endurance.jsonl",
          dir_files={"endurance.jsonl": jsonl(ENDURANCE)}),
    Input("report --metrics", ["report", "@"],
          forms(METRICS, one,
                edited(METRICS, ["schema"], "repro.obs.metrics/v0"),
                ["metrics"], (["metrics"], 5)),
          ("metrics", "metrics"), file="metrics.json"),
    Input("report --timeseries", ["report", "@"],
          forms(TIMESERIES, jsonl,
                edited(TIMESERIES, [0, "schema"], "repro.obs.timeseries/v0"),
                [1, "t"], ([1, "t"], "x")),
          ("'t'", "'t'"), file="timeseries.jsonl"),
    # An experiment document at a name of its own.
    Input("report --experiment", ["report", "@"],
          forms(EXPERIMENT, one, METRICS, ["meta", "kind"],
                (["tables", "summary", "rows", 0, 1], "long")),
          ("kind", "mean_lifetime_days"), file="fleet.json"),
    # No schema tag on the trace: "wrong schema" is a foreign artifact.
    Input("report --trace", ["report", "@"],
          forms(TRACE, jsonl, TIMESERIES, [0, "time"],
                ([0, "time"], "noon")),
          ("time", "time"), file="trace.jsonl"),
    # The replay file a traffic scenario's `trace` param names. The
    # format is lines, not JSON.
    Input("traffic --trace", ["run", "@scenario"],
          {"valid": OPS,
           "wrong schema": OPS.replace("# trace n_lbas", "# trace/v9 lbas"),
           "field dropped": OPS.replace("R 1\n", "R\n"),
           "field mistyped": OPS.replace("R 1\n", "R one\n")},
          ("trace line", "trace line"),
          scenario={**TRAFFIC, "params": {**TRAFFIC["params"],
                                          "trace": "@"}}),
    # A traffic scenario's embedded objectives: the scenario file is the
    # input, its "slo" object the malformed part.
    Input("traffic --slo", ["run", "@"], embedded_slo(TRAFFIC),
          ("name", "percentile")),
]

#: The one cell that is not an error: a run that recorded no span writes
#: an empty trace, and ``repro report`` reads it as no records.
EMPTY_IS_VALID = "report --trace"

MALFORMATIONS = ("missing", "directory", "unreadable", "not UTF-8", "empty",
                 "not an object", "wrong schema", "field dropped",
                 "field mistyped")


def place(entry: Input, form: str, tmp_path, monkeypatch):
    """Put the input's ``form`` on disk; return the path the command is
    given (the file, or its run directory) and the path its error must
    name (the file, or the run directory when that is what is missing).

    An ``unreadable`` file is a valid one whose read is refused. The
    refusal is made, not asked of the file system: root reads a
    chmod-000 file, and the suite runs as root in CI.
    """
    if entry.file is None:
        path = given = tmp_path / "input.jsonl"
    else:
        given = tmp_path / "run"
        path = given / entry.file
        if form == "missing":
            return given, given
        given.mkdir()
    if form == "missing":
        return given, path
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
    return given, path


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
    given, _ = place(entry, "valid", tmp_path, monkeypatch)
    code, err = run(entry, given, tmp_path, capsys)
    assert code == 0, err


@pytest.mark.parametrize("form", MALFORMATIONS)
@pytest.mark.parametrize("entry", INPUTS, ids=lambda entry: entry.name)
def test_malformed_file_is_exit_2_and_one_line(entry, form, tmp_path,
                                               capsys, monkeypatch):
    given, path = place(entry, form, tmp_path, monkeypatch)
    code, err = run(entry, given, tmp_path, capsys)
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


#: (id, scenario document, extra argv, what the one stderr line names).
TRAFFIC_FIELDS = [
    ("unknown param", {**TRAFFIC, "params": {"tenant": 4}}, [], "tenant"),
    ("mistyped param", {**TRAFFIC, "params": {"tenants": "4"}}, [],
     "tenants"),
    ("runs", {**TRAFFIC, "runs": 2}, [], "runs"),
    ("embedded faults", {**TRAFFIC, "faults": FAULTS}, [], "fault plan"),
    ("--faults", TRAFFIC, ["--faults", "@faults"], "fault plan"),
    ("slo on a fleet", {**SCENARIO, "slo": SLO}, [], "slo"),
    ("modes on carbon", {"name": "t", "kind": "carbon", "modes": ["x"]},
     [], "modes"),
    ("modes on traffic", {**TRAFFIC, "modes": ["regen"]}, [], "modes"),
    ("seed on carbon", {"name": "t", "kind": "carbon", "seed": 3}, [],
     "seed"),
    ("seed on tco", {"name": "t", "kind": "tco", "seed": 3}, [], "seed"),
    ("seed on fig2", {"name": "t", "kind": "fig2", "seed": 3}, [], "seed"),
    ("seed on agreement", {"name": "t", "kind": "agreement", "seed": 3},
     [], "seed"),
    ("params on agreement", {"name": "t", "kind": "agreement",
                             "params": {"requests": 5}}, [], "params"),
]


@pytest.mark.parametrize("document, extra, field",
                         [row[1:] for row in TRAFFIC_FIELDS],
                         ids=[row[0] for row in TRAFFIC_FIELDS])
def test_traffic_scenario_field_is_exit_2_and_one_line(document, extra, field,
                                                       tmp_path, capsys):
    scenario, plan = tmp_path / "scenario.json", tmp_path / "plan.json"
    scenario.write_text(json.dumps(document))
    plan.write_text(json.dumps(FAULTS))
    argv = ["run", str(scenario), "--out", str(tmp_path / "out"),
            *[str(plan) if part == "@faults" else part for part in extra]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("repro: configuration error: ")
    assert field in lines[0], err


@pytest.mark.parametrize("argv, records, edit", [
    (["report", "@", "--against", "@"], ENDURANCE, ([1, "programs"], 5)),
    (["report", "@"], ENDURANCE,
     ([1, "mean_pec"], True)),    # a bool is not a number
    (["report", "@"], ENDURANCE, ([1, "waf"],)),
], ids=["report --against programs=5", "report mean_pec=true",
        "report waf dropped"])
def test_mistyped_fields_named_in_the_issue(argv, records, edit, tmp_path,
                                            capsys):
    """The one line names the field, and the ledger's path and line."""
    (tmp_path / "endurance.jsonl").write_text(jsonl(edited(records, *edit)))
    argv = [str(tmp_path) if part == "@" else part for part in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and edit[0][-1] in err, err
    assert f"{tmp_path / 'endurance.jsonl'}:2" in err, err
