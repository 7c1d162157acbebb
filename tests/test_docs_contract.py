"""The live documents (``LIVE_DOCS``) are contracts: what they name exists.

One resolver, one span rule: a back-ticked name or path holding a ``.``,
``_``, ``/`` or an upper-case letter resolves in ``Names``, or is
``RETIRED`` (mentioned as gone, and must stay gone). ``f(x)`` reads as
``f``; a ledger row ``- `repro.x.Y`: `a` `` as ``repro.x.Y.a``.
``docs/perf-log/`` is history and is not checked. Every citation
``<DOC>.md, "<heading>"`` in the tree names a heading that exists. Four
catalogs are held both ways (fault sites, metrics and their ``recorded``
column, SMART fields, CLI flags), and two prose checks run over every
live document. The CLI checks (flags and subcommands) also read the
docstrings of ``src/repro``.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import collections
import functools
import importlib
import json
import keyword
import math
import pkgutil
import re
import sys
import types
from pathlib import Path

import numpy
import pytest

import repro
import repro.faults
from repro.obs.smart import SMART_FIELDS

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SRC = ROOT / "src" / "repro"
#: What users read (CHANGES.md, ROADMAP.md, docs/perf-log/ are history).
LIVE_DOCS = sorted([*DOCS.glob("*.md"), ROOT / "README.md",
                    ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"])
#: Names a live document mentions as gone.
RETIRED = frozenset({
    "FleetRules.build_columns", "PageMappedFTL.invalidate_batch",
    "engine._admit", "engine._arrive", "keep_latencies", "DWPDSchedule",
    "level_wear", "CostBenefitGC", "read_opages", "FlashChip.read_fpage",
    "_gc_once_traced", "_evacuate_fpage_traced", "_decommission_traced",
    "_regenerate_traced", "_remount_cause", "GCPolicy", "SWEEP_SCHEMA",
    "sweep_document", "write_sweep_artifact", "load_sweep_artifact",
    "validate_sweep_document", "summarize_sweep", "write_engine_artifact",
    "load_engine_artifact", "select_min_wear_block", "BlockIndex.array",
    "_level_py", "_erase_counts", "_valid_per_block"})

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_CALL = re.compile(r"([A-Za-z_][\w.]*)\(.*\)")
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_PATH = re.compile(r"[\w./-]+/[\w.-]+|[\w.-]+\.(?:py|json|jsonl|md|yml)")
_TEST_ID = re.compile(r"([\w./-]+\.py)((?:::\w+)+)")
#: ``repro.obs.reqtrace/v1``: looks like a path, names a document format.
_SCHEMA_ID = re.compile(r"repro\.[\w.]+/v\d+")
_HELD = re.compile(r"[._/A-Z]")
_LEDGER_ROW = re.compile(r"^- `(repro(?:\.\w+)+)`: (.+(?:\n  .+)*)", re.M)
_ENVIRON = re.compile(r"\benviron(?:\.get)?[(\[]\s*[\"']([A-Z][A-Z0-9_]*)")


def spans(text: str) -> set[str]:
    """The back-ticked spans of ``text`` the contract holds to resolve."""
    text = _LEDGER_ROW.sub(lambda row: " ".join(
        f"`{row[1]}.{member.split('(')[0]}`"
        for member in _CODE_SPAN.findall(row[2])), _FENCE.sub("", text))
    found = {call[1] if (call := _CALL.fullmatch(span)) else span
             for span in _CODE_SPAN.findall(text)}
    return {span for span in found if _HELD.search(span)
            and not _SCHEMA_ID.fullmatch(span) and (
                _NAME.fullmatch(span) or _PATH.fullmatch(span)
                or _TEST_ID.fullmatch(span))}


def resolves_in(root: object, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."), root)
    except AttributeError:
        return False
    return True


def known_strings() -> set[str]:
    """Bench, workload, metric, layer and ``fleet_grid`` names, fault sites
    and kinds, string literals and parameter names of ``src/repro`` and
    the perf harness, environment variables the tree reads, and what the
    scipy ECC oracle imports (parsed: scipy may be poisoned)."""
    def load(path):
        return json.loads((ROOT / path).read_text())
    manifest = load("BENCHMARK.json")
    grid = load("benchmarks/e2e/reference/seed_20250.json")["workloads"]
    metrics = {m["name"]
               for m in manifest["end_to_end"] + manifest["per_layer"]}
    found = (metrics | {name.rsplit(".", 1)[0] for name in metrics}
             | set(grid["fleet_grid"]) | set(grid["fleet_grid"]["parts"])
             | set(repro.faults.SITES)
             | set().union(*repro.faults.SITES.values())
             | {w["name"] for w in manifest["workloads"]}
             | set(load("benchmarks/perf/baseline.json")["benches"])
             | set(load("benchmarks/results/BENCH_perf.json")["benches"]))
    for path in [*SRC.rglob("*.py"), ROOT / "benchmarks/conftest.py",
                 *(ROOT / "benchmarks/perf").glob("*.py")]:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        found |= {node.arg for node in nodes if isinstance(node, ast.arg)}
        found |= {node.value for node in nodes
                  if isinstance(getattr(node, "value", None), str)}
    for path in [*(ROOT / "tests").rglob("*.py"),
                 *(ROOT / "benchmarks").rglob("*.py")]:
        found |= set(_ENVIRON.findall(path.read_text()))
    for node in ast.walk(ast.parse(
            (ROOT / "tests/flash/ecc_oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found.add(ast.unparse(node))
    return found


def instances() -> list[object]:
    """One object of each kind whose ``__init__`` sets a named attribute."""
    from repro import difs, faults, flash, io, obs, salamander, ssd
    geometry = flash.geometry.FlashGeometry(blocks=16, fpages_per_block=8)
    ftl = ssd.ftl.PageMappedFTL(flash.chip.FlashChip(geometry, seed=1),
                                n_lbas=64)
    baseline = ssd.device.BaselineSSD.create(geometry, ssd.device.SSDConfig(
        ftl=ssd.ftl.FTLConfig(overprovision=0.25)), seed=1)
    return [ftl, ftl.stats, ftl.stats.write_latency, ftl.chip, baseline,
            salamander.device.SalamanderSSD.create(
                geometry, salamander.device.SalamanderConfig(msize_lbas=32),
                seed=1),
            difs.cluster.Cluster(), io.queue.DeviceQueue(baseline),
            faults.FaultInjector(faults.FaultPlan()),
            obs.trace.SimTimeTracer(), obs.reqtrace.ReqTracer(),
            numpy.random.default_rng(0)]


class Names:
    """Every ``repro`` module and its classes, ``instances()`` (by object
    and by class name), the test oracles and helpers the documents name,
    numpy, builtins, ``math``, the standard library; ``known_strings()``
    and claim families (``traffic_p99/l0``); the tree (a bare ``x.py`` if
    exactly one file has that name; ``path::Name`` if it defines it)."""

    def __init__(self) -> None:
        helpers = [importlib.import_module(name) for name in (
            "tests.ssd.read_loop_oracle", "tests.ssd.test_scrub",
            "tests.workloads.arrivals_oracle", "benchmarks.e2e.metrics")]
        modules = [repro, *(importlib.import_module(m.name) for m in
                            pkgutil.walk_packages(repro.__path__, "repro.")
                            if not m.name.endswith("__main__"))]
        objects = instances()
        namespaces = [
            *modules, *objects, *(value for module in modules
                                  for value in vars(module).values()
                                  if isinstance(value, type)
                                  and value.__module__ == module.__name__),
            types.SimpleNamespace(**{type(o).__name__: o for o in objects}),
            *helpers, builtins, numpy, types.SimpleNamespace(
                repro=repro, numpy=numpy, np=numpy, math=math,
                tests=sys.modules["tests"],
                benchmarks=sys.modules["benchmarks"])]
        self.owners = collections.defaultdict(list)   # name -> who has it
        for namespace in namespaces:
            for name in dir(namespace):
                self.owners[name].append(namespace)
        self.known = known_strings()
        self.families = {s.split("/")[0] for s in self.known if "/" in s}
        self.files = collections.Counter(path.name for path in [
            *ROOT.iterdir(), *(path for top in ("src", "tests", "benchmarks",
                                                "docs", "examples", ".github")
                               for path in (ROOT / top).rglob("*"))])

    def resolves(self, span: str) -> bool:
        if span in self.known or keyword.iskeyword(span):
            return True
        if test := _TEST_ID.fullmatch(span):
            path = ROOT / test.group(1)
            return path.is_file() and all(
                re.search(rf"^\s*(?:def|class) {name}\b", path.read_text(),
                          re.M) for name in test.group(2).split("::")[1:])
        head = span.split("/")[0]
        if "/" in span and ((ROOT / head).is_dir() or (SRC / head).is_dir()):
            return (ROOT / span).exists() or (SRC / span).exists()
        if "/" in span:                 # a claim or series id
            return head in self.families or self.resolves(head)
        if _PATH.fullmatch(span):       # a file name with no directory
            return self.files[span] == 1
        head = span.split(".")[0]
        if any(resolves_in(owner, span) for owner in self.owners[head]):
            return True
        if head not in sys.stdlib_module_names | {"tests", "benchmarks"}:
            return False
        try:
            pkgutil.resolve_name(span)
        except (ImportError, AttributeError, ValueError):
            return False
        return True


@pytest.fixture(scope="module")
def names() -> Names:
    return Names()


def unresolved(text: str, names: Names) -> list[str]:
    return sorted(span for span in spans(text)
                  if span not in RETIRED and not names.resolves(span))


@pytest.mark.parametrize("document", LIVE_DOCS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_live_doc_names_resolve(document, names):
    assert spans(document.read_text()), f"{document.name} names nothing"
    missing = unresolved(document.read_text(), names)
    assert not missing, f"{document.name} names what is gone: {missing}"


def section(text: str, heading: str) -> str:
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end > 0 else None]


def test_every_named_private_attribute_exists(names):
    private = {span for span in spans((DOCS / "PERFORMANCE.md").read_text())
               if any(part.startswith("_") for part in span.split("."))}
    assert {"_valid_counts", "PageMappedFTL._audit_fastpath",
            "Cluster._audit_volume_index",
            "SalamanderSSD._audit_fastpath"} <= private
    missing = unresolved(" ".join(f"`{name}`" for name in private), names)
    assert not missing, (
        f"docs/PERFORMANCE.md names attributes that no longer exist: "
        f"{missing}")


def test_performance_doc_names_resolve(names):
    dotted = {span for span in spans((DOCS / "PERFORMANCE.md").read_text())
              if span.startswith("repro.")}
    assert "repro.sim.fleet.forget_hardware" in dotted
    missing = unresolved(" ".join(f"`{name}`" for name in dotted), names)
    assert not missing, (
        f"docs/PERFORMANCE.md names things that no longer exist: {missing}")


def test_files_in_files_out_names_resolve(names):
    text = section((DOCS / "OBSERVABILITY.md").read_text(),
                   "Files in, files out")
    assert {"repro.artifact", "repro.artifact.require", "read_records",
            "write_jsonl", "load_reqtrace", "FaultPlan.load", "Trace.load",
            "SLOObjective", "ReplacementConfig", "EXIT_CONFIG_ERROR",
            "tests/test_malformed_inputs.py",
            "tests/test_artifact_fuzz.py"} <= spans(text)
    missing = unresolved(text, names)
    assert not missing, (
        f"docs/OBSERVABILITY.md, 'Files in, files out', names things "
        f"that resolve nowhere: {missing}")


def test_run_context_section_names_resolve(names):
    text = section((DOCS / "OBSERVABILITY.md").read_text(), "Run context")
    assert {"RunContext", "repro.context", "None", "PageMappedFTL",
            "GreedyGC", "RecoveryManager", "SLOEngine", "_instr",
            "parallel_map", "repro.cli.main", "repro.obs.metrics_enabled",
            "src/repro/obs/instruments.py", "tests/test_context.py",
            "tests/conftest.py",
            "benchmarks/test_endurance_overhead.py"} <= spans(text)
    missing = unresolved(text, names)
    assert not missing, (
        f"docs/OBSERVABILITY.md, 'Run context', names things that "
        f"resolve nowhere: {missing}")


def test_document_names_private_attributes():
    assert {"_valid_counts", "PageMappedFTL._audit_fastpath", "_wear_epoch",
            "Cluster._audit_volume_index", "PageMappedFTL._write_members",
            "tests/ssd/write_loop_oracle.py", "cold_start_wall",
            } <= spans((DOCS / "PERFORMANCE.md").read_text())


def test_every_ledger_name_is_still_an_attribute():
    design = (ROOT / "DESIGN.md").read_text()
    ledger = spans("\n".join(row[0] for row in _LEDGER_ROW.finditer(design)))
    assert "repro.ssd.ftl.PageMappedFTL._audit_fastpath" in ledger
    assert len(ledger) > 150


def test_retired_names_stay_gone(names):
    back = sorted(name for name in RETIRED if names.resolves(name))
    assert not back, f"retired names resolve again: {back}"


#: The per-section resolver tests' removed names and ``missing`` lists.
REMOVED_NAMES = {
    "private_attribute": (
        "the `_l2p_list` mirror and `Cluster._gone()`",
        ["Cluster._gone", "_l2p_list"]),
    "columnar_section": (
        "`_DeviceState`, `FleetRules.build_devices`, `np.ldexp`, "
        "`tests/sim/gone.py`, `x <= t`, `fleet_grid`",
        ["FleetRules.build_devices", "_DeviceState", "tests/sim/gone.py"]),
    "write_kernel": (
        "`_note_buffered`, `PageMappedFTL.write_batch`, `_write_members`, "
        "`DeviceQueue.submit_vector`, `ftl.write`, `ftl.gone`, "
        "`tests/ssd/write_loop_oracle.py`, `lba + 1`",
        ["DeviceQueue.submit_vector", "PageMappedFTL.write_batch",
         "_note_buffered", "ftl.gone"]),
    "cold_start": (
        "`_binomial_tail`, `_binomial_sf`, `math.lgamma`, `math.lbeta`, "
        "`scipy.stats`, `scipy.gone`, `cold_start_wall`, `warm_start_wall`, "
        "`tests/poison/numpy/__init__.py`, `t + 1`",
        ["_binomial_sf", "math.lbeta", "scipy.gone",
         "tests/poison/numpy/__init__.py", "warm_start_wall"]),
    "read_kernel": (
        "`_read_costs`, `_read_cost_cache`, `FlashChip._audit_read_costs`, "
        "`FlashChip.read_fpages`, `OracleChip`, `OracleQueue`, `LOST`, "
        "`GONE`, `PREDICTED_DOMINANT`, `range_read_micro`, "
        "`range_scan_micro`, `tests/ssd/read_loop_oracle.py`, "
        "`tests/ssd/scan_loop_oracle.py`, `fpage in _data`",
        ["FlashChip.read_fpages", "GONE", "OracleQueue", "_read_cost_cache",
         "range_scan_micro", "tests/ssd/scan_loop_oracle.py"]),
    "drain_kernel": (
        "`_read_live`, `_read_valid_opages`, `FlashChip.program_trusted`, "
        "`FlashChip.program_unchecked`, `_host_keys`, `_stream_key`, "
        "`gc.pre_relocate`, `gc.relocate`, `batch[:capacity]`",
        ["FlashChip.program_unchecked", "_read_valid_opages", "_stream_key",
         "gc.relocate"]),
    "lifetime_walk": (
        "`_DRAW_BLOCK`, `_DRAW_SIZE`, `_rewind`, `_replay`, "
        "`Generator.integers`, `Generator.draw_block`, `_l2p_list`, "
        "`tests/sim/test_lifetime_blocks.py`, `integers(0, bounds)`",
        ["Generator.draw_block", "_DRAW_SIZE", "_l2p_list", "_replay",
         "tests/sim/test_lifetime_blocks.py"]),
    "traffic_follow_up": (
        "`_run_window`, `_admit`, `_arrive`, `rows`, `Operation.stamp`, "
        "`Generator.standard_exponential`, `Generator.exponential_block`, "
        "`tests/workloads/gone.py`, `(1.0 / rate) * e`",
        ["Generator.exponential_block", "Operation.stamp", "_admit", "_arrive",
         "tests/workloads/gone.py"]),
    # The parent held no bare lower-case span here; one rule holds all.
    "io_pipeline_vector_stack": (
        "* **`IOVector` / `CompletionVector`** (`repro.io.vector`) — the same "
        "request/completion fields as parallel numpy columns for batch "
        "submission via `DeviceQueue.execute_vector`; bridges losslessly to "
        "the scalar types. `DeviceQueue.dispatch` exposes the core; "
        "`io_batch_roundtrip_micro` gates the `execute_vector` batched path "
        "(`tests/io/test_vector.py`).",
        ["CompletionVector", "DeviceQueue.execute_vector", "IOVector",
         "execute_vector", "repro.io.vector", "tests/io/test_vector.py"]),
    "io_pipeline_object_surface": (
        "| `execute(request, at_us)` | an `IORequest` | nothing — returns "
        "one `IOCompletion` | re-raised |\n"
        "| `submit(request, at_us)` | an `IORequest` | one window row "
        "(→ `poll()`) | re-raised, row kept |\n"
        "| wrong address shape for the device (object path) | "
        "`DeviceQueue._stamp`, before dispatch | `ConfigError` | no |",
        ["DeviceQueue._stamp", "IOCompletion", "IORequest"]),
    "run_context": (
        "`repro.faults.installed`, `repro.obs.enable_metrics`, "
        "`repro.obs.reqtrace.tracer`, `repro.obs.slo.engine`, `scoped`",
        ["repro.faults.installed", "repro.obs.enable_metrics",
         "repro.obs.reqtrace.tracer", "repro.obs.slo.engine"]),
    "sharding_dotted": (
        "`repro.sim.fleet.FleetRules.advertised_bytes`, "
        "`repro.sim.shard.ShardOutput`, `repro.sim.gone.anything`, "
        "`repro.sweep/v1` and `repro.sim.shard`",
        ["repro.sim.gone.anything", "repro.sim.shard.ShardOutput"]),
    "experiments_tutorial": (
        "(`Cluster.audit`), **data balancer** (`repro.difs.rebalance`) and "
        "Other tools: `repro.difs.rebalance(cluster)` (load balancer), "
        "**M/D/c latency-under-load model** (`repro.models.queueing`)",
        ["repro.difs.rebalance"]),
    "ledger": (
        "\n## Reached only by tests, and why it stays\n\n"
        "- `repro.difs.cluster.Cluster`: `audit`,\n  `wear_stats`\n"
        "- `repro.units`: `format_size`, `parse_size(text)`\n",
        ["repro.difs.cluster.Cluster.wear_stats", "repro.units.parse_size"]),
}


@pytest.mark.parametrize("text, missing", REMOVED_NAMES.values(),
                         ids=REMOVED_NAMES)
def test_resolver_flags_a_removed_name(text, missing, names):
    assert unresolved(text, names) == missing


# -- section citations -------------------------------------------------------

#: ``docs/X.md, "Heading"``, ``[X.md](X.md), "Heading"``, ``X.md "..."``.
_CITATION = re.compile(
    r'((?:[\w-]+/)*[A-Z][A-Z_]*\.md)(?:\]\([^)\s]*\))?`*,? +"([^"]+)"')
_DOC_PATH = re.compile(r"\bdocs/[\w/.-]+\.md\b")
_HEADING = re.compile(r"^#+ (.+?)\s*$", re.M)


def broken_citations(text: str, at: Path) -> list[str]:
    """Citations in ``text`` (of a file in directory ``at``) of a heading
    that no longer exists, or of a ``docs/`` file that does not."""
    text = re.sub(r"\s*\n\s*(?:#\s*)?", " ", text)
    broken = [path for path in _DOC_PATH.findall(text)
              if not (ROOT / path).is_file()]
    for path, heading in _CITATION.findall(text):
        doc = next((base / path for base in (at, ROOT, DOCS)
                    if (base / path).is_file()), None)
        if doc is None or heading not in _HEADING.findall(
                _FENCE.sub("", doc.read_text())):
            broken.append(f'{path}, "{heading}"')
    return broken


def test_section_citations_resolve():
    # Code, tests, benchmarks, CI, live documents; not the control below.
    citing = {*LIVE_DOCS, *(ROOT / ".github/workflows").glob("*.yml"),
              *(ROOT / "benchmarks").rglob("*.md"), *(
                  path for top in (SRC, ROOT / "tests", ROOT / "benchmarks")
                  for path in top.rglob("*.py"))}
    broken = {str(path.relative_to(ROOT)): found
              for path in sorted(citing - {Path(__file__).resolve()})
              if (found := broken_citations(path.read_text(), path.parent))}
    assert not broken, f"citations of what is gone: {broken}"


def test_citation_check_flags_a_moved_section():
    """The parent's citations of sections that moved to docs/perf-log/."""
    assert broken_citations(
        'kernel (docs/PERFORMANCE.md, "The range read\n        kernel").\n'
        '# docs/PERFORMANCE.md "Cold start": interpreter\n'
        '([PERFORMANCE.md](PERFORMANCE.md), "Retired"). The\n'
        '(``docs/PERFORMANCE.md``, "Faster, never different") and '
        "`docs/perf-log/gone.md`", DOCS) == [
        "docs/perf-log/gone.md",
        'docs/PERFORMANCE.md, "The range read kernel"',
        'docs/PERFORMANCE.md, "Cold start"', 'PERFORMANCE.md, "Retired"']


# -- who pads a stored oPage -------------------------------------------------

#: The chip's program and read entries, bare or qualified.
_CHIP_ENTRY = re.compile(r"\b(?:program_trusted|read_fpage|read_opages)\b"
                         r"|\bFlashChip\.(?:program|read)\b")
_PADS = re.compile(r"`[^`]*\bljust\b[^`]*`|\bpads\b")
_SENTENCE_END = re.compile(r"(?<=[.;])\s+(?=[A-Z`*(])")


def chip_pad_sentences(text: str) -> list[str]:
    """Sentences naming a chip program or read entry (an "It ..."
    sentence names its paragraph's first span) with ``ljust`` or "pads":
    the chip stores an oPage as written; host reads are the pad sites."""
    found = []
    for paragraph in re.split(r"\n\s*\n", text):
        paragraph = " ".join(paragraph.split())
        lead = _CODE_SPAN.findall(paragraph)[:1]
        for sentence in _SENTENCE_END.split(paragraph):
            names = _CODE_SPAN.findall(sentence)
            if sentence.startswith("It "):
                names += lead
            if (any(_CHIP_ENTRY.search(name) for name in names)
                    and _PADS.search(sentence)):
                found.append(sentence)
    return found


def test_no_document_has_the_chip_pad():
    flagged = {path.name: found for path in LIVE_DOCS
               if (found := chip_pad_sentences(path.read_text()))}
    assert not flagged, f"sentences that have the chip pad: {flagged}"


def test_pad_check_flags_the_parent_sentences():
    """The two sentences of docs/PERFORMANCE.md that had the chip pad."""
    parent = (
        "**One trusted chip entry.** `FlashChip.program_trusted` programs a "
        "page\nits caller allocated. It takes the level, the LBA list, the "
        "payload list\nand the sequence number, and checks nothing. It pads "
        "each payload with\n`ljust`, which returns a full-size `bytes` "
        "unchanged, and fills the\nslots no payload does with the chip's "
        "one `_zero_opage`.\n\n"
        "`bytes(page_bytes)` object (one per page size). Nothing downstream"
        "\ncopies a full-size page: the kernel's `bytes(payload)` and\n"
        "`FlashChip.program_trusted`'s `payload.ljust(...)` return a "
        "full-size\n`bytes` unchanged.")
    assert [found[:14] for found in chip_pad_sentences(parent)] == [
        "It pads each p", "Nothing downst"]
    assert chip_pad_sentences(
        "`PageMappedFTL.read` and `read_range` pad with `ljust` what "
        "they hand back. It pads every slot a sense returns.") == []


# -- catalogs, both ways -----------------------------------------------------

#: A markdown table cell boundary: a ``|`` outside back-ticks.
_CELL = re.compile(r"\|(?=(?:[^`]*`[^`]*`)*[^`]*$)")


def table_rows(text: str, *header: str) -> list[list[str]]:
    """Data rows of every markdown table whose header starts ``header``."""
    rows, inside = [], False
    for line in text.splitlines():
        row = [cell.strip() for cell in _CELL.split(line.strip().strip("|"))]
        if not line.lstrip().startswith("|"):
            inside = False
        elif tuple(row[:len(header)]) == header:
            inside = True
        elif inside and row[0].strip("`-: "):
            rows.append(row)
    return rows


def table_first_cells(text: str, *header: str) -> list[str]:
    """``table_rows``' first cells, back-ticks stripped."""
    return [row[0].strip("`") for row in table_rows(text, *header)]


def fault_site_drift(text: str) -> tuple[list[str], list[str]]:
    """(sites the document never names, table rows that are no site)."""
    named = set(_CODE_SPAN.findall(text))
    rows = table_first_cells(text, "site")
    return (sorted(set(repro.faults.SITES) - named),
            sorted(set(rows) - set(repro.faults.SITES)))


def test_fault_sites_and_the_faults_doc_agree():
    text = (DOCS / "FAULTS.md").read_text()
    assert "ftl.drain.post_program" in table_first_cells(text, "site")
    assert fault_site_drift(text) == ([], [])


def test_fault_site_check_flags_the_parent_text():
    undocumented, unknown = fault_site_drift(
        "| site | faults | context | semantics |\n|---|---|---|---|\n"
        "| `fleet.step` | `device_loss` | `mode, step, day` | kills |\n"
        "| `engine.step` | `crash` | `time` | raises between events |\n")
    assert unknown == ["engine.step"]
    assert "chip.read" in undocumented and "fleet.step" not in undocumented


_METRIC = re.compile(r'"(repro_[a-z0-9_]+)"')


def metric_drift(text: str) -> tuple[list[str], list[str]]:
    """(instruments the catalog lacks, catalog rows nothing registers)."""
    rows = [cell for cell in table_first_cells(text, "name", "type")
            if cell.startswith("repro_")]
    instruments = set(_METRIC.findall(
        (ROOT / "src/repro/obs/instruments.py").read_text()))
    registered = {name for tree in ("src/repro", "benchmarks")
                  for path in (ROOT / tree).rglob("*.py")
                  for name in _METRIC.findall(path.read_text())}
    return sorted(instruments - set(rows)), sorted(set(rows) - registered)


def test_instruments_and_the_metric_catalog_agree():
    text = (DOCS / "OBSERVABILITY.md").read_text()
    assert "repro_io_latency_us" in table_first_cells(text, "name", "type")
    assert metric_drift(text) == ([], [])


def smart_drift(text: str) -> tuple[list[tuple], list[tuple]]:
    """(``SMART_FIELDS`` entries the catalog lacks or states otherwise,
    catalog rows no field matches), each as ``(name, kind, unit)``."""
    fields = {(field.name, field.kind, field.unit)
              for field in SMART_FIELDS.values()}
    rows = {(name.strip("`"), kind, unit) for name, kind, unit, *_
            in table_rows(text, "name", "kind", "unit")}
    return sorted(fields - rows), sorted(rows - fields)


def test_smart_fields_and_the_smart_catalog_agree():
    text = (DOCS / "OBSERVABILITY.md").read_text()
    assert len(table_rows(text, "name", "kind", "unit")) \
        == len(SMART_FIELDS) == 17
    assert smart_drift(text) == ([], [])


def test_smart_check_flags_a_renamed_field():
    text = (DOCS / "OBSERVABILITY.md").read_text()
    renamed = text.replace("`repro_smart_waf` | gauge",
                           "`repro_smart_write_amp` | gauge")
    assert smart_drift(renamed) == (
        [("repro_smart_waf", "gauge", "ratio")],
        [("repro_smart_write_amp", "gauge", "ratio")])
    retyped = text.replace("`repro_smart_rber` | gauge",
                           "`repro_smart_rber` | counter")
    assert smart_drift(retyped) == (
        [("repro_smart_rber", "gauge", "ratio")],
        [("repro_smart_rber", "counter", "ratio")])


def recorded_drift(text: str) -> list[str]:
    """Catalog rows whose ``recorded`` cell is not ``export`` exactly
    when a factory that adds a collect hook registers the name."""
    tree = ast.parse((ROOT / "src/repro/obs/instruments.py").read_text())
    exported = {node.value for function in tree.body
                if isinstance(function, ast.FunctionDef)
                and "add_collect_hook" in {
                    node.attr for node in ast.walk(function)
                    if isinstance(node, ast.Attribute)}
                for node in ast.walk(function)
                if isinstance(node, ast.Constant)
                and _METRIC.fullmatch(f'"{node.value}"')}
    rows = table_rows(text, "name", "type", "labels", "unit", "recorded")
    return [name for name, recorded in ((row[0].strip("`"), row[4])
                                        for row in rows)
            if name.startswith("repro_")
            and recorded != ("export" if name in exported else "event")]


def test_recorded_column_matches_the_factories():
    text = (DOCS / "OBSERVABILITY.md").read_text()
    assert text.count("| name | type | labels | unit | recorded |") == 9
    assert recorded_drift(text) == []


def test_recorded_check_flags_both_ways():
    header = ("| name | type | labels | unit | recorded | meaning |\n"
              "|---|---|---|---|---|---|\n")
    assert recorded_drift(
        header
        + "| `repro_ftl_erases_total` | counter | device | blocks | event "
          "| block erases |\n"
        + "| `repro_difs_recovery_queue_depth` | gauge | kind (`volume|"
          "chunk`) | items | export | pending work |\n"
        + "| `repro_gc_victim_picks_total` | counter | policy | blocks "
          "| export | picks |\n"
        + "| `repro_perf_wall_seconds` | gauge | bench | s | event "
          "| wall |\n") == ["repro_ftl_erases_total",
                            "repro_gc_victim_picks_total"]


def test_metric_check_flags_the_parent_text():
    uncatalogued, unregistered = metric_drift(
        "| name | type | labels | unit | meaning |\n|---|---|---|---|---|\n"
        "| `repro_io_errors_total` | counter | device_kind | requests | x |\n"
        "| `repro_io_merged_total` | counter | device_kind | requests | x |\n"
        "| `repro_engine_queue_depth` | gauge | — | events | live events |\n")
    assert unregistered == ["repro_engine_queue_depth",
                            "repro_io_merged_total"]
    assert "repro_io_latency_us" in uncatalogued
    assert "repro_io_errors_total" not in uncatalogued


#: The install/enable call forms the run context retired.
_RETIRED_CALL = re.compile(
    r"\b(?:(?:faults|reqtrace|endurance|slo)\.(?:install|uninstall"
    r"|installed)|faults\.injector|reqtrace\.tracer|endurance\.ledger"
    r"|slo\.(?:engine|enabled)|obs\.(?:enable_metrics|enable_tracing"
    r"|enable_timeseries|disable|enabled|metrics|tracer|timeseries))\(")


def retired_calls(text: str) -> list[str]:
    return sorted(set(_RETIRED_CALL.findall(text)))


def test_no_doc_shows_a_retired_call():
    left = {path.name: found for path in LIVE_DOCS
            if (found := retired_calls(path.read_text()))}
    assert not left, f"retired run-state calls left in docs: {left}"


def test_retired_call_check_flags_the_parent_text():
    """Sentences of the documents as they stood before the run context."""
    assert retired_calls(
        "with faults.installed(plan) as injector:\n"
        "(`self._faults = faults.injector()`), mirroring the `repro.obs`\n"
        "registry = obs.enable_metrics()          # install the active\n"
        "with obs.enabled() as (registry, tracer):\n"
        "(`reqtrace.tracer()`, `None` by default); layers bind it at\n"
        "with endurance.installed(pec_limit=12.0) as led:\n"
        "obs.disable()\n"
        "`obs.metrics_enabled()` / `obs.timeseries_enabled()` stay") == [
        "endurance.installed(", "faults.injector(", "faults.installed(",
        "obs.disable(", "obs.enable_metrics(", "obs.enabled(",
        "reqtrace.tracer("]


#: ``repro <subcommand>`` and the arguments after it on its line.
_COMMAND = re.compile(r"\brepro ([a-z]+)((?: +[^\s`]+)*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_LEAD = re.compile(r"`repro ([a-z]+)[^`]*`")


def subcommand_flags() -> dict[str, set[str]]:
    """Every subcommand's option strings, from the CLI's own parser."""
    from repro.cli import build_parser
    choices = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions)
            for name, sub in choices.items()}


def prose_units(text: str):
    """Sections (a heading and its body) and paragraphs (with the list
    a trailing colon opens), code fences blanked out."""
    for section in re.split(r"\n(?=#)", _FENCE.sub("", text)):
        yield section
        block = []
        for line in [*section.splitlines(), ""]:
            if line.strip():
                block.append(line)
            elif block and not block[-1].rstrip().endswith(":"):
                yield "\n".join(block)
                block = []


def attributed_flags(text: str) -> set[tuple[str, str]]:
    """``(subcommand, --flag)`` pairs a document states: the flags a
    ``repro <sub>`` command line carries, and every back-ticked flag of
    a section or paragraph that opens with a `` `repro <sub>` `` span."""
    joined = re.sub(r"\\\n\s*", " ", text)
    found = {(name, flag) for name, args in _COMMAND.findall(joined)
             for flag in _FLAG.findall(args)}
    for unit in prose_units(text):
        if lead := _LEAD.match(unit := unit.lstrip("# ")):
            found |= {(lead.group(1), flag)
                      for span in _CODE_SPAN.findall(unit)
                      for flag in _FLAG.findall(span)}
    return found


def undefined_flags(text: str) -> list[str]:
    flags = subcommand_flags()
    return sorted(f"repro {name} {flag}"
                  for name, flag in attributed_flags(text)
                  if flag not in flags.get(name, {flag}))


#: ``python -m repro <sub>`` or ``python -m repro {<sub>,<sub>,...}``
#: anywhere; a back-ticked `` `repro <sub> ...` ``.
_INVOCATION = re.compile(r"python -m repro (?:([a-z][\w-]*)|\{([^}]*)\})"
                         r"|`repro ([a-z][\w-]*)[^`]*`")


def undefined_subcommands(text: str) -> list[str]:
    """The ``repro <sub>`` invocations of ``text`` whose ``<sub>`` the
    parser does not define; prose that says "repro" is left alone."""
    known = subcommand_flags()
    return sorted({f"repro {name}" for match in _INVOCATION.finditer(text)
                   for name in ([match[1] or match[3]] if match[2] is None
                                else map(str.strip, match[2].split(",")))
                   if name not in known})


def docstring_text(source: str) -> str:
    """The docstrings of a module's source, RST ````x```` read as `x`."""
    return "\n\n".join(
        text.replace("``", "`") for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and (text := ast.get_docstring(node)))


def command_texts() -> dict[str, str]:
    """What the command checks read: every live document and the
    docstrings of ``src/repro``, by path."""
    return {**{str(path.relative_to(ROOT)): path.read_text()
               for path in LIVE_DOCS},
            **{str(path.relative_to(ROOT)): docstring_text(path.read_text())
               for path in sorted(SRC.rglob("*.py"))}}


def test_user_docs_name_only_flags_the_parser_defines():
    texts = command_texts()
    pairs = {pair for text in texts.values()
             for pair in attributed_flags(text)}
    assert {("report", "--tolerance"), ("report", "--against"),
            ("run", "--jobs"), ("run", "--out")} <= pairs
    undefined = {name: found for name, text in texts.items()
                 if (found := undefined_flags(text))}
    assert not undefined, f"docs name flags no parser defines: {undefined}"


def test_user_docs_name_only_subcommands_the_parser_defines():
    texts = command_texts()
    assert "src/repro/cli.py" in texts
    undefined = {name: found for name, text in texts.items()
                 if (found := undefined_subcommands(text))}
    assert not undefined, (
        f"docs name subcommands no parser defines: {undefined}")


def test_flag_check_flags_the_parent_text():
    """The two sentences that named a flag retired with coalescing, and
    ``--queue-depth``, retired when the report stopped measuring."""
    assert undefined_flags(
        "## `repro report`: the claim checker\n\n"
        "| claim | checks | inputs |\n|---|---|---|\n"
        "| `queueing_latency/rho{0.3,0.5,0.7}` | open-loop Poisson reads; "
        "`--queue-depth` / `--io-batch` tune the measurement harness "
        "| none |\n") == ["repro report --io-batch",
                          "repro report --queue-depth"]
    assert undefined_flags(
        "`repro report` re-measures three performance claims through this\n"
        "pipeline on every run:\n\n"
        "* `queueing_latency/*` — open-loop Poisson reads vs the analytic\n"
        "  M/D/c model (`--queue-depth`, `--io-batch` tune the harness);\n"
        "\n"
        "Elsewhere `--io-batch` belongs to nothing.\n") == [
        "repro report --io-batch", "repro report --queue-depth"]
    assert undefined_flags(
        "```console\n$ python -m repro run s.json --out d \\\n"
        "      --io-batch 8\n```\n") == ["repro run --io-batch"]


def test_flag_check_reads_docstrings():
    """An earlier ``repro.io.probe`` docstring named two options the
    run directory retired, on a subcommand the probe scenario kind
    retired since; read onto ``repro run``, the flag check finds them."""
    parent = (
        '"""Reqtrace-instrumented IO probes: one traffic-engine preset per '
        'mode.\n\n``repro slo --measure`` and its ``--reqtrace-out`` / '
        '``--endurance-out``\nartifacts need a workload that exercises the '
        'attribution paths.\n"""\n')
    assert undefined_subcommands(docstring_text(parent)) == ["repro slo"]
    parent = parent.replace("repro slo --measure", "repro run")
    assert undefined_flags(docstring_text(parent)) == [
        "repro run --endurance-out", "repro run --reqtrace-out"]
    assert undefined_flags(parent) == []   # the docs-only reading missed it


def test_subcommand_check_flags_the_parent_text():
    """README's shell paragraph as it stood before the print-only
    subcommands became scenario kinds, its architecture row, and the
    retired ``repro wear`` subcommand."""
    assert undefined_subcommands(
        "Or run experiments straight from the shell: `python -m repro fig2`,"
        "\n`python -m repro fleet`, `python -m repro tournament`,\n"
        "`python -m repro carbon`, `python -m repro tco`,\n"
        "`python -m repro replacement`, `python -m repro health`,\n"
        "`python -m repro sweep --runs 8 --jobs 4` (multi-seed fleet sweep") \
        == ["repro carbon", "repro fig2", "repro fleet", "repro health",
            "repro replacement", "repro sweep", "repro tco",
            "repro tournament"]
    assert undefined_subcommands(
        "$ python -m repro check run\n`repro diff a b` and `repro run x`"
    ) == ["repro check", "repro diff"]
    # README's architecture row as it stood before traffic became a
    # scenario kind: a brace list, broken over two lines.
    assert undefined_subcommands(
        "repro.cli         python -m repro {run,fleet,sweep,traffic,report,"
        "slo,\n                  wear}.") == [
        "repro fleet", "repro slo", "repro sweep", "repro traffic",
        "repro wear"]
    # OBSERVABILITY.md's endurance-gate section before `repro wear`
    # folded into `repro report`.
    assert undefined_subcommands(
        "```console\n$ python -m repro wear report   run --check "
        "--waf-budget 1.5\n$ python -m repro wear diff     new_run "
        "--against old_run\n```\n") == ["repro wear"]
    # Prose is not a command line.
    assert undefined_subcommands(
        "a repro process, the repro fig2 table, `repro.scenarios`, "
        "`python -m repro --version`, `repro <subcommand>`") == []
