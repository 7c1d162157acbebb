"""docs/PERFORMANCE.md may only name private attributes that exist.

The document describes the fast paths by their internal names
(``_valid_counts``, ``_audit_fastpath``, ...). When a refactor renames or
removes one, the prose silently rots; this test turns that into a
failure. Every back-ticked ``_name`` in the document must be an
attribute of a live instance of one of the classes the document is
about (the FTL with its write buffer and latency reservoir, the chip,
the baseline and CVSS devices, a ``SalamanderSSD`` and its minidisk
table, the cluster and its volume index, the redundancy, fleet, ECC and
lifetime-harness modules, the traffic engine and arrival modules, the
scrub tests' aging backdoor); a qualified ``Class._name`` must be an
attribute of that class.

docs/SHARDING.md names the fleet walk by its public dotted names
(``repro.sim.fleet.walk_shard``, ...); every back-ticked ``repro.*``
name there, and in docs/PERFORMANCE.md, must still import.

The "columnar fleet walk" and "range write kernel" sections of
docs/PERFORMANCE.md are held to more: *every* back-ticked span there
that is a bare name, a dotted name or a file path must resolve — in the
modules the section is about (the fleet modules; the write stack from
chunk encode to the chip), numpy, the benchmark manifests, the fault
sites or the tree. So is "Cold start" (the ECC module, ``math``, the
package's own import graph; scipy is named there but is not a runtime
dependency, so its names are listed, not imported), and so are "The
range read kernel" and "The drain kernel" (the read stack from the queue
to the chip, the oracle and the aging backdoor under ``tests/``, the
benchmark's own ``metrics`` module) and "The lifetime walk and the
scalar maps" (that stack plus the harness module and its scalar
reference under ``tests/``, numpy's generator and ``signal``), and so is
the traffic section's follow-up subsection, "the event pays for its
device call" (the engine, generator, arrival and trace modules, the
arrivals' scalar oracle under ``tests/``, the queue, numpy's generator).

docs/IO_PIPELINE.md is held whole, to a narrower rule: every back-ticked
dotted name (``Class.method``, ``repro.io.queue.DeviceQueue``), class or
constant name and file path must resolve in the IO stack. Bare
lower-case spans there are mostly parameters and metric names, which
nothing can vouch for.

Three catalogs are held both ways: the site tables of docs/FAULTS.md
against ``repro.faults.SITES``; the metric tables of
docs/OBSERVABILITY.md against the names ``repro/obs/instruments.py``
registers, and the tables' ``recorded`` column against which of its
factories add a collect hook; and that document's SMART field catalog
against ``repro.obs.smart.SMART_FIELDS`` (name, kind and unit).
EXPERIMENTS.md and docs/TUTORIAL.md may only name ``repro.*`` things
that import, and every name in DESIGN.md's "Reached only by tests"
ledger must still be an attribute of its owner.

docs/OBSERVABILITY.md's "Run context" section must resolve in
``repro.context`` and the layers that bind it, and no user document may
show a retired ``install`` / ``enable`` call form.

Every ``--flag`` a user document attributes to a ``repro <subcommand>``
— on a command line, or in a section or paragraph that opens with the
subcommand — must be defined by that subcommand's parser.
"""

from __future__ import annotations

import ast
import builtins
import json
import keyword
import math
import pkgutil
import re
import types
from pathlib import Path

import numpy
import pytest

import repro.difs.redundancy
import repro.errors
import repro.faults
import repro.flash.ecc
import repro.flash.rber
import repro.flash.tiredness
import repro.sim.fleet
import repro.sim.lifetime
import repro.sim.parallel
import repro.sim.shard
import repro.ssd.ftl
import repro.ssd.stats
import repro.ssd.write_buffer
import repro.workloads.arrivals
import repro.workloads.engine
import tests.ssd.test_scrub
from repro.difs.cluster import Cluster
from repro.difs.placement import VolumeIndex
from repro.difs.volume import Volume
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.io.queue import DeviceQueue
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig, PageMappedFTL

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
DOCUMENT = DOCS / "PERFORMANCE.md"
SHARDING = DOCS / "SHARDING.md"

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: A dotted public name rooted at the package (``repro.sim.shard.x``),
#: not a schema id (``repro.sweep/v1``).
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+(?![\w/])")
#: ``_name``, optionally qualified (``Cluster._name``, ``self._name``).
_PRIVATE = re.compile(r"(?:\b([A-Za-z]\w*)\.)?(?<!\w)(_[a-z][a-z0-9_]*)")


_ROOMY = FTLConfig(overprovision=0.25)      # the test chips are tiny


def small_baseline(geometry: FlashGeometry) -> BaselineSSD:
    return BaselineSSD.create(geometry, SSDConfig(ftl=_ROOMY), seed=1)


def small_cvss(geometry: FlashGeometry) -> CVSSDevice:
    return CVSSDevice.create(geometry, CVSSConfig(ftl=_ROOMY), seed=1)


@pytest.fixture(scope="module")
def subjects() -> dict[str, object]:
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    chip = FlashChip(geometry, seed=1)
    salamander = SalamanderSSD.create(
        geometry, SalamanderConfig(msize_lbas=32), seed=1)
    ftl = PageMappedFTL(chip, n_lbas=64)
    return {"PageMappedFTL": ftl,
            "WriteBuffer": ftl.buffer,
            "LatencyReservoir": ftl.stats.write_latency,
            "FlashChip": chip,
            "BaselineSSD": small_baseline(geometry),
            "CVSSDevice": small_cvss(geometry),
            "redundancy": repro.difs.redundancy,
            "SalamanderSSD": salamander,
            "MinidiskTable": salamander._table,
            "Cluster": Cluster(),
            "VolumeIndex": VolumeIndex(),
            "fleet": repro.sim.fleet,
            "ecc": repro.flash.ecc,
            "lifetime": repro.sim.lifetime,
            "engine": repro.workloads.engine,
            "arrivals": repro.workloads.arrivals,
            # The aging backdoor the read kernel's section warns about.
            "test_scrub": tests.ssd.test_scrub}


def private_names(text: str) -> set[tuple[str | None, str]]:
    """(qualifying class or None, ``_name``) for every back-ticked use."""
    return {(owner if owner and owner[0].isupper() else None, name)
            for span in _CODE_SPAN.findall(text)
            for owner, name in _PRIVATE.findall(span)}


def test_document_names_private_attributes():
    # The extractor sees what the contract is about; an empty set would
    # make the check below vacuous.
    names = private_names(DOCUMENT.read_text())
    assert (None, "_valid_counts") in names
    assert ("PageMappedFTL", "_audit_fastpath") in names
    assert ("Cluster", "_audit_volume_index") in names
    assert ("SalamanderSSD", "_audit_fastpath") in names
    assert (None, "_rebalance_capacity") in names


def test_every_named_private_attribute_exists(subjects):
    missing = []
    for owner, name in sorted(private_names(DOCUMENT.read_text()),
                              key=lambda pair: (pair[0] or "", pair[1])):
        if owner is not None and owner not in subjects:
            continue   # a class this contract does not cover
        candidates = ([subjects[owner]] if owner is not None
                      else list(subjects.values()))
        if not any(hasattr(subject, name) for subject in candidates):
            missing.append(f"{owner + '.' if owner else ''}{name}")
    assert not missing, (
        f"docs/PERFORMANCE.md names attributes that no longer exist on "
        f"{sorted(subjects)}: {missing}")


def test_extractor_flags_a_removed_attribute(subjects):
    names = private_names("the `_l2p_list` mirror and `Cluster._gone()`")
    assert names == {(None, "_l2p_list"), ("Cluster", "_gone")}
    assert not any(hasattr(subject, "_l2p_list")
                   for subject in subjects.values())


def dotted_names(text: str) -> set[str]:
    return {name for span in _CODE_SPAN.findall(text)
            for name in _DOTTED.findall(span)}


def resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_sharding_doc_names_resolve():
    names = dotted_names(SHARDING.read_text())
    assert "repro.sim.fleet.walk_shard" in names
    assert "repro.sim.shard.simulate_fleet_sharded" in names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, (
        f"docs/SHARDING.md names things that no longer exist: {missing}")


def test_performance_doc_names_resolve():
    names = dotted_names(DOCUMENT.read_text())
    assert "repro.sim.fleet.walk_shard" in names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, (
        f"docs/PERFORMANCE.md names things that no longer exist: {missing}")


#: A bare or dotted name, and a path into the tree.
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_PATH = re.compile(r"[\w./-]+/[\w.-]+|[\w.-]+\.(?:py|json|md)")
#: ``repro.obs.reqtrace/v1``: looks like a path, names a document format.
_SCHEMA_ID = re.compile(r"repro\.[\w.]+/v\d+")


def section(text: str, heading: str) -> str:
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end > 0 else None]


def benchmark_names() -> set[str]:
    """What the two harnesses call things: benches (with a floor, or
    recorded in the committed history), workloads, metrics, ledger
    layers, and the keys of a ``fleet_grid`` result section."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    floors = json.loads(
        (ROOT / "benchmarks/perf/baseline.json").read_text())
    recorded = json.loads(
        (ROOT / "benchmarks/results/BENCH_perf.json").read_text())
    reference = json.loads(
        (ROOT / "benchmarks/e2e/reference/seed_20250.json").read_text())
    fleet_grid = reference["workloads"]["fleet_grid"]
    metrics = [m["name"] for m in
               manifest["end_to_end"] + manifest["per_layer"]]
    return (set(floors["benches"]) | set(recorded["benches"]) | set(metrics)
            | {w["name"] for w in manifest["workloads"]}
            | {name.rsplit(".", 1)[0] for name in metrics if "." in name}
            | set(fleet_grid) | set(fleet_grid["parts"]))


FLEET_NAMESPACES = [repro.sim.fleet, repro.sim.shard, repro.flash.rber,
                    repro.sim.fleet.FleetRules, repro.sim.fleet.FleetConfig]


def unresolved_spans(text: str, namespaces=FLEET_NAMESPACES,
                     outside: frozenset[str] = frozenset(),
                     ) -> tuple[set[str], list[str]]:
    """(name-like spans checked, those that resolve nowhere).
    ``outside`` lists names of things the tree cannot vouch for."""
    namespaces = [*namespaces, builtins, numpy,
                  types.SimpleNamespace(np=numpy)]
    known = benchmark_names() | set(repro.faults.SITES) | outside
    checked, missing = set(), []
    for span in sorted(set(_CODE_SPAN.findall(text))):
        if _NAME.fullmatch(span):
            # A top-level file first: importing `setup.py` would run it.
            ok = ((ROOT / span).is_file()
                  or span in known or keyword.iskeyword(span)
                  or resolves(span) or any(
                      resolves_in(root, span) for root in namespaces))
        elif _SCHEMA_ID.fullmatch(span):
            continue
        elif _PATH.fullmatch(span):
            ok = (ROOT / span).exists()
        else:
            continue    # an expression, a flag, a glob
        checked.add(span)
        if not ok:
            missing.append(span)
    return checked, missing


def resolves_in(root: object, dotted: str) -> bool:
    try:
        for part in dotted.split("."):
            root = getattr(root, part)
    except AttributeError:
        return False
    return True


def test_columnar_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The columnar fleet walk")
    checked, missing = unresolved_spans(text)
    assert {"FleetRules.advertised_bytes", "_BandedRows", "_ordered_sum",
            "repro.sim.fleet.walk_shard", "np.ldexp", "fleet_grid",
            "fleet_wide_micro", "sim.shard.over_serial_ratio",
            "tests/sim/fleet_oracle.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The columnar fleet walk', names things "
        f"that resolve nowhere: {missing}")


def test_hardware_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The fleet's hardware is drawn once")
    config = repro.sim.fleet.FleetConfig()
    namespaces = [*FLEET_NAMESPACES, repro.sim.fleet._FleetColumns, config,
                  repro.sim.fleet.FleetRules(config, "regen"),
                  repro.sim.parallel]
    # A parameter, a Unix tool, and the method the section says is gone.
    outside = frozenset({"rber_model", "cmp", "FleetRules.build_columns"})
    checked, missing = unresolved_spans(text, namespaces, outside)
    assert {"repro.sim.fleet.fleet_hardware", "forget_hardware",
            "_BandedRows.count", "_BandedRows.__init__",
            "FleetRules.advertised_bytes", "simulate_fleet_sharded",
            "parallel_map", "variation_sigma", "wear", "block_mean",
            "fleet_grid", "fleet_wide_micro", "sim.fleet.self_s",
            "sim.shard.over_serial_ratio", "tests/conftest.py",
            "tests/sim/test_fleet_hardware.py",
            "tests/sim/fleet_oracle.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The fleet's hardware is drawn once', "
        f"names things that resolve nowhere: {missing}")
    # One way to obtain hardware tables in src/.
    assert not hasattr(repro.sim.fleet.FleetRules, "build_columns")


def test_section_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_DeviceState`, `FleetRules.build_devices`, `np.ldexp`, "
        "`tests/sim/gone.py`, `x <= t`, `fleet_grid`")
    assert checked == {"_DeviceState", "FleetRules.build_devices",
                       "np.ldexp", "tests/sim/gone.py", "fleet_grid"}
    assert missing == ["FleetRules.build_devices", "_DeviceState",
                       "tests/sim/gone.py"]


def write_stack_namespaces() -> list[object]:
    """The write stack, top to bottom — classes, and one live instance
    of each so that attributes set in ``__init__`` resolve too."""
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    ftl = PageMappedFTL(FlashChip(geometry, seed=1), n_lbas=64)
    return [repro.difs.redundancy, Volume, DeviceQueue,
            SalamanderSSD.create(geometry, SalamanderConfig(msize_lbas=32),
                                 seed=1),
            small_baseline(geometry), small_cvss(geometry), ftl, ftl.config,
            ftl.buffer, ftl.stats, ftl.stats.write_latency, ftl.chip,
            ftl.chip.stats, repro.ssd.stats, repro.ssd.write_buffer,
            repro.sim.lifetime, repro.errors, bytes,
            types.SimpleNamespace(PageMappedFTL=PageMappedFTL,
                                  SalamanderSSD=SalamanderSSD,
                                  BaselineSSD=BaselineSSD,
                                  CVSSDevice=CVSSDevice,
                                  DeviceQueue=DeviceQueue, Volume=Volume,
                                  FlashChip=FlashChip, Cluster=Cluster)]


def test_write_kernel_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The range write kernel")
    checked, missing = unresolved_spans(text, write_stack_namespaces())
    assert {"PageMappedFTL._write_members", "_admit_write", "_exhaust",
            "SalamanderSSD.write_range", "DeviceQueue._serve",
            "Volume.write_chunk", "_split_pages", "FlashChip.program",
            "event_seq", "ftl.write", "cluster_churn", "ssd.ftl.calls",
            "unit_write_micro", "tests/ssd/write_loop_oracle.py",
            "benchmarks/e2e/layers.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The range write kernel', names things "
        f"that resolve nowhere: {missing}")


def test_write_kernel_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_note_buffered`, `PageMappedFTL.write_batch`, `_write_members`, "
        "`DeviceQueue.submit_vector`, `ftl.write`, `ftl.gone`, "
        "`tests/ssd/write_loop_oracle.py`, `lba + 1`",
        write_stack_namespaces())
    assert checked == {"_note_buffered", "PageMappedFTL.write_batch",
                       "_write_members", "DeviceQueue.submit_vector",
                       "ftl.write", "ftl.gone",
                       "tests/ssd/write_loop_oracle.py"}
    assert missing == ["DeviceQueue.submit_vector",
                       "PageMappedFTL.write_batch", "_note_buffered",
                       "ftl.gone"]


COLD_START_NAMESPACES = [repro.flash.ecc, repro.flash.ecc.EccScheme,
                         repro.flash.ecc.LdpcScheme, repro.flash.tiredness,
                         math]
#: scipy is the section's subject but only a test dependency: its names
#: are not imported to check them (tier-1 passes without scipy), and an
#: environment variable resolves nowhere.
COLD_START_OUTSIDE = frozenset({
    "scipy", "scipy.stats", "stats.binom.sf", "PYTHONDONTWRITEBYTECODE"})


def test_cold_start_section_names_resolve():
    text = section(DOCUMENT.read_text(), "Cold start")
    checked, missing = unresolved_spans(
        text, COLD_START_NAMESPACES, COLD_START_OUTSIDE)
    assert {"repro.flash.ecc._binomial_tail", "max_rber", "_max_rber_cached",
            "EccScheme.codeword_failure_probability", "lgamma",
            "math.fsum", "np.cumprod", "np.add.reduceat", "stats.binom.sf",
            "scipy.stats", "repro.flash.ecc", "repro.models",
            "repro.obs.timeseries", "setup_s", "peak_rss_mb",
            "device_wearout", "cold_start_wall",
            "tests/flash/ecc_oracle.py", "tests/flash/max_rber_pins.json",
            "tests/poison/scipy/__init__.py",
            "tests/test_import_budget.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'Cold start', names things that resolve "
        f"nowhere: {missing}")


def test_cold_start_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_binomial_tail`, `_binomial_sf`, `math.lgamma`, `math.lbeta`, "
        "`scipy.stats`, `scipy.gone`, `cold_start_wall`, "
        "`warm_start_wall`, `tests/poison/numpy/__init__.py`, `t + 1`",
        COLD_START_NAMESPACES, COLD_START_OUTSIDE)
    assert checked == {"_binomial_tail", "_binomial_sf", "math.lgamma",
                       "math.lbeta", "scipy.stats", "scipy.gone",
                       "cold_start_wall", "warm_start_wall",
                       "tests/poison/numpy/__init__.py"}
    assert missing == ["_binomial_sf", "math.lbeta", "scipy.gone",
                       "tests/poison/numpy/__init__.py", "warm_start_wall"]


def read_stack_namespaces() -> list[object]:
    """The write stack's subjects (the read stack is the same objects)
    plus what only the read kernel's section names: the FTL module's
    sentinels, the oracle, the aging backdoor, the benchmark contract."""
    import benchmarks.e2e.metrics
    import repro.flash.chip
    import tests.ssd.read_loop_oracle
    from repro.obs.reqtrace import ReqContext
    return [*write_stack_namespaces(), repro.ssd.ftl, repro.flash.chip,
            ReqContext, tests.ssd.read_loop_oracle, tests.ssd.test_scrub,
            benchmarks.e2e.metrics, dict]


#: The fault kinds of the registry (``uncorrectable``, ``corrupt``, ...)
#: are strings in plans, not attributes of anything.
FAULT_KINDS = frozenset(kind for kinds in repro.faults.SITES.values()
                        for kind in kinds)


def test_read_kernel_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The range read kernel")
    checked, missing = unresolved_spans(text, read_stack_namespaces(),
                                        FAULT_KINDS)
    assert {"PageMappedFTL.read_range", "FlashChip._read_cost",
            "_read_costs", "_forget_read_costs",
            "FlashChip._audit_read_costs", "_maybe_autoscrub", "_lose_lba",
            "read_opages", "LOST", "inject_errors",
            "read_disturb_rber", "retention_rber_per_day",
            "FTLConfig.scrub_interval_writes", "_age_written_blocks",
            "OracleChip", "OracleFTL", "DeviceQueue.dispatch",
            "PREDICTED_DOMINANT", "traffic_scan", "ssd.ftl.self_s",
            "flash.chip.calls", "range_read_micro", "cProfile",
            "tests/ssd/read_loop_oracle.py", "tests/ssd/test_read_kernel.py",
            "benchmarks/perf/pairs.py", "benchmarks/e2e/metrics.py"
            } <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The range read kernel', names things "
        f"that resolve nowhere: {missing}")


def test_read_kernel_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_read_costs`, `_read_cost_cache`, `FlashChip._audit_read_costs`, "
        "`FlashChip.read_fpages`, `OracleChip`, `OracleQueue`, `LOST`, "
        "`GONE`, `PREDICTED_DOMINANT`, `range_read_micro`, "
        "`range_scan_micro`, `tests/ssd/read_loop_oracle.py`, "
        "`tests/ssd/scan_loop_oracle.py`, `fpage in _data`",
        read_stack_namespaces(), FAULT_KINDS)
    assert checked == {"_read_costs", "_read_cost_cache",
                       "FlashChip._audit_read_costs",
                       "FlashChip.read_fpages", "OracleChip", "OracleQueue",
                       "LOST", "GONE", "PREDICTED_DOMINANT",
                       "range_read_micro", "range_scan_micro",
                       "tests/ssd/read_loop_oracle.py",
                       "tests/ssd/scan_loop_oracle.py"}
    assert missing == ["FlashChip.read_fpages", "GONE", "OracleQueue",
                       "_read_cost_cache", "range_scan_micro",
                       "tests/ssd/scan_loop_oracle.py"]


# -- who pads a stored oPage -------------------------------------------------

#: The chip's program and read entries, bare or qualified.
_CHIP_ENTRY = re.compile(r"\b(?:program_trusted|read_fpage|read_opages)\b"
                         r"|\bFlashChip\.(?:program|read)\b")
_PADS = re.compile(r"`[^`]*\bljust\b[^`]*`|\bpads\b")
_SENTENCE_END = re.compile(r"(?<=[.;])\s+(?=[A-Z`*(])")


def chip_pad_sentences(text: str) -> list[str]:
    """Sentences that have the chip pad an oPage: they name a chip
    program or read entry (an "It ..." sentence names its paragraph's
    first code span) together with ``ljust`` or "pads". The chip stores
    an oPage as written; the FTL's host reads are the pad sites."""
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


def test_stored_as_written_section_names_resolve():
    text = section(DOCUMENT.read_text(), "Stored as written")
    checked, missing = unresolved_spans(text, read_stack_namespaces(),
                                        FAULT_KINDS)
    assert {"FlashChip.program_trusted", "_zero_opage", "_corrupt_slot",
            "PageMappedFTL.read", "PageMappedFTL.read_range", "read_fpage",
            "read_opages", "_read_live", "_program_items", "_split_pages",
            "_data", "OracleFTL", "traffic_mixed", "traffic_scan",
            "device_wearout", "cluster_churn", "peak_rss_mb",
            "host_ops_per_s", "range_read_micro", "unit_write_micro",
            "tests/ssd/test_stored_as_written.py",
            "tests/ssd/read_loop_oracle.py",
            "tests/flash/test_chip_fastpath.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'Stored as written', names things that "
        f"resolve nowhere: {missing}")


def test_no_document_has_the_chip_pad():
    flagged = {path.name: found for path in (DOCUMENT, ROOT / "DESIGN.md")
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


def test_drain_kernel_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The drain kernel")
    checked, missing = unresolved_spans(text, read_stack_namespaces(),
                                        FAULT_KINDS)
    assert {"_drain_one_fpage", "_program_fpage", "_program_items",
            "FlashChip.program", "FlashChip.program_trusted", "_read_live",
            "_relocate_block", "_evacuate_fpage", "peek_batch",
            "_host_keys", "_gc_key", "_wear_epoch", "_audit_fastpath",
            "read_opages", "ftl.drain.pre_program", "gc.pre_erase",
            "chip.program", "device_wearout", "cluster_churn",
            "ssd.ftl.self_s", "flash.chip.self_s", "ftl_gc_heavy_macro",
            "tests/ssd/test_write_kernel.py",
            "tests/flash/test_chip_fastpath.py",
            "benchmarks/e2e/layers.py", "benchmarks/perf/baseline.json"
            } <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The drain kernel', names things that "
        f"resolve nowhere: {missing}")


def test_drain_kernel_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_read_live`, `_read_valid_opages`, `FlashChip.program_trusted`, "
        "`FlashChip.program_unchecked`, `_host_keys`, `_stream_key`, "
        "`gc.pre_relocate`, `gc.relocate`, `batch[:capacity]`",
        read_stack_namespaces(), FAULT_KINDS)
    assert checked == {"_read_live", "_read_valid_opages",
                       "FlashChip.program_trusted",
                       "FlashChip.program_unchecked", "_host_keys",
                       "_stream_key", "gc.pre_relocate", "gc.relocate"}
    assert missing == ["FlashChip.program_unchecked", "_read_valid_opages",
                       "_stream_key", "gc.relocate"]


def lifetime_walk_namespaces() -> list[object]:
    """The read stack's subjects plus the walk's: the harness module and
    its test-side reference, the generator it draws from, and the
    sampler's ``signal`` module."""
    import signal

    import tests.sim.test_lifetime
    return [*read_stack_namespaces(), repro.sim.lifetime,
            tests.sim.test_lifetime, numpy.random,
            numpy.random.default_rng(0), signal,
            types.SimpleNamespace(Generator=numpy.random.Generator)]


#: The method the section says is gone.
LIFETIME_WALK_OUTSIDE = frozenset({"invalidate_batch"})


def test_lifetime_walk_section_names_resolve():
    text = section(DOCUMENT.read_text(), "The lifetime walk and the scalar maps")
    checked, missing = unresolved_spans(text, lifetime_walk_namespaces(),
                                        LIFETIME_WALK_OUTSIDE)
    assert {"run_write_lifetime", "_DRAW_BLOCK", "_rewind",
            "Generator.integers", "bit_generator.state", "ConfigError",
            "_l2p", "_p2l", "_valid_counts", "_erase_counts",
            "_audit_fastpath", "_live_counts", "_unmap", "trim_range",
            "_grow_flat_space", "invalidate_batch", "scalar_walk",
            "SIGPROF", "cProfile",
            "device_wearout", "sim.lifetime.self_s",
            "salamander_lifetime_micro", "tests/sim/test_lifetime.py",
            "tests/sim/test_lifetime_golden.py",
            "benchmarks/perf/baseline.json"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, 'The lifetime walk and the scalar maps', "
        f"names things that resolve nowhere: {missing}")
    assert not hasattr(PageMappedFTL, "invalidate_batch")


def test_lifetime_walk_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_DRAW_BLOCK`, `_DRAW_SIZE`, `_rewind`, `_replay`, "
        "`Generator.integers`, `Generator.draw_block`, `_l2p_list`, "
        "`tests/sim/test_lifetime_blocks.py`, `integers(0, bounds)`",
        lifetime_walk_namespaces(), LIFETIME_WALK_OUTSIDE)
    assert checked == {"_DRAW_BLOCK", "_DRAW_SIZE", "_rewind", "_replay",
                       "Generator.integers", "Generator.draw_block",
                       "_l2p_list", "tests/sim/test_lifetime_blocks.py"}
    assert missing == ["Generator.draw_block", "_DRAW_SIZE", "_l2p_list",
                       "_replay", "tests/sim/test_lifetime_blocks.py"]


def subsection(text: str, heading: str) -> str:
    start = text.index(f"\n### {heading}\n")
    ends = [end for end in (text.find("\n## ", start + 1),
                            text.find("\n### ", start + 1)) if end > 0]
    return text[start:min(ends, default=None)]


TRAFFIC_FOLLOW_UP = "Follow-up: the event pays for its device call"


def traffic_namespaces() -> list[object]:
    """The traffic path above the queue — the engine, generator, arrival
    and trace modules, a generator instance, the arrivals' scalar oracle
    under ``tests/`` — plus the queue it dispatches to and numpy's
    generator."""
    import repro.rng
    import repro.workloads.generators
    import repro.workloads.traces
    import tests.workloads.arrivals_oracle
    return [repro.workloads.engine, repro.workloads.generators,
            repro.workloads.arrivals, repro.workloads.traces,
            repro.workloads.generators.UniformGenerator(8),
            repro.workloads.arrivals.PoissonArrivals,
            tests.workloads.arrivals_oracle, repro.rng,
            types.SimpleNamespace(DeviceQueue=DeviceQueue,
                                  Generator=numpy.random.Generator)]


def test_traffic_follow_up_names_resolve():
    text = subsection(DOCUMENT.read_text(), TRAFFIC_FOLLOW_UP)
    checked, missing = unresolved_spans(text, traffic_namespaces())
    assert {"rows", "draw_block", "stamp_payload", "Operation", "ops",
            "synthesize_trace", "_dispatch", "_run_window", "_drain",
            "PoissonArrivals", "MMPPArrivals", "_refill",
            "_raise_unless_probe_error", "DeviceQueue.dispatch",
            "Generator.standard_exponential", "next_after",
            "DeviceQueue.makespan_us", "workloads.engine",
            "workloads.generators", "workloads.arrivals", "io.queue",
            "ssd.ftl", "flash.chip", "workloads.arrivals.draws",
            "traffic_scan", "traffic_mixed", "traffic_engine_micro",
            "range_read_micro", "tests/workloads/test_arrival_blocks.py",
            "tests/workloads/arrivals_oracle.py"} <= checked
    assert not missing, (
        f"docs/PERFORMANCE.md, '{TRAFFIC_FOLLOW_UP}', names things that "
        f"resolve nowhere: {missing}")
    # The section says the per-event helpers were folded into the loop.
    assert not hasattr(repro.workloads.engine, "_admit")
    assert not hasattr(repro.workloads.engine, "_arrive")


def test_traffic_follow_up_check_flags_a_removed_name():
    checked, missing = unresolved_spans(
        "`_run_window`, `_admit`, `_arrive`, `rows`, `Operation.stamp`, "
        "`Generator.standard_exponential`, `Generator.exponential_block`, "
        "`tests/workloads/gone.py`, `(1.0 / rate) * e`",
        traffic_namespaces())
    assert checked == {"_run_window", "_admit", "_arrive", "rows",
                       "Operation.stamp", "Generator.standard_exponential",
                       "Generator.exponential_block",
                       "tests/workloads/gone.py"}
    assert missing == ["Generator.exponential_block", "Operation.stamp",
                       "_admit", "_arrive", "tests/workloads/gone.py"]


def io_pipeline_unresolved(text: str) -> tuple[set[str], list[str]]:
    """``unresolved_spans`` over the IO stack, kept to dotted names,
    capitalised names and paths (see the module docstring)."""
    import repro.io.protocols
    import repro.io.queue
    import repro.io.request
    import repro.models.queueing
    import repro.obs.reqtrace
    import typing
    from repro.difs.cluster import ClusterConfig
    from repro.io import QueueStats
    from repro.salamander.minidisk import Minidisk
    queue = DeviceQueue(small_baseline(
        FlashGeometry(blocks=16, fpages_per_block=8)))
    checked, missing = unresolved_spans(
        text,
        [*write_stack_namespaces(), repro.io.request, repro.io.queue,
         repro.io.protocols, repro.models.queueing, repro.obs.reqtrace,
         typing, queue,
         types.SimpleNamespace(ClusterConfig=ClusterConfig,
                               Minidisk=Minidisk, QueueStats=QueueStats)])
    held = {span for span in checked
            if "." in span or "/" in span or span[0].isupper()}
    return held, [span for span in missing if span in held]


def test_io_pipeline_doc_names_resolve():
    held, missing = io_pipeline_unresolved(
        (DOCS / "IO_PIPELINE.md").read_text())
    assert {"DeviceQueue.dispatch", "DeviceQueue.drain", "OP_READ",
            "OP_CODES", "QueueStats.dispatched", "ClusterConfig.queue_depth",
            "Volume.write_chunk", "PageMappedFTL.io_queue",
            "repro.io.queue.DeviceQueue", "repro.io.protocols.BlockDevice",
            "repro.models.queueing.mdc_latency_us",
            "ConfigError", "TypeError",
            "tests/difs/direct_io_oracle.py",
            "tests/io/test_batch_equivalence.py",
            "benchmarks/perf/baseline.json"} <= held
    assert not missing, (
        f"docs/IO_PIPELINE.md names things that resolve nowhere: {missing}")


def test_io_pipeline_check_flags_the_parent_text():
    """The document as it stood before the vector stack was retired."""
    held, missing = io_pipeline_unresolved(
        "* **`IOVector` / `CompletionVector`** (`repro.io.vector`) — the "
        "same request/completion fields as parallel numpy columns for "
        "batch submission via `DeviceQueue.execute_vector`; bridges "
        "losslessly to the scalar types. `DeviceQueue.dispatch` exposes "
        "the core; `io_batch_roundtrip_micro` gates the "
        "`execute_vector` batched path (`tests/io/test_vector.py`).")
    assert held == {"IOVector", "CompletionVector", "repro.io.vector",
                    "DeviceQueue.execute_vector", "DeviceQueue.dispatch",
                    "tests/io/test_vector.py"}
    assert missing == ["CompletionVector", "DeviceQueue.execute_vector",
                       "IOVector", "repro.io.vector",
                       "tests/io/test_vector.py"]


def test_io_pipeline_check_flags_the_object_surface():
    """The document's entry-point table and addressing row as they stood
    while ``IORequest``/``IOCompletion`` were the second way in."""
    held, missing = io_pipeline_unresolved(
        "| `execute(request, at_us)` | an `IORequest` | nothing — returns "
        "one `IOCompletion` | re-raised |\n"
        "| `submit(request, at_us)` | an `IORequest` | one window row "
        "(→ `poll()`) | re-raised, row kept |\n"
        "| wrong address shape for the device (object path) | "
        "`DeviceQueue._stamp`, before dispatch | `ConfigError` | no |")
    assert held == {"IORequest", "IOCompletion", "DeviceQueue._stamp",
                    "ConfigError"}
    assert missing == ["DeviceQueue._stamp", "IOCompletion", "IORequest"]


def test_resolver_flags_a_removed_name():
    assert resolves("repro.sim.fleet.FleetRules.advertised_bytes")
    assert not resolves("repro.sim.shard.ShardOutput")
    assert not resolves("repro.sim.gone.anything")
    assert dotted_names("`repro.sweep/v1` and `repro.sim.shard`") == {
        "repro.sim.shard"}


# -- catalogs, both ways -----------------------------------------------------

def table_rows(text: str, *header: str) -> list[list[str]]:
    """The cells of every data row of every markdown table whose header
    row starts with ``header``."""
    rows, inside = [], False
    for line in text.splitlines():
        row = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.lstrip().startswith("|"):
            inside = False
        elif tuple(row[:len(header)]) == header:
            inside = True
        elif inside and row[0].strip("`-: "):
            rows.append(row)
    return rows


def table_first_cells(text: str, *header: str) -> list[str]:
    """First cell (back-ticks stripped) of every data row of every
    markdown table whose header row starts with ``header``."""
    return [row[0].strip("`") for row in table_rows(text, *header)]


def fault_site_drift(text: str) -> tuple[list[str], list[str]]:
    """(sites the document never names, table rows that are no site)."""
    spans = set(_CODE_SPAN.findall(text))
    rows = table_first_cells(text, "site")
    return (sorted(set(repro.faults.SITES) - spans),
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
    from repro.obs.smart import SMART_FIELDS

    fields = {(field.name, field.kind, field.unit)
              for field in SMART_FIELDS.values()}
    rows = {(name.strip("`"), kind, unit) for name, kind, unit, *_
            in table_rows(text, "name", "kind", "unit")}
    return sorted(fields - rows), sorted(rows - fields)


def test_smart_fields_and_the_smart_catalog_agree():
    from repro.obs.smart import SMART_FIELDS

    text = subsection((DOCS / "OBSERVABILITY.md").read_text(),
                      "SMART field catalog (`repro.obs.smart`)")
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


#: A markdown table cell boundary: a ``|`` outside back-ticks.
_CELL = re.compile(r"\|(?=(?:[^`]*`[^`]*`)*[^`]*$)")


def recorded_drift(text: str) -> list[str]:
    """Catalog rows whose ``recorded`` cell is not what
    ``repro/obs/instruments.py`` does: ``export`` exactly when the name
    is registered by a factory that adds a collect hook, else
    ``event``."""
    tree = ast.parse((ROOT / "src/repro/obs/instruments.py").read_text())
    exported = {node.value for function in tree.body
                if isinstance(function, ast.FunctionDef)
                and "add_collect_hook" in {
                    node.attr for node in ast.walk(function)
                    if isinstance(node, ast.Attribute)}
                for node in ast.walk(function)
                if isinstance(node, ast.Constant)
                and _METRIC.fullmatch(f'"{node.value}"')}
    wrong, inside = [], False
    for line in text.splitlines():
        row = [cell.strip() for cell in _CELL.split(line.strip())[1:-1]]
        if not line.lstrip().startswith("|"):
            inside = False
        elif row[:5] == ["name", "type", "labels", "unit", "recorded"]:
            inside = True
        elif inside and row[0].startswith("`repro_"):
            name = row[0].strip("`")
            if row[4] != ("export" if name in exported else "event"):
                wrong.append(name)
    return wrong


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


def test_files_in_files_out_names_resolve():
    """docs/OBSERVABILITY.md, "Files in, files out": the door, the
    loaders that go through it, the config classes typed at it and the
    exit-code constants all still exist."""
    import importlib
    import inspect

    # By module path: ``repro.obs.timeseries`` the attribute is a function.
    modules = [importlib.import_module(f"repro.{name}") for name in (
        "artifact", "cli", "scenarios", "workloads.engine",
        "workloads.traces", "obs.analyze", "obs.endurance", "obs.reqtrace",
        "obs.slo", "obs.timeseries", "reporting.export", "sim.replacement",
        "sim.parallel", "sim.fleet", "faults", "errors")]
    text = section((DOCS / "OBSERVABILITY.md").read_text(),
                   "Files in, files out")
    namespaces = [*modules, repro.faults.FaultPlan,
                  types.SimpleNamespace(**dict.fromkeys(
                      inspect.signature(modules[0].require).parameters))]
    checked, missing = unresolved_spans(text, namespaces)
    assert {"repro.artifact", "repro.artifact.require", "read_records",
            "write_jsonl", "load_reqtrace", "FaultPlan.load", "Trace.load",
            "optional", "SLOObjective", "ReplacementConfig",
            "EXIT_CONFIG_ERROR", "tests/test_malformed_inputs.py",
            "tests/test_artifact_fuzz.py"} <= checked
    assert not missing, (
        f"docs/OBSERVABILITY.md, 'Files in, files out', names things "
        f"that resolve nowhere: {missing}")


def run_context_unresolved(text: str) -> tuple[set[str], list[str]]:
    """``unresolved_spans`` over the run context and what binds it."""
    import repro.context
    import repro.obs
    import repro.obs.endurance
    import repro.obs.reqtrace
    from repro.difs.recovery import RecoveryManager
    from repro.obs.slo import SLOEngine
    from repro.sim.parallel import parallel_map
    from repro.ssd.gc import GCPolicy
    queue = DeviceQueue(small_baseline(
        FlashGeometry(blocks=16, fpages_per_block=8)))
    return unresolved_spans(
        text, [repro.context, repro.context.RunContext(), repro.obs,
               repro.obs.reqtrace, repro.obs.endurance,
               repro.faults, queue, *write_stack_namespaces(),
               types.SimpleNamespace(
                   parallel_map=parallel_map, GCPolicy=GCPolicy,
                   RecoveryManager=RecoveryManager, SLOEngine=SLOEngine)],
        frozenset({"dataclasses.replace"}))


def test_run_context_section_names_resolve():
    text = section((DOCS / "OBSERVABILITY.md").read_text(), "Run context")
    checked, missing = run_context_unresolved(text)
    assert {"RunContext", "repro.context", "scoped", "None",
            "PageMappedFTL", "GCPolicy", "RecoveryManager", "SLOEngine",
            "_instr", "parallel_map", "repro.cli.main",
            "repro.obs.metrics_enabled", "src/repro/obs/instruments.py",
            "tests/test_context.py", "tests/conftest.py",
            "benchmarks/test_endurance_overhead.py"} <= checked
    assert not missing, (
        f"docs/OBSERVABILITY.md, 'Run context', names things that "
        f"resolve nowhere: {missing}")


def test_run_context_check_flags_the_parent_names():
    checked, missing = run_context_unresolved(
        "`repro.faults.installed`, `repro.obs.enable_metrics`, "
        "`repro.obs.reqtrace.tracer`, `repro.obs.slo.engine`, `scoped`")
    assert "scoped" in checked
    assert missing == ["repro.faults.installed", "repro.obs.enable_metrics",
                       "repro.obs.reqtrace.tracer", "repro.obs.slo.engine"]


#: The install/enable call forms the run context retired.
_RETIRED_CALL = re.compile(
    r"\b(?:(?:faults|reqtrace|endurance|slo)\.(?:install|uninstall"
    r"|installed)|faults\.injector|reqtrace\.tracer|endurance\.ledger"
    r"|slo\.(?:engine|enabled)|obs\.(?:enable_metrics|enable_tracing"
    r"|enable_timeseries|disable|enabled|metrics|tracer|timeseries))\(")
#: What users read; CHANGES.md and ROADMAP.md are history and plans.
USER_DOCS = sorted([*DOCS.glob("*.md"), ROOT / "README.md",
                    ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"])


def retired_calls(text: str) -> list[str]:
    return sorted(set(_RETIRED_CALL.findall(text)))


def test_no_doc_shows_a_retired_call():
    left = {path.name: found for path in USER_DOCS
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
    import argparse

    from repro.cli import build_parser
    choices = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions)
            for name, sub in choices.items()}


def prose_units(text: str):
    """Sections (a heading and its body) and paragraphs (with the list
    a trailing colon opens), code fences blanked out."""
    lines, fence = [], False
    for line in text.splitlines():
        fence ^= line.startswith("```")
        lines.append("" if fence or line.startswith("```") else line)
    sections, current = [], []
    for line in lines:
        if line.startswith("#"):
            sections.append(current)
            current = []
        current.append(line)
    for section in [*sections, current]:
        yield "\n".join(section)
        block = []
        for line in [*section, ""]:
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
        unit = unit.lstrip("# ")
        lead = _LEAD.match(unit)
        if lead:
            found |= {(lead.group(1), flag)
                      for span in _CODE_SPAN.findall(unit)
                      for flag in _FLAG.findall(span)}
    return found


def undefined_flags(text: str) -> list[str]:
    flags = subcommand_flags()
    return sorted(f"repro {name} {flag}"
                  for name, flag in attributed_flags(text)
                  if flag not in flags.get(name, {flag}))


def test_user_docs_name_only_flags_the_parser_defines():
    pairs = {pair for path in USER_DOCS
             for pair in attributed_flags(path.read_text())}
    assert {("report", "--queue-depth"), ("slo", "--every"),
            ("slo", "--endurance-out"), ("traffic", "--arrival")} <= pairs
    undefined = {path.name: found for path in USER_DOCS
                 if (found := undefined_flags(path.read_text()))}
    assert not undefined, f"docs name flags no parser defines: {undefined}"


def test_flag_check_flags_the_parent_text():
    """The two sentences that named a flag retired with coalescing."""
    assert undefined_flags(
        "## `repro report`: the claim checker\n\n"
        "| claim | checks | inputs |\n|---|---|---|\n"
        "| `queueing_latency/rho{0.3,0.5,0.7}` | open-loop Poisson reads; "
        "`--queue-depth` / `--io-batch` tune the measurement harness "
        "| none |\n") == ["repro report --io-batch"]
    assert undefined_flags(
        "`repro report` re-measures three performance claims through this\n"
        "pipeline on every run:\n\n"
        "* `queueing_latency/*` — open-loop Poisson reads vs the analytic\n"
        "  M/D/c model (`--queue-depth`, `--io-batch` tune the harness);\n"
        "\n"
        "Elsewhere `--io-batch` belongs to nothing.\n") == [
        "repro report --io-batch"]
    assert undefined_flags(
        "```console\n$ python -m repro slo --slo s.json --measure \\\n"
        "      --io-batch 8\n```\n") == ["repro slo --io-batch"]


@pytest.mark.parametrize("document", ["EXPERIMENTS.md", "docs/TUTORIAL.md"])
def test_experiment_and_tutorial_names_resolve(document):
    names = dotted_names((ROOT / document).read_text())
    assert names, f"{document} names nothing under repro.*"
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, (
        f"{document} names things that no longer exist: {missing}")


def test_name_check_flags_the_parent_sentences():
    names = dotted_names(
        "(`Cluster.audit`), **data balancer** (`repro.difs.rebalance`) and "
        "Other tools: `repro.difs.rebalance(cluster)` (load balancer), "
        "**M/D/c latency-under-load model** (`repro.models.queueing`)")
    assert names == {"repro.difs.rebalance", "repro.models.queueing"}
    assert [n for n in names if not resolves(n)] == ["repro.difs.rebalance"]


# -- the ledger of what only tests reach -------------------------------------

_LEDGER_ROW = re.compile(r"^- `(repro(?:\.\w+)+)`: (.+)$", re.M)


def ledger_members(text: str) -> list[tuple[str, str]]:
    """(owner, member) for every row ``- `repro.owner`: `a`, `b` ...``
    of DESIGN.md's "Reached only by tests, and why it stays"."""
    text = section(text, "Reached only by tests, and why it stays")
    return [(owner, member.split("(")[0])
            for owner, rest in _LEDGER_ROW.findall(text.replace("\n  ", " "))
            for member in _CODE_SPAN.findall(rest)]


def test_every_ledger_name_is_still_an_attribute():
    members = ledger_members((ROOT / "DESIGN.md").read_text())
    assert ("repro.ssd.ftl.PageMappedFTL", "_audit_fastpath") in members
    assert len(members) > 150
    gone = sorted(f"{owner}.{member}" for owner, member in members
                  if not resolves_in(pkgutil.resolve_name(owner), member))
    assert not gone, (
        f"DESIGN.md's ledger keeps names that no longer exist: {gone}")


def test_ledger_check_flags_a_removed_name():
    members = ledger_members(
        "\n## Reached only by tests, and why it stays\n\n"
        "- `repro.difs.cluster.Cluster`: `audit`,\n  `wear_stats`\n"
        "- `repro.units`: `format_size`, `parse_size(text)`\n")
    assert members == [("repro.difs.cluster.Cluster", "audit"),
                       ("repro.difs.cluster.Cluster", "wear_stats"),
                       ("repro.units", "format_size"),
                       ("repro.units", "parse_size")]
    assert [m for o, m in members
            if not resolves_in(pkgutil.resolve_name(o), m)] == [
        "wear_stats", "parse_size"]
