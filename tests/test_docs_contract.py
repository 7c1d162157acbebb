"""docs/PERFORMANCE.md may only name private attributes that exist.

The document describes the fast paths by their internal names
(``_valid_counts``, ``_audit_fastpath``, ...). When a refactor renames or
removes one, the prose silently rots; this test turns that into a
failure. Every back-ticked ``_name`` in the document must be an
attribute of a live instance of one of the classes the document is
about (the FTL, the chip, a ``SalamanderSSD`` and its minidisk table,
the cluster and its volume index); a qualified ``Class._name`` must be
an attribute of that class.

docs/SHARDING.md names the fleet walk by its public dotted names
(``repro.sim.fleet.walk_shard``, ...); every back-ticked ``repro.*``
name there must still import.
"""

from __future__ import annotations

import pkgutil
import re
from pathlib import Path

import pytest

from repro.difs.cluster import Cluster
from repro.difs.placement import VolumeIndex
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.ftl import PageMappedFTL

DOCS = Path(__file__).resolve().parent.parent / "docs"
DOCUMENT = DOCS / "PERFORMANCE.md"
SHARDING = DOCS / "SHARDING.md"

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: A dotted public name rooted at the package (``repro.sim.shard.x``),
#: not a schema id (``repro.sweep/v1``).
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+(?![\w/])")
#: ``_name``, optionally qualified (``Cluster._name``, ``self._name``).
_PRIVATE = re.compile(r"(?:\b([A-Za-z]\w*)\.)?(?<!\w)(_[a-z][a-z0-9_]*)")


@pytest.fixture(scope="module")
def subjects() -> dict[str, object]:
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    chip = FlashChip(geometry, seed=1)
    salamander = SalamanderSSD.create(
        geometry, SalamanderConfig(msize_lbas=32), seed=1)
    return {"PageMappedFTL": PageMappedFTL(chip, n_lbas=64),
            "FlashChip": chip,
            "SalamanderSSD": salamander,
            "MinidiskTable": salamander._table,
            "Cluster": Cluster(),
            "VolumeIndex": VolumeIndex()}


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


def test_resolver_flags_a_removed_name():
    assert resolves("repro.sim.fleet.FleetRules.advertised_bytes")
    assert not resolves("repro.sim.shard.ShardOutput")
    assert not resolves("repro.sim.gone.anything")
    assert dotted_names("`repro.sweep/v1` and `repro.sim.shard`") == {
        "repro.sim.shard"}
