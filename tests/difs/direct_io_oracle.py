"""Direct chunk IO, kept as the differential oracle.

``Volume.write_chunk`` / ``read_chunk`` as ``ClusterConfig(
queue_depth=0)`` ran them before that mode was deleted: one
``write_range`` / ``read_range`` device call per chunk, no queue in
between. The queue may add time accounting and nothing else;
``tests/io/test_differential.py`` runs a queued cluster against a
reference patched with :func:`use_direct_io` and compares everything
observable.
"""

from __future__ import annotations

from repro.errors import ConfigError


def _address(volume, slot: int) -> tuple:
    """``(lba,)`` on a flat device, ``(mdisk_id, lba)`` on a Salamander."""
    volume._check_slot(slot)
    lba = slot * volume.chunk_lbas
    return (lba,) if volume._io_mdisk_id is None \
        else (volume._io_mdisk_id, lba)


def write_chunk(self, slot: int, payloads: list[bytes]) -> None:
    address = _address(self, slot)
    if len(payloads) != self.chunk_lbas:
        raise ConfigError(
            f"chunk needs {self.chunk_lbas} payloads, got {len(payloads)}")
    self.device.write_range(*address, payloads)


def read_chunk(self, slot: int) -> list[bytes]:
    return self.device.read_range(*_address(self, slot), self.chunk_lbas)


def use_direct_io(cluster) -> None:
    """Give every volume ``cluster`` registers from now on (regenerated
    minidisks included) the direct calls; call before ``add_device``."""
    register = cluster._register

    def register_direct(node, volume):
        volume.write_chunk = write_chunk.__get__(volume)
        volume.read_chunk = read_chunk.__get__(volume)
        return register(node, volume)

    cluster._register = register_direct
