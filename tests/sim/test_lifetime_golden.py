"""Golden gate for the write-until-death harness.

``run_write_lifetime`` produces the paper's headline number, so its speed
work is held to "faster, never different". Every case pins the SHA-256 of
one canonical JSON document holding the full ``LifetimeResult`` (host
writes, death cause, capacity curve, mean PEC, stats snapshot), the
device's host-event list and the *caller's generator state after return*
(the harness is handed a ``np.random.Generator``, so a change in how many
draws it makes, or in which order, moves the state even when the result
happens to agree). ``host_writes`` and the death cause are pinned in the
clear as well, so a failure says what moved.

The table was generated on the commit *before* the minidisk census and
the single-loop harness (``python tests/sim/test_lifetime_golden.py``
prints it). Re-baselining is a deliberate act: regenerate, and say why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.sim.lifetime import run_write_lifetime
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig

DEVICES = ("baseline", "cvss", "shrinks", "regens")
SEEDS = (3, 11)
UTILISATIONS = (0.5, 0.75)

CASES = [(device, seed, utilisation) for device in DEVICES
         for seed in SEEDS for utilisation in UTILISATIONS]


def case_name(device: str, seed: int, utilisation: float) -> str:
    return f"{device}-s{seed}-u{int(utilisation * 100)}"


def build_device(kind: str, seed: int):
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=25)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    chip = FlashChip(geometry, rber_model=model, policy=policy, seed=seed,
                     variation_sigma=0.3)
    if kind == "baseline":
        return BaselineSSD(chip, SSDConfig(ftl=ftl))
    if kind == "cvss":
        return CVSSDevice(chip, CVSSConfig(ftl=ftl))
    mode = {"shrinks": "shrink", "regens": "regen"}[kind]
    return SalamanderSSD(chip, SalamanderConfig(
        mode=mode, msize_lbas=16, headroom_fraction=0.25, ftl=ftl))


def run_case(device_kind: str, seed: int, utilisation: float) -> dict:
    device = build_device(device_kind, seed)
    rng = np.random.default_rng(seed)
    result = run_write_lifetime(
        device, utilization=utilisation, capacity_floor_fraction=0.3,
        sample_every=250, seed=rng)
    return {
        "result": asdict(result),
        "events": [{"type": type(event).__name__, **asdict(event)}
                   for event in getattr(device, "events", [])],
        "rng_state": rng.bit_generator.state,
    }


def digest(document: dict) -> str:
    text = json.dumps(document, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


#: case -> (host_writes, death cause, host events, document digest)
GOLDEN: dict[str, tuple[int, str, int, str]] = {
    "baseline-s3-u50": (
        7269, "DeviceBrickedError", 0,
        "11755de9a99b30f847e26c6ed4967d2eb97790d03eab14fe9268da5ca5964ad7"),
    "baseline-s3-u75": (
        4661, "DeviceBrickedError", 0,
        "501953ec039fa35f9105adffbcfb3b64a130d9477d1c6074b2a0bed26bcda60d"),
    "baseline-s11-u50": (
        8464, "DeviceBrickedError", 0,
        "41724b5d331b42bf08650237bfbec97f4633072d8a61f1ba5c39ca4bb193e9d9"),
    "baseline-s11-u75": (
        5067, "DeviceBrickedError", 0,
        "a48647afc085dbcddd24a32faffb4f70cf81561137deadda5b99922c0d39909d"),
    "cvss-s3-u50": (
        8379, "OutOfSpaceError", 0,
        "2c24e925cf151062c896af48f48ba2aad8948f0cb7ba31005488d59e4bff3fae"),
    "cvss-s3-u75": (
        4662, "DeviceBrickedError", 0,
        "fac96b4fc3f5328c7210a596e04505fef0b62d35fe0237cff49f1e17bc2da4ed"),
    "cvss-s11-u50": (
        8764, "OutOfSpaceError", 0,
        "e7ca06b0ea8c08364b29db5d4ee6ce5fe24693771e21d1d570e2da59b259583b"),
    "cvss-s11-u75": (
        5068, "DeviceBrickedError", 0,
        "2f4ec70fd349b1e774140b66908389cd02080a96aee46917e30ec1f79fb0ae19"),
    "shrinks-s3-u50": (
        11453, "capacity-floor", 15,
        "1c8af26b515666be0928ddaebd1d6645293c206ce578b3e0bb44b2507299c76e"),
    "shrinks-s3-u75": (
        8323, "capacity-floor", 15,
        "14a4270c6373e9d6cf74605ae1b5a895598ec502013d90fe38a7c7fadd8529f5"),
    "shrinks-s11-u50": (
        11566, "capacity-floor", 15,
        "8d35de023fa06dca2199c7f0dd69b7bb5accaf4c9bc98e6717e009f692457aa2"),
    "shrinks-s11-u75": (
        8428, "capacity-floor", 15,
        "d1d49383b4617f077624edc36b311b426ac679cffb91cb0de05f0dc144dbd503"),
    "regens-s3-u50": (
        15294, "capacity-floor", 39,
        "fa974247f80a2e1cecfc6b12e288bafbf4dc3f454d1e97e01e003666c7e633b4"),
    "regens-s3-u75": (
        11312, "capacity-floor", 39,
        "0387141fbdcf66f6e90f11d63083f30e20ab145ef71adc405b8ae4bbba80a908"),
    "regens-s11-u50": (
        15245, "capacity-floor", 39,
        "236cacca12a1a06a84dd4ecf6d6f375d5cf88bc1b860445ea9bfae73c4b133b3"),
    "regens-s11-u75": (
        11246, "capacity-floor", 39,
        "87928cd88454e07a52a6e168b8ef089b056f27a67a4462a990d2d459f86582b5"),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_name(*case))
def test_lifetime_run_is_unchanged(case):
    document = run_case(*case)
    result = document["result"]
    got = (result["host_writes"], result["death_cause"],
           len(document["events"]), digest(document))
    assert got == GOLDEN[case_name(*case)]


def test_cases_exercise_what_they_name():
    """The matrix is only a gate if the transitions really happen."""
    events = {name: pinned[2] for name, pinned in GOLDEN.items()}
    assert all(events[name] == 0 for name in events
               if name.startswith(("baseline", "cvss")))
    assert all(events[name] > 0 for name in events
               if name.startswith(("shrinks", "regens")))
    document = run_case("regens", SEEDS[0], 0.75)
    kinds = {event["type"] for event in document["events"]}
    assert {"MinidiskDecommissioned", "MinidiskRegenerated"} <= kinds
    # The curve is sampled, so the pin covers the trajectory and not
    # just the end point.
    assert len(document["result"]["capacity_curve"]) > 4


def test_int_seed_and_generator_seed_agree():
    """An int seed is the same walk as a generator built from it."""
    by_int = run_write_lifetime(build_device("shrinks", 3), seed=3,
                                capacity_floor_fraction=0.3)
    by_rng = run_write_lifetime(build_device("shrinks", 3),
                                seed=np.random.default_rng(3),
                                capacity_floor_fraction=0.3)
    assert asdict(by_int) == asdict(by_rng)


if __name__ == "__main__":  # regenerate the table
    print("GOLDEN: dict[str, tuple[int, str, int, str]] = {")
    for case in CASES:
        document = run_case(*case)
        result = document["result"]
        print(f'    "{case_name(*case)}": (\n'
              f'        {result["host_writes"]}, '
              f'"{result["death_cause"]}", {len(document["events"])},\n'
              f'        "{digest(document)}"),')
    print("}")
