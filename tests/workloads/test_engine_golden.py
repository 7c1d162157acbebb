"""Golden artifact gate for the traffic engine.

Every case pins the SHA-256 of the canonical ``repro.workloads.engine/v1``
JSON (``artifact.dumps`` text plus a newline). The engine's speed
work is held to "faster, never different": a change that moves a tenant
row, a deferral count, a queue counter or the last digit of a latency
fails here, in tier-1, rather than as a benchmark side effect.

The digests were generated on the commit *before* the staged-pipeline
rebuild (``python tests/workloads/test_engine_golden.py`` prints the
table). Re-baselining is a deliberate act: regenerate, and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads.engine import EngineConfig, run_traffic

SEED = 4242

_SMALL = dict(tenants=12, duration_us=6000.0, cells=2)

_TRACE = """# trace n_lbas=16
W 0 616c706861
W 1
R 0
W 2 67616d6d61
T 1
R 2
W 9 64656c7461
R 9
W 15
R 15
"""


def _cases() -> dict[str, dict]:
    cases: dict[str, dict] = {}
    for mode in ("flat", "shrink", "regen"):
        for admission in ("none", "shed", "defer"):
            for arrival in ("poisson", "mmpp"):
                cases[f"{mode}-{admission}-{arrival}"] = dict(
                    _SMALL, mode=mode, admission=admission,
                    arrival=arrival, utilisation=0.9, read_fraction=0.4)
    cases["closed-loop-think"] = dict(
        _SMALL, closed_loop_fraction=0.25, think_us=40.0,
        read_fraction=0.5, mode="regen")
    cases["closed-loop-only-open"] = dict(
        _SMALL, closed_loop_fraction=0.0, think_us=40.0,
        read_fraction=0.5, mode="regen")
    cases["read-span-1"] = dict(
        _SMALL, mode="flat", level=2, read_span=1, read_fraction=0.9,
        mixed_read_fraction=0.9)
    cases["read-span-4"] = dict(
        _SMALL, mode="flat", level=2, read_span=4, read_fraction=0.9,
        mixed_read_fraction=0.9, closed_loop_fraction=0.25)
    cases["trace-replay"] = dict(
        _SMALL, trace_text=_TRACE, closed_loop_fraction=0.25,
        think_us=10.0)
    cases["saturated-defer"] = dict(
        tenants=12, duration_us=8000.0, cells=1, utilisation=3.0,
        arrival="mmpp", queue_depth=16, admission="defer")
    cases["saturated-shed"] = dict(
        tenants=12, duration_us=8000.0, cells=1, utilisation=3.0,
        arrival="mmpp", queue_depth=16, admission="shed",
        read_fraction=0.3)
    cases["max-requests-bites"] = dict(
        _SMALL, max_requests=40, closed_loop_fraction=0.25,
        read_fraction=0.5)
    cases["one-host-stream"] = dict(
        _SMALL, host_streams=1, read_fraction=0.5)
    # Salamander devices with no headroom on a tiny chip: the prefill
    # runs the device out of space, so a tenant stops at its first
    # errored write (and, in the first case, the pilot reads error too).
    cases["undersized-prefill-errors"] = dict(
        _SMALL, mode="shrink", blocks=8, fpages_per_block=4,
        msize_lbas=16, headroom_fraction=0.0, read_fraction=0.5,
        closed_loop_fraction=0.25)
    cases["undersized-window-survives"] = dict(
        _SMALL, mode="regen", blocks=8, fpages_per_block=2,
        msize_lbas=8, headroom_fraction=0.0, read_fraction=0.5,
        closed_loop_fraction=0.25, max_requests=300)
    return cases


CASES = _cases()

GOLDEN: dict[str, str] = {
    "flat-none-poisson":
        "40eeb56cc805a435b1e0b1e9daff7ace5b3f3da38f64a577babb7a2a4d9e2f6d",
    "flat-none-mmpp":
        "4bf9b8c25334d8c81aedbdcda6a5549946fc5f2dc3ec60f4a195530d8c68314a",
    "flat-shed-poisson":
        "6aba697673c69c88f3e209c9ee423d9b6223ad22c3e53ca5700258e5cd4f368c",
    "flat-shed-mmpp":
        "a15a68fa0b776e6d36e49823226b3ba6aeb9a44f03eb7862de7217ab8e3a3b98",
    "flat-defer-poisson":
        "cd0595d9520d28649b1ecdd0969160d5b5b2c50eec971ecb9f27d2854d82ed6b",
    "flat-defer-mmpp":
        "74af9f6de34bd7e186638636560227fc4dc416f63efb9584aff14837c3a5f8e5",
    "shrink-none-poisson":
        "d820758bfdf28e1ea421265226182aab13c68487ef80d4b704221b3873bbbfd9",
    "shrink-none-mmpp":
        "2f5ecf1f14553a5e90027c73e50b3065a29796e1b20efc366af9f93352424246",
    "shrink-shed-poisson":
        "224250b7b163d9d8b506fb990c87877901cd5c050577f0b9dfc69510e7d05bd7",
    "shrink-shed-mmpp":
        "ae43923fd16837731905ed241be4cfde6b1a4b31c796e5a8323059e3a3e780fb",
    "shrink-defer-poisson":
        "e0169e7785e17d8937eccf624a5f6412eb36614d101ae740d63f4d74362ec62f",
    "shrink-defer-mmpp":
        "5a6d912bc8e5733efcffe5707a853d0c03f4d9313478adad724eab49a4a1403d",
    "regen-none-poisson":
        "2dc3a1d11d6f3632ed07a8fed4d5d3c27f3803ad814648576987a2cc256995db",
    "regen-none-mmpp":
        "3e3934bd9bc39047e83f8fbef6f8f10a59d46b671efcae895c1390e0b74185d8",
    "regen-shed-poisson":
        "5cc83d826b949689919ea4238aa5b0ba59eecdf2341631f5fecbadff3f48a50a",
    "regen-shed-mmpp":
        "9c391eec6cb2d79272cf72c73a81322bf39cb4d25715810c5724f899c4e7420c",
    "regen-defer-poisson":
        "72a93611791d0ba2eac876bc4580bb7326cdfbe4300ddf231ba8a90780b06dea",
    "regen-defer-mmpp":
        "3a47a44300be2e7a0cabd79dd6a56a770830d374153ba809217796fd25109bea",
    "closed-loop-think":
        "449aab454b73e3c0f2a30ff87cff65e1e293ba331330d0c4bea1f85b79ada98f",
    "closed-loop-only-open":
        "f10c57ed2830a5ac7442cf041f94d3d87ea63f7e98fac95633f3da9b8acb5815",
    "read-span-1":
        "cd05b0a9071e446e4a5b7e533e6c4818b7710fb70bca6c95a1969e8d4691f546",
    "read-span-4":
        "b1700be2c334c426da10c781e248a718d3897e4e64a7eee257d54ec671aa0d2f",
    "trace-replay":
        "af8dce241ecc4edb308c68d6e242a128dedec4249c1af33d9faedbd32e91aed6",
    "saturated-defer":
        "f7b5f13028559952e79f70a3c3230d462938df2e5c3fe0cc0cfec1695bd3443f",
    "saturated-shed":
        "81aaf59ac47cfb0a6e7209cd30db2b90208ff2f7214e324600c955264aaf94cd",
    "max-requests-bites":
        "581302947e13d183a1d0c45eacca680a09dcb2677a48192a9e3b386bac356f26",
    "one-host-stream":
        "773067ab96dcc51b923323f24f15ecec4316b55fd37c25e608bd6228a3f3177b",
    "undersized-prefill-errors":
        "ea1cf5c1581825fb486bc2b9472b3456f609a27b0569f9d0a8f431efcb1ef7b1",
    "undersized-window-survives":
        "f870e310efc02cce458372f9fba7325c5920c92b1a701e049b87d49ea19cf098",
}


def artifact_digest(name: str) -> tuple[str, dict]:
    document = run_traffic(EngineConfig(**CASES[name]), seed=SEED, jobs=1)
    text = json.dumps(document, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    return hashlib.sha256(text.encode()).hexdigest(), document


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digest_is_unchanged(name):
    digest, _document = artifact_digest(name)
    assert digest == GOLDEN[name], (
        f"traffic artifact for golden case {name!r} changed: "
        f"EngineConfig(**{CASES[name]!r}), seed={SEED}")


def test_cases_exercise_what_they_name():
    """The matrix is only a gate if the special cases bite."""
    _digest, capped = artifact_digest("max-requests-bites")
    # The cap is per cell; each tenant may have one arrival in flight.
    config = capped["config"]
    assert capped["totals"]["offered"] <= (
        config["resolved_cells"] * config["max_requests"]
        + config["tenants"])
    assert capped["totals"]["offered"] >= (
        config["resolved_cells"] * config["max_requests"])
    _digest, undersized = artifact_digest("undersized-prefill-errors")
    assert all(cell["queue"]["errors"] for cell in undersized["cells"])
    _digest, survivor = artifact_digest("undersized-window-survives")
    assert all(cell["queue"]["errors"] for cell in survivor["cells"])
    assert survivor["totals"]["completed"] > survivor["totals"]["errors"]
    _digest, saturated = artifact_digest("saturated-shed")
    assert saturated["totals"]["shed"] > 0
    _digest, deferred = artifact_digest("saturated-defer")
    assert deferred["totals"]["deferrals"] > 0
    _digest, replay = artifact_digest("trace-replay")
    assert replay["totals"]["trims"] > 0
    _digest, closed = artifact_digest("closed-loop-think")
    assert any(row["loop"] == "closed" and row["completed"]
               for row in closed["tenants"])


if __name__ == "__main__":  # regenerate the table
    print("GOLDEN: dict[str, str] = {")
    for case in CASES:
        print(f'    "{case}":\n        "{artifact_digest(case)[0]}",')
    print("}")
