"""Fault plans: deterministic, serialisable schedules of injected faults.

A :class:`FaultPlan` is an ordered collection of :class:`FaultSpec`
entries. Each spec names an *injection site* (a stable string constant
registered in :data:`SITES`), the *fault* to inject there, and a
trigger window expressed in **site hits**: the ``when``-th time the
site's hook fires (1-based, counted per site over the lifetime of one
:class:`~repro.faults.injector.FaultInjector`) the fault starts firing,
and it keeps firing for ``count`` consecutive hits. Optional ``match``
filters restrict a spec to hits whose context carries the given
key/value pairs (e.g. only a particular diFS node), and ``args`` carry
fault-specific parameters (e.g. which byte to corrupt).

Everything is a pure value: plans round-trip through JSON
(``repro.faults/v1``), hash-compare structurally, and — together with
the run seed — fully determine a faulty run. :meth:`FaultPlan.random`
derives a plan from an integer seed via :func:`repro.rng.fork_rng`, so
randomised fuzz episodes are one-line reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro import artifact
from repro.errors import ConfigError
from repro.rng import fork_rng, make_rng

FAULTS_SCHEMA = "repro.faults/v1"

#: Registry of injection sites -> the fault kinds each site understands.
#: This is the contract between plans and the hooks threaded through the
#: stack; docs/FAULTS.md documents the semantics of every entry. Adding
#: a site means adding a hook at the matching code location *and* a row
#: here (plans naming unknown sites or faults fail validation loudly).
SITES: dict[str, tuple[str, ...]] = {
    # --- chip level -----------------------------------------------------
    "chip.read": ("uncorrectable", "corrupt"),
    "chip.program": ("fail",),
    "chip.erase": ("fail",),
    # --- SSD / FTL level (crash = injected power loss) ------------------
    "ftl.write": ("crash",),
    "ftl.drain.pre_program": ("crash",),
    "ftl.drain.post_program": ("crash",),
    "gc.pick": ("force_victim",),
    "gc.pre_relocate": ("crash",),
    "gc.pre_erase": ("crash",),
    "gc.post_erase": ("crash",),
    "ftl.scrub": ("crash",),
    "salamander.decommission": ("crash",),
    "salamander.regenerate": ("crash",),
    # --- diFS level -----------------------------------------------------
    "difs.recovery.read": ("fail",),
    "difs.recovery.event": ("delay", "duplicate"),
    "difs.node": ("outage",),
    # --- simulation level ----------------------------------------------
    "fleet.step": ("device_loss",),
}

#: Sites whose fault is an injected power loss (PowerLossError).
CRASH_SITES: tuple[str, ...] = tuple(
    site for site, kinds in SITES.items() if kinds == ("crash",))


def _check_mapping(name: str, value: Mapping) -> dict:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    out = {}
    for key, val in value.items():
        if not isinstance(key, str):
            raise ConfigError(f"{name} keys must be strings, got {key!r}")
        if not isinstance(val, (str, int, float, bool)) and val is not None:
            raise ConfigError(
                f"{name}[{key!r}] must be a JSON scalar, got {val!r}")
        out[key] = val
    return out


_SPEC_FIELDS = {"site": str, "fault": str}
_SPEC_OPTIONAL = {"when": int, "count": int, "match": dict, "args": dict}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *at hit ``when`` of ``site``, inject ``fault``*.

    ``when`` is 1-based over all hits of the site's per-injector counter;
    ``count`` widens the trigger to a window of consecutive hits (bursts,
    outage durations). ``match`` must be a subset of the hit's context
    for the spec to apply — hits that don't match still advance the site
    counter, so ``when`` always means "the when-th time the hook fired".
    """

    site: str
    fault: str
    when: int = 1
    count: int = 1
    match: Mapping[str, object] = field(default_factory=dict)
    args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ConfigError(
                f"unknown injection site {self.site!r}; known sites: {known}")
        if self.fault not in SITES[self.site]:
            raise ConfigError(
                f"site {self.site!r} does not support fault {self.fault!r}; "
                f"supported: {SITES[self.site]}")
        if not isinstance(self.when, int) or self.when < 1:
            raise ConfigError(
                f"when must be a positive integer, got {self.when!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigError(
                f"count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "match",
                           _check_mapping("match", self.match))
        object.__setattr__(self, "args", _check_mapping("args", self.args))

    def matches(self, context: Mapping[str, object]) -> bool:
        """True when every ``match`` pair is present in ``context``."""
        for key, expected in self.match.items():
            if key not in context or context[key] != expected:
                return False
        return True

    def to_dict(self) -> dict:
        record: dict = {"site": self.site, "fault": self.fault,
                        "when": self.when}
        if self.count != 1:
            record["count"] = self.count
        if self.match:
            record["match"] = dict(self.match)
        if self.args:
            record["args"] = dict(self.args)
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "FaultSpec":
        artifact.require(record, "fault spec", _SPEC_FIELDS,
                         optional=_SPEC_OPTIONAL)
        unknown = set(record) - set(_SPEC_FIELDS) - set(_SPEC_OPTIONAL)
        if unknown:
            raise ConfigError(
                f"fault spec has unknown keys: {sorted(unknown)}")
        return cls(site=record["site"], fault=record["fault"],
                   when=record.get("when", 1), count=record.get("count", 1),
                   match=record.get("match", {}),
                   args=record.get("args", {}))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultSpec` entries.

    ``seed`` is provenance only (recorded for plans minted by
    :meth:`random` so a dumped reproducer is self-describing); it does
    not feed the injector, which is fully deterministic given the specs.
    """

    events: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        events = tuple(self.events)
        for spec in events:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"plan events must be FaultSpec, got {spec!r}")
        object.__setattr__(self, "events", events)
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigError(f"seed must be int or None, got {self.seed!r}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def sites(self) -> set[str]:
        return {spec.site for spec in self.events}

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.events if spec.site == site)

    def extended(self, *specs: FaultSpec) -> "FaultPlan":
        return FaultPlan(events=self.events + tuple(specs), seed=self.seed)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        document: dict = {
            "schema": FAULTS_SCHEMA,
            "events": [spec.to_dict() for spec in self.events],
        }
        if self.seed is not None:
            document["seed"] = self.seed
        return document

    @classmethod
    def from_dict(cls, document: Mapping) -> "FaultPlan":
        artifact.require(document, "fault plan", {"events": list},
                         schema=FAULTS_SCHEMA,
                         optional={"seed": (int, type(None))})
        return cls(events=tuple(FaultSpec.from_dict(e)
                                for e in document["events"]),
                   seed=document.get("seed"))

    def to_json(self) -> str:
        """Canonical one-plan JSON (stable bytes for identical plans)."""
        return artifact.dumps(self.to_dict()) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(artifact.parse_json(text, "fault plan"))

    def save(self, path: str | Path) -> Path:
        return artifact.write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(artifact.read_json(path, "fault plan"))

    # -- generation ------------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, n_events: int = 3,
               sites: Iterable[str] | None = None,
               max_when: int = 200, max_count: int = 3) -> "FaultPlan":
        """Derive a random plan from ``seed`` (reproducible, sweepable).

        ``sites`` restricts the candidate pool (default: every
        registered site). The derivation walks a child stream forked
        with the literal key ``"faults"`` so it is independent of any
        other use of the same root seed.
        """
        pool = sorted(sites if sites is not None else SITES)
        for site in pool:
            if site not in SITES:
                raise ConfigError(f"unknown injection site {site!r}")
        if n_events < 0:
            raise ConfigError(f"n_events must be >= 0, got {n_events!r}")
        rng = fork_rng(make_rng(seed), "faults")
        specs = []
        for _ in range(n_events):
            site = pool[int(rng.integers(0, len(pool)))]
            kinds = SITES[site]
            fault = kinds[int(rng.integers(0, len(kinds)))]
            when = int(rng.integers(1, max_when + 1))
            count = int(rng.integers(1, max_count + 1))
            specs.append(FaultSpec(site=site, fault=fault, when=when,
                                   count=count))
        return cls(events=tuple(specs), seed=int(seed))


def validate_fault_document(document: Mapping) -> None:
    """Schema check for ``repro.faults/v1`` documents (raises ConfigError)."""
    FaultPlan.from_dict(document)
