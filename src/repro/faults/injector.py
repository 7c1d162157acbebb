"""The runtime half of fault injection: per-site hit counting + dispatch.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
and is consulted by hooks threaded through the stack::

    self._faults = context.current().faults   # bound at construction
    ...
    if self._faults is not None:              # zero-cost when disabled
        self._faults.crash_if("gc.pre_erase", block=victim)

Each ``check``/``crash_if`` call advances the site's hit counter and
returns the first spec whose ``[when, when+count)`` window covers the
hit and whose ``match`` filter is a subset of the call's context. The
injector is purely deterministic: given the same plan and the same
sequence of hook calls it fires the same faults, which is what makes
faulty runs byte-identical across repeats and ``--jobs N`` sweeps.

Injectors are cheap, single-use-per-run objects. Never share one across
sweep tasks — each run constructs its own (``FaultInjector(plan)``) so
hit counters start from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PowerLossError
from repro.faults.plan import SITES, FaultPlan, FaultSpec
from repro.obs.instruments import fault_instruments


@dataclass(frozen=True)
class FiredFault:
    """Log record of one injected fault (kept for tests/reproducers)."""

    site: str
    fault: str
    hit: int
    context: dict = field(default_factory=dict)


class FaultInjector:
    """Deterministic dispatcher for one plan's worth of faults."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._by_site: dict[str, tuple[FaultSpec, ...]] = {}
        for spec in plan.events:
            existing = self._by_site.get(spec.site, ())
            self._by_site[spec.site] = existing + (spec,)
        self._hits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._down_nodes: dict[object, int] = {}
        self._instruments = fault_instruments()

    # -- core dispatch ---------------------------------------------------

    def check(self, site: str, **context) -> FaultSpec | None:
        """Record a hit at ``site``; return the spec to inject, if any.

        Every call advances the site counter (even when nothing fires,
        and even for hits excluded by ``match``), so ``when`` always
        counts hook firings, not prior injections.
        """
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        specs = self._by_site.get(site)
        if not specs:
            return None
        for spec in specs:
            if spec.when <= hit < spec.when + spec.count \
                    and spec.matches(context):
                self.fired.append(FiredFault(site=site, fault=spec.fault,
                                             hit=hit, context=dict(context)))
                if self._instruments is not None:
                    self._instruments.injected.labels(
                        site=site, fault=spec.fault).inc()
                return spec
        return None

    def crash_if(self, site: str, **context) -> None:
        """Raise :class:`PowerLossError` when a crash is scheduled here."""
        spec = self.check(site, **context)
        if spec is not None and spec.fault == "crash":
            if self._instruments is not None:
                self._instruments.crashes.labels(site=site).inc()
            raise PowerLossError(site)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been hit so far."""
        return self._hits.get(site, 0)

    # -- diFS node outages ----------------------------------------------

    def note_poll(self) -> None:
        """Advance outage clocks: called once per failure-poll sweep.

        ``difs.node`` outages are measured in poll sweeps: a spec with
        ``when=w, count=c, match={"node": n}`` takes node ``n`` down for
        polls ``w .. w+c-1``. Between polls, :meth:`node_down` answers
        from the window computed here (no counter advance per query, so
        how often a recovery path asks does not perturb the schedule).
        """
        poll = self._hits.get("difs.node", 0) + 1
        self._hits["difs.node"] = poll
        self._down_nodes = {}
        for spec in self._by_site.get("difs.node", ()):
            if spec.when <= poll < spec.when + spec.count:
                node = spec.match.get("node")
                self._down_nodes[node] = poll
                self.fired.append(FiredFault(
                    site="difs.node", fault="outage", hit=poll,
                    context={"node": node}))
                if self._instruments is not None:
                    self._instruments.injected.labels(
                        site="difs.node", fault="outage").inc()

    def node_down(self, node_id) -> bool:
        """True while ``node_id`` is inside an injected outage window.

        A spec with ``match={}`` (no node named) downs every node.
        """
        if not self._down_nodes:
            return False
        return node_id in self._down_nodes or None in self._down_nodes

    # -- bookkeeping -----------------------------------------------------

    def record_degraded(self, action: str) -> None:
        """Count one graceful-degradation action taken in response."""
        if self._instruments is not None:
            self._instruments.degraded.labels(action=action).inc()

    def summary(self) -> dict:
        """Hit/fired tallies (tests and reproducer dumps)."""
        by_fault: dict[str, int] = {}
        for record in self.fired:
            key = f"{record.site}:{record.fault}"
            by_fault[key] = by_fault.get(key, 0) + 1
        return {
            "hits": dict(sorted(self._hits.items())),
            "fired": by_fault,
            "total_fired": len(self.fired),
        }


__all__ = ["SITES", "FaultInjector", "FiredFault"]
