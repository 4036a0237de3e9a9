"""Indirect-flow policy knobs (the §III/§IV dilemma, Figs. 1-2).

Classic DIFT must choose how to treat *address* dependencies (a tainted
value indexes a lookup table -- Fig. 1) and *control* dependencies (a
tainted value steers a branch that writes constants -- Fig. 2):

* propagate neither -> **undertainting**: the Fig. 1/2 copies launder
  taint completely;
* propagate both -> **overtainting**: loop counters and flag registers
  spread taint until "every piece of data in the system is tagged".

FAROS' answer (§IV) is to do *neither* globally and instead define the
security policy over tag-type **confluence**; these knobs exist so the
E11 ablation can demonstrate both failure modes against the same
programs, and so the E12 extension can scope control-dependency
tracking narrowly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TaintPolicy:
    """Configuration for :class:`~repro.taint.tracker.TaintTracker`."""

    #: Propagate through address dependencies: a load unions the address
    #: register's provenance into the loaded value (Fig. 1 handling).
    track_address_deps: bool = False

    #: Propagate through control dependencies: after a branch guarded by
    #: tainted flags, writes union in the flags' provenance for the next
    #: :attr:`control_dep_window` instructions (a bounded approximation
    #: of the post-dominator scope real systems cannot compute without
    #: static analysis -- the paper's core argument for why nobody
    #: handles this well).
    track_control_deps: bool = False

    #: How many instructions a tainted branch contaminates.
    control_dep_window: int = 8

    #: Append a process tag to a tainted byte whenever a process touches
    #: it (fetch, load, store, or syscall-driven copy).  This is FAROS'
    #: provenance enrichment; disabling it degrades the tracker to
    #: classic origin-only DIFT.
    process_tags_on_access: bool = True

    #: Watchdog: maximum live tainted bytes in shadow memory before the
    #: tracker trips :class:`~repro.faults.errors.TaintBudgetExceeded`
    #: (the paper's overtainting explosion, caught instead of suffered).
    #: None disables.
    max_tainted_bytes: "int | None" = None

    #: Watchdog: maximum canonical provenance lists the interner may
    #: hold.  A run that manufactures unbounded distinct chronologies is
    #: state-space exhaustion; trip deterministically rather than
    #: degrade the host.  None disables.
    max_prov_nodes: "int | None" = None

    @property
    def has_taint_budget(self) -> bool:
        """True when any taint-budget watchdog is armed."""
        return self.max_tainted_bytes is not None or self.max_prov_nodes is not None


#: FAROS' production configuration: no indirect flows, rich provenance.
FAROS_POLICY = TaintPolicy()

#: Ablation: classic conservative DIFT (both indirect flows on).
OVERTAINT_POLICY = TaintPolicy(track_address_deps=True, track_control_deps=True)
