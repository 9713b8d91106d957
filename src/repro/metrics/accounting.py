"""Per-thread, per-category CPU time accounting.

Every cycle a simulated thread burns is charged to a *category* — the same
labels the paper uses in its CPU-utilization breakdowns: ``client-application``,
``loop device``, ``data copy(virtio-vqueue)``, ``data copy(vRead-buffer)``,
``vhost-net``, ``rdma``, ``vRead-net``, ``disk read``, ``others``.

The accounting object belongs to a host; the scheduler reports busy
intervals into it as they complete.  Utilization is then *measured* over a
window, exactly like running ``top`` during the experiment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

# Canonical category names used throughout the code base (paper's labels).
CLIENT_APPLICATION = "client-application"
LOOP_DEVICE = "loop device"
COPY_VIRTIO = "data copy(virtio-vqueue)"
COPY_VREAD_BUFFER = "data copy(vRead-buffer)"
VHOST_NET = "vhost-net"
RDMA = "rdma"
VREAD_NET = "vRead-net"
DISK_READ = "disk read"
OTHERS = "others"

#: Order used when rendering breakdowns, mirroring the paper's legends.
CATEGORY_ORDER = (
    CLIENT_APPLICATION,
    DISK_READ,
    LOOP_DEVICE,
    COPY_VIRTIO,
    COPY_VREAD_BUFFER,
    VHOST_NET,
    VREAD_NET,
    RDMA,
    OTHERS,
)


class CpuAccounting:
    """Accumulates CPU busy time per (thread name, category).

    Supports *marks*: :meth:`snapshot` captures the current totals so a
    later :meth:`since` returns only the activity inside a measurement
    window — experiments use this to exclude setup/teardown work.
    """

    def __init__(self) -> None:
        self._busy: Dict[Tuple[str, str], float] = defaultdict(float)
        self._settle_hooks: list = []
        # (first-charge time, mint order, arrival seq) per key; see
        # _fold_order.
        self._birth: Dict[Tuple[str, str], Tuple[float, tuple, int]] = {}
        self._birth_seq = 0
        self._clock: Optional[Callable[[], float]] = None

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Stamp first charges with simulated time (see :meth:`_fold_order`).

        The CPU scheduler wires this to its simulator's clock so key birth
        times are comparable with the coalesced fast path's back-dated
        births; without a clock, births fall back to arrival order.
        """
        self._clock = clock

    def add_settle_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable run before every read.

        The CPU scheduler's coalesced fast path charges lazily; its hook
        folds the already-elapsed boundaries of in-flight bursts into
        ``_busy`` so reads mid-burst see exactly what the per-slice
        reference path would have charged by now.
        """
        self._settle_hooks.append(hook)

    def _settle(self) -> None:
        for hook in self._settle_hooks:
            hook()

    def charge(self, thread_name: str, category: str, seconds: float) -> None:
        """Record ``seconds`` of busy CPU for ``thread_name`` in ``category``."""
        if seconds < 0:
            raise ValueError(f"negative busy time {seconds}")
        key = (thread_name, category)
        if key not in self._birth:
            self._note_birth(key, self._clock() if self._clock is not None
                             else 0.0)
        self._busy[key] += seconds

    def _note_birth(self, key: Tuple[str, str], when: float,
                    order: tuple = ()) -> None:
        """Record ``key``'s first charge at ``when``.

        Keys first charged at the same instant fold by ``order``, then by
        arrival.  The coalesced fast path records births after the fact,
        so it passes the mint order of the reference timer that would have
        made the charge; direct charges arrive in that order already.
        """
        self._birth[key] = (when, order, self._birth_seq)
        self._birth_seq += 1

    def _fold_order(self):
        """``_busy`` items ordered by each key's first charge.

        Float sums are order-sensitive, so every reader folds in a defined
        order: the (time, mint order, arrival) at which each key was first
        charged.  For the per-slice reference this *is* dict insertion
        order; the coalesced fast path charges a whole burst at its
        wake-up but back-dates each key's birth to the boundary the
        reference would have first charged it at, tie-broken by the mint
        order of that boundary's timer, so both paths fold — and
        therefore round — identically.
        """
        birth = self._birth
        return sorted(self._busy.items(), key=lambda item: birth[item[0]])

    def total(self) -> float:
        """Total busy seconds across all threads and categories."""
        self._settle()
        return sum(seconds for _, seconds in self._fold_order())

    def by_category(self, threads: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Busy seconds per category, optionally restricted to ``threads``."""
        self._settle()
        wanted = set(threads) if threads is not None else None
        out: Dict[str, float] = defaultdict(float)
        for (thread_name, category), seconds in self._fold_order():
            if wanted is None or thread_name in wanted:
                out[category] += seconds
        return dict(out)

    def by_thread(self) -> Dict[str, float]:
        """Busy seconds per thread across all categories."""
        self._settle()
        out: Dict[str, float] = defaultdict(float)
        for (thread_name, _), seconds in self._fold_order():
            out[thread_name] += seconds
        return dict(out)

    def snapshot(self) -> Dict[Tuple[str, str], float]:
        """Capture current totals (for later :meth:`since`)."""
        self._settle()
        return dict(self._fold_order())

    def since(self, mark: Mapping[Tuple[str, str], float]) -> "CpuAccounting":
        """Return a new accounting holding only activity after ``mark``."""
        self._settle()
        delta = CpuAccounting()
        for key, seconds in self._fold_order():
            diff = seconds - mark.get(key, 0.0)
            if diff > 0:
                delta.charge(key[0], key[1], diff)
        return delta


class FaultCounters:
    """Counts injected faults and recovery actions.

    Names follow a two-level convention: ``fault.<kind>`` for injections
    (e.g. ``fault.datanode-crash``) and ``recovery.<action>`` for the
    resilience machinery's responses (``recovery.replica-failover``,
    ``recovery.fallback-vanilla``, ``recovery.daemon-reprobe``, ...).

    Every count is also emitted through the attached
    :class:`~repro.metrics.tracing.Tracer` (category ``fault``) when one is
    given, stamped with the simulation time supplied by ``clock``.
    """

    def __init__(self, tracer=None,
                 clock: Optional[Callable[[], float]] = None):
        self._counts: Dict[str, int] = defaultdict(int)
        self.tracer = tracer
        self._clock = clock

    def count(self, name: str, **fields) -> int:
        """Increment ``name``; returns the new total for that name."""
        self._counts[name] += 1
        tracer = self.tracer
        if tracer is not None and tracer.wants("fault"):
            now = self._clock() if self._clock is not None else 0.0
            tracer.record(now, "fault", name, **fields)
        return self._counts[name]

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def total(self, prefix: str = "") -> int:
        """Sum of all counts whose name starts with ``prefix``."""
        return sum(count for name, count in self._counts.items()
                   if name.startswith(prefix))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def render(self) -> str:
        """One ``name: count`` line per counter, sorted by name."""
        if not self._counts:
            return "(no fault/recovery events)"
        return "\n".join(f"{name}: {count}"
                         for name, count in sorted(self._counts.items()))

    def __repr__(self) -> str:
        return (f"<FaultCounters faults={self.total('fault.')} "
                f"recoveries={self.total('recovery.')}>")


class UtilizationBreakdown:
    """A CPU-utilization breakdown over a measurement window.

    ``utilization[cat]`` is busy-seconds / (window x cores): the fraction of
    the host's total CPU capacity spent in that category, matching the
    paper's stacked-bar charts.
    """

    def __init__(self, busy_by_category: Mapping[str, float],
                 window_seconds: float, cores: int):
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        if cores < 1:
            raise ValueError("need at least one core")
        self.window_seconds = window_seconds
        self.cores = cores
        capacity = window_seconds * cores
        self.utilization: Dict[str, float] = {
            category: seconds / capacity
            for category, seconds in busy_by_category.items() if seconds > 0
        }

    @property
    def total(self) -> float:
        """Total utilization (fraction of host CPU capacity, 0..1)."""
        return sum(self.utilization.values())

    def get(self, category: str) -> float:
        return self.utilization.get(category, 0.0)

    def merge(self, other: "UtilizationBreakdown") -> "UtilizationBreakdown":
        """Combine two measurement windows into one breakdown.

        Busy-seconds add; the combined window is capacity-weighted (the
        result reports busy / total capacity across both windows), so
        merging a bar's per-point breakdowns from a fanout is equivalent
        to having measured one long window.  Merge order does not matter
        beyond float-addition association.
        """
        merged_busy: Dict[str, float] = {}
        for source in (self, other):
            capacity = source.window_seconds * source.cores
            for category, utilization in source.utilization.items():
                merged_busy[category] = (merged_busy.get(category, 0.0)
                                         + utilization * capacity)
        total_capacity = (self.window_seconds * self.cores
                          + other.window_seconds * other.cores)
        cores = max(self.cores, other.cores)
        return UtilizationBreakdown(merged_busy, total_capacity / cores,
                                    cores)

    def rows(self) -> Iterable[Tuple[str, float]]:
        """(category, utilization) rows in the paper's legend order.

        A plain data iterator, not a simulation process — hence the
        yield-discipline exemptions.
        """
        for category in CATEGORY_ORDER:
            if category in self.utilization:
                yield category, self.utilization[category]  # simlint: disable=yield-discipline
        for category in sorted(self.utilization):
            if category not in CATEGORY_ORDER:
                yield category, self.utilization[category]  # simlint: disable=yield-discipline

    def __repr__(self) -> str:
        parts = ", ".join(f"{c}={u:.1%}" for c, u in self.rows())
        return f"<UtilizationBreakdown total={self.total:.1%} [{parts}]>"
