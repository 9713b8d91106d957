"""Time-sliced fair-share multicore CPU scheduler.

Every schedulable entity on a host — vCPU threads, vhost-net threads, qemu
I/O threads, vRead daemons, lookbusy hogs — is a :class:`Thread`.  A thread
burns CPU by ``yield from thread.run(cycles, category)``: the scheduler
dispatches it onto a free core (charging a context-switch cost) or queues it
FIFO when all cores are busy.  Bursts longer than the time slice are
preempted at slice boundaries whenever other threads are waiting, giving
round-robin fair sharing.

**The wait for a free core is the paper's I/O-thread synchronization
delay**: with 2 VMs on a quad-core host every vCPU and vhost thread finds a
core immediately; with 4 VMs (2 running lookbusy) dispatch queueing delays
every boundary crossing of the vanilla HDFS read path (Figs 3 and 9).

Two scheduler implementations coexist behind the ``REPRO_LEGACY_SLICES``
toggle (mirroring ``REPRO_LEGACY_BUFFERS`` in the data plane):

* the **sliced reference** (:meth:`CpuScheduler._execute_sliced`) wakes the
  simulator at every time-slice boundary, exactly as the pre-PR5 code did;
* the **coalesced fast path** (:meth:`CpuScheduler._execute_fast`) arms one
  whole-burst timer while no thread waits for a core and *demotes* it back
  to slice granularity the moment a contender arrives, replaying the
  reference's float arithmetic (same left-fold order) so clocks, charges
  and RNG draws stay bit-for-bit identical.

Sanitize mode (``Simulator(sanitize=True)``) always runs the reference
implementation: its per-slice event ceremony is what the sanitizer's
bookkeeping instruments.

Known tie caveat: when an *unrelated* event chain lands on the exact float
instant of a slice boundary with a heap sequence number in the narrow
window the coalesced path cannot observe (created after the slice timer it
replaces would have been created), the two implementations may order that
instant differently.  The regression pins, the bench determinism gate and
the equivalence property suite all run both implementations to keep this
theoretical corner empirically empty.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import deque
from typing import Deque, Optional

from repro.metrics.accounting import CpuAccounting, OTHERS
from repro.hostmodel.costs import CostModel
from repro.sim import Event, Lock, SimulationError, Simulator
from repro.sim.events import AbsoluteTimeout

_legacy_slices = os.environ.get("REPRO_LEGACY_SLICES", "") not in ("", "0")


def use_legacy_slices(enabled: bool) -> None:
    """Route CPU bursts through the pre-PR5 slice-loop reference scheduler."""
    global _legacy_slices
    _legacy_slices = bool(enabled)


def legacy_slices_enabled() -> bool:
    """True when the slice-loop reference scheduler is selected."""
    return _legacy_slices


class legacy_slices:
    """Context manager: temporarily select the slice-loop reference."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._previous = None

    def __enter__(self) -> "legacy_slices":
        self._previous = _legacy_slices
        use_legacy_slices(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        use_legacy_slices(self._previous)


_epochs_enabled = os.environ.get("REPRO_NO_EPOCH", "") in ("", "0")


def use_epochs(enabled: bool) -> None:
    """Enable/disable contended-round epoch coalescing (fast path only)."""
    global _epochs_enabled
    _epochs_enabled = bool(enabled)


def epochs_enabled() -> bool:
    """True when contended rounds may be coalesced into epochs."""
    return _epochs_enabled


class epoch_coalescing:
    """Context manager: temporarily enable/disable epoch coalescing."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._previous = None

    def __enter__(self) -> "epoch_coalescing":
        self._previous = _epochs_enabled
        use_epochs(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        use_epochs(self._previous)


#: Epoch-coalescing observability (``python -m repro profile --kernel``).
_EPOCH_STATS = {
    "epochs_formed": 0,       # contended rounds coalesced into an epoch
    "epochs_completed": 0,    # epochs that ran to their completion horizon
    "epochs_demoted": 0,      # epochs dissolved early (arrival/freq/interrupt)
    "epochs_rejected": 0,     # replays discarded as not worth the ceremony
    "epoch_records": 0,       # slice/switch boundaries replayed arithmetically
}


def epoch_stats() -> dict:
    """Snapshot of the epoch-coalescing counters."""
    return dict(_EPOCH_STATS)


def reset_epoch_stats() -> None:
    """Zero the epoch-coalescing counters."""
    for key in _EPOCH_STATS:
        _EPOCH_STATS[key] = 0


class _Handoff:
    """Sentinel telling a parked generator how an epoch dissolved under it."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<handoff {self.name}>"


#: Burst was virtually preempted: its grant just fired, start a fresh segment.
_H_DISPATCH = _Handoff("dispatch")
#: Burst's mid-interval cursor was restored: skip ``begin_segment``.
_H_CURSOR = _Handoff("cursor")


class Thread:
    """A schedulable entity (vCPU, vhost-net, daemon, ...).

    A thread executes at most one burst at a time; concurrent ``run`` calls
    from different simulation processes serialize on the thread's mutex,
    modelling in-guest scheduling onto a single vCPU.
    """

    def __init__(self, scheduler: "CpuScheduler", name: str):
        self.scheduler = scheduler
        self.name = name
        self._mutex = Lock(scheduler.sim)

    def run(self, cycles: float, category: str):
        """Generator: burn ``cycles`` of CPU charged to ``category``.

        Use as ``yield from thread.run(...)`` inside a simulation process.
        """
        scheduler = self.scheduler
        if _legacy_slices or scheduler.sim.sanitizer is not None:
            return scheduler._execute_sliced(self, cycles, category)
        return scheduler._execute_fast(self, cycles, category)

    def __repr__(self) -> str:
        return f"<Thread {self.name}>"


class _Burst:
    """In-flight coalesced burst state (fast path only).

    Keeps the exact slice-fold cursor — ``t`` is the last committed
    boundary, ``rem`` the cycles outstanding at that boundary — so charges
    committed lazily (at segment wake-ups, demotions, or accounting reads)
    replay the reference loop's float arithmetic: identical left-folds,
    identical per-key read-modify-write sequences.
    """

    __slots__ = ("scheduler", "thread_name", "category", "proc", "timer",
                 "armed_end", "arm_seq", "switch_end_wake", "t", "rem",
                 "switch_seconds", "switch_done", "slice_cycles",
                 "frequency_hz", "handoff", "parked_grant")

    def __init__(self, scheduler: "CpuScheduler", thread_name: str,
                 category: str, proc):
        self.scheduler = scheduler
        self.thread_name = thread_name
        self.category = category
        self.proc = proc
        self.timer = None
        self.armed_end = 0.0
        self.arm_seq = 0
        #: Epoch-dissolution handoff (None / _H_DISPATCH / _H_CURSOR); tells
        #: the generator how to resume after the engine reshaped its state.
        self.handoff = None
        #: Pending core grant minted for this burst by an epoch dissolution
        #: while its generator is parked at the main-loop yield.
        self.parked_grant = None
        #: Timer armed at the dispatch-switch end (frequency-change demote):
        #: the wake there re-folds at the new clock and must not preempt —
        #: the reference loop never preempts at a switch boundary.
        self.switch_end_wake = False
        self.t = 0.0
        self.rem = 0.0
        self.switch_seconds = 0.0
        self.switch_done = True
        self.slice_cycles = 0.0
        self.frequency_hz = 0.0

    def begin_segment(self, now: float, rem: float, switch_seconds: float,
                      slice_cycles: float, frequency_hz: float) -> None:
        self.t = now
        self.rem = rem
        self.switch_seconds = switch_seconds
        # A zero-cost switch still goes through the pending state: the
        # reference charges it unconditionally, which mints the (thread,
        # "others") accounting key even when the value is 0.0.
        self.switch_done = False
        self.slice_cycles = slice_cycles
        self.frequency_hz = frequency_hz

    def segment_end(self) -> float:
        """Absolute end of the whole remaining segment (reference fold)."""
        t = self.t
        if not self.switch_done:
            t = t + self.switch_seconds
        rem = self.rem
        S = self.slice_cycles
        freq = self.frequency_hz
        while rem > 0:
            burst = rem if rem < S else S
            t = t + burst / freq
            rem = rem - burst
        return t

    def next_boundary(self) -> float:
        """Absolute end of the first uncommitted slice.

        While the dispatch context switch is still pending this includes
        it: the reference loop cannot preempt before the first slice after
        dispatch completes.
        """
        t = self.t
        if not self.switch_done:
            t = t + self.switch_seconds
        rem = self.rem
        if rem > 0:
            burst = rem if rem < self.slice_cycles else self.slice_cycles
            t = t + burst / self.frequency_hz
        return t

    def commit(self, now: float, observer_sched: Optional[float] = None) -> None:
        """Charge every fold boundary up to and including ``now``.

        A boundary landing exactly on ``now`` is normally charged: the
        reference timer for it was created at the boundary's *start*, so a
        commit triggered by an event minted at the current instant (a
        wake-up, a demoting contender's grant) carries a higher sequence
        number, and the reference had already fired and charged by then.

        That assumption fails for *observers* — accounting reads driven by
        an event that was scheduled **before** the boundary's start (e.g. a
        probe timeout armed long ago that happens to land float-exactly on
        a slice end): in the reference, the observer's lower sequence
        number fires it *before* the slice timer, so it must not see that
        boundary charged.  Callers on an observer
        path pass the active event's schedule time (``observer_sched``);
        a boundary ending exactly at ``now`` is then charged only when the
        observer was scheduled at or after the boundary's start.  ``None``
        keeps the inclusive behaviour (the burst's own wake/interrupt path,
        or reads from outside event processing).
        """
        t = self.t
        accounting = self.scheduler.accounting
        busy = accounting._busy
        if not self.switch_done:
            end = t + self.switch_seconds
            if end > now:
                return
            if (end == now and observer_sched is not None
                    and observer_sched < t):
                return
            key = (self.thread_name, OTHERS)
            if key not in accounting._birth:
                # Back-date to the boundary the reference charged it at:
                # readers fold in birth order, so a late batched insert
                # must not reorder the float sum (see _fold_order).  Ties
                # on ``end`` go by the reference timer's mint order: minted
                # at the interval start, in dispatch (arm) order.
                accounting._note_birth(key, end, (t, self.arm_seq))
            busy[key] += self.switch_seconds
            t = end
            self.switch_done = True
        rem = self.rem
        if rem > 0:
            S = self.slice_cycles
            freq = self.frequency_hz
            key = (self.thread_name, self.category)
            # .get, not [] — reading a defaultdict would mint a 0.0 entry
            # for a burst that has not crossed a boundary yet, and the
            # reference only creates keys on the first real charge.
            total = busy.get(key, 0.0)
            changed = False
            while rem > 0:
                burst = rem if rem < S else S
                duration = burst / freq
                end = t + duration
                if end > now:
                    break
                if (end == now and observer_sched is not None
                        and observer_sched < t):
                    break
                if not changed and key not in accounting._birth:
                    accounting._note_birth(key, end, (t, self.arm_seq))
                total += duration
                t = end
                rem = rem - burst
                changed = True
            if changed:
                busy[key] = total
            self.rem = rem
        self.t = t


class _EpochMember:
    """Per-participant state of a coalesced contended round (epoch).

    ``records`` is the participant's committed-boundary tape: one entry per
    fold boundary (dispatch switch or slice end) the virtual replay crossed,
    each carrying the exact charge the reference would have made *and* the
    burst cursor's post-state, so dissolving the epoch at any instant can
    restore the participant as if it had executed slice-by-slice.
    """

    __slots__ = ("burst", "records", "applied", "grant", "snap0",
                 "t", "rem", "switch_done", "switch_seconds", "slice_cycles",
                 "frequency_hz", "arm_band", "arm_order", "arm_start")

    def __init__(self, burst: _Burst, grant=None):
        self.burst = burst
        self.records = []
        #: Records already folded into the accounting (monotone pointer).
        self.applied = 0
        #: The pending core grant this participant is parked on (queued).
        self.grant = grant
        # Virtual cursor, seeded from the burst's real fold cursor.
        self.t = burst.t
        self.rem = burst.rem
        self.switch_done = burst.switch_done
        self.switch_seconds = burst.switch_seconds
        self.slice_cycles = burst.slice_cycles
        self.frequency_hz = burst.frequency_hz
        self.snap0 = (burst.t, burst.rem, burst.switch_done,
                      burst.switch_seconds, burst.slice_cycles,
                      burst.frequency_hz)
        #: Mint order of the timer covering the in-progress interval:
        #: band 0 = armed for real before the epoch formed (order is the
        #: kernel sequence number), band 1 = armed virtually by the replay
        #: (order is the replay counter).  ``(when, band, order)`` reproduces
        #: the kernel's ``(when, seq)`` tie-break exactly.
        self.arm_band = 0
        self.arm_order = burst.arm_seq
        self.arm_start = burst.t


class _Epoch:
    """One coalesced contended round: k bursts round-robining on c cores.

    Formed when every core runs a coalesced burst and every core waiter is
    a coalesced burst parked at its rotation re-acquire.  The whole
    round-robin rotation — k threads × slice quantum, switch charges, queue
    hand-offs — is replayed as closed-form arithmetic up to the first
    completion (the *horizon*); the participants' per-slice timers are
    withdrawn from the kernel and one horizon timer stands in for them all.

    Accounting reads mid-epoch fold the tape through :meth:`commit_to`
    (observer-exact: a boundary on the reader's own instant is charged only
    if its timer would have carried a lower sequence number).  Any
    perturbation — a new core waiter, a frequency change, an interrupt —
    dissolves the epoch at the current instant, restoring every participant
    to the exact state the slice-by-slice execution would be in.
    """

    __slots__ = ("scheduler", "members", "oncore0", "queue0", "pops",
                 "pop_ptr", "horizon", "finisher", "horizon_timer",
                 "fire_cb", "fresh_switch", "fresh_slice", "freq")

    #: Virtual-replay tape cap: bounds formation latency and memory.
    RECORDS_CAP = 4096
    #: Minimum wakes an epoch must elide to be worth the parking ceremony
    #: (measured break-even under lookbusy-style churn on a quad core).
    MIN_POPS = 16

    def __init__(self, scheduler: "CpuScheduler"):
        self.scheduler = scheduler
        self.members: dict = {}
        self.oncore0: list = []
        self.queue0: list = []
        #: Replayed wakes: (time, mint_time, member, upto, dispatched).
        self.pops: list = []
        self.pop_ptr = 0
        self.horizon = 0.0
        self.finisher = None
        self.horizon_timer = None
        self.fresh_switch = 0.0
        self.fresh_slice = 0.0
        self.freq = 0.0

    # ------------------------------------------------------------ replay
    def replay(self, now: float) -> bool:
        """Run the round-robin arithmetic to the first completion.

        Returns False when the epoch is not viable (too short, or the
        record cap was hit before enough wakes were elided).
        """
        # Local arithmetic over completion instants, not event scheduling:
        # the kernel never sees these entries, and the commit re-emits the
        # results through Simulator with the reference's own ordering.
        from heapq import heapify, heappush, heappop  # simlint: disable=no-direct-heapq

        scheduler = self.scheduler
        costs = scheduler.costs
        freq = scheduler.frequency_hz
        switch_seconds = costs.context_switch_cycles / freq
        fresh_slice = costs.time_slice_seconds * freq
        self.fresh_switch = switch_seconds
        self.fresh_slice = fresh_slice
        self.freq = freq
        heap = [(member.burst.armed_end, member.arm_band, member.arm_order,
                 member) for member in self.oncore0]
        heapify(heap)
        queue = deque(self.queue0)
        pops = self.pops
        counter = 0
        nrecords = 0
        cap = self.RECORDS_CAP
        while heap:
            when, band, order, member = heappop(heap)
            if nrecords >= cap:
                # Tape full: close the epoch at the last instant whose
                # wakes were all replayed (a half-replayed instant would
                # misorder same-time rotations at the fire).
                while pops and pops[-1][0] >= when:
                    pops.pop()
                if pops:
                    self.horizon = pops[-1][0]
                break
            mint_time = member.arm_start
            records = member.records
            t = member.t
            if not member.switch_done:
                end = t + member.switch_seconds
                key = (member.burst.thread_name, OTHERS)
                records.append((end, t, key, member.switch_seconds,
                                end, member.rem, True, member.switch_seconds,
                                member.slice_cycles, member.frequency_hz))
                member.switch_done = True
                member.t = end
                t = end
                nrecords += 1
            rem = member.rem
            burst_c = rem if rem < member.slice_cycles else member.slice_cycles
            duration = burst_c / member.frequency_hz
            end = t + duration
            rem = rem - burst_c
            key = (member.burst.thread_name, member.burst.category)
            records.append((end, t, key, duration, end, rem, True,
                            member.switch_seconds, member.slice_cycles,
                            member.frequency_hz))
            member.t = end
            member.rem = rem
            nrecords += 1
            if rem <= 0.0:
                # First completion: the horizon.  The finisher's real
                # resume performs the release/handoff at this instant.
                pops.append((end, mint_time, member, len(records), None))
                self.horizon = end
                self.finisher = member
                break
            # Rotation: release -> dispatch the queue head -> rejoin tail.
            head = queue.popleft()
            counter += 1
            head.switch_seconds = switch_seconds
            head.slice_cycles = fresh_slice
            head.frequency_hz = freq
            head.arm_band = 1
            head.arm_order = counter
            head.arm_start = end
            # The dispatch switch is charged on its own record right here,
            # not at the head's eventual wake: if the cap trims that wake,
            # observers folding the tape mid-epoch must still see the
            # switch the reference settle would have charged.
            switch_end = end + switch_seconds
            head.records.append((switch_end, end,
                                 (head.burst.thread_name, OTHERS),
                                 switch_seconds, switch_end, head.rem, True,
                                 switch_seconds, fresh_slice, freq))
            head.switch_done = True
            head.t = switch_end
            nrecords += 1
            head_rem = head.rem
            head_burst = (head_rem if head_rem < fresh_slice else fresh_slice)
            boundary = switch_end + head_burst / freq
            heappush(heap, (boundary, 1, counter, head))
            queue.append(member)
            pops.append((end, mint_time, member, len(records), head))
        if self.finisher is None and self.horizon == 0.0:
            return False  # cap hit before a single closable instant
        if len(self.pops) < self.MIN_POPS or self.horizon <= now:
            return False
        return True

    # ------------------------------------------------------- accounting
    def _apply_records(self, member: _EpochMember, upto: int) -> None:
        accounting = self.scheduler.accounting
        busy = accounting._busy
        birth = accounting._birth
        records = member.records
        i = member.applied
        while i < upto:
            end, start, key, duration = records[i][:4]
            if key not in birth:
                accounting._note_birth(key, end, (start,))
            busy[key] += duration
            i += 1
        _EPOCH_STATS["epoch_records"] += i - member.applied
        member.applied = i

    def commit_to(self, now: float, observer_sched) -> None:
        """Fold the tape into the accounting up to ``now`` (one pass).

        Whole wakes are applied in replay order (a wake on the observer's
        own instant only if its timer was minted at or after the observer
        was scheduled — the kernel would have fired it first); then
        per-participant partial boundaries, in ``_inflight`` order, exactly
        as the non-epoch settle hook would.
        """
        pops = self.pops
        i = self.pop_ptr
        n = len(pops)
        while i < n:
            pop_time, mint_time, member, upto, dispatched = pops[i]
            if pop_time > now:
                break
            if (pop_time == now and observer_sched is not None
                    and observer_sched < mint_time):
                break
            if member.applied < upto:
                self._apply_records(member, upto)
            i += 1
        self.pop_ptr = i
        members = self.members
        for burst in self.scheduler._inflight:
            member = members.get(burst)
            if member is None:
                continue
            records = member.records
            j = member.applied
            limit = len(records)
            while j < limit:
                end = records[j][0]
                if end > now:
                    break
                if (end == now and observer_sched is not None
                        and observer_sched < records[j][1]):
                    break
                j += 1
            if j > member.applied:
                self._apply_records(member, j)

    # ------------------------------------------------------------- roles
    def roles(self):
        """(on-core, queued, dispatch times) after the applied wakes.

        ``dispatches`` maps each member to the instant of its last applied
        virtual dispatch — needed by :meth:`restore`, because a dispatch
        resets the fold cursor to a fresh segment without leaving a record
        of its own on the tape.
        """
        oncore = list(self.oncore0)
        queue = deque(self.queue0)
        dispatches: dict = {}
        for i in range(self.pop_ptr):
            pop_time, _, member, _, dispatched = self.pops[i]
            if dispatched is None:
                continue  # completion: the finisher keeps its core
            oncore.remove(member)
            queue.popleft()
            oncore.append(dispatched)
            queue.append(member)
            dispatches[dispatched] = pop_time
        return oncore, queue, dispatches

    def restore(self, member: _EpochMember, dispatch_time=None) -> None:
        """Copy the last *applied* post-state back into the real cursor.

        A virtual dispatch after the last applied record supersedes it:
        the cursor becomes a fresh segment begun at the dispatch instant
        (its switch still pending), exactly what ``begin_segment`` would
        have produced when the reference granted the core.
        """
        burst = member.burst
        if member.applied:
            record = member.records[member.applied - 1]
            base_end = record[0]
            state = record[4:]
        else:
            base_end = None
            state = member.snap0
        if dispatch_time is not None and (base_end is None
                                          or dispatch_time >= base_end):
            burst.t = dispatch_time
            burst.rem = state[1]
            burst.switch_done = False
            burst.switch_seconds = self.fresh_switch
            burst.slice_cycles = self.fresh_slice
            burst.frequency_hz = self.freq
        else:
            (burst.t, burst.rem, burst.switch_done, burst.switch_seconds,
             burst.slice_cycles, burst.frequency_hz) = state


class CpuScheduler:
    """FIFO-dispatch, round-robin-preemption scheduler over ``cores`` cores."""

    def __init__(self, sim: Simulator, cores: int, frequency_hz: float,
                 accounting: CpuAccounting, costs: Optional[CostModel] = None,
                 rng: Optional[random.Random] = None, name: str = "sched"):
        if cores < 1:
            raise SimulationError(f"need at least 1 core, got {cores}")
        if frequency_hz <= 0:
            raise SimulationError(f"frequency must be positive: {frequency_hz}")
        self.sim = sim
        self.cores = cores
        self.frequency_hz = frequency_hz
        self.accounting = accounting
        self.costs = costs or CostModel()
        if rng is None:
            seed = int.from_bytes(
                hashlib.sha256(name.encode()).digest()[:8], "big")
            rng = random.Random(seed)
        self._rng = rng
        self._free_cores = cores
        self._waiting: Deque[Event] = deque()
        self._threads: list = []
        #: Coalesced bursts currently holding a core (fast path only).
        self._inflight: list = []
        #: Active contended-round epoch (fast path only), if any.
        self._epoch: Optional[_Epoch] = None
        #: No formation attempts before this instant (rejected-replay cache).
        self._epoch_retry_at = float("-inf")
        #: Pending rotation grants -> the coalesced burst parked on each.
        self._grant_burst: dict = {}
        #: Wakeups that paid the CFS wake-stacking delay (observability).
        self.stacked_wakeups = 0
        #: Optional :class:`repro.metrics.tracing.Tracer` for scheduler
        #: events ('sched' category: dispatch/preempt/stacked/complete).
        self.tracer = None
        # Accounting reads must first charge the already-elapsed boundaries
        # of any in-flight coalesced burst, or a measurement window ending
        # mid-burst would miss busy time the reference path had charged.
        accounting.add_settle_hook(self._settle_inflight)
        # Stamp first charges with simulated time so the fast path's
        # back-dated key births (see _Burst.commit) sort consistently
        # against charges from other components.
        accounting.set_clock(lambda: sim._now)

    # ------------------------------------------------------------- factories
    def thread(self, name: str) -> Thread:
        """Create a new schedulable thread."""
        thread = Thread(self, name)
        self._threads.append(thread)
        return thread

    def retire_thread(self, thread: Thread) -> None:
        """Remove a thread this scheduler created (VM removed/migrated away).

        The thread object stays usable for any burst already in flight —
        retirement only drops it from the scheduler's roster so a migrated
        or deleted VM does not leak one entry per lifetime thread.
        """
        try:
            self._threads.remove(thread)
        except ValueError:
            raise SimulationError(
                f"thread {thread.name!r} does not belong to this scheduler")

    # ----------------------------------------------------------- observation
    @property
    def runnable_waiting(self) -> int:
        """Threads currently queued for a core."""
        return len(self._waiting)

    @property
    def busy_cores(self) -> int:
        return self.cores - self._free_cores

    def set_frequency(self, frequency_hz: float) -> None:
        """cpufreq-set: change the clock for all subsequent bursts."""
        if frequency_hz <= 0:
            raise SimulationError(f"frequency must be positive: {frequency_hz}")
        if self._epoch is not None:
            # The replayed rotations were folded at the old clock.
            self._dissolve()
        self._epoch_retry_at = float("-inf")  # a new clock, a new verdict
        if self._inflight:
            # Segments were folded at the old clock; cut them at the end of
            # the interval currently in progress so every *later* slice is
            # re-folded at the new frequency, exactly where the reference
            # loop (which reads the clock at each slice start) would.
            self._demote_inflight(freq_change=True)
        self.frequency_hz = frequency_hz

    def seconds(self, cycles: float) -> float:
        """Duration of ``cycles`` at the current clock."""
        return cycles / self.frequency_hz

    # ------------------------------------------------------------- core pool
    def _acquire_core(self) -> Event:
        """Event that fires when a core is granted to the caller."""
        if self._epoch is not None:
            # A new contender joins the round: fall back to slice-granular
            # execution first so the joiner queues behind real timers.
            self._dissolve()
        grant = Event(self.sim)
        if self._free_cores > 0:
            self._free_cores -= 1
            grant.succeed(None)
        else:
            self._waiting.append(grant)
            if self._inflight:
                # A contender appeared: every coalesced burst falls back to
                # slice-granular round-robin at its next boundary.
                self._demote_inflight()
        return grant

    def _release_core(self) -> None:
        """Hand the core to the next waiter, or return it to the pool."""
        if self._waiting:
            self._waiting.popleft().succeed(None)
        else:
            self._free_cores += 1

    def _acquire_core_or_abort(self):
        """Generator: wait for a core; on interruption, withdraw cleanly.

        If the waiter is interrupted while queued, its grant must be pulled
        from the wait queue (or, if the grant already fired, the core must
        be returned) — otherwise the core leaks to a dead request.
        """
        grant = self._acquire_core()
        try:
            yield grant
        except BaseException:
            if grant.triggered:
                self._release_core()
            else:
                self._waiting.remove(grant)
            raise

    def _acquire_core_fast(self, burst: _Burst):
        """Rotation re-acquire for a coalesced burst.

        Like :meth:`_acquire_core_or_abort`, but registers the parked
        burst (``_grant_burst``) so a fully-coalesced contended round can
        form an epoch, and unwinds epoch state when interrupted.
        """
        grant = self._acquire_core()
        if not grant.triggered:
            self._grant_burst[grant] = burst
        try:
            yield grant
        except BaseException:
            epoch = self._epoch
            if epoch is not None and burst in epoch.members:
                if self._dissolve_for_interrupt(burst):
                    # Virtually dispatched: the victim holds a real core.
                    self._release_core()
                # else: virtually queued; the rebuild dropped our grant.
                raise
            if grant.triggered:
                if burst.handoff is _H_CURSOR:
                    # Granted by a reconstruction but interrupted before
                    # the resume: withdraw the pre-minted boundary timer.
                    burst.handoff = None
                    pending = burst.timer
                    if pending is not None:
                        if not pending.triggered:
                            pending.cancel()
                        burst.timer = None
                self._release_core()
            else:
                self._waiting.remove(grant)
            raise
        finally:
            self._grant_burst.pop(grant, None)

    # ------------------------------------------------------ epoch coalescing
    def _maybe_form_epoch(self, active: _Burst) -> None:
        """Coalesce the current contended round into an epoch, if closed.

        Called by the fast path right after ``active`` armed its contended
        next-boundary timer.  A round is *closed* when every core runs a
        coalesced burst armed exactly at its next fold boundary and every
        core waiter is a coalesced burst parked at its rotation
        re-acquire — then the whole round-robin rotation is deterministic
        until the first completion and can be replayed arithmetically.
        """
        sim = self.sim
        now = sim._now
        if now < self._epoch_retry_at:
            # A rejected replay's horizon still stands: new waiters only
            # append to the rotation tail, so the first completion — and
            # with it the verdict — cannot move earlier.  Skip the replay.
            return
        tracer = self.tracer
        if tracer is not None and tracer.wants("sched"):
            return  # per-rotation trace records must keep flowing
        if self._free_cores != 0:
            return
        oncore = []
        queued = 0
        for burst in self._inflight:
            if burst.timer is None:
                queued += 1
                continue
            if burst.switch_end_wake or burst.armed_end <= now:
                return
            if burst.armed_end != burst.next_boundary():
                return  # armed past a rotation point (mid freq dance)
            if burst is not active and len(burst.timer.callbacks or ()) != 1:
                return  # somebody else listens to this slice timer
            oncore.append(burst)
        waiting = self._waiting
        if len(oncore) != self.cores or queued != len(waiting) or not queued:
            return
        grant_burst = self._grant_burst
        members = {}
        queue0 = []
        for grant in waiting:
            parked = grant_burst.get(grant)
            if parked is None or parked.timer is not None:
                return  # a slice-loop or first-dispatch waiter: not closed
            member = _EpochMember(parked, grant)
            members[parked] = member
            queue0.append(member)
        if len(members) != queued:
            return
        epoch = _Epoch(self)
        oncore.sort(key=lambda entry: entry.arm_seq)
        for burst in oncore:
            members[burst] = _EpochMember(burst)
        epoch.members = members
        epoch.oncore0 = [members[burst] for burst in oncore]
        epoch.queue0 = queue0
        if not epoch.replay(now):
            # Too short to pay for the parking ceremony; don't re-run the
            # replay until the round it previewed has actually played out.
            _EPOCH_STATS["epochs_rejected"] += 1
            self._epoch_retry_at = max(epoch.horizon, now)
            return
        # Viable: withdraw the per-slice timers, arm one horizon timer.
        _EPOCH_STATS["epochs_formed"] += 1
        horizon_timer = AbsoluteTimeout(sim, epoch.horizon)
        fire_cb = lambda event, epoch=epoch: self._epoch_fire(epoch)  # noqa: E731
        horizon_timer.callbacks.append(fire_cb)
        epoch.horizon_timer = horizon_timer
        epoch.fire_cb = fire_cb
        finisher = epoch.finisher
        for burst in oncore:
            timer = burst.timer
            timer.cancel()
            if burst is active:
                # The generator yields whatever ``burst.timer`` holds when
                # this call returns; park it on the horizon (finisher) or
                # on an inert carrier the dissolution will transplant.
                if finisher is not None and finisher.burst is active:
                    burst.timer = horizon_timer
                else:
                    burst.timer = Event(sim)
            elif finisher is not None and finisher.burst is burst:
                # Parked mid-yield and first to complete: move its resume
                # onto the horizon timer, after the fire callback.
                horizon_timer.callbacks.extend(timer.callbacks)
                timer.callbacks = None
                proc = burst.proc
                if proc is not None and proc._target is timer:
                    proc._target = horizon_timer
                burst.timer = horizon_timer
            # Other bursts stay parked on their cancelled timers (the
            # callbacks survive cancellation); dissolution transplants.
        self._epoch = epoch

    def _reconstruct(self, epoch: _Epoch, now: float, skip=None) -> bool:
        """Re-arm every participant slice-granular at ``now``.

        ``skip`` (an :class:`_EpochMember`) has its cursor restored but is
        not re-parked: an interrupt victim unwinds through its own
        exception path, the completing finisher resumes off the firing
        horizon timer itself.  Returns True when ``skip`` virtually held a
        core at ``now``.
        """
        sim = self.sim
        oncore, queue, dispatches = epoch.roles()
        for member in epoch.members.values():
            epoch.restore(member, dispatches.get(member))
        grant_burst = self._grant_burst
        skip_on_core = False
        # Queued roles: rebuild the wait queue in virtual order.
        waiting = self._waiting
        waiting.clear()
        for member in queue:
            if member is skip:
                member.burst.handoff = None
                member.burst.parked_grant = None
                if member.grant is not None:
                    grant_burst.pop(member.grant, None)
                continue
            burst = member.burst
            grant = member.grant
            if grant is None:
                # On a core when the epoch formed; the replay preempted
                # it.  Park the generator on a fresh grant: when it fires,
                # the burst starts a fresh dispatch segment.
                carrier = burst.timer
                grant = Event(sim)
                grant.callbacks = carrier.callbacks
                carrier.callbacks = None
                proc = burst.proc
                if proc is not None and proc._target is carrier:
                    proc._target = grant
                member.grant = grant
                grant_burst[grant] = burst
                burst.timer = None
                burst.handoff = _H_DISPATCH
                burst.parked_grant = grant
            # else: still parked exactly as at formation — either at its
            # rotation re-acquire (no handoff) or on a carrier grant minted
            # by an earlier chained reconstruction (_H_DISPATCH intact).
            # Its parked state must survive untouched.
            waiting.append(grant)
        # On-core roles: fresh boundary timers, minted in the order the
        # reference minted the timers they stand in for (only same-instant
        # fire order is observable; the kernel breaks when-ties by seq).
        armed = []
        for member in oncore:
            if member is skip:
                member.burst.handoff = None
                member.burst.parked_grant = None
                skip_on_core = True
                continue
            armed.append((member.burst.next_boundary(), member.arm_band,
                          member.arm_order, member))
        armed.sort(key=lambda item: item[:3])
        for boundary, _band, _order, member in armed:
            burst = member.burst
            grant = member.grant
            if grant is not None:
                # Parked at its rotation re-acquire but virtually
                # dispatched: grant the core for real; the generator
                # resumes onto its restored mid-interval cursor.
                member.grant = None
                grant_burst.pop(grant, None)
                burst.handoff = _H_CURSOR
                burst.parked_grant = None
                # Mint its boundary timer here, in reference mint order —
                # the generator reuses it (see _H_CURSOR in _execute_fast)
                # so a seq tie at the boundary instant breaks exactly as
                # the reference's interleaved arms would.
                replacement = AbsoluteTimeout(sim, boundary)
                burst.arm_seq = sim._seq
                burst.timer = replacement
                burst.armed_end = boundary
                burst.switch_end_wake = False
                grant.succeed(None)
                continue
            carrier = burst.timer
            replacement = AbsoluteTimeout(sim, boundary)
            burst.arm_seq = sim._seq
            replacement.callbacks = carrier.callbacks
            carrier.callbacks = None
            burst.timer = replacement
            burst.armed_end = boundary
            burst.switch_end_wake = False
            proc = burst.proc
            if proc is not None and proc._target is carrier:
                proc._target = replacement
        return skip_on_core

    def _dissolve(self) -> None:
        """Dissolve the epoch at the current instant (arrival/freq change).

        Commits are inclusive: a replayed wake landing exactly on ``now``
        happened — its stand-in timer was minted before the dissolving
        event, so the reference had already fired it (the same argument as
        :meth:`_demote_inflight`).
        """
        epoch = self._epoch
        self._epoch = None
        _EPOCH_STATS["epochs_demoted"] += 1
        now = self.sim._now
        epoch.commit_to(now, None)
        horizon = epoch.horizon_timer
        try:
            horizon.callbacks.remove(epoch.fire_cb)
        except ValueError:
            pass
        horizon.cancel()
        self._reconstruct(epoch, now)

    def _dissolve_for_interrupt(self, victim: _Burst) -> bool:
        """Dissolve for an interrupt landing on ``victim``.

        The victim's cursor is restored but it is not re-parked (its
        exception path unwinds the generator).  Returns True when the
        victim virtually held a core.
        """
        epoch = self._epoch
        self._epoch = None
        _EPOCH_STATS["epochs_demoted"] += 1
        now = self.sim._now
        epoch.commit_to(now, None)
        horizon = epoch.horizon_timer
        try:
            horizon.callbacks.remove(epoch.fire_cb)
        except ValueError:
            pass
        horizon.cancel()
        return self._reconstruct(epoch, now, skip=epoch.members[victim])

    def _epoch_fire(self, epoch: _Epoch) -> None:
        """Horizon callback: the first participant completed (or the tape
        capped out); commit everything and return to slice granularity."""
        if self._epoch is not epoch:
            return  # stale: dissolved earlier this instant
        self._epoch = None
        _EPOCH_STATS["epochs_completed"] += 1
        now = self.sim._now
        epoch.commit_to(now, None)
        finisher = epoch.finisher
        skip = None
        if (finisher is not None
                and finisher.burst.timer is epoch.horizon_timer):
            # The finisher's resume rides this very event (it was parked
            # on the horizon timer): restore, don't re-park.
            skip = finisher
        self._reconstruct(epoch, now, skip=skip)

    # -------------------------------------------------- coalesced bookkeeping
    def _demote_inflight(self, freq_change: bool = False) -> None:
        """Reprogram every armed whole-burst timer to its next boundary.

        Boundaries up to and *including* now are committed first.  A
        demotion is triggered by an event created at the current instant
        (a core waiter's grant, a governor call); the reference timer for
        a boundary landing exactly at now was created a whole slice
        earlier, so it fires — charges, checks an as-yet-empty wait queue,
        and arms the next slice — before that triggering event.  The
        replacement timer therefore cuts at the *next* boundary, never at
        now.

        ``freq_change`` demotes cut at the end of the interval currently
        in progress — the dispatch switch or the current slice, whose
        durations the reference loop had already fixed — because every
        later slice must be re-folded at the new clock at the wake.
        """
        sim = self.sim
        now = sim._now
        candidates = []
        for burst in self._inflight:
            if burst.timer is None:
                continue  # between segments (preempt dance in progress)
            if burst.switch_end_wake:
                # Already waking at the earliest safe boundary; the wake
                # re-folds with fresh clock/queue state.
                continue
            if burst.armed_end == now:
                # The timer fires at the current instant: it *is* the
                # reference timer for this boundary, and its wake — later
                # this instant, in reference seq order — performs the
                # boundary check itself.  Reprogramming it here would skip
                # that check.
                continue
            # Inclusive commit, even when the demoting event was scheduled
            # in the past: the reference's queue join always rides a
            # same-instant hop (the mutex token, or a grant handed off
            # inside a boundary callback), so every reference timer for a
            # boundary landing exactly at now fires — charges, sees the
            # not-yet-joined queue, arms the next slice — before the join.
            burst.commit(now)
            candidates.append(burst)
        # Replacement timers must be minted in the order the reference
        # created the timers they stand in for — the start of each burst's
        # in-progress interval (burst.t after the commit above).
        # Two bursts re-armed at the same boundary instant then wake in
        # the reference's order; _inflight (dispatch) order would not.
        candidates.sort(key=lambda burst: (burst.t, burst.arm_seq))
        for burst in candidates:
            timer = burst.timer
            if freq_change and not burst.switch_done:
                boundary = burst.t + burst.switch_seconds
                switch_end = True
            elif freq_change and burst.rem > 0 and burst.t == now:
                # Governor call lands exactly on a slice boundary: the
                # next slice starts *now* at the new frequency (with the
                # stale slice size, like the reference).  Wake at the
                # current instant; the ordinary wake path re-folds so.
                boundary = now
                switch_end = False
            else:
                boundary = burst.next_boundary()
                switch_end = False
            if boundary == burst.armed_end:
                burst.switch_end_wake = switch_end
                continue  # already slice-granular
            timer.cancel()
            replacement = AbsoluteTimeout(sim, boundary)
            burst.arm_seq = sim._seq
            replacement.callbacks = timer.callbacks
            timer.callbacks = None
            burst.timer = replacement
            burst.armed_end = boundary
            burst.switch_end_wake = switch_end
            proc = burst.proc
            if proc is not None and proc._target is timer:
                proc._target = replacement

    def _settle_inflight(self) -> None:
        """Accounting settle hook: charge elapsed coalesced boundaries.

        The reader is an observer (see :meth:`_Burst.commit`): a probe
        whose timeout was armed before the in-progress slice began must
        not see a boundary landing float-exactly on its own wake instant —
        the reference charges that boundary strictly after the probe.
        """
        now = self.sim._now
        observer_sched = self.sim._active_sched_time
        epoch = self._epoch
        if epoch is not None:
            epoch.commit_to(now, observer_sched)
            return
        for burst in self._inflight:
            if burst.timer is not None:
                burst.commit(now, observer_sched=observer_sched)

    # -------------------------------------------------------------- execution
    def execute(self, thread: Thread, cycles: float, category: str):
        """Generator implementing a CPU burst (see :meth:`Thread.run`)."""
        if _legacy_slices or self.sim.sanitizer is not None:
            return self._execute_sliced(thread, cycles, category)
        return self._execute_fast(thread, cycles, category)

    def _execute_sliced(self, thread: Thread, cycles: float, category: str):
        """The slice-loop reference: one timer per time slice.

        This is the pre-PR5 scheduler, kept verbatim as the semantic
        reference for the coalesced fast path (``REPRO_LEGACY_SLICES=1``
        selects it; sanitize mode always uses it).
        """
        if cycles < 0:
            raise SimulationError(f"negative cycle count {cycles}")
        if cycles == 0:
            return
        tracer = self.tracer
        with thread._mutex.acquire() as token:
            yield token
            remaining = float(cycles)
            # CFS wake-affinity stacking: under load, this wakeup may land
            # behind a busy core instead of finding the idle one, waiting a
            # wakeup-preemption granularity before dispatch (Section 2's
            # I/O-thread synchronization delay).
            busy = self.busy_cores
            if busy > 0 and self.costs.wakeup_stacking_delay_seconds > 0:
                probability = ((busy / self.cores)
                               ** self.costs.wakeup_stacking_exponent)
                if self._rng.random() < probability:
                    self.stacked_wakeups += 1
                    if tracer is not None and tracer.wants("sched"):
                        tracer.record(self.sim.now, "sched", "stacked",
                                      thread=thread.name, busy=busy)
                    yield self.sim.timeout(
                        self.costs.wakeup_stacking_delay_seconds)
            yield from self._acquire_core_or_abort()
            if tracer is not None and tracer.wants("sched"):
                tracer.record(self.sim.now, "sched", "dispatch",
                              thread=thread.name, cycles=cycles)
            on_core = True
            try:
                # Pay the dispatch context switch (accounted as "others").
                switch_time = self.seconds(self.costs.context_switch_cycles)
                yield self.sim.timeout(switch_time)
                self.accounting.charge(thread.name, OTHERS, switch_time)

                slice_cycles = (self.costs.time_slice_seconds
                                * self.frequency_hz)
                while remaining > 0:
                    burst = min(remaining, slice_cycles)
                    duration = self.seconds(burst)
                    yield self.sim.timeout(duration)
                    self.accounting.charge(thread.name, category, duration)
                    remaining -= burst
                    if remaining > 0 and self._waiting:
                        # Round-robin: yield the core, rejoin the queue tail.
                        if tracer is not None and tracer.wants("sched"):
                            tracer.record(self.sim.now, "sched",
                                          "preempt", thread=thread.name,
                                          remaining=remaining)
                        self._release_core()
                        on_core = False
                        yield from self._acquire_core_or_abort()
                        on_core = True
                        switch_time = self.seconds(
                            self.costs.context_switch_cycles)
                        yield self.sim.timeout(switch_time)
                        self.accounting.charge(thread.name, OTHERS, switch_time)
                        slice_cycles = (self.costs.time_slice_seconds
                                        * self.frequency_hz)
            finally:
                if on_core:
                    self._release_core()

    def _execute_fast(self, thread: Thread, cycles: float, category: str):
        """Coalesced-burst fast path: one timer per uncontended segment.

        Event-for-event equivalent to :meth:`_execute_sliced` with two
        provably invisible eliminations:

        * the zero-delay mutex-token and core-grant round-trips are skipped
          when nothing else is scheduled at the current instant (the slot
          is assigned synchronously either way; the round-trip only matters
          when another same-instant event could interleave);
        * intermediate slice-boundary wake-ups are skipped while no thread
          waits for a core — their only effects (accounting charges, the
          next private timer) are replayed exactly by the fold in
          :class:`_Burst`, and :meth:`_demote_inflight` restores per-slice
          preemption the moment a contender arrives.
        """
        if cycles < 0:
            raise SimulationError(f"negative cycle count {cycles}")
        if cycles == 0:
            return
        sim = self.sim
        tracer = self.tracer
        resource = thread._mutex._resource
        token = None
        marker = None
        if not resource._users and sim._quiet_at(sim._now):
            # Mutex free and provably nothing can interleave: take the
            # slot synchronously, skip the token round-trip.  The shared
            # marker is safe: a capacity-1 resource holds at most one user,
            # so no ``_users`` list ever contains it twice.
            marker = _ELIDED
            resource._users.append(marker)
        else:
            token = resource.request()
        try:
            if token is not None:
                yield token
            remaining = float(cycles)
            busy = self.cores - self._free_cores
            if busy > 0 and self.costs.wakeup_stacking_delay_seconds > 0:
                probability = ((busy / self.cores)
                               ** self.costs.wakeup_stacking_exponent)
                if self._rng.random() < probability:
                    self.stacked_wakeups += 1
                    if tracer is not None and tracer.wants("sched"):
                        tracer.record(sim.now, "sched", "stacked",
                                      thread=thread.name, busy=busy)
                    yield sim.timeout(
                        self.costs.wakeup_stacking_delay_seconds)
            on_core = False
            if self._free_cores > 0 and sim._quiet_at(sim._now):
                # Same elision for the grant round-trip.
                self._free_cores -= 1
                on_core = True
            else:
                yield from self._acquire_core_or_abort()
                on_core = True
            if tracer is not None and tracer.wants("sched"):
                tracer.record(sim.now, "sched", "dispatch",
                              thread=thread.name, cycles=cycles)
            burst = _Burst(self, thread.name, category, sim._active_process)
            self._inflight.append(burst)
            try:
                pending_switch = self.seconds(self.costs.context_switch_cycles)
                slice_cycles = (self.costs.time_slice_seconds
                                * self.frequency_hz)
                while True:
                    if burst.handoff is _H_CURSOR:
                        # An epoch dissolution restored a mid-interval
                        # cursor: arm straight from it.  The reconstruction
                        # pre-minted the boundary timer (in reference mint
                        # order); reuse it rather than re-arming.
                        burst.handoff = None
                        timer = burst.timer
                        if timer is None:
                            end = burst.next_boundary()
                            timer = AbsoluteTimeout(sim, end)
                            burst.timer = timer
                            burst.armed_end = end
                            burst.arm_seq = sim._seq
                    else:
                        burst.begin_segment(sim._now, remaining,
                                            pending_switch, slice_cycles,
                                            self.frequency_hz)
                        # Born contended: arm only up to the first slice
                        # boundary, exactly where the reference would
                        # preempt.
                        end = (burst.next_boundary() if self._waiting
                               else burst.segment_end())
                        timer = AbsoluteTimeout(sim, end)
                        burst.timer = timer
                        burst.armed_end = end
                        burst.arm_seq = sim._seq
                    if (self._waiting and self._epoch is None
                            and _epochs_enabled):
                        self._maybe_form_epoch(burst)
                        timer = burst.timer  # possibly parked on the epoch
                    try:
                        yield timer
                    except BaseException:
                        # Interrupt mid-segment: charge elapsed boundaries
                        # (the in-flight partial slice is never charged,
                        # matching the reference) and unwind.
                        pending = burst.timer
                        if (burst.handoff is _H_CURSOR
                                and pending is not None
                                and pending is not timer):
                            # Interrupted between an epoch fire and the
                            # resume: the pre-minted boundary timer was
                            # never yielded; withdraw it.
                            burst.handoff = None
                            if not pending.triggered:
                                pending.cancel()
                        burst.timer = None
                        epoch = self._epoch
                        if epoch is not None and burst in epoch.members:
                            if not self._dissolve_for_interrupt(burst):
                                on_core = False  # virtually preempted
                            raise
                        grant = burst.parked_grant
                        if grant is not None:
                            # Parked queued by a dissolution.  Usually the
                            # grant never fired: withdraw it from the queue.
                            # On an end-of-run teardown the grant may have
                            # fired with the resume still undelivered — then
                            # we hold a core and the finally releases it.
                            burst.parked_grant = None
                            burst.handoff = None
                            self._grant_burst.pop(grant, None)
                            if not grant.triggered:
                                self._waiting.remove(grant)
                                on_core = False
                            raise
                        burst.commit(sim._now)
                        raise
                    handoff = burst.handoff
                    if handoff is _H_CURSOR:
                        # Re-granted a core with a restored mid-interval
                        # cursor; ``burst.timer`` holds the pre-minted
                        # boundary timer (the loop top consumes the flag).
                        continue
                    burst.timer = None
                    if handoff is _H_DISPATCH:
                        # Virtually preempted during an epoch; the grant
                        # minted at dissolution just fired: start a fresh
                        # dispatch segment (boundaries were committed by
                        # the epoch tape, nothing to commit here).
                        burst.handoff = None
                        grant = burst.parked_grant
                        burst.parked_grant = None
                        self._grant_burst.pop(grant, None)
                        remaining = burst.rem
                        pending_switch = self.seconds(
                            self.costs.context_switch_cycles)
                        slice_cycles = (self.costs.time_slice_seconds
                                        * self.frequency_hz)
                        continue
                    burst.commit(sim._now)
                    remaining = burst.rem
                    if remaining <= 0.0:
                        break
                    if burst.switch_end_wake:
                        # Frequency-change wake at the switch end: re-fold
                        # the slices at the new clock; no preemption here
                        # (the reference only preempts at slice ends).
                        # Slice size is recomputed too — the reference
                        # computes it after the switch yield, i.e. at the
                        # already-changed frequency.
                        burst.switch_end_wake = False
                        pending_switch = 0.0
                        slice_cycles = (self.costs.time_slice_seconds
                                        * self.frequency_hz)
                        continue
                    if self._waiting:
                        # Round-robin: yield the core, rejoin the queue
                        # tail.  The reacquisition context switch merges
                        # into the next segment's fold.
                        if tracer is not None and tracer.wants("sched"):
                            tracer.record(sim.now, "sched", "preempt",
                                          thread=thread.name,
                                          remaining=remaining)
                        self._release_core()
                        on_core = False
                        yield from self._acquire_core_fast(burst)
                        on_core = True
                        # An epoch may have run the burst virtually while
                        # it was parked: re-read the authoritative rem.
                        remaining = burst.rem
                        pending_switch = self.seconds(
                            self.costs.context_switch_cycles)
                        slice_cycles = (self.costs.time_slice_seconds
                                        * self.frequency_hz)
                    else:
                        # Demoted without a contender left (frequency
                        # change or drained queue): re-coalesce the rest.
                        pending_switch = 0.0
            finally:
                self._inflight.remove(burst)
                if on_core:
                    self._release_core()
        finally:
            if marker is not None:
                resource.release(marker)
            elif token.triggered:
                resource.release(token)
            else:
                resource.cancel(token)

    def __repr__(self) -> str:
        return (f"<CpuScheduler cores={self.cores} "
                f"freq={self.frequency_hz/1e9:.1f}GHz "
                f"busy={self.busy_cores} waiting={self.runnable_waiting}>")


class _MARKER:
    """Placeholder occupying a mutex slot taken via the elided fast path."""

    __slots__ = ()


_ELIDED = _MARKER()
