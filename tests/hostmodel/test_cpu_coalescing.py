"""Unit tests for the coalesced-burst scheduler fast path.

The exhaustive cross-checking against the per-slice reference lives in
``tests/properties/test_slice_equivalence.py``; these tests pin the
individual mechanisms — whole-burst timers, contender demotion, the
accounting settle hook, frequency-change re-folding, mutex/core ceremony
elision, and the sanitize-mode routing back to the reference loop — and
check that sustained oversubscription, perturbed by probes, a frequency
change and interrupts, runs identically on both paths.
"""

import pytest

from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler, epoch_stats, legacy_slices
from repro.metrics.accounting import CpuAccounting, OTHERS
from repro.sim import Interrupt, Simulator

ZERO_SWITCH = CostModel().with_overrides(context_switch_cycles=0.0,
                                         wakeup_stacking_delay_seconds=0.0)
SHORT_SLICES = ZERO_SWITCH.with_overrides(time_slice_seconds=1e-4)


def make_sched(cores=1, freq=1e9, costs=SHORT_SLICES, sanitize=False):
    sim = Simulator(sanitize=sanitize)
    acct = CpuAccounting()
    sched = CpuScheduler(sim, cores, freq, acct, costs)
    return sim, sched, acct


def test_uncontended_burst_runs_as_one_timer():
    # Pin the toggle: this test counts fast-path events and must hold even
    # when the environment forces REPRO_LEGACY_SLICES=1 globally.
    with legacy_slices(False):
        sim, sched, acct = make_sched(freq=1e9)
        thread = sched.thread("t")
        # 1M cycles @ 1GHz with 100us slices = 10 slices; coalesced, the
        # whole burst is at most a handful of kernel events instead of ~10.
        def proc():
            yield from thread.run(1_000_000, "work")

        sim.run_until_complete(sim.process(proc()))
        assert sim.now == pytest.approx(1e-3)
        assert acct.by_category()["work"] == pytest.approx(1e-3)
        assert sim.events_processed < 8


def test_legacy_toggle_runs_every_slice():
    with legacy_slices():
        sim, sched, acct = make_sched(freq=1e9)
        thread = sched.thread("t")

        def proc():
            yield from thread.run(1_000_000, "work")

        sim.run_until_complete(sim.process(proc()))
        assert sim.now == pytest.approx(1e-3)
        assert sim.events_processed >= 10  # one wake per 100us slice


def test_sanitize_mode_routes_to_reference_loop():
    sim, sched, acct = make_sched(freq=1e9, sanitize=True)
    thread = sched.thread("t")

    def proc():
        yield from thread.run(1_000_000, "work")

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == pytest.approx(1e-3)
    assert sim.events_processed >= 10  # slice-granular under the sanitizer
    assert sched._inflight == []


def test_mid_burst_accounting_read_settles_elapsed_boundaries():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    readings = []

    def worker():
        yield from thread.run(1_000_000, "work")  # 1ms

    def probe():
        yield sim.timeout(0.00035)
        readings.append(acct.total())

    sim.process(worker())
    sim.process(probe())
    sim.run()
    # At t=0.35ms three 100us slice boundaries have elapsed: the lazy burst
    # must settle exactly those, not zero and not the whole 1ms.
    assert readings == [pytest.approx(3e-4)]
    assert acct.total() == pytest.approx(1e-3)


def test_contender_arrival_demotes_to_round_robin():
    sim, sched, acct = make_sched(cores=1, freq=1e9)
    order = []

    def worker(name, delay, cycles):
        thread = sched.thread(name)
        yield sim.timeout(delay)
        yield from thread.run(cycles, "work")
        order.append((name, sim.now))

    sim.process(worker("early", 0.0, 1_000_000))
    sim.process(worker("late", 0.00025, 300_000))
    sim.run()
    # The late arrival lands mid-burst; round-robin then interleaves the
    # two, so the short burst finishes well before the long one.
    assert [name for name, _ in sorted(order, key=lambda pair: pair[1])] \
        == ["late", "early"]
    assert acct.by_thread()["early"] == pytest.approx(1e-3)
    assert acct.by_thread()["late"] == pytest.approx(3e-4)


def test_set_frequency_mid_burst_refolds():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    done = []

    def worker():
        yield from thread.run(1_000_000, "work")
        done.append(sim.now)

    def governor():
        yield sim.timeout(0.0005)
        sched.set_frequency(2e9)

    sim.process(worker())
    sim.process(governor())
    sim.run()
    # 0.5ms at 1GHz burns 500k cycles; the rest runs at 2GHz: 0.25ms more.
    assert done == [pytest.approx(0.00075)]
    assert acct.total() == pytest.approx(0.00075)


def test_interrupt_mid_burst_charges_elapsed_time_only():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    caught = []

    def worker():
        try:
            yield from thread.run(1_000_000, "work")
        except Interrupt:
            caught.append(sim.now)

    victim = sim.process(worker())

    def sniper():
        yield sim.timeout(0.00042)
        victim.interrupt("test")

    sim.process(sniper())
    sim.run()
    assert caught == [pytest.approx(0.00042)]
    # Only boundaries that elapsed before the interrupt are charged — the
    # reference loop would have charged exactly the four whole slices.
    assert acct.total() == pytest.approx(4e-4)
    assert sched._inflight == []


def test_context_switch_cost_still_charged_to_others():
    costs = CostModel().with_overrides(context_switch_cycles=1e6,
                                       wakeup_stacking_delay_seconds=0.0)
    sim, sched, acct = make_sched(freq=1e9, costs=costs)
    thread = sched.thread("t")

    def proc():
        yield from thread.run(500_000, "work")

    sim.run_until_complete(sim.process(proc()))
    assert acct.by_category()[OTHERS] == pytest.approx(1e-3)
    assert acct.by_category()["work"] == pytest.approx(5e-4)


def test_mutex_released_after_elided_ceremony():
    sim, sched, _ = make_sched()
    thread = sched.thread("t")

    def proc(tag):
        yield from thread.run(1000, "work")

    # Two sequential bursts on the same thread: the second can only acquire
    # the per-thread mutex if the elided first acquisition was released.
    def both():
        yield from thread.run(1000, "work")
        yield from thread.run(1000, "work")

    sim.run_until_complete(sim.process(both()))
    assert not thread._mutex._resource._users
    assert sched._free_cores == sched.cores


def test_fast_and_legacy_agree_on_contended_schedule():
    def run(use_legacy):
        with legacy_slices(use_legacy):
            sim, sched, acct = make_sched(cores=2, freq=1e9)
            finish = []

            def worker(name, delay, cycles):
                thread = sched.thread(name)
                yield sim.timeout(delay)
                yield from thread.run(cycles, "work")
                finish.append((name, sim.now))

            for i in range(4):
                sim.process(worker(f"t{i}", i * 1e-4, 350_000 + i * 7))
            sim.run()
            return sim.now, sorted(finish), sorted(acct.snapshot().items())

    assert run(False) == run(True)


# ---------------------------------------------------- sustained oversubscription
# Real switch costs so 'others' charges discriminate schedules; no wake
# stacking so the contended rotation is deterministic across modes.
CONTENDED = CostModel().with_overrides(wakeup_stacking_delay_seconds=0.0)


def run_batch(fast, n=8, cycles=48e6, cores=4, probe_at=None,
              freq_dance=None, interrupt_at=None):
    """n staggered CPU hogs on ``cores`` cores; returns full observables."""
    with legacy_slices(not fast):
        sim = Simulator()
        acct = CpuAccounting()
        sched = CpuScheduler(sim, cores, 3.2e9, acct, CONTENDED)
        finish, probes, caught = [], [], []
        victims = []

        def worker(i):
            thread = sched.thread(f"t{i}")
            yield sim.timeout(i * 1e-5)
            try:
                yield from thread.run(cycles + i * 1000, "work")
            except Interrupt:
                caught.append((f"t{i}", sim.now))
                return
            finish.append((f"t{i}", sim.now))

        for i in range(n):
            victims.append(sim.process(worker(i)))
        if probe_at is not None:
            def prober():
                yield sim.timeout(probe_at)
                probes.append(sorted(acct.snapshot().items()))
            sim.process(prober())
        if freq_dance is not None:
            def dancer():
                at, freq = freq_dance
                yield sim.timeout(at)
                sched.set_frequency(freq)
            sim.process(dancer())
        if interrupt_at is not None:
            def sniper():
                at, idx = interrupt_at
                yield sim.timeout(at)
                victims[idx].interrupt("contended test")
            sim.process(sniper())
        sim.run()
        return (sim.now, sorted(finish), sorted(caught), probes,
                sorted(acct.snapshot().items()))


@pytest.mark.parametrize("perturbation", [
    {},
    # Mid-round accounting reads: the settle hook must fold exactly the
    # boundaries the reference's per-slice charges had made.
    {"probe_at": 0.0045},
    {"probe_at": 0.006},
    {"probe_at": 0.0101},
    {"freq_dance": (0.0043, 2.4e9)},
    {"interrupt_at": (0.0047, 2)},
    {"interrupt_at": (0.0071, 6)},
    {"probe_at": 0.006, "freq_dance": (0.0043, 2.4e9),
     "interrupt_at": (0.0047, 2)},
], ids=["plain", "probe-4.5ms", "probe-6ms", "probe-10.1ms", "freq-2.4GHz",
        "interrupt-t2", "interrupt-t6", "probe+freq+interrupt"])
def test_sustained_oversubscription_fast_equals_sliced(perturbation):
    # 8 hogs on 4 cores: every burst is demoted and round-robins slice by
    # slice for most of its life.
    fast = run_batch(fast=True, **perturbation)
    assert fast == run_batch(fast=False, **perturbation)
    now, finish, caught, probes, _ = fast
    assert len(finish) + len(caught) == 8
    if "interrupt_at" in perturbation:
        assert len(caught) == 1
    if "probe_at" in perturbation:
        assert probes and probes[0]


def test_periodic_hogs_with_probes_fast_equals_sliced():
    # lookbusy-style duty cycles: run/sleep loops that repeatedly form and
    # drain the contended round, observed by a mid-flight prober.
    def run(fast):
        with legacy_slices(not fast):
            sim = Simulator()
            acct = CpuAccounting()
            sched = CpuScheduler(sim, 2, 3.2e9, acct, CONTENDED)
            probes = []

            def hog(i):
                thread = sched.thread(f"hog{i}")
                for _ in range(12):
                    yield from thread.run(27.2e6 + i * 640, "spin")
                    yield sim.timeout(0.0015)

            for i in range(4):
                sim.process(hog(i))

            def prober():
                while sim.now < 0.05:
                    yield sim.timeout(0.0031)
                    probes.append(sorted(acct.snapshot().items()))

            sim.process(prober())
            sim.run()
            return sim.now, probes, sorted(acct.snapshot().items())

    assert run(True) == run(False)


def test_epoch_stats_reports_the_keys_perfbench_reads_at_zero():
    # perfbench derives hostmodel.epoch_commit_ratio from these two keys.
    assert epoch_stats() == {"epochs_formed": 0, "epochs_completed": 0}
