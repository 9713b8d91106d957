"""Unit tests for processes: sequencing, waiting, interrupts, conditions."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, SimulationError, Simulator


def test_process_runs_to_completion():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))

    sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_receives_event_value():
    sim = Simulator()
    event = sim.event()
    got = []

    def proc():
        got.append((yield event))

    sim.process(proc())
    event.succeed("hello")
    sim.run()
    assert got == ["hello"]


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    parent_proc = sim.process(parent())
    sim.run()
    assert parent_proc.value == (5.0, "child-result")


def test_failed_event_raises_inside_process():
    sim = Simulator()
    event = sim.event()
    caught = []

    def proc():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    event.fail(RuntimeError("bad"))
    sim.run()
    assert caught == ["bad"]


def test_uncaught_process_exception_propagates_to_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_waiting_process_catches_child_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield sim.process(child())
        except KeyError:
            return "recovered"

    parent_proc = sim.process(parent())
    sim.run()
    assert parent_proc.value == "recovered"


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc():
        yield 42

    sim.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")
    times = []

    def proc():
        yield sim.timeout(3.0)
        value = yield event  # processed long ago
        times.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert times == [(3.0, "early")]


def test_interrupt_raises_with_cause():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    victim_proc = sim.process(victim())

    def attacker():
        yield sim.timeout(2.0)
        victim_proc.interrupt("preempted")

    sim.process(attacker())
    sim.run()
    assert caught == [(2.0, "preempted")]


def test_interrupt_detaches_from_waited_event():
    sim = Simulator()
    resumed = []

    def victim():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass
        yield sim.timeout(100.0)
        resumed.append(sim.now)

    victim_proc = sim.process(victim())

    def attacker():
        yield sim.timeout(1.0)
        victim_proc.interrupt()

    sim.process(attacker())
    sim.run()
    # Victim must resume from the interrupt at t=1 then wait 100 more, and
    # must NOT be resumed again by the original t=10 timeout.
    assert resumed == [101.0]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    process = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_allof_waits_for_all():
    sim = Simulator()
    done = []

    def proc():
        timeout_a = sim.timeout(1.0, "a")
        timeout_b = sim.timeout(3.0, "b")
        results = yield AllOf(sim, [timeout_a, timeout_b])
        done.append((sim.now, results[timeout_a], results[timeout_b]))

    sim.process(proc())
    sim.run()
    assert done == [(3.0, "a", "b")]


def test_anyof_fires_on_first():
    sim = Simulator()
    done = []

    def proc():
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(9.0, "slow")
        results = yield AnyOf(sim, [fast, slow])
        done.append((sim.now, list(results.values())))

    sim.process(proc())
    sim.run()
    assert done == [(1.0, ["fast"])]


def test_and_or_operators():
    sim = Simulator()
    done = []

    def proc():
        both = sim.timeout(1.0) & sim.timeout(2.0)
        yield both
        done.append(sim.now)
        either = sim.timeout(5.0) | sim.timeout(3.0)
        yield either
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [2.0, 5.0]


def test_empty_allof_fires_immediately():
    sim = Simulator()
    condition = AllOf(sim, [])
    sim.run()
    assert condition.triggered and condition.value == {}


def test_condition_propagates_failure():
    sim = Simulator()
    bad = sim.event()
    good = sim.timeout(10.0)
    caught = []

    def proc():
        try:
            yield AllOf(sim, [good, bad])
        except RuntimeError:
            caught.append(sim.now)

    sim.process(proc())
    bad.fail(RuntimeError("nope"))
    sim.run()
    assert caught == [0.0]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def worker(tag, period):
        for _ in range(3):
            yield sim.timeout(period)
            trace.append((tag, sim.now))

    sim.process(worker("x", 1.0))
    sim.process(worker("y", 1.5))
    sim.run()
    # At t=3.0 both workers fire; y's timeout was scheduled first (at t=1.5,
    # before x's at t=2.0), so insertion order puts y ahead of x.
    assert trace == [
        ("x", 1.0), ("y", 1.5), ("x", 2.0), ("y", 3.0), ("x", 3.0), ("y", 4.5),
    ]


def test_process_is_alive_flag():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    process = sim.process(proc())
    assert process.is_alive
    sim.run()
    assert not process.is_alive


# ----------------------------------------------------------------- retire
def test_retire_finishes_parked_process_without_scheduling():
    sim = Simulator()
    closed = []

    def parked():
        try:
            yield sim.event()
        finally:
            closed.append(sim.now)

    proc = sim.process(parked())
    sim.run()
    seq = sim._seq
    proc.retire()
    assert sim._seq == seq
    assert not proc.is_alive and proc.value is None
    assert closed == [0.0]  # the generator is closed now, not at GC time

    def waiter():
        return (yield proc)

    assert sim.run_until_complete(sim.process(waiter())) is None


def test_retire_refuses_awaited_or_unparked_processes():
    sim = Simulator()

    def parked():
        yield sim.event()

    def waiter(target):
        yield target

    fresh = sim.process(parked())
    with pytest.raises(SimulationError, match="not parked"):
        fresh.retire()
    awaited = sim.process(parked())
    sim.process(waiter(awaited))
    sim.run()
    with pytest.raises(SimulationError, match="awaited"):
        awaited.retire()


def test_retire_raises_when_closing_schedules_an_event():
    sim = Simulator()

    def parked():
        try:
            yield sim.event()
        finally:
            sim.timeout(1.0)

    proc = sim.process(parked())
    sim.run()
    with pytest.raises(SimulationError, match="scheduled 1 event"):
        proc.retire()
