"""PR 5 performance harness: coalesced scheduler + kernel diet.

Measures, each workload in a fresh subprocess (clean module memos, clean
RSS high-water mark):

* registry experiments (fig03, fig11, scale-racks) with the coalesced
  fast path vs the slice-loop reference (``REPRO_LEGACY_SLICES`` toggle),
  with a byte-identity check between the two — the optimization may only
  change host wall time, never simulated results;
* the fig11 sweep at ``--jobs 1`` vs ``--jobs 4`` under the fast path
  (byte-identity check: fan-out must stay deterministic);
* kernel micro-benchmarks: bare event dispatch throughput, a
  cancelled-timer storm exercising lazy heap compaction, and the
  ``Tracer.record`` call-site guard (enabled vs filtered vs guarded-off).

Writes BENCH_pr5.json (see docs/performance.md) and exits non-zero if any
determinism gate fails — CI runs this with ``--quick``.

Wall-clock use is deliberate and allowed here: this file measures the
*host* runtime of the simulator, it is not simulation code (simlint scans
``src/repro`` only).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "src"))


def _measure_in_child(target, kwargs, conn):
    started = time.monotonic()
    payload = target(**kwargs)
    elapsed = time.monotonic() - started
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send({"wall_s": round(elapsed, 3), "max_rss_mb":
               round(max_rss_kb / 1024, 1), "payload": payload})
    conn.close()


def measure(target, **kwargs):
    """Run ``target(**kwargs)`` in a fresh process; return timing + result.

    A subprocess per measurement keeps sweep memos, toggle state and the
    RSS high-water mark of one phase from contaminating the next.
    """
    parent, child = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_measure_in_child,
                                   args=(target, kwargs, child))
    proc.start()
    child.close()
    result = parent.recv()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"benchmark child failed: {target.__name__}")
    return result


# ----------------------------------------------------------- child workloads
def _run_experiment(name, profile, jobs, legacy):
    from repro.experiments import runner
    from repro.hostmodel.cpu import use_legacy_slices

    use_legacy_slices(legacy)
    result = runner.run_experiment(name, profile=profile, jobs=jobs, seed=0)
    return runner.canonical_json(result)


def _run_event_storm(n_events):
    """Bare kernel throughput: n chained zero-work timeouts."""
    from repro.sim import Simulator
    from repro.sim.kernel import kernel_stats, reset_kernel_stats

    reset_kernel_stats()
    sim = Simulator()

    def ticker():
        for _ in range(n_events):
            yield sim.timeout(1e-6)

    sim.run_until_complete(sim.process(ticker()))
    return {"events": kernel_stats()["events_processed"]}


def _run_cancel_storm(n_timers):
    """Deadline-timer churn: mint, cancel, repeat — compaction must keep
    the heap (and peek) from drowning in dead entries."""
    from repro.sim import Simulator
    from repro.sim.kernel import kernel_stats, reset_kernel_stats

    reset_kernel_stats()
    sim = Simulator()

    def churner():
        for index in range(n_timers):
            deadline = sim.timeout(1e3)     # far-future deadline
            yield sim.timeout(1e-6)         # the guarded op "wins"
            deadline.cancel()
            if not index % 1024:
                sim.peek()

    sim.run_until_complete(sim.process(churner()))
    stats = kernel_stats()
    return {"cancelled_discarded": stats["cancelled_discarded"],
            "heap_high_water": stats["heap_high_water"],
            "compactions": stats["compactions"]}


def _run_tracer_bench(n_records, mode):
    """Tracer.record cost: enabled, filtered-inside, or guarded call site."""
    from repro.metrics.tracing import Tracer

    if mode == "enabled":
        tracer = Tracer(capacity=1024)
    else:
        tracer = Tracer(capacity=1024, categories={"other"})
    if mode == "guarded":
        # The PR 5 call-site idiom: skip building **fields entirely.
        wants = tracer.wants("sched")
        count = 0
        for index in range(n_records):
            if wants:
                tracer.record(0.0, "sched", "dispatch",
                              thread="t", cycles=index)
            count += 1
        return {"recorded": tracer.recorded, "visited": count}
    for index in range(n_records):
        tracer.record(0.0, "sched", "dispatch", thread="t", cycles=index)
    return {"recorded": tracer.recorded, "visited": n_records}


#: Wall-clock gates: {speedup key: floor}.  Comfortably below the values
#: measured on the reference host, so jitter never trips them but a
#: silently-disabled fast path does.  scale-racks is deliberately
#: ungated here: it is content-synthesis-bound, so the slices toggle
#: alone cannot move it (tests/experiments/test_quick_digests.py checks
#: its fast-vs-reference byte identity instead).
SPEEDUP_FLOORS = {
    "fig03_fast_vs_legacy": 1.1,
    "tracer_guarded_vs_filtered": 1.5,
}


def gate_speedups(out, failures, quick):
    """Wall-clock gates: assert on full-size multi-core runs, otherwise
    record the measurement as skipped with an explicit note in the JSON.
    Determinism gates ran regardless."""
    multi_core = (out["host"]["cpu_count"] or 1) > 1
    if not multi_core:
        skip_note = ("single-core host: wall-clock speedups are not "
                     "meaningful here; determinism gates still ran")
    elif quick:
        skip_note = ("quick profile: datasets are startup-dominated, so "
                     "wall-clock floors only assert on full-size runs; "
                     "determinism gates still ran")
    else:
        skip_note = None
    out["speedup_gates"] = {}
    for key, floor in SPEEDUP_FLOORS.items():
        measured = out["speedups"].get(key)
        if skip_note is not None:
            out["speedup_gates"][key] = {"floor": floor,
                                         "measured": measured,
                                         "skipped": skip_note}
            continue
        passed = measured is not None and measured >= floor
        out["speedup_gates"][key] = {"floor": floor, "measured": measured,
                                     "passed": passed}
        if not passed:
            failures.append(f"speedup gate {key}: {measured} < {floor}")


# ------------------------------------------------------------------ phases
def bench_slices(name, profile, out, failures):
    legacy = measure(_run_experiment, name=name, profile=profile,
                     jobs=1, legacy=True)
    fast = measure(_run_experiment, name=name, profile=profile,
                   jobs=1, legacy=False)
    identical = legacy.pop("payload") == fast.pop("payload")
    out["benchmarks"][f"{name}_legacy_slices"] = legacy
    out["benchmarks"][f"{name}_fast"] = fast
    out["determinism"][f"{name}_legacy_vs_fast"] = identical
    out["speedups"][f"{name}_fast_vs_legacy"] = round(
        legacy["wall_s"] / fast["wall_s"], 2)
    if not identical:
        failures.append(f"{name}: fast path diverged from legacy slices")
    print(f"  {name:12s} legacy {legacy['wall_s']:6.2f}s   "
          f"fast {fast['wall_s']:6.2f}s   "
          f"{out['speedups'][f'{name}_fast_vs_legacy']:.2f}x   "
          f"identical={identical}")


def bench_jobs(name, profile, out, failures):
    serial = measure(_run_experiment, name=name, profile=profile,
                     jobs=1, legacy=False)
    fanned = measure(_run_experiment, name=name, profile=profile,
                     jobs=4, legacy=False)
    identical = serial.pop("payload") == fanned.pop("payload")
    out["benchmarks"][f"{name}_jobs1"] = serial
    out["benchmarks"][f"{name}_jobs4"] = fanned
    out["determinism"][f"{name}_jobs1_vs_jobs4"] = identical
    if not identical:
        failures.append(f"{name}: --jobs 4 diverged from --jobs 1")
    print(f"  {name:12s} jobs1 {serial['wall_s']:6.2f}s   "
          f"jobs4 {fanned['wall_s']:6.2f}s   identical={identical}")


def bench_kernel(out, quick):
    events = 200_000 if quick else 1_000_000
    storm = measure(_run_event_storm, n_events=events)
    rate = round(storm["payload"]["events"] / storm["wall_s"])
    out["benchmarks"]["event_storm"] = {
        "wall_s": storm["wall_s"], "events": storm["payload"]["events"],
        "events_per_second": rate}
    print(f"  event storm  {storm['wall_s']:6.2f}s   {rate:,} events/s")

    timers = 100_000 if quick else 500_000
    churn = measure(_run_cancel_storm, n_timers=timers)
    payload = churn["payload"]
    out["benchmarks"]["cancel_storm"] = {
        "wall_s": churn["wall_s"], **payload}
    print(f"  cancel storm {churn['wall_s']:6.2f}s   "
          f"high-water {payload['heap_high_water']} "
          f"(compactions {payload['compactions']})")


def bench_tracer(out, quick):
    records = 200_000 if quick else 1_000_000
    rows = {}
    for mode in ("enabled", "filtered", "guarded"):
        timing = measure(_run_tracer_bench, n_records=records, mode=mode)
        rows[mode] = timing["wall_s"]
        out["benchmarks"][f"tracer_{mode}"] = {
            "wall_s": timing["wall_s"],
            "recorded": timing["payload"]["recorded"]}
    out["speedups"]["tracer_guarded_vs_filtered"] = round(
        rows["filtered"] / max(rows["guarded"], 1e-9), 2)
    print(f"  tracer       enabled {rows['enabled']:.2f}s   "
          f"filtered {rows['filtered']:.2f}s   guarded {rows['guarded']:.2f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized datasets (minutes -> seconds)")
    parser.add_argument("--out", default="BENCH_pr5.json",
                        help="output JSON path (default: BENCH_pr5.json)")
    args = parser.parse_args(argv)

    profile = "quick" if args.quick else "default"
    out = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "profile": profile,
        "benchmarks": {},
        "determinism": {},
        "speedups": {},
        "notes": [],
    }
    failures = []

    print(f"coalesced scheduler vs slice-loop reference (profile={profile}):")
    bench_slices("fig03", profile, out, failures)
    bench_slices("fig11", profile, out, failures)
    bench_slices("scale-racks", profile, out, failures)

    print("fan-out determinism under the fast path:")
    bench_jobs("fig11", profile, out, failures)

    print("kernel micro-benchmarks:")
    bench_kernel(out, args.quick)
    bench_tracer(out, args.quick)

    gate_speedups(out, failures, args.quick)
    out["notes"].append(
        "speedups compare the same commit with REPRO_LEGACY_SLICES on vs "
        "off; simulated results are checked byte-identical between the two")

    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
